"""Differential check of the Groebner engine against sympy, when available.

Bases are compared after monic normalization under the matching order;
sympy prefers integer-primitive scaling where we keep leading coefficient
one, and over F_p it writes symmetric residues where we keep 0..p-1.
Skipped cleanly when sympy is not installed.
"""

import random

import pytest

sp = pytest.importorskip("sympy")

from gbtransfer.groebner import IdealPresentation, buchberger
from gbtransfer.polyarith import (
    GREVLEX,
    LEX,
    PolyRing,
    PrimeField,
    QQ,
    format_polynomial,
    parse_polynomial,
)

SYMS = sp.symbols("x y z")

FIXED_CASES = [
    (2, ["x**2 - y", "x*y - 1"]),
    (2, ["x**3 - y**2"]),
    (2, ["x**2 + y**2 - 1", "x - y"]),
    (3, ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
    (3, ["x**2 - y", "y**2 - z"]),
    (3, ["x*y - z", "y*z - x"]),
]

# Four-variable systems in w, x, y, z for the F_p comparison.
CYCLIC4 = [
    "w + x + y + z",
    "w*x + x*y + y*z + z*w",
    "w*x*y + x*y*z + y*z*w + z*w*x",
    "w*x*y*z - 1",
]
KATSURA3 = [
    "w + 2*x + 2*y + 2*z - 1",
    "w**2 + 2*x**2 + 2*y**2 + 2*z**2 - w",
    "2*w*x + 2*x*y + 2*y*z - x",
    "x**2 + 2*w*y + 2*x*z - y",
]

P = 32003


def _random_cases(count=10, seed=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        gens = []
        for _ in range(2):
            e = 0
            for _ in range(rng.randint(1, 3)):
                mono = 1
                for i in range(n):
                    mono *= SYMS[i] ** rng.randint(0, 2)
                e += rng.choice([-2, -1, 1, 2, 3]) * mono
            if e != 0:
                gens.append(str(e))
        if gens:
            out.append((n, gens))
    return out


def _monic_wrt(expr, gens, order):
    lc = sp.Poly(expr, *gens).coeffs(order=order)[0]
    return sp.expand(expr / lc)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_reduced_bases_agree_with_sympy(kind):
    order = GREVLEX if kind == "grevlex" else LEX
    for n, gens in FIXED_CASES + _random_cases():
        names = ("x", "y", "z")[:n]
        ring = PolyRing(QQ, n, order, names)
        pres = IdealPresentation(
            ring,
            tuple(parse_polynomial(g.replace("**", "^"), ring) for g in gens),
        )
        mine = {
            sp.expand(sp.sympify(format_polynomial(g).replace("^", "**")))
            for g in buchberger(pres).basis
        }
        reference = {
            _monic_wrt(e, SYMS[:n], kind)
            for e in sp.groebner(
                [sp.sympify(g) for g in gens], *SYMS[:n], order=kind
            ).exprs
        }
        assert mine == reference, f"{gens} under {kind}"


def _monic_terms_mod_p(expr, syms, order):
    terms = [
        (m, int(c) % P) for m, c in sp.Poly(expr, *syms).terms(order=order)
    ]
    inv = pow(terms[0][1], -1, P)
    return tuple((m, c * inv % P) for m, c in terms)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_reduced_bases_agree_with_sympy_mod_p(kind):
    order = GREVLEX if kind == "grevlex" else LEX
    cases = [(("x", "y", "z")[:n], gens) for n, gens in FIXED_CASES + _random_cases()]
    cases += [(("w", "x", "y", "z"), CYCLIC4), (("w", "x", "y", "z"), KATSURA3)]
    for names, gens in cases:
        syms = sp.symbols(names)
        ring = PolyRing(PrimeField(P), len(names), order, names)
        pres = IdealPresentation(
            ring,
            tuple(parse_polynomial(g.replace("**", "^"), ring) for g in gens),
        )
        mine = {g.terms for g in buchberger(pres).basis}
        reference = {
            _monic_terms_mod_p(e, syms, kind)
            for e in sp.groebner(
                [sp.sympify(g) for g in gens], *syms, order=kind, modulus=P
            ).exprs
        }
        assert mine == reference, f"{gens} under {kind} mod {P}"
