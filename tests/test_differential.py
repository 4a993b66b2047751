"""Differential check of the Groebner engine and of polynomial arithmetic
against sympy, when available.

Bases are compared after monic normalization under the matching order;
sympy prefers integer-primitive scaling where we keep leading coefficient
one, and over F_p it writes symmetric residues where we keep 0..p-1, so
its coefficients are compared as canonical residues.  Skipped cleanly when
sympy is not installed.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from gbtransfer.groebner import DegreeCapExceeded, IdealPresentation, buchberger
from gbtransfer.polyarith import (
    GREVLEX,
    LEX,
    PolyRing,
    PrimeField,
    QQ,
    RationalField,
    format_polynomial,
    monomials_up_to,
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


# A dense ideal: 2 or 3 generators in 2 or 3 variables, each with every
# monomial of degree <= d (1..3) and a nonzero coefficient in -3..3, over Q
# or F_P, under grevlex or lex.  Dense lex ideals in 3 variables at degree 3
# pass a kernel cap (the example below, on the coefficient cap).
@st.composite
def dense_ideals(draw):
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    size = len(monomials_up_to(n, d))
    coeffs = st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=size, max_size=size)
    gens = draw(st.lists(coeffs, min_size=2, max_size=3))
    return n, d, draw(st.sampled_from([None, P])), draw(st.sampled_from(["grevlex", "lex"])), gens


@given(dense_ideals())
@example((3, 3, None, "lex", [
    [3, -2, -2, -3, 2, -2, 3, -2, 1, -1, -1, -1, -2, -2, 1, 1, 1, -3, 2, -2],
    [-1, -1, 3, 3, 3, 2, -3, 2, -3, 3, -2, 1, 3, 2, -3, 1, -3, 1, 2, 3],
    [1, -1, -1, 1, 1, 2, 1, -3, -3, 1, -3, 3, 3, 3, -3, -3, -3, 2, -2, 2],
]))
@settings(max_examples=25, deadline=None)
def test_dense_ideals_answer_as_sympy_or_refuse(case):
    # every run answers sympy's reduced basis or raises DegreeCapExceeded,
    # within a wall-clock ceiling (each takes under a second here)
    n, d, p, kind, coeffs = case
    names = ("x", "y", "z")[:n]
    ring = PolyRing(PrimeField(p) if p else QQ, n, GREVLEX if kind == "grevlex" else LEX, names)
    monos = monomials_up_to(n, d)
    gens = [ring.from_terms(list(zip(c, monos))) for c in coeffs]
    t0 = time.monotonic()
    try:
        basis = buchberger(IdealPresentation(ring, tuple(gens))).basis
    except DegreeCapExceeded:
        basis = None
    assert time.monotonic() - t0 < 10
    if basis is None:
        return
    syms = sp.symbols(names)
    exprs = [sp.sympify(format_polynomial(g).replace("^", "**")) for g in gens]
    if p:
        reference = {
            _monic_terms_mod_p(e, syms, kind)
            for e in sp.groebner(exprs, *syms, order=kind, modulus=P).exprs
        }
        assert {g.terms for g in basis} == reference
    else:
        reference = {_monic_wrt(e, syms, kind) for e in sp.groebner(exprs, *syms, order=kind).exprs}
        assert {sp.expand(sp.sympify(format_polynomial(g).replace("^", "**"))) for g in basis} == reference


# Polynomial arithmetic against sympy Poly: +, -, *, **, monic and
# evaluate over Q and over F_2, F_3 and F_32003, on term lists with
# repeated monomials and with integer coefficients far outside 0..p-1.
ARITH_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(P)]


def _sympy_number(c):
    """An int or Fraction as a sympy Rational."""
    return sp.Rational(c.numerator, c.denominator)


def _sympy_value(value, fld):
    """A sympy number as this package's canonical field element."""
    if isinstance(fld, RationalField):
        value = sp.Rational(value)
        return Fraction(int(value.p), int(value.q))
    return int(value) % fld.p


def _expected(poly, ring):
    """The Polynomial with a sympy Poly's terms, coefficients canonical."""
    terms = {m: _sympy_value(c, ring.field) for m, c in poly.terms()}
    return ring.from_dict(terms)


def _coefficients(fld):
    if isinstance(fld, RationalField):
        return st.fractions(-9, 9, max_denominator=6)
    return st.integers(-(10**12), 10**12)


@st.composite
def _arith_problem(draw, fld):
    nvars = draw(st.integers(1, 3))
    order = draw(st.sampled_from([GREVLEX, LEX]))
    ring = PolyRing(fld, nvars, order, ("x", "y", "z")[:nvars])
    syms = SYMS[:nvars]
    domain = sp.QQ if isinstance(fld, RationalField) else sp.GF(fld.p)
    term = st.tuples(_coefficients(fld), st.tuples(*[st.integers(0, 3)] * nvars))

    def poly():
        pairs = draw(st.lists(term, max_size=5))
        expr = sum(
            _sympy_number(c) * sp.Mul(*[x**e for x, e in zip(syms, m)])
            for c, m in pairs
        )
        return ring.from_terms(pairs), sp.Poly(expr, *syms, domain=domain)

    point = draw(st.lists(_coefficients(fld), min_size=nvars, max_size=nvars))
    return ring, poly(), poly(), draw(st.integers(0, 4)), point


@pytest.mark.parametrize("fld", ARITH_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_polynomial_arithmetic_agrees_with_sympy(fld, data):
    ring, (f, F), (g, G), e, point = data.draw(_arith_problem(fld))
    assert f.terms == _expected(F, ring).terms
    assert (f + g).terms == _expected(F + G, ring).terms
    assert (f - g).terms == _expected(F - G, ring).terms
    assert (-f).terms == _expected(-F, ring).terms
    assert (f * g).terms == _expected(F * G, ring).terms
    assert (f ** e).terms == _expected(F ** e, ring).terms
    if f:
        lc = F.LC(order=ring.order.kind)
        assert f.monic().terms == _expected(F.quo_ground(lc), ring).terms
    value = F(*[_sympy_number(c) for c in point])
    assert f.evaluate(point) == _sympy_value(value, fld)
