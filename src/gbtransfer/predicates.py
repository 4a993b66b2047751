"""Ideal-theoretic decision procedures built on the Groebner kernel.

Covers presentation complexity, Krull dimension and height, radical
equality by bounded power search, a seeded Monte-Carlo primality probe,
and rational-point maximality certification.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .groebner import (
    DegreeCapExceeded, IdealPresentation, ideal, ideal_contains, ideal_member,
    normal_form,
)
from .polyarith import (
    AmbientMismatch,
    BadPrime,
    Polynomial,
    PrimeField,
    QQ,
    RationalField,
    _ProductBudget,
    format_polynomial,
    monomials_up_to,
    reduce_coeffs_mod_p,
)


class UnitIdeal(ValueError):
    """The presented ideal is the whole ring; the quotient is the zero ring."""


class NotContained(ValueError):
    """A required ideal containment does not hold."""


@dataclass(frozen=True)
class ComplexityReport:
    """Size data of a presentation: variable count, degrees, their max."""

    nvars: int
    max_degree: int
    complexity: int
    generator_count: int

    def as_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "max_degree": self.max_degree,
            "complexity": self.complexity,
            "generator_count": self.generator_count,
        }


def complexity_of(nvars: int, polys: Sequence[Polynomial]) -> ComplexityReport:
    """Complexity of a polynomial list: max(nvars, nonzero degrees).

    generator_count is the length of the list as given.
    """
    max_degree = max((int(g.degree()) for g in polys if g), default=0)
    return ComplexityReport(nvars, max_degree, max(nvars, max_degree), len(polys))


def complexity(I: IdealPresentation) -> ComplexityReport:
    """Complexity of the given presentation: max(nvars, generator degrees).

    Measured on the generators as listed; this is an upper bound for any
    smaller presentation of the same ideal.
    """
    return complexity_of(I.ring.nvars, I.generators)


def _lead_supports(I: IdealPresentation) -> list[frozenset[int]]:
    if any(g.degree() == 0 for g in I.basis):
        raise UnitIdeal("the presented ideal is the whole ring")
    return [
        frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
        for g in I.basis
    ]


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of ring/I.

    Combinatorial reading of the leading-term ideal: the largest variable
    subset U such that no basis leading monomial is supported inside U.
    """
    supports = _lead_supports(I)
    n = I.ring.nvars
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            u = frozenset(subset)
            if not any(s <= u for s in supports):
                return size
    raise AssertionError("unreachable: the empty subset is always independent")


@dataclass(frozen=True)
class HeightResult:
    """Dimension of the quotient and the complementary codimension."""

    dimension: int
    height: int

    def as_dict(self) -> dict:
        return {"dimension": self.dimension, "codimension": self.height}


def height_poly(I: IdealPresentation) -> HeightResult:
    """Height as codimension: nvars - dim(ring/I)."""
    d = dimension(I)
    return HeightResult(d, I.ring.nvars - d)


RADICAL_EQUAL = "equal"
RADICAL_NOT_CONTAINED = "not_contained_in_p"
RADICAL_POWER_NOT_FOUND = "generator_power_not_found"


@dataclass(frozen=True)
class RadicalResult:
    """Outcome of the bounded radical-equality check, with certificates.

    generator_power_not_found means "not proven within the cap", never a
    disproof.
    """

    status: str
    exponents: tuple[tuple[Polynomial, int], ...] = ()
    failed_generator: Polynomial | None = None
    cap: int | None = None

    @property
    def equal(self) -> bool:
        return self.status == RADICAL_EQUAL

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "exponents": [
                {"generator": format_polynomial(g), "exponent": e}
                for g, e in self.exponents
            ],
            "failed_generator": (
                format_polynomial(self.failed_generator)
                if self.failed_generator is not None
                else None
            ),
            "cap": self.cap,
        }


def radical_equals(
    I: IdealPresentation, P: IdealPresentation, exponent_cap: int = 16
) -> RadicalResult:
    """Decide Rad(I) = P for a prime candidate P.

    Criterion: I lies inside P and some power of every P-generator falls
    into I, searched incrementally up to the cap.  P's primality is the
    caller's responsibility.  The powers of one call share PRODUCT_BUDGET
    term pairs; passing it raises DegreeCapExceeded.
    """
    if exponent_cap < 1:
        raise ValueError("exponent cap must be at least 1")
    if I.ring != P.ring:
        raise AmbientMismatch("ideals from different rings")
    if not ideal_contains(I, P):
        return RadicalResult(RADICAL_NOT_CONTAINED, cap=exponent_cap)
    budget = _ProductBudget(DegreeCapExceeded)
    found = []
    for g in P.generators:
        if not g:
            continue
        power = g
        for e in range(1, exponent_cap + 1):
            if e > 1:
                power = budget.mul(power, g)
            if ideal_member(power, I):
                found.append((g, e))
                break
        else:
            return RadicalResult(
                RADICAL_POWER_NOT_FOUND, tuple(found), g, exponent_cap
            )
    return RadicalResult(RADICAL_EQUAL, tuple(found), None, exponent_cap)


PROBE_NOT_PRIME = "not_prime"
PROBE_PROBABLY_PRIME = "probably_prime"
# A record takes about 0.6 KB per trial on the bundled rings, so a probe of
# more trials than this keeps none, and replay_probe never answers for it.
PROBE_RECORD_CAP = 10_000


class ProbeTrial(NamedTuple):
    """The two draws of a trial and the contents (_content) of NF(f), NF(g)
    and NF(f*g); None where the trial skipped that normal form."""

    f: Polynomial
    g: Polynomial
    f_content: int
    g_content: int | None
    fg_content: int | None


@dataclass(frozen=True)
class ProbeResult:
    """Probe verdict; basis and record keep what replay_probe reads.

    basis is the basis the probe divided by.  Over Q, record holds every
    trial drawn, in order; over F_p it stays empty.  Neither takes part in
    ==, repr or as_dict.
    """

    status: str
    trials: int
    witness_f: Polynomial | None = None
    witness_g: Polynomial | None = None
    basis: tuple[Polynomial, ...] = field(default=(), compare=False, repr=False)
    record: tuple[ProbeTrial, ...] = field(default=(), compare=False, repr=False)

    @property
    def probably_prime(self) -> bool:
        return self.status == PROBE_PROBABLY_PRIME

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "trials": self.trials,
            "f": format_polynomial(self.witness_f) if self.witness_f else None,
            "g": format_polynomial(self.witness_g) if self.witness_g else None,
        }


def _sample_coefficients(fld) -> tuple:
    if isinstance(fld, RationalField):
        return (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
    out = []
    for v in (1, -1, 2, -2):
        r = v % fld.p
        if r and r not in out:
            out.append(r)
    return tuple(out)


def random_bounded_poly(
    ring, rng: random.Random, monos: Sequence, coeffs: Sequence
) -> Polynomial:
    """Sparse random polynomial on the given monomials and coefficients."""
    fld = ring.field
    acc: dict = {}
    for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
        m = rng.choice(monos)
        c = rng.choice(coeffs)
        prev = acc.get(m)
        acc[m] = c if prev is None else fld.add(prev, c)
    return ring.from_dict(acc)


def _content(f: Polynomial) -> int:
    # gcd of the coefficient numerators, 0 for the zero polynomial
    return math.gcd(*(c.numerator for _, c in f.terms))


def prime_probe(
    P: IdealPresentation, degree_bound: int, trials: int, seed: int
) -> ProbeResult:
    """Randomized non-primality search.

    Samples pairs outside P and reports the first whose product lands in
    P.  A probably_prime verdict is evidence, not proof; a not_prime
    verdict ships a re-checkable certificate.  Deterministic per seed.
    """
    if degree_bound < 1 or trials < 1:
        raise ValueError("degree bound and trial count must be positive")
    if any(g.degree() == 0 for g in P.basis):
        raise UnitIdeal("the probed ideal is the whole ring")
    monos = monomials_up_to(P.ring.nvars, degree_bound)
    coeffs = _sample_coefficients(P.ring.field)
    rng = random.Random(seed)
    # Only a record over Q is ever replayed.
    keep = isinstance(P.ring.field, RationalField)
    keep = keep and trials <= PROBE_RECORD_CAP
    record = []
    for _ in range(trials):
        f = random_bounded_poly(P.ring, rng, monos, coeffs)
        g = random_bounded_poly(P.ring, rng, monos, coeffs)
        cf = _content(normal_form(f, P.basis))
        cg = _content(normal_form(g, P.basis)) if cf else None
        cfg = _content(normal_form(f * g, P.basis)) if cf and cg else None
        if keep:
            record.append(ProbeTrial(f, g, cf, cg, cfg))
        if cfg == 0:
            return ProbeResult(
                PROBE_NOT_PRIME, trials, f, g, P.basis, tuple(record)
            )
    return ProbeResult(
        PROBE_PROBABLY_PRIME, trials, basis=P.basis, record=tuple(record)
    )


def replay_probe(q: ProbeResult, P: IdealPresentation) -> ProbeResult | None:
    """prime_probe of P over F_p, answered from q, the probe over Q.

    q must be the prime_probe result, with the same degree bound, trial
    count and seed, of the ideal over Q whose reduction mod p is P.
    Returns None, and the caller runs prime_probe, unless both hold:

    - the sample coefficients of F_p are the images of those of Q, in the
      same order (true for p >= 5), so the seeded draws at p are the
      images of the draws over Q;
    - P.basis is the coefficient image mod p of q.basis (a lucky prime;
      Traverso's trace, Pauer's lucky ideals).

    Then the answer is exact.  The image basis is monic and, being
    P.basis, a Groebner basis of P, so a normal form modulo it is unique:
    dividing by a monic p-integral basis keeps every coefficient
    p-integral, so NF_p(image of f) is the image of NF_Q(f), and it is
    zero exactly when p divides the content of NF_Q(f).  The division at p
    uses the same lead table in the same order, so its steps and pushed
    monomials are a subset of those over Q, and no cap that the Q probe
    passed can fire at p.  An unlucky prime fails the basis comparison and
    falls back, so no verdict depends on guessing the exceptional primes.
    A not_prime q whose witness pair p skips also falls back: its record
    ends there, and the probe at p would draw further trials.
    """
    fp = P.ring.field
    if not q.record or not isinstance(fp, PrimeField):
        return None
    qring = q.record[0].f.ring
    if qring.field != QQ or qring.with_field(fp) != P.ring:
        return None
    images = tuple(fp.from_rational(c) for c in _sample_coefficients(QQ))
    if images != _sample_coefficients(fp):
        return None
    try:
        if P.basis != tuple(reduce_coeffs_mod_p(g, fp) for g in q.basis):
            return None
    except BadPrime:
        return None
    p = fp.p
    for t in q.record:
        if t.f_content % p == 0 or t.g_content % p == 0:
            continue
        if t.fg_content % p == 0:
            return ProbeResult(
                PROBE_NOT_PRIME,
                q.trials,
                reduce_coeffs_mod_p(t.f, fp),
                reduce_coeffs_mod_p(t.g, fp),
            )
    if len(q.record) < q.trials:
        # q stopped on a pair that p skips; the probe at p draws on.
        return None
    return ProbeResult(PROBE_PROBABLY_PRIME, q.trials)


def rational_maximal(m: IdealPresentation, point) -> bool:
    """Certify maximality in the rational shape (T_1 - b_1, ..., T_n - b_n).

    True means m equals the vanishing ideal of the point, so the residue
    field is the ground field itself.  False only means "not certified by
    this point", never "not maximal".  The point ideal is exactly the
    polynomials vanishing at the point, so equality is: every generator of
    m vanishes there, and every T_i - b_i lies in m.
    """
    ring = m.ring
    if len(point) != ring.nvars:
        raise AmbientMismatch("point length does not match the ring")
    point = tuple(ring.field.coerce(b) for b in point)
    if any(g.evaluate(point) for g in m.generators):
        return False
    gens = tuple(
        ring.variable(i) - ring.constant(b) for i, b in enumerate(point)
    )
    return ideal_contains(ideal(*gens, ring=ring), m)
