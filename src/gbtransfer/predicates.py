"""Ideal-theoretic decision procedures built on the Groebner kernel.

Covers presentation complexity, Krull dimension and height, radical
equality by bounded power search, a seeded Monte-Carlo primality probe,
and rational-point maximality certification.
"""

from __future__ import annotations

import itertools
import math
import random
from operator import mul
from typing import NamedTuple, Sequence

from . import groebner
from .groebner import (
    DegreeCapExceeded, IdealPresentation, _packed, _reduce, _table, ideal,
    ideal_contains, normal_form,
)
from .polyarith import (
    AmbientMismatch,
    Polynomial,
    PrimeField,
    _ProductBudget,
    format_polynomial,
    monomials_up_to,
)


class UnitIdeal(ValueError):
    """The presented ideal is the whole ring; the quotient is the zero ring."""


class NotContained(ValueError):
    """A required ideal containment does not hold."""


class ComplexityReport(NamedTuple):
    """Size data of a presentation: variable count, degrees, their max."""

    nvars: int
    max_degree: int
    complexity: int
    generator_count: int

    def as_dict(self) -> dict:
        return self._asdict()


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


SUBSET_BUDGET = 1 << 20  # variable subsets one dimension search tests


def dimension(I: IdealPresentation) -> int:
    """Krull dimension of ring/I.

    Combinatorial reading of the leading-term ideal: the largest variable
    subset U such that no basis leading monomial is supported inside U.
    Subsets are tested from the largest size down; testing more than
    SUBSET_BUDGET of them raises DegreeCapExceeded.
    """
    if any(g.degree() == 0 for g in I.basis):
        raise UnitIdeal("the presented ideal is the whole ring")
    supports = [
        frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
        for g in I.basis
    ]
    n = I.ring.nvars
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n, -1, -1)
    )
    # the empty subset meets no support, so only the budget ends the loop
    for subset in itertools.islice(subsets, SUBSET_BUDGET):
        u = frozenset(subset)
        if not any(s <= u for s in supports):
            return len(u)
    raise DegreeCapExceeded(
        f"dimension search passed {SUBSET_BUDGET} variable subsets"
    )


class HeightResult(NamedTuple):
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


class RadicalResult(NamedTuple):
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
    I: IdealPresentation, P: IdealPresentation, exponent_cap: int
) -> RadicalResult:
    """Decide Rad(I) = P for a prime candidate P.

    Criterion: I lies inside P and some power of every P-generator falls
    into I, searched incrementally up to the cap.  P's primality is the
    caller's responsibility.  The powers of one call share PRODUCT_BUDGET
    term pairs; passing it raises DegreeCapExceeded.
    """
    if exponent_cap < 1:
        raise ValueError("exponent cap must be at least 1")
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
            if not normal_form(power, I.basis):
                found.append((g, e))
                break
        else:
            return RadicalResult(
                RADICAL_POWER_NOT_FOUND, tuple(found), g, exponent_cap
            )
    return RadicalResult(RADICAL_EQUAL, tuple(found), None, exponent_cap)


PROBE_NOT_PRIME = "not_prime"
PROBE_PROBABLY_PRIME = "probably_prime"
PROBE_TRIAL_CAP = 10_000  # most trials one probe draws


class ProbeResult(NamedTuple):
    """Probe verdict, with the pair found when it is not_prime."""

    status: str
    trials: int
    witness_f: Polynomial | None = None
    witness_g: Polynomial | None = None

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
    # The draws' coefficients: the distinct nonzero values of 1, -1, 2, -2
    # as the field reduces them (the integers themselves over Q).
    return tuple(dict.fromkeys(r for v in (1, -1, 2, -2) if (r := fld.reduce(v))))


def _draw(bits, monos: Sequence, coeffs: Sequence) -> tuple:
    """Sparse random (monomial, coefficient) terms, picked with bits, the
    getrandbits of a random.Random, as its choice picks: from a sequence
    of length n, getrandbits(n.bit_length()) until the value is below n.
    So the generator's stream is the one choice would consume.

    Coefficients are plain integer sums: over F_p a term may be 0 mod p,
    which adds nothing to a normal form and which _polynomial drops.
    """
    nm, km = len(monos), len(monos).bit_length()
    nc, kc = len(coeffs), len(coeffs).bit_length()
    n = bits(3)  # the pick count, from the 6 of the loop below
    while n >= 6:
        n = bits(3)
    acc: dict = {}
    for _ in range((1, 1, 1, 2, 2, 3)[n]):
        r = bits(km)
        while r >= nm:
            r = bits(km)
        m = monos[r]
        r = bits(kc)
        while r >= nc:
            r = bits(kc)
        if n < 3:  # one pick
            return ((m, coeffs[r]),)
        acc[m] = acc.get(m, 0) + coeffs[r]
    terms = tuple(acc.items())
    if 0 in acc.values():  # two picks of one monomial cancelled
        terms = tuple(t for t in terms if t[1])
    return terms


def _polynomial(ring, terms) -> Polynomial:
    # terms: (monomial, integer or residue) pairs of a draw
    return ring.from_dict({m: ring.field.coerce(c) for m, c in terms})


class _Rows:
    """Whether draws reduce to zero modulo a basis, read off memoized rows.

    A row is the normal form of one packed monomial.  It is divided on first
    use by normal_form's loop (groebner._reduce) over the basis, packed once
    wide enough for degree, and kept with the division's step count and
    largest factor bit size, or as None when the division passed a cap.  A
    row holds integers over den, one denominator shared by every row,
    raised to the lcm (and the rows rescaled) when a new row needs it; over
    F_p the integers are residues and den is 1.

    The division of f = sum c_m * m by a fixed divisor table is linear.
    Monomials are popped in descending order, every term a step adds is
    smaller than the one it removes, and the divisor that reduces a
    monomial t depends on t alone.  So the coefficient of t when popped is
    sum c_m * (its coefficient when popped in the division of m), and
    NF(f) = sum c_m * NF(m).  Hence f's division steps at t only where some
    row's division steps at t, with the same divisor and quotient, and its
    factor there is sum c_m * a_m / b_m, with a_m / b_m the factor of row
    m at t (0 where row m takes no step).  When every row of f was divided
    without a cap:
    - f takes at most sum(steps_m) steps;
    - every monomial it pushes was pushed by a row, so DEGREE_CAP holds;
    - let B_m be row m's largest factor bit size, T = sum(B_m) and
      C = sum |c_m|.  The bit lengths of |a_m| and b_m add up to at most
      B_m, so over the rows that step at t the numerator
      |sum c_m * a_m * prod_{k != m} b_k| is below C * 2^T and the
      denominator prod b_m below 2^T.  Reducing the fraction only shrinks
      both, so f's factor at t has at most 2*T + C.bit_length() bits.
    zero() reads the rows only where these bounds are within STEP_CAP and
    COEFF_BIT_CAP, so the division it stands in for stays within every cap.
    """

    def __init__(self, ring, basis: Sequence[Polynomial], degree: int) -> None:
        self.ring, self.basis, self.den, self.rows = ring, basis, 1, {}
        self.fld = fld = ring.field
        self.p = fld.p if isinstance(fld, PrimeField) else None
        degree = max([degree, *(g.degree() for g in basis)])  # an empty basis too
        self.pk, packed = _packed(ring, basis, degree)
        self.table, self.memo = _table(packed), {}

    def _add(self, m: int):
        rows = self.rows
        try:
            (nf, d), steps, bits, _ = _reduce(self.pk, {m: 1}, 1, self.table, self.fld, self.memo)
        except DegreeCapExceeded:
            rows[m] = None
            return None
        if d and self.den % d:  # over Q nf holds integers over d
            scale = d // math.gcd(self.den, d)
            self.den *= scale
            for k, r in rows.items():
                if r is not None:
                    rows[k] = (tuple((t, v * scale) for t, v in r[0]), *r[1:])
        k = self.den // d if d else 1
        rows[m] = (tuple((t, v * k) for t, v in nf), steps, bits)
        return rows[m]

    def zero(self, terms) -> bool:
        """Whether NF(terms) is zero: off the rows where they keep its
        division within every kernel cap, else by normal_form."""
        rows = self.rows
        if len(terms) == 1:  # c * NF(m): no sum to form, the same bounds
            (m, c), = terms
            row = rows[m] if m in rows else self._add(m)
            if row and row[1] <= groebner.STEP_CAP and not (
                    row[2] and 2 * row[2] + abs(c).bit_length() > groebner.COEFF_BIT_CAP):
                return not (row[0] and (self.p is None or c % self.p))
        den = self.den
        steps = bits = size = 0
        acc: dict = {}
        for m, c in terms:
            row = rows[m] if m in rows else self._add(m)
            if row is None:
                break
            steps, bits, size = steps + row[1], bits + row[2], size + abs(c)
            for t, v in row[0]:
                acc[t] = acc.get(t, 0) + c * v
        else:
            if self.den != den:  # a new row raised the shared denominator
                return self.zero(terms)
            if steps <= groebner.STEP_CAP and (
                not bits or 2 * bits + size.bit_length() <= groebner.COEFF_BIT_CAP
            ):
                if self.p is not None:
                    return not any(v % self.p for v in acc.values())
                return not any(acc.values())
        return not normal_form(_polynomial(self.ring, self.pk.unpack(terms)), self.basis)


def prime_probe(
    P: IdealPresentation, degree_bound: int, trials: int, seed: int
) -> ProbeResult:
    """Randomized non-primality search.

    Samples pairs outside P and reports the first whose product lands in
    P.  A probably_prime verdict is evidence, not proof; a not_prime
    verdict ships a re-checkable certificate.  Deterministic per seed.

    Whether a trial's normal forms are zero is read off memoized monomial
    rows (_Rows) where the rows prove that dividing the trial stays within
    every kernel cap; elsewhere normal_form divides it.  So the verdicts,
    and any DegreeCapExceeded with its message, are those of dividing
    every trial.  Picks are choice's (see _draw).

    The zero ideal, past every refusal, is answered without drawing: in a
    domain no product of nonzero draws is zero, and no basis means no cap.
    """
    if degree_bound < 1 or trials < 1:
        raise ValueError("degree bound and trial count must be positive")
    if trials > PROBE_TRIAL_CAP:
        raise ValueError(f"over {PROBE_TRIAL_CAP} probe trials")
    if any(g.degree() == 0 for g in P.basis):
        raise UnitIdeal("the probed ideal is the whole ring")
    ring = P.ring
    monos = monomials_up_to(ring.nvars, degree_bound)
    if P.is_zero_ideal():
        return ProbeResult(PROBE_PROBABLY_PRIME, trials)
    coeffs = _sample_coefficients(ring.field)
    bits = random.Random(seed).getrandbits
    rows = _Rows(ring, P.basis, 2 * degree_bound)
    zero, mults, compress = rows.zero, rows.pk.mults, itertools.compress
    # packed from the nonzero exponents only: in many variables most are 0
    monos = [sum(map(mul, compress(m, m), compress(mults, m))) for m in monos]
    for _ in range(trials):
        f = _draw(bits, monos, coeffs)
        g = _draw(bits, monos, coeffs)
        if zero(f) or zero(g):
            continue
        fg: dict = {}  # zero coefficients add nothing to a normal form
        for m1, c1 in f:
            for m2, c2 in g:
                fg[m1 + m2] = fg.get(m1 + m2, 0) + c1 * c2
        if zero(fg.items()):
            pair = (_polynomial(ring, rows.pk.unpack(t)) for t in (f, g))
            return ProbeResult(PROBE_NOT_PRIME, trials, *pair)
    return ProbeResult(PROBE_PROBABLY_PRIME, trials)


def rational_maximal(m: IdealPresentation, point) -> bool:
    """Certify maximality in the rational shape (T_1 - b_1, ..., T_n - b_n).

    True means m equals the vanishing ideal P of the point, so the residue
    field is the ground field itself.  False only means "not certified by
    this point", never "not maximal".  P is maximal, so m = P exactly when
    every T_i - b_i lies in m and m is not the unit ideal.  Both are read
    off m's basis; nothing is evaluated at the point, whose powers could
    be unbounded in size.
    """
    ring = m.ring
    if len(point) != ring.nvars:
        raise AmbientMismatch("point length does not match the ring")
    gens = tuple(
        ring.variable(i) - ring.constant(b) for i, b in enumerate(point)
    )
    if any(g.degree() == 0 for g in m.basis):
        return False
    return ideal_contains(ideal(*gens, ring=ring), m)
