"""Buchberger's algorithm, normal forms, and ideal comparison procedures.

The reduced Groebner basis is the canonical identity of an ideal here: it
is unique for a given (ideal, order), which is what makes equality and
containment decidable through normal forms alone.  Each presentation
computes its basis once, on first use, because the layers above fire many
predicates at the same ideals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polyarith import (
    AmbientMismatch,
    Polynomial,
    PolyRing,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

# Kernel caps: every division and basis computation reads them as it runs.
DEGREE_CAP = 64  # intermediate and basis-element total degree
PAIR_CAP = 100_000  # S-pairs one basis computation examines
STEP_CAP = 100_000  # reduction steps one division takes
COEFF_BIT_CAP = 8192  # numerator plus denominator bits of a division factor


class DegreeCapExceeded(RuntimeError):
    """A computation blew past a kernel cap instead of hanging."""


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal given by explicit generators in a fixed ambient ring.

    Zero generators are dropped at construction; the zero ideal keeps a
    single zero generator so every presentation is non-empty.
    """

    ring: PolyRing
    generators: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        gens = []
        for g in self.generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be polynomials")
            if g.ring != self.ring:
                raise AmbientMismatch("generator outside the ambient ring")
            if g:
                gens.append(g)
        if not gens:
            gens = [self.ring.zero()]
        object.__setattr__(self, "generators", tuple(gens))

    def is_zero_ideal(self) -> bool:
        return len(self.generators) == 1 and not self.generators[0]

    @cached_property
    def groebner(self) -> "GroebnerBasis":
        """buchberger(self), computed once."""
        return buchberger(self)

    @cached_property
    def basis(self) -> tuple[Polynomial, ...]:
        """Reduced Groebner basis: groebner.basis."""
        return self.groebner.basis


def ideal(*gens: Polynomial, ring: PolyRing | None = None) -> IdealPresentation:
    """Presentation builder; the ring is inferred from the first generator."""
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    return IdealPresentation(ring, tuple(gens))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced basis: monic, pairwise lead-irreducible, canonically sorted.

    pivots are the leading coefficients buchberger divided out, in order:
    one per input generator, one per new remainder and one per remainder
    of the final reduction.
    """

    basis: tuple[Polynomial, ...]
    pivots: tuple = ()


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ring != g.ring:
        raise AmbientMismatch("s-polynomial needs one common ring")
    fld = f.ring.field
    mf, cf = f.leading_term()
    mg, cg = g.leading_term()
    lcm = mono_lcm(mf, mg)
    a = f.mul_term(fld.inv(cf), mono_div(lcm, mf))
    b = g.mul_term(fld.inv(cg), mono_div(lcm, mg))
    return a - b


def normal_form(f: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under multivariate division by the listed divisors.

    Deterministic: each step reduces the current leading term against the
    first listed divisor whose leading monomial divides it.  No term of the
    result is divisible by any divisor's leading monomial, and f minus the
    result lies in the ideal the divisors generate.

    The pending terms sit in a dict keyed by monomial, and each monomial is
    pushed once, with its rank, onto a heap; the leading term is the top of
    the heap, skipped when its coefficient has cancelled to zero.  Every
    term a step adds is smaller than the term it removes, so the remainder
    comes out in descending order and needs no final sort.

    Division always terminates, but the number of steps grows with the
    degree of f, and under orders that are not degree-compatible (lex) the
    intermediate total degree and the rational coefficient size can
    explode.  So every division runs under DEGREE_CAP (intermediate total
    degree), STEP_CAP (reduction steps) and COEFF_BIT_CAP (coefficient bit
    size), and passing one raises DegreeCapExceeded.  All three are exact
    counts, so capped runs stay machine-independent.
    """
    return _divide(f, divisors)[0]


def _divide(
    f: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[Polynomial, int, int]:
    """normal_form's division, under the same caps, with its costs.

    Returns the remainder, the number of reduction steps taken and the
    largest numerator-plus-denominator bit size of a step's factor (0 when
    no factor is a Fraction, as over F_p).
    """
    ring = f.ring
    fld = ring.field
    zero = fld.zero
    rank = ring.order.rank
    table = []
    for g in divisors:
        if g.ring != ring:
            raise AmbientMismatch("divisor outside the ambient ring")
        if g:
            table.append((g.leading_monomial(), g.leading_coeff(), g.terms))
    # work holds every monomial on the heap, cancelled ones with coefficient 0
    work = dict(f.terms)
    heap = [(rank(m), m) for m in work]
    heapq.heapify(heap)
    rem = []
    steps = top_bits = 0
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for gm, gc, gterms in table:
            if mono_divides(gm, m):
                steps += 1
                if steps > STEP_CAP:
                    raise DegreeCapExceeded(
                        f"division passed {STEP_CAP} reduction steps"
                    )
                factor = fld.div(c, gc)
                if isinstance(factor, Fraction):
                    bits = (
                        factor.numerator.bit_length()
                        + factor.denominator.bit_length()
                    )
                    if bits > COEFF_BIT_CAP:
                        raise DegreeCapExceeded(
                            f"division coefficient passed {COEFF_BIT_CAP} bits"
                        )
                    if bits > top_bits:
                        top_bits = bits
                quot = mono_div(m, gm)
                for tm, tc in gterms[1:]:
                    mm = mono_mul(tm, quot)
                    if sum(mm) > DEGREE_CAP:
                        raise DegreeCapExceeded(
                            f"division intermediate degree passed {DEGREE_CAP}"
                        )
                    prev = work.get(mm)
                    if prev is None:
                        heapq.heappush(heap, (rank(mm), mm))
                        prev = zero
                    work[mm] = fld.sub(prev, fld.mul(factor, tc))
                break
        else:
            rem.append((m, c))
    return Polynomial(ring, tuple(rem)), steps, top_bits


def _chain_skip(i: int, j: int, lcm, lms, pending) -> bool:
    # Skip (i, j) when a third lead divides their lcm and both linking
    # pairs are already settled (classic second Buchberger criterion).
    for k in range(len(lms)):
        if k == i or k == j:
            continue
        if mono_divides(lms[k], lcm):
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in pending and b not in pending:
                return True
    return False


def _reduce_basis(
    G: list[Polynomial], ring: PolyRing, pivots: list
) -> tuple[Polynomial, ...]:
    lms = [g.leading_monomial() for g in G]
    removed: set[int] = set()
    for i in range(len(G)):
        for j in range(len(G)):
            if i == j or i in removed or j in removed:
                continue
            if mono_divides(lms[j], lms[i]):
                removed.add(i)
                break
    minimal = [G[i] for i in range(len(G)) if i not in removed]
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others)
        if r:
            pivots.append(r.leading_coeff())
            out.append(r.monic())
    out.sort(key=lambda h: ring.order.rank(h.leading_monomial()))
    return tuple(out)


def buchberger(pres: IdealPresentation) -> GroebnerBasis:
    """Reduced Groebner basis of the presented ideal.

    Pair selection is normal strategy: smallest lcm degree first, then the
    smallest lcm under the order (the largest rank), which makes runs
    reproducible.  The product and chain criteria prune pairs.  The kernel
    caps (PAIR_CAP, DEGREE_CAP on every new element, and the division caps)
    convert pathological growth into a DegreeCapExceeded error rather than
    an open-ended run.  Every call computes; ``pres.basis`` keeps the
    result.
    """
    ring = pres.ring
    rank = ring.order.rank
    G = [g.monic() for g in pres.generators if g]
    if not G:
        return GroebnerBasis(())
    pivots = [g.leading_coeff() for g in pres.generators]

    lms = [g.leading_monomial() for g in G]
    heap: list = []
    pending: set[tuple[int, int]] = set()

    def push(i: int, j: int) -> None:
        lcm = mono_lcm(lms[i], lms[j])
        key = (sum(lcm), tuple(-e for e in rank(lcm)), i, j)
        heapq.heappush(heap, key)
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push(i, j)

    handled = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        handled += 1
        if handled > PAIR_CAP:
            raise DegreeCapExceeded(f"more than {PAIR_CAP} S-pairs examined")
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):  # coprime leads
            continue
        if _chain_skip(i, j, lcm, lms, pending):
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r:
            continue
        if r.degree() > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"basis element degree passed the cap {DEGREE_CAP}"
            )
        pivots.append(r.leading_coeff())
        r = r.monic()
        G.append(r)
        lms.append(r.leading_monomial())
        t = len(G) - 1
        for i2 in range(t):
            push(i2, t)

    return GroebnerBasis(_reduce_basis(G, ring, pivots), tuple(pivots))


def ideal_member(f: Polynomial, I: IdealPresentation) -> bool:
    """Membership through the reduced basis: normal form equals zero."""
    if f.ring != I.ring:
        raise AmbientMismatch("polynomial outside the ideal's ring")
    return not normal_form(f, I.basis)


def ideal_contains(I: IdealPresentation, J: IdealPresentation) -> bool:
    """Whether I is a subset of J (every generator of I lies in J)."""
    if I.ring != J.ring:
        raise AmbientMismatch("ideals from different rings")
    return all(not normal_form(g, J.basis) for g in I.generators)


def ideal_equal(I: IdealPresentation, J: IdealPresentation) -> bool:
    """Equality as ideals: identical reduced bases."""
    if I.ring != J.ring:
        raise AmbientMismatch("ideals from different rings")
    return I.basis == J.basis
