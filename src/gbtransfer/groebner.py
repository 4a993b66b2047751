"""Buchberger's algorithm, normal forms, and ideal comparison procedures.

The reduced Groebner basis is the canonical identity of an ideal here: it
is unique for a given (ideal, order), which is what makes equality and
containment decidable through normal forms alone.  Each presentation
computes its basis once, on first use, because the layers above fire many
predicates at the same ideals.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .polyarith import AmbientMismatch, Polynomial, PolyRing, RationalField

# Kernel caps: every division and basis computation reads them as it runs.
DEGREE_CAP = 64  # intermediate and basis-element total degree
WORK_CAP = 10**8  # tail-term operations and pair tests of one basis computation
STEP_CAP = 100_000  # reduction steps one division takes
COEFF_BIT_CAP = 8192  # numerator plus denominator bits of a division factor
GCD_GATE = 1 << 1024  # past it a Q division cancels its denominator before raising it


class DegreeCapExceeded(RuntimeError):
    """A computation blew past a kernel cap instead of hanging."""


class _IdealPresentation(NamedTuple):
    ring: PolyRing
    generators: tuple[Polynomial, ...]


class IdealPresentation(_IdealPresentation):
    """An ideal given by explicit generators in a fixed ambient ring.

    Zero generators are dropped at construction; the zero ideal keeps a
    single zero generator so every presentation is non-empty.  Instances
    keep a __dict__ for the memos below.
    """

    def __new__(cls, ring: PolyRing, generators: tuple[Polynomial, ...]):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be polynomials")
            if g.ring != ring:
                raise AmbientMismatch("generator outside the ambient ring")
            if g:
                gens.append(g)
        return super().__new__(cls, ring, tuple(gens) or (ring.zero(),))

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


class GroebnerBasis(NamedTuple):
    """A reduced basis: monic, pairwise lead-irreducible, canonically sorted.

    pivots are the leading coefficients buchberger divided out, in order:
    one per input generator, one per new remainder and one per remainder
    of the final reduction.  work is what the run charged to WORK_CAP.
    """

    basis: tuple[Polynomial, ...]
    pivots: tuple = ()
    work: int = 0


@lru_cache(maxsize=64)  # a packing never changes, so one per shape serves all
class _Packing:
    """Monomials of one ring packed into ints, as normal_form describes."""

    def __init__(self, nvars: int, lex: bool, w: int, cap: int) -> None:
        self.w, self.shift, self.lex = w, nvars * w, lex
        s = self.shift
        self.offsets = range(s - w, -1, -w) if self.lex else range(0, s, w)
        self.mults = [(1 << o) + (1 << s) for o in self.offsets]
        ones = ((1 << s) - 1) // ((1 << w) - 1)  # a 1 in every field
        self.guard, self.low = ones << (w - 1), (1 << s) - 1
        self.cap = ((cap + 1) << s) - 1

    def unpack(self, terms, den=None) -> tuple:
        # (m, c) terms, an int c over Q a numerator over den, into Fractions
        mask, offsets = (1 << self.w) - 1, self.offsets
        return tuple([(tuple([m >> o & mask for o in offsets]),
                       c if den is None or type(c) is not int else
                       Fraction(c, den) if den > 1 else Fraction(c)) for m, c in terms])

    def lcm(self, a: int, b: int) -> int:
        # field by field the larger exponent; their sum (< 2^(w-1)) is low mod 2^w - 1
        w = self.w
        ge = ((a | self.guard) - b) & self.guard  # fields where a >= b
        ge -= ge >> (w - 1)
        low = (a & ge | b & ~ge) & self.low
        return low | low % ((1 << w) - 1) << self.shift

    def key(self, m: int) -> int:
        return -(m & self.low) if self.lex else ((m & self.low) << 1) - m


def _packed(ring: PolyRing, polys: Sequence[Polynomial], degree: int = 0) -> tuple:
    # A packing (built once per shape) wide enough for polys, see normal_form,
    # and polys packed under it as (terms, D): (m, c) terms, c over Q an int
    # numerator over the lcm D of the denominators, D None over F_p; a term
    # past DEGREE_CAP packs above pk.cap.
    w = (2 * max(DEGREE_CAP, degree)).bit_length() + 1
    pk = _Packing(ring.nvars, ring.order.kind == "lex", w, DEGREE_CAP)
    mults, q, packed = pk.mults, isinstance(ring.field, RationalField), []
    for g in polys:
        d = lcm(*[c.denominator for _, c in g.terms]) if q else None
        packed.append(([(sum(map(mul, m, mults)), c if d is None else c.numerator if d == 1
                         else c.numerator * (d // c.denominator)) for m, c in g.terms], d))
    if not degree and max([m for t, _ in packed for m, _ in t], default=0) > pk.cap:
        return _packed(ring, polys, max(g.degree() for g in polys))
    return pk, packed


def _row(packed: tuple, fld) -> tuple:
    # the monic row of a packed (terms, D), built by _table (so div is None)
    terms, d = packed
    lead = terms[0][1]
    if d and lead != d:  # over Q c / D over lead / D is c / lead, cancelled by their gcd
        g = gcd(*[c for _, c in terms]) * (1 if lead > 0 else -1)
        terms, d = [(m, c // g) for m, c in terms], lead // g
    elif not d and lead != 1:
        inv, p = fld.inv(lead), fld.p
        terms = [(m, inv * c % p) for m, c in terms]
    return _table([(terms, d)])[0]


def _spoly(pk: _Packing, a: tuple, b: tuple, fld) -> tuple:
    # two monic rows' tails shifted to the lcm of the leads, a's less b's: a
    # dict and its denominator (over Q by _sub_row, uncapped, cancelled 0s)
    lcm = pk.lcm(a[0], b[0])
    qa, qb = lcm - a[0], lcm - b[0]
    out = {m + qa: c for m, c in a[2]}
    if isinstance(fld, RationalField):
        return out, _sub_row(pk, out, a[4], [], b, qb, (1, 1), inf)[1]
    p = fld.p
    for m, c in b[2]:
        m += qb
        out[m] = (out.get(m, 0) - c) % p
    return out, None


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ring != g.ring:
        raise AmbientMismatch("s-polynomial needs one common ring")
    f.leading_term(), g.leading_term()  # ValueError for a zero polynomial
    fld, (pk, packed) = f.ring.field, _packed(f.ring, (f, g))
    a, b = (_row(t, fld) for t in packed)
    rem = _reduce(pk, *_spoly(pk, a, b, fld), [], fld, {})[0]
    return Polynomial(f.ring, pk.unpack(*rem))


def normal_form(f: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under multivariate division by the listed divisors.

    Deterministic: each step reduces the current leading term against the
    first listed divisor whose leading monomial divides it.  No term of the
    result is divisible by any divisor's leading monomial, and f minus the
    result lies in the ideal the divisors generate.

    Each monomial is one int: a w-bit field per exponent, its top bit a
    guard, and the total degree in the field above (lex puts a_1 in the top
    exponent field, grevlex a_n).  A product is one ``+``; b divides a
    exactly when ``(a - b) & guard`` is 0, the lowest field where b is
    larger borrowing into its guard.  With d the largest degree of f and
    the divisors, w = (2 * max(DEGREE_CAP, d)).bit_length() + 1 fits any
    S-polynomial term below the guards, and a product past the cap
    overflows only upwards, so the degree cap is one compare per step: the
    divisor's largest tail monomial times the quotient against the cap.
    Each monomial's first divisor is found once and kept in a memo (see
    _reduce), which cannot change a step: in a list that only grows, as
    buchberger's does, the first divisor of a monomial never changes, and
    a monomial no divisor divided is tested again from where it stopped.
    Pending terms sit in a dict, each pushed once onto a heap as its key
    (exponent fields less degree field under grevlex, their negation under
    lex): the heap's top is the leading term, skipped once cancelled.

    Every term is one (m, c) pair over both fields: c is a residue over F_p
    and, over Q, an int numerator over its polynomial's one denominator,
    the lcm of its coefficients', as the polynomials are packed; the loop
    works on plain ints and the remainder leaves as Fractions again.  Over
    Q a division's pending numerators share one denominator, raised to the
    lcm with a step's (after one gcd past GCD_GATE) only where that does not
    divide it, so each product is one multiply-add; a popped coefficient is
    reduced by one gcd where a step reads it, and the remainder by one gcd
    at the end, so factors, remainders and cap messages are those of
    Fraction arithmetic.

    Division always terminates, but its steps grow with the degree of f,
    and under lex the intermediate degree and the rational coefficient size
    can explode.  So every division runs under DEGREE_CAP (intermediate
    total degree), STEP_CAP (reduction steps) and COEFF_BIT_CAP (numerator
    plus denominator bits of a step's reduced factor), and passing one
    raises DegreeCapExceeded; all three are exact counts, so capped runs
    stay machine-independent.
    """
    return _divide(f, divisors)[0]


def _divide(f: Polynomial, divisors: Sequence[Polynomial]) -> tuple:
    """normal_form's division with its costs: the remainder, the steps taken
    and the largest numerator-plus-denominator bit size of a step's factor
    (0 over F_p)."""
    ring = f.ring
    if any(g.ring is not ring and g.ring != ring for g in divisors):
        raise AmbientMismatch("divisor outside the ambient ring")
    if not (f and any(divisors)):
        return f, 0, 0
    pk, ((work, den), *packed) = _packed(ring, (f, *divisors))
    rem, steps, bits, _ = _reduce(pk, dict(work), den, _table(packed), ring.field, {})
    return (Polynomial(ring, pk.unpack(*rem)) if steps else f), steps, bits


def _table(packed: list) -> list:
    # the only row builder: packed (terms, D) as _reduce's rows (lead, div,
    # tail, top, D), div the lead coefficient (over Q its numerator) or None
    # for a 1; max reads no coefficient (monos differ)
    return [(t[0][0], None if t[0][1] == (d or 1) else t[0][1], t[1:],
             max(t[1:])[0] if len(t) > 1 else None, d) for t, d in packed if t]


def _reduce(pk: _Packing, work: dict, den, table: list, fld, memo: dict) -> tuple:
    # _divide, packed: work (over Q numerators over den) divided in place by
    # rows (lead, div, tail, top, D), top the largest tail monomial or None,
    # into the remainder (no step adds to a monomial it has popped); memo maps
    # a monomial to its first divisor row or, if none divides it, to the count
    # of rows tested; returns the remainder packed as _packed does, steps, top
    # bits and ops (step tail lengths, over Q times 16-bit units)
    guard, cap, low, lex, shift = pk.guard, pk.cap, pk.low, pk.lex, pk.shift
    q, push = isinstance(fld, RationalField), heapq.heappush
    p = None if q else fld.p
    # every monomial on the heap is in work, cancelled ones with coefficient 0
    heap = sorted(map(pk.key, work))
    steps = top_bits = ops = 0
    while heap:
        m = heapq.heappop(heap)
        m = pk.lcm(-m, 0) if lex else m - (m >> shift << shift + 1)
        c = work.pop(m)
        if not c:
            continue
        row = memo.get(m, 0)
        if type(row) is int:  # no row before the row-th divides m
            for row in table[row:] if row else table:
                if not (m - row[0]) & guard:
                    memo[m] = row
                    break
            else:
                memo[m], work[m] = len(table), c
                continue
        gm, gc, gtail, top, _ = row
        quot = m - gm
        steps += 1
        if steps > STEP_CAP:
            raise DegreeCapExceeded(f"division passed {STEP_CAP} reduction steps")
        if q:  # the numerator over den as a reduced (n, d) pair
            c = (c // (g := gcd(c, den)), den // g) if den != 1 else (c, 1)
            bits, den = _sub_row(pk, work, den, heap, row, quot, c, cap)
            top_bits, ops = max(top_bits, bits), ops + len(gtail) * (bits >> 4 or 1)
            continue
        ops += len(gtail)
        if top is not None and top + quot > cap:
            raise DegreeCapExceeded(f"division intermediate degree passed {DEGREE_CAP}")
        factor = c if gc is None else c * fld.inv(gc) % p
        for tm, tc in gtail:
            mm = tm + quot
            prev = work.get(mm)
            if prev is None:
                push(heap, -(mm & low) if lex else ((mm & low) << 1) - mm)
                prev = 0
            work[mm] = (prev - factor * tc) % p
    if q and den != 1 and (g := gcd(den, *work.values())) > 1:
        work, den = {m: c // g for m, c in work.items()}, den // g
    return (list(work.items()), den if q else None), steps, top_bits, ops


def _sub_row(pk, work, den, heap, row, quot, c, cap) -> tuple:
    # work -= c / div * x^quot * tail over Q, no product past cap (top + quot
    # the largest): _reduce's step and _spoly's difference.  Where fd * D does
    # not divide den, work and den are divided by their gcd past GCD_GATE and
    # raised to the lcm, so each product is one k * tn; returns bits and den
    fn, fd = c
    _, div, tail, top, d = row
    if div:  # c over div / D, reduced by one gcd
        fn, fd = fn * d, fd * div
        g = gcd(fn, fd) if fd > 0 else -gcd(fn, fd)
        fn, fd = fn // g, fd // g
    bits = fn.bit_length() + fd.bit_length()
    if bits > COEFF_BIT_CAP:
        raise DegreeCapExceeded(f"division coefficient passed {COEFF_BIT_CAP} bits")
    if top is not None and top + quot > cap:
        raise DegreeCapExceeded(f"division intermediate degree passed {DEGREE_CAP}")
    fd *= d
    if den % fd:
        if den > GCD_GATE and (g := gcd(den, *work.values())) > 1:
            den //= g
            for m in work:
                work[m] //= g
        s = fd if den == 1 else fd // gcd(den, fd)
        den *= s
        for m in work:
            work[m] *= s
    k, low, lex, push = fn * (den // fd), pk.low, pk.lex, heapq.heappush
    for tm, tn in tail:
        mm = tm + quot
        prev = work.get(mm)
        if prev is None:
            push(heap, -(mm & low) if lex else ((mm & low) << 1) - mm)
            prev = 0
        work[mm] = prev - k * tn
    return bits, den


def _reduce_basis(G: list, live: dict, pk: _Packing, ring: PolyRing, pivots: list) -> tuple:
    # of the live rows (no lead divides an earlier one's) drop those a kept one's divides
    minimal: list = []
    for g in map(G.__getitem__, live):
        if all((g[0] - h[0]) & pk.guard for h in minimal):
            minimal.append(g)
    fld, out, memo = ring.field, [], {}
    for g in minimal:
        # no other lead divides g's, so only the tail reduces, and the pivot is
        # 1; g's lead divides no monomial below it, so minimal serves as table
        pivots.append(fld.one)
        out.append((g[0], *_reduce(pk, dict(g[2]), g[4], minimal, fld, memo)[0]))
    out.sort(key=lambda row: pk.key(row[0]))
    return tuple(Polynomial(ring, pk.unpack([(m, fld.one), *t], d)) for m, t, d in out)


def buchberger(pres: IdealPresentation) -> GroebnerBasis:
    """Reduced Groebner basis of the presented ideal.

    Pairs are selected by sugar (Giovini, Mora, Niesi, Robbiano and Traverso,
    1991), max(s_i - deg lead_i, s_j - deg lead_j) + deg lcm with an input's s
    its degree and a new element's its pair's sugar, then by lcm degree, then
    the smallest lcm under the order (the largest rank), and pruned by the
    Gebauer-Moeller criteria (1988) as each row comes (see add).  A reduction
    step or S-polynomial merge charges its row's tail length to WORK_CAP (over
    Q times its factor's 16-bit units, at least 1), an update's lcm or
    divisibility test 1; GroebnerBasis.work is the sum.  It, DEGREE_CAP on each
    new element and the division caps raise DegreeCapExceeded.  Every call
    computes; ``pres.basis`` keeps the result.  Monomials stay packed, and over
    Q each row's coefficients numerators over one denominator (see normal_form),
    until the end; one first-divisor memo serves every S-pair reduction.
    """
    ring, fld = pres.ring, pres.ring.field
    gens = [g for g in pres.generators if g]
    if not gens:
        return GroebnerBasis(())
    pivots = [g.leading_coeff() for g in pres.generators]
    pk, packed = _packed(ring, gens)
    shift, guard, G, live, heap, memo, work = pk.shift, pk.guard, [], {}, [], {}, 0

    def charge(n: int) -> None:
        nonlocal work
        if (work := work + n) > WORK_CAP:
            raise DegreeCapExceeded(f"basis work passed {WORK_CAP} tail terms and pair tests")

    def add(row: tuple, sugar: int) -> None:
        # row t, lead h: drop new pairs whose lcm another's divides (of equal
        # lcms a coprime one sorts first) or with coprime leads, queued (sugar,
        # deg, -key, lcm, i, j) whose lcm h divides unless lcm(i, h) or lcm(j, h)
        # is it, and from live (row: sugar less lead degree) the rows h divides
        nonlocal heap, live
        h, t, e, kept = row[0], len(G), sugar - (row[0] >> shift), []
        lcms = [pk.lcm(g[0], h) for g in G]
        tests, heap = t + len(heap), [
            q for q in heap if (q[3] - h) & guard or q[3] in (lcms[q[4]], lcms[q[5]])]
        for lcm, noncoprime, i in sorted((lcms[i], lcms[i] != G[i][0] + h, i) for i in live):
            if noncoprime:
                tests += len(kept)
                if any(not (lcm - k) & guard for k in kept):
                    continue
                d = lcm >> shift
                heap.append((max(live[i], e) + d, d, -pk.key(lcm), lcm, i, t))
            kept.append(lcm)
        heapq.heapify(heap)
        live = {i: s for i, s in live.items() if lcms[i] != G[i][0]} | {t: e}
        G.append(row)
        charge(tests)

    for t in packed:
        add(_row(t, fld), max(t[0])[0] >> shift)
    while heap:
        sugar, _, _, _, i, j = heapq.heappop(heap)
        r, _, _, ops = _reduce(pk, *_spoly(pk, G[i], G[j], fld), G, fld, memo)
        charge(len(G[j][2]) + ops)
        if r[0]:
            if max(r[0])[0] > pk.cap:
                raise DegreeCapExceeded(f"basis element degree passed the cap {DEGREE_CAP}")
            pivots.append(pk.unpack(r[0][:1], r[1])[0][1])
            add(_row(r, fld), sugar)
    return GroebnerBasis(_reduce_basis(G, live, pk, ring, pivots), tuple(pivots), work)


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
