"""Independent brute-force oracles used by the test suite.

These deliberately avoid the Groebner path: membership is decided by exact
linear algebra over the span of bounded-degree multiples of the
generators, dimension by exhaustive variable-subset search on monomial
generators.  Division has a slow reference too: the plain ``Fraction``
loop that picks each leading term with ``max``, against which the
heap-ordered ``_divide`` is checked, with the steps and factor bits it
reports.  The S-polynomial has its textbook formula, against which the
packed ``s_polynomial`` is checked.  The monomial orders have their
textbook definitions here, against which ``MonomialOrder.rank`` is
checked.  The primality probe has its plain per-trial loop, which builds
and divides every draw, against which the row-table ``prime_probe`` is
checked, and its draws are built with ``random.Random.choice``, against
which the inline picks of ``_draw`` are checked.
Rational maximality has its definition by evaluation at the point,
against which the basis-only ``rational_maximal`` is checked.  A sweep's
exceptional set has the per-prime luck test of a Groebner trace, which
computes every basis at p, against which the primes a sweep answers from
the run over Q are checked.  Such a prime has its verification read off
the one over Q too, against which the full checks at p are checked.  The
bad primes have the plain loop that tries every number against every
candidate, against which the two products of ``bad_primes`` are checked.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from gbtransfer.groebner import (
    DegreeCapExceeded, IdealPresentation, ideal, ideal_contains, normal_form,
)
from gbtransfer.polyarith import (
    AmbientMismatch,
    BadPrime,
    Polynomial,
    PrimeField,
    RationalField,
    monomials_up_to,
    reduce_coeffs_mod_p,
)
from gbtransfer.predicates import (
    PROBE_NOT_PRIME,
    PROBE_PROBABLY_PRIME,
    ProbeResult,
    RadicalResult,
    UnitIdeal,
)


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def textbook_compare(kind, a, b) -> int:
    """-1, 0 or 1 as a < b, a = b, a > b under the named order.

    lex: the first nonzero entry of a - b is positive.  grevlex: a has the
    larger total degree, or the same degree and the last nonzero entry of
    a - b is negative.
    """
    diff = [x - y for x, y in zip(a, b)]
    if kind == "grevlex" and sum(diff):
        return 1 if sum(diff) > 0 else -1
    nonzero = [e for e in diff if e]
    if not nonzero:
        return 0
    if kind == "lex":
        return 1 if nonzero[0] > 0 else -1
    return 1 if nonzero[-1] < 0 else -1


def reference_divide(
    f, divisors, degree_cap=None, step_cap=None, coeff_bit_cap=None
):
    """Multivariate division choosing each leading term with ``max``.

    Same contract as ``groebner._divide``, including every cap and its
    message: it returns the remainder, the steps taken and the largest
    numerator-plus-denominator bit size of a step's factor (0 when no
    factor is a Fraction).  It rescans the whole work dict at every step
    and divides with ``Fraction`` arithmetic.
    """
    ring = f.ring
    fld = ring.field
    zero = fld.zero
    key = functools.cmp_to_key(
        functools.partial(textbook_compare, ring.order.kind)
    )
    table = []
    for g in divisors:
        if g.ring != ring:
            raise AmbientMismatch("divisor outside the ambient ring")
        if g:
            table.append((g.leading_monomial(), g.leading_coeff(), g.terms))
    work = dict(f.terms)
    rem: dict = {}
    steps = top_bits = 0
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for gm, gc, gterms in table:
            if mono_divides(gm, m):
                steps += 1
                if step_cap is not None and steps > step_cap:
                    raise DegreeCapExceeded(
                        f"division passed {step_cap} reduction steps"
                    )
                factor = fld.reduce(c * fld.inv(gc))
                if isinstance(factor, Fraction):
                    bits = (
                        factor.numerator.bit_length()
                        + factor.denominator.bit_length()
                    )
                    if coeff_bit_cap is not None and bits > coeff_bit_cap:
                        raise DegreeCapExceeded(
                            f"division coefficient passed {coeff_bit_cap} bits"
                        )
                    top_bits = max(top_bits, bits)
                quot = _mono_div(m, gm)
                for tm, tc in gterms[1:]:
                    mm = _mono_mul(tm, quot)
                    if degree_cap is not None and sum(mm) > degree_cap:
                        raise DegreeCapExceeded(
                            f"division intermediate degree passed {degree_cap}"
                        )
                    nv = fld.reduce(work.get(mm, zero) - factor * tc)
                    if nv:
                        work[mm] = nv
                    elif mm in work:
                        del work[mm]
                break
        else:
            rem[m] = c
    terms = sorted(rem.items(), key=lambda mc: key(mc[0]), reverse=True)
    return Polynomial(ring, tuple(terms)), steps, top_bits


def reference_s_polynomial(f, g):
    """lcm / lt(f) * f - lcm / lt(g) * g in plain ``Polynomial`` arithmetic,
    with lcm the least common multiple of the two leading monomials."""
    ring, fld = f.ring, f.ring.field
    fm, gm = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    a = ring.from_dict({_mono_div(lcm, fm): fld.inv(f.leading_coeff())})
    b = ring.from_dict({_mono_div(lcm, gm): fld.inv(g.leading_coeff())})
    return a * f - b * g


def dimension_oracle(pres) -> int:
    """Exhaustive subset search; generators must be single monomials."""
    gens = [g for g in pres.generators if g]
    supports = []
    for g in gens:
        assert len(g.terms) == 1, "oracle only handles monomial ideals"
        mono = g.terms[0][0]
        supports.append({i for i, e in enumerate(mono) if e})
    n = pres.ring.nvars
    best = -1
    for mask in range(1 << n):
        u = {i for i in range(n) if mask >> i & 1}
        if not any(s <= u for s in supports):
            best = max(best, len(u))
    assert best >= 0, "constant generator: the oracle needs a proper ideal"
    return best


class MembershipOracle:
    """Bounded-cofactor solver: q is a member iff it lies in the span of
    {mono * g : g a generator, deg mono <= cofactor_cap}.

    The span is echelonized once (Gauss-Jordan over Fraction); each query
    then reduces against the pivot rows.
    """

    def __init__(self, pres, cofactor_cap: int = 6) -> None:
        ring = pres.ring
        gens = [g for g in pres.generators if g]
        gen_degree = max(int(g.degree()) for g in gens) if gens else 0
        self.space_degree = cofactor_cap + gen_degree
        self.monos = list(monomials_up_to(ring.nvars, self.space_degree))
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.pivots: list[tuple[int, list[Fraction]]] = []
        for g in gens:
            for m in monomials_up_to(ring.nvars, cofactor_cap):
                term = Polynomial(ring, ((m, ring.field.one),))
                self._insert(self._vector(g * term))

    def _vector(self, poly) -> list[Fraction]:
        vec = [Fraction(0)] * len(self.monos)
        for m, c in poly.terms:
            vec[self.index[m]] = c
        return vec

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        for col, row in self.pivots:
            c = vec[col]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def _insert(self, vec: list[Fraction]) -> None:
        vec = self._reduce(vec)
        for col, a in enumerate(vec):
            if a:
                row = [x / a for x in vec]
                for k, (c0, r0) in enumerate(self.pivots):
                    f = r0[col]
                    if f:
                        self.pivots[k] = (
                            c0,
                            [x - f * y for x, y in zip(r0, row)],
                        )
                self.pivots.append((col, row))
                return

    def contains(self, q) -> bool:
        if not q:
            return True
        if q.degree() > self.space_degree:
            return False
        return not any(self._reduce(self._vector(q)))


def _sample_coefficients(fld) -> tuple:
    if isinstance(fld, RationalField):
        return (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
    out = []
    for v in (1, -1, 2, -2):
        r = v % fld.p
        if r and r not in out:
            out.append(r)
    return tuple(out)


def _random_bounded_poly(ring, rng, monos, coeffs) -> Polynomial:
    fld = ring.field
    acc: dict = {}
    for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
        m = rng.choice(monos)
        c = rng.choice(coeffs)
        prev = acc.get(m)
        acc[m] = c if prev is None else fld.reduce(prev + c)
    return ring.from_dict(acc)


def reference_draw(rng, monos, coeffs) -> tuple:
    """``predicates._draw`` with ``rng.choice`` for every pick, against
    which its inline picks on ``getrandbits`` are checked."""
    acc: dict = {}
    for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
        m = rng.choice(monos)
        acc[m] = acc.get(m, 0) + rng.choice(coeffs)
    return tuple((m, c) for m, c in acc.items() if c)


def reference_prime_probe(P, degree_bound, trials, seed) -> ProbeResult:
    """``prime_probe`` as a plain loop: build f, g and f*g as polynomials
    and divide each with ``normal_form``.  Same seeded draws, verdict and
    caps."""
    if degree_bound < 1 or trials < 1:
        raise ValueError("degree bound and trial count must be positive")
    if any(g.degree() == 0 for g in P.basis):
        raise UnitIdeal("the probed ideal is the whole ring")
    monos = monomials_up_to(P.ring.nvars, degree_bound)
    coeffs = _sample_coefficients(P.ring.field)
    rng = random.Random(seed)
    for _ in range(trials):
        f = _random_bounded_poly(P.ring, rng, monos, coeffs)
        g = _random_bounded_poly(P.ring, rng, monos, coeffs)
        if (
            normal_form(f, P.basis)
            and normal_form(g, P.basis)
            and not normal_form(f * g, P.basis)
        ):
            return ProbeResult(PROBE_NOT_PRIME, trials, f, g)
    return ProbeResult(PROBE_PROBABLY_PRIME, trials)


def reference_rational_maximal(m, point) -> bool:
    """``rational_maximal`` by evaluation: every generator of m vanishes at
    the point, so m lies in the point ideal, and every T_i - b_i lies in m."""
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


def reference_read_off(char0, ring, p: int):
    """The verification without the probe at a good prime p outside a
    sweep's exceptional set, read off the passing verification char0 over
    Q in ring: char0 without its probe, with the generators of m in the
    radical exponents and the presentations of m, (x) + I and I mapped mod
    p."""
    target = ring.with_field(PrimeField(p))
    q1 = char0.condition1
    exponents = tuple(
        (reduce_coeffs_mod_p(g, target), e) for g, e in q1.exponents
    )
    cond1 = RadicalResult(q1.status, exponents, None, q1.cap)
    ideals = tuple(
        IdealPresentation(
            target, tuple(reduce_coeffs_mod_p(g, target) for g in J.generators)
        )
        for J in char0.ideals
    )
    return char0._replace(condition1=cond1, prime_probe=None, ideals=ideals)


def reference_lucky(ideals, p: int) -> bool:
    """Whether each ideal over Q has, as its basis mod p, the image of its
    basis over Q: the basis of the generators' images at p is computed and
    compared.  A denominator p divides makes p unlucky."""
    for Q in ideals:
        target = Q.ring.with_field(PrimeField(p))
        try:
            image = tuple(reduce_coeffs_mod_p(g, target) for g in Q.basis)
            gens = tuple(reduce_coeffs_mod_p(g, target) for g in Q.generators)
        except BadPrime:
            return False
        if IdealPresentation(target, gens).basis != image:
            return False
    return True


def reference_bad_primes(w, candidates) -> dict:
    """The bad primes of a rational witness w among the candidates, with
    reasons: every (number, reason) pair is tried against every candidate.
    A number is a coefficient or point denominator, or the numerator of a
    leading coefficient of a generator of I, m or (x)."""
    if not isinstance(w.ring.field, RationalField):
        raise AmbientMismatch("bad primes only make sense for rational witnesses")
    numbers = {
        (c.denominator, "denominator")
        for g in (*w.i_gens, *w.m_gens, *w.x_images, *w.y_images)
        for _, c in g.terms
    }
    if w.point_b is not None:
        numbers |= {(Fraction(c).denominator, "denominator") for c in w.point_b}
    numbers |= {
        (g.leading_coeff().numerator, "leading-coeff")
        for g in (*w.i_gens, *w.m_gens, *w.x_images)
        if g
    }
    out = {}
    for p in sorted(set(candidates)):
        reasons = sorted({why for n, why in numbers if n % p == 0})
        if reasons:
            out[p] = tuple(reasons)
    return out
