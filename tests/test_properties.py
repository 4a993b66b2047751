"""Property tests: order laws, ring axioms, reduction homomorphism, the
field reader, canonical-form and normal-form idempotence, and
heap-ordered division and packed S-polynomials against their plain
references."""

from fractions import Fraction
from functools import cmp_to_key, partial
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from gbtransfer import groebner
from gbtransfer.groebner import (
    DegreeCapExceeded, ideal, ideal_member, normal_form, s_polynomial,
)
from gbtransfer.polyarith import (
    BadPrime,
    GREVLEX,
    LEX,
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    mono_mul,
    parse_polynomial,
    reduce_coeffs_mod_p,
)

from oracles import reference_divide, reference_s_polynomial, textbook_compare

RXY = PolyRing(QQ, 2, GREVLEX, ("x", "y"))
R3 = PolyRing(QQ, 3, GREVLEX, ("x", "y", "z"))


def P3(text):
    return parse_polynomial(text, R3)


monomials2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
monomials3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
orders = st.sampled_from([GREVLEX, LEX])

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


def poly_strategy(ring, monos, coeffs=rationals, max_terms=4):
    return st.lists(
        st.tuples(coeffs, monos), min_size=0, max_size=max_terms
    ).map(lambda pairs: ring.from_terms(pairs))


polys2 = poly_strategy(RXY, monomials2)
int_polys2 = poly_strategy(RXY, monomials2, coeffs=st.integers(-9, 9))


def _cmp(order, a, b):
    """-1, 0 or 1 for a < b, a = b, a > b, read from the ranks."""
    ra, rb = order.rank(a), order.rank(b)
    return (ra < rb) - (ra > rb)


class TestOrderLaws:
    @given(orders, monomials2, monomials2, monomials2)
    def test_trichotomy_and_transitivity(self, order, a, b, c):
        assert _cmp(order, a, b) == -_cmp(order, b, a)
        assert (_cmp(order, a, b) == 0) == (a == b)
        if _cmp(order, a, b) <= 0 and _cmp(order, b, c) <= 0:
            assert _cmp(order, a, c) <= 0

    @given(orders, monomials2)
    def test_one_is_minimal(self, order, m):
        assert _cmp(order, (0, 0), m) <= 0

    @given(orders, monomials2, monomials2, monomials2)
    def test_multiplicative(self, order, a, b, t):
        c = _cmp(order, a, b)
        assert _cmp(order, mono_mul(a, t), mono_mul(b, t)) == c

    @given(orders, st.lists(monomials3, unique=True))
    def test_rank_sorts_leading_first(self, order, ms):
        ascending = sorted(
            ms, key=cmp_to_key(partial(textbook_compare, order.kind))
        )
        assert sorted(ms, key=order.rank) == ascending[::-1]
        negated = sorted(ms, key=lambda m: tuple(-e for e in order.rank(m)))
        assert negated == ascending


class TestRingAxioms:
    @given(polys2, polys2, polys2)
    @settings(max_examples=60)
    def test_add_mul_laws(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    @given(polys2, polys2, polys2)
    @settings(max_examples=30)
    def test_mul_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys2)
    def test_canonical_idempotence(self, f):
        assert RXY.from_dict(dict(f.terms)) == f
        # canonical invariants: sorted strictly descending, no zeros
        keys = [RXY.order.rank(m) for m, _ in f.terms]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(c for _, c in f.terms)


class TestReductionHomomorphism:
    @given(int_polys2, int_polys2)
    @settings(max_examples=60)
    def test_additive_and_multiplicative(self, f, g):
        p = RXY.with_field(PrimeField(5))
        assert reduce_coeffs_mod_p(f + g, p) == reduce_coeffs_mod_p(
            f, p
        ) + reduce_coeffs_mod_p(g, p)
        assert reduce_coeffs_mod_p(f * g, p) == reduce_coeffs_mod_p(
            f, p
        ) * reduce_coeffs_mod_p(g, p)

    @given(
        poly_strategy(
            RXY,
            monomials2,
            coeffs=st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6])),
        ),
        poly_strategy(
            RXY,
            monomials2,
            coeffs=st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6])),
        ),
    )
    @settings(max_examples=40)
    def test_with_denominators_avoiding_p(self, f, g):
        p = RXY.with_field(PrimeField(7))
        assert reduce_coeffs_mod_p(f * g, p) == reduce_coeffs_mod_p(
            f, p
        ) * reduce_coeffs_mod_p(g, p)


class TestNormalFormProperties:
    @given(polys2)
    @settings(max_examples=40)
    def test_idempotent(self, f):
        G = [
            RXY.from_terms([(1, (2, 0)), (-1, (0, 1))]),  # x^2 - y
            RXY.from_terms([(1, (1, 1)), (-1, (0, 0))]),  # x*y - 1
        ]
        r = normal_form(f, G)
        assert normal_form(r, G) == r

    @given(polys2, polys2)
    @settings(max_examples=30, deadline=None)
    def test_explicit_combinations_are_members(self, h1, h2):
        f1 = RXY.from_terms([(1, (2, 0)), (-1, (0, 1))])
        f2 = RXY.from_terms([(1, (1, 0)), (1, (0, 1))])
        pres = ideal(f1, f2)
        assert ideal_member(h1 * f1 + h2 * f2, pres)


@st.composite
def division_problems(draw):
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
    ring = PolyRing(field, 3, draw(orders), ("x", "y", "z"))
    polys = poly_strategy(ring, monomials3, max_terms=5)
    return draw(polys), draw(st.lists(polys, max_size=4))


def _division_outcome(divide, f, divisors, *caps):
    # the remainder's terms, the steps and the factor bits, or the cap message
    try:
        rem, steps, bits = divide(f, divisors, *caps)
    except DegreeCapExceeded as exc:
        return str(exc)
    return rem.terms, steps, bits


def _same_as_reference(f, divisors, step_cap, coeff_bit_cap):
    # _divide reads the kernel caps; the reference takes them as arguments
    caps = (groebner.DEGREE_CAP, step_cap, coeff_bit_cap)
    with mock.patch.object(groebner, "STEP_CAP", step_cap), mock.patch.object(
        groebner, "COEFF_BIT_CAP", coeff_bit_cap
    ):
        ours = _division_outcome(groebner._divide, f, divisors)
    return ours == _division_outcome(reference_divide, f, divisors, *caps)


@st.composite
def lazy_gate_problems(draw):
    """Divisions over Q with large step factors: numerators and
    denominators of 90 to 160 bits, so factors of about 200 to 300 bits,
    and f a sum of multiples of divisors whose tails share four low
    monomials, so that several steps add into one pending numerator and
    the shared denominator is raised past GCD_GATE."""
    ring = PolyRing(QQ, 3, draw(orders), ("x", "y", "z"))
    size = st.integers(90, 160).flatmap(lambda b: st.integers(1 << b - 1, 1 << b))
    sign = st.sampled_from([1, -1])
    big = st.builds(lambda n, d, s: Fraction(s * n, d), size, size, sign)
    coeffs = st.one_of(rationals.filter(bool), big)
    low = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lead = monomials3.filter(lambda m: sum(m) >= 2)
    tail = st.lists(st.tuples(coeffs, low), min_size=1, max_size=3)
    row = st.tuples(st.tuples(coeffs, lead), tail)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    divisors = [ring.from_terms([t, *rest]) for t, rest in rows]
    f = draw(poly_strategy(ring, monomials3, coeffs, max_terms=2))
    for g in divisors:
        f = f + draw(poly_strategy(ring, monomials3, coeffs, max_terms=2)) * g
    return f, divisors


def _x_power_past_coeff_cap():
    # x^45 + x^44 by (2^100 + 1)*x - 3^63: the first step, of factor 1,
    # adds onto x^44; then each factor is about 200 bits larger than the
    # last, past COEFF_BIT_CAP after about 40 steps, and each raises the
    # shared denominator by 2^100 + 1
    x = RXY.variable(0)
    g = RXY.constant(Fraction(2 ** 100 + 1)) * x - RXY.constant(Fraction(3 ** 63))
    return x ** 45 + x ** 44, [g]


PRIMES = (3, 5, 7, 11)


@st.composite
def coprime_denominator_problems(draw):
    """Divisions over Q whose rows have pairwise coprime denominators: the
    i-th row's are powers of the i-th of PRIMES, f's of 13, of about 2^300 to
    2^400, and f a sum of at least two multiples of each of three or four
    rows, so that most steps raise the shared denominator and it passes
    GCD_GATE; under a coefficient cap of 1024 bits or the default."""
    ring = PolyRing(QQ, 3, draw(orders), ("x", "y", "z"))

    def coeffs(prime):
        bits = prime.bit_length()
        power = st.integers(300 // bits, 400 // bits).map(lambda e: prime ** e)
        return st.builds(Fraction, st.integers(-9, 9).filter(bool), power)

    def poly(prime, min_terms, max_terms, monos=monomials3):
        terms = st.lists(st.tuples(coeffs(prime), monos), min_size=min_terms,
                         max_size=max_terms)
        return terms.map(ring.from_terms)

    lead = monomials3.filter(lambda m: sum(m) >= 2)
    low = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    divisors = []
    for prime in PRIMES[:draw(st.integers(3, len(PRIMES)))]:
        tail = draw(poly(prime, 0, 3, low))
        divisors.append(ring.from_terms([(draw(coeffs(prime)), draw(lead))]) + tail)
    f = draw(poly(13, 0, 2))
    for g in divisors:
        f = f + draw(poly(13, 2, 3)) * g
    return f, divisors, draw(st.sampled_from([1024, groebner.COEFF_BIT_CAP]))


def _coprime_rows_past_the_gate():
    # three rows over 3^200, 5^130 and 7^110 and f over 11^100 and 13^90:
    # the shared denominator passes GCD_GATE at the second step
    divisors = [
        P3("x^2 - 1/3^200*y - z"), P3("y^2 - 1/5^130*x - 1"), P3("z^2 - 1/7^110*x + y")
    ]
    return P3("1/11^100*x^3 + y^3 + 1/13^90*z^3 + x*y*z"), divisors, groebner.COEFF_BIT_CAP


# Divisions over Q whose denominators share factors: a negative divisor
# lead, a factor that cancels against its divisor's lead, pending
# numerators whose gcd with the shared denominator at the pop is above 1,
# and a z that cancels to 0, is written again and is then divided, so an
# unreduced coefficient would show in the factor bits.  And one whose
# denominators are coprime, so that every step raises the denominator.
SHARED_DENOMINATORS = (
    P3("1/6*x + 7/16*y - 1/10*z"),
    [P3("-2/3*x + 1/4*y + 2/5*z"), P3("3/4*y - 5/6*z"), P3("3*z - 1")],
)
COPRIME_DENOMINATORS = (P3("1/5*x*y + 1/7*y*z"), [P3("1/3*x + 1/2*z")])


class TestHeapDivisionMatchesReference:
    @given(division_problems())
    @example(SHARED_DENOMINATORS)
    @example(COPRIME_DENOMINATORS)
    @settings(max_examples=150, deadline=None)
    def test_same_remainder(self, problem):
        # and the same steps and factor bits, or the same cap message
        f, divisors = problem
        assert _same_as_reference(f, divisors, step_cap=5000, coeff_bit_cap=512)

    @given(lazy_gate_problems())
    @example(_x_power_past_coeff_cap())
    @settings(max_examples=100, deadline=None)
    def test_same_remainder_across_the_lazy_gate(self, problem):
        # steps with factors of a few hundred bits add into pending pairs
        f, divisors = problem
        assert _same_as_reference(
            f, divisors, step_cap=5000, coeff_bit_cap=groebner.COEFF_BIT_CAP
        )

    @given(coprime_denominator_problems())
    @example(_coprime_rows_past_the_gate())
    @settings(max_examples=60, deadline=None)
    def test_same_remainder_over_coprime_row_denominators(self, problem):
        # and the same steps, factor bits or cap message, as _capped asserts
        f, divisors, coeff_bit_cap = problem
        _capped(f, divisors, step_cap=5000, coeff_bit_cap=coeff_bit_cap)

    def test_coprime_row_denominators_pass_the_gate(self):
        f, divisors, _ = _coprime_rows_past_the_gate()
        dens, sub = [], groebner._sub_row

        def spy(*args):
            bits, den = sub(*args)
            dens.append(den)
            return bits, den

        with mock.patch.object(groebner, "_sub_row", spy):
            assert _capped(f, divisors)[1:] == (3, 347)
        assert dens[0] < groebner.GCD_GATE < dens[1] < dens[2]

    @given(division_problems())
    @example(SHARED_DENOMINATORS)
    @settings(max_examples=100, deadline=None)
    def test_step_cap_raises_exactly_when_the_reference_does(self, problem):
        f, divisors = problem
        for k in range(6):
            assert _same_as_reference(
                f, divisors, step_cap=k, coeff_bit_cap=groebner.COEFF_BIT_CAP
            )


@st.composite
def straddling_division_problems(draw):
    """Divisions in 1 to 6 variables whose degrees straddle the degree cap:
    exponents up to 70 pass the default cap of 64, and small exponents
    pass a cap patched down to 4..8."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
    n = draw(st.integers(1, 6))
    ring = PolyRing(field, n, draw(orders))
    top = draw(st.sampled_from([2, 3, 70]))
    monos = st.tuples(*[st.integers(0, top)] * n)
    polys = poly_strategy(ring, monos, max_terms=3)
    cap = draw(st.sampled_from([4, 5, 6, 7, 8, groebner.DEGREE_CAP]))
    f, divisors = draw(polys), draw(st.lists(polys, max_size=3))
    if divisors:  # so that most divisions take a step
        f = f + draw(poly_strategy(ring, monos, max_terms=1)) * divisors[-1]
    return f, divisors, cap


def _same_as_reference_under(f, divisors, degree_cap):
    # every kernel cap patched, so the max-based reference stays quick
    caps = (degree_cap, 300, 512)
    with mock.patch.object(groebner, "DEGREE_CAP", degree_cap), mock.patch.object(
        groebner, "STEP_CAP", 300
    ), mock.patch.object(groebner, "COEFF_BIT_CAP", 512):
        ours = _division_outcome(groebner._divide, f, divisors)
    return ours == _division_outcome(reference_divide, f, divisors, *caps)


class TestPackedDivisionMatchesReference:
    """The packed kernel's field width follows the inputs and DEGREE_CAP."""

    @given(straddling_division_problems())
    @settings(max_examples=200, deadline=None)
    def test_same_remainder_or_cap_message(self, problem):
        f, divisors, cap = problem
        assert _same_as_reference_under(f, divisors, cap)

    def test_a_divisor_past_the_cap_widens_the_fields(self):
        f, g = P3("x^200"), P3("x^150 - y")
        assert normal_form(f, [g]) == P3("x^50*y")
        assert _same_as_reference_under(f, [g], groebner.DEGREE_CAP)

    def test_a_1024_variable_ring(self):
        ring = PolyRing(PrimeField(32003), 1024)
        x = [ring.variable(i) for i in (0, 511, 1023)]
        f = x[0] * x[2] ** 3 + x[1] ** 2
        divisors = [x[2] ** 2 - x[0], x[1] - ring.one()]
        assert normal_form(f, divisors) == x[0] ** 2 * x[2] + ring.one()
        assert _same_as_reference_under(f, divisors, groebner.DEGREE_CAP)


@st.composite
def growing_table_problems(draw):
    """A divisor table over Q or F_32003, grevlex or lex, and rounds of
    (dividend, row appended after its division), on small monomials of
    three variables, so that later dividends meet monomials earlier ones
    popped and later rows divide monomials no earlier row did."""
    field = draw(st.sampled_from([QQ, PrimeField(32003)]))
    ring = PolyRing(field, 3, draw(orders), ("x", "y", "z"))
    monos = st.tuples(*[st.integers(0, 2)] * 3)
    polys = poly_strategy(ring, monos, max_terms=4)
    rows = poly_strategy(ring, monos, max_terms=3).filter(bool)
    table = draw(st.lists(rows, max_size=2))
    return ring, table, draw(st.lists(st.tuples(polys, rows), min_size=1, max_size=4))


def _divide_in_turn(ring, table, rounds):
    """Each dividend's (remainder, steps, bits) or cap message, divided by
    groebner._reduce with one memo shared across rounds, and by
    reference_divide, over the table as it stands at that round."""
    divisors = list(table)
    pk, packed = groebner._packed(ring, [*table, *(p for r in rounds for p in r)])
    rows, memo, ours, refs = groebner._table(packed[:len(table)]), {}, [], []
    packed = packed[len(table):]
    caps = (groebner.DEGREE_CAP, 300, 512)
    for (f, new), (work, den), row in zip(rounds, packed[::2], packed[1::2]):
        with mock.patch.object(groebner, "STEP_CAP", 300), mock.patch.object(
            groebner, "COEFF_BIT_CAP", 512
        ):
            try:
                rem, steps, bits, _ = groebner._reduce(
                    pk, dict(work), den, rows, ring.field, memo
                )
                ours.append((Polynomial(ring, pk.unpack(*rem)).terms, steps, bits))
            except DegreeCapExceeded as exc:
                ours.append(str(exc))
        refs.append(_division_outcome(reference_divide, f, divisors, *caps))
        rows += groebner._table([row])
        divisors.append(new)
    return ours, refs, pk, rows, memo


def _memo_is_first_divisor(pk, rows, memo):
    # a row: the first row dividing m; a count: no row before it divides m
    def divides(row, m):
        return not (m - row[0]) & pk.guard

    for m, hit in memo.items():
        tested = rows[:hit] if type(hit) is int else rows[:rows.index(hit)]
        assert not any(divides(row, m) for row in tested)
        assert type(hit) is int or divides(hit, m)


RXY_F = PolyRing(PrimeField(32003), 2, GREVLEX, ("x", "y"))


class TestSharedMemo:
    """One memo serves every division by a table that only grows, as
    buchberger shares one across its S-pair reductions: the first row
    dividing a monomial never changes, and a monomial no row divided is
    tested again from where its last search stopped."""

    @given(growing_table_problems())
    @settings(max_examples=150, deadline=None)
    def test_each_division_matches_the_reference_over_the_table_so_far(self, problem):
        ours, refs, pk, rows, memo = _divide_in_turn(*problem)
        assert ours == refs
        _memo_is_first_divisor(pk, rows, memo)

    @pytest.mark.parametrize("ring", [RXY, RXY_F])
    def test_an_irreducible_monomial_resumes_at_an_appended_row(self, ring):
        # x*y is irreducible by x^2 - y; then x*y - 1 is appended, whose
        # lead x*y reduces it in the second division
        def p(text):
            return parse_polynomial(text, ring)

        rounds = [(p("x*y + x^2"), p("x*y - 1")), (p("x*y"), p("y"))]
        ours, refs, pk, rows, memo = _divide_in_turn(ring, [p("x^2 - y")], rounds)
        assert ours == refs
        assert ours[0] == (p("x*y + y").terms, 1, 0 if ring is RXY_F else 2)
        assert ours[1] == (p("1").terms, 1, 0 if ring is RXY_F else 2)
        assert memo[sum(pk.mults)] is rows[1]  # x*y packed
        _memo_is_first_divisor(pk, rows, memo)


RXYZ_LEX = PolyRing(QQ, 3, LEX, ("x", "y", "z"))
RXYZ_LEX_F = PolyRing(PrimeField(32003), 3, LEX, ("x", "y", "z"))


def _capped(
    f, divisors, step_cap=groebner.STEP_CAP, coeff_bit_cap=groebner.COEFF_BIT_CAP
):
    # _divide's outcome under the patched caps, asserted to be the reference's
    caps = (groebner.DEGREE_CAP, step_cap, coeff_bit_cap)
    with mock.patch.object(groebner, "STEP_CAP", step_cap), mock.patch.object(
        groebner, "COEFF_BIT_CAP", coeff_bit_cap
    ):
        ours = _division_outcome(groebner._divide, f, divisors)
    assert ours == _division_outcome(reference_divide, f, divisors, *caps)
    return ours


DEGREE_MESSAGE = f"division intermediate degree passed {groebner.DEGREE_CAP}"


class TestCapOrder:
    """A step checks the step cap, then over Q the factor's bits, then the
    degree of its largest product, which the row's largest tail monomial
    decides; which cap a step passes first decides the message."""

    @pytest.mark.parametrize("ring", [RXY, RXY_F])
    def test_the_step_cap_wins_over_the_degree_cap(self, ring):
        # x^65 by x - y: the first step writes x^64*y, degree 65
        f, g = (parse_polynomial(t, ring) for t in ("x^65", "x - y"))
        assert _capped(f, [g]) == DEGREE_MESSAGE
        assert _capped(f, [g], step_cap=0) == "division passed 0 reduction steps"

    def test_the_coefficient_cap_wins_over_the_degree_cap(self):
        # x^65 by 1000*x - y over Q: the factor 1/1000 has 11 bits
        f, g = (parse_polynomial(t, RXY) for t in ("x^65", "1000*x - y"))
        assert _capped(f, [g]) == DEGREE_MESSAGE
        assert _capped(f, [g], coeff_bit_cap=10) == "division coefficient passed 10 bits"
        assert _capped(f, [g], coeff_bit_cap=11) == DEGREE_MESSAGE

    @pytest.mark.parametrize("ring", [RXY, RXY_F])
    def test_a_constant_tail_is_degree_capped(self, ring):
        # x - 1's only tail monomial packs to 0: x^65 steps down to 1, the
        # first step of x^66 writes x^65
        f, g = parse_polynomial("x^65", ring), parse_polynomial("x - 1", ring)
        bits = 0 if ring is RXY_F else 2  # each factor is 1
        assert _capped(f, [g]) == (ring.one().terms, 65, bits)
        assert _capped(f * parse_polynomial("x", ring), [g]) == DEGREE_MESSAGE

    @pytest.mark.parametrize("ring", [RXYZ_LEX, RXYZ_LEX_F])
    def test_a_lex_tail_whose_largest_degree_comes_last(self, ring):
        # under lex x*z - y - z^3 has the tail y, z^3: only z^3 passes the
        # cap, from x*z^63 on
        g = parse_polynomial("x*z - y - z^3", ring)
        below = _capped(parse_polynomial("x*z^62", ring), [g])
        assert below[0] == parse_polynomial("y*z^61 + z^64", ring).terms
        assert below[1] == 1
        assert _capped(parse_polynomial("x*z^63", ring), [g]) == DEGREE_MESSAGE


# A draw whose basis over Q passes COEFF_BIT_CAP: ideal_equal raises on it.
CAPPED_GENS = [
    parse_polynomial(text, RXY)
    for text in (
        "-4/3*x^5*y^4",
        "1/2*x^5*y^4 - 3/4*x*y^5 + x^5 + 1",
        "-x^3*y^3 - 3*x^5 + 1/4*x^2*y^3 - 3*x^3",
    )
]


class TestNormalizationProperties:
    @given(st.lists(poly_strategy(RXY, monomials2), min_size=1, max_size=4))
    @example(CAPPED_GENS)
    @settings(max_examples=40, deadline=None)
    def test_normalize_same_ideal_distinct_monic_leads(self, gens):
        from gbtransfer.encoding import code_size, normalize_generators
        from gbtransfer.groebner import IdealPresentation, ideal_equal

        pres = IdealPresentation(RXY, tuple(gens))
        if gens == CAPPED_GENS:
            with pytest.raises(DegreeCapExceeded, match="coefficient passed"):
                ideal_equal(pres, normalize_generators(pres))
            return
        try:
            norm = normalize_generators(pres)
            assert ideal_equal(pres, norm)
        except DegreeCapExceeded:
            reject()  # a draw past a kernel cap checks nothing here
        live = [g for g in norm.generators if g]
        leads = [g.leading_monomial() for g in live]
        assert len(leads) == len(set(leads))
        assert all(g.leading_coeff() == QQ.one for g in live)
        degs = [int(g.degree()) for g in live]
        if degs:
            d = max(max(degs), RXY.nvars)
            assert len(live) <= code_size(RXY.nvars, d)


class TestPrimeFieldPolys:
    @given(
        poly_strategy(
            PolyRing(PrimeField(7), 2, GREVLEX, ("x", "y")),
            monomials2,
            coeffs=st.integers(0, 6),
        ),
        poly_strategy(
            PolyRing(PrimeField(7), 2, GREVLEX, ("x", "y")),
            monomials2,
            coeffs=st.integers(0, 6),
        ),
    )
    @settings(max_examples=40)
    def test_distributivity_mod_p(self, f, g):
        assert (f + g) * f == f * f + g * f


READER_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003))


def _read(fld, value):
    """fld.coerce(value), or the message of the BadPrime it raises."""
    try:
        return fld.coerce(value)
    except BadPrime as exc:
        return ("BadPrime", str(exc))


def _reference_read(fld, q: Fraction):
    """q in fld from its numerator and denominator alone."""
    if fld == QQ:
        return q
    if q.denominator % fld.p == 0:
        return ("BadPrime", f"bad prime {fld.p}: denominator of {q} vanishes")
    return q.numerator * pow(q.denominator, -1, fld.p) % fld.p


class TestFieldReader:
    """coerce is the one reader of a field value: a Fraction, its literal
    and the literal padded with spaces read the same, over Q and F_p."""

    @given(
        st.sampled_from(READER_FIELDS),
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**6),
    )
    @settings(max_examples=300)
    @example(PrimeField(32003), -5, 32003 * 7)
    @example(PrimeField(7), 3, 49)
    @example(QQ, -4, 1)
    def test_values_and_literals_agree(self, fld, num, den):
        q = Fraction(num, den)
        reads = [_read(fld, v) for v in (q, str(q), f" {q} ")]
        if q.denominator == 1:
            reads.append(_read(fld, q.numerator))
        assert reads == [_reference_read(fld, q)] * len(reads)
        for text in ("1.5", "1/0", "1/-2", "", "x"):
            with pytest.raises(ValueError) as exc:
                fld.coerce(text)
            assert str(exc.value) == f"not an exact rational literal: {text!r}"
        with pytest.raises(TypeError, match="bool is not a field element"):
            fld.coerce(True)


@st.composite
def lcm_problems(draw):
    """Two monomials of a ring of 1, 7 or 1000 variables, each of total
    degree at most DEGREE_CAP or at most 300, past it, so that _packed
    packs them wider."""
    n = draw(st.sampled_from((1, 7, 1000)))
    degree = draw(st.sampled_from((groebner.DEGREE_CAP, 300)))

    def monomial():
        m, left = [0] * n, degree
        picks = st.tuples(st.integers(0, n - 1), st.integers(0, degree))
        for i, e in draw(st.lists(picks, max_size=8)):
            e = min(e, left)
            m[i], left = m[i] + e, left - e
        return tuple(m)

    return PolyRing(QQ, n, draw(orders)), monomial(), monomial()


def _exps(*positions, n=1000, e=300):
    """An n-variable exponent vector: e at the given positions, else 0."""
    return tuple(e if i in positions else 0 for i in range(n))


class TestPackedLcm:
    """_Packing.lcm reads the lcm's degree off the exponent fields as a
    remainder; it must equal the field-wise max, degree field included."""

    @given(lcm_problems())
    @settings(max_examples=100, deadline=None)
    @example((PolyRing(QQ, 1, GREVLEX), (300,), (120,)))
    @example((PolyRing(QQ, 7, LEX), _exps(0, n=7), _exps(6, n=7, e=64)))
    @example((PolyRing(QQ, 1000, GREVLEX), _exps(999), _exps(0, e=64)))
    @example((PolyRing(QQ, 1000, LEX), _exps(0, e=1), _exps(1, e=1)))
    def test_field_wise_max(self, problem):
        ring, a, b = problem
        pk, (((ta,), _), ((tb,), _)) = groebner._packed(
            ring, [Polynomial(ring, ((m, QQ.one),)) for m in (a, b)]
        )
        # the width _packed picks keeps any lcm's degree below 2^(w-1)
        assert sum(a) + sum(b) < 1 << pk.w - 1
        want = tuple(map(max, a, b))
        assert pk.lcm(ta[0], tb[0]) == sum(e * k for e, k in zip(want, pk.mults))


@st.composite
def s_pairs(draw):
    """Pairs over Q, F_7 and F_32003; under lex half of them with exponents
    in 60..70 too, so that their terms straddle DEGREE_CAP."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
    order = draw(orders)
    exps = st.integers(0, 4)
    if order is LEX and draw(st.booleans()):
        exps = exps | st.integers(60, 70)
    ring = PolyRing(field, 3, order, ("x", "y", "z"))
    polys = poly_strategy(ring, st.tuples(exps, exps, exps), max_terms=5)
    return draw(polys.filter(bool)), draw(polys.filter(bool))


R3_LEX = PolyRing(QQ, 3, LEX, ("x", "y", "z"))
R3_F7 = PolyRing(PrimeField(7), 3, GREVLEX, ("x", "y", "z"))


class TestSPolynomialMatchesReference:
    """s_polynomial makes both rows monic and merges them on packed
    coefficients, residues over F_p and over Q int numerators over one
    denominator; the reference multiplies and subtracts Fractions or
    residues."""

    @given(s_pairs())
    # negative and non-unit leads with denominators that share factors,
    # where x*y*z cancels to 0 and the other terms survive
    @example((P3("-1/2*x^2 + 1/3*x*z + y^2"), P3("3/4*x*y - 1/2*y*z - z^2")))
    # coprime denominators, so every gcd of the pair arithmetic is 1
    @example((P3("1/5*x^2 + 1/7*y"), P3("1/3*x*y + 1/2*z")))
    # a monic and a non-monic row whose S-polynomial cancels to 0
    @example((P3("x^2 + x*z"), P3("-6*x*y - 6*y*z")))
    # under lex the S-polynomial 1/3*y^65 - 1/2*z passes DEGREE_CAP uncapped
    @example((parse_polynomial("x*y - 1/2*z", R3_LEX),
              parse_polynomial("3*x - y^64", R3_LEX)))
    # non-monic leads over F_7 whose tails cancel to 0 at x*y*z
    @example((parse_polynomial("3*x^2 + 3*x*z + y", R3_F7),
              parse_polynomial("5*x*y + 5*y*z + z^2", R3_F7)))
    @settings(max_examples=150, deadline=None)
    def test_same_polynomial(self, pair):
        f, g = pair
        got = s_polynomial(f, g)
        assert got == reference_s_polynomial(f, g)
        kind = Fraction if f.ring.field == QQ else int
        assert all(type(c) is kind for _, c in got.terms)
