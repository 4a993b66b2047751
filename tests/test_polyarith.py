"""Coefficient fields, monomial orders, polynomial arithmetic, reduction."""

import functools
import itertools
import math
import time
from fractions import Fraction

import pytest

from gbtransfer.polyarith import (
    AmbientMismatch,
    BadPrime,
    GREVLEX,
    LEX,
    MonomialOrder,
    NEG_INF,
    NEST_CAP,
    POWER_BIT_CAP,
    PolyRing,
    PrimeField,
    QQ,
    TERM_CAP,
    format_polynomial,
    is_prime,
    monomials_up_to,
    parse_polynomial,
    reduce_coeffs_mod_p,
    substitute,
)

RXY = PolyRing(QQ, 2, GREVLEX, ("x", "y"))
RT = PolyRing(QQ, 1, GREVLEX, ("T",))


def P(text, ring=RXY):
    return parse_polynomial(text, ring)


class TestPrimality:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 97, 101, 7919, 1_000_003])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 91, 1_000_001, 25, 49])
    def test_composites(self, n):
        assert not is_prime(n)

    def test_agrees_with_a_sieve_below_a_million(self):
        n = 10**6
        sieve = bytearray([1]) * n
        sieve[0] = sieve[1] = 0
        for q in range(2, 1001):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, n, q)))
        assert [k for k in range(n) if is_prime(k)] == [
            k for k in range(n) if sieve[k]
        ]

    # the smallest strong pseudoprime to the first k bases, k = 1..7 and 9:
    # each sits at the bound where one more base starts to run
    @pytest.mark.parametrize("n", [
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
    ])
    def test_strong_pseudoprimes_at_the_bounds(self, n):
        assert not is_prime(n)


class TestFields:
    def test_rational_parse_exact(self):
        assert QQ.coerce("-3/6") == Fraction(-1, 2)
        with pytest.raises(ValueError):
            QQ.coerce("1.5")

    def test_prime_field_residues(self):
        f5 = PrimeField(5)
        assert f5.coerce(-1) == 4
        assert f5.coerce("1/2") == 3  # 2^-1 = 3 mod 5
        assert f5.inv(2) == 3

    def test_prime_field_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_prime_field_denominator_hit(self):
        with pytest.raises(BadPrime):
            PrimeField(3).coerce(Fraction(1, 6))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(Fraction(0))
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inv(0)

    @pytest.mark.parametrize("p", [2, 3, 32003, (1 << 61) - 1])
    def test_prime_field_reduce_gives_canonical_residues(self, p):
        fld = PrimeField(p)
        for a in (-1, -p, -p - 1, -(p**2) - 5, 0, p - 1, p, p**2 + 1, 7 * p**3 + 2):
            r = fld.reduce(a)
            assert 0 <= r < p and (r - a) % p == 0

    def test_rational_reduce_is_the_identity(self):
        for a in (Fraction(0), Fraction(-7, 3), Fraction(10**40, 3), 5):
            assert QQ.reduce(a) is a

    def test_evaluate_huge_power_is_modular(self):
        # pow over F_p is modular: 3^(10^8) is never formed as an integer
        ring = PolyRing(PrimeField(5), 1, GREVLEX, ("x",))
        f = ring.from_dict({(100_000_000,): 1})
        start = time.perf_counter()
        assert f.evaluate([3]) == pow(3, 100_000_000, 5) == 1
        assert time.perf_counter() - start < 1.0


class TestMonomialOrder:
    # a smaller rank is a larger monomial
    def test_lex_first_exponent_wins(self):
        assert LEX.rank((2, 0)) < LEX.rank((1, 3))

    def test_grevlex_degree_tie_reversed_rule(self):
        # x^2 beats x*y under grevlex
        assert GREVLEX.rank((2, 0)) < GREVLEX.rank((1, 1))

    def test_reflexive_equal(self):
        assert GREVLEX.rank((3, 1)) == GREVLEX.rank((3, 1))
        assert LEX.rank((0, 0)) == LEX.rank((0, 0))

    def test_rank_is_a_flat_int_tuple(self):
        assert LEX.rank((2, 0, 1)) == (-2, 0, -1)
        assert GREVLEX.rank((2, 0, 1)) == (-3, 1, 0, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MonomialOrder("degrevlex")


class TestArithmetic:
    def test_additive_inverse(self):
        x = P("x")
        assert not (x + (-x))

    def test_difference_of_squares(self):
        assert P("x + 1") * P("x - 1") == P("x^2 - 1")

    def test_scale_over_f5(self):
        r = PolyRing(PrimeField(5), 1, GREVLEX, ("x",))
        f = r.from_terms([(2, (1,))])
        assert f.scale(3) == r.from_terms([(1, (1,))])

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            P("x") + P("T", RT)

    def test_mixed_fields_rejected(self):
        r5 = PolyRing(PrimeField(5), 2, GREVLEX, ("x", "y"))
        with pytest.raises(AmbientMismatch):
            P("x") * r5.variable(0)

    @pytest.mark.parametrize(
        "combine",
        [
            lambda f: f + 1,
            lambda f: 1 + f,
            lambda f: f - 1,
            lambda f: 1 - f,
            lambda f: f * 2,
            lambda f: 2 * f,
            lambda f: f * Fraction(1, 2),
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul", "mul_fraction"],
    )
    def test_scalar_operands_rejected(self, combine):
        # + - * take two polynomials; scale is the one scalar product
        with pytest.raises(TypeError):
            combine(P("x"))

    def test_distinct_variable_names_required(self):
        with pytest.raises(ValueError, match="distinct"):
            PolyRing(QQ, 3, GREVLEX, ("x", "y", "x"))

    def test_degree_of_zero_is_marker(self):
        assert RXY.zero().degree() == NEG_INF
        assert RXY.zero().degree() < 0

    def test_canonical_equality(self):
        f = RXY.from_terms([(1, (1, 0)), (2, (0, 1)), (-2, (0, 1))])
        assert f == P("x")

    def test_power(self):
        assert P("x + y") ** 2 == P("x^2 + 2*x*y + y^2")
        assert P("x") ** 0 == RXY.one()

    def test_evaluate(self):
        f = P("x^2 - y")
        assert f.evaluate((Fraction(3), Fraction(2))) == Fraction(7)
        assert f.evaluate(("1/2", "1/4")) == 0


class TestSubstitute:
    def test_square_root_lifting(self):
        sring = PolyRing(QQ, 2, GREVLEX, ("X1", "Y1"))
        F = parse_polynomial("X1 - Y1^2", sring)
        T = RT.variable(0)
        assert not substitute(F, [T * T, T])

    def test_scaled_lifting(self):
        sring = PolyRing(QQ, 2, GREVLEX, ("X1", "Y1"))
        F = parse_polynomial("6*X1 - Y1^2", sring)
        T = RT.variable(0)
        x1 = (T * T).scale(Fraction(1, 6))
        assert not substitute(F, [x1, T])

    def test_zero_image(self):
        sring = PolyRing(QQ, 1, GREVLEX, ("X1",))
        F = parse_polynomial("X1", sring)
        assert not substitute(F, [RT.zero()])

    def test_arity_mismatch(self):
        sring = PolyRing(QQ, 2, GREVLEX, ("X1", "Y1"))
        F = parse_polynomial("X1", sring)
        with pytest.raises(AmbientMismatch):
            substitute(F, [RT.variable(0)])

    def test_rejects_fractional_source(self):
        F = P("T", RT).scale(Fraction(1, 2))
        with pytest.raises(ValueError):
            substitute(F, [RT.variable(0)])

    def test_ring_homomorphism_spot(self):
        sring = PolyRing(QQ, 2, GREVLEX, ("X1", "Y1"))
        F = parse_polynomial("X1^2 + 3*X1*Y1 - Y1", sring)
        G = parse_polynomial("X1 - 2*Y1^2", sring)
        T = RT.variable(0)
        images = [T + RT.one(), T * T]
        assert substitute(F * G, images) == substitute(F, images) * substitute(G, images)
        assert substitute(F + G, images) == substitute(F, images) + substitute(G, images)


class TestReduceModP:
    def test_inverse_of_six_mod_five(self):
        f = P("T^2", RT).scale(Fraction(1, 6))
        assert reduce_coeffs_mod_p(f, RT.with_field(PrimeField(5))) == parse_polynomial(
            "T^2", PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
        )

    def test_inverse_of_six_mod_seven(self):
        f = P("T^2", RT).scale(Fraction(1, 6))
        assert reduce_coeffs_mod_p(f, RT.with_field(PrimeField(7))) == parse_polynomial(
            "6*T^2", PolyRing(PrimeField(7), 1, GREVLEX, ("T",))
        )

    def test_bad_prime(self):
        f = P("T^2", RT).scale(Fraction(1, 6))
        with pytest.raises(BadPrime):
            reduce_coeffs_mod_p(f, RT.with_field(PrimeField(3)))

    def test_coefficient_vanishes(self):
        f = P("5*T + 1", RT)
        r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
        assert reduce_coeffs_mod_p(f, r5) == r5.one()

    def test_target_ring_shape_checked(self):
        with pytest.raises(AmbientMismatch):
            reduce_coeffs_mod_p(P("x"), RT.with_field(PrimeField(5)))
        with pytest.raises(AmbientMismatch):
            reduce_coeffs_mod_p(P("x"), PolyRing(PrimeField(5), 2, LEX))

    def test_reductions_share_the_target_ring(self):
        r5 = RXY.with_field(PrimeField(5))
        images = [reduce_coeffs_mod_p(P(t), r5) for t in ("x + 6*y", "y^2")]
        assert all(f.ring is r5 for f in images)
        assert images[0] == parse_polynomial("x + y", r5)

    def test_only_rational_inputs(self):
        r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
        with pytest.raises(AmbientMismatch):
            reduce_coeffs_mod_p(r5.variable(0), RT.with_field(PrimeField(7)))


class TestParseFormat:
    @pytest.mark.parametrize(
        "text",
        ["0", "x", "x^2 - y", "1/6*x^2 + 3*y - 2", "x^3*y^2 - 1/2*x", "-x + 1"],
    )
    def test_round_trip(self, text):
        f = P(text)
        assert P(format_polynomial(f)) == f

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            P("1.5*x")

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            P("x + t")

    def test_parenthesised_products(self):
        assert P("(x + 1)*(x - 1)") == P("x^2 - 1")

    def test_unary_minus_applies_after_the_power(self):
        assert P("x*-y^2") == -P("x*y^2")
        assert P("2*-x^2") == P("-2*x^2")
        assert P("(-y)^2") == P("y^2")
        assert P("--y") == P("y")
        assert not P("x*-y^2 + x*y^2")

    def test_zero_denominator_refused(self):
        with pytest.raises(ValueError, match="zero denominator"):
            P("1/0*x")

    def test_nesting_capped(self):
        k = NEST_CAP
        assert P("(" * k + "x" + ")" * k) == P("x")
        assert P("x*" + "-" * k + "y") == P("x*y")
        with pytest.raises(ValueError, match=f"nests deeper than {k}"):
            P("(" * (k + 1) + "x" + ")" * (k + 1))
        with pytest.raises(ValueError, match=f"nests deeper than {k}"):
            P("x*" + "-" * (k + 1) + "y")

    def test_power_coefficients_bounded_over_q(self):
        # squaring 2 thirty times would build a billion-bit coefficient
        with pytest.raises(ValueError) as exc:
            P("2^1000000000")
        assert str(exc.value) == f"power coefficients could pass {POWER_BIT_CAP} bits"
        assert P(f"2^{POWER_BIT_CAP}") == RXY.constant(2 ** POWER_BIT_CAP)
        assert P("(-x)^100000000") == P("x^100000000")  # a coefficient of -1 adds no bits
        r7 = PolyRing(PrimeField(7), 1, GREVLEX, ("T",))
        assert parse_polynomial("2^1000000000", r7) == r7.constant(pow(2, 10**9, 7))

    def test_prime_field_literals(self):
        r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
        assert parse_polynomial("1/2*T", r5) == parse_polynomial("3*T", r5)

    def test_format_zero(self):
        assert format_polynomial(RXY.zero()) == "0"


def test_monomials_up_to_counts():
    # C(n+d, n) monomials of degree <= d
    assert len(monomials_up_to(2, 3)) == 10
    assert len(monomials_up_to(1, 1)) == 2
    assert len(monomials_up_to(3, 2)) == 10


def test_monomials_up_to_matches_product_filter():
    # The seeded prime probe draws from this tuple by index, so its order
    # is part of the output bytes.
    for n in range(1, 6):
        for d in range(7):
            reference = tuple(
                m
                for m in itertools.product(range(d + 1), repeat=n)
                if sum(m) <= d
            )
            assert monomials_up_to(n, d) == reference


def test_monomials_up_to_matches_the_bars_comprehension():
    # the former monomials_up_to, which built every gap tuple entry by entry
    def bars(n, d):
        return tuple(
            tuple([b - a - 1 for a, b in zip((-1, *bars), bars)])
            for bars in itertools.combinations(range(n + d), n)
        )

    for n in range(1, 7):
        for d in range(5):
            assert monomials_up_to(n, d) == bars(n, d), (n, d)


def test_monomials_up_to_matches_the_recursive_order():
    @functools.lru_cache(maxsize=None)
    def recursive(n, d):
        # the former monomials_up_to, one call per variable
        if n == 1:
            return tuple((e,) for e in range(d + 1))
        return tuple((e,) + rest for e in range(d + 1) for rest in recursive(n - 1, d - e))

    # every shape of up to 60 variables and degree 60 within TERM_CAP
    shapes = [
        (n, d) for n in range(1, 61) for d in range(61)
        if math.comb(n + d, n) <= TERM_CAP
    ]
    assert len(shapes) == 425
    for n, d in shapes:
        assert monomials_up_to(n, d) == recursive(n, d), (n, d)
