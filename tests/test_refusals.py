"""Library refusals reachable through the public API: exception type and text."""

from fractions import Fraction
from unittest import mock

import pytest

from gbtransfer import polyarith
from gbtransfer.groebner import ideal, ideal_contains, ideal_member, s_polynomial
from gbtransfer.polyarith import (
    GREVLEX,
    AmbientMismatch,
    PolyRing,
    PrimeField,
    QQ,
    monomials_up_to,
    parse_polynomial,
    substitute,
)
from gbtransfer.predicates import (
    RADICAL_EQUAL,
    RadicalResult,
    radical_equals,
    rational_maximal,
)
from gbtransfer.transfer import (
    DiophantineSystem,
    Witness,
    reduce_witness_mod_p,
    search_witness_points,
)

F7 = PrimeField(7)
RX = PolyRing(QQ, 1, GREVLEX, ("x",))
RXY = PolyRing(QQ, 2, GREVLEX, ("x", "y"))
RX7 = PolyRing(F7, 1, GREVLEX, ("x",))
X, XY, X7 = RX.variable(0), RXY.variable(0), RX7.variable(0)


@pytest.mark.parametrize("call, error, message", [
    # groebner
    pytest.param(lambda: ideal(X, 3), TypeError,
                 "generators must be polynomials", id="non-polynomial-generator"),
    pytest.param(lambda: ideal(X, XY), AmbientMismatch,
                 "generator outside the ambient ring", id="generator-from-another-ring"),
    pytest.param(lambda: ideal(), ValueError,
                 "cannot infer the ring of an empty generator list", id="empty-ideal"),
    pytest.param(lambda: s_polynomial(X, XY), AmbientMismatch,
                 "s-polynomial needs one common ring", id="s-polynomial-across-rings"),
    pytest.param(lambda: ideal_member(X, ideal(XY)), AmbientMismatch,
                 "polynomial outside the ideal's ring", id="member-across-rings"),
    pytest.param(lambda: ideal_contains(ideal(X), ideal(XY)), AmbientMismatch,
                 "ideals from different rings", id="contains-across-rings"),
    # polyarith
    pytest.param(lambda: QQ.coerce(True), TypeError,
                 "bool is not a field element", id="qq-bool"),
    pytest.param(lambda: QQ.coerce(1.5), TypeError,
                 "cannot interpret 1.5 as a rational", id="qq-float"),
    pytest.param(lambda: F7.coerce(True), TypeError,
                 "bool is not a field element", id="f7-bool"),
    pytest.param(lambda: F7.coerce(1.5), TypeError,
                 "cannot interpret 1.5 as a rational", id="f7-float"),
    pytest.param(lambda: F7.coerce("1.5"), ValueError,
                 "not an exact rational literal: '1.5'", id="f7-bad-literal"),
    pytest.param(lambda: monomials_up_to(0, 2), ValueError,
                 "need at least one variable", id="monomials-no-variables"),
    pytest.param(lambda: monomials_up_to(2, -1), ValueError,
                 "degree bound must be non-negative", id="monomials-negative-degree"),
    pytest.param(lambda: PolyRing(QQ, 2, GREVLEX, ("x",)), ValueError,
                 "variable name count does not match nvars", id="name-count"),
    pytest.param(lambda: RX.variable(5), IndexError,
                 "variable index 5 out of range", id="variable-index"),
    pytest.param(lambda: RX.from_terms([(1, (-1,))]), ValueError,
                 "negative exponent", id="negative-exponent"),
    pytest.param(lambda: RX.from_terms([(1, (1.5,))]), TypeError,
                 "exponents must be ints: (1.5,)", id="float-exponent"),
    pytest.param(lambda: RX.from_terms([(1, (True,))]), TypeError,
                 "exponents must be ints: (True,)", id="bool-exponent"),
    pytest.param(lambda: RX.from_terms([(1, ("2",))]), TypeError,
                 "exponents must be ints: ('2',)", id="str-exponent"),
    pytest.param(lambda: RXY.from_terms([(1, "12")]), TypeError,
                 "exponents must be ints: ('1', '2')", id="str-exponent-vector"),
    pytest.param(lambda: RX.zero().leading_term(), ValueError,
                 "the zero polynomial has no leading term", id="zero-leading-term"),
    pytest.param(lambda: X ** -1, ValueError,
                 "polynomial powers take non-negative int exponents", id="negative-power"),
    pytest.param(lambda: XY.evaluate((1,)), AmbientMismatch,
                 "point length does not match the ring", id="evaluate-short-point"),
    pytest.param(lambda: substitute(XY, (X, X7)), AmbientMismatch,
                 "images live in different rings", id="substitute-two-rings"),
    # each factor passes POWER_BIT_CAP alone, as 2^16384 would not
    pytest.param(lambda: parse_polynomial("2^8192*2^8192", RX), ValueError,
                 "product coefficients could pass 8192 bits", id="product-of-big-constants"),
    # predicates
    pytest.param(lambda: radical_equals(ideal(X), ideal(X), 0), ValueError,
                 "exponent cap must be at least 1", id="radical-cap-0"),
    pytest.param(lambda: radical_equals(ideal(X), ideal(XY), 1), AmbientMismatch,
                 "ideals from different rings", id="radical-across-rings"),
    pytest.param(lambda: rational_maximal(ideal(XY), (0,)), AmbientMismatch,
                 "point length does not match the ring", id="maximal-short-point"),
    # transfer
    pytest.param(lambda: DiophantineSystem(0, 0, ()), ValueError,
                 "need n >= 0, r >= 0 and n + r >= 1", id="empty-system"),
    pytest.param(lambda: DiophantineSystem(1, 0, (X7,)), AmbientMismatch,
                 "system equations live over Z inside Q", id="system-over-fp"),
    pytest.param(lambda: Witness(RX, (XY,), (), None, (), (), 0), AmbientMismatch,
                 "witness polynomial outside the ring", id="witness-another-ring"),
    pytest.param(lambda: reduce_witness_mod_p(Witness(RX7, (), (), None, (), (), 0), 7),
                 AmbientMismatch, "the witness already has positive characteristic",
                 id="reduce-fp-witness"),
    pytest.param(lambda: search_witness_points(ideal(X)), AmbientMismatch,
                 "point search runs over a prime field", id="point-search-over-q"),
])
def test_library_refusal(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_written_out_product_refused_before_it_grows():
    # 2000 factors of 2^8192 are refused at the second, before any product
    # of factors is formed; multiplied out one by one they took seconds.
    # Every product a parse forms goes through its budget: each factor read
    # is 13 squarings (a power starts from its base, not from 1 times it),
    # and no product may join them
    products, mul = [], polyarith._ProductBudget.mul

    def spy(budget, p, q):
        products.append((p, q))
        return mul(budget, p, q)

    with mock.patch.object(polyarith._ProductBudget, "mul", spy):
        with pytest.raises(ValueError, match="product coefficients could pass 8192 bits"):
            parse_polynomial("*".join(["2^8192"] * 2000), RX)
    assert len(products) == 2 * 13


def test_library_edge_answers():
    # the branches beside those refusals that answer instead
    assert F7.coerce("3/2") == 5 and F7.coerce(Fraction(3, 2)) == 5
    assert parse_polynomial("2^4096*2^4096*x", RX) == RX.constant(2 ** 8192) * X
    assert parse_polynomial("2^8192*2^8192", RX7) == RX7.constant(2 ** 16384)
    assert (RX == 3) is False
    assert RX.zero().monic() == RX.zero()
    assert (X + RX.one()).scale(0) == RX.zero()
    zero = ideal(RX.zero())
    assert radical_equals(zero, zero, 1) == RadicalResult(RADICAL_EQUAL, (), None, 1)
