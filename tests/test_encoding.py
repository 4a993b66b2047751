"""Code sizes, generator normalization, encode/decode, JSON round trips."""

import json
import math
import random

import pytest

from gbtransfer.encoding import (
    ComplexityExceeded,
    code_from_json,
    code_size,
    code_to_json,
    decode_ideal,
    encode_ideal,
    field_from_json,
    monomial_basis,
    normalize_generators,
)
from gbtransfer.groebner import IdealPresentation, ideal_equal
from gbtransfer.polyarith import GREVLEX, LEX, PolyRing, PrimeField, QQ, parse_polynomial

from corpus import R2, P, mk, random_ideal

R1L = PolyRing(QQ, 1, LEX, ("x",))


class TestCodeSize:
    def test_two_vars_degree_three(self):
        assert code_size(2, 3) == 10

    def test_one_var(self):
        assert code_size(1, 1) == 2

    def test_boundary_with_central_binomial(self):
        assert code_size(2, 2) == 6
        assert math.comb(4, 2) == 6

    def test_rejects_d_below_n(self):
        with pytest.raises(ValueError):
            code_size(3, 2)

    def test_pascal_recurrence(self):
        # d >= n + 1 keeps every term inside the domain of code_size
        for n in range(2, 5):
            for d in range(n + 1, n + 5):
                assert code_size(n, d) == code_size(n - 1, d) + code_size(n, d - 1)


class TestNormalize:
    def test_scaling_then_cancellation(self):
        norm = normalize_generators(mk(R2, "2*x", "x"))
        assert norm.generators == (P("x"),)

    def test_one_subtraction_step(self):
        norm = normalize_generators(mk(R2, "x + y", "x"))
        assert set(map(str, norm.generators)) == {"x", "y"}

    def test_already_normalized(self):
        norm = normalize_generators(mk(R2, "x"))
        assert norm.generators == (P("x"),)

    def test_same_ideal_and_distinct_leads(self):
        pres = mk(R2, "x^2 - y", "x^2 + y", "2*x^2")
        norm = normalize_generators(pres)
        assert ideal_equal(pres, norm)
        leads = [g.leading_monomial() for g in norm.generators]
        assert len(leads) == len(set(leads))
        assert all(g.leading_coeff() == QQ.one for g in norm.generators)

    def test_zero_ideal(self):
        pres = IdealPresentation(R2, (R2.zero(),))
        assert normalize_generators(pres).is_zero_ideal()


class TestEncodeDecode:
    def test_principal_line_lex(self):
        pres = IdealPresentation(R1L, (parse_polynomial("x", R1L),))
        code = encode_ideal(pres, 1)
        assert monomial_basis(1, 1, LEX) == [(1,), (0,)]
        assert code.rows == ((QQ.one, QQ.zero), (QQ.zero, QQ.zero))

    def test_zero_ideal_all_zero_rows(self):
        pres = IdealPresentation(R2, (R2.zero(),))
        code = encode_ideal(pres, 2)
        assert all(all(not c for c in row) for row in code.rows)
        assert decode_ideal(code).is_zero_ideal()

    def test_complexity_exceeded(self):
        with pytest.raises(ComplexityExceeded):
            encode_ideal(mk(R2, "x^3"), 2)

    def test_round_trip_generates_same_ideal(self):
        pres = mk(R2, "x - y", "2*y")
        decoded = decode_ideal(encode_ideal(pres, 2))
        assert ideal_equal(decoded, pres)
        assert ideal_equal(decoded, mk(R2, "x", "y"))

    def test_square_grid_shape(self):
        code = encode_ideal(mk(R2, "x^2 - y"), 3)
        size = code_size(2, 3)
        assert len(code.rows) == size
        assert all(len(row) == size for row in code.rows)

    def test_deterministic_rows(self):
        a = encode_ideal(mk(R2, "x^2 - y", "x"), 3)
        b = encode_ideal(mk(R2, "x^2 - y", "x"), 3)
        assert a == b

    def test_malformed_rows_rejected(self):
        code = encode_ideal(mk(R2, "x"), 2)
        broken = type(code)(
            code.nvars, code.complexity, code.order, code.field, code.rows[:-1]
        )
        with pytest.raises(ValueError):
            decode_ideal(broken)


class TestCodeJson:
    def test_bit_exact_round_trip(self):
        code = encode_ideal(mk(R2, "x^2 - y", "3*x"), 3)
        text = code_to_json(code)
        assert code_to_json(code_from_json(text)) == text
        assert code_from_json(text) == code

    def test_rational_strings(self):
        from fractions import Fraction

        # the fractional coefficient sits in the tail, surviving monic scaling
        pres = IdealPresentation(
            R2, (P("x") + P("y").scale(Fraction(1, 3)),)
        )
        text = code_to_json(encode_ideal(pres, 2))
        obj = json.loads(text)
        flattened = [c for row in obj["rows"] for c in row]
        assert "1/3" in flattened

    def test_prime_field_code(self):
        r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
        pres = IdealPresentation(r5, (parse_polynomial("2*T + 1", r5),))
        text = code_to_json(encode_ideal(pres, 1))
        obj = json.loads(text)
        assert obj["field"] == {"Fp": 5}
        assert code_to_json(code_from_json(text)) == text

    CODE_F7 = {
        "complexity": 1,
        "field": {"Fp": 7},
        "nvars": 1,
        "order": "grevlex",
        "rows": [["1", "5"], ["0", "0"]],
    }

    @pytest.mark.parametrize(
        "change",
        [
            {"rows": 5},
            {"rows": [[1, 5], [0, 0]]},
            {"rows": [["1", "5"], "00"]},
            {"field": {"Fp": 7.9}},
            {"field": {"Fp": True}},
            {"field": {"Fp": "7"}},
            {"nvars": 1.9},
            {"nvars": True},
            {"complexity": "1"},
        ],
    )
    def test_only_exact_json_types_accepted(self, change):
        assert code_from_json(json.dumps(self.CODE_F7)).field == PrimeField(7)
        with pytest.raises(ValueError):
            code_from_json(json.dumps({**self.CODE_F7, **change}))

    @pytest.mark.parametrize("p", [7.9, 7.0, True, "7", None])
    def test_field_modulus_must_be_an_int(self, p):
        assert field_from_json({"Fp": 7}) == PrimeField(7)
        with pytest.raises(ValueError):
            field_from_json({"Fp": p})


class TestRandomRoundTrips:
    def test_twenty_random_ideals(self):
        rng = random.Random(99)
        rings = [
            PolyRing(QQ, 1, GREVLEX, ("x",)),
            R2,
            PolyRing(QQ, 3, GREVLEX, ("x", "y", "z")),
        ]
        done = 0
        while done < 20:
            ring = rings[done % len(rings)]
            pres = random_ideal(rng, ring, max_degree=4, n_gens=2)
            norm = normalize_generators(pres)
            d = 4
            code = encode_ideal(pres, d)
            assert len([g for g in norm.generators if g]) <= code_size(
                ring.nvars, d
            )
            assert ideal_equal(decode_ideal(code), pres)
            text = code_to_json(code)
            assert code_to_json(code_from_json(text)) == text
            done += 1
