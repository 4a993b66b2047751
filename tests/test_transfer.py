"""Witness verification, bad primes, reduction, sweep, point search."""

import json
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gbtransfer import polyarith, transfer
from gbtransfer.cli import load_case, main
from gbtransfer.encoding import IdealCode
from gbtransfer.groebner import GroebnerBasis, IdealPresentation, ideal
from gbtransfer.polyarith import (
    AmbientMismatch,
    BadPrime,
    GREVLEX,
    LEX,
    MonomialOrder,
    PolyRing,
    PrimeField,
    QQ,
    RationalField,
    parse_polynomial,
    reduce_coeffs_mod_p,
    substitute,
)
from gbtransfer.predicates import (
    ComplexityReport, HeightResult, NotContained, ProbeResult, RadicalResult,
)
from gbtransfer.transfer import (
    BudgetExceeded,
    Caps,
    CharZeroFailure,
    DegenerateGenerator,
    DiophantineSystem,
    PrimeOutcome,
    SweepReport,
    VerificationResult,
    Witness,
    bad_primes,
    primes_in_range,
    reduce_witness_mod_p,
    search_witness_points,
    sweep,
    system_ring,
    verify_witness,
)

from oracles import reference_bad_primes

RT = PolyRing(QQ, 1, GREVLEX, ("T",))
T = RT.variable(0)
CAPS = Caps(seed=11)
SMALL_PRIMES = primes_in_range(2, 30)
CASES = Path(__file__).resolve().parent.parent / "cases"
CAP = transfer.PRIME_RANGE_CAP


def _system(*texts, n=1, r=1):
    sring = system_ring(n, r)
    return DiophantineSystem(
        n, r, tuple(parse_polynomial(t, sring) for t in texts)
    )


def square_root_witness(x1=None, b=("0",)):
    """Witness for {X1 - Y1^2}: I = (0), m = (T), x1 = T^2, y1 = T."""
    return Witness(
        ring=RT,
        i_gens=(RT.zero(),),
        m_gens=(T,),
        point_b=b,
        x_images=(x1 if x1 is not None else T * T,),
        y_images=(T,),
        claimed_n=1,
        domain_claim=True,
    )


def sixth_scaled_witness():
    return square_root_witness(x1=(T * T).scale(Fraction(1, 6)))


SQUARE_SYS = _system("X1 - Y1^2")
SIXTH_SYS = _system("6*X1 - Y1^2")


class TestVerifyWitness:
    def test_square_root_passes(self):
        res = verify_witness(SQUARE_SYS, square_root_witness(), CAPS)
        assert res.passed
        assert res.condition1.equal
        assert res.condition1.exponents[0][1] == 2
        assert res.condition2 == (True,)
        assert res.condition3 == "passed"
        assert res.height_computed == 1
        assert res.complexity.complexity == 2

    def test_wrong_lift_fails_condition2(self):
        res = verify_witness(SQUARE_SYS, square_root_witness(x1=T ** 3), CAPS)
        assert not res.passed
        assert res.condition2 == (False,)
        assert res.condition2_residues[0] != "0"

    def test_displaced_m_fails_condition1(self):
        w = Witness(
            ring=RT,
            i_gens=(T * T,),
            m_gens=(T - RT.one(),),
            point_b=("1",),
            x_images=(T * T,),
            y_images=(T,),
            claimed_n=0,
            domain_claim=False,
        )
        with pytest.raises(NotContained):
            verify_witness(SQUARE_SYS, w, CAPS)

    def test_displaced_m_fails_radical_containment(self):
        w = Witness(
            ring=RT,
            i_gens=(RT.zero(),),
            m_gens=(T - RT.one(),),
            point_b=("1",),
            x_images=(T * T,),
            y_images=(T,),
            claimed_n=1,
            domain_claim=False,
        )
        res = verify_witness(SQUARE_SYS, w, CAPS)
        assert not res.passed
        assert res.condition1.status == "not_contained_in_p"

    def test_radical_power_not_found_reported(self):
        # zero images leave (x) + I strictly below m at every exponent
        w = Witness(
            ring=RT,
            i_gens=(RT.zero(),),
            m_gens=(T,),
            point_b=("0",),
            x_images=(RT.zero(),),
            y_images=(RT.zero(),),
            claimed_n=1,
            domain_claim=False,
        )
        res = verify_witness(SQUARE_SYS, w, CAPS)
        assert not res.passed
        assert res.condition1.status == "generator_power_not_found"
        assert res.condition2 == (True,)

    def test_height_mismatch_fails(self):
        w = Witness(
            ring=RT,
            i_gens=(RT.zero(),),
            m_gens=(T,),
            point_b=("0",),
            x_images=(T * T,),
            y_images=(T,),
            claimed_n=3,
            domain_claim=False,
        )
        res = verify_witness(SQUARE_SYS, w, CAPS)
        assert not res.passed and not res.height_ok

    def test_missing_point_not_certified(self):
        res = verify_witness(SQUARE_SYS, square_root_witness(b=None), CAPS)
        assert res.passed
        assert res.condition3 == "not_certified"

    def test_shape_mismatch(self):
        w = Witness(
            ring=RT,
            i_gens=(RT.zero(),),
            m_gens=(T,),
            point_b=None,
            x_images=(T * T,),
            y_images=(T, T),
            claimed_n=1,
            domain_claim=False,
        )
        with pytest.raises(AmbientMismatch):
            verify_witness(SQUARE_SYS, w, CAPS)


class TestBadPrimes:
    def test_denominator_primes(self):
        assert bad_primes(sixth_scaled_witness(), SMALL_PRIMES) == {
            2: ("denominator",),
            3: ("denominator",),
        }

    def test_clean_witness_has_none(self):
        assert bad_primes(square_root_witness(), SMALL_PRIMES) == {}

    def test_leading_coefficient_primes(self):
        w = Witness(
            ring=RT,
            i_gens=(RT.zero(),),
            m_gens=(T.scale(6) - RT.one(),),
            point_b=None,
            x_images=(T * T,),
            y_images=(T,),
            claimed_n=1,
            domain_claim=False,
        )
        bad = bad_primes(w, SMALL_PRIMES)
        assert bad == {2: ("leading-coeff",), 3: ("leading-coeff",)}

    def test_large_denominator_needs_no_factoring(self):
        # a 20-digit denominator p*q: only the candidates are tried
        p, q = 9999999943, 9999999967
        w = square_root_witness(x1=(T * T).scale(Fraction(1, p * q)))
        assert bad_primes(w, [2, 3, p, q]) == {
            p: ("denominator",),
            q: ("denominator",),
        }
        t0 = time.monotonic()
        report = sweep(
            _system(f"{p * q}*X1 - Y1^2"), w, primes_in_range(2, 100), CAPS
        )
        assert time.monotonic() - t0 < 10
        assert report.bad_primes == () and report.all_passed()


R2 = PolyRing(QQ, 2, GREVLEX, ("s", "t"))


@st.composite
def rational_witnesses(draw):
    """A witness over Q whose generators need not form a valid witness:
    bad_primes reads only their coefficients.  Numerators run negative,
    I may hold zero generators, the point may carry denominators, and one
    draw in two is integral throughout."""
    integral = draw(st.booleans())
    dens = st.just(1) if integral else st.sampled_from((1, 2, 3, 6, 7, 10, 49))
    coeffs = st.builds(Fraction, st.integers(-60, 60), dens)
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = st.lists(st.tuples(coeffs, monos), max_size=4).map(R2.from_terms)
    gens = st.lists(polys, min_size=1, max_size=3).map(tuple)
    i_gens = st.lists(polys | st.just(R2.zero()), min_size=1, max_size=3)
    point = st.none() | st.tuples(coeffs, coeffs)
    w = Witness(
        R2, tuple(draw(i_gens)), draw(gens), draw(point), draw(gens), draw(gens), 0
    )
    return w, integral


class TestBadPrimesMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        rational_witnesses(),
        st.lists(st.sampled_from(primes_in_range(2, 60)), max_size=24)
        | st.lists(st.sampled_from(primes_in_range(2, 5000)), max_size=24),
    )
    def test_same_primes_reasons_and_order(self, drawn, candidates):
        w, integral = drawn
        bad = bad_primes(w, candidates)
        assert list(bad.items()) == list(reference_bad_primes(w, candidates).items())
        if integral:
            assert all(reasons == ("leading-coeff",) for reasons in bad.values())

    @pytest.mark.parametrize("scale", [
        Fraction(1), Fraction(7), Fraction(1, 7), Fraction(35, 6), Fraction(97, 101),
        Fraction(1, 2 * 3 * 5 * 7 * 11 * 13), Fraction(-13, 30030),
    ])
    def test_products_below_on_and_above_unsorted_candidates(self, scale):
        # each product (of the denominators, of the leading numerators)
        # falls below some candidates, on one or above the rest
        w = square_root_witness(x1=(T * T).scale(scale))
        candidates = [97, 7, 2, 7, 101, 3, 13, 11, 5, 30047, 2]
        assert list(bad_primes(w, candidates).items()) == list(
            reference_bad_primes(w, candidates).items()
        )

    def test_one_prime_with_both_reasons(self):
        # 3 divides the denominator of -1/3 and the leading numerator 3
        w = square_root_witness(x1=T * T.scale(3) - RT.constant(Fraction(1, 3)))
        want = {3: ("denominator", "leading-coeff")}
        assert bad_primes(w, [7, 3, 5, 3, 2]) == want
        assert reference_bad_primes(w, [7, 3, 5, 3, 2]) == want

    def test_rejects_a_witness_over_f_p(self):
        w = reduce_witness_mod_p(square_root_witness(), 5)
        with pytest.raises(AmbientMismatch):
            bad_primes(w, [5])


def _listed_one_by_one(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1) if polyarith.is_prime(n)]


class TestPrimesInRange:
    """The sieve up to PRIME_RANGE_CAP against Miller-Rabin on each number."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, CAP), st.integers(-3, 3000))
    def test_windows_below_the_cap(self, lo, width):
        hi = min(lo + width, CAP)
        assert primes_in_range(lo, hi) == _listed_one_by_one(lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        (10, 3), (5, 4), (2, 1), (0, 0), (0, 1), (0, 2), (2, 2), (-7, 2),
        (-7, -1), (CAP - 500, CAP), (CAP - 500, CAP + 1), (CAP, CAP + 1),
        (CAP + 1, CAP + 800), (CAP - 3, CAP - 3), (CAP - 17, CAP - 17),
    ])
    def test_edges(self, lo, hi):
        assert primes_in_range(lo, hi) == _listed_one_by_one(lo, hi)

    def test_whole_sieve(self):
        listed = primes_in_range(0, CAP)
        assert len(listed) == 78498 and listed[-1] == 999983


class TestReduceWitness:
    def test_mod_five(self):
        w5 = reduce_witness_mod_p(sixth_scaled_witness(), 5)
        r5 = RT.with_field(PrimeField(5))
        assert w5.x_images[0] == parse_polynomial("T^2", r5)
        assert w5.point_b == (0,)
        assert w5.claimed_n == 1 and w5.domain_claim

    def test_mod_seven(self):
        w7 = reduce_witness_mod_p(sixth_scaled_witness(), 7)
        r7 = RT.with_field(PrimeField(7))
        assert w7.x_images[0] == parse_polynomial("6*T^2", r7)

    def test_bad_prime_propagates(self):
        with pytest.raises(BadPrime):
            reduce_witness_mod_p(sixth_scaled_witness(), 2)

    def test_field_constructed_once(self):
        # every component is reduced into one F_p, so p is tested for
        # primality once, not once per witness polynomial
        w = sixth_scaled_witness()
        with mock.patch.object(
            polyarith, "is_prime", wraps=polyarith.is_prime
        ) as spy:
            reduce_witness_mod_p(w, 7)
        assert spy.call_count == 1

    def test_point_denominator_is_a_bad_prime(self, tmp_path, capsys):
        # Witness reads b into F_p: a point coordinate 1/5 alone makes 5 bad
        case = json.loads((CASES / "hyperbola.json").read_text())
        case["witness"]["b"] = ["1/5", "5"]
        path = tmp_path / "hyperbola_b5.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        _, w = load_case(str(path))
        with pytest.raises(BadPrime) as exc:
            reduce_witness_mod_p(w, 5)
        assert str(exc.value) == "bad prime 5: denominator of 1/5 vanishes"
        assert reduce_witness_mod_p(w, 7).point_b == (3, 5)
        assert main(["verify", str(path), "--prime", "5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: bad prime 5: denominator of 1/5 vanishes\n")

    def test_degenerate_generator(self):
        w = Witness(
            ring=RT,
            i_gens=(RT.zero(),),
            m_gens=(T.scale(5) - RT.one(),),
            point_b=None,
            x_images=(T,),
            y_images=(T,),
            claimed_n=1,
            domain_claim=False,
        )
        with pytest.raises(DegenerateGenerator):
            reduce_witness_mod_p(w, 5)

    def test_complexity_never_increases(self):
        w = sixth_scaled_witness()
        d0 = verify_witness(SIXTH_SYS, w, CAPS).complexity.complexity
        for p in (5, 7, 11, 101):
            wp = reduce_witness_mod_p(w, p)
            assert verify_witness(SIXTH_SYS, wp, CAPS).complexity.complexity <= d0


class TestSweep:
    def test_sixth_scaled_flagship(self):
        report = sweep(
            SIXTH_SYS, sixth_scaled_witness(), primes_in_range(2, 100), CAPS
        )
        assert [p for p, _ in report.bad_primes] == [2, 3]
        assert report.all_passed()
        assert report.uniform_d == report.char0_d == 2
        covered = {p for p, _ in report.bad_primes} | {
            o.p for o in report.per_prime
        }
        assert covered == set(primes_in_range(2, 100))

    def test_integer_witness_all_pass(self):
        report = sweep(
            SQUARE_SYS, square_root_witness(), primes_in_range(2, 50), CAPS
        )
        assert report.bad_primes == ()
        assert report.all_passed()

    def test_empty_prime_list(self):
        report = sweep(SQUARE_SYS, square_root_witness(), [], CAPS)
        assert report.per_prime == () and report.bad_primes == ()
        assert report.uniform_d is None
        assert report.prime_range is None

    def test_char_zero_failure_refused(self):
        with pytest.raises(CharZeroFailure) as exc:
            sweep(SQUARE_SYS, square_root_witness(x1=T ** 3), [5, 7], CAPS)
        assert not exc.value.result.passed

    def test_prime_range_cap(self):
        with pytest.raises(ValueError, match="wider than"):
            primes_in_range(2, 3 + transfer.PRIME_RANGE_CAP)

    def test_rejects_composite_candidates(self):
        with pytest.raises(ValueError):
            sweep(SQUARE_SYS, square_root_witness(), [4], CAPS)

    @pytest.mark.parametrize("candidates", [
        [7, 9, 15], [15, 9, 7], [4], [0], [1], [-3, 5], [9, 9, 7, 7],
        [2, 4, 4], [1000001], [7, 1000001], [CAP + 3, 4],
    ])
    def test_refuses_the_smallest_non_prime_before_the_run_over_q(
        self, candidates
    ):
        # the sieve below the cap and Miller-Rabin above it name the same
        # number as testing each candidate with is_prime
        want = min(p for p in candidates if not polyarith.is_prime(p))
        with mock.patch.object(
            transfer, "verify_witness", wraps=transfer.verify_witness
        ) as spy:
            with pytest.raises(ValueError, match=f"^{want} is not prime$"):
                sweep(SQUARE_SYS, square_root_witness(), candidates, CAPS)
        assert spy.call_count == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.integers(-5, 60) | st.integers(CAP - 40, CAP + 40), max_size=8
    ))
    def test_refusal_matches_is_prime_one_by_one(self, candidates):
        # unsorted, with duplicates, 0, 1, negatives, composites and values
        # on both sides of the cap: the refusal names the first candidate
        # in ascending order that is_prime rejects, before the run over Q
        want = next(
            (p for p in sorted(set(candidates)) if not polyarith.is_prime(p)), None
        )
        with mock.patch.object(
            transfer, "verify_witness", wraps=transfer.verify_witness
        ) as spy:
            if want is None:
                sweep(SQUARE_SYS, square_root_witness(), candidates, CAPS)
            else:
                with pytest.raises(ValueError, match=f"^{want} is not prime$"):
                    sweep(SQUARE_SYS, square_root_witness(), candidates, CAPS)
        assert spy.call_count == (want is None)

    def test_a_sparse_list_up_to_the_cap_answers(self):
        report = sweep(SQUARE_SYS, square_root_witness(), [999983, 2], CAPS)
        assert [o.p for o in report.per_prime] == [2, 999983]
        assert report.all_passed()

    def test_candidates_are_tested_once_in_all(self):
        # one sieve lists and checks every prime; the one Miller-Rabin test
        # left is PrimeField's word-bound check on the largest good prime
        system, w = load_case(str(CASES / "hyperbola.json"))
        spy = mock.Mock(wraps=polyarith.is_prime)
        with mock.patch.object(transfer, "is_prime", spy), mock.patch.object(
            polyarith, "is_prime", spy
        ):
            report = sweep(system, w, primes_in_range(2, 20000), CAPS)
        assert len(report.per_prime) + len(report.bad_primes) == 2262
        assert spy.call_count <= 1

    def test_outcomes_are_immutable_and_compare_by_every_field(self):
        fields = (5, True, 2, None, False, ("equal", (True,), "passed", True))
        outcome = PrimeOutcome(*fields)
        assert outcome == PrimeOutcome(*fields)
        for k in range(len(fields)):
            changed = list(fields)
            changed[k] = "other"
            assert outcome != PrimeOutcome(*changed)
        with pytest.raises(AttributeError):
            outcome.passed = False

    def test_good_prime_past_the_word_bound_refused(self):
        with pytest.raises(ValueError, match="machine-word bound"):
            sweep(SQUARE_SYS, square_root_witness(), [5, 2**63 + 29], CAPS)

    def test_bad_prime_past_the_word_bound_recorded(self):
        # only a good prime must give a field F_p
        p = 2**63 + 29
        w = square_root_witness(x1=(T * T).scale(Fraction(1, p)))
        report = sweep(_system(f"{p}*X1 - Y1^2"), w, [5, p], CAPS)
        assert report.bad_primes == ((p, ("denominator",)),)
        assert [o.p for o in report.per_prime] == [5]

    def test_substitute_then_reduce_commutes(self):
        # homomorphism coherence on the flagship data
        w = sixth_scaled_witness()
        images = list(w.x_images) + list(w.y_images)
        value = substitute(SIXTH_SYS.equations[0], images)
        for p in (5, 7, 13):
            wp = reduce_witness_mod_p(w, p)
            images_p = list(wp.x_images) + list(wp.y_images)
            assert substitute(SIXTH_SYS.equations[0], images_p) == (
                reduce_coeffs_mod_p(value, wp.ring)
            )


RV = PolyRing(QQ, 2, GREVLEX, ("x", "y"))
XV, YV = RV.variable(0), RV.variable(1)
_REPORT = ComplexityReport(2, 1, 2, 1)
_VERIFIED = VerificationResult(
    RadicalResult("equal", ((XV, 1),), None, 16), (True,), ("0",), "passed",
    1, 1, None, _REPORT, True, (),
)

# (class, constructor keywords, [(keywords changed, whether still equal)]):
# every field is changed at least once.  names takes no part in == or hash.
VALUE_CASES = [
    (RationalField, {}, []),
    (PrimeField, {"p": 7}, [({"p": 11}, False)]),
    (MonomialOrder, {"kind": "grevlex"}, [({"kind": "lex"}, False)]),
    (
        PolyRing,
        {"field": QQ, "nvars": 2, "order": GREVLEX, "names": ("x", "y")},
        [({"field": PrimeField(7)}, False), ({"nvars": 3, "names": ()}, False),
         ({"order": LEX}, False), ({"names": ("u", "v")}, True)],
    ),
    (
        IdealPresentation,
        {"ring": RV, "generators": ()},
        [({"ring": PolyRing(QQ, 2, LEX)}, False), ({"generators": (XV,)}, False)],
    ),
    (
        GroebnerBasis,
        {"basis": (XV,), "pivots": (1,)},
        [({"basis": (YV,)}, False), ({"pivots": (2,)}, False)],
    ),
    (
        ComplexityReport,
        _REPORT._asdict(),
        [({"nvars": 3}, False), ({"max_degree": 2}, False),
         ({"complexity": 3}, False), ({"generator_count": 2}, False)],
    ),
    (
        HeightResult,
        {"dimension": 1, "height": 1},
        [({"dimension": 0}, False), ({"height": 2}, False)],
    ),
    (
        RadicalResult,
        {"status": "equal", "exponents": ((XV, 1),), "failed_generator": None,
         "cap": 16},
        [({"status": "not_contained_in_p"}, False), ({"exponents": ((XV, 2),)}, False),
         ({"failed_generator": YV}, False), ({"cap": 3}, False)],
    ),
    (
        ProbeResult,
        {"status": "not_prime", "trials": 3, "witness_f": XV, "witness_g": YV},
        [({"status": "probably_prime"}, False), ({"trials": 4}, False),
         ({"witness_f": YV}, False), ({"witness_g": XV}, False)],
    ),
    (
        IdealCode,
        {"nvars": 2, "complexity": 2, "order": GREVLEX, "field": QQ, "rows": ()},
        [({"nvars": 3}, False), ({"complexity": 3}, False), ({"order": LEX}, False),
         ({"field": PrimeField(7)}, False), ({"rows": ((1,),)}, False)],
    ),
    (
        DiophantineSystem,
        {"n": 1, "r": 1, "equations": ()},
        [({"n": 2}, False), ({"r": 2}, False),
         ({"equations": _system("X1 - Y1^2").equations}, False)],
    ),
    (
        Witness,
        {"ring": RV, "i_gens": (), "m_gens": (), "point_b": None, "x_images": (),
         "y_images": (), "claimed_n": 1, "domain_claim": False},
        [({"ring": PolyRing(QQ, 3)}, False), ({"i_gens": (XV,)}, False),
         ({"m_gens": (XV,)}, False), ({"point_b": (0, 0)}, False),
         ({"x_images": (XV,)}, False), ({"y_images": (XV,)}, False),
         ({"claimed_n": 2}, False), ({"domain_claim": True}, False)],
    ),
    (
        Caps,
        {"exponent_cap": 16, "probe_trials": 200, "probe_degree": 2, "seed": 0},
        [({"exponent_cap": 3}, False), ({"probe_trials": 5}, False),
         ({"probe_degree": 1}, False), ({"seed": 9}, False)],
    ),
    (
        VerificationResult,
        _VERIFIED._asdict(),
        [({"condition1": RadicalResult("not_contained_in_p", cap=16)}, False),
         ({"condition2": (False,)}, False), ({"condition2_residues": ("x",)}, False),
         ({"condition3": "failed"}, False), ({"height_computed": 2}, False),
         ({"claimed_n": 2}, False), ({"prime_probe": ProbeResult("x", 1)}, False),
         ({"complexity": ComplexityReport(3, 1, 3, 1)}, False),
         ({"passed": False}, False),
         ({"ideals": (IdealPresentation(RV, (XV,)),)}, False)],
    ),
    (
        SweepReport,
        {"prime_range": (2, 5), "bad_primes": (), "per_prime": (), "uniform_d": 2,
         "char0_d": 2, "char0_result": _VERIFIED},
        [({"prime_range": None}, False),
         ({"bad_primes": ((2, ("denominator",)),)}, False),
         ({"per_prime": (PrimeOutcome(3, True, 2, None, False, None),)}, False),
         ({"uniform_d": None}, False), ({"char0_d": 3}, False),
         ({"char0_result": _VERIFIED._replace(passed=False)}, False)],
    ),
]


class TestValues:
    """The value classes: immutable, compared and hashed by their fields."""

    @pytest.mark.parametrize(
        "cls, kwargs, changes", VALUE_CASES, ids=[c[0].__name__ for c in VALUE_CASES]
    )
    def test_immutable_and_compared_by_their_fields(self, cls, kwargs, changes):
        assert set(kwargs) <= {name for change, _ in changes for name in change}
        value = cls(**kwargs)
        assert value == cls(**kwargs) and not value != cls(**kwargs)
        assert hash(value) == hash(cls(**kwargs))
        assert value  # none is an empty, falsy tuple
        for change, still_equal in changes:
            other = cls(**{**kwargs, **change})
            if still_equal:
                assert value == other and not value != other, change
                assert hash(value) == hash(other), change
            else:
                assert value != other and not value == other, change
        for name in kwargs or ("zero",):  # RationalField: a read-only constant
            with pytest.raises(AttributeError):
                setattr(value, name, kwargs.get(name))

    @pytest.mark.parametrize(
        "build, exc, message",
        [
            (lambda: PrimeField(4), ValueError, "modulus 4 is not prime"),
            (lambda: PrimeField(True), TypeError, "modulus must be an int"),
            (lambda: PolyRing(QQ, 0), ValueError,
             "a polynomial ring needs at least one variable"),
            (lambda: MonomialOrder("foo"), ValueError, "unknown monomial order 'foo'"),
            (lambda: Caps(exponent_cap=0), ValueError,
             "exponent cap must be at least 1"),
        ],
        ids=["PrimeField(4)", "PrimeField(True)", "PolyRing(QQ, 0)",
             "MonomialOrder(foo)", "Caps(exponent_cap=0)"],
    )
    def test_validation_errors_keep_type_and_message(self, build, exc, message):
        with pytest.raises(exc) as info:
            build()
        assert (type(info.value), str(info.value)) == (exc, message)


class TestCorpusCoherence:
    """Reduction/verification coherence over the bundled case files."""

    @staticmethod
    def _rational_cases():
        import json
        from pathlib import Path

        from gbtransfer.cli import load_case

        cases_dir = Path(__file__).resolve().parent.parent / "cases"
        expected = json.loads((cases_dir / "expected.json").read_text())
        for name, expect in expected.items():
            if expect.get("rational") and expect.get("passes"):
                yield name, load_case(str(cases_dir / name))

    def test_substitution_commutes_with_reduction(self):
        for name, (system, w) in self._rational_cases():
            bad = set(bad_primes(w, SMALL_PRIMES))
            images = list(w.x_images) + list(w.y_images)
            values = [substitute(F, images) for F in system.equations]
            for p in (5, 7, 11):
                if p in bad:
                    continue
                wp = reduce_witness_mod_p(w, p)
                images_p = list(wp.x_images) + list(wp.y_images)
                for F, value in zip(system.equations, values):
                    assert substitute(F, images_p) == reduce_coeffs_mod_p(
                        value, wp.ring
                    ), f"{name} at p={p}"

    def test_condition2_survives_reduction(self):
        for name, (system, w) in self._rational_cases():
            bad = set(bad_primes(w, SMALL_PRIMES))
            assert verify_witness(system, w, CAPS).passed, name
            for p in (5, 7, 13):
                if p in bad:
                    continue
                res = verify_witness(system, reduce_witness_mod_p(w, p), CAPS)
                assert all(res.condition2), f"{name} at p={p}"

    def test_bad_primes_sound(self):
        for name, (system, w) in self._rational_cases():
            bad = bad_primes(w, SMALL_PRIMES)
            for p in bad:
                with pytest.raises((BadPrime, DegenerateGenerator)):
                    reduce_witness_mod_p(w, p)
            for p in SMALL_PRIMES:
                if p not in bad:
                    reduce_witness_mod_p(w, p)

    def test_three_bases_per_verification(self, monkeypatch):
        # one basis each for I, m and (x) + I, in char 0 and mod 7
        import gbtransfer.groebner as groebner

        calls = []
        real = groebner.buchberger

        def counting(pres, **caps):
            calls.append(pres)
            return real(pres, **caps)

        monkeypatch.setattr(groebner, "buchberger", counting)
        for name, (system, w) in self._rational_cases():
            for wit in (w, reduce_witness_mod_p(w, 7)):
                calls.clear()
                verify_witness(system, wit, CAPS)
                assert len(calls) == 3, name

    def test_i_inside_m_checked_once_per_verification(self, monkeypatch):
        import gbtransfer.predicates as predicates
        import gbtransfer.transfer as transfer

        calls = []
        real = transfer.ideal_contains

        def counting(I, J):
            calls.append((I, J))
            return real(I, J)

        monkeypatch.setattr(transfer, "ideal_contains", counting)
        monkeypatch.setattr(predicates, "ideal_contains", counting)
        for name, (system, w) in self._rational_cases():
            for wit in (w, reduce_witness_mod_p(w, 7)):
                calls.clear()
                verify_witness(system, wit, CAPS)
                assert calls.count((wit.ideal_i(), wit.ideal_m())) == 1, name


class TestSearchPoints:
    def test_roots_of_t2_plus_1_mod_5(self):
        r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
        pres = ideal(parse_polynomial("T^2 + 1", r5))
        assert search_witness_points(pres) == [(2,), (3,)]

    def test_no_roots_mod_7(self):
        r7 = PolyRing(PrimeField(7), 1, GREVLEX, ("T",))
        pres = ideal(parse_polynomial("T^2 + 1", r7))
        assert search_witness_points(pres) == []

    def test_zero_ideal_full_space(self):
        r3 = PolyRing(PrimeField(3), 1, GREVLEX, ("T",))
        pres = IdealPresentation(r3, (r3.zero(),))
        assert search_witness_points(pres) == [(0,), (1,), (2,)]

    def test_results_reverified_by_evaluation(self):
        r5 = PolyRing(PrimeField(5), 2, GREVLEX, ("T1", "T2"))
        pres = ideal(
            parse_polynomial("T1*T2 - 1", r5),
            parse_polynomial("T1 + T2 - 3", r5),
        )
        points = search_witness_points(pres)
        assert points
        for pt in points:
            for g in pres.generators:
                assert not g.evaluate(pt)

    def test_budget(self):
        r5 = PolyRing(PrimeField(5), 2, GREVLEX, ("T1", "T2"))
        pres = IdealPresentation(r5, (r5.zero(),))
        with mock.patch.object(transfer, "POINT_BUDGET", 3):
            with pytest.raises(BudgetExceeded):
                search_witness_points(pres)


class TestSystemValidation:
    def test_rejects_fractional_coefficients(self):
        sring = system_ring(1, 1)
        F = parse_polynomial("X1", sring).scale(Fraction(1, 2))
        with pytest.raises(ValueError):
            DiophantineSystem(1, 1, (F,))

    def test_rejects_wrong_arity(self):
        sring = system_ring(2, 1)
        with pytest.raises(Exception):
            DiophantineSystem(1, 1, (parse_polynomial("X1", sring),))

    def test_empty_equation_list_is_fine(self):
        sys0 = DiophantineSystem(1, 1, ())
        res = verify_witness(sys0, square_root_witness(), CAPS)
        assert res.passed and res.condition2 == ()
