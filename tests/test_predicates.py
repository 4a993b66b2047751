"""Complexity, dimension/height, radical equality, probe, maximality."""

import random
from fractions import Fraction
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gbtransfer import groebner, predicates
from gbtransfer.cli import load_case
from gbtransfer.groebner import DegreeCapExceeded, IdealPresentation, ideal_member
from gbtransfer.polyarith import (
    GREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    monomials_up_to,
    parse_polynomial,
)
from gbtransfer.predicates import (
    PROBE_TRIAL_CAP,
    RADICAL_EQUAL,
    RADICAL_NOT_CONTAINED,
    RADICAL_POWER_NOT_FOUND,
    UnitIdeal,
    complexity,
    dimension,
    height_poly,
    prime_probe,
    radical_equals,
    rational_maximal,
)

from corpus import MONOMIAL_IDEALS, NAMED_IDEALS, R1, R2, R3, P, mk
import oracles
from oracles import (
    dimension_oracle,
    reference_draw,
    reference_prime_probe,
    reference_rational_maximal,
)

CASES = Path(__file__).resolve().parent.parent / "cases"

RT = PolyRing(QQ, 1, GREVLEX, ("T",))
RT2 = PolyRing(QQ, 2, GREVLEX, ("T1", "T2"))


class TestComplexity:
    def test_degree_dominates(self):
        rep = complexity(mk(R2, "x^3 + y"))
        assert (rep.nvars, rep.max_degree, rep.complexity) == (2, 3, 3)

    def test_single_variable(self):
        rep = complexity(mk(R1, "x"))
        assert rep.complexity == 1

    def test_variable_count_dominates(self):
        rep = complexity(mk(R2, "x - y", "2*y"))
        assert rep.complexity == 2
        assert rep.generator_count == 2

    def test_zero_ideal(self):
        rep = complexity(IdealPresentation(R2, (R2.zero(),)))
        assert rep.complexity == 2
        assert rep.max_degree == 0

    def test_definition_constraints(self):
        for pres in (mk(R2, "x^2 - y"), mk(R3, "x*y*z - 1", "x + y")):
            rep = complexity(pres)
            assert rep.complexity >= rep.nvars
            assert all(
                int(g.degree()) <= rep.complexity
                for g in pres.generators
                if g
            )


class TestDimension:
    def test_full_ring(self):
        assert dimension(IdealPresentation(R2, (R2.zero(),))) == 2

    def test_hypersurface(self):
        assert dimension(mk(R2, "x")) == 1

    def test_union_of_axes(self):
        assert dimension(mk(R2, "x*y")) == 1

    def test_unit_ideal_signaled(self):
        with pytest.raises(UnitIdeal):
            dimension(mk(R2, "x", "x - 1"))

    def test_matches_subset_oracle(self):
        for pres in (mk(R2, "x*y"), mk(R3, "x*y", "x*z"), mk(R3, "x*y*z")):
            assert dimension(pres) == dimension_oracle(pres)

    def test_subset_budget(self):
        # dimension 0: the search tests all 8 subsets of {x, y, z}
        pres = mk(R3, "x", "y", "z")
        with mock.patch.object(predicates, "SUBSET_BUDGET", 8):
            assert dimension(pres) == 0
        with mock.patch.object(predicates, "SUBSET_BUDGET", 7):
            with pytest.raises(DegreeCapExceeded, match="7 variable subsets"):
                dimension(pres)
            # an answer found early stays within a small budget
            assert dimension(mk(R3, "x*y*z")) == 2

    def test_many_variables_answer_early(self):
        ring = PolyRing(QQ, 40, GREVLEX)
        f = ring.one()
        for i in range(40):
            f = f * ring.variable(i)
        assert dimension(IdealPresentation(ring, (f,))) == 39


class TestHeight:
    def test_maximal_ideal(self):
        assert height_poly(mk(R2, "x", "y")).height == 2

    def test_principal_prime(self):
        assert height_poly(mk(R2, "x")).height == 1

    def test_non_equidimensional(self):
        res = height_poly(mk(R3, "x*y", "x*z"))
        assert (res.dimension, res.height) == (2, 1)

    def test_height_plus_dimension(self):
        for pres in (mk(R2, "x^2 - y"), mk(R3, "x + y", "z^2"), mk(R2, "x*y - 1")):
            res = height_poly(pres)
            assert res.height + res.dimension == pres.ring.nvars


class TestHeightInQuotient:
    # verify_witness reads the height of m in ring/I as ht(m) - ht(I)
    def test_polynomial_line(self):
        m = mk(RT, "T")
        zero = IdealPresentation(RT, (RT.zero(),))
        assert height_poly(m).height - height_poly(zero).height == 1

    def test_hyperbola_point(self):
        m = mk(RT2, "T1 - 1", "T2 - 1")
        I = mk(RT2, "T1*T2 - 1")
        assert height_poly(m).height - height_poly(I).height == 1

    def test_plane_in_quotient(self):
        m, I = mk(R2, "x", "y"), mk(R2, "x")
        assert height_poly(m).height - height_poly(I).height == 1


class TestRadicalEquals:
    def test_fat_point(self):
        res = radical_equals(mk(R2, "x^2", "y"), mk(R2, "x", "y"), 4)
        assert res.equal
        exps = {str(g): e for g, e in res.exponents}
        assert exps == {"x": 2, "y": 1}

    def test_power_not_found(self):
        res = radical_equals(mk(R2, "x"), mk(R2, "x", "y"), 8)
        assert res.status == RADICAL_POWER_NOT_FOUND
        assert str(res.failed_generator) == "y"
        assert res.cap == 8

    def test_scaled_generator(self):
        I = IdealPresentation(RT, (P("T^2", RT).scale(Fraction(1, 6)),))
        res = radical_equals(I, mk(RT, "T"), 4)
        assert res.equal
        assert res.exponents[0][1] == 2

    def test_not_contained_outcome(self):
        res = radical_equals(mk(R2, "x"), mk(R2, "y"), 4)
        assert res.status == RADICAL_NOT_CONTAINED

    def test_exponents_reverify(self):
        I, p_ = mk(R2, "x^2", "y"), mk(R2, "x", "y")
        res = radical_equals(I, p_, 4)
        for g, e in res.exponents:
            assert ideal_member(g ** e, I)

    def test_monotone_in_cap(self):
        I, p_ = mk(R2, "x^2", "y"), mk(R2, "x", "y")
        seen_equal = False
        for cap in (1, 2, 4, 8):
            res = radical_equals(I, p_, cap)
            if seen_equal:
                assert res.equal
            seen_equal = seen_equal or res.equal
        assert seen_equal


class TestPrimeProbe:
    def test_cross_is_not_prime(self):
        res = prime_probe(mk(R2, "x*y"), 2, 200, seed=7)
        assert res.status == "not_prime"
        p_ = mk(R2, "x*y")
        assert not ideal_member(res.witness_f, p_)
        assert not ideal_member(res.witness_g, p_)
        assert ideal_member(res.witness_f * res.witness_g, p_)

    def test_fat_point_is_not_prime(self):
        res = prime_probe(mk(R2, "x^2", "y"), 2, 200, seed=7)
        assert res.status == "not_prime"

    def test_axis_probably_prime(self):
        res = prime_probe(mk(R2, "x"), 2, 200, seed=7)
        assert res.status == "probably_prime"
        assert res.trials == 200

    def test_deterministic_per_seed(self):
        a = prime_probe(mk(R2, "x*y"), 2, 200, seed=3)
        b = prime_probe(mk(R2, "x*y"), 2, 200, seed=3)
        assert (a.witness_f, a.witness_g) == (b.witness_f, b.witness_g)

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdeal):
            prime_probe(mk(R2, "x", "x - 1"), 2, 10, seed=0)

    @pytest.mark.parametrize("fld, coeffs", [
        (PrimeField(2), (1,)), (PrimeField(3), (1, 2)), (QQ, (1, -1, 2, -2)),
    ])
    def test_sample_coefficients_are_the_distinct_nonzero_values(self, fld, coeffs):
        assert predicates._sample_coefficients(fld) == coeffs

    def test_probe_reads_rows_and_divides_no_trial(self, monkeypatch):
        # I = (T1*T2 - 1): every draw has degree <= 2, every product <= 4,
        # so at most C(2 + 4, 2) = 15 monomials ever need a row.
        _, w = load_case(str(CASES / "hyperbola.json"))
        I = w.ideal_i()
        I.basis
        draws, rows, trials, asked = [], [], [], []
        real_draw, real_add = predicates._draw, predicates._Rows._add

        def draw(*args):
            draws.append(real_draw(*args))
            return draws[-1]

        def row(self, m):
            rows.append(self.pk.unpack([(m, 1)])[0][0])
            return real_add(self, m)

        def whole(f, divisors):
            trials.append(f)
            return groebner.normal_form(f, divisors)

        monkeypatch.setattr(predicates, "_draw", draw)
        monkeypatch.setattr(predicates._Rows, "_add", row)
        monkeypatch.setattr(predicates, "normal_form", whole)
        monkeypatch.setattr(predicates._Rows, "zero", _checked_zero(asked))
        res = prime_probe(I, 2, 200, seed=0)
        assert res.probably_prime and len(draws) == 2 * 200
        # every trial asks the rows about its f; a repeated f divides no
        # new row
        assert set(draws[::2]) <= set(asked)
        assert len(set(draws[::2])) < 200
        assert all(sum(m) <= 4 for m in rows)
        assert len(rows) == len(set(rows)) <= 15
        assert trials == []

    @given(
        st.integers(1, 33), st.integers(1, 33), st.integers(0, 2**64),
        st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    @example(1, 1, 0, 8)
    @example(2, 3, 1, 8)
    @example(4, 2, 2, 8)
    @example(8, 4, 3, 8)
    @example(16, 1, 4, 8)
    @example(32, 2, 5, 8)
    @example(33, 3, 6, 8)
    def test_draw_picks_as_choice(self, nm, nc, seed, count):
        # coefficients 1, -1, 2, -2, ...: two picks of a monomial can cancel
        monos = tuple((i,) for i in range(nm))
        coeffs = tuple((i // 2 + 1) * (-1) ** i for i in range(nc))
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(count):
            got = predicates._draw(ours.getrandbits, monos, coeffs)
            assert got == reference_draw(ref, monos, coeffs)
        assert ours.getstate() == ref.getstate()


# One sample coefficient over F_2 and two over F_3: a pick from each
# rejects on its own path.
FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003))


@st.composite
def probe_problems(draw):
    """A small ideal, probe arguments and kernel caps to run them under."""
    fld = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    n = draw(st.integers(1, 3))
    ring = PolyRing(fld, n, order)
    term = st.tuples(
        st.integers(-3, 3).filter(bool), st.tuples(*[st.integers(0, 2)] * n)
    )
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=3), max_size=3))
    pres = IdealPresentation(ring, tuple(ring.from_terms(g) for g in gens))
    args = (
        draw(st.integers(1, 3)),  # degree bound
        draw(st.integers(1, 60)),  # trials
        draw(st.integers(0, 5)),  # seed
    )
    caps = {
        "STEP_CAP": draw(st.sampled_from((groebner.STEP_CAP, 1, 2, 3, 5, 8))),
        "COEFF_BIT_CAP": draw(
            st.sampled_from((groebner.COEFF_BIT_CAP, 3, 4, 5, 6, 8))
        ),
        "DEGREE_CAP": draw(st.sampled_from((groebner.DEGREE_CAP, 2, 3, 4))),
    }
    return pres, args, caps


def _probe_outcome(probe, pres, args):
    """A probe's result and as_dict, or the error it raised."""
    try:
        res = probe(pres, *args)
    except (DegreeCapExceeded, UnitIdeal) as exc:
        return type(exc), str(exc)
    return res, res.as_dict()


def _checked_zero(asked):
    """_Rows.zero, checked: every answer it gives, on a draw or a product,
    must be a bool, whether normal_form, within every cap, reduces the same
    terms, unpacked, to zero; the packed terms of each call are appended to
    asked as a tuple."""
    real = predicates._Rows.zero

    def zero(rows, terms):
        asked.append(tuple(terms))
        z = real(rows, terms)
        f = predicates._polynomial(rows.ring, rows.pk.unpack(terms))
        try:
            nf = groebner.normal_form(f, rows.basis)
        except DegreeCapExceeded as exc:
            raise AssertionError(f"rows answered past a cap: {exc}")
        assert z is (not nf), terms
        return z

    return zero


def _problem(text_gens, args=(2, 60, 0), ring=None, **caps):
    """A probe of an ideal of ring, by default Q[x, y], under the given
    caps and the default ones for the rest."""
    ring = ring or PolyRing(QQ, 2, GREVLEX, ("x", "y"))
    gens = tuple(parse_polynomial(g, ring) for g in text_gens)
    defaults = {
        name: getattr(groebner, name)
        for name in ("STEP_CAP", "COEFF_BIT_CAP", "DEGREE_CAP")
    }
    return IdealPresentation(ring, gens), args, {**defaults, **caps}


class TestProbeMatchesReference:
    """prime_probe against the loop that divides every trial in full."""

    @given(probe_problems())
    @settings(max_examples=200, deadline=None)
    # NF(x) = y/2 and NF(x^2) = y^2/4: a product's new row raises the
    # shared denominator from 2 to 4, and zero() reads the product again.
    @example(_problem(["2*x - y"], args=(1, 60, 0)))
    # Two rows of 2 steps each; a two-term draw takes up to 4 steps.
    @example(_problem(["x^2 - y", "y^2 - x"], STEP_CAP=3))
    # No row factor has more than 3 bits, but dividing the draw
    # 3*x*y + 6*y meets the factor 15/2 (6 bits).
    @example(_problem(["2*x - 1", "3*y - 1"], args=(1, 60, 0), COEFF_BIT_CAP=4))
    # Dividing y^4 pushes x*y^2, past DEGREE_CAP 2: a product with a y^4
    # term is divided in full and raises.
    @example(_problem(["x - y^2"], DEGREE_CAP=2))
    # One variable at degree bound 3 draws from 4 monomials, a power of
    # two: a pick takes 3 bits and rejects half of its values.
    @example(_problem(["x^2 - 2"], args=(3, 60, 1), ring=R1))
    @example(_problem(["x^2 + 1"], args=(3, 60, 2), ring=PolyRing(
        PrimeField(2), 1, GREVLEX, ("x",))))
    # Under lex the tail y^3 outweighs the lead x: the rows of x^k are
    # y^(3k), of higher degree than any product of two draws, and the
    # basis packs at its own degree, not its lead's.
    @example(_problem(["x - y^3"], ring=PolyRing(QQ, 2, LEX, ("x", "y"))))
    # The row of x (x -> y/2, factor 1) has 2 bits, so the one-term draw
    # -2*x is bounded by 2*2 + 2 = 6 bits, past COEFF_BIT_CAP 5, and
    # normal_form divides it: its one factor, -2, has 3 bits.
    @example(_problem(["2*x - y"], args=(1, 60, 0), COEFF_BIT_CAP=5))
    def test_same_verdict_and_errors(self, problem):
        pres, args, caps = problem
        try:
            pres.basis  # computed under the default caps
        except DegreeCapExceeded:
            return
        with mock.patch.multiple(groebner, **caps), mock.patch.object(
            predicates._Rows, "zero", _checked_zero([])
        ):
            ours = _probe_outcome(prime_probe, pres, args)
            assert ours == _probe_outcome(reference_prime_probe, pres, args)

    # Both raise after repeated draws: at trial 24 after 5 repeated f, and
    # at trial 14 after 5.
    @pytest.mark.parametrize("problem", [
        _problem(["x^2 - y", "y^2 - x"], args=(2, 200, 5), STEP_CAP=3),
        _problem(["2*x - 1", "3*y - 1"], args=(1, 200, 15), COEFF_BIT_CAP=4),
    ])
    def test_cap_raises_at_the_reference_trial(self, problem, monkeypatch):
        pres, args, caps = problem
        ours, theirs = [], []
        real_draw, real_poly = predicates._draw, oracles._random_bounded_poly

        def draw(*a):
            ours.append(real_draw(*a))
            return ours[-1]

        def poly(*a):
            theirs.append(real_poly(*a))
            return theirs[-1]

        monkeypatch.setattr(predicates, "_draw", draw)
        monkeypatch.setattr(oracles, "_random_bounded_poly", poly)
        with mock.patch.multiple(groebner, **caps):
            got = _probe_outcome(prime_probe, pres, args)
            want = _probe_outcome(reference_prime_probe, pres, args)
        assert got[0] is DegreeCapExceeded and got == want
        assert len(ours) == len(theirs) < 2 * args[1]
        assert len(set(ours[::2])) <= len(ours) // 2 - 5


class TestRowsZero:
    """_Rows.zero answers every call with a bool, from normal_form where
    the rows cannot bound the division."""

    X2, XY, Y = (2, 0), (1, 1), (0, 1)

    # Under STEP_CAP 1 the row of x^2 (x^2 -> x*y -> y^2) passes the cap,
    # yet x^2 - x*y divides in one step.  Under STEP_CAP 2 every row
    # divides, but the rows of x^2 and x*y take 3 steps in all.
    @pytest.mark.parametrize("step_cap, capped", [(1, True), (2, False)])
    @pytest.mark.parametrize("terms", [
        ((X2, 1), (XY, -1)),
        ((X2, 1), (XY, -1), (Y, 1)),
    ])
    def test_answers_past_the_rows_bounds(self, step_cap, capped, terms):
        basis = mk(R2, "x - y").basis
        rows = predicates._Rows(R2, basis, 2)
        packed = tuple((_pack(rows, m), c) for m, c in terms)
        with mock.patch.object(groebner, "STEP_CAP", step_cap):
            z = rows.zero(packed)
            nf = groebner.normal_form(predicates._polynomial(R2, terms), basis)
        assert z is (not nf)
        assert (rows.rows[_pack(rows, self.X2)] is None) is capped
        if not capped:
            assert sum(rows.rows[m][1] for m, _ in packed[:2]) > step_cap

    # The row of x (x -> y/2, factor 1) has 2 bits, so the one term -2*x
    # is bounded by 2*2 + 2 = 6 bits: under COEFF_BIT_CAP 5 normal_form
    # divides it, under 6 the row answers.
    @pytest.mark.parametrize("bit_cap, divided", [(5, True), (6, False)])
    def test_one_term_reads_the_same_bounds(self, bit_cap, divided, monkeypatch):
        basis = mk(R2, "2*x - y").basis
        rows, whole = predicates._Rows(R2, basis, 2), []

        def normal_form(f, divisors):
            whole.append(f)
            return groebner.normal_form(f, divisors)

        monkeypatch.setattr(predicates, "normal_form", normal_form)
        with mock.patch.object(groebner, "COEFF_BIT_CAP", bit_cap):
            assert rows.zero(((_pack(rows, (1, 0)), -2),)) is False
        assert whole == ([P("-2*x")] if divided else [])


def _pack(rows, m):
    """Exponent vector m as the packed int the rows key it by."""
    return sum(e * k for e, k in zip(m, rows.pk.mults))


class _Drawn(Exception):
    """Stops a probe at its first draw."""


@st.composite
def packing_problems(draw):
    """A probe's ring of 1, 7 or 1024 variables and its degree bound; in
    one variable up to 100, so that products of two draws (degree up to
    200) pack wider than DEGREE_CAP's fields."""
    n = draw(st.sampled_from((1, 7, 1024)))
    fld, order = draw(st.sampled_from(FIELDS)), draw(st.sampled_from((GREVLEX, LEX)))
    return PolyRing(fld, n, order), draw(st.integers(1, {1: 100, 7: 3, 1024: 1}[n]))


class TestProbePacking:
    """prime_probe packs its monomials from their nonzero exponents only:
    each must equal the dense sum _packed takes over every exponent, and
    unpack to its monomial."""

    @given(packing_problems())
    @settings(max_examples=10, deadline=None)
    @example((PolyRing(QQ, 1, LEX), 100))
    @example((PolyRing(PrimeField(7), 7, GREVLEX), 3))
    @example((PolyRing(QQ, 1024, GREVLEX), 1))
    def test_sparse_equals_dense(self, problem):
        ring, bound = problem
        x = ring.variable
        pres = IdealPresentation(ring, (x(0) * x(ring.nvars - 1) - ring.one(),))
        drawn = []

        def first_draw(bits, monos, coeffs):
            drawn.append(monos)
            raise _Drawn

        with mock.patch.object(predicates, "_draw", first_draw), pytest.raises(_Drawn):
            prime_probe(pres, bound, 1, 0)
        pk = predicates._Rows(ring, pres.basis, 2 * bound).pk
        monos = monomials_up_to(ring.nvars, bound)
        assert drawn[0] == [sum(map(mul, m, pk.mults)) for m in monos]
        assert [m for m, _ in pk.unpack((t, 1) for t in drawn[0])] == list(monos)
        if bound == 100:  # repacked: wider than the fields DEGREE_CAP sets
            assert pk.w > groebner._packed(ring, ())[0].w


def _no_draws(*args):
    raise AssertionError("the zero ideal drew")


class TestZeroIdealProbe:
    """The zero ideal is answered without drawing, after every refusal."""

    @given(
        st.sampled_from(FIELDS),
        st.sampled_from((GREVLEX, LEX)),
        st.integers(1, 4),  # variables
        st.integers(1, 4),  # degree bound
        st.one_of(st.integers(1, 60), st.integers(1, PROBE_TRIAL_CAP)),
        st.integers(0, 2**32),  # seed
    )
    @settings(max_examples=40, deadline=None)
    @example(QQ, GREVLEX, 4, 4, PROBE_TRIAL_CAP, 0)
    @example(PrimeField(2), LEX, 1, 1, 1, 1)
    def test_same_result_as_the_trial_loop(self, fld, order, n, degree, trials, seed):
        pres = IdealPresentation(PolyRing(fld, n, order), ())
        assert pres.is_zero_ideal()
        args = (degree, trials, seed)
        with mock.patch.object(predicates, "_draw", _no_draws), mock.patch.object(
            predicates._Rows, "zero", _no_draws
        ):
            ours = _probe_outcome(prime_probe, pres, args)
        assert ours == _probe_outcome(reference_prime_probe, pres, args)
        assert ours[1] == {
            "status": "probably_prime", "trials": trials, "f": None, "g": None,
        }

    # Each refusal keeps its message: the zero ideal is answered only once
    # all of them have passed.
    @pytest.mark.parametrize("n, degree, trials, message", [
        (2, 0, 10, "degree bound and trial count must be positive"),
        (2, 2, 0, "degree bound and trial count must be positive"),
        (2, 0, PROBE_TRIAL_CAP + 1, "degree bound and trial count must be positive"),
        (2, 2, PROBE_TRIAL_CAP + 1, f"over {PROBE_TRIAL_CAP} probe trials"),
        (8, 12, PROBE_TRIAL_CAP + 1, f"over {PROBE_TRIAL_CAP} probe trials"),
        (8, 12, 10, "over 10000 monomials of degree <= 12"),
    ])
    def test_refusals_come_first(self, n, degree, trials, message):
        pres = IdealPresentation(PolyRing(QQ, n, GREVLEX), ())
        with pytest.raises(ValueError) as exc:
            prime_probe(pres, degree, trials, 0)
        assert str(exc.value) == message


class TestRationalMaximal:
    def test_syntactic_match(self):
        assert rational_maximal(mk(R2, "x - 1", "y - 2"), (1, 2))

    def test_irrational_point_not_certified(self):
        m = mk(R1, "x^2 + 1")
        for b in (0, 1, -1, Fraction(1, 2)):
            assert not rational_maximal(m, (b,))

    def test_mod_five_root(self):
        r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("x",))
        m = IdealPresentation(r5, (parse_polynomial("x - 2", r5),))
        assert ideal_member(parse_polynomial("x^2 + 1", r5), m)
        assert rational_maximal(m, (2,))

    def test_true_implies_vanishing_and_full_height(self):
        m = mk(R2, "x - 1", "y - 2")
        assert rational_maximal(m, (1, 2))
        for g in m.generators:
            assert not g.evaluate((1, 2))
        assert height_poly(m).height == 2


@st.composite
def maximal_problems(draw):
    """A corpus ideal, possibly plus the ideal of a point, and a small
    rational point, so that m = (T - b), the unit ideal and neither occur."""
    _, I = draw(st.sampled_from(NAMED_IDEALS + MONOMIAL_IDEALS))
    ring = I.ring
    coords = st.lists(
        st.sampled_from((-2, -1, 0, 1, 2, Fraction(1, 2))),
        min_size=ring.nvars,
        max_size=ring.nvars,
    ).map(tuple)
    point = draw(coords)
    gens = I.generators
    shift = draw(st.sampled_from((None, point, draw(coords))))
    if shift is not None:
        gens += tuple(
            ring.variable(i) - ring.constant(c) for i, c in enumerate(shift)
        )
    return IdealPresentation(ring, gens), point


class TestRationalMaximalMatchesReference:
    @given(maximal_problems())
    @settings(max_examples=150, deadline=None)
    @example((mk(R2, "x - 1", "y - 2"), (1, 2)))
    @example((mk(R2, "x", "x - 1"), (0, 0)))
    @example((mk(R2, "x^2", "y"), (0, 0)))
    def test_same_verdict(self, problem):
        m, point = problem
        assert rational_maximal(m, point) == reference_rational_maximal(m, point)

    def test_answers_without_evaluating(self):
        # 3^100000000 is never formed: the answer comes from m's basis
        with mock.patch.object(
            Polynomial, "evaluate", side_effect=AssertionError("evaluated")
        ):
            assert not rational_maximal(mk(R1, "x^100000000 - 1"), (3,))
            assert rational_maximal(mk(R1, "x^2 - 9", "x - 3"), (3,))
