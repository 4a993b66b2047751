"""Normal forms, Buchberger, and the ideal comparison procedures."""

import hashlib
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

from gbtransfer import groebner
from gbtransfer.groebner import (
    DegreeCapExceeded,
    IdealPresentation,
    buchberger,
    ideal,
    ideal_contains,
    ideal_equal,
    ideal_member,
    normal_form,
    s_polynomial,
)
from gbtransfer.polyarith import (
    AmbientMismatch,
    GREVLEX,
    LEX,
    Polynomial,
    PolyRing,
    PrimeField,
    QQ,
    parse_polynomial,
    reduce_coeffs_mod_p,
)

from corpus import NAMED_IDEALS, R1, R2, R3, P, mk
from oracles import mono_divides

RT2 = PolyRing(QQ, 2, GREVLEX, ("T1", "T2"))


def kernel_ideal(name):
    """cyclic-n in x0.. or katsura-n in u0.. over Q under grevlex, with the
    variables and generators in the order perfbench/gen.py writes them."""
    n = int(name[-1])
    if name.startswith("cyclic"):
        xs = [f"x{i}" for i in range(n)]
        gens = [
            " + ".join("*".join(xs[(i + k) % n] for k in range(d)) for i in range(n))
            for d in range(1, n)
        ] + ["*".join(xs) + " - 1"]
    else:
        xs = [f"u{i}" for i in range(n + 1)]
        gens = [" + ".join([xs[0]] + [f"2*{x}" for x in xs[1:]]) + " - 1"] + [
            " + ".join(
                f"{xs[abs(l - i)]}*{xs[abs(i)]}"
                for i in range(-n, n + 1) if abs(l - i) <= n
            ) + f" - {xs[l]}"
            for l in range(n)
        ]
    return mk(PolyRing(QQ, len(xs), GREVLEX, tuple(xs)), *gens)

# Leading monomials of the pairs that reach the S-polynomial, in the order the
# sugar queue pops them (sugar, lcm degree, then the smaller lcm).
S_PAIRS = {
    ("cyclic4", "grevlex"): [
        ((1, 0, 0, 0), (1, 1, 0, 0)), ((1, 0, 0, 0), (1, 1, 1, 0)),
        ((1, 0, 0, 0), (1, 1, 1, 1)), ((0, 2, 0, 0), (0, 1, 2, 0)),
        ((0, 1, 2, 0), (0, 1, 1, 2)), ((0, 2, 0, 0), (0, 1, 1, 2)),
        ((0, 1, 1, 2), (0, 1, 0, 4)), ((0, 2, 0, 0), (0, 1, 0, 4)),
        ((0, 1, 2, 0), (0, 0, 3, 2)), ((0, 0, 3, 2), (0, 0, 2, 4)),
        ((0, 1, 2, 0), (0, 0, 2, 4)),
    ],
    ("cyclic4", "lex"): [
        ((1, 0, 0, 0), (1, 1, 0, 0)), ((1, 0, 0, 0), (1, 1, 1, 0)),
        ((0, 2, 0, 0), (0, 1, 2, 0)), ((1, 0, 0, 0), (1, 1, 1, 1)),
        ((0, 1, 2, 0), (0, 1, 1, 2)), ((0, 2, 0, 0), (0, 1, 1, 2)),
        ((0, 1, 1, 2), (0, 1, 0, 4)), ((0, 1, 2, 0), (0, 0, 3, 2)),
        ((0, 2, 0, 0), (0, 1, 0, 4)), ((0, 1, 2, 0), (0, 1, 1, 0)),
        ((0, 2, 0, 0), (0, 1, 1, 0)), ((0, 1, 1, 2), (0, 1, 1, 0)),
        ((0, 0, 3, 2), (0, 0, 2, 6)), ((0, 1, 0, 4), (0, 0, 2, 6)),
    ],
    ("katsura3", "grevlex"): [
        ((1, 0, 0, 0), (1, 1, 0, 0)), ((1, 0, 0, 0), (2, 0, 0, 0)),
        ((0, 1, 1, 0), (0, 0, 2, 0)), ((0, 2, 0, 0), (0, 1, 1, 0)),
        ((0, 0, 2, 0), (0, 0, 1, 2)), ((0, 1, 1, 0), (0, 1, 0, 2)),
        ((0, 1, 1, 0), (0, 0, 1, 2)), ((0, 2, 0, 0), (0, 1, 0, 2)),
        ((0, 0, 1, 2), (0, 0, 0, 4)), ((0, 1, 0, 2), (0, 0, 0, 4)),
    ],
    ("katsura3", "lex"): [
        ((1, 0, 0, 0), (1, 0, 1, 0)), ((1, 0, 0, 0), (1, 1, 0, 0)),
        ((1, 0, 0, 0), (2, 0, 0, 0)), ((0, 1, 1, 0), (0, 1, 0, 1)),
        ((0, 2, 0, 0), (0, 1, 0, 1)), ((0, 1, 0, 1), (0, 1, 0, 0)),
        ((0, 1, 1, 0), (0, 1, 0, 0)), ((0, 2, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 2, 1), (0, 0, 2, 0)), ((0, 0, 3, 0), (0, 0, 2, 0)),
        ((0, 0, 2, 2), (0, 0, 2, 1)), ((0, 0, 1, 3), (0, 0, 1, 2)),
        ((0, 0, 1, 4), (0, 0, 1, 3)), ((0, 0, 1, 2), (0, 0, 1, 1)),
        ((0, 0, 1, 1), (0, 0, 1, 0)), ((0, 0, 2, 0), (0, 0, 1, 0)),
    ],
}


class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        assert not normal_form(P("x"), [P("x")])

    def test_no_leading_term_divides(self):
        assert normal_form(P("y"), [P("x")]) == P("y")

    def test_single_division_step(self):
        assert normal_form(P("x^2*y"), [P("x^2 - y")]) == P("y^2")

    def test_idempotent(self):
        G = [P("x^2 - y"), P("x*y - 1")]
        f = P("x^3*y^2 + 2*x - y + 5")
        r = normal_form(f, G)
        assert normal_form(r, G) == r

    def test_divisor_sequence_determinism(self):
        f = P("x^2")
        assert normal_form(f, [P("x^2 - y"), P("x")]) == P("y")
        assert not normal_form(f, [P("x"), P("x^2 - y")])

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            normal_form(P("x"), [R3.variable(0)])


class TestBuchberger:
    def test_parabola_axis(self):
        basis = buchberger(mk(R2, "x^2 - y", "x")).basis
        assert basis == (P("x"), P("y"))

    def test_zero_ideal_empty_basis(self):
        pres = IdealPresentation(R2, (R2.zero(),))
        assert buchberger(pres).basis == ()
        assert pres.is_zero_ideal()

    def test_single_generator_already_reduced(self):
        assert buchberger(mk(R1, "x - 1")).basis == (P("x - 1", R1),)

    def test_basis_is_monic_and_reduced(self):
        basis = buchberger(mk(R3, "x + y + z", "x*y + y*z + z*x", "x*y*z - 1")).basis
        leads = [g.leading_monomial() for g in basis]
        for i, g in enumerate(basis):
            assert g.leading_coeff() == QQ.one
            for m, _ in g.terms:
                assert not any(
                    mono_divides(leads[j], m) for j in range(len(basis)) if j != i
                )

    def test_s_polynomials_reduce_to_zero(self):
        basis = buchberger(mk(R2, "x^2 - y", "y^2 - x")).basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert not normal_form(s_polynomial(basis[i], basis[j]), basis)

    def test_uniqueness_under_row_operations(self):
        f, g = P("x^2 - y"), P("x*y - 1")
        a = ideal(f, g)
        b = ideal(f + g, g)
        c = ideal(f.scale(3), g - f)
        assert buchberger(a).basis == buchberger(b).basis == buchberger(c).basis

    def test_pair_cap_raises(self):
        # the pair loop runs under WORK_CAP, which retired the cap on pairs
        pres = mk(R3, "x + y + z", "x*y + y*z + z*x", "x*y*z - 1")
        with mock.patch.object(groebner, "WORK_CAP", 1):
            with pytest.raises(DegreeCapExceeded, match="passed 1 tail terms and pair tests"):
                buchberger(pres)

    # each id names the pair loop's work; the final inter-reduction's ops
    # come on top of it
    @pytest.mark.parametrize("name, p, pair_work, work", [
        pytest.param(name, p, pair_work, work, id=f"{name}-{p}-{pair_work}")
        for name, p, pair_work, work in [
            ("cyclic5", None, 25145, 25322), ("cyclic5", 32003, 25145, 25322),
            ("katsura5", None, 152189, 152506), ("katsura5", 32003, 63599, 63916),
        ]
    ])
    def test_work_cap_boundary(self, name, p, pair_work, work):
        # the work a run charges is exact and machine-independent: it
        # answers at WORK_CAP equal to its count and is refused one below,
        # over Q and F_p alike; the final inter-reduction (the _reduce calls
        # by the kept rows, the last call's table) charges what the run
        # charges beyond the pair loop
        pres = _mod_p(kernel_ideal(name), p) if p else kernel_ideal(name)
        calls, reduce = [], groebner._reduce

        def spy(pk, work, d, table, fld, memo):
            out = reduce(pk, work, d, table, fld, memo)
            calls.append((table, out[3]))
            return out

        with mock.patch.object(groebner, "_reduce", spy):
            gb = buchberger(pres)
        assert gb.work == work
        assert sum(ops for table, ops in calls if table is calls[-1][0]) == work - pair_work
        with mock.patch.object(groebner, "WORK_CAP", work):
            assert buchberger(pres) == gb
        with mock.patch.object(groebner, "WORK_CAP", work - 1):
            with pytest.raises(DegreeCapExceeded, match=f"passed {work - 1} tail terms"):
                buchberger(pres)

    def test_pair_cap_refuses_before_any_s_polynomial(self):
        # the three generators' pair updates alone charge 5: one lcm for
        # the second row; two lcms, one test of the queued pair and one of
        # the two new pairs with the lcm x*y*z for the third.  A budget of 4
        # is passed before any S-polynomial, one of 5 only after the first
        pres = mk(R3, "x + y + z", "x*y + y*z + z*x", "x*y*z - 1")
        calls, spoly = [], groebner._spoly

        def spy(*args):
            calls.append(args)
            return spoly(*args)

        with mock.patch.object(groebner, "_spoly", spy):
            with mock.patch.object(groebner, "WORK_CAP", 4):
                with pytest.raises(DegreeCapExceeded, match="passed 4 tail terms"):
                    buchberger(pres)
            assert calls == []
            with mock.patch.object(groebner, "WORK_CAP", 5):
                with pytest.raises(DegreeCapExceeded, match="passed 5 tail terms"):
                    buchberger(pres)
            assert len(calls) == 1
            buchberger(pres)
        assert len(calls) > 1

    def test_degree_cap_raises(self):
        # (x^3 - y, x*y - 1) produces x - y^3 along the way
        pres = mk(R2, "x^3 - y", "x*y - 1")
        with mock.patch.object(groebner, "DEGREE_CAP", 2):
            with pytest.raises(DegreeCapExceeded):
                buchberger(pres)

    def test_coefficient_swell_fails_loudly(self):
        # under lex the coefficients of katsura4 over Q double in size every
        # few pairs; default caps must cut it off promptly instead of grinding
        import time

        gens = kernel_ideal("katsura4").generators
        ring = PolyRing(QQ, gens[0].ring.nvars, LEX, gens[0].ring.names)
        pres = IdealPresentation(
            ring, tuple(ring.from_dict(dict(g.terms)) for g in gens)
        )
        t0 = time.monotonic()
        with pytest.raises(DegreeCapExceeded, match="coefficient passed 8192 bits"):
            buchberger(pres)
        assert time.monotonic() - t0 < 30

    def test_memoized_recomputation_identical(self):
        pres = mk(R2, "x^2 - y", "x")
        assert pres.basis is pres.basis
        assert pres.basis == buchberger(pres).basis

    def test_pivots_pinned(self):
        # two input generators, the S-pair remainder 5*Y1, then one pivot
        # per element of the final reduction
        ring = PolyRing(QQ, 2, GREVLEX, ("X1", "Y1"))
        pres = mk(ring, "X1 + 5*Y1", "X1")
        gb = buchberger(pres)
        assert gb.basis == (P("X1", ring), P("Y1", ring))
        assert gb.pivots == tuple(map(Fraction, (1, 1, 5, 1, 1)))
        assert pres.groebner == gb and pres.basis is pres.groebner.basis


class TestPairOrder:
    @pytest.mark.parametrize("name, kind", list(S_PAIRS))
    def test_s_pair_sequence_pinned(self, name, kind):
        gens = dict(NAMED_IDEALS)[name].generators
        order = {"grevlex": GREVLEX, "lex": LEX}[kind]
        ring = PolyRing(QQ, gens[0].ring.nvars, order, gens[0].ring.names)
        pres = IdealPresentation(
            ring, tuple(ring.from_dict(dict(g.terms)) for g in gens)
        )
        seen = []
        spoly = groebner._spoly

        def spy(pk, a, b):
            # a and b are packed rows; a row's first entry is its lead
            leads = pk.unpack([(a[0], None), (b[0], None)])
            seen.append(tuple(m for m, _ in leads))
            return spoly(pk, a, b)

        with mock.patch.object(groebner, "_spoly", spy):
            buchberger(pres)
        assert seen == S_PAIRS[name, kind]


def _mod_p(pres, p=32003):
    ring = pres.ring.with_field(PrimeField(p))
    return IdealPresentation(
        ring, tuple(reduce_coeffs_mod_p(g, ring) for g in pres.generators)
    )


class TestPairCriteria:
    """What the sugar queue and the Gebauer-Moeller update leave to reduce,
    and the lockstep of runs over Q and mod a prime that exceptional_primes
    rests on."""

    @pytest.mark.parametrize("name, reduced, zero, new", [
        ("cyclic5", 112, 75, 37), ("katsura5", 66, 48, 18), ("cyclic6", 343, 245, 98),
    ])
    def test_s_polynomial_counts_pinned_over_fp(self, name, reduced, zero, new):
        # each S-polynomial reduced goes through _spoly; each new element
        # adds one pivot, besides one per input and one per basis element
        pres, calls, spoly = _mod_p(kernel_ideal(name)), [], groebner._spoly

        def spy(*args):
            calls.append(args)
            return spoly(*args)

        with mock.patch.object(groebner, "_spoly", spy):
            gb = buchberger(pres)
        added = len(gb.pivots) - len(pres.generators) - len(gb.basis)
        assert (len(calls), len(calls) - added, added) == (reduced, zero, new)

    def test_cyclic6_over_q_maps_to_the_fp_basis(self):
        # cyclic6 answers over Q (45 elements); its basis reduced mod 32003
        # is the basis over F_32003
        pres = kernel_ideal("cyclic6")
        fp = _mod_p(pres)
        basis = buchberger(pres).basis
        assert len(basis) == 45
        assert tuple(reduce_coeffs_mod_p(g, fp.ring) for g in basis) == buchberger(fp).basis

    @pytest.mark.parametrize("name", ["cyclic4", "cyclic5", "katsura3", "katsura4", "katsura5"])
    def test_work_at_p_at_most_over_q(self, name):
        # no cap fires at a good prime that the run over Q passed: the same
        # pairs, a subset of the steps, each weighing 1 at p and at least 1
        # over Q; the S-pairs reach _spoly with the same leads in the same
        # order in both runs
        pres, spoly = kernel_ideal(name), groebner._spoly

        def run(pres):
            leads = []

            def spy(pk, a, b):
                leads.append(tuple(m for m, _ in pk.unpack([(a[0], 1), (b[0], 1)])))
                return spoly(pk, a, b)

            with mock.patch.object(groebner, "_spoly", spy):
                return buchberger(pres), leads

        (over_q, leads_q), (over_p, leads_p) = run(pres), run(_mod_p(pres))
        assert 0 < over_p.work <= over_q.work
        assert len(over_p.pivots) == len(over_q.pivots)
        assert leads_p == leads_q and leads_q


def _reduced_pair(v):
    return (
        type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)
        and v[0] != 0 and v[1] > 0 and gcd(*v) == 1
    )


def _den(d):
    return type(d) is int and d > 0


def _layout_spy(num, den, div, steps, pending=None):
    """A _reduce that asserts the layout of what it is given and returns:
    every work entry passes pending (by default num) or is a cancelled 0,
    every row's tail coefficient and every remainder coefficient passes num
    and is nonzero, every denominator passes den, a row's div is None or
    passes div, and the remainder is (terms, d) with no common factor of d
    and its terms' coefficients over Q; records each division's steps."""
    reduce = groebner._reduce

    def spy(pk, work, d, table, fld, memo):
        assert den(d) and all(v == 0 or (pending or num)(v) for v in work.values())
        for gm, gc, tail, top, gd in table:
            assert type(gm) is int and (gc is None or div(gc)) and den(gd)
            assert all(type(m) is int and c and num(c) for m, c in tail)
            assert top == max([m for m, _ in tail], default=None)
        out = reduce(pk, work, d, table, fld, memo)
        terms, rd = out[0]
        assert den(rd) and all(type(m) is int and c and num(c) for m, c in terms)
        assert rd is None or gcd(rd, *[c for _, c in terms]) == 1
        steps.append(out[1])
        return out

    return spy


@contextmanager
def _after_each_q_step():
    """Spies on _reduce and _q_factor that yield (steps, entries): each Q
    step's (k, bits, den) and a division's pending entries as that step
    left them, its products included, read at the next pop."""
    steps, entries, reduce, factor = [], [], groebner._reduce, groebner._q_factor

    class Pending(dict):
        stepped = False

        def pop(self, m):
            if self.stepped:
                entries.append(dict(self))
                self.stepped = False
            return super().pop(m)

    def reduce_spy(pk, work, *args):
        nonlocal pending
        pending = Pending(work)
        return reduce(pk, pending, *args)

    def factor_spy(*args):
        steps.append(factor(*args))
        pending.stepped = True
        return steps[-1]

    pending = None
    with mock.patch.object(groebner, "_reduce", reduce_spy), mock.patch.object(
        groebner, "_q_factor", factor_spy
    ):
        yield steps, entries


class TestKernelPins:
    """What the packed kernel keeps: the costs _divide reports, which the
    probe's row table (predicates._Rows) reads, and the pivots of bases."""

    def test_divide_costs_of_single_monomials(self):
        def one(m):
            return Polynomial(RT2, ((m, QQ.one),))

        basis = mk(RT2, "T1*T2 - 1").basis
        assert groebner._divide(one((3, 5)), basis) == (P("T2^2", RT2), 3, 2)
        basis = mk(RT2, "3*T1^2 - 2*T2", "5*T2^2 - 7*T1").basis
        assert groebner._divide(one((4, 3)), basis) == (
            P("2744/3375*T1", RT2), 6, 19
        )

    @pytest.mark.parametrize("name, pivots", [
        ("cyclic4", [1] * 6 + [-1] * 3 + [1] * 8),
        ("katsura3", [1, 1, 2, 1, 9, Fraction(-14, 9), Fraction(-45, 7),
                      Fraction(81, 35), Fraction(55, 81)] + [1] * 7),
        # larger ideals: the count and the SHA-256 of repr(pivots)
        ("katsura4", (28, "558d31b51fdb0aa116a00798f78c0885"
                          "a59e7f1c394249f48e186cdf5da2bce8")),
        ("cyclic5", (62, "ae93f1f3a23e52fb29b87269b6a36771"
                         "2c4b948f3f95eeb0a1f1e4444dbf57a9")),
        ("katsura5", (46, "8c7139ff0560f9412b3222220dab1742"
                          "1ec20219ef40fed40fb44037c0ef0a69")),
    ])
    def test_pivots_over_q_pinned(self, name, pivots):
        # and no Fraction enters the kernel: _reduce is given and returns
        # int numerators over positive int denominators, a row (lead, div,
        # tail, top, D) has div None or an int, and each factor a step is
        # given is a reduced pair: the popped numerator over den, less a gcd
        steps, factors, factor = [], [], groebner._q_factor
        pres = dict(NAMED_IDEALS).get(name) or kernel_ideal(name)

        def factor_spy(work, den, row, c):
            factors.append(c)
            return factor(work, den, row, c)

        spy = _layout_spy(lambda v: type(v) is int, _den, lambda v: type(v) is int, steps)
        with mock.patch.object(groebner, "_reduce", spy), mock.patch.object(
            groebner, "_q_factor", factor_spy
        ):
            got = buchberger(pres).pivots
        assert sum(steps) and all(_reduced_pair(c) for c in factors)
        # exceptional_primes reads the numerator and denominator of each
        assert all(isinstance(c, Fraction) for c in got)
        if isinstance(pivots, tuple):
            assert len(got) == pivots[0]
            assert hashlib.sha256(repr(got).encode()).hexdigest() == pivots[1]
        else:
            assert got == tuple(map(Fraction, pivots))

    @pytest.mark.parametrize("q, last", [
        (groebner.GCD_GATE + 1, 3),
        (groebner.GCD_GATE - 3, 3 * (groebner.GCD_GATE - 3)),
    ], ids=["past_the_gate", "below_the_gate"])
    def test_the_gate_cancels_the_shared_denominator(self, q, last):
        # x + y + w by x - z/q, y + z/q and w - t/3: the first step raises
        # the denominator to q, the second adds over it and cancels z to 0,
        # so every pending numerator is a multiple of q.  The third step
        # needs a 3: past GCD_GATE the denominator is first divided by the
        # gcd, q, and rises to 3, below it rises to 3*q
        ring = PolyRing(QQ, 5, GREVLEX, ("x", "y", "w", "z", "t"))
        x, y, w, z, t = map(ring.variable, range(5))
        c, dens, factor = ring.constant, [], groebner._q_factor

        def spy(*args):
            k, bits, den = factor(*args)
            dens.append(den)
            return k, bits, den

        divisors = [
            x - c(Fraction(1, q)) * z, y + c(Fraction(1, q)) * z, w - c(Fraction(1, 3)) * t
        ]
        with mock.patch.object(groebner, "_q_factor", spy):
            got = normal_form(x + y + w, divisors)
        assert got == c(Fraction(1, 3)) * t and dens == [q, q, last]

    def test_a_step_raises_the_shared_denominator_to_the_lcm(self):
        # 1/6*z + x + y by x - 1/3*z and y - 1/4*z: f is packed over 6, which
        # 3 divides, so the first step adds 2 * -1 without a rescale; 4 does
        # not, so the second raises 6 and every pending numerator by 2, to
        # the lcm 12, not to 24
        z, c = R3.variable(2), R3.constant
        f = c(Fraction(1, 6)) * z + P("x + y", R3)
        with _after_each_q_step() as (steps, entries):
            got = normal_form(f, [P("x - 1/3*z", R3), P("y - 1/4*z", R3)])
        my, mz = groebner._packed(R3, [f])[0].mults[1:]
        assert got == c(Fraction(3, 4)) * z
        assert [den for _, _, den in steps] == [6, 12]
        assert entries == [{my: 6, mz: 3}, {mz: 9}]

    def test_pivots_over_fp_are_the_q_pivots_mod_p(self):
        # the F_32003 twin: every row and remainder coefficient is a
        # residue, an int in 0..p-1, every pending entry given an int in
        # -p+1..p-1 (an S-polynomial's difference of two residues), a row's
        # div None or a residue, every denominator None;
        # and katsura4 takes the same run as over Q, so its pivots are Q's
        # reduced mod p
        p, steps = 32003, []
        pres = kernel_ideal("katsura4")
        ring = pres.ring.with_field(PrimeField(p))
        pres_p = IdealPresentation(
            ring, tuple(reduce_coeffs_mod_p(g, ring) for g in pres.generators)
        )

        def residue(v):
            return type(v) is int and 0 <= v < p

        def pending(v):
            return type(v) is int and -p < v < p

        spy = _layout_spy(residue, lambda d: d is None, residue, steps, pending)
        with mock.patch.object(groebner, "_reduce", spy):
            got = buchberger(pres_p).pivots
        assert sum(steps)
        assert got == tuple(
            c.numerator * pow(c.denominator, -1, p) % p
            for c in buchberger(pres).pivots
        )

    def test_a_large_step_adds_one_product_over_the_shared_denominator(self):
        # x by x - 3/2*z with the factor 2^301/27, of 307 bits: f is packed
        # over lcm(27, 6) = 54, which is the factor's 27 times the row's 2,
        # so the step adds 2^301 * -3 to z's 9 with no rescale and no gcd
        fn, fd = 2 ** 301, 27
        z, c = R3.variable(2), R3.constant
        f = c(Fraction(fn, fd)) * P("x", R3) + c(Fraction(1, 6)) * z
        with _after_each_q_step() as (steps, entries):
            got = normal_form(f, [P("x - 3/2*z", R3)])
        assert got == c(Fraction(1, 6) + Fraction(fn * 3, fd * 2)) * z
        assert [(bits, den) for _, bits, den in steps] == [(307, 54)]
        assert [list(e.values()) for e in entries] == [[9 + 3 * fn]]

    def test_a_non_monic_fp_row_is_made_monic_once(self):
        # over F_(2^61 - 1) the table row of 3*x - 5*y is that of its monic
        # twin x - 5/3*y, so the 61-term sum of x^i*y^(60-i) divides by
        # either in the same 60 steps to the same remainder
        ring = PolyRing(PrimeField(2 ** 61 - 1), 2, GREVLEX, ("x", "y"))
        f = parse_polynomial(" + ".join(f"x^{i}*y^{60 - i}" for i in range(61)), ring)
        g, twin = parse_polynomial("3*x - 5*y", ring), parse_polynomial("x - 5/3*y", ring)
        _, (row, twin_row) = groebner._packed(ring, [g, twin])
        assert groebner._table([row], ring.field) == groebner._table([twin_row], ring.field)
        assert groebner._table([row], ring.field)[0][1] is None
        got = groebner._divide(f, [g])
        assert got == groebner._divide(f, [twin]) and got[1] == 60


class TestMembership:
    def test_multiple_of_generator(self):
        assert ideal_member(P("x^2"), mk(R2, "x"))

    def test_other_variable_not_member(self):
        assert not ideal_member(P("y"), mk(R2, "x"))

    def test_hand_combination(self):
        # x + y = (x - y) + 2*y * 1
        assert ideal_member(P("x + y"), mk(R2, "x - y", "2*y"))

    def test_zero_ideal_membership(self):
        zero = IdealPresentation(R2, (R2.zero(),))
        assert ideal_member(R2.zero(), zero)
        assert not ideal_member(P("x"), zero)


class TestEveryDivisionCapped:
    """Membership and containment divide under the caps buchberger uses."""

    def test_member_and_contains_honour_step_cap(self):
        # x^10 reduces against x - 2 in ten steps, down to 1024
        I = mk(R2, "x - 2")
        assert not ideal_member(P("x^10"), I)
        with mock.patch.object(groebner, "STEP_CAP", 5):
            with pytest.raises(DegreeCapExceeded, match="passed 5 reduction"):
                ideal_member(P("x^10"), I)
            with pytest.raises(DegreeCapExceeded, match="passed 5 reduction"):
                ideal_contains(mk(R2, "x^10"), I)

    def test_intermediate_degree_capped(self):
        # the first step against x^2 - 1 already writes x^98
        with pytest.raises(DegreeCapExceeded, match="degree passed 64"):
            normal_form(P("x^100"), [P("x^2 - 1")])
        assert normal_form(P("x^60"), [P("x^2 - 1")]) == R2.one()

    def test_coefficient_bits_capped(self):
        f, g = P("x^3"), P("3*x - 2")
        assert normal_form(f, [g]) == R2.constant(Fraction(8, 27))
        with mock.patch.object(groebner, "COEFF_BIT_CAP", 4):
            with pytest.raises(DegreeCapExceeded, match="passed 4 bits"):
                normal_form(f, [g])


class TestContainsEqual:
    def test_power_containment(self):
        assert ideal_contains(mk(R2, "x^2"), mk(R2, "x"))
        assert not ideal_contains(mk(R2, "x"), mk(R2, "x^2"))

    def test_equal_reduced_bases(self):
        assert ideal_equal(mk(R2, "x^2 - y", "x"), mk(R2, "x", "y"))

    def test_reflexivity(self):
        for pres in (mk(R2, "x*y - 1"), mk(R3, "x + y", "z^2")):
            assert ideal_equal(pres, pres)

    def test_mismatched_rings(self):
        with pytest.raises(AmbientMismatch):
            ideal_equal(mk(R2, "x"), mk(R3, "x"))


class TestQuotientIsZero:
    def test_literal_zero(self):
        f = P("T1^2 - T1^2", RT2)
        assert ideal_member(f, mk(RT2, "T1*T2 - 1"))

    def test_generator_is_zero_in_quotient(self):
        assert ideal_member(P("T1*T2 - 1", RT2), mk(RT2, "T1*T2 - 1"))

    def test_nonmember_is_nonzero(self):
        r = PolyRing(QQ, 1, GREVLEX, ("T",))
        assert not ideal_member(parse_polynomial("T", r), mk(r, "T^2"))
