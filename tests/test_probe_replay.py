"""The sweep's answers from the run over Q against the full checks at every
prime, and its exceptional set against the per-prime luck test.  No prime
runs the primality probe: it runs once, over Q."""

import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gbtransfer import predicates, transfer
from gbtransfer.cli import load_case, main
from gbtransfer.groebner import DegreeCapExceeded, IdealPresentation, normal_form
from gbtransfer.polyarith import (
    QQ, PrimeField, format_polynomial, parse_polynomial,
)
from gbtransfer.predicates import PROBE_TRIAL_CAP
from gbtransfer.transfer import (
    Caps,
    DiophantineSystem,
    PrimeOutcome,
    Witness,
    _conditions,
    _run_prime,
    bad_primes,
    exceptional_primes,
    primes_in_range,
    reduce_witness_mod_p,
    sweep,
    system_ring,
    verify_witness,
)

from oracles import reference_lucky, reference_read_off

CASES = Path(__file__).resolve().parent.parent / "cases"
PRIMES = primes_in_range(2, 2000)
CAPS = Caps()


def _witness(i_gens, x, equation, claimed_n, m_gens=("X1", "Y1"), y="Y1"):
    ring = system_ring(1, 1)

    def P(text):
        return parse_polynomial(text, ring)

    w = Witness(
        ring,
        tuple(P(g) for g in i_gens),
        tuple(P(g) for g in m_gens),
        ("0", "0"),
        (P(x),),
        (P(y),),
        claimed_n,
        domain_claim=True,
    )
    return DiophantineSystem(1, 1, (P(equation),)), w


def _bundled():
    expected = json.loads((CASES / "expected.json").read_text())
    return {
        name: load_case(str(CASES / name))
        for name, e in expected.items()
        if e.get("rational") and e.get("passes")
    }


def _without_domain_claim(cases):
    # the sweep-lift traffic: the probe is bypassed, the other checks stay
    return {
        name + ":no_domain": (system, w._replace(domain_claim=False))
        for name, (system, w) in cases.items()
    }


# I = (X1, Y1) over Q, but mod 5 it is (X1): 5 is no bad prime, yet the
# basis there is not the image of the basis over Q.
UNLUCKY = _witness(("X1 + 5*Y1", "X1"), "X1", "X1 - Y1", 0)
# (X1*Y1) is not prime, so the probe over Q ends on a witness pair.
NOT_PRIME = _witness(("X1*Y1",), "X1 + Y1", "X1*Y1 - Y1^2", 1)
# 7 is lucky here, but divides normal-form contents over Q: NF(X1) = 7*Y1,
# so X1 lies in the ideal mod 7 and the trials drawing it are skipped there.
CONTENT_SEVEN = _witness(("X1 - 7*Y1",), "X1", "X1 - 7*Y1", 1)
# The basis over Q is X1^2 - 1/3*Y1, so the probe's rows have denominators
# 3 (NF(X1^2) = Y1/3) and 9 (NF(X1^4) = Y1^2/9).
THIRDS = _witness(("3*X1^2 - Y1",), "X1", "3*X1^2 - Y1", 1)


def _lowered(k):
    # NF(X1 + k*Y1) = k*Y1 modulo (X1, Y1^2) has content k, so the radical
    # exponent of X1 + k*Y1 is 1 at each prime factor of k, 2 over Q
    return _witness(("Y1^2",), "X1", "Y1^2", 1, (f"X1 + {k}*Y1", "Y1"))


# 5 is lucky, and not exceptional: it divides only the content of NF(X1 + 5*Y1)
LOWERED = _lowered(5)
# m = (X1, Y1) over Q, but mod 5 it is (X1), which does not contain I:
# unlucky for m alone.
UNLUCKY_M = _witness(("Y1^2",), "X1", "Y1^2", 1, ("X1", "X1 + 5*Y1"))
# I = (X1, Y1) over Q and (X1) mod 5, while (x) + I = (Y1, X1) and m stay
# lucky at 5: unlucky for I alone, so the height at 5 is 1, not 0.
UNLUCKY_I = _witness(("X1 + 5*Y1", "X1"), "Y1", "X1 - Y1", 0)
BUNDLED = _bundled()
WITNESSES = {
    **BUNDLED,
    **_without_domain_claim(BUNDLED),
    "unlucky": UNLUCKY,
    "not_prime": NOT_PRIME,
    "content_seven": CONTENT_SEVEN,
    "thirds": THIRDS,
    "lowered": LOWERED,
    "unlucky_m": UNLUCKY_M,
    "unlucky_i": UNLUCKY_I,
}


# Each puts the factor 7 into one kind of integer only: a pivot, a content
# the radical search over Q passes, a top-degree coefficient.
SEVENS = {
    # the S-pair remainder 7*Y1 of I is a pivot; I mod 7 is (X1)
    "pivot": _witness(("X1 + 7*Y1", "X1"), "X1", "X1 - Y1", 0),
    # NF(X1 + 7*Y1) = 7*Y1 modulo (X1, Y1^2): the exponent is 1 at 7, which
    # no entry prints, so 7 is not exceptional
    "radical": _lowered(7),
    # y drops from degree 3 to 1 mod 7, and d from 3 to 2
    "top": _witness(("Y1",), "X1", "Y1", 1, y="7*Y1^3 + Y1"),
}


def _members(w, char0):
    """The integers of each kind the exceptional set is built from."""
    return {
        "pivot": [
            n
            for J in char0.ideals
            for c in J.groebner.pivots
            for n in (c.numerator, c.denominator)
        ],
        "top": [
            max(g.terms, key=lambda t: sum(t[0]))[1].numerator
            for g in (*w.i_gens, *w.m_gens, *w.x_images, *w.y_images)
        ],
    }


def _contents(char0):
    """The content (numerator gcd) of NF(g^k) modulo (x) + I for each
    generator g of m and each k below its exponent over Q: the nonzero
    normal forms the radical search over Q passed."""
    basis = char0.ideals[1].basis
    out = []
    for g, e in char0.condition1.exponents:
        power = g
        for _ in range(1, e):
            nf = normal_form(power, basis)
            out.append(math.gcd(*(c.numerator for _, c in nf.terms)))
            power = power * g
    return out


def test_witnesses_cover_all_cases():
    assert len(WITNESSES) == 21
    for name, (system, w) in WITNESSES.items():
        assert verify_witness(system, w, CAPS).passed, name


def test_not_prime_witness_probe():
    probe = verify_witness(*NOT_PRIME, CAPS).prime_probe
    assert probe.status == "not_prime"
    assert format_polynomial(probe.witness_f) == "X1^2"
    assert format_polynomial(probe.witness_g) == "Y1"


@pytest.fixture
def radical_fields(monkeypatch):
    """The fields over which transfer runs radical_equals, in order."""
    fields = []
    real = transfer.radical_equals

    def counting(I, P, *args):
        fields.append(I.ring.field)
        return real(I, P, *args)

    monkeypatch.setattr(transfer, "radical_equals", counting)
    return fields


def test_unlucky_prime_is_not_replayed(radical_fields):
    # the basis of I at 5 is not the image of the one over Q (its pivot 5
    # makes 5 exceptional), so 5 runs every check; 7 is answered from the
    # run over Q
    system, w = UNLUCKY
    assert 5 not in bad_primes(w, [5])
    sweep(system, w, [5, 7], CAPS)
    assert radical_fields == [QQ, PrimeField(5)]


def test_lucky_prime_lowers_a_radical_exponent(radical_fields):
    system, w = LOWERED
    assert 5 not in bad_primes(w, [5])
    char0 = verify_witness(system, w, CAPS)
    assert [e for _, e in char0.condition1.exponents] == [2, 2]
    assert _contents(char0) == [5, 1]
    report = sweep(system, w, [3, 5, 7], CAPS)
    # the content 5 lowers an exponent at 5, which no entry prints: 5 is
    # not exceptional, and the run over Q answers it
    assert radical_fields == [QQ, QQ]
    exponents = {}
    for p in (3, 5, 7):
        res = verify_witness(system, reduce_witness_mod_p(w, p), CAPS)
        exponents[p] = [e for _, e in res.condition1.exponents]
    assert exponents == {3: [2, 2], 5: [1, 2], 7: [2, 2]}
    assert report.per_prime == tuple(
        _run_prime(system, w, p, CAPS) for p in (3, 5, 7)
    )


def test_prime_unlucky_for_m_alone_is_not_contained():
    system, w = UNLUCKY_M
    assert 5 not in bad_primes(w, [5])
    five = sweep(system, w, [5], CAPS).per_prime[0]
    assert five.error == "NotContained: I is not contained in m"


@pytest.mark.parametrize("name, candidates", [
    ("hyperbola.json", PRIMES[:80]),
    ("unlucky", PRIMES[:80]),
    ("unlucky", [5]),
    ("unlucky_m", PRIMES[:80]),
    ("unlucky_m", [5]),
    ("top", PRIMES[:80]),
    ("top", [7]),
    ("sixth_scaled.json", [3, 2]),
])
def test_report_holds_one_constructed_outcome_per_good_prime(name, candidates):
    # per_prime is a tuple built in sweep, not a view: each entry equals
    # the PrimeOutcome the constructor gives, the run at p in S and char0's
    # entry with its p elsewhere; uniform_d is the largest d among them
    system, w = {**WITNESSES, "top": SEVENS["top"]}[name]
    report = sweep(system, w, candidates, CAPS)
    char0 = verify_witness(system, w, CAPS)
    bad = bad_primes(w, candidates)
    good = [p for p in candidates if p not in bad]
    exceptional = exceptional_primes(w, char0, good)
    d = char0.complexity.complexity
    want = tuple(
        _run_prime(system, w, p, CAPS) if p in exceptional
        else PrimeOutcome(p, True, d, None, False, _conditions(char0))
        for p in good
    )
    assert type(report.per_prime) is tuple
    assert all(type(o) is PrimeOutcome for o in report.per_prime)
    assert report.per_prime == want
    ds = [o.d for o in want if o.d is not None]
    assert report.uniform_d == (max(ds) if ds else None)


@pytest.mark.parametrize("k", [1, 6, 7, 35, 97, 2 * 3 * 5 * 7 * 11 * 13])
def test_exceptional_primes_of_unsorted_candidates(k):
    # the pivot k of I puts the product below, on and above the candidates
    system, w = _witness((f"X1 + {k}*Y1", "X1"), "X1", "X1 - Y1", 0)
    char0 = verify_witness(system, w, CAPS)
    numbers = [n for kind in _members(w, char0).values() for n in kind if n]
    for candidates in (
        PRIMES[:40], PRIMES[:40][::-1], [97, 7, 2, 7, 101, 3, 13, 11, 30047, 5],
    ):
        want = {p for p in candidates if any(n % p == 0 for n in numbers)}
        assert exceptional_primes(w, char0, candidates) == want


@pytest.mark.parametrize("name", sorted(WITNESSES))
@settings(max_examples=10, deadline=None)
@example(primes=[2, 3, 5, 7, 11, 13])
@given(primes=st.lists(st.sampled_from(PRIMES), min_size=1, max_size=6, unique=True))
def test_sweep_matches_the_full_path(name, primes):
    # PrimeOutcome equality covers what the report prints of each prime;
    # test_every_good_prime_matches_the_full_path compares whole results.
    system, w = WITNESSES[name]
    report = sweep(system, w, primes, CAPS)
    bad = bad_primes(w, primes)
    full = tuple(
        _run_prime(system, w, p, CAPS) for p in sorted(primes) if p not in bad
    )
    assert report.per_prime == full


@pytest.fixture
def full_probe_primes(monkeypatch):
    """The primes at which transfer runs the full prime_probe, in order."""
    primes = []
    real = transfer.prime_probe

    def counting(P, *args):
        if isinstance(P.ring.field, PrimeField):
            primes.append(P.ring.field.p)
        return real(P, *args)

    monkeypatch.setattr(transfer, "prime_probe", counting)
    return primes


@pytest.mark.parametrize("name", ["hyperbola.json", "hyperbola.json:no_domain"])
def test_lucky_primes_run_no_radical_search(radical_fields, name):
    # with a probe or without, no prime is exceptional
    sweep(*WITNESSES[name], primes_in_range(2, 200), CAPS)
    assert radical_fields == [QQ]


@pytest.mark.parametrize("name", ["hyperbola.json:no_domain", "lowered"])
def test_a_prime_outside_the_exceptional_set_reduces_nothing(monkeypatch, name):
    # only the exceptional primes map a polynomial mod p
    reduced_at = set()
    real = transfer.reduce_coeffs_mod_p

    def recording(f, target):
        reduced_at.add(target.field.p)
        return real(f, target)

    monkeypatch.setattr(transfer, "reduce_coeffs_mod_p", recording)
    system, w = WITNESSES[name]
    sweep(system, w, PRIMES, CAPS)
    bad = bad_primes(w, PRIMES)
    good = [p for p in PRIMES if p not in bad]
    char0 = verify_witness(system, w, CAPS)
    assert reduced_at == exceptional_primes(w, char0, good)


@pytest.mark.parametrize(
    "name, full_at", [("hyperbola.json", []), ("unlucky", [])]
)
def test_full_probe_runs_only_where_replay_is_not_exact(
    full_probe_primes, name, full_at
):
    # no prime probes, not even the exceptional 5 of unlucky
    sweep(*WITNESSES[name], primes_in_range(2, 200), CAPS)
    assert full_probe_primes == full_at


@pytest.mark.parametrize("trials, full_at", [(10, []), (11, [])])
def test_probe_past_the_record_cap_is_not_replayed(
    monkeypatch, full_probe_primes, trials, full_at
):
    # A probe within the trial cap runs over Q only; a probe past it is
    # refused over Q.  No prime is probed either way.
    monkeypatch.setattr(predicates, "PROBE_TRIAL_CAP", 10)
    system, w = WITNESSES["hyperbola.json"]
    caps = Caps(probe_trials=trials)
    if trials > 10:
        with pytest.raises(ValueError, match="over 10 probe trials"):
            sweep(system, w, [2, 3, 5, 7], caps)
        assert full_probe_primes == full_at
        return
    report = sweep(system, w, [2, 3, 5, 7], caps)
    assert full_probe_primes == full_at
    assert report.per_prime == tuple(
        _run_prime(system, w, p, caps) for p in (2, 3, 5, 7)
    )


def test_probe_past_the_trial_cap_exits_2(capsys):
    # The trial cap bounds a probe's time.
    argv = ["prime-probe", "--vars", "x,y", "--ideal", "x*y - 1", "--trials"]
    t0 = time.monotonic()
    assert main([*argv, str(PROBE_TRIAL_CAP)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["trials"]) == ("probably_prime", PROBE_TRIAL_CAP)
    assert main([*argv, str(PROBE_TRIAL_CAP + 1)]) == 2
    assert capsys.readouterr().out == ""
    assert time.monotonic() - t0 < 2


def test_not_prime_pair_skipped_at_p_is_not_replayed(full_probe_primes):
    # With seed 98 the probe of (X1*Y1) over Q ends on f = 5*X1, which is
    # zero mod 5.  No outcome prints a probe, so 5 is not probed, and
    # answered as the full path without the probe answers it.
    system, w = NOT_PRIME
    caps = Caps(seed=98)
    probe = verify_witness(system, w, caps).prime_probe
    assert probe.status == "not_prime"
    assert format_polynomial(probe.witness_f) == "5*X1"
    primes = [2, 3, 5, 7, 11]
    report = sweep(system, w, primes, caps)
    assert full_probe_primes == []
    assert report.per_prime == tuple(
        _run_prime(system, w, p, caps) for p in primes
    )


@pytest.mark.parametrize("kind", sorted(SEVENS))
def test_a_factor_seven_makes_seven_exceptional(kind):
    # in a pivot or a top-degree coefficient; in a content only, it does not
    system, w = SEVENS[kind]
    char0 = verify_witness(system, w, CAPS)
    assert char0.passed
    members = _members(w, char0)
    sevens = [k for k in members if any(n % 7 == 0 for n in members[k])]
    in_content = any(c % 7 == 0 for c in _contents(char0))
    assert (sevens, in_content) == (([], True) if kind == "radical" else ([kind], False))
    assert 7 not in bad_primes(w, [7])
    assert exceptional_primes(w, char0, [7]) == ({7} if sevens else set())
    assert sweep(system, w, [7], CAPS).per_prime == (_run_prime(system, w, 7, CAPS),)


@settings(max_examples=25, deadline=None)
@example(k=5)
@example(k=2 * 3 * 5 * 7 * 1999)
@given(k=st.integers(min_value=-3000, max_value=3000).filter(lambda k: k not in (-1, 0, 1)))
def test_a_content_prime_lowers_an_exponent_outside_the_exceptional_set(k):
    system, w = _lowered(k)
    factors = [p for p in PRIMES if k % p == 0]
    char0 = verify_witness(system, w, CAPS)
    assert char0.condition1.exponents[0][1] == 2
    assert exceptional_primes(w, char0, factors) == set()
    for p in factors:
        full = verify_witness(system, reduce_witness_mod_p(w, p), CAPS)
        assert full.condition1.exponents[0][1] == 1, p
    report = sweep(system, w, factors, CAPS)
    assert report.per_prime == tuple(_run_prime(system, w, p, CAPS) for p in factors)


@pytest.mark.parametrize(
    "name", sorted(WITNESSES) + [f"seven:{k}" for k in sorted(SEVENS)]
)
def test_every_good_prime_matches_the_full_path(name):
    # Outside the exceptional set every basis mod p is the image of the
    # basis over Q, and every check mod p but the probe, which no prime
    # runs, gives the result over Q mapped mod p: exponent images, residues
    # and heights.  Only where p divides a content the radical search over
    # Q passed may an exponent be lower, with the same generator image.  At
    # every good prime the sweep's outcome is the full path's.
    system, w = WITNESSES.get(name) or SEVENS[name.removeprefix("seven:")]
    char0 = verify_witness(system, w, CAPS)
    bad = bad_primes(w, PRIMES)
    good = [p for p in PRIMES if p not in bad]
    exceptional = exceptional_primes(w, char0, good)
    contents = _contents(char0)
    for p in good:
        if p not in exceptional:
            assert reference_lucky(char0.ideals, p), p
            wp = reduce_witness_mod_p(w, p)
            full = verify_witness(
                system, wp._replace(domain_claim=False), CAPS
            )
            expected = reference_read_off(char0, w.ring, p)
            if any(c % p == 0 for c in contents):
                got, want = full.condition1.exponents, expected.condition1.exponents
                assert [g for g, _ in got] == [g for g, _ in want], p
                assert all(a <= b for (_, a), (_, b) in zip(got, want)), p
                expected = expected._replace(
                    condition1=expected.condition1._replace(exponents=got)
                )
            assert full == expected, p
    report = sweep(system, w, PRIMES, CAPS)
    assert report.per_prime == tuple(_run_prime(system, w, p, CAPS) for p in good)


def test_three_is_not_exceptional_though_its_probe_ends_elsewhere():
    # With seed 1 the draws at 3 are not the images of those over Q (the
    # sample coefficients 1, -1, 2, -2 are not distinct mod 3), and the
    # probe there ends on another pair.  No prime is probed, so 3 is no
    # exceptional prime, and verify --prime 3 still probes mod 3.
    system, w = NOT_PRIME
    caps = Caps(seed=1)
    char0 = verify_witness(system, w, caps)
    assert exceptional_primes(w, char0, [3]) == set()
    assert sweep(system, w, [3], caps).per_prime == (_run_prime(system, w, 3, caps),)
    probe = verify_witness(system, reduce_witness_mod_p(w, 3), caps).prime_probe
    pair = (probe.witness_f, probe.witness_g)
    assert [format_polynomial(g) for g in pair] == ["Y1^2", "X1"]
    assert format_polynomial(char0.prime_probe.witness_f) != "Y1^2"


def test_a_cap_inside_a_probe_mod_p_errs_at_no_prime(monkeypatch):
    # A probe over F_p would raise, but no sweep runs one: every prime
    # passes.
    real = transfer.prime_probe

    def capped(P, *args):
        if isinstance(P.ring.field, PrimeField):
            raise DegreeCapExceeded("probe over a prime field")
        return real(P, *args)

    monkeypatch.setattr(transfer, "prime_probe", capped)
    report = sweep(*WITNESSES["hyperbola.json"], primes_in_range(2, 200), CAPS)
    assert report.all_passed()


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_no_bundled_case_has_an_exceptional_prime(name):
    system, w = BUNDLED[name]
    primes = primes_in_range(2, 20000)
    bad = bad_primes(w, primes)
    good = [p for p in primes if p not in bad]
    assert exceptional_primes(w, verify_witness(system, w, CAPS), good) == set()


ZERO_I = sorted(n for n, (_, w) in BUNDLED.items() if w.ideal_i().is_zero_ideal())


def _zero_i_reports(name, capsys):
    """The sweep over 2..2000 and the verify --char0 and --prime 7 reports
    of a bundled case, as printed JSON."""
    system, w = BUNDLED[name]
    out = [json.dumps(sweep(system, w, PRIMES, CAPS).as_dict(), indent=2, sort_keys=True)]
    for flags in (["--char0"], ["--prime", "7"]):
        main(["verify", str(CASES / name), *flags])
        out.append(capsys.readouterr().out)
    return out


def test_zero_ideals_are_the_bundled_cases_but_hyperbola():
    assert ZERO_I == sorted(set(BUNDLED) - {"hyperbola.json"})
    assert len(ZERO_I) == 6


@pytest.mark.parametrize("name", ZERO_I)
def test_zero_ideal_reports_match_the_trial_loop(name, capsys, monkeypatch):
    # The probe of the zero ideal draws nothing; forced through the trial
    # loop, it prints the same bytes.
    draws = []
    real_draw = predicates._draw

    def draw(*args):
        draws.append(real_draw(*args))
        return draws[-1]

    monkeypatch.setattr(predicates, "_draw", draw)
    answered = _zero_i_reports(name, capsys)
    assert draws == []
    monkeypatch.setattr(IdealPresentation, "is_zero_ideal", lambda self: False)
    assert _zero_i_reports(name, capsys) == answered
    assert len(draws) == 3 * 2 * 200
