"""The sweep's probe replay against the full probe at every prime."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gbtransfer import predicates, transfer
from gbtransfer.cli import load_case, main
from gbtransfer.polyarith import PrimeField, format_polynomial, parse_polynomial
from gbtransfer.predicates import PROBE_TRIAL_CAP, replay_probe
from gbtransfer.transfer import (
    Caps,
    DiophantineSystem,
    Witness,
    _run_prime,
    bad_primes,
    primes_in_range,
    reduce_witness_mod_p,
    sweep,
    system_ring,
    verify_witness,
)

CASES = Path(__file__).resolve().parent.parent / "cases"
PRIMES = primes_in_range(2, 2000)
CAPS = Caps()


def _witness(i_gens, x, equation, claimed_n):
    ring = system_ring(1, 1)

    def P(text):
        return parse_polynomial(text, ring)

    w = Witness(
        ring,
        tuple(P(g) for g in i_gens),
        (P("X1"), P("Y1")),
        ("0", "0"),
        (P(x),),
        (P("Y1"),),
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
WITNESSES = {
    **_bundled(),
    "unlucky": UNLUCKY,
    "not_prime": NOT_PRIME,
    "content_seven": CONTENT_SEVEN,
    "thirds": THIRDS,
}


def test_witnesses_cover_all_cases():
    assert len(WITNESSES) == 11
    for name, (system, w) in WITNESSES.items():
        assert verify_witness(system, w, CAPS).passed, name


def test_not_prime_witness_probe():
    probe = verify_witness(*NOT_PRIME, CAPS).prime_probe
    assert probe.status == "not_prime"
    assert format_polynomial(probe.witness_f) == "X1^2"
    assert format_polynomial(probe.witness_g) == "Y1"


def test_unlucky_prime_is_not_replayed():
    system, w = UNLUCKY
    assert 5 not in bad_primes(system, w, [5])
    probe = verify_witness(system, w, CAPS).prime_probe
    for p, replayed in ((5, False), (7, True)):
        wp = reduce_witness_mod_p(w, p)
        assert (replay_probe(probe, wp.ideal_i()) is not None) == replayed


@pytest.mark.parametrize("name", sorted(WITNESSES))
@settings(max_examples=10, deadline=None)
@example(primes=[2, 3, 5, 7, 11, 13])
@given(primes=st.lists(st.sampled_from(PRIMES), min_size=1, max_size=6, unique=True))
def test_sweep_matches_the_full_path(name, primes):
    # PrimeOutcome equality covers result.prime_probe: status, trial count
    # and the witness pair.
    system, w = WITNESSES[name]
    report = sweep(system, w, primes, CAPS)
    bad = bad_primes(system, w, primes)
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


@pytest.mark.parametrize(
    "name, full_at", [("hyperbola.json", [2, 3]), ("unlucky", [2, 3, 5])]
)
def test_full_probe_runs_only_where_replay_is_not_exact(
    full_probe_primes, name, full_at
):
    sweep(*WITNESSES[name], primes_in_range(2, 200), CAPS)
    assert full_probe_primes == full_at


@pytest.mark.parametrize("trials, full_at", [(10, [2, 3]), (11, [])])
def test_probe_past_the_record_cap_is_not_replayed(
    monkeypatch, full_probe_primes, trials, full_at
):
    # The trial cap bounds the record: a probe within it keeps its record
    # and is replayed wherever replay is exact; a probe past it is refused
    # over Q, so no prime is probed or replayed.
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
    # Every Q probe keeps its record; the trial cap bounds its size.
    argv = ["prime-probe", "--vars", "x,y", "--ideal", "x*y - 1", "--trials"]
    t0 = time.monotonic()
    assert main([*argv, str(PROBE_TRIAL_CAP)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["trials"]) == ("probably_prime", PROBE_TRIAL_CAP)
    assert main([*argv, str(PROBE_TRIAL_CAP + 1)]) == 2
    assert capsys.readouterr().out == ""
    assert time.monotonic() - t0 < 2


def test_not_prime_pair_skipped_at_p_is_not_replayed(full_probe_primes):
    # With seed 98 the probe of (X1*Y1) over Q ends on NF(f) = 5*X1, which
    # is zero mod 5: the record ends there, so the probe at 5 runs in full.
    system, w = NOT_PRIME
    caps = Caps(seed=98)
    probe = verify_witness(system, w, caps).prime_probe
    assert probe.status == "not_prime"
    assert format_polynomial(probe.witness_f) == "5*X1"
    primes = [2, 3, 5, 7, 11]
    report = sweep(system, w, primes, caps)
    assert full_probe_primes == [2, 3, 5]
    assert report.per_prime == tuple(
        _run_prime(system, w, p, caps) for p in primes
    )
