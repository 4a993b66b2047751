"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import json
import random
import time
from pathlib import Path

import pytest

from gbtransfer.cli import load_case, main as cli_main
from gbtransfer.encoding import (
    code_from_json,
    code_size,
    code_to_json,
    decode_ideal,
    encode_ideal,
    normalize_generators,
)
from gbtransfer.groebner import (
    IdealPresentation,
    buchberger,
    ideal_equal,
    ideal_member,
    normal_form,
    s_polynomial,
)
from gbtransfer.polyarith import GREVLEX, PolyRing, PrimeField, QQ, parse_polynomial
from gbtransfer.predicates import (
    dimension,
    height_poly,
    prime_probe,
    radical_equals,
)
from gbtransfer.groebner import ideal
from gbtransfer.transfer import (
    Caps,
    primes_in_range,
    search_witness_points,
    sweep,
    verify_witness,
)

from corpus import (
    MONOMIAL_IDEALS,
    R1,
    R2,
    R3,
    SMALL_2V_IDEALS,
    corpus_30,
    mk,
    random_ideal,
    random_poly,
    random_query,
)
from oracles import MembershipOracle, dimension_oracle

CASES = Path(__file__).resolve().parent.parent / "cases"
EXPECTED = json.loads((CASES / "expected.json").read_text())


def _criterion(num: int, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_1_groebner_soundness():
    t0 = time.monotonic()
    corpus = corpus_30()
    assert len(corpus) >= 30
    for name, pres in corpus:
        assert pres.ring.nvars <= 4
        assert all(int(g.degree()) <= 4 for g in pres.generators if g)
        basis = buchberger(pres).basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                rem = normal_form(s_polynomial(basis[i], basis[j]), basis)
                assert not rem, f"{name}: surviving S-polynomial"
    rng = random.Random(1)
    combos = 0
    while combos < 100:
        name, pres = corpus[combos % len(corpus)]
        gens = [g for g in pres.generators if g]
        combo = pres.ring.zero()
        for g in gens:
            combo = combo + random_poly(rng, pres.ring, 2) * g
        assert ideal_member(combo, pres), f"{name}: combination not a member"
        combos += 1
    elapsed = time.monotonic() - t0
    _criterion(
        1,
        elapsed < 30,
        f"{len(corpus)} ideals, {combos} combinations, {elapsed:.1f}s",
    )


def test_criterion_2_membership_completeness():
    assert len(SMALL_2V_IDEALS) >= 5
    total = disagreements = 0
    for idx, (name, pres) in enumerate(SMALL_2V_IDEALS):
        oracle = MembershipOracle(pres, cofactor_cap=6)
        rng = random.Random(1000 + idx)
        gens = [g for g in pres.generators if g]
        for k in range(50):
            if k % 2:
                q = pres.ring.zero()
                for g in gens:
                    q = q + random_query(rng, pres.ring, 2) * g
            else:
                q = random_query(rng, pres.ring, 3)
            total += 1
            if ideal_member(q, pres) != oracle.contains(q):
                disagreements += 1
    _criterion(
        2,
        disagreements == 0,
        f"{len(SMALL_2V_IDEALS)} ideals, {total} queries, "
        f"{disagreements} disagreements",
    )


def test_criterion_3_dimension_oracle():
    assert len(MONOMIAL_IDEALS) >= 15
    mismatches = []
    for name, pres in MONOMIAL_IDEALS:
        got = dimension(pres)
        want = dimension_oracle(pres)
        if got != want:
            mismatches.append(name)
        res = height_poly(pres)
        assert res.height + res.dimension == pres.ring.nvars
    _criterion(
        3,
        not mismatches,
        f"{len(MONOMIAL_IDEALS)} monomial ideals, mismatches: {mismatches}",
    )


RADICAL_EQUAL_PAIRS = [
    (mk(R2, "x^2", "y"), mk(R2, "x", "y")),
    (mk(R2, "x^4"), mk(R2, "x")),
    (mk(R2, "(x + y)^3"), mk(R2, "x + y")),
    (mk(R2, "x^2", "x*y", "y^2"), mk(R2, "x", "y")),
    (mk(R2, "x^3", "y^2"), mk(R2, "x", "y")),
    (mk(R1, "x^2"), mk(R1, "x")),
    (mk(R1, "1/6*x^2"), mk(R1, "x")),
    (mk(R3, "x^2", "y^3", "z"), mk(R3, "x", "y", "z")),
    (mk(R3, "x^2", "y - z", "z^3"), mk(R3, "x", "y - z", "z")),
    (mk(R3, "(x - y)^2", "z"), mk(R3, "x - y", "z")),
]

RADICAL_MISSING_PAIRS = [
    (mk(R2, "x"), mk(R2, "x", "y")),
    (mk(R2, "x^2"), mk(R2, "x", "y")),
    (mk(R2, "x*y"), mk(R2, "x", "y")),
    (mk(R2, "y^3"), mk(R2, "x", "y")),
    (mk(R2, "x^2 - y"), mk(R2, "x", "y")),
    (mk(R1, "x^3 + x"), mk(R1, "x")),
    (mk(R3, "x*y", "x*z"), mk(R3, "x", "y")),
    (mk(R2, "x^2", "x*y"), mk(R2, "x", "y")),
    (mk(R2, "x + y^2"), mk(R2, "x", "y")),
    (mk(R3, "z^2"), mk(R3, "x", "z")),
]


def test_criterion_4_radical_criterion():
    caps = (1, 2, 4, 8, 16)
    for I, P in RADICAL_EQUAL_PAIRS:
        res = radical_equals(I, P, 16)
        assert res.equal, f"expected Equal for {I.generators}"
        for g, e in res.exponents:
            assert ideal_member(g ** e, I)
        seen = False
        for cap in caps:
            eq = radical_equals(I, P, cap).equal
            assert not (seen and not eq), "monotonicity violated"
            seen = seen or eq
        assert seen
    for I, P in RADICAL_MISSING_PAIRS:
        for cap in caps:
            res = radical_equals(I, P, cap)
            assert res.status == "generator_power_not_found", (
                f"expected missing power for {I.generators}"
            )
            assert res.failed_generator is not None
    _criterion(
        4,
        True,
        f"{len(RADICAL_EQUAL_PAIRS)} equal pairs, "
        f"{len(RADICAL_MISSING_PAIRS)} non-pairs, caps {caps}",
    )


def test_criterion_5_encoding_round_trip():
    rng = random.Random(4242)
    rings = [R1, R2, R3]
    checked = 0
    while checked < 20:
        ring = rings[checked % len(rings)]
        pres = random_ideal(rng, ring, max_degree=4, n_gens=2)
        d = 4
        norm = normalize_generators(pres)
        live = [g for g in norm.generators if g]
        assert len(live) <= code_size(ring.nvars, d)
        leads = [g.leading_monomial() for g in live]
        assert len(leads) == len(set(leads))
        code = encode_ideal(pres, d)
        assert ideal_equal(decode_ideal(code), pres)
        text = code_to_json(code)
        assert code_to_json(code_from_json(text)) == text
        checked += 1
    _criterion(5, True, f"{checked} random ideals, d = 4")


def test_criterion_6_transfer_demonstration():
    t0 = time.monotonic()
    system, witness = load_case(str(CASES / "sixth_scaled.json"))
    char0 = verify_witness(system, witness, Caps())
    assert char0.passed
    report = sweep(system, witness, primes_in_range(2, 200), Caps())
    bad = [p for p, _ in report.bad_primes]
    elapsed = time.monotonic() - t0
    ok = (
        bad == [2, 3]
        and report.all_passed()
        and report.uniform_d == report.char0_d == 2
        and elapsed < 10
    )
    _criterion(
        6,
        ok,
        f"bad={bad}, uniform_d={report.uniform_d}, "
        f"char0_d={report.char0_d}, {elapsed:.1f}s",
    )


def test_criterion_7_uniform_complexity_on_corpus():
    swept = 0
    for name, expect in EXPECTED.items():
        if not (expect.get("passes") and expect.get("rational")):
            continue
        system, witness = load_case(str(CASES / name))
        report = sweep(system, witness, primes_in_range(2, 40), Caps())
        assert report.uniform_d is not None
        assert report.uniform_d <= report.char0_d, name
        assert report.char0_d == expect["char0_d"], name
        swept += 1
    _criterion(7, swept >= 6, f"{swept} corpus cases swept over 2..40")


def test_criterion_8_primality_probe():
    cross = ideal(parse_polynomial("x*y", R2))
    fat = mk(R2, "x^2", "y")
    res_cross = prime_probe(cross, 2, 200, seed=0)
    res_fat = prime_probe(fat, 2, 200, seed=0)
    for res, pres in ((res_cross, cross), (res_fat, fat)):
        assert res.status == "not_prime"
        assert not ideal_member(res.witness_f, pres)
        assert not ideal_member(res.witness_g, pres)
        assert ideal_member(res.witness_f * res.witness_g, pres)
    axis = ideal(parse_polynomial("x", R2))
    rt2 = PolyRing(QQ, 2, GREVLEX, ("T1", "T2"))
    hyper = ideal(parse_polynomial("T1*T2 - 1", rt2))
    assert prime_probe(axis, 2, 200, seed=0).status == "probably_prime"
    assert prime_probe(hyper, 2, 200, seed=0).status == "probably_prime"
    _criterion(8, True, "certificates verified; prime cases stayed clean")


def test_criterion_9_rational_point_search():
    r5 = PolyRing(PrimeField(5), 1, GREVLEX, ("T",))
    r7 = PolyRing(PrimeField(7), 1, GREVLEX, ("T",))
    pres5 = ideal(parse_polynomial("T^2 + 1", r5))
    pres7 = ideal(parse_polynomial("T^2 + 1", r7))
    pts5 = search_witness_points(pres5)
    pts7 = search_witness_points(pres7)
    assert pts5 == [(2,), (3,)]
    assert pts7 == []
    for pt in pts5:
        for g in pres5.generators:
            assert not g.evaluate(pt)
    _criterion(9, True, f"F5 roots {pts5}, F7 roots {pts7}")


def _cli_capture(capsys, argv):
    code = cli_main(argv)
    return code, capsys.readouterr().out


def test_criterion_10_determinism(capsys):
    sweep_args = [
        "sweep",
        str(CASES / "sixth_scaled.json"),
        "--primes",
        "2..200",
        "--seed",
        "0",
    ]
    code1, rep_a = _cli_capture(capsys, sweep_args)
    code2, rep_b = _cli_capture(capsys, sweep_args)
    code3, rep_c = _cli_capture(capsys, sweep_args)
    assert code1 == code2 == code3 == 0
    probe_args = [
        "prime-probe",
        "--vars",
        "x,y",
        "--ideal",
        "(x*y)",
        "--seed",
        "0",
        "--trials",
        "200",
    ]
    _, probe_a = _cli_capture(capsys, probe_args)
    _, probe_b = _cli_capture(capsys, probe_args)
    ok = rep_a == rep_b == rep_c and probe_a == probe_b
    _criterion(10, ok, "three sweeps and repeated probes byte-identical")
