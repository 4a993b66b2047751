"""End-to-end CLI coverage: exit codes, JSON schemas, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gbtransfer import predicates
from gbtransfer.cli import (
    CaseFormatError, _build_parser, _caps_from_args, load_case, main, parse_case,
)
from gbtransfer.encoding import CODE_CELL_CAP, ComplexityExceeded
from gbtransfer.polyarith import NVARS_CAP, POWER_BIT_CAP, AmbientMismatch, BadPrime
from gbtransfer.predicates import NotContained, UnitIdeal
from gbtransfer.transfer import (
    CERT_FAILED,
    CERT_NOT_CERTIFIED,
    CERT_PASSED,
    Caps,
    DegenerateGenerator,
    PrimeOutcome,
    SweepReport,
    primes_in_range,
    sweep,
    verify_witness,
)

CASES = Path(__file__).resolve().parent.parent / "cases"
SRC = CASES.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestVerifyCommand:
    def test_passing_case_char0(self, capsys):
        code, out = run(capsys, "verify", str(CASES / "square_root.json"), "--char0")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_bad_lift_fails_condition2(self, capsys):
        code, out = run(capsys, "verify", str(CASES / "square_root_bad_lift.json"))
        assert code == 1
        obj = json.loads(out)
        assert obj["passed"] is False
        assert obj["condition2"][0]["zero"] is False

    def test_malformed_json_is_structural(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "verify", str(CASES / "no_such_case.json"))
        assert code == 2

    def test_verify_at_single_prime(self, capsys):
        code, out = run(
            capsys, "verify", str(CASES / "sixth_scaled.json"), "--prime", "5"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_forced_bad_prime_is_structural(self, capsys):
        code, _ = run(
            capsys, "verify", str(CASES / "sixth_scaled.json"), "--prime", "2"
        )
        assert code == 2

    def test_char0_flag_rejects_prime_field_case(self, capsys):
        code, _ = run(
            capsys, "verify", str(CASES / "fp_nilpotent.json"), "--char0"
        )
        assert code == 2

    def test_prime_field_case_verifies_natively(self, capsys):
        code, out = run(capsys, "verify", str(CASES / "fp_nilpotent.json"))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_unknown_fields_rejected(self, tmp_path, capsys):
        case = json.loads((CASES / "square_root.json").read_text())
        case["extra"] = 1
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        code, _ = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("p", [7.9, True, "7"])
    def test_non_integer_field_modulus_rejected(self, tmp_path, capsys, p):
        case = json.loads((CASES / "fp_nilpotent.json").read_text())
        case["ring"]["field"] = {"Fp": p}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        assert run(capsys, "verify", str(path)) == (2, "")

    def test_float_coefficients_rejected(self, tmp_path, capsys):
        case = json.loads((CASES / "square_root.json").read_text())
        case["witness"]["m"][0][0]["coeff"] = 1.0
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        code, _ = run(capsys, "verify", str(path))
        assert code == 2


class TestSweepCommand:
    def test_flagship_range(self, capsys):
        code, out = run(
            capsys,
            "sweep",
            str(CASES / "sixth_scaled.json"),
            "--primes",
            "2..100",
        )
        assert code == 0
        rep = json.loads(out)
        assert [b["p"] for b in rep["bad_primes"]] == [2, 3]
        assert rep["uniform_d"] == rep["char0_d"] == 2
        assert all(o["passed"] for o in rep["per_prime"])

    def test_single_prime(self, capsys):
        code, out = run(
            capsys, "sweep", str(CASES / "square_root.json"), "--primes", "7..7"
        )
        assert code == 0
        rep = json.loads(out)
        assert [o["p"] for o in rep["per_prime"]] == [7]

    def test_empty_range(self, capsys):
        code, out = run(
            capsys, "sweep", str(CASES / "square_root.json"), "--primes", "5..3"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["per_prime"] == [] and rep["bad_primes"] == []

    def test_char0_failure_exits_one(self, capsys):
        code, out = run(
            capsys,
            "sweep",
            str(CASES / "square_root_bad_lift.json"),
            "--primes",
            "2..20",
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_output_file(self, capsys, tmp_path):
        # 2..50000 writes over 4096 chunks, two batches to each out; the
        # encoder runs once for the report around per_prime and once for
        # the one distinct entry, however many outs there are
        target = tmp_path / "report.json"
        original = json.JSONEncoder.iterencode
        with mock.patch.object(
            json.JSONEncoder, "iterencode", autospec=True, side_effect=original
        ) as spy:
            code, out = run(
                capsys,
                "sweep",
                str(CASES / "square_root.json"),
                "--primes",
                "2..50000",
                "--output",
                str(target),
            )
        assert code == 0 and spy.call_count == 2
        assert json.loads(target.read_text())["char0_d"] == 2
        assert target.read_bytes() == out.encode()
        _, plain = run(
            capsys, "sweep", str(CASES / "square_root.json"), "--primes", "2..50000"
        )
        assert plain == out

    def test_output_file_that_cannot_be_opened(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        argv = ["sweep", str(CASES / "square_root.json"), "--primes", "2..20"]
        code = main([*argv, "--output", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error:" in captured.err and not target.exists()

    def test_good_prime_past_the_word_bound_refused(self, capsys):
        # 2^63 + 29 is prime and good for the case, but no F_p holds it
        code = main(
            ["sweep", str(CASES / "hyperbola.json"), "--primes", str(2**63 + 29)]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "modulus exceeds the machine-word bound" in captured.err

    def test_report_reparses(self, capsys):
        _, out = run(
            capsys, "sweep", str(CASES / "square_root.json"), "--primes", "2..30"
        )
        assert json.loads(out)  # schema sanity: valid JSON object
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out.strip()

    def test_explicit_prime_list(self, capsys):
        code, out = run(
            capsys, "sweep", str(CASES / "square_root.json"), "--primes", "5,11"
        )
        assert code == 0
        rep = json.loads(out)
        assert [o["p"] for o in rep["per_prime"]] == [5, 11]
        assert rep["prime_range"] == [5, 11]

    def test_composite_in_explicit_list_is_structural(self, capsys):
        code, _ = run(
            capsys, "sweep", str(CASES / "square_root.json"), "--primes", "4,5"
        )
        assert code == 2


def _sweep_bytes(report):
    """What `sweep` writes to stdout and to --output when sweep() returns
    report, as two byte strings."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch(
        "gbtransfer.cli.sweep", return_value=report
    ), contextlib.redirect_stdout(out):
        target = Path(tmp) / "report.json"
        argv = ["sweep", str(CASES / "hyperbola.json"), "--primes", "2"]
        code = main([*argv, "--output", str(target)])
        written = target.read_bytes()
    assert code == (0 if report.all_passed() else 1)
    return out.getvalue().encode(), written


def _reference_bytes(report):
    return (json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n").encode()


HYPERBOLA_CHAR0 = verify_witness(*load_case(str(CASES / "hyperbola.json")))
SHARED = (True, 2, None, False, ("equal", (True,), CERT_PASSED, True))
# text an entry may carry: quotes, backslashes, line breaks, "%" and the
# lines the writer splits on, which JSON escapes inside a string
TRICKY = st.lists(
    st.sampled_from([
        '"p": 0,', '\n      "p": 0,', '\n  "per_prime": [', '"', "\\", "\n",
        "%d", "%s", "%%", "\u00e9", " ", "x",
    ]) | st.text(max_size=4),
    max_size=6,
).map("".join)
CONDITIONS = st.tuples(
    st.sampled_from(["equal", "not_equal", "not_contained_in_p"]) | TRICKY,
    st.lists(st.booleans(), max_size=3).map(tuple),
    st.sampled_from([CERT_PASSED, CERT_FAILED, CERT_NOT_CERTIFIED]),
    st.booleans(),
)
REASONS = st.lists(
    st.sampled_from(["denominator", "leading-coeff"]), min_size=1, max_size=2
).map(tuple)


@st.composite
def sweep_reports(draw):
    """A SweepReport around hyperbola's run over Q: entries are the shared
    passing outcome, or errors, unresolved or failing outcomes as the
    primes in S give them; bad primes and an empty per_prime are drawn."""
    rest = st.one_of(
        st.just(SHARED),
        st.tuples(st.none(), st.none(), TRICKY, st.just(False), st.none()),
        st.tuples(
            st.just(False), st.integers(0, 9), st.none(), st.just(True), CONDITIONS
        ),
        st.tuples(
            st.booleans(), st.integers(0, 9), st.none(), st.booleans(), CONDITIONS
        ),
    )
    ps = sorted(draw(st.sets(st.integers(2, 10**6), max_size=30)))
    bad = draw(st.lists(st.tuples(st.integers(2, 10**6), REASONS), max_size=3))
    span = st.tuples(st.integers(0, 99), st.integers(0, 10**6))
    return SweepReport(
        prime_range=draw(st.none() | span),
        bad_primes=tuple(sorted(bad)),
        per_prime=tuple(PrimeOutcome(p, *draw(rest)) for p in ps),
        uniform_d=draw(st.none() | st.integers(0, 9)),
        char0_d=2,
        char0_result=HYPERBOLA_CHAR0,
    )


class TestSweepWriter:
    """The sweep's writer, which encodes each distinct entry once, against
    json.dumps of the whole report."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_reports())
    def test_drawn_reports(self, report):
        want = _reference_bytes(report)
        assert _sweep_bytes(report) == (want, want)

    def test_many_entries_over_several_batches(self):
        # 9000 entries, one in seven an error whose text holds the lines
        # the writer splits on; the shared outcome repeats between them
        error = '"%d"\n  "p": 0,\n      "p": 0,\\'
        per_prime = tuple(
            PrimeOutcome(p, None, None, error, False, None)
            if p % 7 == 0 else PrimeOutcome(p, *SHARED)
            for p in range(2, 9002)
        )
        report = SweepReport(None, (), per_prime, 2, 2, HYPERBOLA_CHAR0)
        want = _reference_bytes(report)
        assert _sweep_bytes(report) == (want, want)

    @pytest.mark.parametrize("case", [
        "cusp.json", "hyperbola.json", "plane_origin.json", "shifted_square.json",
        "sixth_scaled.json", "square_root.json", "tenth_scaled.json",
    ])
    def test_bundled_cases(self, capsys, tmp_path, case):
        system, w = load_case(str(CASES / case))
        report = sweep(system, w, primes_in_range(2, 2000), Caps(), (2, 2000))
        target = tmp_path / "report.json"
        code, out = run(
            capsys, "sweep", str(CASES / case), "--primes", "2..2000",
            "--output", str(target),
        )
        want = _reference_bytes(report)
        assert code == 0 and out.encode() == want and target.read_bytes() == want


class TestPredicateCommands:
    def test_member_true(self, capsys):
        code, out = run(
            capsys, "member", "--vars", "x,y", "--f", "x^2", "--ideal", "(x)"
        )
        assert code == 0
        assert json.loads(out)["member"] is True

    def test_member_false_exits_one(self, capsys):
        code, out = run(
            capsys, "member", "--vars", "x,y", "--f", "y", "--ideal", "(x)"
        )
        assert code == 1
        assert json.loads(out)["member"] is False

    def test_gb(self, capsys):
        code, out = run(
            capsys, "gb", "--vars", "x,y", "--ideal", "(x^2 - y, x)"
        )
        assert code == 0
        assert json.loads(out)["basis"] == ["x", "y"]

    @pytest.mark.parametrize("field, basis", [
        ("Q", ["x - 1", "y - 1"]), ("F7", ["x + 6", "y + 6"]),
    ])
    def test_gb_s_polynomial_is_not_capped(self, capsys, field, basis):
        # the S-polynomial of x*y - 1 and x - y^64 is 1 - y^65, past
        # DEGREE_CAP: y^2 - 1 reduces it to 1 - y, and without y^2 - 1 it
        # exits 2 only as a basis element past the cap
        argv = ("gb", "--order", "lex", "--vars", "x,y", "--field", field)
        code, out = run(capsys, *argv, "--ideal", "x*y - 1, x - y^64, y^2 - 1")
        assert code == 0
        assert json.loads(out)["basis"] == basis
        assert main([*argv, "--ideal", "x*y - 1, x - y^64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: basis element degree passed the cap 64\n"

    def test_dim(self, capsys):
        code, out = run(capsys, "dim", "--vars", "x,y", "--ideal", "(x*y)")
        assert code == 0
        assert json.loads(out)["dimension"] == 1

    def test_height(self, capsys):
        code, out = run(
            capsys, "height", "--vars", "x,y,z", "--ideal", "(x*y, x*z)"
        )
        assert code == 0
        assert json.loads(out) == {"dimension": 2, "codimension": 1}

    def test_radical_eq_with_certificate(self, capsys):
        code, out = run(
            capsys,
            "radical-eq",
            "--vars",
            "x,y",
            "--ideal",
            "(x^2, y)",
            "--radical",
            "(x, y)",
            "--cap",
            "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "equal"
        assert {e["generator"]: e["exponent"] for e in obj["exponents"]} == {
            "x": 2,
            "y": 1,
        }

    def test_radical_eq_negative(self, capsys):
        code, out = run(
            capsys,
            "radical-eq",
            "--vars",
            "x,y",
            "--ideal",
            "(x)",
            "--radical",
            "(x, y)",
            "--cap",
            "8",
        )
        assert code == 1
        assert json.loads(out)["status"] == "generator_power_not_found"

    def test_prime_probe_not_prime(self, capsys):
        code, out = run(
            capsys,
            "prime-probe",
            "--vars",
            "x,y",
            "--ideal",
            "(x*y)",
            "--seed",
            "7",
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "not_prime"
        assert obj["f"] and obj["g"]

    def test_prime_probe_deterministic(self, capsys):
        args = ("prime-probe", "--vars", "x,y", "--ideal", "(x*y)", "--seed", "9")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b

    def test_maximal(self, capsys):
        code, out = run(
            capsys,
            "maximal",
            "--vars",
            "x,y",
            "--ideal",
            "(x - 1, y - 2)",
            "--point",
            "1,2",
        )
        assert code == 0
        assert json.loads(out)["rational_maximal"] is True

    def test_maximal_over_prime_field(self, capsys):
        code, out = run(
            capsys,
            "maximal",
            "--vars",
            "x",
            "--field",
            "F5",
            "--ideal",
            "(x - 2)",
            "--point",
            "2",
        )
        assert code == 0

    def test_encode_decode_round_trip(self, capsys):
        code, encoded = run(
            capsys, "encode", "--vars", "x", "--ideal", "(x)", "--d", "1"
        )
        assert code == 0
        code, out = run(capsys, "decode", "--code", encoded.strip())
        assert code == 0
        assert json.loads(out)["generators"] == ["x1"]

    def test_complexity(self, capsys):
        code, out = run(
            capsys, "complexity", "--vars", "x,y", "--ideal", "(x^3 + y)"
        )
        assert code == 0
        assert json.loads(out)["complexity"] == 3

    def test_unit_ideal_dim_is_structural(self, capsys):
        code, _ = run(capsys, "dim", "--vars", "x", "--ideal", "(x, x - 1)")
        assert code == 2

    def test_bad_field_flag(self, capsys):
        code, _ = run(capsys, "dim", "--vars", "x", "--field", "R", "--ideal", "(x)")
        assert code == 2


class TestOperandForms:
    @pytest.mark.parametrize(
        "operand, basis",
        [
            ("(x+1)*(y+1)", ["x*y + x + y + 1"]),
            ("((x+1)*(y+1))", ["x*y + x + y + 1"]),
            ("(x)*(y), (y)", ["y"]),
            ("((x)*(y), (y))", ["y"]),
        ],
    )
    def test_outer_parentheses_optional(self, capsys, operand, basis):
        code, out = run(capsys, "gb", "--vars", "x,y", "--ideal", operand)
        assert code == 0
        assert json.loads(out)["basis"] == basis


class TestOperandFiles:
    """"@file" reads an operand flag's value from a file, once and whole."""

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (("member", "--vars", "x,y", "--ideal", "(x)"), "--f", "x^2\n"),
            (("gb", "--vars", "x,y"), "--ideal", "(x^2 - y,\n x)\n"),
            (("radical-eq", "--vars", "x,y", "--ideal", "(x^2, y)"),
             "--radical", "(x, y)\n"),
            (("maximal", "--vars", "x,y", "--ideal", "(x - 1, y + 2)"),
             "--point", "1, -2\n"),
        ],
        ids=["f", "ideal", "radical", "point"],
    )
    def test_operand_read_from_a_file(self, capsys, tmp_path, argv, flag, text):
        path = tmp_path / "operand.txt"
        path.write_text(text, encoding="utf-8")
        code, out = run(capsys, *argv, flag, "@" + str(path))
        assert code == 0
        assert run(capsys, *argv, flag, text.strip()) == (0, out)

    def test_unreadable_operand_file(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        code = main(["gb", "--vars", "x", "--ideal", "@" + str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: cannot read operand file: [Errno 2] No such file or "
            f"directory: {str(path)!r}\n"
        )

    @pytest.mark.parametrize("operand", ["x,@f", "x, @f", "(x,@f)"])
    def test_generator_in_an_ideal_list_is_not_a_file(
        self, capsys, monkeypatch, tmp_path, operand
    ):
        (tmp_path / "f").write_text("y", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = main(["gb", "--vars", "x,y", "--ideal", operand])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: bad character '@' in polynomial text\n"


class TestDashOperands:
    """An operand that starts with "-" needs no "--flag=value" form."""

    @pytest.mark.parametrize(
        "argv, equals_form",
        [
            (
                ("member", "--vars", "x", "--f", "-x", "--ideal", "x"),
                ("member", "--vars", "x", "--f=-x", "--ideal", "x"),
            ),
            (
                ("gb", "--vars", "x", "--ideal", "-x"),
                ("gb", "--vars", "x", "--ideal=-x"),
            ),
            (
                ("maximal", "--vars", "x,y", "--ideal", "(x + 1, y + 2)",
                 "--point", "-1,-2"),
                ("maximal", "--vars", "x,y", "--ideal", "(x + 1, y + 2)",
                 "--point=-1,-2"),
            ),
        ],
        ids=["member", "gb", "maximal"],
    )
    def test_operand_starting_with_minus(self, capsys, argv, equals_form):
        code, out = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *equals_form) == (0, out)

    def test_option_string_is_not_an_operand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gb", "--vars", "x", "--ideal", "--field", "F7"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestInputBounds:
    """Oversize inputs exit 2 promptly instead of expanding."""

    SIX = "a,b,c,d,e,f"

    def _refused(self, capsys, *argv):
        t0 = time.monotonic()
        code, out = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert time.monotonic() - t0 < 2

    def test_large_power_refused(self, capsys):
        self._refused(
            capsys, "complexity", "--vars", "a,b,c,d", "--ideal", "((a+b+c+d)^40)"
        )

    def test_large_written_out_product_refused(self, capsys):
        operand = "(" + "*".join(["(a+b+c+d)"] * 40) + ")"
        self._refused(capsys, "complexity", "--vars", "a,b,c,d", "--ideal", operand)

    def test_long_power_of_binomial_refused(self, capsys):
        # (x+1)^4000 has only 4001 terms, but squaring up to it is the cost
        self._refused(capsys, "complexity", "--vars", "x", "--ideal", "(x+1)^4000")

    def test_long_power_through_substitution_refused(self, capsys, tmp_path):
        case = json.loads((CASES / "square_root.json").read_text())
        case["system"]["equations"] = [
            [{"coeff": "1", "exps": [3000, 0]}, {"coeff": "-1", "exps": [0, 2]}]
        ]
        case["witness"]["x"] = [
            [{"coeff": "1", "exps": [1]}, {"coeff": "1", "exps": [0]}]
        ]
        path = tmp_path / "long_power.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        self._refused(capsys, "verify", str(path), "--char0")

    def test_power_coefficients_through_substitution_refused(self, capsys, tmp_path):
        # (2*T)^3000000000 doubles a coefficient's size on every squaring
        case = json.loads((CASES / "square_root.json").read_text())
        case["system"]["equations"] = [[{"coeff": "1", "exps": [3000000000, 0]}]]
        case["witness"]["x"] = [[{"coeff": "2", "exps": [1]}]]
        path = tmp_path / "power.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        t0 = time.monotonic()
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: power coefficients could pass {POWER_BIT_CAP} bits\n"
        assert time.monotonic() - t0 < 2

    def test_moderate_power_answers(self, capsys):
        code, out = run(
            capsys, "complexity", "--vars", "a,b,c,d", "--ideal", "((a+b+c+d)^20)"
        )
        assert code == 0
        assert json.loads(out)["complexity"] == 20

    def _refused_in_child(self, *argv):
        # a child process with a timeout: a run that never stops fails
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "gbtransfer.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert time.monotonic() - t0 < 2

    def test_high_degree_member_over_fp_refused(self):
        self._refused_in_child(
            "member", "--vars", "x", "--field", "F32003",
            "--f", "x^100000000", "--ideal", "x - 2",
        )

    def test_high_degree_member_over_q_refused(self):
        self._refused_in_child(
            "member", "--vars", "x", "--f", "x^1000000", "--ideal", "x - 2"
        )

    def test_division_past_the_degree_cap_refused(self, capsys):
        # x^100 against x^2 - 1 writes x^98 on its first step
        self._refused(
            capsys, "member", "--vars", "x", "--f", "x^100", "--ideal", "x^2 - 1"
        )

    def test_radical_power_search_budget(self):
        # the square of the 455-term generator alone passes PRODUCT_BUDGET
        self._refused_in_child(
            "radical-eq", "--vars", "a,b,c,d",
            "--ideal", "a*(a+b+c+d)^12", "--radical", "(a+b+c+d)^12",
        )

    def test_zero_denominator_refused(self, capsys):
        self._refused(capsys, "gb", "--vars", "x", "--ideal", "1/0")

    @pytest.mark.parametrize("rows", [5, [[1, 5], [0, 0]]])
    def test_malformed_code_rows_refused(self, capsys, rows):
        code = {
            "complexity": 1, "field": {"Fp": 7}, "nvars": 1,
            "order": "grevlex", "rows": rows,
        }
        self._refused(capsys, "decode", "--code", json.dumps(code))

    def test_probe_degree_bound_refused(self, capsys):
        self._refused(
            capsys, "prime-probe", "--vars", self.SIX, "--ideal", "(a)",
            "--degree-bound", "30",
        )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--probe-trials", "10001"),
            ("--probe-trials", "0"),
            ("--probe-trials", "-5"),
            ("--probe-degree", "0"),
            ("--exponent-cap", "0"),
        ],
    )
    def test_caps_refused_without_a_domain_claim(self, capsys, flag, value):
        # fp_nilpotent claims no domain, so no probe would check the caps
        case = str(CASES / "fp_nilpotent.json")
        assert run(capsys, "verify", case)[0] == 0
        self._refused(capsys, "verify", case, flag + "=" + value)

    @pytest.mark.parametrize("d", ["8", "16"])
    def test_oversize_code_refused(self, capsys, d):
        self._refused(capsys, "encode", "--vars", self.SIX, "--ideal", "(a)", "--d", d)

    @pytest.mark.parametrize(
        "operand",
        ["(" * 300 + "x" + ")" * 300, "-" * 1000 + "x"],
        ids=["parentheses", "minus_signs"],
    )
    def test_deep_nesting_refused(self, capsys, operand):
        self._refused(capsys, "gb", "--vars", "x", "--ideal=" + operand)

    def test_huge_prime_range_refused(self, capsys):
        self._refused(
            capsys, "sweep", str(CASES / "hyperbola.json"),
            "--primes", "2..1000000000000",
        )

    def test_huge_code_header_refused(self, capsys):
        header = {
            "complexity": 300000, "field": "Q", "nvars": 300000,
            "order": "grevlex", "rows": [],
        }
        t0 = time.monotonic()
        code = main(["decode", "--code", json.dumps(header)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"passes {CODE_CELL_CAP} cells" in captured.err
        assert time.monotonic() - t0 < 1

    def test_many_variable_dimension_refused(self, capsys):
        names = ",".join(f"x{i}" for i in range(1, 27))
        with mock.patch.object(predicates, "SUBSET_BUDGET", 1000):
            self._refused(capsys, "dim", "--vars", names, "--ideal", names)
            self._refused(capsys, "height", "--vars", names, "--ideal", names)

    @pytest.mark.parametrize("command", ["dim", "gb"])
    def test_duplicate_variable_names_refused(self, capsys, command):
        self._refused(capsys, command, "--vars", "x,y,x", "--ideal", "x*y - 1")

    def _refused_within_a_second(self, capsys, *argv):
        t0 = time.monotonic()
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"more than {NVARS_CAP} variables" in captured.err
        assert time.monotonic() - t0 < 1

    def test_too_many_variable_names_refused(self, capsys):
        names = ",".join(f"x{i}" for i in range(20000))
        self._refused_within_a_second(
            capsys, "complexity", "--vars", names, "--ideal", "x0"
        )

    def test_probe_on_the_most_variables_answers(self, capsys):
        # the probe lists every monomial of degree <= 1 in NVARS_CAP variables
        names = ",".join(f"x{i}" for i in range(NVARS_CAP))
        code, out = run(
            capsys, "prime-probe", "--vars", names, "--ideal", "x0*x1 - 1",
            "--degree-bound", "1",
        )
        assert code == 0
        assert json.loads(out)["status"] == "probably_prime"

    def test_huge_system_variable_count_refused(self, capsys, tmp_path):
        case = json.loads((CASES / "square_root.json").read_text())
        case["system"]["n"] = 10 ** 9
        path = tmp_path / "huge_n.json"
        path.write_text(json.dumps(case), encoding="utf-8")
        self._refused_within_a_second(capsys, "verify", str(path))

    DEEP = "[" * 100000 + "]" * 100000

    def test_deeply_nested_code_refused(self, capsys, tmp_path):
        self._refused(capsys, "decode", "--code", self.DEEP)
        path = tmp_path / "deep_code.json"
        path.write_text(self.DEEP, encoding="utf-8")
        self._refused(capsys, "decode", "--code", "@" + str(path))

    def test_deeply_nested_case_refused(self, capsys, tmp_path):
        path = tmp_path / "deep_case.json"
        path.write_text(self.DEEP, encoding="utf-8")
        self._refused(capsys, "verify", str(path))

    def test_huge_point_power_answers(self):
        # maximality is read off the basis: 3^100000000 is never formed
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [
                sys.executable, "-m", "gbtransfer.cli", "maximal", "--vars", "x",
                "--ideal", "x^100000000 - 1", "--point", "3",
            ],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["rational_maximal"] is False

    def test_maximal_past_a_kernel_cap_refused(self, capsys):
        # x^70 - y does not vanish at (5, 5), but the basis passes
        # DEGREE_CAP: maximal exits 2 like gb on the same ideal
        for argv in (("gb",), ("maximal", "--point", "5,5")):
            self._refused(
                capsys, *argv, "--vars", "x,y", "--ideal", "x^70 - y, x^2 - 1"
            )


class TestCapsDefaults:
    @pytest.mark.parametrize(
        "command", [["verify", "c.json"], ["sweep", "c.json", "--primes", "2..3"]]
    )
    def test_parsed_defaults_equal_caps(self, command):
        args = _build_parser().parse_args(command)
        assert _caps_from_args(args) == Caps()

    def test_flags_reach_every_caps_field(self):
        args = _build_parser().parse_args(
            ["verify", "c.json", "--exponent-cap", "3", "--probe-trials", "7",
             "--probe-degree", "4", "--seed", "9"]
        )
        assert _caps_from_args(args) == Caps(3, 7, 4, 9)

    def test_ideal_command_defaults_equal_caps(self):
        parse = _build_parser().parse_args
        caps = Caps()
        args = parse(["radical-eq", "--vars", "x", "--ideal", "x", "--radical", "x"])
        assert args.cap == caps.exponent_cap
        args = parse(["prime-probe", "--vars", "x", "--ideal", "x"])
        assert (args.trials, args.degree_bound, args.seed) == (
            caps.probe_trials, caps.probe_degree, caps.seed
        )

    def test_no_flags_give_the_documented_defaults(self):
        parse = _build_parser().parse_args
        defaults = {
            "exponent_cap": 16, "probe_trials": 200, "probe_degree": 2, "seed": 0
        }
        for command in (["verify", "c.json"], ["sweep", "c.json", "--primes", "2..3"]):
            caps = _caps_from_args(parse(command))
            assert caps == Caps() and caps._asdict() == defaults
        args = parse(["radical-eq", "--vars", "x", "--ideal", "x", "--radical", "x"])
        assert args.cap == 16
        args = parse(["prime-probe", "--vars", "x", "--ideal", "x"])
        assert (args.trials, args.degree_bound, args.seed) == (200, 2, 0)


class TestImportCost:
    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # each costs milliseconds at every CLI start; -S keeps site's own
        # imports out of the check
        code = (
            "import sys, gbtransfer.cli; "
            "bad = {'dataclasses', 'inspect'} & set(sys.modules); "
            "print(sorted(bad)); sys.exit(bool(bad))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class TestErrorTypes:
    def test_structural_errors_are_value_errors(self):
        # the CLI maps every ValueError to exit 2
        for exc in (
            CaseFormatError, AmbientMismatch, BadPrime, NotContained,
            UnitIdeal, ComplexityExceeded, DegenerateGenerator,
        ):
            assert issubclass(exc, ValueError), exc


def _edited_case(tmp_path, keys, value) -> str:
    """square_root.json with the entry under keys set to value, as a file."""
    case = json.loads((CASES / "square_root.json").read_text())
    obj = case
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(case), encoding="utf-8")
    return str(path)


COEFF = ("system", "equations", 0, 0, "coeff")
NO_COEFF = "system.equations[0][0]: coefficients must be exact strings"


class TestRefusals:
    """Each input check the CLI reaches: its exit code and exact stderr.

    With an edit, argv[1] is square_root.json with (keys, value) applied.
    """

    @pytest.mark.parametrize("argv, edit, code, err", [
        (("verify",), (("ring",), []), 2, "ring must be a JSON object"),
        # an integer coefficient reads as its string
        (("verify",), (COEFF, 1), 0, None),
        (("verify",), (COEFF, True), 2, NO_COEFF),
        (("verify",), (COEFF, 1.0), 2, NO_COEFF),
        (("verify",), (COEFF, None), 2, NO_COEFF),
        (("verify",), (COEFF, ["1"]), 2, NO_COEFF),
        (("verify",), (COEFF[:3], {}), 2,
         "system.equations[0] must be a list of terms"),
        (("verify",), (COEFF, "abc"), 2,
         "system.equations[0][0]: not an exact rational literal: 'abc'"),
        (("verify",), (("system", "n"), "1"), 2,
         "system.n and system.r must be non-negative ints"),
        (("verify",), (("system", "equations"), {}), 2,
         "system.equations must be a list"),
        (("verify",), (COEFF, "1/2"), 2,
         "system: system coefficients must be integers"),
        (("verify",), (("witness", "I"), {}), 2,
         "witness.I must be a list of polynomials"),
        (("verify",), (("witness", "b"), "0"), 2,
         "witness.b must be null or a coordinate list"),
        (("verify",), (("witness", "b"), ["abc"]), 2,
         "witness.b: not an exact rational literal: 'abc'"),
        (("verify",), (("witness", "domain_claim"), 1), 2,
         "witness.domain_claim must be a boolean"),
        (("verify",), (("ring", "order"), "deglex"), 2,
         "unknown monomial order 'deglex'"),
        (("verify", "--prime", "3"), (("witness", "m", 0, 0, "coeff"), "3"), 2,
         "generator 3*T vanishes mod 3"),
        (("gb", "--vars", ",", "--ideal", "x"), None, 2,
         "--vars needs a comma-separated name list"),
        (("gb", "--vars", "x", "--ideal", "( , )"), None, 2,
         "empty ideal operand"),
        (("maximal", "--vars", "x", "--ideal", "x", "--point", "abc"), None, 2,
         "bad point: not an exact rational literal: 'abc'"),
        (("maximal", "--vars", "x,y", "--ideal", "x", "--point", "1"), None, 2,
         "point length does not match --vars"),
        (("sweep", str(CASES / "square_root.json"), "--primes", "a,b"), None, 2,
         '--primes takes "LO..HI" or a comma-separated list'),
        (("member", "--vars", "x", "--ideal", "x", "--f", "x)"), None, 2,
         "unexpected ')' in polynomial text"),
        (("member", "--vars", "x,y", "--ideal", "x", "--f", "x^y"), None, 2,
         "exponent must be a non-negative integer"),
        (("member", "--vars", "x", "--ideal", "x", "--f", "1/x"), None, 2,
         "denominator must be an integer"),
        (("member", "--vars", "x", "--ideal", "x", "--f", "(x"), None, 2,
         "unbalanced parenthesis"),
        (("member", "--vars", "x", "--ideal", "x", "--f", "*x"), None, 2,
         "unexpected token '*' in polynomial text"),
        (("decode", "--code", json.dumps({
            "complexity": 0, "field": "Q", "nvars": 0, "order": "grevlex",
            "rows": [],
        })), None, 2, "need at least one variable"),
        (("encode", "--vars", "x,y", "--ideal", "x", "--d", "1"), None, 2,
         "complexity bound 1 exceeded: 2 variables force complexity >= 2"),
        (("decode", "--code", json.dumps({
            "complexity": 1, "field": "Q", "nvars": 1, "order": "deglex",
            "rows": [],
        })), None, 2, "unknown monomial order 'deglex'"),
        (("decode", "--code", '{"rows": []}'), None, 2, "malformed code object"),
        (("verify",), (("witness", "b"), [0.5]), 2,
         "witness.b[0]: coefficients must be exact strings"),
        (("verify",), (("ring", "order"), ["lex"]), 2,
         "unknown monomial order ['lex']"),
        (("verify",), (("ring", "order"), None), 2,
         "unknown monomial order None"),
        (("decode", "--code", json.dumps({
            "complexity": 1, "field": "Q", "nvars": 1, "order": ["lex"],
            "rows": [],
        })), None, 2, "unknown monomial order ['lex']"),
        *[(("member", "--vars", "x", "--ideal", "x", "--f", f), None, 2,
           "unexpected end of polynomial text")
          for f in ("", "x +", "x -", "x*", "-")],
    ])
    def test_exit_code_and_message(self, capsys, tmp_path, argv, edit, code, err):
        if edit is not None:
            argv = (argv[0], _edited_case(tmp_path, *edit), *argv[1:])
        got = main(list(argv))
        captured = capsys.readouterr()
        if err is None:
            assert (got, captured.err) == (code, "")
            plain = argv[0], str(CASES / "square_root.json"), *argv[2:]
            assert run(capsys, *plain) == (code, captured.out)
        else:
            assert (got, captured.out, captured.err) == (code, "", f"error: {err}\n")


class TestParseCase:
    def test_round_trip_all_bundled_cases(self):
        for path in sorted(CASES.glob("*.json")):
            if path.name == "expected.json":
                continue
            parse_case(json.loads(path.read_text()))

    def test_missing_witness_key(self):
        case = json.loads((CASES / "square_root.json").read_text())
        del case["witness"]["claimed_n"]
        with pytest.raises(CaseFormatError):
            parse_case(case)

    def _base(self):
        return json.loads((CASES / "square_root.json").read_text())

    def test_nested_unknown_key_rejected(self):
        case = self._base()
        case["ring"]["extra"] = True
        with pytest.raises(CaseFormatError):
            parse_case(case)

    def test_wrong_point_length_rejected(self):
        case = self._base()
        case["witness"]["b"] = ["0", "1"]
        with pytest.raises(CaseFormatError):
            parse_case(case)

    def test_wrong_exps_length_rejected(self):
        case = self._base()
        case["witness"]["m"][0][0]["exps"] = [1, 0]
        with pytest.raises(CaseFormatError):
            parse_case(case)

    def test_duplicate_variable_names_rejected(self):
        case = self._base()
        case["ring"]["vars"] = ["T", "T"]
        with pytest.raises(CaseFormatError):
            parse_case(case)

    def test_negative_claimed_n_rejected(self):
        case = self._base()
        case["witness"]["claimed_n"] = -1
        with pytest.raises(CaseFormatError):
            parse_case(case)

    def test_negative_exponent_rejected(self):
        case = self._base()
        case["witness"]["m"][0][0]["exps"] = [-1]
        with pytest.raises(CaseFormatError):
            parse_case(case)
