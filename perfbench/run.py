"""Closed-loop benchmark of gbtransfer, driven through its public API and CLI.

One client runs one operation at a time; the next starts when the previous
one returns.  Every operation starts with a cold basis cache, as a CLI run
does, and its output is checked.  Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-probe --seed 1 --seconds 20 --trace 0

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of rounds twice, untraced then traced,
checks that both passes give identical bytes, writes the span table to
``perfbench/out/`` and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CASES = ROOT / "cases"
OUT = BENCH / "out"

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 60
# Rough seconds per untraced round at the first baseline.  A traced run
# uses TRACE_SHARE * seconds / NOMINAL_ROUND_S rounds, a count that depends
# only on --seconds, so call counts compare exactly across commits.
NOMINAL_ROUND_S = {
    "sweep-probe": 0.8,
    "sweep-lift": 0.9,
    "kernel-fp": 0.6,
    "kernel-q": 1.2,
    "cli": 4.0,
}
TRACE_SHARE = 0.4

# On a host whose cores are shared, the speed of one CPU drifts by up to 2x
# within seconds, and process CPU time drifts with it.  Every reported time
# is therefore rescaled to a reference speed: measured seconds * CAL_REF_S /
# (time of a fixed interpreter loop run just before and just after it).
# On a quiet 2-core x86-64 host with Python 3.11 the loop takes about 2 ms,
# so rescaled times read as seconds on such a host.  Run-to-run spread
# drops from about 0.4 to under 0.1 of the median.
CAL_REF_S = 0.002

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout does not hold a program the benchmark can drive."""


def _calibration_loop() -> float:
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        acc = Fraction(0)
        for i in range(3000):
            k = (i % 7, i % 5, i % 3)
            counts[k] = counts.get(k, 0) + i * 3 % 11
            if i % 10 == 0:
                acc += Fraction(i, 7)
        sorted(counts, key=lambda t: (sum(t), t))
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class Gauge:
    """Scale factor from measured seconds to seconds at reference speed."""

    def __init__(self) -> None:
        self.last = _calibration_loop()

    def scale(self) -> float:
        """Call right after a timed section; calibrates on both sides of it."""
        now = _calibration_loop()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def import_program():
    """Import gbtransfer from this checkout's src/, never from elsewhere."""
    if not (SRC / "gbtransfer" / "__init__.py").is_file():
        raise SetupError(f"no gbtransfer package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gbtransfer" or m.startswith("gbtransfer.")]:
        del sys.modules[name]
    gt = importlib.import_module("gbtransfer")
    cli = importlib.import_module("gbtransfer.cli")
    if Path(gt.__file__).resolve().parent != (SRC / "gbtransfer").resolve():
        raise SetupError(f"gbtransfer imported from {gt.__file__}, not {SRC}")
    return gt, cli


@dataclasses.dataclass
class Program:
    gt: object
    cli: object
    inputs: dict
    expected: dict


def set_up(workload: str) -> Program:
    """Import the program and parse every input the workload can use."""
    gt, cli = import_program()
    inputs: dict = {}
    expected: dict = {}
    if workload.startswith("sweep"):
        table = json.loads((CASES / "expected.json").read_text(encoding="utf-8"))
        raw = {
            c: json.loads((CASES / f"{c}.json").read_text(encoding="utf-8"))
            for c in gen.CASES
        }
        if workload == "sweep-probe":
            for c in gen.CASES:
                inputs[("probe", c)] = cli.parse_case(raw[c])
                expected[("probe", c)] = table[f"{c}.json"]
        else:
            for c in gen.CASES:
                obj = json.loads(json.dumps(raw[c]))
                obj["witness"]["domain_claim"] = False
                inputs[("lift", c)] = cli.parse_case(obj)
                expected[("lift", c)] = table[f"{c}.json"]
            base = table["square_root.json"]
            for k, (p, q) in enumerate(gen.SCALE_PAIRS):
                inputs[("scaled", k)] = cli.parse_case(
                    gen.scaled_case(raw["square_root"], p, q)
                )
                expected[("scaled", k)] = dict(base, bad_primes=[p, q])
    elif workload.startswith("kernel"):
        field = gt.PrimeField(gen.KERNEL_P) if workload == "kernel-fp" else gt.QQ
        for name in gen.KERNEL_IDEALS:
            names, gens = gen.kernel_generators(name)
            ring = gt.PolyRing(field, len(names), gt.GREVLEX, names)
            inputs[name] = gt.IdealPresentation(
                ring, tuple(gt.parse_polynomial(g, ring) for g in gens)
            )
    else:
        for c in gen.CASES:
            cli.load_case(str(CASES / f"{c}.json"))
    return Program(gt, cli, inputs, expected)


def check_sweep(report, primes: list[int], exp: dict) -> list[str]:
    bad = set(exp["bad_primes"])
    problems = []
    if report.char0_d != exp["char0_d"]:
        problems.append(f"char0_d {report.char0_d} != {exp['char0_d']}")
    if [p for p, _ in report.bad_primes] != [p for p in primes if p in bad]:
        problems.append("bad primes in the window differ")
    if [o.p for o in report.per_prime] != [p for p in primes if p not in bad]:
        problems.append("not one outcome per good prime")
    if report.all_passed() != exp["passes"]:
        problems.append("verdict differs")
    if report.uniform_d is None or report.uniform_d > report.char0_d:
        problems.append(f"uniform_d {report.uniform_d} > char0_d")
    return problems


class Runner:
    """Runs one operation and returns (seconds, work units, output bytes)."""

    def __init__(self, prog: Program, traced_children: bool = False):
        self.prog = prog
        self.traced_children = traced_children
        self.child_snapshots: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _cold(self) -> None:
        clear = getattr(self.prog.gt.groebner, "clear_cache", None)
        if clear is not None:
            clear()

    def __call__(self, op: tuple) -> tuple[float, int, bytes]:
        kind = op[0]
        if kind in ("probe", "lift", "scaled"):
            size = gen.PROBE_WINDOW if kind == "probe" else gen.LIFT_WINDOW
            primes = gen.window(op[2], size)
            system, witness = self.prog.inputs[op[:2]]
            self._cold()
            t0 = time.perf_counter()
            report = self.prog.gt.sweep(system, witness, primes)
            dt = time.perf_counter() - t0
            problems = check_sweep(report, primes, self.prog.expected[op[:2]])
            if problems:
                raise AssertionError("; ".join(problems))
            text = json.dumps(report.as_dict(), indent=2, sort_keys=True)
            return dt, len(report.per_prime), text.encode()
        if kind == "kernel":
            pres = self.prog.inputs[op[2]]
            self._cold()
            t0 = time.perf_counter()
            basis = self.prog.gt.buchberger(pres).basis
            dt = time.perf_counter() - t0
            text = "\n".join(self.prog.gt.format_polynomial(g) for g in basis)
            return dt, 1, text.encode()
        if self.traced_children:
            argv = [sys.executable, str(BENCH / "cli_child.py"), *op[1:]]
        else:
            argv = [sys.executable, "-m", "gbtransfer.cli", *op[1:]]
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        dt = time.perf_counter() - t0
        if self.traced_children:
            last = proc.stderr.decode().rstrip("\n").rpartition("\n")[2]
            if not last.startswith("PERFBENCH-SPANS "):
                raise AssertionError("traced child wrote no span table")
            self.child_snapshots.append(json.loads(last[len("PERFBENCH-SPANS "):]))
        return dt, 1, f"exit {proc.returncode}\n".encode() + proc.stdout


class Checker:
    """Compares outputs against the recorded digests; counts failures."""

    def __init__(self, workload: str):
        ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        self.digests = ref["digests"][workload]
        self.attempted = 0
        self.failed = 0

    def run(self, runner: Runner, op: tuple):
        """(seconds, work, output) of op, or None when it failed."""
        self.attempted += 1
        key = gen.op_key(op)
        try:
            dt, work, out = runner(op)
        except Exception as exc:  # any failure of the program counts
            self._fail(key, f"{type(exc).__name__}: {exc}")
            return None
        want = self.digests.get(key)
        if want != digest(out):
            self._fail(key, f"output digest {digest(out)} != recorded {want}")
            return None
        return dt, work, out

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL {key.replace(gen.KEY_SEP, ' ')}: {why}", file=sys.stderr)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu(workload: str) -> None:
    """Keep the kernel and CLI workloads, and their children, on one CPU.

    The two CPUs of the host run at different speeds at any moment, and a
    process that waits on a child often resumes on the other one; pinned,
    the calibration loop measures the CPU the timed work runs on.  The
    sweeps stay unpinned so that a parallel default job count can show.
    """
    if workload.startswith("sweep") or not hasattr(os, "sched_setaffinity"):
        return
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(workload: str, seed: int, seconds: float) -> dict:
    gauge = Gauge()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prog = set_up(workload)
        setup_times.append((time.perf_counter() - t0) * gauge.scale())
    checker = Checker(workload)
    runner = Runner(prog)
    latencies: list[float] = []
    raw: list[float] = []
    rates: list[float] = []
    rounds = gen.rounds(workload, seed)
    gauge = Gauge()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        busy = work = 0
        for op in next(rounds):
            res = checker.run(runner, op)
            factor = gauge.scale()
            if res is not None:
                raw.append(res[0])
                latencies.append(res[0] * factor)
                busy += res[0] * factor
                work += res[1]
        if busy:
            rates.append(work / busy)
    if len(latencies) < 2:
        raise SetupError("too few successful operations to report latency")
    print(
        f"{workload} seed={seed}: {len(latencies)} ops in {len(rates)} rounds, "
        f"{checker.failed} failed; {len(setup_times)} setups; unscaled op p50 "
        f"{statistics.median(raw):.4f} s, scaled {statistics.median(latencies):.4f} s",
        file=sys.stderr,
    )
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[8],
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
        },
    }


def trace_rounds(workload: str, seconds: float) -> int:
    return max(1, round(TRACE_SHARE * seconds / NOMINAL_ROUND_S[workload]))


def run_pass(checker: Checker, runner: Runner, ops: list[tuple]):
    """Outputs of ops, their summed time, and that time at reference speed."""
    outputs, busy, scaled = [], 0.0, 0.0
    gauge = Gauge()
    for op in ops:
        res = checker.run(runner, op)
        factor = gauge.scale()
        outputs.append(None if res is None else res[2])
        if res is not None:
            busy += res[0]
            scaled += res[0] * factor
    return outputs, busy, scaled


def trace(workload: str, seed: int, seconds: float) -> dict:
    prog = set_up(workload)
    checker = Checker(workload)
    rounds = gen.rounds(workload, seed)
    ops = [op for _ in range(trace_rounds(workload, seconds)) for op in next(rounds)]

    plain, _, wall_plain = run_pass(checker, Runner(prog), ops)
    tracer = spans.Tracer()
    runner = Runner(prog, traced_children=workload == "cli")
    tracer.install()
    try:
        traced, traced_raw, wall_traced = run_pass(checker, runner, ops)
    finally:
        tracer.uninstall()
    mismatched = sum(
        1 for a, b in zip(plain, traced) if a is not None and b is not None and a != b
    )
    if mismatched:
        print(f"FAIL {mismatched} traced outputs differ from untraced", file=sys.stderr)
    snap = spans.merge([tracer.snapshot(), *runner.child_snapshots])
    overhead = wall_traced / wall_plain - 1.0 if wall_plain else 0.0

    OUT.mkdir(exist_ok=True)
    table = dict(snap, workload=workload, seed=seed, ops=len(ops),
                 untraced_s=wall_plain, traced_s=wall_traced)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    # Span times are rescaled to reference speed like the end-to-end ones.
    time_scale = wall_traced / traced_raw if traced_raw else 1.0
    values = spans.layer_metrics(snap, overhead, time_scale)
    units = {name: unit for name, unit, _ in spans.metric_specs()}
    failed = checker.failed + mismatched
    return {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu(args.workload)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
