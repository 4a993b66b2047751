"""Record the reference digest of every operation the generator can emit.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each operation once, untimed, through the same runner the benchmark
uses, and writes ``perfbench/reference.json``.  The benchmark counts an
operation whose output digest differs from this table as failed, so
re-record only when an output change is intended and has been checked.
Sweep outputs also pass the structural checks of ``run.check_sweep`` here.
"""

from __future__ import annotations

import json
import sys

import gen
import run


def record(workload: str) -> dict[str, str]:
    runner = run.Runner(run.set_up(workload))
    return {
        gen.op_key(op): run.digest(runner(op)[2]) for op in gen.all_ops(workload)
    }


def main(argv: list[str]) -> int:
    path = run.BENCH / "reference.json"
    ref = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"digest": "first 16 hex digits of SHA-256", "digests": {}}
    )
    for workload in argv or gen.WORKLOADS:
        ref["digests"][workload] = record(workload)
        print(f"{workload}: {len(ref['digests'][workload])} digests", file=sys.stderr)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
