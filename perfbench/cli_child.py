"""Traced stand-in for ``python -m gbtransfer.cli``.

Runs the CLI in this process with the span tracer installed, then writes
the span table as the last line of standard error, after the CLI's own
output.  Standard output and the exit code are the CLI's own.
"""

import json
import sys
import time

import spans

t0 = time.perf_counter()
import gbtransfer.cli  # noqa: E402

import_s = time.perf_counter() - t0

tracer = spans.Tracer()
tracer.install()
try:
    code = gbtransfer.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
sys.stdout.flush()
snap = tracer.snapshot()
snap["extra"]["cli.import.calls"] = 1
snap["extra"]["cli.import.total_s"] = import_s
print("PERFBENCH-SPANS " + json.dumps(snap), file=sys.stderr)
sys.exit(code)
