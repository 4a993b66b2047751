"""The standalone case oracle agrees with the bundled case files."""

import subprocess
import sys
from pathlib import Path

ORACLE = Path(__file__).resolve().parent.parent / "cases" / "check_cases.py"


def test_check_cases_passes():
    proc = subprocess.run(
        [sys.executable, str(ORACLE)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok: 9 cases checked" in proc.stdout
