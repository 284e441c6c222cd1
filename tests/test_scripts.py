"""Smoke test of the scripts under ``scripts/`` on the shipped fixtures.

Each script runs in a fresh interpreter with ``src`` on the path, so a
kernel name a script imports that no longer exists fails here.  The
cases are the smallest runs that reach each script's summary line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

CASES = [
    pytest.param(["kappa_sweep.py", "--bound", "0"], 0, "swept 1 pairs, 0 failures",
                 id="kappa_sweep"),
    pytest.param(["kappa_sweep.py", "--presentation", str(FIXTURES / "gen_abc.json"),
                  "--bound", "1"], 0, "swept 9 pairs, 0 failures",
                 id="kappa_sweep-abc"),
]


@pytest.mark.parametrize("argv, code, line", CASES)
def test_script_runs_to_its_summary(argv, code, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == code, run.stderr
    assert line in run.stdout.splitlines()
