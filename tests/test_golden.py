"""Byte-identity of everything the command line writes, against recorded digests.

Each case runs ``factor --max-stage 4 --out --trace`` on one presentation,
mode and map through ``awfskit.cli.main`` and, when factor exits 0,
``verify --out`` on the certificate it wrote.  The SHA-256 of every exit
code, stdout, stderr and written file is compared with ``golden.json``, so
any change to the canonical numbering, the certificate bytes, the trace
or the verify report shows up here.  The cases span exit codes 0 to 3,
and two presentations, ``gen_uniform2`` and ``pair_square``, have
connecting squares.

Inputs are copied under fixed names into a scratch directory, so no digest
depends on where the repository lives.  To record new digests after an
intended change of output, run ``python tests/test_golden.py --write``
with ``src`` on ``PYTHONPATH`` and say in the change log why they moved.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from awfskit.cli import main
from awfskit.serialize import encode_presentation, write_json

from fixture_lib import pair_square_pres, two_gen_plain_pres

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
PRESENTATIONS = ["gen_abc", "gen_composite", "gen_growth", "gen_split_epi", "two_gen_plain",
                 "gen_uniform2", "pair_square"]
MODES = ["plain", "special"]
MAPS = ["f_0to1", "f_1to1", "f_2to3", "f_3to2"]
# Maps drawn from a fixed seed, for cases whose lift tables run to thousands
# of records: name -> (domain size, codomain size, seed).
SEEDED_MAPS = {"r600to60": (600, 60, 600)}
# Presentations built by ``fixture_lib`` rather than read from ``fixtures/``.
BUILT = {"two_gen_plain": two_gen_plain_pres, "pair_square": pair_square_pres}
CASES = [f"{p}-{m}-{f}" for p in PRESENTATIONS for m in MODES for f in MAPS]
CASES += [f"gen_composite-special-{f}" for f in SEEDED_MAPS]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _file_digest(path: str) -> str:
    return _digest(Path(path).read_bytes()) if os.path.exists(path) else "absent"


def run_case(case: str) -> dict:
    """Digests of one case, run in the current (empty) directory."""
    pres, mode, fmap = case.rsplit("-", 2)
    if pres in BUILT:
        write_json("pres.json", encode_presentation(BUILT[pres]()))
    else:
        Path("pres.json").write_bytes((ROOT / "fixtures" / f"{pres}.json").read_bytes())
    if fmap in SEEDED_MAPS:
        dom, cod, seed = SEEDED_MAPS[fmap]
        rng = random.Random(seed)
        write_json("map.json", {"dom": dom, "cod": cod,
                                "table": [rng.randrange(cod) for _ in range(dom)]})
    else:
        Path("map.json").write_bytes((ROOT / "fixtures" / f"{fmap}.json").read_bytes())
    code, out, err = _run([
        "factor", "--presentation", "pres.json", "--map", "map.json", "--mode", mode,
        "--max-stage", "4", "--out", "cert.json", "--trace", "trace.json",
    ])
    record = {
        "factor_exit": code,
        "factor_stdout": _digest(out.encode()),
        "factor_stderr": _digest(err.encode()),
        "certificate": _file_digest("cert.json"),
        "trace": _file_digest("trace.json"),
    }
    if code == 0:
        vcode, vout, verr = _run([
            "verify", "--presentation", "pres.json", "--certificate", "cert.json",
            "--out", "report.json",
        ])
        record.update({
            "verify_exit": vcode,
            "verify_stdout": _digest(vout.encode()),
            "verify_stderr": _digest(verr.encode()),
            "verify_report": _file_digest("report.json"),
        })
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case_and_exit_code(golden):
    assert sorted(golden) == sorted(CASES)
    assert {r["factor_exit"] for r in golden.values()} == {0, 1, 2, 3}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recorded_digests(case, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    here = os.getcwd()
    records = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            records[case] = run_case(case)
            os.chdir(here)
    GOLDEN.write_text(json.dumps(records, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
