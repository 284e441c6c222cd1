#!/usr/bin/env python3
"""Regenerate ``pins.json``: the pinned answers of every pool entry.

    python3 perfbench/pin.py

Runs every call any plan can make, once, through ``awfskit.cli.main`` and
records the digest of its exit code, stdout and stderr and the SHA-256 of
its certificate; for each certify certificate it also pins a few lift
problems drawn from its lift table.  The certificate bytes
(``certificate-v1``) and the verify reports are part of the behaviour
contract, so rerun this only in a change that alters them on purpose, and
say so in its changelog entry.  Every known-answer check of the benchmark
must pass on the freshly pinned outputs, or nothing is written.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile

import run
import workloads as w


def pool_jobs(inp: w.Inputs):
    """Every job whose calls carry a pin, covering each pool entry once."""
    for (kind, b, v), a in w.certify_pool().items():
        key = f"b{b}v{v}"
        yield w.certify_job(inp, kind, key, a, inp.pins.get(f"certify/{kind}/{key}/lifts", []))
    for a in w.ABC_CHAIN_MAPS:
        yield w.abc_chain_job(inp, a)
    yield w.growth_job(inp)
    for v, a in enumerate(w.large_pool()):
        yield w.large_job(inp, v, a)
    for a in w.ABC_BUDGET_MAPS:
        yield w.budget_job(inp, a)
    for pres in w.KAPPA_PRESENTATIONS:
        pairs = w.light_pairs(pres) + (w.heavy_pairs() if pres == "gen_abc" else [])
        for pair in pairs:
            yield w.Job("oracle/kappa", [w.kappa_call(inp, pres, pair)])
    for pres, a in w.initiality_pool():
        yield w.initiality_job(inp, pres, a)
    yield w.probe_job(inp)


def pick_lifts(kind: str, key: str, cert_path: str) -> list:
    cert = json.loads(w.Path(cert_path).read_text(encoding="utf-8"))
    records = [[r["generator"], r["top"], r["bot"]] for r in cert["lift_table"]]
    rng = random.Random(f"lifts:{kind}:{key}")
    return rng.sample(records, min(w.LIFTS_PER_JOB, len(records)))


def main() -> int:
    run.require_checkout()
    run.WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pin-", dir=run.WORK)
    try:
        pins: dict = {}
        inp = w.Inputs(f"{tmp}/inputs", pins)
        inp.presentations()
        keep = w.Path(tmp) / "certificates"
        keep.mkdir()
        # first pass: the certificates, then the lift problems drawn from them
        for job in pool_jobs(inp):
            for call in job.calls:
                oc = run.invoke(call, keep)
                if call.pin:
                    pins[call.pin] = oc.digest()
                if job.label.startswith("certify/") and call.kind == "factor":
                    kind, key = call.pin.split("/")[1:3]
                    pins[f"certify/{kind}/{key}/lifts"] = pick_lifts(kind, key, call.out)
        # second pass: every check of the benchmark, on the pinned answers
        jobs = []
        for job in pool_jobs(inp):
            done, cert_sha = [], None
            for call in job.calls:
                oc = run.invoke(call, keep)
                if call.kind == "factor":
                    cert_sha = oc.out_sha
                elif call.kind == "lift":
                    oc.cert_sha = cert_sha
                done.append((call, oc))
            jobs.append((job.label, done))
        attempted, failed, notes = run.check_jobs(jobs, pins, keep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    if failed:
        print(f"{failed} of {attempted} calls fail their known answers; pins not written",
              file=sys.stderr)
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())]
    w.PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(pins)} answers; {attempted} calls pass every check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
