#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size; exits non-zero on failure.

    python3 perfbench/smoke.py

Runs two cycles of every workload's light job classes on two seeds and
checks that:

* every call meets its known answer, and both seeds reach the same
  verdicts (exit codes and failed checks per job class) on different
  inputs;
* a deliberately corrupted expected answer (a pinned certificate digest, a
  carrier size, a verify label) is counted as a failed call, also in the
  result line of a full run;
* the traced run reaches the same outcomes, and every module has spans;
* in a directory holding only the benchmark, ``run.py`` exits non-zero
  without printing a result.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import run
import workloads as w
from tracing import MODULES, Tracer

SEEDS = (1, 2)
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def verdicts(jobs) -> set:
    """(job class, call kind, exit code, failed checks) seen in a run."""
    out = set()
    for label, done in jobs:
        for call, oc in done:
            fails = sorted({line.split()[1] for line in oc.stdout.splitlines()
                            if line.startswith("FAIL ")})
            out.add((label, call.kind, oc.code, tuple(fails)))
    return out


def tiny_run(workload: str, seed: int, tmp: Path, tracer=None):
    """Two cycles of the light job classes, traced if ``tracer`` is given."""
    inp = w.Inputs(tmp / f"{workload}-{seed}", w.load_pins())
    inp.presentations()
    plan = w.Plan(workload, seed, inp, tiny=True)
    keep = tmp / f"keep-{workload}-{seed}"
    keep.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        _, _, jobs = run.run_loop(plan, 0, keep, cycles=2, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return jobs, keep, inp.pins


def corrupted(pins: dict, pin: str) -> dict:
    """The pins with the certificate digest of ``pin`` flipped."""
    bad = dict(pins)
    code, text, cert = bad[pin]
    bad[pin] = [code, text, ("0" if cert[0] != "0" else "1") + cert[1:]]
    return bad


def main() -> int:
    run.require_checkout()
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    try:
        for workload in w.WORKLOADS:
            runs = {seed: tiny_run(workload, seed, tmp) for seed in SEEDS}
            for seed, (jobs, keep, pins) in runs.items():
                attempted, failed, notes = run.check_jobs(jobs, pins, keep)
                expect(failed == 0 and attempted > 0,
                       f"{workload} seed {seed}: {attempted} calls, {failed} failed {notes[:1]}")
            (jobs1, keep1, pins), (jobs2, _, _) = runs[SEEDS[0]], runs[SEEDS[1]]
            inputs = [[c.argv for _, done in jobs for c, _ in done] for jobs in (jobs1, jobs2)]
            expect(inputs[0] != inputs[1], f"{workload}: the seeds draw different inputs")
            expect(verdicts(jobs1) == verdicts(jobs2),
                   f"{workload}: the seeds reach the same verdicts")

            pinned = [c.pin for _, d in jobs1 for c, _ in d]
            first = next(c.pin for _, d in jobs1 for c, _ in d
                         if c.kind == "factor" and c.expect["exit"] == 0)
            _, failed, _ = run.check_jobs(jobs1, corrupted(pins, first), keep1)
            expect(failed == pinned.count(first),
                   f"{workload}: a corrupted certificate digest fails each call pinned to it")

            tracer = Tracer()
            traced, _, _ = tiny_run(workload, SEEDS[0], tmp / "traced", tracer)
            expect([oc.digest() for _, d in traced for _, oc in d]
                   == [oc.digest() for _, d in jobs1 for _, oc in d],
                   f"{workload}: traced outcomes equal untraced ones")
            metrics = tracer.metrics(len(traced))
            idle = [m for m in MODULES if not metrics[f"{m}.self_s"][0] > 0]
            expect(not idle and not tracer.missing,
                   f"{workload}: every module has spans (idle {idle}, not found {tracer.missing})")

        jobs, keep, pins = tiny_run("certify", SEEDS[0], tmp / "corrupt")
        for field, value, kinds in (("middle", -1, ("factor",)),
                                    ("fails", frozenset({"unit-law"}), ("verify",))):
            bad = copy.deepcopy(jobs)
            call = next(c for _, d in bad for c, _ in d
                        if c.kind in kinds and field in c.expect and c.expect[field] is not None)
            call.expect[field] = value
            _, failed, _ = run.check_jobs(bad, pins, keep)
            expect(failed == sum(c is call for _, d in bad for c, _ in d),
                   f"certify: a corrupted expected {field} fails each call that expects it")

        # a full run whose pins are corrupted reports the failure in its result line
        real = w.load_pins
        w.load_pins = lambda: corrupted(real(), "probe/factor")
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                run.main(["--workload", "deep_chain", "--seed", "3", "--seconds", "0"])
        finally:
            w.load_pins = real
        result = json.loads(out.getvalue().splitlines()[-1])
        expect(not result["correct"] and result["failed"] >= 1,
               f"a corrupted pin shows in the result line: failed {result['failed']} "
               f"of {result['attempted']}")
        values = {k: m["value"] for k, m in result["metrics"].items()}
        expect(all(v > 0 for v in values.values()),
               f"every end-to-end metric, scaled by the sampled host speed, is positive: {values}")

        bare = tmp / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        p = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=120)
        expect(p.returncode != 0 and "{" not in p.stdout,
               f"without the program run.py exits {p.returncode} and prints no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
