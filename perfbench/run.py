#!/usr/bin/env python3
"""Benchmark of the awfskit command line, run in process.

    python3 perfbench/run.py --workload {certify,deep_chain,oracle} \\
        --seed N --seconds S --trace {0,1}

One client runs a closed loop in this process and thread: each job is a
short sequence of calls to ``awfskit.cli.main(argv)``, the next starts
when the previous returns, and whole cycles of jobs run until ``--seconds``
have passed.  The inputs are generated during set-up into a temporary
directory under ``.perfbench/`` in the checkout; every output is checked
against a known answer after the timed loop (see ``workloads.py``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with times at the host's undisturbed speed (see ``hostspeed.py``); the
lines above it give the same latencies in wall time.  With ``--trace 1`` the same loop runs untraced for half of ``--seconds``,
then the same jobs run again with the spans and counters of
``tracing.py`` installed; the last line holds the per-layer metrics, and
the traced outcomes must equal the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import workloads as w
from hostspeed import Sampler, probe
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
# Fixed per workload, so that the tail is the same quantile on every run
# and every commit: the highest whole percentile with at least ten jobs
# beyond it in the shortest run measured when the benchmark was defined.
# Each lies inside one job class of the cycle (certify: the largest
# stratum; deep_chain: the two ~4000 -> 400 jobs; oracle: the probe, below
# the heavy kappa pair), not on a boundary between two classes.
TAIL_PERCENTILE = {"certify": 93, "deep_chain": 75, "oracle": 96}
VERDICT_KINDS = ("verify", "kappa", "initiality")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=w.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_checkout() -> None:
    """Exit without a result outside a checkout holding the program."""
    needed = ("src/awfskit/cli.py", "fixtures/gen_abc.json")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of awfskit, missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, decode the fixtures, and generate and write the
    seeded inputs; returns the plan of the closed loop."""
    import awfskit.cli  # noqa: F401  (the import is part of set-up time)

    inputs = w.Inputs(workdir, w.load_pins())
    inputs.presentations()
    return w.Plan(workload, seed, inputs)


def setup_seconds(workload: str, seed: int) -> float:
    """Median time of fresh processes that do only the set-up, from
    process start to the first job being ready, each at the host's
    undisturbed speed: its wall time times the mean of the host's speed
    just before and just after it (see hostspeed.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            before = probe()
            # no timeout: with one, the wait polls in steps of up to 50 ms
            t0 = perf_counter()
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--setup-probe", str(workdir)],
                check=True, stdout=subprocess.DEVNULL,
            )
            wall = perf_counter() - t0
            times.append(wall * (before + probe()) / 2)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


def invoke(call, keep: Path, sampler=None):
    """One command-line call, with its output file read before the next
    call can overwrite it.  Its time leaves out the sampler's handler."""
    import awfskit.cli as cli  # looked up per call, so the tracer's wrapper is seen

    if call.out and os.path.exists(call.out):
        os.remove(call.out)
    out, err = StringIO(), StringIO()
    code, crash = None, None
    spent = sampler.spent if sampler else 0.0
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(call.argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crash is a failed call; the loop goes on
        crash = f"{type(e).__name__}: {e}"
    t1 = perf_counter()
    spent = (sampler.spent if sampler else 0.0) - spent
    oc = w.Outcome(code, out.getvalue(), err.getvalue(), t1 - t0 - spent, crash=crash,
                   span=(t0, t1))
    if call.out and os.path.exists(call.out):
        data = Path(call.out).read_bytes()
        oc.out_sha = w.sha(data)
        if call.kind == "factor" and code == 0:
            kept = keep / f"{oc.out_sha}.json"
            if not kept.exists():
                shutil.copyfile(call.out, kept)
        else:
            oc.out_bytes = data
    return oc


def run_loop(plan, seconds: float, keep: Path, cycles=None, tracer=None, sampler=None):
    """Run whole cycles until ``seconds`` have passed (or exactly
    ``cycles`` of them); returns (wall seconds, cycles, jobs) where each job
    is (label, [(call, outcome)]).  With a sampler, each outcome gets the
    host's speed during its call."""
    jobs = []
    n = 0
    if sampler is not None:
        sampler.start()
    try:
        t0 = perf_counter()
        while True:
            for job in plan.cycle(n):
                if tracer is not None:
                    tracer.job = len(jobs)
                # each job starts on a collected heap, as a fresh process would
                gc.collect()
                done, cert_sha = [], None
                for call in job.calls:
                    oc = invoke(call, keep, sampler)
                    if call.kind == "factor":
                        cert_sha = oc.out_sha
                    elif call.kind == "lift":
                        oc.cert_sha = cert_sha
                    done.append((call, oc))
                jobs.append((job.label, done))
            n += 1
            if (n >= cycles) if cycles is not None else (perf_counter() - t0 >= seconds):
                break
        wall = perf_counter() - t0
    finally:
        if sampler is not None:
            sampler.stop()
    if sampler is not None:
        for _, done in jobs:
            for _, oc in done:
                oc.speed = sampler.speed(*oc.span)
    return wall, n, jobs


def check_jobs(jobs, pins: dict, keep: Path):
    """(calls attempted, calls failed, first few problems)."""
    certs, cert_checks = {}, {}

    def cert(digest):
        if digest not in certs:
            certs[digest] = json.loads((keep / f"{digest}.json").read_text(encoding="utf-8"))
        return certs[digest]

    attempted, failed, notes = 0, 0, []
    for label, calls in jobs:
        for call, oc in calls:
            attempted += 1
            problems = w.check_call(call, oc, pins)
            try:
                if call.kind == "factor" and call.expect["exit"] == 0 and oc.out_sha:
                    key = (oc.out_sha, oc.stdout, call.expect["map"])
                    if key not in cert_checks:
                        cert_checks[key] = w.check_certificate(call, cert(oc.out_sha), oc.stdout)
                    problems += cert_checks[key]
                if call.kind == "lift" and oc.cert_sha:
                    problems += w.check_lift(call, oc, cert(oc.cert_sha))
            except (KeyError, IndexError, TypeError, ValueError) as e:
                problems.append(f"malformed output: {e!r}")
            if problems:
                failed += 1
                if len(notes) < 10:
                    notes.append(f"{label} {call.kind} [{call.pin}]: {'; '.join(problems)}")
    return attempted, failed, notes


def hd_median(values) -> float:
    """Trimmed Harrell-Davis estimate of the median (Akinshin, 2022): the
    mean of the order statistics weighted by a Beta((n+1)/2, (n+1)/2)
    density, cut to its highest-density interval, of width 1/sqrt(n).
    Unlike a single order statistic it moves smoothly when a few samples
    near the median change rank, so it repeats more closely from run to
    run on a noisy machine; the cut keeps samples far from the median,
    such as a slower job class, from pulling it when n is small."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    steps = -(-20000 // n)  # midpoint rule, ``steps`` points per order statistic
    total = n * steps
    weights = [0.0] * n
    for k in range(total):
        t = (k + 0.5) / total
        if abs(t - 0.5) <= 0.5 / math.sqrt(n):
            # the density relative to its peak at t = 1/2
            weights[k // steps] += math.exp((a - 1) * math.log(4 * t * (1 - t)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latencies(workload, jobs, timed) -> dict:
    """The latency metrics, with ``timed(oc)`` as a call's time; a job's
    latency is the sum of its calls' times, so it leaves out the
    benchmark's reading and hashing of their output files."""
    lat = [sum(timed(oc) for _, oc in done) for _, done in jobs]
    calls = [(c, oc) for _, done in jobs for c, oc in done]
    # the probe job gives every workload factor and verdict calls
    factor = [timed(oc) for c, oc in calls if c.kind == "factor"]
    verdict = [timed(oc) for c, oc in calls if c.kind in VERDICT_KINDS]
    # an order statistic: near the tail the job classes are narrower than
    # the window of hd_median would be, so that would mix in the next class
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE[workload] - 1]
    return {
        "jobs_per_s": (len(jobs) / sum(lat), "1/s"),
        "job_p50_s": (hd_median(lat), "s"),
        "job_tail_s": (tail, "s"),
        "factor_p50_s": (hd_median(factor), "s"),
        "verdict_p50_s": (hd_median(verdict), "s"),
    }


def end_to_end(workload, jobs, setup_s, rss_mib) -> dict:
    """The end-to-end metrics: latencies at the host's undisturbed speed
    (see hostspeed.py).  Printed beside them: the same latencies in wall
    time, the host's mean speed, the tail's percentile and sample count,
    and the median latency of each job class."""
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(latencies(workload, jobs, lambda oc: oc.seconds * oc.speed))
    metrics["peak_rss_mib"] = (rss_mib, "MiB")
    wall = latencies(workload, jobs, lambda oc: oc.seconds)
    print("wall time: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in wall.items()))
    calls = [oc for _, done in jobs for _, oc in done]
    speed = sum(oc.seconds * oc.speed for oc in calls) / sum(oc.seconds for oc in calls)
    print(f"host speed {speed:.3f} of undisturbed, time-weighted over the calls")
    pct = TAIL_PERCENTILE[workload]
    tail = metrics["job_tail_s"][0]
    by_label: dict = {}
    for label, done in jobs:
        by_label.setdefault(label, []).append(sum(oc.seconds * oc.speed for _, oc in done))
    beyond = sum(1 for values in by_label.values() for v in values if v > tail)
    print(f"job_tail_s is p{pct} of {len(jobs)} jobs, {beyond} beyond it")
    for label, values in sorted(by_label.items()):
        print(f"  {label}: {len(values)} jobs, median {statistics.median(values):.4f} s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        return 0
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = set_up(args.workload, args.seed, tmp / "inputs")
        keep = tmp / "certificates"
        keep.mkdir()
        pins = plan.inp.pins
        seconds = args.seconds / 2 if args.trace else args.seconds
        sampler = None if args.trace else Sampler()
        wall, cycles, jobs = run_loop(plan, seconds, keep, sampler=sampler)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, notes = check_jobs(jobs, pins, keep)
        print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs in {cycles} cycles, "
              f"{attempted} calls, {wall:.2f} s")
        if args.trace:
            tracer = Tracer().install()
            try:
                traced_wall, _, traced = run_loop(plan, 0, keep, cycles=cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            for name in tracer.missing:
                print(f"perfbench: not traced, the program has no {name}", file=sys.stderr)
            a2, f2, n2 = check_jobs(traced, pins, keep)
            untraced = [oc.digest() for _, done in jobs for _, oc in done]
            retraced = [oc.digest() for _, done in traced for _, oc in done]
            mismatched = sum(a != b for a, b in zip(untraced, retraced))
            mismatched += abs(len(untraced) - len(retraced))
            attempted, failed, notes = attempted + a2, failed + f2 + mismatched, notes + n2
            if mismatched:
                notes.append(f"{mismatched} traced outcomes differ from the untraced run")
            tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = tracer.metrics(len(traced))
            metrics["trace.overhead"] = (traced_wall / wall, "ratio")
            print(f"tracing overhead {traced_wall:.2f} s traced / {wall:.2f} s untraced")
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            metrics = end_to_end(args.workload, jobs, setup_s, rss_mib)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for note in notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
