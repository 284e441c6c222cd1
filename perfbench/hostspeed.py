"""The host's speed, sampled alongside the timed loop.

On a shared host the same code runs at very different speeds from one
second to the next: other tenants' load on the physical core slows the
whole process, CPU time as much as wall time, in stretches of one to
tens of seconds (on the 2-vCPU VM the benchmark was defined on, a fixed
loop took 0.62 ms in fast stretches and 1.1-1.3 ms in slow ones).  How
much of a 30 s run falls in slow stretches varies from run to run, and
with it every latency.

A *sample* of the host's speed is ``KERNEL_REF_S`` over the time of a
fixed kernel (the faster of two runs of it, about 0.3 ms in all): 1 on an
undisturbed host, about 0.5 in a slow stretch.  ``Sampler`` takes one
every ``INTERVAL`` seconds of the timed loop, from a ``SIGALRM`` handler
in the benchmark's own thread, so the samples see the state of the core
the program runs on, also in the middle of a long call.  A call's speed
is the mean of the samples taken during it, or near it for a short call.
``run.py`` reports a call's time in the program multiplied by its speed,
that is the time the call would have taken at the host's undisturbed
speed, and prints the wall-clock figures beside the metrics.  Set-up,
timed in fresh processes, is scaled by ``probe()`` taken just before
and just after each of them.  The kernel is fixed code of the
benchmark, never the program's, so a change to the program moves the
reported times exactly as it moves the wall times at a given host speed.
The handler's own time is left out of the calls it interrupts.
"""

from __future__ import annotations

import bisect
import random
import signal
from dataclasses import dataclass
from time import perf_counter

INTERVAL = 0.02  # seconds of wall time between samples
NEAR = 0.25  # a call with no sample inside it uses those this close to it
# The kernel's time on an undisturbed core of the definition host (the
# median of its fast stretches); a constant, so that speeds compare
# across runs and commits.
KERNEL_REF_S = 0.000130


@dataclass(frozen=True)
class _Map:
    """A validated table, built the way the program builds its maps."""

    cod: int
    table: tuple

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        for v in table:
            if not 0 <= v < self.cod:
                raise ValueError(v)


_rng = random.Random("perfbench-kernel")
_F = tuple(_rng.randrange(120) for _ in range(360))
_G = tuple(_rng.randrange(40) for _ in range(120))
_SMALL = [tuple(_rng.randrange(3) for _ in range(4)) for _ in range(24)]


def kernel() -> int:
    """A fixed mix of what the program spends its time on: building and
    validating tables, composing by indexing, a union-find quotient and
    dict lookups on tuple keys."""
    f, g = _Map(120, _F), _Map(40, _G)
    h = _Map(40, tuple(g.table[v] for v in f.table))
    parent = list(range(120))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, v in enumerate(h.table[:120]):
        a, b = find(i), find(v)
        if a != b:
            parent[max(a, b)] = min(a, b)
    seen = {}
    for t in _SMALL:
        m = _Map(3, t)
        seen[(m.cod, m.table)] = m
    return len(seen) + find(119)


def sample() -> float:
    """The host's speed now: ``KERNEL_REF_S`` over the faster of two runs
    of the kernel (the faster leaves out an interrupt)."""
    best = None
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        t = perf_counter() - t0
        best = t if best is None else min(best, t)
    return KERNEL_REF_S / best


def probe(samples: int = 40) -> float:
    """The mean speed over ``samples`` samples taken back to back, about
    10 ms of kernel."""
    return sum(sample() for _ in range(samples)) / samples


class Sampler:
    """Samples the kernel's time while started; ``spent`` is the wall time
    spent in the handler so far."""

    def __init__(self) -> None:
        self.times: list = []  # sample start, in perf_counter seconds
        self.speeds: list = []  # KERNEL_REF_S / kernel time
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.speeds.append(sample())
        self.times.append(t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def start(self) -> "Sampler":
        kernel()  # warm up outside the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a loop shorter than one interval
            self.times.append(perf_counter())
            self.speeds.append(sample())

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over the samples in [t0, t1], or in
        [t0 - NEAR, t1 + NEAR] when there are fewer than three."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        if hi - lo < 3:
            lo = bisect.bisect_left(self.times, t0 - NEAR)
            hi = bisect.bisect_right(self.times, t1 + NEAR)
        window = self.speeds[lo:hi] or self.speeds
        return sum(window) / len(window)
