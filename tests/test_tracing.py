"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps program functions and methods by name and
skips, listing in ``Tracer.missing``, any name the program no longer has.
A rename in the program would silently drop that span or counter from
every traced benchmark run, so this test installs the tracer, requires
that nothing is missing, and checks that uninstalling puts the
originals back.  A name that is still found but no longer on the path
the program takes would read zero just as silently, so a general step's
spans must also record calls, and so must the mediator's when the kappa
oracle samples on a fast step (its exhaustive branch runs the kernels
``mediate`` and ``restrict_square`` wrap, not the wrapped names).

The benchmark's own tiny-size self test, ``python3 perfbench/smoke.py``,
must also exit 0, so a program change that breaks a pinned answer or a
traced name fails here as well as in a benchmark run.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from awfskit import chain, step, verify
from awfskit.arrows import ArrowObject

from fixture_lib import abc_pres, f_1to1, f_3to2, fmap, plain_split_epi_pres, two_gen_plain_pres

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    return importlib.import_module("tracing")


def test_tracer_finds_every_traced_name(tracing):
    originals = (step.DoubleEngine.compose_comparison, step.StepEngine.step_tables,
                 chain.run_chain, step.mediate)
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
        assert step.DoubleEngine.compose_comparison is not originals[0]
    finally:
        tracer.uninstall()
    assert (step.DoubleEngine.compose_comparison, step.StepEngine.step_tables,
            chain.run_chain, step.mediate) == originals


def test_general_step_spans_are_on_the_production_path(tracing):
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
        # a connecting square sends factor through the general step
        chain.factorise(two_gen_plain_pres(), ArrowObject(f_3to2()), max_stage=3)
        general = tracer.calls["step.general_step"]
        # the kappa oracle mediates and restricts on the fast step of a
        # shape without squares, and builds no general step; the sampled
        # pair goes through mediate and restrict_square by name
        verify.oracle_kappa(plain_split_epi_pres(), ArrowObject(f_1to1()), ArrowObject(f_1to1()))
        verify.oracle_kappa(abc_pres(), ArrowObject(fmap(2, 2, [0, 1])),
                            ArrowObject(fmap(2, 2, [0, 0])), samples=8)
    finally:
        tracer.uninstall()
    for name in ("arrows.colimit", "finset.coequalise", "finset.induced", "step.general_step",
                 "step.mediate", "step.restrict"):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["step.general_step"] == general


def test_benchmark_smoke_test_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave the benchmark's tree as it is
    run = subprocess.run([sys.executable, str(PERFBENCH / "smoke.py")], cwd=PERFBENCH.parent,
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
