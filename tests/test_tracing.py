"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps program functions and methods by name and
skips, listing in ``Tracer.missing``, any name the program no longer has.
A rename in the program would silently drop that span or counter from
every traced benchmark run, so this test installs the tracer, requires
that nothing is missing, and checks that uninstalling puts the
originals back.
"""

import importlib
import sys
from pathlib import Path

from awfskit import chain, step

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's tree as it is
    tracing = importlib.import_module("tracing")
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
