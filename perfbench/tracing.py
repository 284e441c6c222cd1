"""Spans and counters around the public functions of each awfskit module.

The wrappers live in the benchmark, not in the program: ``Tracer.install``
replaces a function in every awfskit module namespace that imported it by
name (``compose`` is bound in ``arrows``, ``step``, ``chain``, ``verify``
and ``presentation``), and patches methods on their classes;
``Tracer.uninstall`` puts every original back.  A name the program no
longer has is skipped and listed in ``Tracer.missing``.

Timed wrappers make spans; the rest only count (map and square
constructions, cell lookups, enumerated problems and squares).  A span's
self time is its duration minus the time its child spans cover.  Coarse
spans (one per command, chain run, check or oracle) are kept in memory
with their parent and job and written out at the end; fine-grained spans
(``compose``, ``mediate``, the mediators) only add to per-name totals,
which keeps memory flat.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter

MODULES = ("finset", "arrows", "step", "chain", "verify", "serialize", "presentation", "cli")

# Spans kept as records, with start, end, parent and job.
RECORDED = {
    "cli.main", "chain.run", "chain.extract", "verify.check_algebra", "verify.check_compat",
    "verify.kappa", "verify.initiality", "step.general_step", "step.fast_step",
    "serialize.encode", "serialize.decode", "presentation.validate", "arrows.joint_coeq",
}
MEMO_METHODS = ("step_tables", "step", "step_fast")
CERT_SCHEMA = "awfskit/certificate-v1"


class Tracer:
    def __init__(self):
        self.calls = Counter()  # span name -> calls
        self.total = Counter()  # span name -> seconds
        self.self_time = Counter()  # span name -> seconds not covered by child spans
        self.counts = Counter()  # counter name -> value
        self.active = Counter()  # span name -> frames open
        self.stack = []  # open frames: [name, start, child seconds, record id]
        self.records = []  # (id, parent id, job, name, start, end)
        self.job = 0
        self.memo_depth = 0
        self.missing = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
        rid = None
        if name in RECORDED:
            rid = len(self.records)
            self.records.append([rid, parent, self.job, name, None, None])
        frame = [name, perf_counter(), 0.0, rid]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        name, start, child, rid = frame
        dur = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if rid is not None:
            self.records[rid][4:] = [start, end]

    def timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted_generator(self, fn, counter_for):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                for name in counter_for():
                    self.counts[name] += 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(orig)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("awfskit"):
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapper)
                        self._undo.append((m, name, orig))

    def _patch(self, cls, attr, make):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, make(orig))
        self._undo.append((cls, attr, orig))

    def install(self):
        m = {name: importlib.import_module(f"awfskit.{name}") for name in MODULES}
        finset, arrows, step, verify = m["finset"], m["arrows"], m["step"], m["verify"]
        counts = self.counts
        t = self.timed

        def count_map(orig):
            def post_init(obj):
                orig(obj)
                counts["finset.finitemap_new"] += 1
                counts["finset.finitemap_entries"] += len(obj.table)

            return post_init

        def count_square(orig):
            def post_init(obj):
                orig(obj)
                counts["arrows.square_new"] += 1

            return post_init

        def count_calls(name):
            def make(orig):
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return orig(*args, **kwargs)

                return wrapper

            return make

        def coeq_elems(args, result):
            legs = getattr(result, "legs", None)
            if legs is not None:
                counts["finset.coequalise_elems"] += sum(leg.dom.size for leg in legs)
            elif hasattr(result, "q"):
                counts["finset.coequalise_elems"] += result.q.dom.size
            else:
                counts["finset.coequalise_elems"] += result.left.dom.size + result.right.dom.size

        def built(args, struct):
            counts["step.builds"] += 1
            counts["step.cells_adjoined"] += struct.extended.top.size - struct.target.top.size

        def memo(orig):
            def wrapper(engine, *args, **kwargs):
                if self.memo_depth:
                    return orig(engine, *args, **kwargs)
                before = counts["step.builds"]
                self.memo_depth += 1
                try:
                    result = orig(engine, *args, **kwargs)
                finally:
                    self.memo_depth -= 1
                counts["step.memo_lookups"] += 1
                counts["step.memo_hits"] += counts["step.builds"] == before
                return result

            return wrapper

        def chain_ran(args, trace):
            counts["chain.runs"] += 1
            counts["chain.stages"] += len(trace.stages) - 1
            counts["chain.final_carrier"] += trace.carrier_sizes[-1]

        def wrote(args, result):
            path, payload = args[:2]
            if isinstance(payload, dict) and payload.get("schema") == CERT_SCHEMA:
                counts["serialize.certs"] += 1
                counts["serialize.cert_bytes"] += os.path.getsize(path)

        def problems_counters():
            if self.active["verify.check_algebra"] or self.active["verify.check_compat"]:
                return ("step.problems_enumerated", "verify.problems_checked")
            return ("step.problems_enumerated",)

        def oracle_counters():
            if self.active["verify.kappa"]:
                return ("verify.kappa_enumerated",)
            if self.active["verify.initiality"]:
                return ("verify.initiality_squares",)
            return ()

        self._patch(finset.FiniteMap, "__post_init__", count_map)
        self._rebind(finset, "compose", lambda f: t("finset.compose", f))
        for name in ("joint_coequalizer", "pushout", "finite_colimit"):
            self._rebind(finset, name, lambda f: t("finset.coequalise", f, coeq_elems))
        for cls in ("QuotientResult", "PushoutResult", "CoconeWitness"):
            self._patch(getattr(finset, cls), "induced", lambda f: t("finset.induced", f))

        self._patch(arrows.CommSquare, "__post_init__", count_square)
        self._rebind(arrows, "square_compose", lambda f: t("arrows.square_compose", f))
        self._rebind(arrows, "arrow_joint_coequalizer", lambda f: t(
            "arrows.joint_coeq", f,
            lambda a, r: counts.update({"arrows.joint_coeq_elems":
                                        r.top.q.dom.size + r.bot.q.dom.size})))
        self._patch(arrows.ArrowColimit, "__init__", lambda f: t("arrows.colimit", f))

        self._rebind(step, "fast_step", lambda f: t("step.fast_step", f, built))
        self._rebind(step, "step", lambda f: t("step.general_step", f, built))
        for name in MEMO_METHODS:
            self._patch(step.StepEngine, name, memo)
        self._patch(step.StepEngine, "extend", lambda f: t("step.extend", f))
        self._patch(step.DoubleEngine, "compose_comparison",
                    lambda f: t("step.compose_comparison", f))
        self._patch(step.DoubleEngine, "iterate_then", lambda f: t("step.iterate_then", f))
        self._rebind(step, "mediate", lambda f: t("step.mediate", f))
        self._rebind(step, "restrict_square", lambda f: t("step.restrict", f))
        self._patch(step.StepStructure, "cell", count_calls("step.cell_calls"))
        self._rebind(step, "enumerate_problems",
                     lambda f: self.counted_generator(f, problems_counters))

        chain = m["chain"]
        self._rebind(chain, "run_chain", lambda f: t("chain.run", f, chain_ran))
        self._rebind(chain, "extract", lambda f: t(
            "chain.extract", f,
            lambda a, r: counts.update({"chain.lift_entries": len(r.lift_table)})))

        self._rebind(verify, "check_algebra", lambda f: t("verify.check_algebra", f))
        self._rebind(verify, "check_compat", lambda f: t("verify.check_compat", f))
        self._rebind(verify, "oracle_kappa", lambda f: t("verify.kappa", f))
        self._rebind(verify, "oracle_initiality", lambda f: t("verify.initiality", f))
        for name in ("_commuting_squares", "_enumerate_liftings"):
            self._rebind(verify, name, lambda f: self.counted_generator(f, oracle_counters))

        serialize = m["serialize"]
        self._rebind(serialize, "encode_certificate", lambda f: t("serialize.encode", f))
        self._rebind(serialize, "decode_certificate", lambda f: t("serialize.decode", f))
        self._rebind(serialize, "read_json", lambda f: t("serialize.read_json", f))
        self._rebind(serialize, "write_json", lambda f: t("serialize.write_json", f, wrote))

        presentation = m["presentation"]
        for cls in ("DoubleCatPresentation", "PlainPresentation"):
            self._patch(getattr(presentation, cls), "validate",
                        lambda f: t("presentation.validate", f))
        self._patch(presentation.DoubleCatPresentation, "composable_pairs",
                    lambda f: t("presentation.pairs", f))

        self._rebind(m["cli"], "main", lambda f: t("cli.main", f))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics; counts and seconds are per job."""
        c, s, n = self.counts, self.total, self.calls

        def per_job(v):
            return v / jobs

        def mean(total, base):
            return c[total] / c[base] if c[base] else 0.0

        out = {
            "finset.finitemap_new": (per_job(c["finset.finitemap_new"]), "1/job"),
            "finset.finitemap_entries": (per_job(c["finset.finitemap_entries"]), "1/job"),
            "finset.compose_calls": (per_job(n["finset.compose"]), "1/job"),
            "finset.compose_s": (per_job(s["finset.compose"]), "s/job"),
            "finset.coequalise_calls": (per_job(n["finset.coequalise"]), "1/job"),
            "finset.coequalise_elems": (per_job(c["finset.coequalise_elems"]), "1/job"),
            "finset.coequalise_s": (per_job(s["finset.coequalise"]), "s/job"),
            "finset.induced_s": (per_job(s["finset.induced"]), "s/job"),
            "arrows.square_new": (per_job(c["arrows.square_new"]), "1/job"),
            "arrows.square_compose_s": (per_job(s["arrows.square_compose"]), "s/job"),
            "arrows.joint_coeq_s": (per_job(s["arrows.joint_coeq"]), "s/job"),
            "arrows.joint_coeq_elems": (per_job(c["arrows.joint_coeq_elems"]), "1/job"),
            "arrows.colimit_s": (per_job(s["arrows.colimit"]), "s/job"),
            "step.fast_step_calls": (per_job(n["step.fast_step"]), "1/job"),
            "step.fast_step_s": (per_job(s["step.fast_step"]), "s/job"),
            "step.cells_adjoined": (per_job(c["step.cells_adjoined"]), "1/job"),
            "step.extend_s": (per_job(s["step.extend"]), "s/job"),
            "step.compose_comparison_s": (per_job(s["step.compose_comparison"]), "s/job"),
            "step.iterate_then_s": (per_job(s["step.iterate_then"]), "s/job"),
            "step.memo_hit_ratio": (mean("step.memo_hits", "step.memo_lookups"), "ratio"),
            "step.memo_lookups": (per_job(c["step.memo_lookups"]), "1/job"),
            "step.general_step_calls": (per_job(n["step.general_step"]), "1/job"),
            "step.general_step_s": (per_job(s["step.general_step"]), "s/job"),
            "step.mediate_calls": (per_job(n["step.mediate"]), "1/job"),
            "step.mediate_s": (per_job(s["step.mediate"]), "s/job"),
            "step.restrict_s": (per_job(s["step.restrict"]), "s/job"),
            "step.problems_enumerated": (per_job(c["step.problems_enumerated"]), "1/job"),
            "step.cell_calls": (per_job(c["step.cell_calls"]), "1/job"),
            "chain.run_s": (per_job(s["chain.run"]), "s/job"),
            "chain.stages": (mean("chain.stages", "chain.runs"), "1/run"),
            "chain.final_carrier": (mean("chain.final_carrier", "chain.runs"), "1/run"),
            "chain.extract_s": (per_job(s["chain.extract"]), "s/job"),
            "chain.lift_entries": (per_job(c["chain.lift_entries"]), "1/job"),
            "verify.check_algebra_s": (per_job(s["verify.check_algebra"]), "s/job"),
            "verify.check_compat_s": (per_job(s["verify.check_compat"]), "s/job"),
            "verify.problems_checked": (per_job(c["verify.problems_checked"]), "1/job"),
            "verify.kappa_s": (per_job(s["verify.kappa"]), "s/job"),
            "verify.kappa_enumerated": (per_job(c["verify.kappa_enumerated"]), "1/job"),
            "verify.initiality_s": (per_job(s["verify.initiality"]), "s/job"),
            "verify.initiality_squares": (per_job(c["verify.initiality_squares"]), "1/job"),
            "serialize.encode_s": (per_job(s["serialize.encode"]), "s/job"),
            "serialize.cert_bytes": (mean("serialize.cert_bytes", "serialize.certs"), "B/cert"),
            "serialize.decode_s": (per_job(s["serialize.decode"]), "s/job"),
            "serialize.read_json_s": (per_job(s["serialize.read_json"]), "s/job"),
            "presentation.validate_calls": (per_job(n["presentation.validate"]), "1/job"),
            "presentation.validate_s": (per_job(s["presentation.validate"]), "s/job"),
            "presentation.pairs_s": (per_job(s["presentation.pairs"]), "s/job"),
        }
        for module in MODULES:
            own = sum(v for k, v in self.self_time.items() if k.startswith(module + "."))
            out[f"{module}.self_s"] = (per_job(own), "s/job")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rid, parent, job, name, start, end in self.records:
                fh.write(json.dumps({"id": rid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end}) + "\n")
