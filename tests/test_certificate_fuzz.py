"""Seeded fuzzing of the certificate decoder, ``verify`` and ``lift``.

Each example applies one fault to the JSON of a written certificate: two
records swapped, the codomain of a filler (or of every filler) changed, a
record replaced by a copy of another (a duplicate key), a table made one
entry longer or shorter, an entry of a key, a filler or the algebra map
changed to another point, an integer entry replaced by a bool, or a field
deleted.  The mutant goes
through ``decode_certificate`` and through the command line's ``verify``
and ``lift`` twice: by the decoder, which reads the lift table as
columns, and by the element-by-element walk of ``reference_decode``, which
decodes it into a dictionary that ``Certificate`` turns into columns.
Nothing may escape as anything but an ``EngineError``; both routes must
give the same outcome, the same first error and the same output; and the
verify report must have the bytes of the per-problem checks below, which
the column passes replaced.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from awfskit import cli
from awfskit.chain import factorise
from awfskit.cli import main
from awfskit.errors import EngineError
from awfskit.serialize import decode_certificate, dumps, encode_certificate, encode_presentation
from awfskit.verify import Certificate, Report, ReportEntry, verify_certificate

import reference_decode
from fixture_lib import composite_pres, f_2to3, f_3to2, fmap, split_epi_pres, two_gen_plain_pres
from test_verify import _reference_boundary, _reference_check_algebra, _reference_check_compat

CASES = {
    "composite-special": (composite_pres, f_2to3(), "special", 4),
    "composite-plain": (composite_pres, f_3to2(), "plain", 2),
    "composite-special-7to3": (composite_pres, fmap(7, 3, [0, 1, 2, 0, 1, 2, 2]), "special", 4),
    "two_gen-plain": (two_gen_plain_pres, f_3to2(), "plain", 3),
    "split_epi-special": (split_epi_pres, f_3to2(), "special", 3),
}
FAULTS = ("reorder", "codomain", "duplicate", "length", "entry", "bool", "missing")


@pytest.fixture(scope="module")
def written():
    out = {}
    for name, (make, f, mode, stage) in CASES.items():
        pres = make()
        cert = Certificate.from_result(pres, factorise(pres, f, mode=mode, max_stage=stage))
        out[name] = pres, json.loads(dumps(encode_certificate(cert)))
    return out


def reference_report(cert: Certificate) -> Report:
    """The verify report of a certificate by the per-problem checks, which
    look fillers up key by key, with the boundary check of filler domains
    that ``_reference_boundary`` leaves out."""
    boundary = _reference_boundary(cert)
    if not boundary:
        bots = {name: u.bot.size for name, u in cert.pres.lifting_generators()}
        for key, val in cert.lift_table.items():
            if bots.get(key[0], val.dom.size) != val.dom.size:
                boundary.append(f"lift table entry {key} has domain {val.dom.size}, "
                                f"its generator's bottom has {bots[key[0]]}")
                break
    if boundary:
        return Report("verify", tuple(ReportEntry("boundary", False, b) for b in boundary))
    return Report.merged("verify", [_reference_check_algebra(cert), _reference_check_compat(cert)])


def walk_only():
    """Decode every certificate, here and in the command line, by the
    reference walk of ``reference_decode``."""
    stack = contextlib.ExitStack()
    for module in (cli, sys.modules[__name__]):
        stack.enter_context(
            mock.patch.object(module, "decode_certificate", reference_decode.decode_certificate))
    return stack


def mutate(obj: dict, fault: str, draw) -> dict:
    obj = copy.deepcopy(obj)
    records = obj["lift_table"]
    n = len(records)
    i = draw(st.integers(0, n - 1))
    other = (i + draw(st.integers(1, n - 1))) % n  # another record (every case has several)
    rec = records[i]
    if fault == "reorder":
        records[i], records[other] = records[other], rec
    elif fault == "codomain":  # of one filler, or of every filler alike
        shift = draw(st.sampled_from([-1, 1, 2]))
        for r in records if draw(st.booleans()) else [rec]:
            r["filler"]["cod"] += shift
    elif fault == "duplicate":
        records[other] = copy.deepcopy(rec)
    elif fault == "length":
        part = draw(st.sampled_from(["top", "bot", "filler"]))
        table = rec["filler"]["table"] if part == "filler" else rec[part]
        if table and draw(st.booleans()):
            table.pop()
        else:
            table.append(0)
        if part == "filler" and draw(st.booleans()):
            rec["filler"]["dom"] = len(table)
    elif fault == "entry":
        part = draw(st.sampled_from(["top", "bot", "filler", "beta0"]))
        table = {"top": rec["top"], "bot": rec["bot"], "filler": rec["filler"]["table"],
                 "beta0": obj["beta0"]["table"]}[part]
        size = obj["right"]["bot" if part == "bot" else "top"]
        if table and size > 1:
            k = draw(st.integers(0, len(table) - 1))
            table[k] = (table[k] + draw(st.integers(1, size - 1))) % size
    elif fault == "bool":
        tables = [t for t in (rec["top"], rec["bot"], rec["filler"]["table"], obj["beta0"]["table"],
                              obj["left"]["table"], obj["right"]["map"]["table"]) if t]
        table = draw(st.sampled_from(tables))
        table[draw(st.integers(0, len(table) - 1))] = draw(st.booleans())
    else:
        node = draw(st.sampled_from([obj, rec, rec["filler"], obj["right"]]))
        del node[draw(st.sampled_from(sorted(node)))]
    return obj


def decoded(obj, pres):
    try:
        return decode_certificate(obj, pres)
    except EngineError as e:
        return f"{type(e).__name__}: {e}"


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), fault=st.sampled_from(FAULTS), data=st.data())
def test_columns_and_walk_agree_on_single_fault_mutants(written, case, fault, data):
    pres, obj = written[case]
    mutant = mutate(obj, fault, data.draw)
    by_columns = decoded(mutant, pres)
    with walk_only():
        by_walk = decoded(mutant, pres)
    assert by_columns == by_walk
    if not isinstance(by_walk, str):
        assert dumps(verify_certificate(by_columns).to_payload()) == dumps(
            reference_report(by_walk).to_payload())

    record = data.draw(st.sampled_from(obj["lift_table"]))
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp) / f"{name}.json") for name in ("pres", "cert", "problem")}
        for name, payload in (("pres", encode_presentation(pres)), ("cert", mutant),
                              ("problem", {k: record[k] for k in ("generator", "top", "bot")})):
            Path(files[name]).write_text(dumps(payload), encoding="utf-8")
        calls = [["verify", "--presentation", files["pres"], "--certificate", files["cert"]],
                 ["lift", "--presentation", files["pres"], "--certificate", files["cert"],
                  "--problem", files["problem"]]]
        outputs = [run(argv) for argv in calls]
        with walk_only():
            assert [run(argv) for argv in calls] == outputs
    assert outputs[0][0] == (1 if isinstance(by_walk, str) else 0 if verify_certificate(
        by_walk).ok else 1)
