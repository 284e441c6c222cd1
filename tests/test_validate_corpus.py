"""Verdicts of ``validate`` on a seeded corpus of single mutations.

Every case takes one base presentation (the four fixture presentations,
the retract shape, the two-generator plain shape, the codiagonal shape,
and three shapes with squares: ``uniform_monos_pres(1)`` and ``(2)`` and
the pair-square shape), applies one seeded mutation to its JSON encoding
and decodes the result.  ``validate_corpus.json`` records, per case, the
SHA-256 of the mutated document and either ``parse-error``
(``ParseError`` at decode) or the verdict of ``validate`` (``valid`` /
``invalid``) with the SHA-256 of its whole report: every (axiom, witness)
pair, in order.  The test checks that the verdicts and reports still
match, that ``validate`` never raises, and that no report names the same
(axiom, witness) pair twice.

Cases on which ``validate`` raised when the verdicts were recorded are
recorded as ``invalid`` and listed under ``raised``.  To record new
verdicts after an intended change, run
``python tests/test_validate_corpus.py --write`` with ``src`` on
``PYTHONPATH`` and say in the change log why they moved.
"""

import copy
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Optional

import pytest

from awfskit.errors import ParseError
from awfskit.serialize import decode_presentation, dumps, encode_presentation

from fixture_lib import (
    codiag_pres,
    pair_square_pres,
    retract_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "validate_corpus.json"
PER_KIND = 10
GHOST = "ghost"
BAD_NAMES = ["1_v", "a*b", "", GHOST]
TABLES = ["vcomp", "comp", "square_comp", "square_vcomp"]


def _bases() -> dict:
    out = {}
    for name in ("gen_abc", "gen_composite", "gen_growth", "gen_split_epi"):
        out[name] = json.loads((ROOT / "fixtures" / f"{name}.json").read_text())
    out["retract"] = encode_presentation(retract_pres())
    out["two_gen_plain"] = encode_presentation(two_gen_plain_pres())
    out["codiag"] = encode_presentation(codiag_pres())
    out["uniform_monos_1"] = encode_presentation(uniform_monos_pres(1))
    out["uniform_monos_2"] = encode_presentation(uniform_monos_pres(2))
    out["pair_square"] = encode_presentation(pair_square_pres())
    return out


# ---------------------------------------------------------------------------
# name pools of a document


def _cells(doc) -> list:
    """The arrows of a document that realisation tables are attached to."""
    if doc["kind"] == "double":
        return doc["vmorphisms"] + doc["hmorphisms"]
    return doc["generators"] + doc["morphisms"]


def _arrow_list(doc) -> list:
    return doc["vmorphisms"] if doc["kind"] == "double" else doc["generators"]


def _table_names(doc, table: str) -> list:
    """Names an entry of ``table`` may mention, with one unknown name."""
    if table == "vcomp":
        names = [v["name"] for v in doc["vmorphisms"]]
    elif table == "comp" and doc["kind"] == "double":
        names = [h["name"] for h in doc["hmorphisms"]] + ["1_" + o for o in doc["objects"]]
    elif table == "comp":
        names = [m["name"] for m in doc["morphisms"]] + ["1_" + g["name"] for g in doc["generators"]]
    else:
        names = [s["name"] for s in doc["squares"]] + ["1_" + v["name"] for v in doc["vmorphisms"]]
    return names + [GHOST]


def _tables(doc) -> list:
    return [t for t in TABLES if t in doc and (t != "vcomp" or doc["kind"] == "double")]


def _random_map(rng, dom: int, cod: int) -> dict:
    table = [rng.randrange(cod) for _ in range(dom)] if cod > 0 else []
    return {"dom": dom, "cod": cod, "table": table}


# ---------------------------------------------------------------------------
# mutations: each returns a mutated copy, or None where it does not apply


def comp_drop(doc, rng):
    tables = [t for t in _tables(doc) if doc[t]]
    if not tables:
        return None
    t = rng.choice(tables)
    del doc[t][rng.randrange(len(doc[t]))]
    return doc


def comp_redirect(doc, rng):
    tables = [t for t in _tables(doc) if doc[t]]
    if not tables:
        return None
    t = rng.choice(tables)
    entry = rng.choice(doc[t])
    entry["result"] = rng.choice(_table_names(doc, t))
    return doc


def comp_add(doc, rng):
    t = rng.choice(_tables(doc))
    names = _table_names(doc, t)
    doc[t].append({k: rng.choice(names) for k in ("left", "right", "result")})
    return doc


def vid_drop(doc, rng):
    if doc["kind"] != "double" or not doc["vid"]:
        return None
    del doc["vid"][rng.choice(sorted(doc["vid"]))]
    return doc


def vid_redirect(doc, rng):
    if doc["kind"] != "double" or not doc["vid"]:
        return None
    obj = rng.choice(sorted(doc["vid"]) + [GHOST])
    doc["vid"][obj] = rng.choice([v["name"] for v in doc["vmorphisms"]] + [GHOST])
    return doc


def arrow_rename(doc, rng):
    arrows = _arrow_list(doc)
    if not arrows:
        return None
    a = rng.choice(arrows)
    a["name"] = rng.choice(BAD_NAMES + [b["name"] for b in arrows])
    return doc


def arrow_duplicate(doc, rng):
    arrows = _arrow_list(doc)
    if not arrows:
        return None
    arrows.append(copy.deepcopy(rng.choice(arrows)))
    return doc


def arrow_drop(doc, rng):
    arrows = _arrow_list(doc)
    if not arrows:
        return None
    del arrows[rng.randrange(len(arrows))]
    return doc


def realisation_value(doc, rng):
    """One table entry changed to another in-range value (or out of range)."""
    maps = []
    for c in _cells(doc):
        for key in ("umap", "map", "top", "bot"):
            if key in c and c[key]["dom"] > 0:
                maps.append(c[key])
    if not maps:
        return None
    m = rng.choice(maps)
    i = rng.randrange(m["dom"])
    m["table"][i] = rng.randrange(m["cod"] + 1)
    return doc


def realisation_resize(doc, rng):
    """One realisation replaced by a map of other carrier sizes."""
    cells = _cells(doc)
    if not cells:
        return None
    c = rng.choice(cells)
    key = rng.choice([k for k in ("umap", "map", "top", "bot") if k in c])
    dom, cod = c[key]["dom"] + rng.choice([0, 1]), c[key]["cod"] + 1
    c[key] = _random_map(rng, dom, cod)
    return doc


def object_size(doc, rng):
    if doc["kind"] != "double" or not doc["objects"]:
        return None
    obj = rng.choice(sorted(doc["objects"]))
    doc["objects"][obj] = rng.choice([-1, 0, doc["objects"][obj] + 1, "2", True])
    return doc


def square_add(doc, rng):
    if doc["kind"] != "double":
        mors = doc["morphisms"]
        gens = [g["name"] for g in doc["generators"]]
        if not gens:
            return None
        dom, cod = rng.choice(gens), rng.choice(gens)
        sizes = {g["name"]: g["map"] for g in doc["generators"]}
        mors.append({
            "name": rng.choice(["s2", "s2", "1_s", GHOST]),
            "dom": dom,
            "cod": cod,
            "top": _random_map(rng, sizes[dom]["dom"], sizes[cod]["dom"]),
            "bot": _random_map(rng, sizes[dom]["cod"], sizes[cod]["cod"]),
        })
        return doc
    vnames = [v["name"] for v in doc["vmorphisms"]] + [GHOST]
    hnames = [h["name"] for h in doc["hmorphisms"]] + ["1_" + o for o in doc["objects"]]
    doc["squares"].append({
        "name": rng.choice(["sq", "sq", "1_sq", "e*f"]),
        "vsrc": rng.choice(vnames),
        "vdst": rng.choice(vnames),
        "h_top": rng.choice(hnames),
        "h_bot": rng.choice(hnames),
    })
    return doc


def harrow_add(doc, rng):
    if doc["kind"] != "double" or not doc["objects"]:
        return None
    objs = sorted(doc["objects"])
    dom, cod = rng.choice(objs), rng.choice(objs)
    doc["hmorphisms"].append({
        "name": rng.choice(["h", "h", "1_h", "h*k"]),
        "dom": dom,
        "cod": rng.choice([cod, cod, GHOST]),
        "map": _random_map(rng, doc["objects"][dom], doc["objects"][cod]),
    })
    return doc


MUTATIONS = {
    f.__name__.replace("_", "-"): f
    for f in (
        comp_drop, comp_redirect, comp_add, vid_drop, vid_redirect,
        arrow_rename, arrow_duplicate, arrow_drop, realisation_value,
        realisation_resize, object_size, square_add, harrow_add,
    )
}


def _digest(doc) -> str:
    return hashlib.sha256(dumps(doc).encode()).hexdigest()


def report_digest(report) -> Optional[str]:
    """SHA-256 of a report's (axiom, witness) pairs in order; None for none."""
    if report is None:
        return None
    pairs = [[v.axiom, v.witness] for v in report.violations]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def corpus_documents() -> dict:
    """Case id -> mutated document, for every mutation that applies; a
    document that an earlier case already produced is left out."""
    out, seen = {}, set()
    for base, doc in _bases().items():
        for kind, mutate in MUTATIONS.items():
            for k in range(PER_KIND):
                case = f"{base}/{kind}/{k}"
                mutated = mutate(copy.deepcopy(doc), random.Random(case))
                if mutated is not None and _digest(mutated) not in seen:
                    seen.add(_digest(mutated))
                    out[case] = mutated
    return out


def evaluate(doc):
    """(verdict, report or None): parse-error at decode, else the verdict
    of ``validate``; exceptions from ``validate`` propagate."""
    try:
        pres = decode_presentation(doc)
    except ParseError:
        return "parse-error", None
    report = pres.validate()
    return ("valid" if report.ok else "invalid"), report


DOCS = corpus_documents()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_is_large_and_covers_every_verdict(corpus):
    assert sorted(corpus["cases"]) == sorted(DOCS)
    assert len(DOCS) >= 400
    verdicts = {c["verdict"] for c in corpus["cases"].values()}
    assert verdicts == {"parse-error", "valid", "invalid"}


@pytest.mark.parametrize("case", sorted(DOCS))
def test_verdict_matches_record(case, corpus):
    doc = DOCS[case]
    record = corpus["cases"][case]
    assert _digest(doc) == record["doc"]
    verdict, report = evaluate(doc)
    assert verdict == record["verdict"]
    assert report_digest(report) == record["report"], report and report.summary()
    if report is not None:
        pairs = [(v.axiom, v.witness) for v in report.violations]
        assert len(pairs) == len(set(pairs)), report.summary()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_validate_corpus.py --write")
    cases, raised = {}, {}
    for case, doc in sorted(DOCS.items()):
        try:
            verdict, report = evaluate(doc)
        except Exception as e:  # recorded as invalid and listed
            verdict, report = "invalid", None
            raised[case] = f"{type(e).__name__}: {e}"
        cases[case] = {"doc": _digest(doc), "verdict": verdict, "report": report_digest(report)}
    CORPUS.write_text(json.dumps({"cases": cases, "raised": raised}, sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}; validate raised on {len(raised)}")
