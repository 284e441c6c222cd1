"""The element-by-element decoder, as a reference.

``awfskit.serialize`` decodes every integer table with one whole-table pass
and walks it element by element only when that pass fails.  This module
keeps the walk it is checked against: every map, arrow and certificate
read one element and one record at a time, with the schema checks in the
same order, and the lift table decoded into a dictionary of checked maps
(which ``Certificate`` turns into a ``LiftTable``), refusing a filler whose
codomain differs from record 0's.  Only the calls between the walks are
redirected to this module, so nothing here runs a whole-table pass.  The
tests compare the two on the first fault of mutated documents, on the
golden certificates and through the command line.

``awfskit.serialize`` reads and writes presentations from one schema
table.  This module also keeps the hand-written walks that table replaced,
one per presentation kind, and the encoder's two literals; the tests
compare them on one-node mutants of presentation documents.
"""

from __future__ import annotations

from awfskit.arrows import ArrowObject
from awfskit.errors import ParseError
from awfskit.finset import FinSet, FiniteMap
from awfskit.presentation import (
    DoubleCatPresentation,
    HArrowSpec,
    PlainGenSpec,
    PlainMorSpec,
    PlainPresentation,
    RawMap,
    SquareSpec,
    VArrowSpec,
)
from awfskit.serialize import (
    CERTIFICATE_SCHEMA,
    _as_int,
    _as_list,
    _as_obj,
    _as_str,
    _check_keys,
    _decode_comp,
    _encode_comp,
    _encode_raw,
    _fail,
)
from awfskit.verify import Certificate


def walk_map(obj, path: str = "$") -> FiniteMap:
    """``decode_map`` one element at a time, naming the first fault."""
    obj = _as_obj(obj, path)
    _check_keys(obj, path, ("dom", "cod", "table"))
    dom = _as_int(obj["dom"], f"{path}.dom")
    cod = _as_int(obj["cod"], f"{path}.cod")
    if dom < 0 or cod < 0:
        _fail(path, "carrier sizes must be non-negative")
    table = _as_list(obj["table"], f"{path}.table")
    if len(table) != dom:
        _fail(f"{path}.table", f"length {len(table)} does not match dom {dom}")
    vals = []
    for i, v in enumerate(table):
        v = _as_int(v, f"{path}.table[{i}]")
        if not 0 <= v < cod:
            _fail(f"{path}.table[{i}]", f"value {v} outside codomain of size {cod}")
        vals.append(v)
    return FiniteMap(FinSet(dom), FinSet(cod), tuple(vals))


def walk_arrow(obj, path: str = "$") -> ArrowObject:
    obj = _as_obj(obj, path)
    _check_keys(obj, path, ("top", "bot", "map"))
    top = _as_int(obj["top"], f"{path}.top")
    bot = _as_int(obj["bot"], f"{path}.bot")
    m = walk_map(obj["map"], f"{path}.map")
    if m.dom.size != top or m.cod.size != bot:
        _fail(f"{path}.map", f"runs {m.dom.size} -> {m.cod.size}, declared {top} -> {bot}")
    return ArrowObject(m)


def decode_map_or_arrow(obj, path: str = "$") -> ArrowObject:
    """Accept either encoding for a morphism of finite sets."""
    obj = _as_obj(obj, path)
    if "top" in obj:
        return walk_arrow(obj, path)
    return ArrowObject(walk_map(obj, path))


def decode_certificate(obj, pres, path: str = "$") -> Certificate:
    """``decode_certificate`` one record and one element at a time, naming
    the first fault."""
    obj = _as_obj(obj, path)
    _check_keys(
        obj,
        path,
        ("mode", "input", "left", "right", "beta0", "lift_table"),
        ("schema", "stage", "trace_sizes"),
    )
    if "schema" in obj and obj["schema"] != CERTIFICATE_SCHEMA:
        _fail(f"{path}.schema", f"expected {CERTIFICATE_SCHEMA!r}, got {obj['schema']!r}")
    lift_table = {}
    for i, rec in enumerate(_as_list(obj["lift_table"], f"{path}.lift_table")):
        rpath = f"{path}.lift_table[{i}]"
        rec = _as_obj(rec, rpath)
        _check_keys(rec, rpath, ("generator", "top", "bot", "filler"))
        gen = _as_str(rec["generator"], f"{rpath}.generator")
        top = tuple(
            _as_int(v, f"{rpath}.top[{j}]")
            for j, v in enumerate(_as_list(rec["top"], f"{rpath}.top"))
        )
        bot = tuple(
            _as_int(v, f"{rpath}.bot[{j}]")
            for j, v in enumerate(_as_list(rec["bot"], f"{rpath}.bot"))
        )
        key = (gen, top, bot)
        if key in lift_table:
            _fail(rpath, f"duplicate lift-table key {key}")
        lift_table[key] = walk_map(rec["filler"], f"{rpath}.filler")
        first = next(iter(lift_table.values()))
        if lift_table[key].cod != first.cod:
            _fail(f"{rpath}.filler.cod", f"codomain {lift_table[key].cod.size} differs from "
                  f"{first.cod.size}, the codomain of record 0")
    stage = obj.get("stage")
    if stage is not None:
        stage = _as_int(stage, f"{path}.stage")
    sizes = obj.get("trace_sizes")
    if sizes is not None:
        sizes = [
            _as_int(v, f"{path}.trace_sizes[{i}]")
            for i, v in enumerate(_as_list(sizes, f"{path}.trace_sizes"))
        ]
    return Certificate(
        pres=pres,
        mode=_as_str(obj["mode"], f"{path}.mode"),
        input=walk_arrow(obj["input"], f"{path}.input"),
        left=walk_map(obj["left"], f"{path}.left"),
        right=walk_arrow(obj["right"], f"{path}.right"),
        beta0=walk_map(obj["beta0"], f"{path}.beta0"),
        lift_table=lift_table,
        stage=stage,
        trace_sizes=sizes,
    )


def _decode_raw(obj, path: str) -> RawMap:
    m = walk_map(obj, path)
    return RawMap(m.dom.size, m.cod.size, m.table)


def encode_presentation(pres) -> dict:
    if pres.kind == "plain":
        return {
            "kind": "plain",
            "generators": [
                {"name": g.name, "map": _encode_raw(g.umap)} for g in pres.generators
            ],
            "morphisms": [
                {
                    "name": m.name,
                    "dom": m.dom,
                    "cod": m.cod,
                    "top": _encode_raw(m.top),
                    "bot": _encode_raw(m.bot),
                }
                for m in pres.morphisms
            ],
            "comp": _encode_comp(pres.comp),
        }
    if pres.kind == "double":
        return {
            "kind": "double",
            "objects": {name: size for name, size in pres.objects},
            "hmorphisms": [
                {"name": h.name, "dom": h.dom, "cod": h.cod, "map": _encode_raw(h.umap)}
                for h in pres.harrows
            ],
            "comp": _encode_comp(pres.hcomp),
            "vmorphisms": [
                {"name": v.name, "vdom": v.vdom, "vcod": v.vcod, "umap": _encode_raw(v.umap)}
                for v in pres.varrows
            ],
            "vid": dict(pres.vid),
            "squares": [
                {
                    "name": s.name,
                    "vsrc": s.vsrc,
                    "vdst": s.vdst,
                    "h_top": s.h_top,
                    "h_bot": s.h_bot,
                }
                for s in pres.squares
            ],
            "square_comp": _encode_comp(pres.square_comp),
            "vcomp": _encode_comp(pres.vcomp),
            "square_vcomp": _encode_comp(pres.square_vcomp),
        }
    raise ParseError(f"cannot encode presentation of kind {pres.kind!r}")


def decode_presentation(obj, path: str = "$"):
    obj = _as_obj(obj, path)
    if "kind" not in obj:
        _fail(path, "missing key 'kind'")
    kind = _as_str(obj["kind"], f"{path}.kind")
    if kind == "plain":
        return _decode_plain(obj, path)
    if kind == "double":
        return _decode_double(obj, path)
    _fail(f"{path}.kind", f"expected 'plain' or 'double', got {kind!r}")


def _decode_plain(obj: dict, path: str) -> PlainPresentation:
    _check_keys(obj, path, ("kind", "generators"), ("morphisms", "comp"))
    gens = []
    for i, g in enumerate(_as_list(obj["generators"], f"{path}.generators")):
        gpath = f"{path}.generators[{i}]"
        g = _as_obj(g, gpath)
        _check_keys(g, gpath, ("name", "map"))
        gens.append(
            PlainGenSpec(_as_str(g["name"], f"{gpath}.name"), _decode_raw(g["map"], f"{gpath}.map"))
        )
    mors = []
    for i, m in enumerate(_as_list(obj.get("morphisms", []), f"{path}.morphisms")):
        mpath = f"{path}.morphisms[{i}]"
        m = _as_obj(m, mpath)
        _check_keys(m, mpath, ("name", "dom", "cod", "top", "bot"))
        mors.append(
            PlainMorSpec(
                _as_str(m["name"], f"{mpath}.name"),
                _as_str(m["dom"], f"{mpath}.dom"),
                _as_str(m["cod"], f"{mpath}.cod"),
                _decode_raw(m["top"], f"{mpath}.top"),
                _decode_raw(m["bot"], f"{mpath}.bot"),
            )
        )
    comp = _decode_comp(obj.get("comp", []), f"{path}.comp")
    return PlainPresentation(tuple(gens), tuple(mors), comp)


def _decode_double(obj: dict, path: str) -> DoubleCatPresentation:
    _check_keys(
        obj,
        path,
        ("kind", "objects", "vmorphisms", "vid"),
        ("hmorphisms", "comp", "squares", "square_comp", "vcomp", "square_vcomp"),
    )
    objects = []
    for name, size in _as_obj(obj["objects"], f"{path}.objects").items():
        objects.append((name, _as_int(size, f"{path}.objects.{name}")))
    harrows = []
    for i, h in enumerate(_as_list(obj.get("hmorphisms", []), f"{path}.hmorphisms")):
        hpath = f"{path}.hmorphisms[{i}]"
        h = _as_obj(h, hpath)
        _check_keys(h, hpath, ("name", "dom", "cod", "map"))
        harrows.append(
            HArrowSpec(
                _as_str(h["name"], f"{hpath}.name"),
                _as_str(h["dom"], f"{hpath}.dom"),
                _as_str(h["cod"], f"{hpath}.cod"),
                _decode_raw(h["map"], f"{hpath}.map"),
            )
        )
    varrows = []
    for i, v in enumerate(_as_list(obj["vmorphisms"], f"{path}.vmorphisms")):
        vpath = f"{path}.vmorphisms[{i}]"
        v = _as_obj(v, vpath)
        _check_keys(v, vpath, ("name", "vdom", "vcod", "umap"))
        varrows.append(
            VArrowSpec(
                _as_str(v["name"], f"{vpath}.name"),
                _as_str(v["vdom"], f"{vpath}.vdom"),
                _as_str(v["vcod"], f"{vpath}.vcod"),
                _decode_raw(v["umap"], f"{vpath}.umap"),
            )
        )
    vid = {}
    for name, value in _as_obj(obj["vid"], f"{path}.vid").items():
        vid[name] = _as_str(value, f"{path}.vid.{name}")
    squares = []
    for i, s in enumerate(_as_list(obj.get("squares", []), f"{path}.squares")):
        spath = f"{path}.squares[{i}]"
        s = _as_obj(s, spath)
        _check_keys(s, spath, ("name", "vsrc", "vdst", "h_top", "h_bot"))
        squares.append(
            SquareSpec(
                _as_str(s["name"], f"{spath}.name"),
                _as_str(s["vsrc"], f"{spath}.vsrc"),
                _as_str(s["vdst"], f"{spath}.vdst"),
                _as_str(s["h_top"], f"{spath}.h_top"),
                _as_str(s["h_bot"], f"{spath}.h_bot"),
            )
        )
    return DoubleCatPresentation(
        objects=tuple(objects),
        harrows=tuple(harrows),
        hcomp=_decode_comp(obj.get("comp", []), f"{path}.comp"),
        varrows=tuple(varrows),
        vid=vid,
        squares=tuple(squares),
        square_comp=_decode_comp(obj.get("square_comp", []), f"{path}.square_comp"),
        vcomp=_decode_comp(obj.get("vcomp", []), f"{path}.vcomp"),
        square_vcomp=_decode_comp(obj.get("square_vcomp", []), f"{path}.square_vcomp"),
    )
