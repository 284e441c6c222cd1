"""The element-by-element decoder, as a reference.

``awfskit.serialize`` decodes every integer table with one whole-table pass
and walks it element by element only when that pass fails.  This module
keeps the walk it is checked against: every map, arrow and certificate
read one element and one record at a time, with the schema checks in the
same order, and the lift table always decoded into a dictionary of checked
maps.  Only the calls between the walks are redirected to this module, so
nothing here runs a whole-table pass.  The tests compare the two on the
first fault of mutated documents, on the golden certificates and through
the command line.
"""

from __future__ import annotations

from awfskit.arrows import ArrowObject
from awfskit.finset import FinSet, FiniteMap
from awfskit.serialize import (
    CERTIFICATE_SCHEMA,
    _as_int,
    _as_list,
    _as_obj,
    _as_str,
    _check_keys,
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
