"""JSON input and output for every artifact the command line exchanges.

All files are UTF-8 JSON.  The schema, by artifact:

* finite set — a non-negative integer, its carrier size;
* map — ``{"dom": n, "cod": m, "table": [...]}`` with ``table`` a total
  list of length ``dom`` whose entries index the codomain;
* arrow (an object of the category of maps) — ``{"top": n, "bot": m,
  "map": {...}}`` where the inner map runs from ``top`` to ``bot``;
* presentation — ``{"kind": "plain" or "double", ...}`` with the keys
  listed for its kind in ``_PRESENTATIONS``, the one schema table that
  both ``decode_presentation`` and ``encode_presentation`` read: record
  lists such as ``"generators": [{"name", "map"}]`` whose keys hold names
  or maps, composition tables ``[{"left", "right", "result"}]``, and the
  objects ``"objects": {name: size}`` and ``"vid": {object: vmorphism}``;
* certificate — mode, input arrow, left map, right arrow, algebra map,
  and the lift table as a sorted list of ``{"generator", "top", "bot",
  "filler"}`` records; certificates never embed the presentation, so a
  verification run needs exactly the certificate file plus the
  presentation file it was produced from;
* lifting problem (the ``lift`` command's question) — ``{"generator",
  "top", "bot"}``, the key of a lift-table record.

Decoding checks shape only (types, key sets, table totality) and tags
every complaint with the JSON path to the offending value; semantic
axioms stay in ``validate()`` on the decoded presentation so that a
schema-valid but axiom-violating file yields witnesses, not a parse
error.  Syntax errors carry the line and column from the decoder.

Each decoder is one walk over the document, checking keys and scalars in
a fixed order.  Every integer table (a map's table, a key's top and
bottom, ``trace_sizes``, a problem's tables) goes through ``_ints``: one
C-level pass over the whole list (types by ``set(map(type, ...))``,
ranges by ``min`` and ``max``), and a walk element by element only when
that pass fails, so valid input costs one pass per table and a fault is
named with its JSON path.  A certificate's lift table is always decoded
into a ``LiftTable``.  It is first read as columns
(``_checked_lift_table``), all fillers in one checked map; only when that
pass refuses (a fault, or records out of key order) are the records walked
one at a time, to the first fault or, when they are well formed, through
``LiftTable.from_items``, which sorts them.  Fillers into more than one
codomain are a fault, named at the first record whose codomain differs
from record 0's.

Encoding is canonical: keys are sorted, composition triples are sorted
by operand names, and lift-table records are sorted by key, so encoding
a decoded artifact is idempotent and reports diff cleanly.  Every artifact
(certificate, trace, report, filler, presentation) is written by one
encoder, ``dumps``, whose text is exactly that of ``json.dumps(payload,
sort_keys=True, indent=2)`` plus a newline; ``json.dumps`` itself stays
only in the tests, as the reference the encoder is checked against.  A
certificate's lift table is written as text straight from the columns of
its ``LiftTable``, without a dictionary per record: each run of records
that share a template is one ``%`` into the repeated template.  The run
texts are kept as separate pieces, and ``write_json`` writes the pieces of
an artifact one after another, so a large certificate is never copied
into one string on its way to the file.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter, lt
from typing import Optional

from .arrows import ArrowObject
from .chain import Certificate, LiftTable, detect_stabilisation
from .errors import DiagramError, OutputError, ParseError
from .finset import FinSet, FiniteMap, is_iso
from .presentation import (
    DoubleCatPresentation,
    HArrowSpec,
    PlainGenSpec,
    PlainMorSpec,
    PlainPresentation,
    RawMap,
    SquareSpec,
    VArrowSpec,
)
from .step import _interleave

CERTIFICATE_SCHEMA = "awfskit/certificate-v1"


# ---------------------------------------------------------------------------
# text layer


def parse_text(text: str, path: Optional[str] = None):
    """Decode a JSON document, converting syntax errors, and too deep a
    nesting, into ParseError; a syntax error carries line and column
    attributes.  Given the ``path`` the text was read from, the message
    starts with it."""
    prefix = "" if path is None else f"{path}: "
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        err = ParseError(f"{prefix}line {e.lineno}, column {e.colno}: {e.msg}")
        err.line = e.lineno
        err.col = e.colno
        raise err from None
    except RecursionError as e:
        raise ParseError(f"{prefix}{e}") from None


def dumps(payload) -> str:
    """Canonical serialisation: sorted keys, two-space indent, trailing
    newline, ASCII with ``\\u`` escapes.  Payloads hold strings, integers,
    booleans, ``None``, lists, tuples, dictionaries with string keys and
    text written ahead (``_Text``); the text is byte for byte
    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``."""
    return "".join(_pieces(payload))


def _pieces(payload) -> list:
    """The text of ``dumps`` as the list of strings it joins."""
    out: list = []
    _encode(payload, "\n", out)
    out.append("\n")
    return out


class _Text:
    """A value already written as canonical text, in ``parts``, as if its
    first line were indented by ``nl`` (a newline and the indent); ``dumps``
    splices the parts in, re-indented when it sits at another depth.  The
    parts stay apart so that a large text is not copied to join them."""

    __slots__ = ("parts", "nl")

    def __init__(self, parts: list, nl: str):
        self.parts = parts
        self.nl = nl


def _array(items: list, nl: str) -> str:
    """The text of an array of already written items whose opening line is
    indented by ``nl``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _encode(value, nl: str, out: list) -> None:
    """Append the text of ``value``; ``nl`` is a newline followed by the
    indent of the line the value starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value or set(map(type, value)) == _INT:
            out.append(_array(list(map(int.__repr__, value)), nl))
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, _Text):
        if value.nl == nl:
            out.extend(value.parts)
        else:
            out.append("".join(value.parts).replace(value.nl, nl))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def read_text(path: str) -> str:
    """The whole UTF-8 text of the file at ``path``; ParseError naming the
    path when it cannot be read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8: {e.reason} at byte {e.start}") from None


def read_json(path: str):
    return parse_text(read_text(path), path)


def write_json(path: str, payload) -> None:
    """Write the text of ``dumps(payload)``, piece by piece: a large
    artifact is never held as one string next to its pieces."""
    pieces = _pieces(payload)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as e:
        raise OutputError(f"{path}: {e.strerror or e}") from None


# ---------------------------------------------------------------------------
# shape-checking helpers

_INT = {int}


def _fail(path: str, msg: str):
    raise ParseError(f"{path}: {msg}")


def _as_obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, required, optional=()) -> None:
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(path, f"missing key {missing[0]!r}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        _fail(path, f"unknown key {unknown[0]!r}")


def _ints(value, path: str, bound: Optional[int] = None) -> list:
    """The array ``value`` of integers, each in ``range(bound)`` when a bound
    is given.  The whole array is checked in one C-level pass; only when it
    fails is it walked element by element, to name the first fault."""
    table = _as_list(value, path)
    if table and (set(map(type, table)) != _INT
                  or bound is not None and not (min(table) >= 0 and max(table) < bound)):
        for i, v in enumerate(table):
            _as_int(v, f"{path}[{i}]")
            if bound is not None and not 0 <= v < bound:
                _fail(f"{path}[{i}]", f"value {v} outside codomain of size {bound}")
    return table


# ---------------------------------------------------------------------------
# maps and arrows


def encode_map(m: FiniteMap) -> dict:
    return {"dom": m.dom.size, "cod": m.cod.size, "table": list(m.table)}


def decode_map(obj, path: str = "$") -> FiniteMap:
    obj = _as_obj(obj, path)
    _check_keys(obj, path, ("dom", "cod", "table"))
    dom = _as_int(obj["dom"], f"{path}.dom")
    cod = _as_int(obj["cod"], f"{path}.cod")
    if dom < 0 or cod < 0:
        _fail(path, "carrier sizes must be non-negative")
    table = _as_list(obj["table"], f"{path}.table")
    if len(table) != dom:
        _fail(f"{path}.table", f"length {len(table)} does not match dom {dom}")
    return FiniteMap(FinSet(dom), FinSet(cod), tuple(_ints(table, f"{path}.table", cod)))


def encode_arrow(a: ArrowObject) -> dict:
    return {"top": a.top.size, "bot": a.bot.size, "map": encode_map(a.map)}


def decode_arrow(obj, path: str = "$") -> ArrowObject:
    obj = _as_obj(obj, path)
    _check_keys(obj, path, ("top", "bot", "map"))
    top = _as_int(obj["top"], f"{path}.top")
    bot = _as_int(obj["bot"], f"{path}.bot")
    m = decode_map(obj["map"], f"{path}.map")
    if m.dom.size != top or m.cod.size != bot:
        _fail(f"{path}.map", f"runs {m.dom.size} -> {m.cod.size}, declared {top} -> {bot}")
    return ArrowObject(m)


def decode_map_or_arrow(obj, path: str = "$") -> ArrowObject:
    """Accept either encoding for a morphism of finite sets."""
    obj = _as_obj(obj, path)
    if "top" in obj:
        return decode_arrow(obj, path)
    return ArrowObject(decode_map(obj, path))


# ---------------------------------------------------------------------------
# composition tables


def _encode_comp(comp: dict) -> list:
    return [
        {"left": left, "right": right, "result": result}
        for (left, right), result in sorted(comp.items())
    ]


def _decode_comp(value, path: str) -> list:
    out = []
    seen = set()
    for i, entry in enumerate(_as_list(value, path)):
        epath = f"{path}[{i}]"
        entry = _as_obj(entry, epath)
        _check_keys(entry, epath, ("left", "right", "result"))
        left = _as_str(entry["left"], f"{epath}.left")
        right = _as_str(entry["right"], f"{epath}.right")
        result = _as_str(entry["result"], f"{epath}.result")
        if (left, right) in seen:
            _fail(epath, f"duplicate composite for ({left}, {right})")
        seen.add((left, right))
        out.append((left, right, result))
    return out


# ---------------------------------------------------------------------------
# presentations

# The keys whose value in a presentation record is a map; every other
# record key holds a name.
_MAP_KEYS = frozenset({"map", "umap", "top", "bot"})


def _encode_raw(m: RawMap) -> dict:
    return {"dom": m.dom, "cod": m.cod, "table": list(m.table)}


def _decode_raw(obj, path: str) -> RawMap:
    m = decode_map(obj, path)
    return RawMap(m.dom.size, m.cod.size, m.table)


def _records(spec, keys: tuple) -> tuple:
    """The reader and the writer of a list of ``spec`` records whose JSON
    ``keys`` hold the spec's fields in order: a key in ``_MAP_KEYS`` holds a
    map, any other key a name."""
    attrs = [f.name for f in fields(spec)]
    reads = [_decode_raw if key in _MAP_KEYS else _as_str for key in keys]

    def read(value, path: str) -> tuple:
        out = []
        for i, rec in enumerate(_as_list(value, path)):
            rpath = f"{path}[{i}]"
            rec = _as_obj(rec, rpath)
            _check_keys(rec, rpath, keys)
            out.append(spec(*[r(rec[key], f"{rpath}.{key}") for key, r in zip(keys, reads)]))
        return tuple(out)

    def write(specs) -> list:
        return [{key: _encode_raw(getattr(s, attr)) if key in _MAP_KEYS else getattr(s, attr)
                 for key, attr in zip(keys, attrs)} for s in specs]

    return read, write


def _named(check):
    """The reader of an object from names to values ``check`` accepts, as
    ``(name, value)`` pairs."""
    def read(value, path: str) -> tuple:
        return tuple((name, check(v, f"{path}.{name}")) for name, v in _as_obj(value, path).items())
    return read


# The schema of both presentation kinds, the one source that decoding and
# encoding read: kind -> (class, rows), one row per top-level key other than
# ``kind``, in decode order, as (key, field of the class, reader, writer,
# required).  A missing optional key reads as an empty list.
_PRESENTATIONS = {
    "plain": (PlainPresentation, (
        ("generators", "generators", *_records(PlainGenSpec, ("name", "map")), True),
        ("morphisms", "morphisms",
         *_records(PlainMorSpec, ("name", "dom", "cod", "top", "bot")), False),
        ("comp", "comp", _decode_comp, _encode_comp, False),
    )),
    "double": (DoubleCatPresentation, (
        ("objects", "objects", _named(_as_int), dict, True),
        ("hmorphisms", "harrows", *_records(HArrowSpec, ("name", "dom", "cod", "map")), False),
        ("vmorphisms", "varrows", *_records(VArrowSpec, ("name", "vdom", "vcod", "umap")), True),
        ("vid", "vid", _named(_as_str), dict, True),
        ("squares", "squares",
         *_records(SquareSpec, ("name", "vsrc", "vdst", "h_top", "h_bot")), False),
        ("comp", "hcomp", _decode_comp, _encode_comp, False),
        ("square_comp", "square_comp", _decode_comp, _encode_comp, False),
        ("vcomp", "vcomp", _decode_comp, _encode_comp, False),
        ("square_vcomp", "square_vcomp", _decode_comp, _encode_comp, False),
    )),
}


def encode_presentation(pres) -> dict:
    if pres.kind not in _PRESENTATIONS:
        raise ParseError(f"cannot encode presentation of kind {pres.kind!r}")
    payload = {"kind": pres.kind}
    for key, field, _, write, _ in _PRESENTATIONS[pres.kind][1]:
        payload[key] = write(getattr(pres, field))
    return payload


def decode_presentation(obj, path: str = "$"):
    obj = _as_obj(obj, path)
    if "kind" not in obj:
        _fail(path, "missing key 'kind'")
    kind = _as_str(obj["kind"], f"{path}.kind")
    if kind not in _PRESENTATIONS:
        _fail(f"{path}.kind", f"expected 'plain' or 'double', got {kind!r}")
    cls, rows = _PRESENTATIONS[kind]
    _check_keys(obj, path, ["kind"] + [key for key, *_, required in rows if required],
                [key for key, *_ in rows])
    return cls(**{field: read(obj.get(key, []), f"{path}.{key}")
                  for key, field, read, _, _ in rows})


# ---------------------------------------------------------------------------
# certificates


def encode_certificate(cert: Certificate) -> dict:
    """The certificate's payload for ``dumps``/``write_json``; its lift
    table is written as text rows by ``_lift_rows``."""
    return {
        "schema": CERTIFICATE_SCHEMA,
        "mode": cert.mode,
        "input": encode_arrow(cert.input),
        "left": encode_map(cert.left),
        "right": encode_arrow(cert.right),
        "beta0": encode_map(cert.beta0),
        "lift_table": _lift_rows(cert.lift_table, "\n  "),
        "stage": cert.stage,
        "trace_sizes": cert.trace_sizes,
    }


def _row_template(gen: str, ntop: int, nbot: int, ntable: int, nl: str) -> str:
    """The text of a lift-table record, as an item of an array whose first
    line is indented by ``nl``, with generator ``gen`` and tables of the
    given lengths; it holds a ``%d`` for each int of the bottom, the
    filler's codomain, the filler's table and the top, in that order."""
    return ((
        '{\n    "bot": %s,\n    "filler": {\n      "cod": %%d,\n      "dom": %d,'
        '\n      "table": %s\n    },\n    "generator": %s,\n    "top": %s\n  }'
    ) % (
        _array(["%d"] * nbot, "\n    "),
        ntable,
        _array(["%d"] * ntable, "\n      "),
        _quote(gen).replace("%", "%%"),
        _array(["%d"] * ntop, "\n    "),
    )).replace("\n", nl)


def _lift_rows(lift_table: LiftTable, nl: str) -> _Text:
    """The sorted ``{"generator", "top", "bot", "filler"}`` records of the
    lift table as text, written for a first line indented by ``nl``.

    Sorted records come in runs that share a generator and table lengths,
    so a run of ``k`` rows is one ``%`` into ``k`` copies of its template,
    filled from the run's columns: the runs sorted by generator name, each
    with its values interleaved from its columns in template order.  Within
    a run of ``extract`` or of ``LiftTable.from_items`` the keys are sorted,
    and so are the runs of one generator."""
    cod = lift_table.fillers.cod.size
    sep = "," + nl + "  "
    texts = [
        sep.join(repeat(_row_template(name, len(tops), len(bots), len(fillers), nl), count))
        % tuple(_interleave(bots + [[cod] * count] + fillers + tops, count))
        for (name, _, count, tops, bots), fillers in sorted(
            zip(lift_table.runs, lift_table.filler_columns()), key=lambda run: run[0][0])
    ]
    if not texts:
        return _Text(["[]"], nl)
    parts = ["[" + sep[1:]]
    for text in texts:
        parts += (text, sep)
    parts[-1] = nl + "]"  # in place of the last separator
    return _Text(parts, nl)


_record_fields = tuple(map(itemgetter, ("generator", "top", "bot", "filler")))
_map_fields = tuple(map(itemgetter, ("dom", "cod", "table")))


def _checked_lift_table(records: list) -> Optional[LiftTable]:
    """The lift table ``records`` encode, as columns, or None if any check
    of ``_walk_lift_table`` fails or the records are out of key order (the
    walk then names the fault, or sorts the keys).  Each check is one pass
    over all records; the fillers are built as one checked map, which tests
    the ranges."""
    if set(map(type, records)) != {dict} or set(map(len, records)) != {4}:
        return None
    try:
        gens, tops, bots, fillers = (list(map(field, records)) for field in _record_fields)
    except KeyError:
        return None
    if (
        set(map(type, gens)) != {str}
        or set(map(type, tops)) != {list}
        or set(map(type, bots)) != {list}
        or set(map(type, fillers)) != {dict}
        or set(map(len, fillers)) != {3}
    ):
        return None
    try:
        doms, cods, tables = (list(map(field, fillers)) for field in _map_fields)
    except KeyError:
        return None
    if (
        set(map(type, doms)) != _INT
        or set(map(type, cods)) != _INT
        or set(map(type, tables)) != {list}
        or list(map(len, tables)) != doms
        or len(set(cods)) != 1
    ):
        return None
    entries = chain.from_iterable(chain(tops, bots, tables))
    keys = list(zip(gens, tops, bots))
    # strictly increasing keys are sorted and distinct
    if not set(map(type, entries)) <= _INT or not all(map(lt, keys, keys[1:])):
        return None
    try:
        fillers = FiniteMap(FinSet(sum(doms)), FinSet(cods[0]), tuple(chain.from_iterable(tables)))
    except DiagramError:  # a negative codomain, or an entry outside it
        return None
    return LiftTable.from_columns(gens, tops, bots, doms, fillers)


def decode_problem(obj, path: str = "$", more=()) -> tuple:
    """The key ``(generator, top, bot)`` of a lifting problem, or of a
    record with those fields and the fields ``more``."""
    obj = _as_obj(obj, path)
    _check_keys(obj, path, ("generator", "top", "bot") + more)
    return (
        _as_str(obj["generator"], f"{path}.generator"),
        tuple(_ints(obj["top"], f"{path}.top")),
        tuple(_ints(obj["bot"], f"{path}.bot")),
    )


def _walk_lift_table(records: list, path: str) -> LiftTable:
    """The lift table one record at a time, naming the first fault: a
    record that does not decode, a repeated key, or a filler whose codomain
    differs from the first filler's."""
    lift_table = {}
    for i, rec in enumerate(records):
        rpath = f"{path}[{i}]"
        key = decode_problem(rec, rpath, ("filler",))
        if key in lift_table:
            _fail(rpath, f"duplicate lift-table key {key}")
        filler = lift_table[key] = decode_map(rec["filler"], f"{rpath}.filler")
        if not i:
            cod = filler.cod.size
        elif filler.cod.size != cod:
            _fail(f"{rpath}.filler.cod", f"codomain {filler.cod.size} differs from {cod}, "
                  "the codomain of record 0")
    return LiftTable.from_items(lift_table.items())


def decode_certificate(obj, pres, path: str = "$") -> Certificate:
    obj = _as_obj(obj, path)
    _check_keys(
        obj,
        path,
        ("mode", "input", "left", "right", "beta0", "lift_table"),
        ("schema", "stage", "trace_sizes"),
    )
    if "schema" in obj and obj["schema"] != CERTIFICATE_SCHEMA:
        _fail(f"{path}.schema", f"expected {CERTIFICATE_SCHEMA!r}, got {obj['schema']!r}")
    records = _as_list(obj["lift_table"], f"{path}.lift_table")
    lift_table = _checked_lift_table(records)
    if lift_table is None:
        lift_table = _walk_lift_table(records, f"{path}.lift_table")
    stage = obj.get("stage")
    if stage is not None:
        stage = _as_int(stage, f"{path}.stage")
    sizes = obj.get("trace_sizes")
    if sizes is not None:
        sizes = list(_ints(sizes, f"{path}.trace_sizes"))
    return Certificate(
        pres=pres,
        mode=_as_str(obj["mode"], f"{path}.mode"),
        input=decode_arrow(obj["input"], f"{path}.input"),
        left=decode_map(obj["left"], f"{path}.left"),
        right=decode_arrow(obj["right"], f"{path}.right"),
        beta0=decode_map(obj["beta0"], f"{path}.beta0"),
        lift_table=lift_table,
        stage=stage,
        trace_sizes=sizes,
    )


# ---------------------------------------------------------------------------
# trace summaries


def trace_summary(trace) -> dict:
    """Per-stage audit record: carrier sizes and which connecting squares
    are already invertible on top."""
    return {
        "mode": trace.mode,
        "carrier_sizes": trace.carrier_sizes,
        "codomain_size": trace.target.bot.size,
        "connect_top_iso": [is_iso(c.top) is not None for c in trace.connect],
        "stabilised_at": detect_stabilisation(trace),
    }
