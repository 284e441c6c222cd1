"""JSON input and output for every artifact the command line exchanges.

All files are UTF-8 JSON.  The schema, by artifact:

* finite set — a non-negative integer, its carrier size;
* map — ``{"dom": n, "cod": m, "table": [...]}`` with ``table`` a total
  list of length ``dom`` whose entries index the codomain;
* arrow (an object of the category of maps) — ``{"top": n, "bot": m,
  "map": {...}}`` where the inner map runs from ``top`` to ``bot``;
* plain presentation — ``{"kind": "plain", "generators": [{"name",
  "map"}], "morphisms": [{"name", "dom", "cod", "top", "bot"}],
  "comp": [{"left", "right", "result"}]}``;
* double presentation — ``{"kind": "double", "objects": {name: size},
  "hmorphisms": [{"name", "dom", "cod", "map"}], "comp": [...],
  "vmorphisms": [{"name", "vdom", "vcod", "umap"}], "vid": {object:
  vmorphism}, "squares": [{"name", "vsrc", "vdst", "h_top", "h_bot"}],
  "square_comp": [...], "vcomp": [...], "square_vcomp": [...]}``;
* certificate — mode, input arrow, left map, right arrow, algebra map,
  and the lift table as a sorted list of ``{"generator", "top", "bot",
  "filler"}`` records; certificates never embed the presentation, so a
  verification run needs exactly the certificate file plus the
  presentation file it was produced from.

Decoding checks shape only (types, key sets, table totality) and tags
every complaint with the JSON path to the offending value; semantic
axioms stay in ``validate()`` on the decoded presentation so that a
schema-valid but axiom-violating file yields witnesses, not a parse
error.  Syntax errors carry the line and column from the decoder.

Decoding a map or a certificate first runs its checks as C-level passes
over whole tables (types by ``set(map(type, ...))``, ranges by the checked
``FiniteMap``); only when one of them fails does it walk the value
element by element, so the first complaint and its JSON path are those of
the walk.  The passes give a certificate's lift table as a ``LiftTable``
of columns with every filler in one checked map; the walk, taken also for
records out of key order or fillers with several codomains, gives a
dictionary of checked maps.

Encoding is canonical: keys are sorted, composition triples are sorted
by operand names, and lift-table records are sorted by key, so encoding
a decoded artifact is idempotent and reports diff cleanly.  Every artifact
(certificate, trace, report, filler, presentation) is written by one
encoder, ``dumps``, whose text is exactly that of ``json.dumps(payload,
sort_keys=True, indent=2)`` plus a newline; ``json.dumps`` itself stays
only in the tests, as the reference the encoder is checked against.  A
certificate's lift table is written as text straight from the columns of
a ``LiftTable``, without a dictionary per record: each run of records that
share a template is one ``%`` into the repeated template.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter, lt
from typing import Optional

from .arrows import ArrowObject
from .chain import LiftTable
from .errors import DiagramError, ParseError
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
from .verify import Certificate

CERTIFICATE_SCHEMA = "awfskit/certificate-v1"


# ---------------------------------------------------------------------------
# text layer


def parse_text(text: str):
    """Decode a JSON document, converting syntax errors into ParseError
    with line and column attributes."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        err = ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}")
        err.line = e.lineno
        err.col = e.colno
        raise err from None


def dumps(payload) -> str:
    """Canonical serialisation: sorted keys, two-space indent, trailing
    newline, ASCII with ``\\u`` escapes.  Payloads hold strings, integers,
    booleans, ``None``, lists, tuples, dictionaries with string keys and
    text written ahead (``_Text``); the text is byte for byte
    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``."""
    out: list = []
    _encode(payload, "\n", out)
    out.append("\n")
    return "".join(out)


class _Text:
    """A value already written as canonical text, as if its first line
    were indented by ``nl`` (a newline and the indent); ``dumps`` splices it
    in, re-indented when it sits at another depth."""

    __slots__ = ("text", "nl")

    def __init__(self, text: str, nl: str):
        self.text = text
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
        out.append(value.text if value.nl == nl else value.text.replace(value.nl, nl))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from None
    try:
        return parse_text(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload))


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


# ---------------------------------------------------------------------------
# maps and arrows


def encode_map(m: FiniteMap) -> dict:
    return {"dom": m.dom.size, "cod": m.cod.size, "table": list(m.table)}


_MAP_KEYS = frozenset(("dom", "cod", "table"))
_ARROW_KEYS = frozenset(("top", "bot", "map"))


def _checked_map(obj) -> Optional[FiniteMap]:
    """The map ``obj`` encodes, or None if any check of ``decode_map``
    fails; the checks are whole-table passes and build no path."""
    if type(obj) is not dict or obj.keys() != _MAP_KEYS:
        return None
    dom, cod, table = obj["dom"], obj["cod"], obj["table"]
    if type(dom) is not int or type(cod) is not int or type(table) is not list:
        return None
    if len(table) != dom or (table and set(map(type, table)) != _INT):
        return None
    try:
        return FiniteMap(FinSet(dom), FinSet(cod), tuple(table))
    except DiagramError:  # a negative codomain, or an entry outside it
        return None


def decode_map(obj, path: str = "$") -> FiniteMap:
    m = _checked_map(obj)
    return m if m is not None else _walk_map(obj, path)


def _walk_map(obj, path: str) -> FiniteMap:
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


def encode_arrow(a: ArrowObject) -> dict:
    return {"top": a.top.size, "bot": a.bot.size, "map": encode_map(a.map)}


def _checked_arrow(obj) -> Optional[ArrowObject]:
    """The arrow ``obj`` encodes, or None if any check of ``decode_arrow`` fails."""
    if type(obj) is not dict or obj.keys() != _ARROW_KEYS:
        return None
    m, top, bot = _checked_map(obj["map"]), obj["top"], obj["bot"]
    if m is None or type(top) is not int or type(bot) is not int:
        return None
    if top != m.dom.size or bot != m.cod.size:
        return None
    return ArrowObject(m)


def decode_arrow(obj, path: str = "$") -> ArrowObject:
    a = _checked_arrow(obj)
    if a is not None:
        return a
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


def _encode_raw(m: RawMap) -> dict:
    return {"dom": m.dom, "cod": m.cod, "table": list(m.table)}


def _decode_raw(obj, path: str) -> RawMap:
    m = decode_map(obj, path)
    return RawMap(m.dom.size, m.cod.size, m.table)


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


def _lift_rows(lift_table, nl: str):
    """The sorted ``{"generator", "top", "bot", "filler"}`` records of the
    lift table as text, written for a first line indented by ``nl``.

    Sorted records come in runs that share a generator and table lengths,
    so a run of ``k`` rows is one ``%`` into ``k`` copies of its template,
    filled from the run's columns.  A ``LiftTable`` is read as it is; any
    other mapping is first put into columns in the order of its sorted
    keys.  A table holding anything but string generators and int entries
    is left to ``_encode`` as plain records."""
    table = lift_table if isinstance(lift_table, LiftTable) else LiftTable.from_items(
        [(key, lift_table[key]) for key in sorted(lift_table)])
    runs = None if table is None else _block_runs(table)
    if runs is None:
        return [
            {"generator": gen, "top": list(top), "bot": list(bot),
             "filler": encode_map(lift_table[gen, top, bot])}
            for gen, top, bot in sorted(lift_table)
        ]
    sep = "," + nl + "  "
    texts = [
        sep.join(repeat(_row_template(*shape, nl), count)) % tuple(values)
        for shape, count, values in runs
    ]
    return _Text("[" + sep[1:] + sep.join(texts) + nl + "]" if texts else "[]", nl)


def _block_runs(lift_table: LiftTable) -> Optional[list]:
    """The runs of a ``LiftTable`` sorted by generator name, each with its
    values interleaved from its columns in template order.  Within a run
    of ``extract`` or of a decoded certificate the keys are sorted."""
    runs = []
    cod = lift_table.fillers.cod.size
    for (name, _, count, tops, bots), fillers in sorted(
            zip(lift_table.runs, lift_table.filler_columns()), key=lambda run: run[0][0]):
        if type(name) is not str:
            return None
        columns = bots + [[cod] * count] + fillers + tops
        runs.append(((name, len(tops), len(bots), len(fillers)), count,
                     _interleave(columns, count)))
    return runs


_CERT_REQUIRED = frozenset(("mode", "input", "left", "right", "beta0", "lift_table"))
_CERT_KEYS = _CERT_REQUIRED | {"schema", "stage", "trace_sizes"}
_record_fields = tuple(map(itemgetter, ("generator", "top", "bot", "filler")))
_map_fields = tuple(map(itemgetter, ("dom", "cod", "table")))


def _checked_lift_table(records) -> Optional[LiftTable]:
    """The lift table ``records`` encode, as columns, one run per
    generator, or None if any check of the walk in ``decode_certificate``
    fails, or the records are out of key order, or their fillers have more
    than one codomain, or one generator's tables have several lengths (the
    walk then builds a dictionary).  Each check is one pass over all
    records; the fillers are built as one checked map, which tests the
    ranges."""
    if type(records) is not list:
        return None
    if not records:
        return LiftTable([], FiniteMap(FinSet(0), FinSet(0), ()))
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


def _checked_certificate(obj, pres) -> Optional[Certificate]:
    """The certificate ``obj`` encodes, or None if any check of the walk in
    ``decode_certificate`` fails."""
    if type(obj) is not dict or not _CERT_REQUIRED <= obj.keys() <= _CERT_KEYS:
        return None
    if obj.get("schema", CERTIFICATE_SCHEMA) != CERTIFICATE_SCHEMA:
        return None
    mode, stage, sizes = obj["mode"], obj.get("stage"), obj.get("trace_sizes")
    if type(mode) is not str or not (stage is None or type(stage) is int):
        return None
    if sizes is not None and (type(sizes) is not list or not set(map(type, sizes)) <= _INT):
        return None
    lift_table = _checked_lift_table(obj["lift_table"])
    parts = (_checked_arrow(obj["input"]), _checked_map(obj["left"]),
             _checked_arrow(obj["right"]), _checked_map(obj["beta0"]))
    if lift_table is None or any(part is None for part in parts):
        return None
    return Certificate(
        pres=pres,
        mode=mode,
        input=parts[0],
        left=parts[1],
        right=parts[2],
        beta0=parts[3],
        lift_table=lift_table,
        stage=stage,
        trace_sizes=None if sizes is None else list(sizes),
    )


def decode_certificate(obj, pres, path: str = "$") -> Certificate:
    cert = _checked_certificate(obj, pres)
    return cert if cert is not None else _walk_certificate(obj, pres, path)


def _walk_certificate(obj, pres, path: str) -> Certificate:
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
        lift_table[key] = decode_map(rec["filler"], f"{rpath}.filler")
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
    from .chain import detect_stabilisation

    return {
        "mode": trace.mode,
        "carrier_sizes": trace.carrier_sizes,
        "codomain_size": trace.target.bot.size,
        "connect_top_iso": [is_iso(c.top) is not None for c in trace.connect],
        "stabilised_at": detect_stabilisation(trace),
    }
