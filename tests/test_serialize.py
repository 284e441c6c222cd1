"""Round-trip and error-path tests for the JSON layer."""

import copy
import json
import os
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfskit.arrows import ArrowObject
from awfskit.chain import LiftTable, factorise, run_chain
from awfskit.errors import ParseError
from awfskit.finset import FinSet, FiniteMap
from awfskit.serialize import (
    decode_arrow,
    decode_certificate,
    decode_map,
    decode_map_or_arrow,
    decode_presentation,
    dumps,
    encode_arrow,
    encode_certificate,
    encode_map,
    encode_presentation,
    parse_text,
    trace_summary,
    write_json,
)
from awfskit.verify import Certificate, verify_certificate

import reference_decode
from fixture_lib import (
    abc_pres,
    composite_pres,
    f_3to2,
    f_2to3,
    fmap,
    growth_pres,
    pair_square_pres,
    plain_split_epi_pres,
    split_epi_pres,
    two_gen_plain_pres,
)
from test_golden import CASES, run_case

ALL_PRES = [
    plain_split_epi_pres,
    two_gen_plain_pres,
    growth_pres,
    split_epi_pres,
    abc_pres,
    composite_pres,
]


class TestRoundTrips:
    def test_map_and_arrow(self):
        m = fmap(3, 2, [0, 1, 0])
        assert decode_map(parse_text(dumps(encode_map(m)))) == m
        a = ArrowObject(m)
        assert decode_arrow(parse_text(dumps(encode_arrow(a)))) == a
        assert decode_map_or_arrow(encode_map(m)) == a
        assert decode_map_or_arrow(encode_arrow(a)) == a

    @pytest.mark.parametrize("make", ALL_PRES, ids=lambda f: f.__name__)
    def test_presentation(self, make):
        pres = make()
        text = dumps(encode_presentation(pres))
        back = decode_presentation(parse_text(text))
        assert back == pres
        assert back.validate().ok
        assert dumps(encode_presentation(back)) == text

    def test_certificate(self):
        pres = composite_pres()
        cert = Certificate.from_result(
            pres, factorise(pres, f_3to2(), mode="special", max_stage=4)
        )
        text = dumps(encode_certificate(cert))
        back = decode_certificate(parse_text(text), pres)
        assert (back.mode, back.stage, back.trace_sizes) == (
            cert.mode,
            cert.stage,
            cert.trace_sizes,
        )
        assert back.input == cert.input and back.left == cert.left
        assert back.right == cert.right and back.beta0 == cert.beta0
        assert back.lift_table == cert.lift_table
        assert dumps(encode_certificate(back)) == text
        assert verify_certificate(back).ok

    def test_trace_summary(self):
        trace = run_chain(composite_pres(), f_3to2(), mode="special", max_stage=4)
        summary = trace_summary(trace)
        assert summary == {
            "mode": "special",
            "carrier_sizes": [3, 7, 5, 5, 5],
            "codomain_size": 2,
            "connect_top_iso": [False, False, True, True],
            "stabilised_at": 2,
        }


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"dom": 2, "cod": 1, "table": [0]}', "length 1 does not match dom 2"),
            ('{"dom": 1, "cod": 1, "table": [3]}', "outside codomain"),
            ('{"dom": 1, "cod": 1, "table": [0], "x": 1}', "unknown key 'x'"),
            ('{"dom": 1, "table": [0]}', "missing key 'cod'"),
            ('{"dom": true, "cod": 1, "table": []}', "expected an integer"),
            ('{"dom": -1, "cod": 1, "table": []}', "non-negative"),
            ('[1, 2]', "expected an object"),
        ],
    )
    def test_bad_maps(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            decode_map(parse_text(text))

    def test_arrow_boundary_mismatch(self):
        obj = {"top": 2, "bot": 1, "map": {"dom": 1, "cod": 1, "table": [0]}}
        with pytest.raises(ParseError, match="declared 2 -> 1"):
            decode_arrow(obj)

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="expected 'plain' or 'double'"):
            decode_presentation({"kind": "triple"})
        with pytest.raises(ParseError, match="missing key 'kind'"):
            decode_presentation({})

    def test_duplicate_composition_entry(self):
        obj = encode_presentation(abc_pres())
        obj["vcomp"].append({"left": "a", "right": "b", "result": "c"})
        with pytest.raises(ParseError, match="duplicate composite"):
            decode_presentation(obj)

    def test_duplicate_lift_table_key(self):
        pres = plain_split_epi_pres()
        cert = Certificate.from_result(pres, factorise(pres, f_3to2(), max_stage=2))
        obj = parse_text(dumps(encode_certificate(cert)))
        obj["lift_table"].append(obj["lift_table"][0])
        with pytest.raises(ParseError, match="duplicate lift-table key"):
            decode_certificate(obj, pres)

    def test_wrong_certificate_schema_tag(self):
        pres = plain_split_epi_pres()
        cert = Certificate.from_result(pres, factorise(pres, f_3to2(), max_stage=2))
        obj = parse_text(dumps(encode_certificate(cert)))
        obj["schema"] = "something-else"
        with pytest.raises(ParseError, match="schema"):
            decode_certificate(obj, pres)

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_text('{"dom": 2,\n  "cod": }')
        assert exc.value.line == 2
        assert exc.value.col == 10
        assert "line 2, column 10" in str(exc.value)

    def test_paths_name_the_offending_value(self):
        obj = encode_presentation(abc_pres())
        obj["vmorphisms"][3]["umap"]["table"] = [0, "x"]
        with pytest.raises(ParseError, match=r"vmorphisms\[3\].umap.table"):
            decode_presentation(obj)


class TestSemanticErrorsStayInValidate:
    def test_non_commuting_square_named_by_validator(self):
        # schema-valid file whose declared square fails its realisation
        # equation: decoding succeeds, validation names the square
        obj = {
            "kind": "plain",
            "generators": [
                {"name": "j", "map": {"dom": 1, "cod": 1, "table": [0]}},
                {"name": "k", "map": {"dom": 1, "cod": 2, "table": [1]}},
            ],
            "morphisms": [
                {
                    "name": "s",
                    "dom": "j",
                    "cod": "k",
                    "top": {"dom": 1, "cod": 1, "table": [0]},
                    "bot": {"dom": 1, "cod": 2, "table": [0]},
                }
            ],
            "comp": [],
        }
        pres = decode_presentation(obj)
        report = pres.validate()
        assert not report.ok
        assert any(
            v.axiom == "realisation-square" and "s" in v.witness for v in report.violations
        )

    def test_umap_size_mismatch_caught_by_validator(self):
        obj = encode_presentation(split_epi_pres())
        obj["vmorphisms"][1]["umap"] = {"dom": 2, "cod": 2, "table": [0, 1]}
        pres = decode_presentation(obj)
        report = pres.validate()
        assert any(v.axiom == "realisation-map" for v in report.violations)


# ---------------------------------------------------------------------------
# the encoder against json.dumps


def reference_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def plain_certificate_payload(cert) -> dict:
    """The certificate as plain JSON data, one dictionary per lift-table
    record: the payload whose ``json.dumps`` text the encoder must write."""
    return {
        "schema": "awfskit/certificate-v1",
        "mode": cert.mode,
        "input": encode_arrow(cert.input),
        "left": encode_map(cert.left),
        "right": encode_arrow(cert.right),
        "beta0": encode_map(cert.beta0),
        "lift_table": [
            {"generator": gen, "top": list(top), "bot": list(bot),
             "filler": encode_map(cert.lift_table[(gen, top, bot)])}
            for gen, top, bot in sorted(cert.lift_table)
        ],
        "stage": cert.stage,
        "trace_sizes": cert.trace_sizes,
    }


json_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x01\x08\x1f\x7f\n\t\r é€😀 '), st.characters()),
    max_size=12,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(st.integers(-5, 10**12), max_size=6),
        st.dictionaries(json_text, inner, max_size=5),
    ),
    max_leaves=40,
)


class TestEncoderMatchesJsonDumps:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_random_payloads(self, payload):
        assert dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("payload", [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [True, False, 1], [0, True], [None, 1],
        {"b": [1, 2], "a": {"z": "é\"\\\x01", "y": [[], [3]]}}, 10**30, -1, "",
    ], ids=repr)
    def test_edge_payloads(self, payload):
        assert dumps(payload) == reference_dumps(payload)

    def test_refuses_what_json_refuses(self):
        for bad in ({1: 2}, {"a": object()}, [1.5]):
            with pytest.raises(TypeError):
                dumps(bad)

    def test_certificate_with_non_int_entries_matches_json_dumps(self):
        # an API-built filler may hold bools: they are written as 0 and 1,
        # which decode back to the same table
        pres = plain_split_epi_pres()
        cert = Certificate.from_result(pres, factorise(pres, f_3to2(), max_stage=2))
        table = dict(cert.lift_table)
        table[("j", (), (1,))] = FiniteMap(FinSet(1), FinSet(5), (True,))
        cert = replace(cert, lift_table=table)
        text = dumps(encode_certificate(cert))
        back = decode_certificate(parse_text(text), pres)
        assert back == cert
        assert back.lift_table[("j", (), (1,))].table == (1,)
        assert text == reference_dumps(plain_certificate_payload(back))

    def test_certificate_rows_escape_generator_names(self):
        pres = plain_split_epi_pres()
        cert = Certificate.from_result(pres, factorise(pres, f_3to2(), max_stage=2))
        table = dict(cert.lift_table)
        for name in ('%d', '%s%%', 'é"\\\x01', ''):
            table[(name, (0, 1), ())] = FiniteMap(FinSet(0), FinSet(5), ())
        cert = replace(cert, lift_table=table)
        assert dumps(encode_certificate(cert)) == reference_dumps(plain_certificate_payload(cert))

    def test_lift_rows_at_another_depth_and_through_write_json(self, tmp_path):
        # the rows' pieces are re-indented as one text when nested deeper,
        # and write_json writes the same bytes as dumps, piece by piece
        pres = composite_pres()
        cert = Certificate.from_result(pres, factorise(pres, f_2to3(), mode="special", max_stage=4))
        assert len(cert.lift_table.runs) > 1
        nested = {"certificates": [encode_certificate(cert)], "n": 1}
        plain = {"certificates": [plain_certificate_payload(cert)], "n": 1}
        assert dumps(nested) == reference_dumps(plain)
        path = tmp_path / "nested.json"
        write_json(str(path), nested)
        assert path.read_text(encoding="utf-8") == reference_dumps(plain)


@pytest.mark.parametrize("case", CASES)
def test_every_golden_artifact_is_what_json_dumps_writes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = run_case(case)
    for name in ("cert.json", "trace.json", "report.json"):
        if os.path.exists(name):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert reference_dumps(json.loads(text)) == text
    if record["factor_exit"] == 0:
        pres = decode_presentation(json.loads((tmp_path / "pres.json").read_text()))
        obj = json.loads((tmp_path / "cert.json").read_text())
        cert = decode_certificate(obj, pres)
        assert cert == reference_decode.decode_certificate(obj, pres)
        assert dumps(encode_certificate(cert)) == reference_dumps(plain_certificate_payload(cert))


# ---------------------------------------------------------------------------
# decoder error parity

DELETE = object()

# One fault per mutant: (path into the certificate, new value), where DELETE
# removes the entry, a new last key adds it, and "+" appends a copy of the
# first record.  The texts were recorded from the element-by-element walk
# before the whole-table passes were added; the first fault and its JSON
# path must not change.
CERT_MUTANTS = [
    (("lift_table", 4, "filler", "table", 0), True,
     "$.lift_table[4].filler.table[0]: expected an integer, got bool"),
    (("lift_table", 4, "filler", "table", 0), 1.0,
     "$.lift_table[4].filler.table[0]: expected an integer, got float"),
    (("lift_table", 4, "filler", "table", 0), "1",
     "$.lift_table[4].filler.table[0]: expected an integer, got str"),
    (("lift_table", 4, "filler", "table", 0), 5,
     "$.lift_table[4].filler.table[0]: value 5 outside codomain of size 5"),
    (("lift_table", 4, "filler", "table", 0), -1,
     "$.lift_table[4].filler.table[0]: value -1 outside codomain of size 5"),
    (("lift_table", 4, "filler", "table"), [1, 1],
     "$.lift_table[4].filler.table: length 2 does not match dom 1"),
    (("lift_table", 4, "filler", "table"), [],
     "$.lift_table[4].filler.table: length 0 does not match dom 1"),
    (("lift_table", 4, "filler", "table"), None,
     "$.lift_table[4].filler.table: expected an array, got NoneType"),
    (("lift_table", 4, "filler", "dom"), True,
     "$.lift_table[4].filler.dom: expected an integer, got bool"),
    (("lift_table", 4, "filler", "dom"), -1,
     "$.lift_table[4].filler: carrier sizes must be non-negative"),
    (("lift_table", 4, "filler", "cod"), 5.0,
     "$.lift_table[4].filler.cod: expected an integer, got float"),
    (("lift_table", 4, "filler", "cod"), -5,
     "$.lift_table[4].filler: carrier sizes must be non-negative"),
    (("lift_table", 4, "filler", "cod"), 6,
     "$.lift_table[4].filler.cod: codomain 6 differs from 5, the codomain of record 0"),
    (("lift_table", 4, "filler", "cod"), DELETE,
     "$.lift_table[4].filler: missing key 'cod'"),
    (("lift_table", 4, "filler", "extra"), 0,
     "$.lift_table[4].filler: unknown key 'extra'"),
    (("lift_table", 4, "filler"), [2],
     "$.lift_table[4].filler: expected an object, got list"),
    (("lift_table", 4, "top", 0), True,
     "$.lift_table[4].top[0]: expected an integer, got bool"),
    (("lift_table", 4, "top", 0), 1.0,
     "$.lift_table[4].top[0]: expected an integer, got float"),
    (("lift_table", 4, "top", 0), "1",
     "$.lift_table[4].top[0]: expected an integer, got str"),
    (("lift_table", 4, "bot", 0), False,
     "$.lift_table[4].bot[0]: expected an integer, got bool"),
    (("lift_table", 4, "bot"), 0,
     "$.lift_table[4].bot: expected an array, got int"),
    (("lift_table", 4, "generator"), 7,
     "$.lift_table[4].generator: expected a string, got int"),
    (("lift_table", 4, "generator"), DELETE,
     "$.lift_table[4]: missing key 'generator'"),
    (("lift_table", 4, "filler"), DELETE,
     "$.lift_table[4]: missing key 'filler'"),
    (("lift_table", 4, "extra"), 0,
     "$.lift_table[4]: unknown key 'extra'"),
    (("lift_table", 4), "b",
     "$.lift_table[4]: expected an object, got str"),
    (("lift_table", 5, "top"), [1],
     "$.lift_table[5]: duplicate lift-table key ('b', (1,), (0,))"),
    (("lift_table", "+"), None,
     "$.lift_table[22]: duplicate lift-table key ('a', (), (0,))"),
    (("lift_table",), {},
     "$.lift_table: expected an array, got dict"),
    (("input", "map", "table", 0), True,
     "$.input.map.table[0]: expected an integer, got bool"),
    (("input", "map", "table"), [2],
     "$.input.map.table: length 1 does not match dom 2"),
    (("input", "top"), 2.0,
     "$.input.top: expected an integer, got float"),
    (("input", "bot"), 4,
     "$.input.map: runs 2 -> 3, declared 2 -> 4"),
    (("input", "map"), DELETE,
     "$.input: missing key 'map'"),
    (("left", "table", 1), 5,
     "$.left.table[1]: value 5 outside codomain of size 5"),
    (("left", "table", 0), -1,
     "$.left.table[0]: value -1 outside codomain of size 5"),
    (("left", "dom"), "2",
     "$.left.dom: expected an integer, got str"),
    (("right", "map", "cod"), -1,
     "$.right.map: carrier sizes must be non-negative"),
    (("right", "extra"), 1,
     "$.right: unknown key 'extra'"),
    (("beta0", "table", 10), "4",
     "$.beta0.table[10]: expected an integer, got str"),
    (("beta0", "table", 10), 4.0,
     "$.beta0.table[10]: expected an integer, got float"),
    (("beta0",), [0],
     "$.beta0: expected an object, got list"),
    (("stage",), True, "$.stage: expected an integer, got bool"),
    (("stage",), "2", "$.stage: expected an integer, got str"),
    (("stage",), 2.5, "$.stage: expected an integer, got float"),
    (("trace_sizes", 0), True, "$.trace_sizes[0]: expected an integer, got bool"),
    (("trace_sizes", 4), 5.0, "$.trace_sizes[4]: expected an integer, got float"),
    (("trace_sizes",), "5", "$.trace_sizes: expected an array, got str"),
    (("mode",), 1, "$.mode: expected a string, got int"),
    (("mode",), DELETE, "$: missing key 'mode'"),
    (("beta0",), DELETE, "$: missing key 'beta0'"),
    (("schema",), "awfskit/certificate-v0",
     "$.schema: expected 'awfskit/certificate-v1', got 'awfskit/certificate-v0'"),
    (("extra",), 0, "$: unknown key 'extra'"),
]


def _mutant(obj, path, value):
    obj = copy.deepcopy(obj)
    *head, last = path
    node = obj
    for step in head:
        node = node[step]
    if last == "+":
        node.append(copy.deepcopy(node[0]))
    elif value is DELETE:
        del node[last]
    else:
        node[last] = value
    return obj


@pytest.fixture(scope="module")
def mutated_certificate():
    pres = composite_pres()
    cert = Certificate.from_result(pres, factorise(pres, f_2to3(), mode="special", max_stage=4))
    return pres, parse_text(dumps(encode_certificate(cert)))


def _mutant_id(path, value):
    # DELETE's repr holds its address; mask it so the ids are the same in every run.
    return re.sub(r" at 0x[0-9a-f]+", " at 0x0", f"{'.'.join(map(str, path))}={value!r}")


@pytest.mark.parametrize("path,value,message", CERT_MUTANTS,
                         ids=[_mutant_id(p, v) for p, v, _ in CERT_MUTANTS])
def test_decoder_names_the_same_first_fault(mutated_certificate, path, value, message):
    pres, obj = mutated_certificate
    with pytest.raises(ParseError) as exc:
        decode_certificate(_mutant(obj, path, value), pres)
    assert str(exc.value) == message


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParseError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_whole_table_passes_agree_with_the_walk_on_any_one_fault(mutated_certificate, data):
    pres, obj = mutated_certificate
    path = data.draw(st.sampled_from(list(_paths(obj))))
    value = data.draw(st.sampled_from([True, False, 0, 1, 2, 5, -1, 1.0, "1", None, [], [0], {}, DELETE]))
    mutant = _mutant(obj, path, value)
    assert _outcome(decode_certificate, mutant, pres) == _outcome(
        reference_decode.decode_certificate, mutant, pres)


# A map and an arrow document, as the ``--map`` and ``--target-map`` files
# of ``factor`` and ``oracle kappa`` hold them.
MORPHISM_DOCS = {
    "map": encode_map(fmap(4, 3, [2, 0, 1, 0])),
    "arrow": encode_arrow(ArrowObject(fmap(4, 3, [2, 0, 1, 0]))),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MORPHISM_DOCS)), st.data())
def test_map_and_arrow_decoders_agree_with_the_walk_on_any_one_fault(kind, data):
    doc = MORPHISM_DOCS[kind]
    # every node, and a new key on every object
    paths = list(_paths(doc)) + [("extra",)] + [("map", "extra")] * (kind == "arrow")
    path = data.draw(st.sampled_from(paths))
    values = [True, False, 0, 2, 3, 5, -1, 1.0, "1", None, [], [0], [0, 0, 0, 0, 0], {}]
    value = data.draw(st.sampled_from(values + [DELETE] * (path[-1] != "extra")))
    mutant = _mutant(doc, path, value)
    assert _outcome(decode_map_or_arrow, mutant) == _outcome(
        reference_decode.decode_map_or_arrow, mutant)


# ---------------------------------------------------------------------------
# one lift-table type


@pytest.fixture(scope="module")
def written_certificates():
    """(presentation, text, decoded certificate) of a few written certificates."""
    out = []
    for make, f, mode, stage in [(composite_pres, f_2to3(), "special", 4),
                                 (two_gen_plain_pres, f_3to2(), "plain", 3),
                                 (pair_square_pres, f_3to2(), "special", 4)]:
        pres = make()
        text = dumps(encode_certificate(factorise(pres, f, mode=mode, max_stage=stage)))
        out.append((pres, text, decode_certificate(parse_text(text), pres)))
    return out


def test_every_route_gives_a_lift_table(written_certificates):
    pres, text, decoded = written_certificates[0]
    cert = factorise(pres, f_2to3(), mode="special", max_stage=4)
    assert isinstance(cert.lift_table, LiftTable)
    assert isinstance(decoded.lift_table, LiftTable)
    from_dict = replace(cert, lift_table=dict(cert.lift_table))
    assert isinstance(from_dict.lift_table, LiftTable) and from_dict == cert
    obj = parse_text(text)
    obj["lift_table"].reverse()  # out of key order: walked, then sorted
    reordered = decode_certificate(obj, pres)
    assert isinstance(reordered.lift_table, LiftTable)
    assert dumps(encode_certificate(reordered)) == text
    record = obj["lift_table"][0]  # one record's bottom and filler one longer
    record["bot"].append(0)
    record["filler"]["dom"] += 1
    record["filler"]["table"].append(0)
    mixed = decode_certificate(obj, pres)
    assert isinstance(mixed.lift_table, LiftTable)
    assert mixed == reference_decode.decode_certificate(obj, pres)
    assert len(mixed.lift_table.runs) > len(decoded.lift_table.runs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_from_items_in_any_order_is_the_decoded_table(written_certificates, data):
    pres, text, decoded = data.draw(st.sampled_from(written_certificates))
    items = data.draw(st.permutations(list(decoded.lift_table.items())))
    table = LiftTable.from_items(items)
    assert table == decoded.lift_table
    assert table.runs == decoded.lift_table.runs
    assert dumps(encode_certificate(replace(decoded, lift_table=table))) == text


class TestCyclicCollector:
    """Parsing and the column pass over a lift table build no reference
    cycle, so they run with the cyclic collector off, and leave it as they
    found it, on success and on every fault."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_parse_and_decode_restore_the_collector(self, enabled, monkeypatch):
        import gc

        from awfskit import serialize

        pres = split_epi_pres()
        cert = Certificate.from_result(pres, factorise(pres, f_3to2(), max_stage=4))
        text = dumps(encode_certificate(cert))
        during = []
        real_loads, real_columns = json.loads, serialize._checked_lift_table
        monkeypatch.setattr(serialize.json, "loads",
                            lambda s: during.append(gc.isenabled()) or real_loads(s))
        monkeypatch.setattr(serialize, "_checked_lift_table",
                            lambda records: during.append(gc.isenabled()) or real_columns(records))
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert decode_certificate(parse_text(text), pres) == cert
            assert gc.isenabled() == enabled
            with pytest.raises(ParseError):
                parse_text(text[:-3])
            assert gc.isenabled() == enabled
            with pytest.raises(ParseError):
                parse_text("[" * 100_000)
            assert gc.isenabled() == enabled
            obj = parse_text(text)
            obj["lift_table"][0]["filler"]["table"] = [-1]
            with pytest.raises(ParseError):
                decode_certificate(obj, pres)
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()
        assert during and not any(during)
