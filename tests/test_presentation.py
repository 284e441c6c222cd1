"""Tests for presentation validation and the composable-pairs derivation."""

import copy
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from awfskit.arrows import ArrowObject, CommSquare
from awfskit.chain import run_chain
from awfskit.errors import InvalidPresentation
from awfskit.finset import FinSet, FiniteMap, identity
from awfskit.presentation import (
    ID_PREFIX,
    CatArrow,
    ComposablePairs,
    DoubleCatPresentation,
    FiniteCategory,
    PlainPresentation,
    RawMap,
    id_name,
    is_id_name,
)
from awfskit.serialize import decode_presentation, encode_presentation, read_json

from fixture_lib import (
    abc_pres,
    codiag_pres,
    composite_pres,
    growth_pres,
    pair_square_pres,
    plain_split_epi_pres,
    retract_pres,
    split_epi_pres,
    square_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# finite categories
# ---------------------------------------------------------------------------


def test_category_composite_with_identity_absorption():
    cat = FiniteCategory(["x", "y"], [CatArrow("f", "x", "y")], {})
    assert cat.composites[("1_x", "f")] == "f"
    assert cat.composites[("f", "1_y")] == "f"


def test_category_detects_missing_composite():
    cat = FiniteCategory(["x"], [CatArrow("f", "x", "x")], {})
    axioms = [v.axiom for v in cat.violations()]
    assert "composition-totality" in axioms


def test_category_detects_nonassociative_table():
    cat = FiniteCategory(
        ["x"],
        [CatArrow("f", "x", "x"), CatArrow("g", "x", "x")],
        [("f", "f", "g"), ("f", "g", "g"), ("g", "f", "f"), ("g", "g", "g")],
    )
    axioms = [v.axiom for v in cat.violations()]
    assert "associativity" in axioms


def test_category_detects_identity_law_contradiction():
    cat = FiniteCategory(
        ["x"],
        [CatArrow("f", "x", "x"), CatArrow("g", "x", "x")],
        [("1_x", "f", "g"), ("f", "f", "f"), ("f", "g", "f"), ("g", "f", "f"), ("g", "g", "g")],
    )
    axioms = [v.axiom for v in cat.violations()]
    assert "identity-law" in axioms


def test_category_rejects_reserved_names():
    cat = FiniteCategory(["x"], [CatArrow("1_x2", "x", "x")], {})
    axioms = [v.axiom for v in cat.violations()]
    assert "reserved-name" in axioms


# ---------------------------------------------------------------------------
# finite categories with explicit identities
# ---------------------------------------------------------------------------


def _explicit(arrows, comp=(), ids=None):
    """Objects x, y; identities ex, ey unless ``ids`` says otherwise."""
    gens = [CatArrow("ex", "x", "x"), CatArrow("ey", "y", "y")] + [CatArrow(*a) for a in arrows]
    return FiniteCategory(["x", "y"], gens, comp, ids={"x": "ex", "y": "ey"} if ids is None else ids)


def test_explicit_identities_give_a_valid_category():
    cat = _explicit([("f", "x", "y")])
    assert cat.violations("vertical-") == []
    assert cat.composites == {
        ("ex", "ex"): "ex", ("ex", "f"): "f", ("ey", "ey"): "ey", ("f", "ey"): "f",
    }


def test_explicit_identities_are_absorbed_by_composites():
    cat = _explicit([("f", "x", "y")])
    assert cat.composites[("ex", "f")] == "f"
    assert cat.composites[("f", "ey")] == "f"
    assert cat.composites[("ey", "ey")] == "ey"
    assert "1_x" not in cat.arrows


def test_explicit_identity_missing():
    cat = _explicit([], ids={"x": "ex"})
    assert ("vertical-identity", "object y has no identity arrow") in [
        (v.axiom, v.witness) for v in cat.violations("vertical-")
    ]
    # ey is then an ordinary endo-arrow whose square has no composite
    assert "vertical-composition-totality" in [v.axiom for v in cat.violations("vertical-")]


def test_explicit_identity_not_an_endo_arrow():
    cat = _explicit([("f", "x", "y")], ids={"x": "ex", "y": "f"})
    witnesses = [v.witness for v in cat.violations() if v.axiom == "identity"]
    assert witnesses == ["object y: f is not an endo-arrow on it"]
    assert cat.composites[("ex", "f")] == "f"
    # ey is then an ordinary endo-arrow: (f, ey) is a hole, not a composite
    assert ("f", "ey") not in cat.composites
    assert ("composition-totality", "(f, ey)") in [(v.axiom, v.witness) for v in cat.violations()]


def test_explicit_identity_unknown_arrow_or_object():
    cat = _explicit([], ids={"x": "ex", "y": "ghost", "z": "ex"})
    pairs = [(v.axiom, v.witness) for v in cat.violations("vertical-")]
    assert ("vertical-identity", "object y: unknown arrow ghost") in pairs
    assert ("unknown-reference", "identity assignment for unknown object z") in pairs


def test_explicit_identity_wrong_unit_law_entry():
    cat = _explicit([("f", "x", "y"), ("g", "x", "y")], comp=[("ex", "f", "g")])
    pairs = [(v.axiom, v.witness) for v in cat.violations("vertical-")]
    assert pairs == [("vertical-identity-law", "(ex, f) = g, expected f")]


def test_explicit_identity_nonassociative_table():
    cat = _explicit(
        [("f", "x", "x"), ("g", "x", "x")],
        comp=[("f", "f", "g"), ("f", "g", "g"), ("g", "f", "f"), ("g", "g", "g")],
    )
    axioms = [v.axiom for v in cat.violations("vertical-")]
    assert "vertical-associativity" in axioms
    assert "vertical-composition-totality" not in axioms


def test_name_faults_keep_plain_labels_under_a_prefix():
    cat = _explicit([("1_f", "x", "y"), ("ex", "x", "ghost")])
    axioms = [v.axiom for v in cat.violations("vertical-")]
    assert axioms == ["reserved-name", "duplicate-name", "unknown-reference"]


# ---------------------------------------------------------------------------
# double presentations: validity of the shipped fixtures
# ---------------------------------------------------------------------------


def test_split_epi_fixture_is_valid():
    pres = split_epi_pres()
    report = pres.validate()
    assert report.ok, report.summary()
    gens = pres.lifting_generators()
    assert [n for n, _ in gens] == ["e0", "e1", "j"]
    j = dict(gens)["j"]
    assert (j.top.size, j.bot.size) == (0, 1)
    assert pres.lifting_squares() == []


def test_abc_fixture_is_valid():
    report = abc_pres().validate()
    assert report.ok, report.summary()


def test_composite_fixture_is_valid():
    report = composite_pres().validate()
    assert report.ok, report.summary()


def test_uniform_monos_fixture_is_the_builders_encoding():
    pres = uniform_monos_pres(2)
    assert read_json(str(FIXTURES / "gen_uniform2.json")) == encode_presentation(pres)
    report = pres.validate()
    assert report.ok, report.summary()
    counts = [len(t) for t in (pres.harrows, pres.varrows, pres.squares, pres.square_comp,
                               pres.square_vcomp, pres.composable_pairs().pairs)]
    assert counts == [8, 8, 45, 276, 188, 19]


def test_empty_presentation_is_valid():
    pres = DoubleCatPresentation.build(objects={})
    assert pres.validate().ok
    assert pres.composable_pairs().pairs == []


# ---------------------------------------------------------------------------
# composable pairs
# ---------------------------------------------------------------------------


def test_split_epi_composable_pairs_frozen():
    pairs = split_epi_pres().composable_pairs()
    assert [(p.name, p.composite) for p in pairs.pairs] == [
        ("e0*e0", "e0"),
        ("e0*j", "j"),
        ("e1*e1", "e1"),
        ("j*e1", "j"),
    ]
    assert pairs.lifting_squares() == []
    gens = pairs.lifting_generators()
    assert dict(gens)["e0*j"].bot.size == 1


def test_abc_composable_pairs_contains_named_composite():
    pairs = abc_pres().composable_pairs()
    by_name = {p.name: p for p in pairs.pairs}
    assert len(pairs.pairs) == 10
    assert by_name["a*b"].composite == "c"
    assert by_name["a*e2"].composite == "a"
    assert by_name["e1*c"].composite == "c"


def test_composable_pairs_deterministic():
    first = split_epi_pres().composable_pairs()
    second = split_epi_pres().composable_pairs()
    assert [p.name for p in first.pairs] == [p.name for p in second.pairs]


# ---------------------------------------------------------------------------
# deliberate corruptions
# ---------------------------------------------------------------------------


def test_corrupted_vertical_identity_realisation_is_the_only_violation():
    pres = DoubleCatPresentation.build(
        objects={"x": 2},
        varrows=[("ex", "x", "x", [1, 1])],
        vid={"x": "ex"},
    )
    report = pres.validate()
    assert report.axioms() == ["vertical-identity-realisation"]
    assert "ex" in report.violations[0].witness


def test_missing_vertical_identity_is_rejected():
    pres = DoubleCatPresentation.build(
        objects={"x": 1},
        varrows=[("v", "x", "x", [0])],
        vid={},
    )
    assert "vertical-identity" in pres.validate().axioms()


def test_noncommuting_square_is_rejected():
    pres = DoubleCatPresentation.build(
        objects={"a": 1, "b": 2},
        varrows=[
            ("ea", "a", "a", [0]),
            ("eb", "b", "b", [0, 1]),
            ("u", "a", "b", [0]),
            ("w", "a", "b", [1]),
        ],
        vid={"a": "ea", "b": "eb"},
        squares=[("s", "u", "w", "1_a", "1_b")],
        square_vcomp=[("1_ea", "s", "s"), ("s", "1_eb", "s")],
    )
    assert pres.validate().axioms() == ["realisation-square"]


def test_missing_vertical_composite_is_rejected():
    pres = abc_pres()
    broken = dataclasses.replace(pres, vcomp={})
    report = broken.validate()
    assert "vertical-composition-totality" in report.axioms()
    assert any("a, b" in v.witness for v in report.violations)


def test_wrong_composite_realisation_is_rejected():
    pres = DoubleCatPresentation.build(
        objects={"x1": 1, "x2": 1, "x3": 2},
        varrows=[
            ("e1", "x1", "x1", [0]),
            ("e2", "x2", "x2", [0]),
            ("e3", "x3", "x3", [0, 1]),
            ("a", "x1", "x2", [0]),
            ("b", "x2", "x3", [0]),
            ("c", "x1", "x3", [1]),
        ],
        vid={"x1": "e1", "x2": "e2", "x3": "e3"},
        vcomp=[("a", "b", "c")],
    )
    assert "realisation-vertical-functor" in pres.validate().axioms()


def test_reserved_vertical_name_is_rejected():
    pres = DoubleCatPresentation.build(
        objects={"x": 1},
        varrows=[("ex", "x", "x", [0]), ("1_v", "x", "x", [0])],
        vid={"x": "ex"},
    )
    assert "reserved-name" in pres.validate().axioms()


def test_unknown_square_reference_is_rejected():
    pres = DoubleCatPresentation.build(
        objects={"x": 1},
        varrows=[("ex", "x", "x", [0])],
        vid={"x": "ex"},
        squares=[("s", "ex", "ghost", "1_x", "1_x")],
    )
    assert "unknown-reference" in pres.validate().axioms()


def test_ensure_valid_raises_with_report():
    pres = DoubleCatPresentation.build(
        objects={"x": 1},
        varrows=[("v", "x", "x", [0])],
        vid={},
    )
    with pytest.raises(InvalidPresentation) as exc:
        pres.ensure_valid()
    assert hasattr(exc.value, "report")
    with pytest.raises(InvalidPresentation):
        pres.composable_pairs()


# ---------------------------------------------------------------------------
# plain presentations
# ---------------------------------------------------------------------------


def test_two_generator_plain_presentation_is_valid():
    pres = two_gen_plain_pres()
    report = pres.validate()
    assert report.ok, report.summary()
    squares = pres.lifting_squares()
    assert len(squares) == 1
    name, src, dst, cs = squares[0]
    assert (name, src, dst) == ("s", "j", "k")
    assert cs.bot.table == (0,)


def test_plain_noncommuting_square_is_rejected():
    pres = PlainPresentation.build(
        generators=[("j", 1, 2, [0]), ("k", 1, 2, [1])],
        morphisms=[("s", "j", "k", [0], [0, 1])],
    )
    assert "realisation-square" in pres.validate().axioms()


def test_plain_wrong_functor_realisation_is_rejected():
    pres = PlainPresentation.build(
        generators=[("j", 1, 1, [0])],
        morphisms=[
            ("s", "j", "j", [0], [0]),
            ("t", "j", "j", [0], [0]),
        ],
        comp=[("s", "s", "t"), ("s", "t", "s"), ("t", "s", "s"), ("t", "t", "t")],
    )
    # the table is a perfectly good category; realisations all agree, so valid
    assert pres.validate().ok
    broken = PlainPresentation.build(
        generators=[("j", 2, 2, [0, 1]), ("k", 2, 2, [0, 1])],
        morphisms=[
            ("s", "j", "k", [0, 1], [0, 1]),
            ("t", "k", "j", [1, 0], [1, 0]),
            ("u", "j", "j", [0, 1], [0, 1]),
            ("w", "k", "k", [0, 1], [0, 1]),
        ],
        comp=[
            ("s", "t", "u"),
            ("t", "s", "w"),
            ("u", "s", "s"),
            ("s", "w", "s"),
            ("w", "t", "t"),
            ("t", "u", "t"),
            ("u", "u", "u"),
            ("w", "w", "w"),
        ],
    )
    assert "realisation-functor" in broken.validate().axioms()


def test_plain_missing_composite_rejected():
    pres = PlainPresentation.build(
        generators=[("j", 1, 1, [0])],
        morphisms=[("s", "j", "j", [0], [0]), ("t", "j", "j", [0], [0])],
    )
    assert "composition-totality" in pres.validate().axioms()


def test_non_composable_plain_entry_is_reported_not_raised():
    pres = dataclasses.replace(two_gen_plain_pres(), comp={("s", "s"): "s"})
    report = pres.validate()
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("composition-boundary", "(s, s) not composable")
    ]


def test_non_composable_horizontal_entry_is_reported_not_raised():
    pres = DoubleCatPresentation.build(
        objects={"x": 1, "y": 2},
        harrows=[("h", "x", "y", [0])],
        hcomp=[("h", "h", "h")],
        varrows=[("ex", "x", "x", [0]), ("ey", "y", "y", [0, 1])],
        vid={"x": "ex", "y": "ey"},
        squares=[("sh", "ex", "ey", "h", "h")],
    )
    # sh stacks on itself and the table gives no composite for the pair
    assert pres.validate().axioms() == [
        "horizontal-composition-boundary", "vertical-composition-square-totality"
    ]


def _stacked_pres(**changes) -> DoubleCatPresentation:
    """Two identity squares stacked on and under a square ``s: u -> w``."""
    spec = dict(
        objects={"a": 1, "b": 2},
        varrows=[("ea", "a", "a", [0]), ("eb", "b", "b", [0, 1]),
                 ("u", "a", "b", [0]), ("w", "a", "b", [0])],
        vid={"a": "ea", "b": "eb"},
        squares=[("s", "u", "w", "1_a", "1_b")],
        square_vcomp=[("1_ea", "s", "s"), ("s", "1_eb", "s")],
    )
    spec.update(changes)
    return DoubleCatPresentation.build(**spec)


def test_vertical_square_fault_is_reported_next_to_an_unrelated_fault():
    assert _stacked_pres().validate().ok
    pres = _stacked_pres(
        hcomp=[("1_a", "1_b", "1_a")],
        square_vcomp=[("1_ea", "s", "s"), ("s", "1_eb", "1_eb")],
    )
    assert [(v.axiom, v.witness) for v in pres.validate().violations] == [
        ("horizontal-composition-boundary", "(1_a, 1_b) not composable"),
        ("vertical-composition-square-identity-law", "(s, 1_eb) = 1_eb, expected s"),
        ("vertical-composition-square-boundary", "(s, 1_eb) = 1_eb"),
    ]


def test_vertical_square_entries_must_name_known_stackable_squares():
    entries = [("1_ea", "s", "s"), ("s", "1_eb", "s")]
    pres = _stacked_pres(square_vcomp=entries + [
        ("1_ea", "ghost", "s"),
        ("s", "s", "s"),
        ("1_eb", "1_ea", "1_ea"),
        ("1_ea", "1_ea", "ghost"),
    ])
    assert [(v.axiom, v.witness) for v in pres.validate().violations] == [
        ("unknown-reference", "vertical composite of squares (1_ea, ghost) = s"),
        ("vertical-composition-square-boundary", "(s, s) not composable"),
        ("vertical-composition-square-boundary", "(1_eb, 1_ea) not composable"),
        ("unknown-reference", "vertical composite of squares (1_ea, 1_ea) = ghost"),
    ]


def test_vertical_square_checks_skip_squares_with_faults():
    # t has an unknown vertical side; no vertical check may look it up
    pres = _stacked_pres(
        squares=[("s", "u", "w", "1_a", "1_b"), ("t", "ghost", "w", "1_a", "1_b")],
        square_vcomp=[("1_ea", "s", "s"), ("s", "1_eb", "s"), ("1_ea", "t", "t")],
    )
    report = pres.validate()
    assert ("unknown-reference", "vertical composite of squares (1_ea, t) = t") in [
        (v.axiom, v.witness) for v in report.violations
    ]


def _functor_fault_pres() -> DoubleCatPresentation:
    """Two parallel squares ``s`` and ``t`` next to the identity square
    ``eh`` of ``h``, whose vertical composites break functoriality over
    horizontal composition in four ways; ``eh`` above ``s`` being ``t``
    also breaks the unit law, and with it associativity."""
    bound = {"eh": ("ex", "ex"), "s": ("v", "v"), "t": ("v", "v")}
    return DoubleCatPresentation.build(
        objects={"x": 1},
        harrows=[("h", "x", "x", [0])],
        hcomp=[("h", "h", "h")],
        varrows=[("ex", "x", "x", [0]), ("v", "x", "x", [0])],
        vid={"x": "ex"},
        vcomp=[("v", "v", "v")],
        squares=[(n, src, dst, "h", "h") for n, (src, dst) in bound.items()],
        square_comp=[("eh", "eh", "eh"), ("s", "s", "s"), ("s", "t", "t"), ("t", "s", "t"),
                     ("t", "t", "s")],
        square_vcomp=[("eh", "eh", "eh"), ("eh", "s", "t"), ("eh", "t", "t"), ("s", "eh", "s"),
                      ("s", "s", "s"), ("s", "t", "t"), ("t", "eh", "t"), ("t", "s", "t"),
                      ("t", "t", "s")],
    )


FUNCTOR_FAULT_REPORT = (
    [("vertical-composition-square-identity-law", "(eh, s) = t, expected s")]
    + [("vertical-composition-functor", w) for w in (
        "((eh, s), (eh, s))", "((eh, s), (eh, t))", "((eh, t), (eh, s))", "((eh, t), (eh, t))")]
    + [("vertical-composition-square-associativity", w) for w in (
        "((eh, s), t): s != t", "((eh, t), t): s != t", "((s, eh), s): s != t",
        "((t, eh), s): t != s")])


def test_functoriality_faults_are_listed_in_pair_order():
    assert [(v.axiom, v.witness) for v in _functor_fault_pres().validate().violations] == (
        FUNCTOR_FAULT_REPORT)


UNIT_LAW_DOC = {
    "kind": "double", "objects": {"a": 1},
    "vmorphisms": [{"name": "e", "vdom": "a", "vcod": "a",
                    "umap": {"dom": 1, "cod": 1, "table": [0]}}],
    "vid": {"a": "e"},
    "squares": [{"name": "s", "vsrc": "e", "vdst": "e", "h_top": "1_a", "h_bot": "1_a"}],
    "square_comp": [{"left": "s", "right": "s", "result": "s"}],
    "square_vcomp": [{"left": "1_e", "right": "s", "result": "1_e"},
                     {"left": "s", "right": "1_e", "result": "s"},
                     {"left": "s", "right": "s", "result": "s"}],
}


def test_vertical_identity_square_is_a_unit_for_stacking():
    # 1_e is the vertical identity square on 1_a, so 1_e above s must be s
    report = decode_presentation(UNIT_LAW_DOC).validate()
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("vertical-composition-square-identity-law", "(1_e, s) = 1_e, expected s")]
    lawful = copy.deepcopy(UNIT_LAW_DOC)
    lawful["square_vcomp"][0]["result"] = "s"
    assert decode_presentation(lawful).validate().ok


def _assoc_pres(vs_result: str) -> DoubleCatPresentation:
    """Squares ``s`` and ``t`` on an idempotent vertical endo-arrow ``v``
    beside the identity ``e``; ``1_v`` above ``s`` is ``vs_result``, and
    the other composites keep both square compositions lawful.  With one
    vertical arrow, interchange and the two unit laws force associativity
    (Eckmann-Hilton); here the horizontal unit ``1_v`` of these squares is
    not their vertical unit ``1_e``, so associativity can fail alone."""
    return DoubleCatPresentation.build(
        objects={"a": 1},
        varrows=[("e", "a", "a", [0]), ("v", "a", "a", [0])],
        vid={"a": "e"},
        vcomp=[("v", "v", "v")],
        squares=[(n, "v", "v", "1_a", "1_a") for n in ("s", "t")],
        square_comp=[("s", "s", "s"), ("s", "t", "s"), ("t", "s", "s"), ("t", "t", "t")],
        square_vcomp=[("1_e", "s", "s"), ("1_e", "t", "t"), ("s", "1_e", "s"), ("t", "1_e", "t"),
                      ("1_v", "s", vs_result), ("1_v", "t", "1_v"), ("s", "1_v", "s"),
                      ("s", "s", "s"), ("s", "t", "s"), ("t", "1_v", "s"), ("t", "s", "s"),
                      ("t", "t", "s")],
    )


def test_vertical_composition_of_squares_is_associative():
    assert _assoc_pres("1_v").validate().ok
    # (1_v above t) above 1_v is 1_v, but 1_v above (t above 1_v) is s
    assert [(v.axiom, v.witness) for v in _assoc_pres("s").validate().violations] == [
        ("vertical-composition-square-associativity", "((1_v, t), 1_v): 1_v != s"),
        ("vertical-composition-square-associativity", "((1_v, t), t): 1_v != s"),
    ]


def test_validate_report_does_not_depend_on_string_hashing():
    """Under two hash seeds that order a set of the square pairs differently,
    ``validate`` lists the same violations in the same order."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    code = ("import json, test_presentation as t; print(json.dumps([[v.axiom, v.witness] "
            "for v in t._functor_fault_pres().validate().violations]))")
    reports = []
    for hash_seed in ("1", "3"):
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**env, "PYTHONHASHSEED": hash_seed}, timeout=60)
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout)
    assert reports[0] == reports[1]
    assert [tuple(v) for v in json.loads(reports[0])] == FUNCTOR_FAULT_REPORT


def test_square_with_wrong_boundary_is_reported_not_raised():
    pres = DoubleCatPresentation.build(
        objects={"x": 1, "y": 2},
        varrows=[("ex", "x", "x", [0]), ("ey", "y", "y", [0, 1])],
        vid={"x": "ex", "y": "ey"},
        squares=[("s", "ex", "ey", "1_x", "1_x")],
    )
    assert pres.validate().axioms() == ["square-boundary", "square-boundary"]


def test_duplicate_vertical_name_with_other_endpoints_is_one_fault():
    pres = abc_pres()
    dup = dataclasses.replace(pres, varrows=pres.varrows + (dataclasses.replace(pres.varrows[4], name="a"),))
    assert [(v.axiom, v.witness) for v in dup.validate().violations] == [
        ("duplicate-name", "vertical arrow a")
    ]


def test_raw_map_wellformedness():
    assert RawMap(2, 2, (0, 1)).realise() == FiniteMap(FinSet(2), FinSet(2), (0, 1))
    assert RawMap(2, 2, (0,)).realise() is None
    assert RawMap(1, 1, (1,)).realise() is None
    assert RawMap(-1, 1, ()).realise() is None
    assert RawMap(True, 1, (0,)).realise() is None  # FinSet refuses a boolean size


def test_boolean_carrier_size_is_reported_not_raised():
    """Only the Python API reaches these: the JSON decoders refuse booleans."""
    plain = PlainPresentation.build([("g", True, 1, [0])])
    assert plain.validate().summary() == "realisation-map[generator g]"
    double = DoubleCatPresentation.build({"a": True}, varrows=[("i", "a", "a", [0])], vid={"a": "i"})
    assert double.validate().summary() == "object-size[object a: True]"


# ---------------------------------------------------------------------------
# the lifting view reads the realisation validation built
# ---------------------------------------------------------------------------


LIBRARY = {
    "split_epi": split_epi_pres, "abc": abc_pres, "composite": composite_pres,
    "retract": retract_pres, "square": square_pres, "pair_square": pair_square_pres,
    "uniform1": lambda: uniform_monos_pres(1), "uniform2": lambda: uniform_monos_pres(2),
    "codiag": codiag_pres, "growth": growth_pres, "plain_split_epi": plain_split_epi_pres,
    "two_gen_plain": two_gen_plain_pres,
}
LIBRARY.update({
    path.name: (lambda path=path: decode_presentation(read_json(str(path)), str(path)))
    for path in sorted(FIXTURES.glob("gen_*.json"))
})


def _built(m: RawMap) -> FiniteMap:
    return FiniteMap(FinSet(m.dom), FinSet(m.cod), tuple(m.table))


def _rebuilt_view(pres) -> dict:
    """The lifting view built from the specs cell by cell, as each call
    built it before validation realised it once: generators, squares, and
    for a double presentation every vertical arrow, every horizontal map
    (identities included) and the pair extension's generators."""
    if pres.kind == "plain":
        gens = {g.name: ArrowObject(_built(g.umap)) for g in pres.generators}
        squares = [(m.name, m.dom, m.cod, CommSquare(gens[m.dom], gens[m.cod],
                                                     _built(m.top), _built(m.bot)))
                   for m in pres.morphisms]
        return {"generators": list(gens.items()), "squares": squares}
    sizes = dict(pres.objects)

    def hmap(name):
        if is_id_name(name):
            return identity(FinSet(sizes[name[len(ID_PREFIX):]]))
        h = next(h for h in pres.harrows if h.name == name)
        return FiniteMap(FinSet(sizes[h.dom]), FinSet(sizes[h.cod]), h.umap.table)

    uarrow = {v.name: ArrowObject(FiniteMap(FinSet(sizes[v.vdom]), FinSet(sizes[v.vcod]),
                                            v.umap.table)) for v in pres.varrows}
    return {
        "generators": list(uarrow.items()),
        "squares": [(s.name, s.vsrc, s.vdst, CommSquare(uarrow[s.vsrc], uarrow[s.vdst],
                                                        hmap(s.h_top), hmap(s.h_bot)))
                    for s in pres.squares],
        "hmaps": {n: hmap(n) for n in [h.name for h in pres.harrows]
                  + [id_name(o) for o, _ in pres.objects]},
        "pairs": [(p.name, uarrow[p.composite]) for p in pres.composable_pairs().pairs],
    }


def _view(pres) -> dict:
    """The lifting view as the presentation serves it, with every accessor."""
    view = {"generators": pres.lifting_generators(), "squares": pres.lifting_squares()}
    if pres.kind == "double":
        assert [(v.name, pres.uarrow(v.name)) for v in pres.varrows] == view["generators"]
        view["hmaps"] = {n: pres.hmap(n) for n in [h.name for h in pres.harrows]
                         + [id_name(o) for o, _ in pres.objects]}
        pairs = pres.composable_pairs()
        assert pairs.lifting_squares() == []
        view["pairs"] = pairs.lifting_generators()
    return view


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_realised_view_matches_the_cells_built_one_by_one(name):
    pres = LIBRARY[name]()
    assert pres.validate().ok
    assert _view(pres) == _rebuilt_view(pres)


@pytest.mark.parametrize("make", [two_gen_plain_pres, abc_pres, pair_square_pres],
                         ids=["plain", "double", "pair_square"])
def test_view_builds_no_map_or_square_after_its_first_call(make, monkeypatch):
    pres = make()
    _view(pres)  # realises the presentation and any identity hmap asks for
    built = []
    for cls in (FiniteMap, CommSquare):
        check = cls.__post_init__

        def counted(self, check=check):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert [(n, u.top.size) for n, u in pres.lifting_generators()] and not built
    for _ in range(2):
        view = _view(pres)
    assert built == []
    FiniteMap(FinSet(0), FinSet(0), ())  # the counter is live
    assert built == ["FiniteMap"]
    if make is pair_square_pres:
        assert len(view["squares"]) == 1 and len(view["pairs"]) > 0


def _noncommuting_plain() -> PlainPresentation:
    return PlainPresentation.build(
        generators=[("j", 1, 2, [0]), ("k", 1, 2, [1])],
        morphisms=[("s", "j", "k", [0], [0, 1])],
    )


@pytest.mark.parametrize("call", [
    lambda p: p.lifting_generators(),
    lambda p: p.lifting_squares(),
    lambda p: run_chain(p, FiniteMap(FinSet(3), FinSet(2), (0, 1, 0)), mode="plain"),
], ids=["lifting_generators", "lifting_squares", "run_chain"])
def test_view_of_an_invalid_plain_presentation_raises_its_report(call):
    with pytest.raises(InvalidPresentation) as exc:
        call(_noncommuting_plain())
    assert exc.value.report == _noncommuting_plain().validate()
    assert exc.value.report.axioms() == ["realisation-square"]


def test_identity_on_a_carrier_no_map_lives_on_is_not_built():
    """A declared size alone costs nothing: the identity horizontal arrow
    is compared as a ``range`` and never spelt out as a table."""
    obj = {"kind": "double", "objects": {"a": 10**6}, "vmorphisms": [], "vid": {}}
    pres = decode_presentation(obj, "big.json")
    small = decode_presentation({**obj, "objects": {"a": 1}}, "small.json")
    tracemalloc.start()
    try:
        report = pres.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [(v.axiom, v.witness) for v in report.violations] == [
        (v.axiom, v.witness) for v in small.validate().violations
    ] == [("vertical-identity", "object a has no identity vertical arrow")]
