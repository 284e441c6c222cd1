"""The lazy lift table against the per-filler dictionary it replaced.

``extract`` returns a ``LiftTable``: every filler held in one checked map,
``beta0`` after the copaired cells, sliced out on demand.  The reference
below is the dictionary ``extract`` built before, one checked map per
problem read off the problem's cell.  The two must agree in key order,
length, lookups, unknown keys and the certificate bytes, on fast and general
structures in both modes, including generators with an empty bottom,
generators with no problems and an empty table.  Path guards count the
maps that extracting and writing a large certificate build, the per-key
lookups ``verify`` makes (none), the maps ``lift`` builds (as many on
65,536 fillers as on 81) and the integers decoding checks one by one (only
scalars, no table entry), and a seeded round trip checks that a decoded
certificate (a ``LiftTable`` of the records' columns) encodes to the bytes
the lift table wrote.
"""

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from awfskit import serialize
from awfskit.arrows import CommSquare
from awfskit.chain import LiftTable, extract, factorise, run_chain, solve_lift
from awfskit.cli import main as cli_main
from awfskit.errors import NotStabilised, ProblemMismatch, SizeBudgetExceeded
from awfskit.finset import FinSet, FiniteMap
from awfskit.presentation import PlainPresentation
from awfskit.serialize import (
    decode_certificate,
    decode_presentation,
    dumps,
    encode_certificate,
    parse_text,
    read_json,
)
from awfskit.step import LiftingProblem, SizeBudget, StepStructure, _GenLayout
from awfskit.verify import Certificate, verify_certificate

from fixture_lib import (
    abc_pres,
    codiag_pres,
    composite_pres,
    f_0to1,
    f_3to2,
    fmap,
    growth_pres,
    pair_square_pres,
    plain_split_epi_pres,
    retract_pres,
    split_epi_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)
from reference_step import reference_lift_table
from test_serialize import plain_certificate_payload, reference_dumps

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def unknown_keys(result: Certificate, ref: dict) -> list:
    """Keys that name no problem: an unknown generator, wrong lengths,
    entries outside the arrow, a square that does not commute, and keys
    that are not triples."""
    x, y = result.right.top.size, result.right.bot.size
    out = [("no-such-generator", (), ()), ("j",), "j", None, 7]
    for gen, top, bot in itertools.islice(ref, 0, None, max(1, len(ref) // 5)):
        out += [(gen, top + (0,), bot), (gen, top, bot + (0,)), (gen, bot, top)]
        if top:
            out.append((gen, (x,) + top[1:], bot))
            out.append((gen, (-1,) + top[1:], bot))
        if bot:
            out.append((gen, top, (y,) + bot[1:]))
            out.append((gen, top, tuple((b + 1) % y for b in bot)))
    return [key for key in out if key not in ref]


def check_against_reference(pres, result: Certificate) -> None:
    table, ref = result.lift_table, reference_lift_table(result)
    assert isinstance(table, LiftTable)
    assert list(table) == list(ref)
    assert len(table) == len(ref) == len(table.keys()) == len(table.items())
    assert list(table.items()) == list(ref.items())
    assert list(table.values()) == list(ref.values())
    assert table == ref and ref == table
    for key, filler in ref.items():
        assert table[key] == filler and table.get(key) == filler and key in table
    for key in unknown_keys(result, ref):
        assert key not in table
        assert table.get(key) is None
        with pytest.raises(KeyError):
            table[key]

    # solve_lift answers from either table the same way, and refuses the same way
    st = result.trace.engine.step_tables(result.right)
    by_dict = replace(result, lift_table=ref)
    gens = dict(st.shape.lifting_generators())
    problems = [LiftingProblem.of(gen, gens[gen], result.right, top, bot)
                for gen, top, bot in itertools.islice(ref, 8)]
    for p in problems:
        assert solve_lift(result, p) == solve_lift(by_dict, p) == ref[p.key]
        ghost = LiftingProblem("ghost", p.square)
        for r in (result, by_dict):
            with pytest.raises(ProblemMismatch):
                solve_lift(r, ghost)

    # the certificate bytes: the lift table's runs, the runs from_items builds from the
    # dictionary, and json.dumps
    cert = Certificate.from_result(pres, result)
    assert cert.lift_table is table
    text = dumps(encode_certificate(cert))
    assert text == reference_dumps(plain_certificate_payload(cert))
    assert dumps(encode_certificate(replace(cert, lift_table=ref))) == text


def _seeded_map(dom: int, cod: int, seed_: int) -> FiniteMap:
    rng = random.Random(seed_)
    return fmap(dom, cod, [rng.randrange(cod) for _ in range(dom)])


def small_maps() -> list:
    """Every map with at most 3 points into 1 or 2 points, and one seeded
    40 -> 5 map."""
    out = [fmap(x, y, t) for y in (1, 2) for x in range(4)
           for t in itertools.product(range(y), repeat=x)]
    return out + [_seeded_map(40, 5, 7)]


def uniform_monos2_pres():
    return uniform_monos_pres(2)


SHAPES = [
    plain_split_epi_pres,
    two_gen_plain_pres,
    growth_pres,
    codiag_pres,
    split_epi_pres,
    abc_pres,
    composite_pres,
    retract_pres,
    pair_square_pres,
    uniform_monos2_pres,
]
SHAPE_MODES = [(make, mode) for make in SHAPES for mode in ("plain", "special")
               if mode == "plain" or make().kind == "double"]


def factorisations(make, mode):
    pres = make()
    for f in small_maps():
        try:
            yield pres, factorise(pres, f, mode=mode, max_stage=4,
                                  budget=SizeBudget(max_problems=20_000))
        except (NotStabilised, SizeBudgetExceeded):
            continue


@pytest.mark.parametrize("make,mode", SHAPE_MODES, ids=lambda v: getattr(v, "__name__", v))
def test_lift_table_matches_per_filler_reference(make, mode):
    checked = 0
    for pres, result in factorisations(make, mode):
        check_against_reference(pres, result)
        checked += 1
    assert checked


@pytest.mark.parametrize("make,mode,general", [
    (two_gen_plain_pres, "plain", True),
    (retract_pres, "special", True),
    (codiag_pres, "plain", True),
    (composite_pres, "special", False),
    (abc_pres, "plain", False),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_both_kinds_of_structure_are_covered(make, mode, general):
    result = factorise(make(), f_0to1(), mode=mode, max_stage=4)
    # only general steps carry the quotient of the problems' bottoms
    assert (result.trace.engine.step_tables(result.right).bottoms is not None) == general


class TestEdgeCases:
    def test_generator_with_empty_bottom(self):
        # ``ep`` runs 0 -> 0: one problem, whose filler has an empty domain
        pres = composite_pres()
        result = factorise(pres, f_3to2(), mode="special", max_stage=4)
        assert result.lift_table[("ep", (), ())] == FiniteMap(FinSet(0), result.beta0.cod, ())
        assert [key for key in result.lift_table if key[0] == "ep"] == [("ep", (), ())]
        check_against_reference(pres, result)

    def test_generators_without_problems(self):
        # every generator of abc has a non-empty top, and the map has an empty domain
        pres = abc_pres()
        for mode in ("plain", "special"):
            result = factorise(pres, f_0to1(), mode=mode, max_stage=4)
            assert result.trace.engine.step_tables(result.right).problem_count() == 0
            assert list(result.lift_table) == [] and len(result.lift_table) == 0
            check_against_reference(pres, result)
            text = dumps(encode_certificate(Certificate.from_result(pres, result)))
            assert '"lift_table": []' in text

    def test_some_generators_without_problems(self):
        # against the empty map into an empty codomain only ``ep`` (0 -> 0) has
        # a problem; ``eq`` (1 -> 1) and ``a`` (0 -> 1) have none
        pres = composite_pres()
        result = factorise(pres, fmap(0, 0, []), mode="special", max_stage=4)
        assert list(result.lift_table) == [("ep", (), ())]
        check_against_reference(pres, result)

    def test_empty_table(self):
        pres = PlainPresentation(generators=(), morphisms=(), comp={})
        result = factorise(pres, f_3to2(), max_stage=2)
        assert result.lift_table == {} and list(result.lift_table.items()) == []
        check_against_reference(pres, result)
        obj = json.loads(dumps(encode_certificate(Certificate.from_result(pres, result))))
        assert obj["lift_table"] == []

    def test_lift_table_is_read_only(self):
        result = factorise(plain_split_epi_pres(), f_3to2(), max_stage=2)
        key = next(iter(result.lift_table))
        with pytest.raises(TypeError):
            result.lift_table[key] = result.lift_table[key]


# ---------------------------------------------------------------------------
# the path guard


def test_large_chain_builds_a_constant_number_of_maps(monkeypatch):
    """Extracting and writing the certificate of a composite special chain
    of about 4000 -> 400 builds a few maps, not one per filler."""
    pres = composite_pres()
    trace = run_chain(pres, _seeded_map(4000, 400, 4000), mode="special", max_stage=4)
    built = []
    check = FiniteMap.__post_init__

    def counted(self):
        built.append(self.dom.size)
        check(self)

    monkeypatch.setattr(FiniteMap, "__post_init__", counted)
    result = extract(trace)
    text = dumps(encode_certificate(Certificate.from_result(pres, result)))
    assert len(result.lift_table) > 10_000
    assert len(built) < 50
    assert text.count('"generator"') == len(result.lift_table)
    # the counter sees a lookup, which slices out one checked map
    before = len(built)
    result.lift_table[next(iter(result.lift_table))]
    assert len(built) == before + 1


def _counting(monkeypatch, owners) -> dict:
    """Count the calls of each ``(class, method)`` in ``owners``."""
    counts = {}
    for cls, name in owners:
        def counted(*args, _orig=getattr(cls, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("make,mode", [(composite_pres, "special"), (composite_pres, "plain"),
                                       (two_gen_plain_pres, "plain")],
                         ids=["composite-special", "composite-plain", "two_gen-plain"])
def test_verify_makes_no_per_key_lookup(make, mode, monkeypatch):
    """``verify_certificate`` reads the lift table as columns, in memory and
    decoded: no filler is looked up by key, no cell or rank is computed per
    problem (``StepStructure`` has no per-key ``locate``), and on fast steps the
    number of maps it builds does not grow with the table."""
    assert not hasattr(StepStructure, "locate")
    built = {}
    for x, y in ((120, 20), (1500, 150)):
        pres = make()
        result = factorise(pres, _seeded_map(x, y, x), mode=mode,
                           max_stage=4 if mode == "special" else 3)
        cert = Certificate.from_result(pres, result)
        decoded = decode_certificate(parse_text(dumps(encode_certificate(cert))), pres)
        assert isinstance(decoded.lift_table, LiftTable)
        with monkeypatch.context() as m:
            counts = _counting(m, [(LiftTable, "__getitem__"), (StepStructure, "cell"),
                                   (_GenLayout, "rank"), (FiniteMap, "__post_init__")])
            for c in (cert, decoded):
                report = verify_certificate(c)
                assert report.ok == (mode == "special" or make is two_gen_plain_pres)
        assert set(counts) == {"__post_init__"}
        built[x] = counts["__post_init__"]
    if make is composite_pres:
        assert built[120] == built[1500]


def test_lift_builds_a_constant_number_of_maps(tmp_path, monkeypatch, capsys):
    """``lift`` decodes the lift table into columns and slices its one
    filler: it builds as many maps on a certificate of 65,536 fillers as on
    one of 81."""
    built = {}
    for n, dom in ((3, 4), (4, 16)):
        pres = tmp_path / f"ident{n}.json"
        pres.write_text(json.dumps({"kind": "plain", "generators": [
            {"name": "g", "map": {"dom": n, "cod": n, "table": list(range(n))}}]}))
        f = tmp_path / f"f{n}.json"
        f.write_text(json.dumps({"dom": dom, "cod": 1, "table": [0] * dom}))
        cert, problem = tmp_path / f"cert{n}.json", tmp_path / f"problem{n}.json"
        assert cli_main(["factor", "--presentation", str(pres), "--map", str(f),
                         "--budget", "65536", "--out", str(cert)]) == 0
        problem.write_text(json.dumps({"generator": "g", "top": [1] * n, "bot": [0] * n}))
        capsys.readouterr()
        with monkeypatch.context() as m:
            counts = _counting(m, [(FiniteMap, "__post_init__"), (LiftTable, "__getitem__")])
            assert cli_main(["lift", "--presentation", str(pres), "--certificate", str(cert),
                             "--problem", str(problem), "--budget", "65536"]) == 0
        out = capsys.readouterr().out
        assert out == f"filler for ('g', {(1,) * n}, {(0,) * n}): {[1] * n}\n"
        assert counts["__getitem__"] == 1
        built[n] = counts["__post_init__"]
    assert built[3] == built[4] < 20


def test_decoding_checks_each_table_in_one_pass(monkeypatch):
    """Decoding a valid certificate of about 5,000 records reads the lift
    table as columns and never walks its records, and checks integers one
    by one only for the scalars of its maps and arrows and its stage: every
    integer table is checked by one pass over the whole table."""
    pres = composite_pres()
    result = factorise(pres, _seeded_map(1500, 150, 1500), mode="special", max_stage=4)
    obj = parse_text(dumps(encode_certificate(Certificate.from_result(pres, result))))
    assert len(obj["lift_table"]) > 4000

    def no_walk(records, path):
        raise AssertionError("the lift table was walked record by record")

    with monkeypatch.context() as m:
        m.setattr(serialize, "_walk_lift_table", no_walk)
        counts = _counting(m, [(serialize, "_as_int")])
        cert = decode_certificate(obj, pres)
    assert isinstance(cert.lift_table, LiftTable)
    # input and right: top, bot, dom, cod; left and beta0: dom, cod; stage
    assert counts == {"_as_int": 13}
    assert dumps(encode_certificate(cert)) == dumps(obj)


# ---------------------------------------------------------------------------
# the round trip


def _fixture(name: str):
    return decode_presentation(read_json(str(FIXTURES / f"{name}.json")))


# ``gen_growth`` never stabilises, so it has no certificate to write
ROUND_TRIP = [(name, mode) for name in ("gen_split_epi", "gen_composite", "gen_abc")
              for mode in ("plain", "special")] + [("two_gen", "plain")]
# the verdicts ``verify`` gives: plain mode ignores vertical composition, which
# the composite presentation names
FAILURES = {("gen_composite", "plain"): {"vertical-compatibility"}}

maps = hst.integers(0, 4).flatmap(lambda x: hst.integers(1, 3).flatmap(
    lambda y: hst.lists(hst.integers(0, y - 1), min_size=x, max_size=x).map(
        lambda t: fmap(x, y, t))))


@pytest.mark.parametrize("name,mode", ROUND_TRIP, ids=[f"{n}-{m}" for n, m in ROUND_TRIP])
@seed(20261018)
@settings(max_examples=25, deadline=None)
@given(f=maps)
def test_decoded_certificate_encodes_to_the_written_bytes(name, mode, f):
    pres = two_gen_plain_pres() if name == "two_gen" else _fixture(name)
    try:
        result = factorise(pres, f, mode=mode, max_stage=4, budget=SizeBudget(max_problems=20_000))
    except (NotStabilised, SizeBudgetExceeded):
        return
    text = dumps(encode_certificate(Certificate.from_result(pres, result)))
    back = decode_certificate(parse_text(text), pres)
    assert isinstance(back.lift_table, LiftTable)
    assert dumps(encode_certificate(back)) == text
    report = verify_certificate(back)
    assert {e.label for e in report.failures()} == FAILURES.get((name, mode), set())
