"""Tests for the iterated-extension chain and factorisation extraction.

Frozen values were derived by hand.  For the one-generator split-epi
shape against f = [0,1,0]: the first extension adjoins one cell per
point of the codomain (carrier 5, map (0,1,0,0,1)); the second stage
coequalises each re-extended cell with the image of the original cell,
which identifies 5~3 and 6~4 inside the carrier-7 second extension, so
stage two has carrier 5 again and the connecting square becomes the
identity — the chain stabilises at stage 1 with middle object X+Y.

For the composite presentation (generators a, b, c with a;b = c)
against the same map, the special fork additionally identifies each
a-cell with the corresponding c-cell (the two-stage filling through b
lands on the a-cell, while the composite route lands on the c-cell),
so the special run needs one more stage (carriers 3,7,5,5,5) and both
cells answer lifting problems through the same point 3+y, whereas the
plain run stops at carrier 7 with the a- and c-cells kept apart.
"""

import ast
import dataclasses
import itertools
import random

import pytest

from awfskit.arrows import ArrowObject, CommSquare, identity_square, square_compose
from awfskit.errors import DiagramError, NotStabilised, ProblemMismatch, SizeBudgetExceeded
from awfskit.chain import (
    Certificate,
    ChainTrace,
    detect_stabilisation,
    extract,
    factorise,
    run_chain,
    run_plain,
    run_special,
    solve_lift,
)
from awfskit.finset import FinSet, FiniteMap, compose, identity, is_iso
from awfskit.presentation import PlainPresentation
from awfskit.step import LiftingProblem, SizeBudget, StepEngine
from awfskit.verify import _commuting_squares, verify_certificate

from fixture_lib import (
    abc_pres,
    codiag_pres,
    composite_pres,
    f_0to1,
    f_1to1,
    f_2to3,
    f_3to2,
    fmap,
    growth_pres,
    plain_split_epi_pres,
    retract_pres,
    split_epi_pres,
    two_gen_plain_pres,
)
from reference_step import reference_lift_table
from test_step import _calls_in_src, _scopes_in_src


def aobj(f) -> ArrowObject:
    return ArrowObject(f)


def _problem(shape, result, gen_name, top_table, bot_table) -> LiftingProblem:
    gen = dict(shape.lifting_generators())[gen_name]
    sq = CommSquare(
        gen,
        result.right,
        FiniteMap(gen.top, result.right.top, tuple(top_table)),
        FiniteMap(gen.bot, result.right.bot, tuple(bot_table)),
    )
    return LiftingProblem(gen_name, sq)


def _assert_propagation(trace: ChainTrace) -> None:
    isos = [is_iso(j.top) is not None for j in trace.connect]
    if trace.mode == "plain":
        for n in range(len(isos) - 1):
            if isos[n]:
                assert isos[n + 1], f"plain propagation broken at stage {n}"
    else:
        for n in range(len(isos) - 2):
            if isos[n] and isos[n + 1]:
                assert isos[n + 2], f"special propagation broken at stage {n}"


class TestTraceShape:
    def test_seed_stages(self):
        trace = run_plain(plain_split_epi_pres(), f_3to2(), max_stage=2)
        assert trace.stages[0] == aobj(f_3to2())
        assert trace.connect[0] == trace.engine.step_tables(trace.stages[0]).unit
        assert trace.structure[0] == identity_square(trace.stages[1])
        assert len(trace.stages) == 3
        assert len(trace.connect) == len(trace.structure) == 2
        assert trace.target == trace.stages[0]

    def test_run_chain_dispatch(self):
        plain = run_chain(split_epi_pres(), f_3to2(), mode="plain", max_stage=2)
        special = run_chain(split_epi_pres(), f_3to2(), mode="special", max_stage=3)
        assert plain.mode == "plain" and plain.double_engine is None
        assert special.mode == "special" and special.double_engine is not None
        # the mode and the shape are read off the engines, not stored
        assert plain.shape is plain.engine.shape and special.shape is special.engine.shape
        with pytest.raises(AttributeError):
            plain.mode = "special"
        with pytest.raises(DiagramError):
            run_chain(split_epi_pres(), f_3to2(), mode="weird")

    def test_max_stage_preconditions(self):
        with pytest.raises(DiagramError):
            run_plain(plain_split_epi_pres(), f_3to2(), max_stage=1)
        with pytest.raises(DiagramError):
            run_special(split_epi_pres(), f_3to2(), max_stage=2)

    def test_connecting_composites(self):
        trace = run_plain(plain_split_epi_pres(), f_3to2(), max_stage=3)
        assert trace.connecting(0, 0) == identity_square(trace.stages[0])
        expected = square_compose(trace.connect[1], trace.connect[0])
        assert trace.connecting(0, 2) == expected
        with pytest.raises(DiagramError):
            trace.connecting(2, 1)
        with pytest.raises(DiagramError):
            trace.connecting(0, 9)


class TestPlainSplitEpi:
    def test_frozen_stages(self):
        trace = run_plain(plain_split_epi_pres(), f_3to2(), max_stage=2)
        assert trace.carrier_sizes == [3, 5, 5]
        assert trace.stages[1].map.table == (0, 1, 0, 0, 1)
        assert trace.stages[2].map.table == (0, 1, 0, 0, 1)
        assert trace.structure[1].top.table == (0, 1, 2, 3, 4, 3, 4)
        assert trace.connect[0].top.table == (0, 1, 2)
        assert trace.connect[1].top.table == (0, 1, 2, 3, 4)
        assert detect_stabilisation(trace) == 1
        assert trace.verify_laws() == []

    def test_frozen_extraction(self):
        result = factorise(plain_split_epi_pres(), f_3to2(), mode="plain", max_stage=2)
        assert result.stage == 1
        assert result.middle_size == 5
        # R is the copairing of f and the identity on the codomain
        assert result.right.map.table == (0, 1, 0, 0, 1)
        assert result.left.table == (0, 1, 2)
        assert result.beta0.table == (0, 1, 2, 3, 4, 3, 4)
        assert compose(result.right.map, result.left).table == (0, 1, 0)
        assert set(result.lift_table) == {("j", (), (0,)), ("j", (), (1,))}
        for y in range(2):
            assert result.lift_table[("j", (), (y,))].table == (3 + y,)
        # the left factor and the identity on the codomain form a square into R
        CommSquare(result.input, result.right, result.left, identity(FinSet(2)))

    def test_extract_returns_one_certificate(self):
        shape = plain_split_epi_pres()
        trace = run_plain(shape, f_3to2(), max_stage=3)
        cert = extract(trace)
        assert isinstance(cert, Certificate)
        assert (cert.pres, cert.stage, cert.trace_sizes) == (shape, 1, [3, 5, 5, 5])
        assert cert.trace is trace and dataclasses.replace(cert, trace=None) == cert
        assert Certificate.from_result(shape, cert) == cert
        assert verify_certificate(cert).ok

    def test_identity_target_stabilises(self):
        result = factorise(plain_split_epi_pres(), f_1to1(), mode="plain", max_stage=2)
        assert result.stage == 1
        assert result.middle_size == 2
        assert result.right.map.table == (0, 0)
        assert result.lift_table[("j", (), (0,))].table == (1,)


class TestDoubleSplitEpiSpecial:
    def test_matches_plain_middle_object(self):
        trace = run_special(split_epi_pres(), f_3to2(), max_stage=3)
        assert detect_stabilisation(trace) == 1
        assert trace.carrier_sizes == [3, 5, 5, 5]
        assert trace.verify_laws() == []
        result = extract(trace)
        assert result.middle_size == 5
        assert result.right.map.table == (0, 1, 0, 0, 1)
        assert result.beta0.table == (0, 1, 2, 3, 4, 3, 4)
        for y in range(2):
            assert result.lift_table[("j", (), (y,))].table == (3 + y,)

    def test_empty_domain_target(self):
        result = factorise(split_epi_pres(), f_0to1(), mode="special", max_stage=3)
        assert result.stage == 1
        assert result.middle_size == 1
        assert result.right.map.table == (0,)
        assert result.left.table == ()
        assert result.lift_table[("j", (), (0,))].table == (0,)


class TestCompositeDifferential:
    def test_special_run_frozen(self):
        trace = run_special(composite_pres(), f_3to2(), max_stage=4)
        assert trace.carrier_sizes == [3, 7, 5, 5, 5]
        assert detect_stabilisation(trace) == 2
        assert trace.verify_laws() == []
        _assert_propagation(trace)
        result = extract(trace)
        assert result.stage == 2
        assert result.middle_size == 5
        assert result.left.table == (0, 1, 2)
        assert result.beta0.table == (0, 1, 2, 3, 4, 3, 4, 3, 4)
        for y in range(2):
            assert result.lift_table[("a", (), (y,))].table == (3 + y,)
            assert result.lift_table[("c", (), (y,))].table == (3 + y,)
        for t in range(5):
            pinned = result.right.map.table[t]
            assert result.lift_table[("b", (t,), (pinned,))].table == (t,)

    def test_special_needs_two_stationary_squares(self):
        trace = run_special(composite_pres(), f_3to2(), max_stage=3)
        assert detect_stabilisation(trace) is None
        with pytest.raises(NotStabilised) as exc:
            extract(trace)
        assert exc.value.sizes == [3, 7, 5, 5]

    def test_plain_run_keeps_cells_apart(self):
        trace = run_plain(composite_pres(), f_3to2(), max_stage=2)
        assert trace.carrier_sizes == [3, 7, 7]
        assert detect_stabilisation(trace) == 1
        assert trace.verify_laws() == []
        result = extract(trace)
        assert result.middle_size == 7
        assert result.beta0.table == (0, 1, 2, 3, 4, 5, 6, 3, 4, 5, 6)
        for y in range(2):
            assert result.lift_table[("a", (), (y,))].table == (3 + y,)
            assert result.lift_table[("c", (), (y,))].table == (5 + y,)
        # the two-stage route through b lands on the a-cell, not the c-cell:
        # this is the violation of the vertical condition that special mode
        # repairs (the b-filler at the a-cell point returns that same point)
        for y in range(2):
            via_b = result.lift_table[("b", (3 + y,), (y,))].table
            assert via_b == (3 + y,)
            assert via_b != result.lift_table[("c", (), (y,))].table


class TestGrowthDoesNotStabilise:
    def test_sizes_strictly_increase(self):
        trace = run_plain(growth_pres(), f_1to1(), max_stage=5)
        assert trace.carrier_sizes == [1, 2, 3, 4, 5, 6]
        assert all(a < b for a, b in zip(trace.carrier_sizes, trace.carrier_sizes[1:]))
        assert detect_stabilisation(trace) is None
        assert trace.verify_laws() == []

    def test_extract_raises_with_sizes(self):
        with pytest.raises(NotStabilised) as exc:
            factorise(growth_pres(), f_1to1(), mode="plain", max_stage=5)
        assert exc.value.sizes == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("run", [
    lambda pres, f: factorise(pres, f, mode="special", max_stage=3),
    lambda pres, f: run_chain(pres, f, mode="special", max_stage=3),
    lambda pres, f: run_special(pres, f, max_stage=3),
], ids=["factorise", "run_chain", "run_special"])
def test_special_mode_refuses_a_plain_presentation(run):
    # a plain presentation has no vertical composition to build the pair
    # extension from: an engine error, not an AttributeError
    with pytest.raises(DiagramError, match="special mode needs a presentation with vertical"):
        run(plain_split_epi_pres(), f_3to2())


class TestEmptyPresentation:
    def test_factorisation_is_trivial(self):
        empty = PlainPresentation(generators=(), morphisms=(), comp={})
        result = factorise(empty, f_3to2(), mode="plain", max_stage=2)
        assert result.stage == 0
        assert result.middle_size == 3
        assert result.right == aobj(f_3to2())
        assert result.left.table == (0, 1, 2)
        assert result.lift_table == {}


class TestVerifyLaws:
    """``verify_laws`` names every law a replaced connecting square breaks;
    the replacements are other commuting squares between the same stages."""

    def test_each_law_fires(self):
        trace = run_special(composite_pres(), f_3to2(), max_stage=4)
        assert trace.verify_laws() == []
        fired = {}
        for i in (0, 1):
            original, fired[i] = trace.connect[i], set()
            squares = _commuting_squares(trace.stages[i], trace.stages[i + 1])
            for alt in itertools.islice((s for s in squares if s != original), 40):
                trace.connect[i] = alt
                fired[i].update(trace.verify_laws())
            trace.connect[i] = original
        assert {"unit-law:0", "successor-fork:0", "codomain-rigidity:0"} <= fired[0]
        assert "composition-fork:0" in fired[1]
        assert trace.verify_laws() == []


class TestRawFormLaws:
    """The collapsed fork legs used by the chain equal the raw two-factor
    composites on real chain data (functoriality and unit naturality)."""

    def test_plain_legs(self):
        trace = run_plain(plain_split_epi_pres(), f_3to2(), max_stage=3)
        engine = trace.engine
        for n in range(len(trace.structure) - 1):
            t_eta = engine.extend(engine.step_tables(trace.stages[n]).unit)
            eta_t = engine.step_tables(trace.structure[n].src).unit
            t_x = engine.extend(trace.structure[n])
            assert square_compose(t_x, t_eta) == engine.extend(trace.connect[n])
            assert square_compose(t_x, eta_t) == square_compose(
                engine.step_tables(trace.stages[n + 1]).unit, trace.structure[n]
            )

    def test_special_legs(self):
        trace = run_special(composite_pres(), f_3to2(), max_stage=4)
        engine, dengine = trace.engine, trace.double_engine
        for n in range(len(trace.structure) - 1):
            t_x = engine.extend(trace.structure[n])
            stage = trace.stages[n]
            lam = dengine.iterate_then(stage, identity_square(engine.step_tables(stage).extended))
            fused = dengine.iterate_then(stage, trace.structure[n])
            assert square_compose(t_x, lam) == fused


class TestRandomisedLaws:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_chain_laws_on_random_targets(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            x = rng.randint(0, 3)
            y = rng.randint(1, 3)
            f = fmap(x, y, [rng.randrange(y) for _ in range(x)])
            for trace in (
                run_plain(plain_split_epi_pres(), f, max_stage=4),
                run_special(split_epi_pres(), f, max_stage=3),
                run_plain(abc_pres(), f, max_stage=2),
                run_special(composite_pres(), f, max_stage=3),
            ):
                assert trace.verify_laws() == []
                _assert_propagation(trace)

    def test_abc_special_small_target(self):
        trace = run_special(abc_pres(), f_1to1(), max_stage=3)
        assert trace.carrier_sizes[:2] == [1, 5]
        assert trace.verify_laws() == []
        _assert_propagation(trace)


class TestSolveLift:
    def test_answers_frozen_problem(self):
        shape = plain_split_epi_pres()
        result = factorise(shape, f_3to2(), mode="plain", max_stage=2)
        for y in range(2):
            problem = _problem(shape, result, "j", (), (y,))
            assert solve_lift(result, problem).table == (3 + y,)

    def test_rejects_wrong_target(self):
        shape = plain_split_epi_pres()
        result = factorise(shape, f_3to2(), mode="plain", max_stage=2)
        gen = dict(shape.lifting_generators())["j"]
        other = aobj(f_3to2())
        sq = CommSquare(gen, other, fmap(0, 3, []), fmap(1, 2, [0]))
        with pytest.raises(ProblemMismatch):
            solve_lift(result, LiftingProblem("j", sq))

    def test_rejects_unknown_key(self):
        shape = plain_split_epi_pres()
        result = factorise(shape, f_3to2(), mode="plain", max_stage=2)
        problem = _problem(shape, result, "j", (), (0,))
        with pytest.raises(ProblemMismatch):
            solve_lift(result, LiftingProblem("ghost", problem.square))

    def test_factorisation_is_deterministic(self):
        a = factorise(composite_pres(), f_3to2(), mode="special", max_stage=4)
        b = factorise(composite_pres(), f_3to2(), mode="special", max_stage=4)
        assert a.beta0 == b.beta0 and a.left == b.left and a.right == b.right
        assert a.lift_table == b.lift_table


def _seeded_map(dom: int, cod: int, seed: int) -> FiniteMap:
    rng = random.Random(seed)
    return fmap(dom, cod, [rng.randrange(cod) for _ in range(dom)])


_DIFFERENTIAL_SHAPES = [
    plain_split_epi_pres,
    two_gen_plain_pres,
    growth_pres,
    codiag_pres,
    split_epi_pres,
    abc_pres,
    composite_pres,
    retract_pres,
]
_DIFFERENTIAL_MAPS = {
    "f_0to1": f_0to1, "f_1to1": f_1to1, "f_2to3": f_2to3, "f_3to2": f_3to2,
    "r40to5": lambda: _seeded_map(40, 5, 7),
}
# the cases whose chain reaches no lift table within four stages and a
# budget of 20,000 problems, with the exception each one raises
_OVER_BUDGET = ("f_1to1", "f_2to3", "f_3to2", "r40to5")
_UNREACHABLE = {
    **{("growth_pres", "plain", m): NotStabilised for m in ("f_1to1", "f_2to3", "f_3to2")},
    ("growth_pres", "plain", "r40to5"): SizeBudgetExceeded,
    **{("abc_pres", mode, m): SizeBudgetExceeded
       for mode in ("plain", "special") for m in _OVER_BUDGET},
    **{("retract_pres", "plain", m): SizeBudgetExceeded for m in _OVER_BUDGET},
    ("retract_pres", "special", "f_1to1"): NotStabilised,
    **{("retract_pres", "special", m): SizeBudgetExceeded for m in _OVER_BUDGET[1:]},
}


@pytest.mark.parametrize("map_name", list(_DIFFERENTIAL_MAPS))
@pytest.mark.parametrize("make_shape,mode", [
    (make, mode)
    for make in _DIFFERENTIAL_SHAPES
    for mode in ("plain", "special")
    if mode == "plain" or make().kind == "double"
], ids=lambda v: getattr(v, "__name__", v))
def test_lift_table_equals_per_problem_reference_in_order(make_shape, mode, map_name):
    def run():
        return factorise(make_shape(), _DIFFERENTIAL_MAPS[map_name](), mode=mode,
                         max_stage=4, budget=SizeBudget(max_problems=20_000))

    unreachable = _UNREACHABLE.get((make_shape.__name__, mode, map_name))
    if unreachable is not None:
        with pytest.raises(unreachable):
            run()
        return
    result = run()
    reference = reference_lift_table(result)
    assert list(result.lift_table.items()) == list(reference.items())


_CHAIN_MODES = [(make, mode) for make in _DIFFERENTIAL_SHAPES for mode in ("plain", "special")
                if mode == "plain" or make().kind == "double"]
_FIXTURE_MAPS = [f_0to1, f_1to1, f_2to3, f_3to2]


def _lists(trace: ChainTrace) -> tuple:
    return trace.stages, trace.connect, trace.structure


def _same_items(xs: list, ys: list) -> bool:
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


@pytest.mark.parametrize("make_map", _FIXTURE_MAPS, ids=lambda v: v.__name__)
@pytest.mark.parametrize("make_shape,mode", _CHAIN_MODES, ids=lambda v: getattr(v, "__name__", v))
def test_advancing_a_shorter_run_builds_the_longer_run(make_shape, mode, make_map):
    """``run_chain`` to k, then ``advance(m)``, gives the stages, connecting
    and structure squares of ``run_chain`` to m; a run that stops over the
    budget stops the same way when advanced, keeping whole stages only."""
    shape, f, least = make_shape(), make_map(), 2 if mode == "plain" else 3
    budget = SizeBudget(max_problems=20_000)

    def run(n: int) -> ChainTrace:
        return run_chain(shape, f, mode, n, budget)

    shorter = None
    for m in range(least, 6):
        try:
            whole = run(m)
        except SizeBudgetExceeded:
            if shorter is not None:
                built = [list(xs) for xs in _lists(shorter)]
                with pytest.raises(SizeBudgetExceeded):
                    shorter.advance(m)
                assert all(map(_same_items, _lists(shorter), built))
            return
        for k in range(least, m):
            assert _lists(run(k).advance(m)) == _lists(whole)
        shorter = whole


class TestAdvance:
    def test_advancing_to_a_built_stage_changes_nothing(self):
        for shape, mode in [(plain_split_epi_pres(), "plain"), (composite_pres(), "special")]:
            trace = run_chain(shape, f_3to2(), mode, max_stage=4)
            built = [list(xs) for xs in _lists(trace)]
            for j in range(5):
                assert trace.advance(j) is trace
                assert all(map(_same_items, _lists(trace), built))

    def test_one_place_builds_a_stage(self):
        """The three lists grow only in ``ChainTrace.advance``, and in the
        package only ``run_chain`` makes a trace."""
        lists = ("stages", "connect", "structure")

        def grows_a_list(node) -> bool:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                return getattr(node.func.value, "attr", None) in lists
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                return any(getattr(getattr(t, "value", t), "attr", None) in lists for t in targets)
            return False

        assert _scopes_in_src(grows_a_list) == [("chain", "ChainTrace.advance")] * 3
        assert _calls_in_src("ChainTrace") == [("chain", "run_chain", 3)]

