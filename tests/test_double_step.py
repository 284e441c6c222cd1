"""Tests for the two comparison squares between the pair-indexed extension
and the plain one.

The frozen tables for the abc presentation against the identity on one
point were computed by hand.  Single step: the generators a, b, c adjoin
1, 1, 2 cells, so the carrier is 5 with cells numbered a:1, b:2, c:3,4.
Pair step: the ten composable pairs adjoin cells through their composite
realisations, carrier 11.  Twice-iterated step: against the carrier-5
extension, a contributes 5 cells (one per top point), b contributes 25,
c contributes 10, so the carrier is 45 with blocks starting at 5 (a),
10 (b), 35 (c).
"""

import pytest

from awfskit.arrows import ArrowObject, CommSquare, identity_square, square_compose
from awfskit.finset import FiniteMap, FinSet, compose
from awfskit.step import DoubleEngine, compose_mediated, iterate_mediated

from fixture_lib import (
    abc_pres,
    composite_pres,
    f_0to1,
    f_1to1,
    f_2to3,
    f_3to2,
    pair_square_pres,
    retract_pres,
    split_epi_pres,
    uniform_monos_pres,
)
from test_acceptance import _all_maps, _comparison_equations


# The first three shapes take the fast step; the retract takes the general one.
DOUBLES = [split_epi_pres(), abc_pres(), composite_pres(), retract_pres()]
DOUBLE_IDS = ["split-epi", "abc", "composite", "retract"]
MAPS = [f_3to2(), f_1to1(), f_0to1(), f_2to3()]


def aobj(f) -> ArrowObject:
    return ArrowObject(f)


def iterate_comparison(engine: DoubleEngine, f: ArrowObject) -> CommSquare:
    """The two-stage comparison itself: ``iterate_then`` with the identity
    on the extension of ``f``."""
    return engine.iterate_then(f, identity_square(engine.single.step_tables(f).extended))


class TestComposeComparison:
    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_boundaries_and_unit_equation(self, pres, f):
        engine = DoubleEngine(pres)
        target = aobj(f)
        gamma = engine.compose_comparison(target)
        s2 = engine.paired.step(target)
        s1 = engine.single.step_tables(target)
        assert gamma.src == s2.extended and gamma.dst == s1.extended
        assert square_compose(gamma, s2.unit) == s1.unit

    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_cells_land_on_the_composite_cells(self, pres, f):
        engine = DoubleEngine(pres)
        target = aobj(f)
        gamma = engine.compose_comparison(target)
        s2 = engine.paired.step(target)
        s1 = engine.single.step_tables(target)
        for p in s2.problem_list:
            pair = engine.pairs.pair(p.gen)
            lhs = compose(gamma.top, s2.cell(p.key))
            rhs = s1.cell((pair.composite, p.square.top.table, p.square.bot.table))
            assert lhs == rhs

    def test_frozen_tables_for_abc_against_the_point(self):
        engine = DoubleEngine(abc_pres())
        gamma = engine.compose_comparison(aobj(f_1to1()))
        assert [p.name for p in engine.pairs.pairs] == [
            "e1*e1", "e1*a", "e1*c", "e2*e2", "e2*b",
            "e3*e3", "a*e2", "a*b", "b*e3", "c*e3",
        ]
        assert gamma.src.top.size == 11 and gamma.dst.top.size == 5
        assert gamma.top.table == (0, 1, 3, 4, 2, 1, 3, 4, 2, 3, 4)
        assert gamma.bot.table == (0,)


class TestIterateComparison:
    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_boundaries_and_unit_equation(self, pres, f):
        engine = DoubleEngine(pres)
        target = aobj(f)
        lam = iterate_comparison(engine, target)
        s2 = engine.paired.step(target)
        s1 = engine.single.step_tables(target)
        s11 = engine.single.step_tables(s1.extended)
        assert lam.src == s2.extended and lam.dst == s11.extended
        assert square_compose(lam, s2.unit) == square_compose(s11.unit, s1.unit)

    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_cells_lift_in_two_stages(self, pres, f):
        engine = DoubleEngine(pres)
        target = aobj(f)
        lam = iterate_comparison(engine, target)
        s2 = engine.paired.step(target)
        s1 = engine.single.step_tables(target)
        s11 = engine.single.step_tables(s1.extended)
        for p in s2.problem_list:
            pair = engine.pairs.pair(p.gen)
            right_u = pres.uarrow(pair.right)
            inner = s1.cell(
                (pair.left, p.square.top.table, compose(p.square.bot, right_u.map).table)
            )
            outer = s11.cell((pair.right, inner.table, p.square.bot.table))
            assert compose(lam.top, s2.cell(p.key)) == outer

    def test_frozen_tables_for_abc_against_the_point(self):
        engine = DoubleEngine(abc_pres())
        lam = iterate_comparison(engine, aobj(f_1to1()))
        assert lam.src.top.size == 11 and lam.dst.top.size == 45
        assert lam.top.table == (0, 5, 35, 36, 10, 1, 1, 11, 2, 3, 4)
        assert lam.bot.table == (0,)


class TestRoutes:
    """Classified and mediated (colimit) constructions of the comparison
    squares must agree, and the fused composite must equal composing its
    factors."""

    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_fast_equals_mediated(self, pres, f):
        engine = DoubleEngine(pres)
        target = aobj(f)
        assert engine.compose_comparison(target) == compose_mediated(engine, target)
        assert iterate_comparison(engine, target) == iterate_mediated(engine, target)

    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    def test_fused_composite_equals_composed_factors(self, pres):
        engine = DoubleEngine(pres)
        f, g = aobj(f_3to2()), aobj(f_1to1())
        alpha = CommSquare(
            f, g,
            FiniteMap(FinSet(3), FinSet(1), (0, 0, 0)),
            FiniteMap(FinSet(2), FinSet(1), (0, 0)),
        )
        for collapse in (identity_square(engine.single.step_tables(f).extended),
                         engine.single.extend(alpha)):
            fused = engine.iterate_then(f, collapse)
            composed = square_compose(
                engine.single.extend(collapse), iterate_comparison(engine, f)
            )
            assert fused == composed


# Criterion 5 of the acceptance suite on double presentations with
# connecting squares, whose steps are general: the special fork of
# pair_square merges cells, and uniform2 has squares between its injections.
SQUARE_DOUBLES = {"pair-square": (pair_square_pres, 148),
                  "uniform2": (lambda: uniform_monos_pres(2), 443)}


@pytest.mark.parametrize("route", ["fast", "mediated"])
@pytest.mark.parametrize("name", sorted(SQUARE_DOUBLES))
def test_comparison_equations_with_squares(name, route):
    """Both comparison squares meet their per-cell equations on every
    problem of every map with carriers at most 2."""
    build, problems = SQUARE_DOUBLES[name]
    pres = build()
    assert sum(_comparison_equations(pres, f, route) for f in _all_maps(2)) == problems
