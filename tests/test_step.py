"""Tests for the one-step extension: problem enumeration, the comma
category of problems, the extension tables, the universal property, and
the functorial action.  ``reference_step`` keeps the literal comma-category
construction the general step is checked against.

Expected counts come from a brute-force oracle (enumerate all pairs of
maps and filter the commuting ones); expected tables for the split-epi
generator were computed by hand: against f = [0,1,0] the extension
carrier is 3 + 2 (one adjoined cell per point of the codomain), the
extension map sends the adjoined cells to their defining points, and the
inclusion is the identity onto the first three elements.
"""

import ast
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from awfskit.arrows import ArrowObject, ArrowColimit, CommSquare, arrow, identity_square, square_compose
from awfskit.errors import (
    DiagramError,
    NonNaturalLifting,
    ProblemMismatch,
    SizeBudgetExceeded,
    UniversalityError,
)
from awfskit.finset import FinSet, FiniteMap, compose, identity, is_iso
from awfskit.presentation import PlainPresentation
from awfskit import step as step_module
from awfskit import verify
from awfskit.step import (
    DoubleEngine,
    OneStepLifting,
    SizeBudget,
    StepEngine,
    classify_extend,
    enumerate_problems,
    fast_eligible,
    fast_step,
    mediate,
    restrict_square,
    step,
)

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
from reference_step import (comma_category, count_problems_bound, density_step, extend_square,
                            reference_problems, reference_step)
from test_oracle_reference import count_liftings


def aobj(f: FiniteMap) -> ArrowObject:
    return ArrowObject(f)


def all_maps(a: int, b: int):
    if a == 0:
        return [()]
    return list(itertools.product(range(b), repeat=a))


def brute_problem_count(u: ArrowObject, f: ArrowObject) -> int:
    """Oracle: count commuting squares from u into f by full enumeration."""
    total = 0
    for s0 in all_maps(u.top.size, f.top.size):
        for s1 in all_maps(u.bot.size, f.bot.size):
            if all(s1[u.map.table[a]] == f.map.table[s0[a]] for a in range(u.top.size)):
                total += 1
    return total


FIXTURES = [plain_split_epi_pres(), two_gen_plain_pres(), growth_pres(),
            split_epi_pres(), abc_pres(), composite_pres()]
MAPS = [f_3to2(), f_1to1(), f_0to1(), f_2to3()]


def shape_id(shape) -> str:
    """A test id: the kind of a shape and the start of its first field."""
    first = shape.generators if shape.kind == "plain" else shape.objects
    return f"{shape.kind}:({first!r}, "[:30]


class TestProblemEnumeration:
    @pytest.mark.parametrize("shape", FIXTURES, ids=shape_id)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_counts_match_brute_force(self, shape, f):
        target = aobj(f)
        for name, u in shape.lifting_generators():
            got = list(enumerate_problems(name, u, target))
            assert len(got) == brute_problem_count(u, target)
            assert count_problems_bound(u, target) >= len(got)
            keys = [p.key for p in got]
            assert len(set(keys)) == len(keys)
            for p in got:  # CommSquare construction already verified commutation
                assert p.gen == name and p.square.src == u and p.square.dst == target

    def test_canonical_order_is_lexicographic(self):
        target = aobj(f_3to2())
        for name, u in abc_pres().lifting_generators():
            tabs = [(p.square.top.table, p.square.bot.table)
                    for p in enumerate_problems(name, u, target)]
            assert tabs == sorted(tabs)

    def test_noninjective_realisation_filters_inconsistent_tops(self):
        shape = PlainPresentation.build(generators=[("m", 2, 1, [0, 0])])
        (name, u), = shape.lifting_generators()
        target = aobj(f_3to2())
        # tops must land in a single fibre of f = [0,1,0]: {0,2}^2 or {1}^2
        assert count_problems_bound(u, target) == 9
        assert brute_problem_count(u, target) == 5
        got = list(enumerate_problems(name, u, target))
        assert len(got) == 5

    def test_random_shapes_against_oracle(self):
        rng = random.Random(421)
        for _ in range(60):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if a > 0 and b == 0:
                b = 1
            u = aobj(fmap(a, b, [rng.randrange(b) for _ in range(a)]))
            x, y = rng.randint(0, 3), rng.randint(0, 3)
            if x > 0 and y == 0:
                y = 1
            f = aobj(fmap(x, y, [rng.randrange(y) for _ in range(x)]))
            got = list(enumerate_problems("u", u, f))
            assert len(got) == brute_problem_count(u, f)


class TestCommaCategory:
    """The problems of the general step, in canonical order, and the edges
    of the literal comma category they form."""

    def test_single_generator_without_identities_is_discrete(self):
        st = step(plain_split_epi_pres(), aobj(f_3to2()))
        assert len(st.problem_list) == 2
        assert comma_category(plain_split_epi_pres(), aobj(f_3to2())).edges == []

    def test_double_presentation_includes_identity_generators(self):
        st = step(split_epi_pres(), aobj(f_3to2()))
        # e0 contributes 1 empty problem, e1 one per point of the domain,
        # j one per point of the codomain
        assert [p.gen for p in st.problem_list] == ["e0", "e1", "e1", "e1", "j", "j"]
        assert comma_category(split_epi_pres(), aobj(f_3to2())).edges == []

    def test_connecting_square_induces_one_edge_per_target_problem(self):
        shape = two_gen_plain_pres()
        problems = step(shape, aobj(f_3to2())).problem_list
        assert [p.gen for p in problems] == ["j", "j", "k", "k", "k"]
        cc = comma_category(shape, aobj(f_3to2()))
        assert [p.key for p in cc.problems] == [p.key for p in problems]
        assert len(cc.edges) == 3
        f = f_3to2()
        for src, dst, name, sq in cc.edges:
            assert name == "s"
            tau = problems[dst]
            sigma = square_compose(tau.square, sq)
            assert problems[src].key == ("j", sigma.top.table, sigma.bot.table)
            # the j-problem under a k-problem for x carries bottom value f(x)
            assert problems[src].square.bot.table == (f.table[tau.square.top.table[0]],)

    def test_object_counts_equal_brute_force_square_counts(self):
        for shape in (abc_pres(), composite_pres()):
            for f in MAPS:
                target = aobj(f)
                st = step(shape, target)
                expect = sum(
                    brute_problem_count(u, target) for _, u in shape.lifting_generators()
                )
                assert len(st.problem_list) == expect == st.problem_count()

    def test_empty_codomain_target_has_no_problems_for_pointed_generator(self):
        st = step(plain_split_epi_pres(), aobj(fmap(0, 0, [])))
        assert st.problem_list == [] and st.copair.dom.size == 0

    def test_budget_is_enforced_before_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("problems enumerated before the budget check")

        monkeypatch.setattr(step_module._GenLayout, "columns", refuse)
        with pytest.raises(SizeBudgetExceeded) as exc:
            step(split_epi_pres(), aobj(f_3to2()), SizeBudget(max_problems=3))
        # the bound: 1 for e0, 3 for e1, 2 for j
        assert str(exc.value) == "general step lists 6 problems at most, budget allows 3"


class TestDensityStep:
    """The literal colimit of the reference against the general step."""

    def test_counit_legs_recover_each_problem(self):
        ds = density_step(two_gen_plain_pres(), aobj(f_3to2()))
        st = step(two_gen_plain_pres(), aobj(f_3to2()))
        assert [p.key for p in ds.comma.problems] == [p.key for p in st.problem_list]
        for i, p in enumerate(ds.comma.problems):
            assert square_compose(ds.counit, ds.colim.leg(i)) == p.square

    def test_empty_comma_gives_empty_apex(self):
        ds = density_step(plain_split_epi_pres(), aobj(fmap(0, 0, [])))
        assert ds.apex.top.size == 0 and ds.apex.bot.size == 0
        st = step(plain_split_epi_pres(), aobj(fmap(0, 0, [])))
        assert st.size == 0 and st.bottoms.cod.size == 0


def _assert_matches_reference(shape, target: ArrowObject) -> None:
    """The general step has the tables of the literal construction."""
    st, ref = step(shape, target), reference_step(shape, target)
    assert [p.key for p in st.problem_list] == [p.key for p in ref.density.comma.problems]
    assert st.extended == ref.extended
    assert st.inclusion == ref.inclusion
    assert st.unit == ref.unit
    assert st.bottoms == ref.bottoms
    assert st.copair == ref.copair
    assert {p.key: st.cell(p.key) for p in st.problem_list} == ref.cells


DIFF_SHAPES = {
    "plain_split_epi": plain_split_epi_pres(),
    "two_gen": two_gen_plain_pres(),
    "growth": growth_pres(),
    "codiag": codiag_pres(),
    "split_epi": split_epi_pres(),
    "abc": abc_pres(),
    "composite": composite_pres(),
    "retract": retract_pres(),
}
DIFF_SHAPES.update({f"{name}_pairs": shape.composable_pairs()
                    for name, shape in list(DIFF_SHAPES.items()) if shape.kind == "double"})


@pytest.mark.parametrize("name", sorted(DIFF_SHAPES))
@pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
def test_general_step_matches_reference_on_fixtures(name, f):
    _assert_matches_reference(DIFF_SHAPES[name], aobj(f))


class _Shape:
    """A bare shape: named generator realisations and connecting squares."""

    def __init__(self, gens, squares):
        self._gens, self._squares = gens, squares

    def lifting_generators(self):
        return self._gens

    def lifting_squares(self):
        return self._squares


def _draw_arrow(draw, top: int, bot: int) -> ArrowObject:
    y = draw(hst.integers(0, bot))
    x = draw(hst.integers(0, top if y else 0))
    return aobj(fmap(x, y, [draw(hst.integers(0, y - 1)) for _ in range(x)]))


def _draw_square(draw, src: ArrowObject, dst: ArrowObject):
    """A square ``src -> dst``, or None when there is no bottom map or the
    drawn one has an empty fibre to fill."""
    if src.bot.size and not dst.bot.size:
        return None
    bot = [draw(hst.integers(0, dst.bot.size - 1)) for _ in range(src.bot.size)]
    fibres = [[z for z, w in enumerate(dst.map.table) if w == v] for v in range(dst.bot.size)]
    choices = [fibres[bot[v]] for v in src.map.table]
    if any(not c for c in choices):
        return None
    top = [c[draw(hst.integers(0, len(c) - 1))] for c in choices]
    return CommSquare(src, dst, fmap(src.top.size, dst.top.size, top),
                      fmap(src.bot.size, dst.bot.size, bot))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_general_step_matches_reference_on_random_shapes(data):
    draw = data.draw
    if draw(hst.booleans()):
        shape = DIFF_SHAPES[draw(hst.sampled_from(sorted(DIFF_SHAPES)))]
        target = _draw_arrow(draw, 3, 2)
    else:  # plain generators, non-injective ones included, with squares
        gens = [(f"g{i}", _draw_arrow(draw, 2, 2))
                for i in range(draw(hst.integers(1, 3)))]
        squares = []
        for i in range(draw(hst.integers(1, 5))):
            src_name, src = draw(hst.sampled_from(gens))
            dst_name, dst = draw(hst.sampled_from(gens))
            sq = _draw_square(draw, src, dst)
            if sq is not None:
                squares.append((f"s{i}", src_name, dst_name, sq))
        shape = _Shape(gens, squares)
        target = _draw_arrow(draw, 3, 3)
    _assert_matches_reference(shape, target)


# generators that are not injective (``d: 2 -> 1`` of ``retract_pres``, the
# codiagonal of ``codiag_pres``, one forcing two entries twice), surjective
# and empty ones, next to drawn ones of every kind
LAYOUT_GENERATORS = [
    dict(retract_pres().lifting_generators())["d"],
    dict(codiag_pres().lifting_generators())["d"],
    aobj(fmap(4, 2, [1, 0, 1, 0])),
    aobj(fmap(3, 2, [0, 1, 1])),
    aobj(fmap(2, 2, [1, 0])),
    aobj(fmap(0, 0, [])),
    aobj(fmap(0, 2, [])),
]


def _reference_blocks(shape, f: ArrowObject) -> list:
    """``problem_blocks`` built from the rows of the reference enumerator."""
    out = []
    for name, u in shape.lifting_generators():
        rows = [(p.square.top.table, p.square.bot.table) for p in reference_problems(name, u, f)]
        if rows:
            out.append((name, u.bot, len(rows), list(zip(*(r[0] for r in rows))),
                        list(zip(*(r[1] for r in rows)))))
    return out


def _blocks(st) -> list:
    return [(name, bottom, count, list(map(tuple, tops)), list(map(tuple, bots)))
            for name, bottom, count, tops, bots in st.problem_blocks()]


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_problem_layout_matches_the_reference_enumerator(data):
    """Both step kinds list, in ``problem_blocks``, and ``enumerate_problems``
    lists, exactly the rows of the reference enumerator, in its order."""
    draw = data.draw
    gens = [(f"g{i}", draw(hst.sampled_from(LAYOUT_GENERATORS)) if draw(hst.booleans())
             else _draw_arrow(draw, 3, 3)) for i in range(draw(hst.integers(1, 3)))]
    shape, f = _Shape(gens, []), _draw_arrow(draw, 3, 3)
    expect = _reference_blocks(shape, f)
    assert _blocks(step(shape, f)) == expect
    if fast_eligible(shape):
        assert _blocks(fast_step(shape, f)) == expect
    for name, u in gens:
        assert ([p.key for p in enumerate_problems(name, u, f)]
                == [p.key for p in reference_problems(name, u, f)])


def test_general_step_builds_no_square_per_problem(monkeypatch):
    """The general step reads its problems off the layouts' key columns:
    on ``two_gen`` against a map 1500 -> 500 (2,000 problems) it builds a
    handful of squares, not one per problem."""
    f, built = aobj(fmap(1500, 500, [x % 500 for x in range(1500)])), []
    post_init = CommSquare.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(CommSquare, "__post_init__", counted)
    st = step(two_gen_plain_pres(), f)
    assert st.problem_count() == 2000
    assert len(built) <= 10


class TestStepFrozen:
    def test_split_epi_extension_tables(self):
        st = step(plain_split_epi_pres(), aobj(f_3to2()))
        assert st.size == 5
        assert st.extended.map.table == (0, 1, 0, 0, 1)
        assert st.inclusion.table == (0, 1, 2)
        assert st.unit.top.table == (0, 1, 2)
        assert st.unit.bot.table == (0, 1)
        assert st.cell(("j", (), (0,))).table == (3,)
        assert st.cell(("j", (), (1,))).table == (4,)

    def test_double_split_epi_matches_plain_tables(self):
        st = step(split_epi_pres(), aobj(f_3to2()))
        assert st.extended.map.table == (0, 1, 0, 0, 1)
        assert st.inclusion.table == (0, 1, 2)
        # identity-generator problems glue onto the original carrier
        assert st.cell(("e1", (2,), (0,))).table == (2,)
        assert st.cell(("e0", (), ())).table == ()
        assert st.cell(("j", (), (1,))).table == (4,)

    def test_identity_target_adds_one_cell_per_codomain_point(self):
        st = step(plain_split_epi_pres(), aobj(fmap(2, 2, [0, 1])))
        assert st.size == 4
        assert st.extended.map.table == (0, 1, 0, 1)
        assert st.cell(("j", (), (0,))).table == (2,)
        assert st.cell(("j", (), (1,))).table == (3,)

    def test_empty_presentation_extension_is_the_target(self):
        empty = PlainPresentation.build(generators=[])
        for f in MAPS:
            st = step(empty, aobj(f))
            assert st.extended == aobj(f)
            assert is_iso(st.inclusion) is not None
            assert st.unit.is_identity()

    def test_empty_domain_target(self):
        st = step(plain_split_epi_pres(), aobj(f_0to1()))
        assert st.size == 1
        assert st.extended.map.table == (0,)
        assert st.inclusion.table == ()
        assert st.cell(("j", (), (0,))).table == (0,)

    def test_growth_generator_strictly_enlarges(self):
        st = step(growth_pres(), aobj(f_1to1()))
        assert st.size == 2
        assert st.extended.map.table == (0, 0)
        assert st.cell(("g", (0,), (0, 0))).table == (0, 1)


def _fill_equations_hold(st) -> None:
    k = st.inclusion
    t = st.extended.map
    for name, u in st.shape.lifting_generators():
        for p in enumerate_problems(name, u, st.target):
            cell = st.cell(p.key)
            assert compose(cell, u.map).table == compose(k, p.square.top).table
            assert compose(t, cell).table == p.square.bot.table


class TestStepEquations:
    @pytest.mark.parametrize("shape", FIXTURES, ids=shape_id)
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_fill_equations(self, shape, f):
        _fill_equations_hold(step(shape, aobj(f)))

    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_horizontal_naturality_across_connecting_squares(self, f):
        st = step(two_gen_plain_pres(), aobj(f))
        problems = st.problem_list
        for src, dst, _, sq in comma_category(two_gen_plain_pres(), aobj(f)).edges:
            lhs = st.cell(problems[src].key)
            rhs = compose(st.cell(problems[dst].key), sq.bot)
            assert lhs.table == rhs.table

    def test_unit_commutes_and_extends(self):
        for shape in FIXTURES:
            st = step(shape, aobj(f_3to2()))
            assert st.unit.src == aobj(f_3to2()) and st.unit.dst == st.extended
            assert st.unit.bot.table == (0, 1)


FAST_SHAPES = {name: shape for name, shape in DIFF_SHAPES.items() if fast_eligible(shape)}
# the most liftings, and the most squares, the fast/general differential lists
SMALL_LISTING = 1024
SMALL_ARROWS = verify.small_arrows(2)


class TestFastPath:
    def test_eligibility(self):
        assert fast_eligible(plain_split_epi_pres())
        assert fast_eligible(split_epi_pres())
        assert fast_eligible(abc_pres())
        assert fast_eligible(growth_pres())
        assert not fast_eligible(two_gen_plain_pres())
        assert fast_eligible(abc_pres().composable_pairs())

    def test_noninjective_realisation_is_ineligible(self):
        shape = PlainPresentation.build(generators=[("m", 2, 1, [0, 0])])
        assert not fast_eligible(shape)
        with pytest.raises(DiagramError):
            fast_step(shape, aobj(f_3to2()))

    @pytest.mark.parametrize(
        "shape",
        [plain_split_epi_pres(), split_epi_pres(), abc_pres(), composite_pres(), growth_pres()],
        ids=shape_id,
    )
    @pytest.mark.parametrize("f", MAPS, ids=lambda m: f"{m.dom.size}to{m.cod.size}")
    def test_fast_tables_equal_general_tables(self, shape, f):
        general = step(shape, aobj(f))
        fast = fast_step(shape, aobj(f))
        assert fast.extended == general.extended
        assert fast.inclusion == general.inclusion
        assert fast.unit == general.unit
        for p in general.problem_list:
            assert fast.cell(p.key) == general.cell(p.key)

    def test_fast_tables_equal_general_on_random_targets(self):
        rng = random.Random(977)
        shapes = [split_epi_pres(), abc_pres(), composite_pres()]
        for _ in range(40):
            shape = rng.choice(shapes)
            x, y = rng.randint(0, 3), rng.randint(1, 3)
            f = aobj(fmap(x, y, [rng.randrange(y) for _ in range(x)]))
            general = step(shape, f)
            fast = fast_step(shape, f)
            assert fast.extended == general.extended
            assert fast.inclusion == general.inclusion
            for p in general.problem_list:
                assert fast.cell(p.key) == general.cell(p.key)
            _fill_equations_hold(fast)

    @pytest.mark.parametrize("name", sorted(FAST_SHAPES))
    def test_fast_and_general_steps_mediate_and_restrict_alike(self, name):
        """Over every pair of arrows with carriers of at most 2, every
        lifting and every square ``oracle_kappa`` lists mediates and
        restricts to the same result on the fast and the general step, and
        each mediated square restricts back to its lifting.  The 30 listed
        pairs with more than ``SMALL_LISTING`` of either (on ``abc`` and the
        pairs of ``abc`` and ``composite``) are left out, as they would take
        about 15 s; the two heavy ``abc`` pairs of the benchmark are compared
        at report level in ``test_oracle_reference``, the oracle on the fast
        step against the reference oracle on the general one."""
        shape, listed = FAST_SHAPES[name], 0
        for f in SMALL_ARROWS:
            fast, general = fast_step(shape, f), step(shape, f)
            assert fast.copaired() == general.copair and fast.unit == general.unit
            assert fast.problem_list == general.problem_list
            problems, _ = verify._problem_free_positions(fast)
            for g in SMALL_ARROWS:
                fib = verify._fibres(g)
                bases = list(verify._commuting_squares(f, g))
                n_liftings = sum(count_liftings(problems, base, list(map(len, fib)))
                                 for base in bases)
                n_squares = verify._count_commuting_squares(fast.extended, g)
                if max(n_liftings, n_squares) > SMALL_LISTING:
                    continue
                for base in bases:
                    for lift in verify._enumerate_liftings(problems, base, fib, g):
                        t = mediate(fast, lift)
                        assert t == mediate(general, lift)
                        assert restrict_square(fast, t) == lift
                for t in verify._commuting_squares(fast.extended, g):
                    assert restrict_square(fast, t) == restrict_square(general, t)
                listed += 1
        assert listed > 90


def lifting(st, base: CommSquare, fillers: dict) -> OneStepLifting:
    """The lifting over ``base`` with filler ``fillers[p.key]`` for every
    problem ``p``, copaired in problem order into one map out of ∐ₚ Bₚ."""
    table = tuple(v for p in st.problem_list for v in fillers[p.key].table)
    return OneStepLifting(base, FiniteMap(st.copaired().dom, base.dst.top, table))


class TestMediate:
    """Liftings are given per problem and copaired (``lifting``) into one
    map out of the coproduct of problem bottoms."""

    def setup_method(self):
        self.f = aobj(f_3to2())
        self.st = step(plain_split_epi_pres(), self.f)

    def test_retraction_from_minimal_sections(self):
        # choose the least preimage of each codomain point as the filler
        fillers = {("j", (), (y,)): fmap(1, 3, [min(x for x in range(3) if f_3to2().table[x] == y)])
                   for y in range(2)}
        t = mediate(self.st, lifting(self.st, identity_square(self.f), fillers))
        assert t.top.table == (0, 1, 2, 0, 1)
        assert t.bot.table == (0, 1)
        assert compose(t.top, self.st.inclusion).table == (0, 1, 2)

    def test_restrict_then_mediate_is_identity(self):
        fillers = {("j", (), (0,)): fmap(1, 3, [2]), ("j", (), (1,)): fmap(1, 3, [1])}
        lift = lifting(self.st, identity_square(self.f), fillers)
        assert lift.fillers == fmap(2, 3, [2, 1])
        t = mediate(self.st, lift)
        back = restrict_square(self.st, t)
        assert back.base == identity_square(self.f)
        assert back == lift
        assert mediate(self.st, back) == t

    def test_identity_square_restricts_to_unit_and_cells(self):
        lift = restrict_square(self.st, identity_square(self.st.extended))
        assert lift.base == self.st.unit
        cells = {p.key: self.st.cell(p.key) for p in self.st.problem_list}
        assert lift == lifting(self.st, self.st.unit, cells)
        assert lift.fillers == self.st.copair
        assert mediate(self.st, lift) == identity_square(self.st.extended)

    def test_natural_lifting_descends_across_connecting_square(self):
        shape = two_gen_plain_pres()
        st = step(shape, self.f)
        g = aobj(fmap(4, 2, [0, 0, 1, 1]))
        u = CommSquare(self.f, g, fmap(3, 4, [0, 2, 0]), identity(FinSet(2)))
        fillers = {
            ("j", (), (0,)): fmap(1, 4, [0]),
            ("j", (), (1,)): fmap(1, 4, [2]),
            ("k", (0,), (0,)): fmap(1, 4, [0]),
            ("k", (1,), (1,)): fmap(1, 4, [2]),
            ("k", (2,), (0,)): fmap(1, 4, [0]),
        }
        t = mediate(st, lifting(st, u, fillers))
        assert compose(t.top, st.inclusion).table == u.top.table
        for key, val in fillers.items():
            assert compose(t.top, st.cell(key)).table == val.table

    def test_nonnatural_filler_is_rejected(self):
        shape = two_gen_plain_pres()
        st = step(shape, self.f)
        g = aobj(fmap(4, 2, [0, 0, 1, 1]))
        u = CommSquare(self.f, g, fmap(3, 4, [0, 2, 0]), identity(FinSet(2)))
        fillers = {
            ("j", (), (0,)): fmap(1, 4, [1]),  # disagrees with the forced k-fillers
            ("j", (), (1,)): fmap(1, 4, [2]),
            ("k", (0,), (0,)): fmap(1, 4, [0]),
            ("k", (1,), (1,)): fmap(1, 4, [2]),
            ("k", (2,), (0,)): fmap(1, 4, [0]),
        }
        with pytest.raises(NonNaturalLifting):
            mediate(st, lifting(st, u, fillers))

    def test_filler_breaking_the_top_fill_is_rejected(self):
        st = step(split_epi_pres(), self.f)
        fillers = {p.key: st.cell(p.key) for p in st.problem_list}
        fillers[("e1", (0,), (0,))] = fmap(1, 5, [1])  # must hit the image of point 0
        lift = lifting(st, st.unit, fillers)
        with pytest.raises(UniversalityError):
            mediate(st, lift)

    def test_filler_breaking_the_bottom_fill_is_rejected(self):
        fillers = {("j", (), (0,)): fmap(1, 3, [1]),  # lands over 1, problem demands 0
                   ("j", (), (1,)): fmap(1, 3, [1])}
        with pytest.raises(DiagramError):
            mediate(self.st, lifting(self.st, identity_square(self.f), fillers))

    def test_missing_filler_is_a_problem_mismatch(self):
        one_filler = OneStepLifting(identity_square(self.f), fmap(1, 3, [0]))
        with pytest.raises(ProblemMismatch, match="problem bottoms"):
            mediate(self.st, one_filler)

    def test_base_square_must_start_at_the_target(self):
        other = aobj(f_1to1())
        fillers = restrict_square(self.st, identity_square(self.st.extended)).fillers
        with pytest.raises(ProblemMismatch):
            mediate(self.st, OneStepLifting(identity_square(other), fillers))

    def test_fillers_with_wrong_boundaries_are_a_problem_mismatch(self):
        base = identity_square(self.f)
        for fillers in (fmap(3, 3, [0, 1, 1]), fmap(2, 2, [0, 1])):
            with pytest.raises(ProblemMismatch, match="problem bottoms"):
                mediate(self.st, OneStepLifting(base, fillers))


def ref_restricted_fillers(struct, t: CommSquare) -> tuple:
    """The fillers a square restricts to, read one problem at a time as
    ``t.top`` after the problem's cell and concatenated in problem order."""
    return tuple(v for p in struct.problem_list for v in compose(t.top, struct.cell(p.key)).table)


MEDIATE_SHAPES = {
    "split_epi": split_epi_pres(),
    "two_gen_plain": two_gen_plain_pres(),  # one connecting square
    "retract": retract_pres(),
    "abc": abc_pres(),
}


@settings(max_examples=120, deadline=None)
@given(hst.data())
def test_mediate_inverts_restrict_on_random_squares(data):
    draw = data.draw
    shape = MEDIATE_SHAPES[draw(hst.sampled_from(sorted(MEDIATE_SHAPES)))]
    x, y = draw(hst.integers(0, 2)), draw(hst.integers(1, 2))
    f = aobj(fmap(x, y, draw(hst.lists(hst.integers(0, y - 1), min_size=x, max_size=x))))
    w = draw(hst.integers(1, 3))
    extra = draw(hst.lists(hst.integers(0, w - 1), max_size=2))
    g = aobj(fmap(w + len(extra), w, list(range(w)) + extra))  # surjective
    struct = step(shape, f)
    tf = struct.extended
    bot = fmap(y, w, draw(hst.lists(hst.integers(0, w - 1), min_size=y, max_size=y)))
    fibres = [[z for z, v in enumerate(g.map.table) if v == u] for u in range(w)]
    picks = draw(hst.lists(hst.integers(0, 2), min_size=tf.top.size, max_size=tf.top.size))
    top = [fibres[bot.table[v]][k % len(fibres[bot.table[v]])] for v, k in zip(tf.map.table, picks)]
    t = CommSquare(tf, g, fmap(tf.top.size, g.top.size, top), bot)
    lift = restrict_square(struct, t)
    assert lift.fillers.table == ref_restricted_fillers(struct, t)
    assert lift.base == square_compose(t, struct.unit)
    assert mediate(struct, lift) == t


def _random_arrow(rng, max_size=3) -> ArrowObject:
    x = rng.randint(0, max_size)
    y = rng.randint(1, max_size)
    return aobj(fmap(x, y, [rng.randrange(y) for _ in range(x)]))


def _random_surjective_arrow(rng, max_size=4) -> ArrowObject:
    w = rng.randint(1, max_size - 1)
    z = rng.randint(w, max_size)
    table = list(range(w)) + [rng.randrange(w) for _ in range(z - w)]
    rng.shuffle(table)
    return aobj(fmap(z, w, table))


def _random_square_into(rng, f: ArrowObject, g: ArrowObject) -> CommSquare:
    """A random square f -> g; g must be surjective so fibres are inhabited."""
    bot = fmap(f.bot.size, g.bot.size, [rng.randrange(g.bot.size) for _ in range(f.bot.size)])
    fibres = {w: [z for z in range(g.top.size) if g.map.table[z] == w] for w in range(g.bot.size)}
    top = fmap(f.top.size, g.top.size,
               [rng.choice(fibres[bot.table[f.map.table[x]]]) for x in range(f.top.size)])
    return CommSquare(f, g, top, bot)


class TestExtendSquare:
    @pytest.mark.parametrize("shape", FIXTURES, ids=shape_id)
    def test_identity_extends_to_identity(self, shape):
        engine = StepEngine(shape)
        f = aobj(f_3to2())
        assert engine.extend(identity_square(f)) == identity_square(engine.step(f).extended)

    @pytest.mark.parametrize(
        "shape", [plain_split_epi_pres(), two_gen_plain_pres(), abc_pres()],
        ids=["split-epi", "two-gen", "abc"],
    )
    def test_functoriality_on_random_composable_squares(self, shape):
        rng = random.Random(8101)
        engine = StepEngine(shape)
        for _ in range(25):
            f = _random_arrow(rng)
            g = _random_surjective_arrow(rng)
            h = _random_surjective_arrow(rng)
            alpha = _random_square_into(rng, f, g)
            beta = _random_square_into(rng, g, h)
            lhs = engine.extend(square_compose(beta, alpha))
            rhs = square_compose(engine.extend(beta), engine.extend(alpha))
            assert lhs == rhs

    @pytest.mark.parametrize(
        "shape", [plain_split_epi_pres(), two_gen_plain_pres(), abc_pres()],
        ids=["split-epi", "two-gen", "abc"],
    )
    def test_unit_is_natural(self, shape):
        rng = random.Random(515)
        engine = StepEngine(shape)
        for _ in range(25):
            f = _random_arrow(rng)
            g = _random_surjective_arrow(rng)
            alpha = _random_square_into(rng, f, g)
            lhs = square_compose(engine.extend(alpha), engine.step(f).unit)
            rhs = square_compose(engine.step(g).unit, alpha)
            assert lhs == rhs

    def test_extension_moves_cells_along_the_square(self):
        rng = random.Random(99)
        shape = abc_pres()
        engine = StepEngine(shape)
        f = _random_arrow(rng)
        g = _random_surjective_arrow(rng)
        alpha = _random_square_into(rng, f, g)
        ext = engine.extend(alpha)
        sf, sg = engine.step(f), engine.step(g)
        for p in sf.problem_list:
            moved = square_compose(alpha, p.square)
            assert compose(ext.top, sf.cell(p.key)) == sg.cell(
                (p.gen, moved.top.table, moved.bot.table)
            )

    def test_endpoint_mismatch_is_rejected(self):
        engine = StepEngine(plain_split_epi_pres())
        f, g = aobj(f_3to2()), aobj(f_1to1())
        with pytest.raises(ProblemMismatch):
            extend_square(engine.step(f), engine.step(f), identity_square(g))


class TestEngine:
    def test_general_steps_are_memoised(self):
        engine = StepEngine(plain_split_epi_pres())
        f = aobj(f_3to2())
        assert engine.step(f) is engine.step(f)
        # the kind of step the tables come from depends on the shape alone
        assert engine.step_tables(f) is engine.step_fast(f) is not engine.step(f)

    def test_step_tables_prefers_the_fast_path(self):
        engine = StepEngine(abc_pres())
        f = aobj(f_1to1())
        st = engine.step_tables(f)
        assert st is engine.step_fast(f)
        assert engine.step_tables(f) is st

    def test_step_tables_falls_back_to_general_when_ineligible(self):
        engine = StepEngine(two_gen_plain_pres())
        st = engine.step_tables(aobj(f_3to2()))
        assert st is engine.step(aobj(f_3to2()))

    def test_fast_path_counts_only_cell_adjoining_problems(self):
        # f: 3 -> 2 over the three-generator injective shape: the identity
        # generators enumerate 3 + 9 + 27 problems on the general path but
        # adjoin nothing, so only the 36 cell-adjoining problems count
        engine = StepEngine(abc_pres(), SizeBudget(max_problems=36))
        st = engine.step_tables(aobj(f_3to2()))
        assert st is engine.step_fast(aobj(f_3to2())) and st.size > 3
        with pytest.raises(SizeBudgetExceeded):
            engine.step(aobj(f_3to2()))

    def test_fast_path_budget_bounds_adjoining_problems(self):
        engine = StepEngine(abc_pres(), SizeBudget(max_problems=35))
        with pytest.raises(SizeBudgetExceeded):
            engine.step_tables(aobj(f_3to2()))

    def test_budget_refusals_have_one_owner(self):
        """``step.check_listable`` is the one place a problem budget is
        resolved and compared; ``oracle_kappa`` refuses only its carrier
        bound, which is no problem budget (above its listing cap it
        samples)."""
        assert sorted(_calls_in_src("SizeBudgetExceeded")) == [
            ("step", "check_listable", 1), ("verify", "oracle_kappa", 1)]
        default_budgets = [call for call in _calls_in_src("SizeBudget") if not call[2]]
        assert default_budgets == [("step", "check_listable", 0)]


def _nodes_in_src(match) -> list:
    """(module, enclosing classes and functions dotted, node) of every node
    of the package's source that ``match`` accepts, in source order."""
    found = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((module, scope, child))
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            walk(child, module, inner)

    for path in sorted(Path(step_module.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def _calls(name: str):
    """A node test: a call of ``name``, as a name or an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _calls_in_src(name: str) -> list:
    """(module, enclosing function, argument count) of every call of
    ``name``, as a name or an attribute, in the package's source."""
    return [(module, scope.rsplit(".", 1)[-1] or None, len(node.args) + len(node.keywords))
            for module, scope, node in _nodes_in_src(_calls(name))]


def _scopes_in_src(match) -> list:
    """(module, dotted enclosing scope) of every node ``match`` accepts, sorted."""
    return sorted((module, scope) for module, scope, _ in _nodes_in_src(match))


class TestModeOwner:
    """``step.mode_fault`` is the one place a run's mode is judged, and
    ``step.engines`` the one place a mode becomes engines."""

    def test_mode_faults(self):
        assert step_module.mode_fault(plain_split_epi_pres(), "plain") is None
        assert step_module.mode_fault(split_epi_pres(), "special") is None
        assert step_module.mode_fault(split_epi_pres(), "weird") == "unknown chain mode 'weird'"
        assert step_module.mode_fault(plain_split_epi_pres(), "special") == (
            "special mode needs a presentation with vertical composition")

    def test_engines_per_mode(self):
        engine, dengine = step_module.engines(plain_split_epi_pres(), "plain", SizeBudget(7))
        assert type(engine) is StepEngine and dengine is None and engine.budget == SizeBudget(7)
        engine, dengine = step_module.engines(split_epi_pres(), "special")
        assert type(dengine) is DoubleEngine and engine is dengine.single
        for shape, mode in [(split_epi_pres(), "weird"), (plain_split_epi_pres(), "special")]:
            with pytest.raises(DiagramError) as exc:
                step_module.engines(shape, mode)
            assert str(exc.value) == step_module.mode_fault(shape, mode)
        with pytest.raises(DiagramError) as exc:
            DoubleEngine(plain_split_epi_pres())
        assert str(exc.value) == step_module.mode_fault(plain_split_epi_pres(), "special")

    def test_engines_are_built_only_by_the_owner(self):
        assert _scopes_in_src(_calls("DoubleEngine")) == [("step", "engines")]
        assert _scopes_in_src(_calls("StepEngine")) == [
            ("step", "DoubleEngine.__init__"), ("step", "DoubleEngine.__init__"),
            ("step", "engines")]
        assert _scopes_in_src(_calls("engines")) == [
            ("chain", "run_chain"), ("verify", "check_algebra"), ("verify", "check_compat"),
            ("verify", "oracle_initiality"), ("verify", "oracle_kappa"),
            ("verify", "verify_certificate")]
        assert not hasattr(verify, "_engines")

    def test_mode_fault_texts_have_one_owner(self):
        texts = re.compile(r"unknown (chain )?mode|presentation with vertical composition")
        assert _scopes_in_src(lambda node: isinstance(node, ast.Constant)
                              and isinstance(node.value, str) and texts.search(node.value)) == [
            ("step", "mode_fault"), ("step", "mode_fault")]


class TestClassifyExtend:
    """The classification must coincide with the mediated functorial action
    on fast steps and on general ones (connecting squares, non-injective
    realisations)."""

    @pytest.mark.parametrize(
        "shape",
        [plain_split_epi_pres(), split_epi_pres(), abc_pres(), growth_pres(),
         two_gen_plain_pres(), codiag_pres()],
        ids=shape_id,
    )
    def test_matches_mediated_route_on_random_squares(self, shape):
        rng = random.Random(77)
        engine = StepEngine(shape)
        for _ in range(12):
            f = _random_arrow(rng)
            g = _random_surjective_arrow(rng)
            alpha = _random_square_into(rng, f, g)
            fast = classify_extend(engine.step_tables(f), engine.step_tables(g), alpha)
            mediated = extend_square(engine.step(f), engine.step(g), alpha)
            assert fast == mediated

    def test_engine_routes_through_classification_when_eligible(self):
        engine = StepEngine(abc_pres())
        f, g = aobj(f_2to3()), aobj(f_3to2())
        alpha = CommSquare(f, g, fmap(2, 3, [2, 0]), fmap(3, 2, [0, 1, 0]))
        routed = engine.extend(alpha)
        assert not engine._general  # the auto route never built a general step
        assert routed == extend_square(engine.step(f), engine.step(g), alpha)
        engine2 = StepEngine(two_gen_plain_pres())
        with pytest.raises(DiagramError):
            engine2.step_fast(f)

    def test_rejects_mismatched_endpoints(self):
        engine = StepEngine(abc_pres())
        f, g = aobj(f_3to2()), aobj(f_1to1())
        sq = identity_square(f)
        with pytest.raises(ProblemMismatch):
            classify_extend(engine.step_fast(f), engine.step_fast(g), sq)


class TestFilteredColimitSanity:
    def test_extension_commutes_with_eventually_constant_chains(self):
        rng = random.Random(2024)
        shape = abc_pres()
        engine = StepEngine(shape)
        for _ in range(10):
            f0 = _random_arrow(rng)
            f1 = _random_surjective_arrow(rng)
            a01 = _random_square_into(rng, f0, f1)
            # chain f0 -> f1 -> f1 -> ... is eventually constant with colimit f1
            t0, t1 = engine.step(f0).extended, engine.step(f1).extended
            e01 = engine.extend(a01)
            colim = ArrowColimit([t0, t1], [(0, 1, e01)])
            # mediating square from the colimit of extensions to the
            # extension of the colimit is invertible on both carriers
            med = colim.induced([e01, identity_square(t1)], t1)
            assert is_iso(med.top) is not None
            assert is_iso(med.bot) is not None
