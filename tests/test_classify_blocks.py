"""The block classification of squares out of extensions against the
per-problem classification.

``classify_extend``, the composition comparison and ``iterate_then`` build
their top tables one block per generator by rank arithmetic, on fast and
general steps alike.  The reference below is the per-problem route they
replaced: enumerate every problem, look up the cell it is sent to by its
key among the copaired cells (or the cells of the literal construction of
``reference_step``), and write that cell's free entries.  Neither lookup
goes through the rank of a problem.  Every square must be equal, table
for table, on every stage of the fixture chains in both modes, on
Hypothesis plain shapes (injective ones, and ones with non-injective
generators and connecting squares), and on mixed fast and general
structures.  A path guard makes a per-problem location in production fail
without any timing.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from awfskit.arrows import ArrowObject, CommSquare, identity_square
from awfskit.chain import ChainTrace, run_chain
from awfskit.errors import ProblemMismatch, SizeBudgetExceeded
from awfskit.finset import FiniteMap
from awfskit.presentation import DoubleCatPresentation, PlainPresentation
from awfskit.step import (
    DoubleEngine,
    SizeBudget,
    StepEngine,
    StepStructure,
    _GenLayout,
    _rows,
    classify_extend,
    enumerate_problems,
    fast_eligible,
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
    pair_square_pres,
    plain_split_epi_pres,
    retract_pres,
    split_epi_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)
from reference_step import reference_step
from test_step import _draw_arrow, _draw_square, _Shape


# ---------------------------------------------------------------------------
# the per-problem reference
# ---------------------------------------------------------------------------


def _free(u: ArrowObject) -> list:
    image = set(u.map.table)
    return [b for b in range(u.bot.size) if b not in image]


def copaired_cells(struct: StepStructure) -> dict:
    """The cell of every problem, by key: its slice of the copaired cells."""
    cells, start, out = struct.copaired().table, 0, {}
    for name, bottom, count, tops, bots in struct.problem_blocks():
        for s0, s1 in zip(_rows(tops, count), _rows(bots, count)):
            out[name, s0, s1] = cells[start : start + bottom.size]
            start += bottom.size
    return out


def cell_lookup(struct: StepStructure):
    """The cell table of a problem key: sliced off the copaired cells on a
    general step, and by ``StepStructure.cell``'s digit-by-digit rank on a
    fast one, whose cells can be too many to list."""
    if struct.bottoms is None:
        return lambda key: struct.cell(key).table
    return copaired_cells(struct).__getitem__


def literal_lookup(struct: StepStructure):
    """The cell table of a problem key in the literal construction."""
    cells = reference_step(struct.shape, struct.target).cells
    return lambda key: cells[key].table


def ref_square(src: StepStructure, dst: ArrowObject, incl_image, cell_image, bot,
               lookup=cell_lookup) -> CommSquare:
    """The square out of ``src.extended`` that sends the inclusion along
    ``incl_image`` and the cell of each problem to ``cell_image(gen, s0,
    s1)``, problem by problem; every carrier position is written."""
    top = [None] * src.size
    for v, pos in enumerate(src.inclusion.table):
        top[pos] = incl_image[v]
    src_cell = lookup(src)
    for name, u in src.shape.lifting_generators():
        free = _free(u)
        if not free:
            continue
        for p in enumerate_problems(name, u, src.target):
            cell = src_cell(p.key)
            image = cell_image(*p.key)
            for b in free:
                # cells joined by a connecting square share positions
                assert top[cell[b]] in (None, image[b])
                top[cell[b]] = image[b]
    assert None not in top
    return CommSquare(src.extended, dst, FiniteMap(src.extended.top, dst.top, tuple(top)), bot)


def ref_extend(src: StepStructure, dst: StepStructure, alpha: CommSquare,
               lookup=cell_lookup) -> CommSquare:
    at, ab = alpha.top.table, alpha.bot.table
    kd, dst_cell = dst.inclusion.table, lookup(dst)
    return ref_square(
        src,
        dst.extended,
        [kd[v] for v in at],
        lambda gen, s0, s1: dst_cell((gen, tuple(at[v] for v in s0), tuple(ab[w] for w in s1))),
        alpha.bot,
        lookup,
    )


def ref_compose(dengine: DoubleEngine, f: ArrowObject) -> CommSquare:
    s2 = dengine.paired.step_tables(f)
    s1 = dengine.single.step_tables(f)
    s1_cell = cell_lookup(s1)
    return ref_square(
        s2,
        s1.extended,
        s1.inclusion.table,
        lambda pname, s0, s1tab: s1_cell((dengine.pairs.pair(pname).composite, s0, s1tab)),
        FiniteMap(f.bot, f.bot, tuple(range(f.bot.size))),
    )


def ref_iterate(dengine: DoubleEngine, stage: ArrowObject, collapse: CommSquare) -> CommSquare:
    s2 = dengine.paired.step_tables(stage)
    s1 = dengine.single.step_tables(stage)
    snext = dengine.single.step_tables(collapse.dst)
    ct, cb = collapse.top.table, collapse.bot.table
    s1_cell, snext_cell = cell_lookup(s1), cell_lookup(snext)

    def cell_image(pname, s0, s1tab):
        pair = dengine.pairs.pair(pname)
        rt = dengine.pres.uarrow(pair.right).map.table
        inner = s1_cell((pair.left, s0, tuple(s1tab[c] for c in rt)))
        return snext_cell((pair.right, tuple(ct[v] for v in inner), tuple(cb[w] for w in s1tab)))

    knext = snext.inclusion.table
    return ref_square(s2, snext.extended, [knext[ct[w]] for w in s1.inclusion.table],
                      cell_image, collapse.bot)


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def twisted_pres() -> DoubleCatPresentation:
    """A composable pair whose right arrow is not monotone, so the left
    arrow's free digits sit at composite positions in another order, and
    whose right arrow has free positions of its own; the left arrow has two
    top points sent out of order."""
    return DoubleCatPresentation.build(
        objects={"p": 2, "q": 3, "r": 5},
        varrows=[
            ("ep", "p", "p", [0, 1]),
            ("eq", "q", "q", [0, 1, 2]),
            ("er", "r", "r", [0, 1, 2, 3, 4]),
            ("a", "p", "q", [2, 0]),
            ("b", "q", "r", [4, 1, 3]),
            ("c", "p", "r", [3, 4]),
        ],
        vid={"p": "ep", "q": "eq", "r": "er"},
        vcomp=[("a", "b", "c")],
    )


def reversed_pres() -> DoubleCatPresentation:
    """A one-point arrow into two points followed by a map into four that
    reverses them and leaves two points free."""
    return DoubleCatPresentation.build(
        objects={"p": 1, "q": 2, "r": 4},
        varrows=[
            ("ep", "p", "p", [0]),
            ("eq", "q", "q", [0, 1]),
            ("er", "r", "r", [0, 1, 2, 3]),
            ("a", "p", "q", [1]),
            ("b", "q", "r", [3, 1]),
            ("c", "p", "r", [1]),
        ],
        vid={"p": "ep", "q": "eq", "r": "er"},
        vcomp=[("a", "b", "c")],
    )


# retract_pres takes the general step in both engines, and so do pair-square
# and uniform2, whose connecting squares the step's colimit glues along
DOUBLES = [split_epi_pres(), abc_pres(), composite_pres(), retract_pres(), twisted_pres(),
           reversed_pres(), pair_square_pres(), uniform_monos_pres(2)]
DOUBLE_IDS = ["split-epi", "abc", "composite", "retract", "twisted", "reversed",
              "pair-square", "uniform2"]
# codiag and two-gen take the general step
PLAINS = [plain_split_epi_pres(), growth_pres(), codiag_pres(), two_gen_plain_pres()]
PLAIN_IDS = ["split-epi", "growth", "codiag", "two-gen"]
MAPS = [f_3to2(), f_1to1(), f_0to1(), f_2to3(), fmap(0, 0, []), fmap(2, 1, [0, 0])]
MAP_IDS = ["3to2", "1to1", "0to1", "2to3", "0to0", "2to1"]

CHAIN_BUDGET = SizeBudget(max_problems=20000)


def _chain(shape, f, mode):
    """The chain of ``shape`` on ``f`` as far as stage 5 or the budget,
    with the double engine of a double presentation in either mode."""
    dengine = DoubleEngine(shape, CHAIN_BUDGET) if shape.kind == "double" else None
    engine = dengine.single if dengine is not None else StepEngine(shape, CHAIN_BUDGET)
    trace = ChainTrace(engine, [ArrowObject(f)], dengine if mode == "special" else None)
    while len(trace.stages) <= 5:
        try:
            trace.advance(len(trace.stages))
        except SizeBudgetExceeded:
            break
    return trace, dengine


def _assert_chain_squares(trace, dengine):
    engine = trace.engine
    fast = fast_eligible(trace.shape)
    for n in range(len(trace.structure)):
        stage, nxt = trace.stages[n], trace.stages[n + 1]
        try:
            src, dst = engine.step_tables(stage), engine.step_tables(nxt)
        except SizeBudgetExceeded:
            break  # the last stage, whose extension the chain never built
        assert (src.bottoms is None) == fast
        j = trace.connect[n]
        assert classify_extend(src, dst, j) == ref_extend(src, dst, j)
        if dengine is None:
            continue
        assert dengine.compose_comparison(stage) == ref_compose(dengine, stage)
        assert dengine.iterate_then(stage, trace.structure[n]) == ref_iterate(
            dengine, stage, trace.structure[n]
        )
        try:
            lam = dengine.iterate_then(stage, identity_square(src.extended))
        except SizeBudgetExceeded:
            continue
        assert lam == ref_iterate(dengine, stage, identity_square(src.extended))


class TestFixtureChains:
    @pytest.mark.parametrize("f", MAPS, ids=MAP_IDS)
    @pytest.mark.parametrize("mode", ["plain", "special"])
    @pytest.mark.parametrize("pres", DOUBLES, ids=DOUBLE_IDS)
    def test_double_presentations(self, pres, mode, f):
        trace, dengine = _chain(pres, f, mode)
        _assert_chain_squares(trace, dengine)

    @pytest.mark.parametrize("f", MAPS, ids=MAP_IDS)
    @pytest.mark.parametrize("shape", PLAINS, ids=PLAIN_IDS)
    def test_plain_presentations(self, shape, f):
        trace, _ = _chain(shape, f, "plain")
        _assert_chain_squares(trace, None)

    def test_chains_reach_several_stages(self):
        # the comparisons above are not vacuous: the block route sees
        # chains that grow, on shapes with two free positions and more
        assert len(_chain(abc_pres(), f_1to1(), "special")[0].stages) >= 3
        assert len(_chain(twisted_pres(), f_0to1(), "special")[0].stages) >= 3
        assert len(_chain(growth_pres(), f_3to2(), "plain")[0].stages) == 6


# ---------------------------------------------------------------------------
# Hypothesis plain shapes and squares
# ---------------------------------------------------------------------------


@hst.composite
def injective_generator(draw, name):
    a = draw(hst.integers(0, 2))
    free = draw(hst.integers(0, 2))
    table = draw(hst.permutations(range(a + free)))[:a]
    return (name, a, a + free, list(table))


@hst.composite
def plain_shapes(draw):
    count = draw(hst.integers(1, 3))
    return PlainPresentation.build(
        generators=[draw(injective_generator(f"g{i}")) for i in range(count)]
    )


@hst.composite
def arrows(draw, max_size=3):
    y = draw(hst.integers(0, max_size))
    x = draw(hst.integers(0, max_size)) if y else 0
    return ArrowObject(fmap(x, y, [draw(hst.integers(0, y - 1)) for _ in range(x)]))


@hst.composite
def squares_from(draw, f: ArrowObject):
    """A square out of ``f`` into an arrow drawn alongside it: the bottom
    first, then each top point in the fibre over where the bottom sends
    it, adding a point to the target's top when that fibre is empty."""
    yg = draw(hst.integers(1 if f.bot.size else 0, 3))
    gtable = [draw(hst.integers(0, yg - 1)) for _ in range(draw(hst.integers(0, 3)))] if yg else []
    bot = [draw(hst.integers(0, yg - 1)) for _ in range(f.bot.size)]
    top = []
    for v in f.map.table:
        fibre = [z for z, w in enumerate(gtable) if w == bot[v]]
        if not fibre or draw(hst.booleans()):
            gtable.append(bot[v])
            fibre = [len(gtable) - 1]
        top.append(draw(hst.sampled_from(fibre)))
    g = ArrowObject(fmap(len(gtable), yg, gtable))
    return CommSquare(f, g, fmap(f.top.size, g.top.size, top), fmap(f.bot.size, yg, bot))


@settings(max_examples=120, deadline=None)
@given(hst.data())
def test_extend_blocks_match_reference_on_random_plain_shapes(data):
    shape = data.draw(plain_shapes())
    f = data.draw(arrows())
    alpha = data.draw(squares_from(f))
    engine = StepEngine(shape)
    src, dst = engine.step_fast(alpha.src), engine.step_fast(alpha.dst)
    got = classify_extend(src, dst, alpha)
    assert got == ref_extend(src, dst, alpha)
    assert engine.extend(alpha) == got


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_classification_matches_literal_cells_on_random_general_shapes(data):
    """Non-injective generators drop rows of their product order, so a
    problem's number is not its rank, and connecting squares merge cells:
    the general step's rank location must still find every cell that the
    literal construction adjoins."""
    draw = data.draw
    gens = [(f"g{i}", _draw_arrow(draw, 2, 2)) for i in range(draw(hst.integers(1, 3)))]
    squares = []
    for i in range(draw(hst.integers(0, 4))):
        src_name, src = draw(hst.sampled_from(gens))
        dst_name, dst = draw(hst.sampled_from(gens))
        sq = _draw_square(draw, src, dst)
        if sq is not None:
            squares.append((f"s{i}", src_name, dst_name, sq))
    shape = _Shape(gens, squares)
    alpha = draw(squares_from(draw(arrows())))
    engine = StepEngine(shape)
    src, dst = engine.step(alpha.src), engine.step(alpha.dst)
    got = classify_extend(src, dst, alpha)
    assert got == ref_extend(src, dst, alpha, literal_lookup)
    if not alpha.is_identity():
        assert engine.extend(alpha) == got
    literal = literal_lookup(src)
    for p in src.problem_list:
        assert src.cell(p.key).table == literal(p.key)


def test_cell_refuses_a_row_that_is_no_problem():
    # codiag's d: 2 -> 1 keeps only the rows whose two top points f joins,
    # so (0, 1) over 3 -> 2 is a row of its product but no problem
    st = StepEngine(codiag_pres()).step(ArrowObject(f_3to2()))
    assert st.cell(("d", (0, 2), (0,))).table == (0,)
    with pytest.raises(ProblemMismatch):
        st.cell(("d", (0, 1), (0,)))


def test_cell_refuses_keys_out_of_range():
    # g, h: 0 -> 1 over 3 -> 2: g's cells are points 3 and 4, h's 5 and 6;
    # each key's rank would land on another problem's cell, a point of X,
    # or past the carrier
    shape = PlainPresentation.build(generators=[("g", 0, 1, []), ("h", 0, 1, [])])
    st = StepEngine(shape).step_fast(ArrowObject(f_3to2()))
    assert st.cell(("g", (), (1,))).table == (4,)
    assert st.cell(("h", (), (0,))).table == (5,)
    for key in [("g", (), (2,)), ("g", (), (0, 1)), ("g", (), (-1,)), ("g", (), (5,))]:
        with pytest.raises(ProblemMismatch):
            st.cell(key)


EDGE_SHAPES = [
    # no free position at all, next to one with two
    PlainPresentation.build(generators=[("e", 2, 2, [1, 0]), ("w", 1, 3, [2])]),
    # two free positions and no top point
    PlainPresentation.build(generators=[("z", 0, 2, [])]),
    # several generators, free positions between image points
    PlainPresentation.build(generators=[("g", 1, 2, [0]), ("h", 2, 4, [3, 1]), ("j", 0, 1, [])]),
]


@pytest.mark.parametrize("shape", EDGE_SHAPES, ids=["no-free", "empty-top", "several"])
@pytest.mark.parametrize("alpha", [
    # empty carriers on both ends
    CommSquare(ArrowObject(fmap(0, 0, [])), ArrowObject(fmap(0, 0, [])), fmap(0, 0, []), fmap(0, 0, [])),
    # an empty top into an empty top over a non-identity bottom
    CommSquare(ArrowObject(fmap(0, 2, [])), ArrowObject(fmap(0, 1, [])), fmap(0, 0, []), fmap(2, 1, [0, 0])),
    # a non-injective top and a non-identity bottom
    CommSquare(ArrowObject(fmap(3, 2, [0, 1, 0])), ArrowObject(fmap(2, 2, [0, 1])),
               fmap(3, 2, [1, 0, 1]), fmap(2, 2, [1, 0])),
    # into a larger arrow, the bottom not surjective
    CommSquare(ArrowObject(fmap(2, 2, [0, 1])), ArrowObject(fmap(4, 3, [2, 0, 2, 1])),
               fmap(2, 4, [2, 3]), fmap(2, 3, [2, 1])),
], ids=["empty", "empty-top", "collapse", "widen"])
def test_extend_blocks_match_reference_on_edge_squares(shape, alpha):
    engine = StepEngine(shape)
    src, dst = engine.step_fast(alpha.src), engine.step_fast(alpha.dst)
    assert classify_extend(src, dst, alpha) == ref_extend(src, dst, alpha)


@pytest.mark.parametrize("pres", DOUBLES[:3] + DOUBLES[4:], ids=DOUBLE_IDS[:3] + DOUBLE_IDS[4:])
def test_comparisons_match_reference_on_random_squares(pres):
    rng = random.Random(808)
    dengine = DoubleEngine(pres)
    for _ in range(10):
        y = rng.randint(0, 2)
        x = rng.randint(0, 2) if y else 0
        f = ArrowObject(fmap(x, y, [rng.randrange(y) for _ in range(x)]))
        assert dengine.compose_comparison(f) == ref_compose(dengine, f)
        s1 = dengine.single.step_tables(f)
        # collapse the extension at random onto an arrow with one bottom point
        collapse = identity_square(s1.extended)
        if y:
            gx = rng.randint(1, 3)
            g = ArrowObject(fmap(gx, 1, [0] * gx))
            top = fmap(s1.size, gx, [rng.randrange(gx) for _ in range(s1.size)])
            collapse = CommSquare(s1.extended, g, top, fmap(y, 1, [0] * y))
        assert dengine.iterate_then(f, collapse) == ref_iterate(dengine, f, collapse)


class TestMixedStructures:
    """A fast structure on one end and a general one on the other take the
    per-problem route, and agree with the reference too."""

    @pytest.mark.parametrize("shape", [abc_pres(), growth_pres(), EDGE_SHAPES[2]],
                             ids=["abc", "growth", "several"])
    def test_fast_and_general_ends(self, shape):
        engine = StepEngine(shape)
        f, g = ArrowObject(f_3to2()), ArrowObject(fmap(2, 2, [0, 1]))
        alpha = CommSquare(f, g, fmap(3, 2, [1, 0, 1]), fmap(2, 2, [1, 0]))
        fast_f, fast_g = engine.step_fast(f), engine.step_fast(g)
        general_f, general_g = engine.step(f), engine.step(g)
        expected = classify_extend(fast_f, fast_g, alpha)
        for src, dst in itertools.product((fast_f, general_f), (fast_g, general_g)):
            assert classify_extend(src, dst, alpha) == expected == ref_extend(src, dst, alpha)


    @pytest.mark.parametrize("general_paired", [False, True], ids=["fast-pairs", "general-pairs"])
    @pytest.mark.parametrize("general_single", [False, True], ids=["fast-single", "general-single"])
    @pytest.mark.parametrize("make", [split_epi_pres, abc_pres], ids=["split-epi", "abc"])
    def test_comparisons_on_fast_and_general_steps(self, make, general_single, general_paired):
        f = ArrowObject(f_3to2())
        fast = DoubleEngine(make())
        s1 = fast.single.step_tables(f)
        g = ArrowObject(fmap(2, 1, [0, 0]))
        rng = random.Random(21)
        collapses = [
            identity_square(s1.extended),
            CommSquare(s1.extended, g, fmap(s1.size, 2, [rng.randrange(2) for _ in range(s1.size)]),
                       fmap(2, 1, [0, 0])),
        ]
        dengine = DoubleEngine(make())
        if general_single:
            dengine.single.step_tables = dengine.single.step
        if general_paired:
            dengine.paired.step_tables = dengine.paired.step
        assert (dengine.single.step_tables(f).bottoms is None) != general_single
        assert (dengine.paired.step_tables(f).bottoms is None) != general_paired
        expected = fast.compose_comparison(f)
        assert dengine.compose_comparison(f) == expected == ref_compose(dengine, f)
        for collapse in collapses:
            expected = fast.iterate_then(f, collapse)
            got = dengine.iterate_then(f, collapse)
            assert got == expected == ref_iterate(dengine, f, collapse)


# ---------------------------------------------------------------------------
# the path guard
# ---------------------------------------------------------------------------


@pytest.fixture
def per_problem_calls(monkeypatch):
    """Counts of the per-problem locations of a cell during a test: the
    rank of one problem, and the cell of one problem."""
    counts = {"rank": 0, "cell": 0}
    rank, cell = _GenLayout.rank, StepStructure.cell

    def counted_rank(self, *args):
        counts["rank"] += 1
        return rank(self, *args)

    def counted_cell(self, key):
        counts["cell"] += 1
        return cell(self, key)

    monkeypatch.setattr(_GenLayout, "rank", counted_rank)
    monkeypatch.setattr(StepStructure, "cell", counted_cell)
    return counts


def _seeded(x: int, y: int, seed: int):
    rng = random.Random(seed)
    return fmap(x, y, [rng.randrange(y) for _ in range(x)])


class TestPathGuard:
    def test_growth_chain_never_classifies_per_problem(self, per_problem_calls):
        trace = run_chain(growth_pres(), f_1to1(), mode="plain", max_stage=60)
        assert trace.carrier_sizes[-1] == 61
        assert per_problem_calls == {"rank": 0, "cell": 0}

    def test_composite_special_chain_never_classifies_per_problem(self, per_problem_calls):
        trace = run_chain(composite_pres(), _seeded(400, 40, 4000), mode="special", max_stage=4)
        assert trace.carrier_sizes[1] > 400
        assert per_problem_calls == {"rank": 0, "cell": 0}

    @pytest.mark.parametrize("make", [two_gen_plain_pres, codiag_pres], ids=["two-gen", "codiag"])
    def test_general_chain_never_classifies_per_problem(self, make, per_problem_calls):
        # general steps: a connecting square, and a generator that drops rows
        trace = run_chain(make(), _seeded(30, 6, 30), mode="plain", max_stage=3)
        assert not fast_eligible(make()) and len(trace.carrier_sizes) == 4
        assert per_problem_calls == {"rank": 0, "cell": 0}
        # the counters are live: one cell looked up by key counts once each
        st = trace.engine.step_tables(trace.stages[0])
        st.cell(st.problem_list[0].key)
        assert per_problem_calls == {"rank": 1, "cell": 1}
