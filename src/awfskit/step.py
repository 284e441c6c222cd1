"""One step of the factorisation construction.

Given a presentation-like shape (anything exposing ``lifting_generators``
and ``lifting_squares``) and a target map ``f``, this module builds:

* the lifting problems (all commuting squares from a generator
  realisation into ``f``), connected by the shape's squares,
* their colimit with the counit back into ``f``, as one coequaliser in
  the arrow category,
* the one-step extension ``Tf`` as a pushout, together with the unit
  square ``f -> Tf``, the inclusion of the domain carrier, and the
  adjoined cell of every lifting problem,
* the functorial action on squares, and the two comparison squares that
  relate the free pair extension (one block of cells per problem of each
  composable pair, and no connecting squares) to the plain one.

Two step constructions produce identical tables from one layout of each
generator's problems as key columns (``_GenLayout``), and ``fast_eligible``
picks one from the shape alone.  When the shape has no connecting squares
and every generator realisation is injective, ``fast_step`` computes the
canonical numbering by rank arithmetic; otherwise ``step`` builds the
colimit/pushout factories' inputs from the key columns.  Every listing,
here and elsewhere, is first refused over budget by ``check_listable``;
every run's mode is judged by ``mode_fault`` and becomes engines in
``engines``, for the chain, ``verify``, both oracles and the command line.

Every square out of an extension is fixed by where it sends the
inclusion and the free entries of every adjoined cell, which together
cover the extension carrier.  The functorial action and the comparison
squares are all written that way, by classification, the only way the
engine builds any of them.  Both kinds locate a problem's cell by its
rank in its generator's product order, a fast step by arithmetic and a
general step off the copaired cells, so each square's top table is built
one block per generator by rank arithmetic on either kind.  The two-stage
comparison is only ever used followed by a square out of the second
extension, so ``DoubleEngine.iterate_then`` builds that composite fused
and never builds the twice-iterated extension.

The universal-property mediator (``mediate`` and ``restrict_square``) and
the comparisons built on it (``compose_mediated`` and ``iterate_mediated``)
compute the same squares through the universal property; no production
path calls them.  They are kept as an independent cross-check, on fast and
general steps alike.  A lifting is one map out of the coproduct ∐ₚ Bₚ of
the problems' bottoms, read against the copaired cells.  ``mediate`` and
``restrict_square`` wrap two table kernels, ``_mediated_top`` and
``_restricted``, which ``oracle_kappa`` runs on raw tables in its
exhaustive branch.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .arrows import ArrowColimit, ArrowObject, CommSquare, identity_square, square_compose
from .errors import (
    DiagramError,
    NonNaturalLifting,
    ProblemMismatch,
    SizeBudgetExceeded,
    UniversalityError,
)
from .finset import (_NOT_COEQUALISED, _NOT_COMMUTING, FinSet, FiniteMap, _gather, _mediate,
                     compose, identity, pushout)


# ---------------------------------------------------------------------------
# budgets, problems, enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeBudget:
    """Cap on the number of lifting problems the general path may enumerate.

    The quantity that explodes is the problem count (it grows like
    |X|^|A| * |Y|^|B\\im U| per generator), so the budget bounds that; the
    bound is checked against a cheap upper estimate before enumerating.
    """

    max_problems: int = 250_000


def check_listable(count: int, budget: Optional[SizeBudget], what: str,
                   unit: str = "problems") -> None:
    """Refuse ``what``, a listing of ``count`` ``unit``, when ``budget`` (the
    default budget when None) allows fewer: the one place a budget is
    compared.  ``what`` carries its verb, as in ``"general step lists"``."""
    limit = (budget or SizeBudget()).max_problems
    if count > limit:
        raise SizeBudgetExceeded(f"{what} {count} {unit}, budget allows {limit}")


ProblemKey = tuple  # (generator name, top table, bottom table)


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square from a generator realisation into the target."""

    gen: str
    square: CommSquare

    @cached_property
    def key(self) -> ProblemKey:
        return (self.gen, self.square.top.table, self.square.bot.table)

    @classmethod
    def of(cls, gen: str, u: ArrowObject, f: ArrowObject, top, bot) -> "LiftingProblem":
        """The problem of ``u`` in ``f`` with top and bottom tables ``top``
        and ``bot``, its square checked: a ``DiagramError`` when a table is
        no map between the carriers it joins, or the square does not commute."""
        top, bot = FiniteMap(u.top, f.top, top), FiniteMap(u.bot, f.bot, bot)
        return cls(gen, CommSquare(u, f, top, bot))


def enumerate_problems(gen: str, u: ArrowObject, f: ArrowObject) -> Iterator[LiftingProblem]:
    """All lifting problems of ``u`` in ``f``, in canonical order: the rows
    of ``_GenLayout.columns``."""
    ranks, tops, bots = _layout(gen, u, f.top.size, f.bot.size).columns(f)
    for s0, s1 in zip(_rows(tops, len(ranks)), _rows(bots, len(ranks))):
        yield LiftingProblem.of(gen, u, f, s0, s1)


# ---------------------------------------------------------------------------
# the one-step extension
# ---------------------------------------------------------------------------


@dataclass
class _GenLayout:
    """The problems of a generator ``u: A -> B`` against a target ``X ->
    Y``: the rows of the product of its top digits (radix |X|) and its free
    digits (radix |Y|, the bottom positions outside the image of ``u``) in
    lexicographic order (Garner 2009, §4: one cell per problem); ``ranks``
    lists the rows that are problems.  The offset ``base + r*k + i`` of the
    free entry ``i`` of the cell of the problem of rank ``r`` is its point
    on a fast step; a general step (``base`` 0) reads it off ``points``."""

    name: str
    u: ArrowObject
    free: list
    layout: tuple  # per bottom position: (True, index in free) or (False, first top preimage)
    top_count: int  # |X|^|A|
    free_count: int  # |Y|^(free positions)
    base: int  # |X| plus the free entries of earlier generators' cells, on fast steps
    ranks: Sequence[int]
    points: Optional[Sequence[int]] = None

    @property
    def fcount(self) -> int:
        return len(self.free)

    @property
    def block(self) -> int:  # the rows: the problems, or a bound on them if u is not injective
        return self.top_count * self.free_count

    def rank(self, s0: tuple, s1: tuple, x: int, y: int) -> int:
        """The rank of the problem ``(s0, s1)`` in product order: the
        digits of ``s0`` (radix ``x``), then its free digits (radix ``y``)."""
        rank = 0
        for v in s0:
            rank = rank * x + v
        for b in self.free:
            rank = rank * y + s1[b]
        return rank

    def top_columns(self, x: int) -> list:
        """The top digits (radix ``x``) of the rows, in product order, as
        columns."""
        a = self.u.top.size
        return [_column(range(x), x ** (a - 1 - j) * self.free_count, x**j) for j in range(a)]

    def columns(self, f: ArrowObject) -> tuple[Sequence[int], list, list]:
        """The problems against ``f`` in canonical order: their ranks, and
        their top and bottom tables as columns, one per position.  A forced
        bottom entry is ``f`` after its first top preimage; a row where a
        later preimage forces it otherwise is dropped."""
        ft, ut, y, k = f.map.table, self.u.map.table, f.bot.size, self.fcount
        tops = self.top_columns(f.top.size)
        frees = [_column(range(y), y ** (k - 1 - i), self.top_count * y**i) for i in range(k)]
        bots = [frees[i] if free else list(map(ft.__getitem__, tops[i]))
                for free, i in self.layout]
        later = [a for a, b in enumerate(ut) if self.layout[b][1] != a]
        if not later:
            return range(self.block), tops, bots
        keep = list(map(operator.eq, zip(*(map(ft.__getitem__, tops[a]) for a in later)),
                        zip(*(bots[ut[a]] for a in later))))
        return (list(itertools.compress(range(self.block), keep)),
                [list(itertools.compress(c, keep)) for c in tops],
                [list(itertools.compress(c, keep)) for c in bots])

    def select(self, column: Sequence[int], k: int = 1) -> Sequence[int]:
        """A column of ``k`` entries per row, at the rows that are problems."""
        if len(self.ranks) == self.block:
            return column
        rows = self.ranks if k == 1 else [r * k + i for r in self.ranks for i in range(k)]
        return _gather(column, rows)

    def points_at(self, offsets: Sequence[int]) -> Sequence[int]:
        """The extension points of the cell entries at ``offsets``."""
        return offsets if self.points is None else _gather(self.points, offsets)

    def by_rank(self, rows: Sequence[int], k: int = 1) -> Sequence[int]:
        """The inverse of ``select``: ``rows`` of ``k`` entries, one per
        problem, at its rank; a row that is no problem gets zeros, never read."""
        if len(self.ranks) == self.block:
            return rows
        out = [0] * (self.block * k)
        for j, r in enumerate(self.ranks):
            out[r * k : r * k + k] = rows[j * k : j * k + k]
        return out


def _layout(name: str, u: ArrowObject, x: int, y: int, base: int = 0) -> _GenLayout:
    reps: dict[int, int] = {}  # the first preimage of each point of the image
    for a, b in enumerate(u.map.table):
        reps.setdefault(b, a)
    free = [b for b in range(u.bot.size) if b not in reps]
    layout = tuple((True, free.index(b)) if b not in reps else (False, reps[b])
                   for b in range(u.bot.size))
    top_count, free_count = x ** u.top.size, y ** len(free)
    return _GenLayout(name, u, free, layout, top_count, free_count, base,
                      range(top_count * free_count))


def _layouts(shape, x: int, y: int, fast: bool) -> dict[str, _GenLayout]:
    """The layout of every generator of ``shape`` against a target ``X ->
    Y``, by name, in generator order, based as on a fast step if ``fast``, else at 0."""
    out, base = {}, x
    for name, u in shape.lifting_generators():
        out[name] = meta = _layout(name, u, x, y, base if fast else 0)
        base += meta.block * meta.fcount
    return out


class StepStructure:
    """The one-step extension of ``target``: carrier, inclusion, unit and
    the adjoined cell of every lifting problem.

    Both kinds hold the layout of every generator (``_gens``), which
    locates the cells of its problems by rank, list their problems by
    generator as its key columns (``problem_blocks``) and copair their
    cells into one map out of ∐ₚ Bₚ (``copaired``, kept in ``copair``),
    through which ``mediate`` and ``restrict_square`` read the cells of
    either kind.  General instances (built by ``step``) also carry the
    quotient map ``bottoms`` of ∐ₚ Bₚ onto the colimit's bottom, and
    ``cover``: the point of each target point, then of each free entry of
    each cell in problem order, which on fast ones is the carrier in order.
    """

    def __init__(self, shape, target: ArrowObject, gens: dict[str, _GenLayout],
                 extended: ArrowObject, inclusion: FiniteMap,
                 bottoms: Optional[FiniteMap] = None, copair: Optional[FiniteMap] = None,
                 cover: Optional[list] = None):
        self.shape = shape
        self.target = target
        self._gens = gens
        self.extended, self.inclusion = extended, inclusion
        self.unit = CommSquare(target, extended, inclusion, identity(target.bot))
        self.bottoms, self.copair, self.cover = bottoms, copair, cover

    @property
    def size(self) -> int:
        return self.extended.top.size

    @cached_property
    def problem_list(self) -> list[LiftingProblem]:
        return [p for name, u in self.shape.lifting_generators()
                for p in enumerate_problems(name, u, self.target)]

    def cell(self, key: ProblemKey) -> FiniteMap:
        """The adjoined cell of the problem ``key``, located by its rank: a
        map from the bottom carrier of its generator into the extension
        carrier, its forced entries the inclusion of its top.  A key whose
        checked square (``LiftingProblem.of``) does not build is no lifting
        problem of this step, and is refused before its rank is read."""
        gen, s0, s1 = key
        meta = self._gens.get(gen)
        if meta is not None:
            try:
                LiftingProblem.of(gen, meta.u, self.target, s0, s1)
            except DiagramError:
                meta = None
        if meta is None:
            raise ProblemMismatch(f"{key} is not a lifting problem of this step")
        x, y = self.target.top.size, self.target.bot.size
        at = meta.base + meta.rank(s0, s1, x, y) * meta.fcount
        free, incl = meta.points_at(range(at, at + meta.fcount)), self.inclusion.table
        table = tuple([free[i] if is_free else incl[s0[i]] for is_free, i in meta.layout])
        return FiniteMap(FinSet(len(table)), self.extended.top, table)

    def included(self, points: Sequence[int]) -> Sequence[int]:
        """The inclusion at ``points``: on a fast step ``points`` itself."""
        return points if self.cover is None else _gather(self.inclusion.table, points)

    def problem_blocks(self) -> Iterator[tuple]:
        """The lifting problems of each generator that has any, as one
        block, in canonical order: ``(name, bottom, count, tops, bots)``,
        the generator's name and bottom carrier, the number of its problems
        and their top and bottom tables as columns (``columns``)."""
        for meta in self._gens.values():
            ranks, tops, bots = meta.columns(self.target)
            if ranks:
                yield meta.name, meta.u.bot, len(ranks), tops, bots

    def copaired(self) -> FiniteMap:
        """The cells copaired into one map ∐ₚ Bₚ -> extension carrier,
        problems in canonical order, built once.  On fast steps it is built
        one block per generator: the cell of the problem of rank r has its
        free positions i at ``base + r*k + i`` and its forced ones at its
        top."""
        if self.copair is not None:
            return self.copair
        x, table = self.target.top.size, []
        for meta in self._gens.values():
            n, k = meta.block, meta.fcount
            if n and meta.layout:
                tops = meta.top_columns(x)
                table += _interleave(
                    [range(meta.base + i, meta.base + i + n * k, k) if free else tops[i]
                     for free, i in meta.layout], n)
        self.copair = FiniteMap(FinSet(len(table)), self.extended.top, tuple(table))
        return self.copair

    def problem_count(self) -> int:
        """The number of lifting problems, those of surjective generators
        included."""
        return sum(len(meta.ranks) for meta in self._gens.values())


def fast_eligible(shape) -> bool:
    """The fast path applies when the shape has no connecting squares and
    every generator realisation is injective."""
    if shape.lifting_squares():
        return False
    for _, u in shape.lifting_generators():
        if len(set(u.map.table)) != len(u.map.table):
            return False
    return True


def fast_step(shape, target: ArrowObject, budget: Optional[SizeBudget] = None) -> StepStructure:
    if not fast_eligible(shape):
        raise DiagramError("shape is not eligible for the fast step path")
    x, y = target.top.size, target.bot.size
    metas = _layouts(shape, x, y, True)
    # the budget bounds the problems that adjoin cells, counted before any
    # table is built; a surjective generator's problems adjoin none, and
    # ``extract`` counts them before it lists the lift table
    check_listable(sum(m.block for m in metas.values() if m.fcount), budget,
                   f"extension of a carrier of size {x} adjoins cells for")
    ttable = list(target.map.table)
    for meta in metas.values():
        if meta.fcount:
            block = [v for vals in itertools.product(range(y), repeat=meta.fcount) for v in vals]
            ttable.extend(block * meta.top_count)
    extended = ArrowObject(FiniteMap(FinSet(len(ttable)), target.bot, tuple(ttable)))
    return StepStructure(shape, target, metas, extended,
                         FiniteMap(target.top, extended.top, tuple(range(x))))


def _copies(table: Sequence[int], size: int, rows: Sequence[int], base: int) -> list:
    """A copy of a map into ``size`` points for each of ``rows``: the copy
    for row r lands in block r of ``size`` points, counted from ``base``."""
    return [base + r * size + v for r in rows for v in table]


def step(shape, target: ArrowObject, budget: Optional[SizeBudget] = None) -> StepStructure:
    """The general one-step extension, its problems read off the layouts.

    The colimit of the problems over the comma category is one coequaliser
    in the arrow category, into ``U = ∐ₚ uₚ`` from ``V``, which holds one
    copy of ``sq.src.bot`` per connecting square ``sq: u' → u`` and
    problem ``p`` of ``u``, under an empty top.  Each generator's problems
    fill one block of each of ``U``'s carriers, in problem order, so every
    edge column is block arithmetic: one edge copies the identity of the
    bottom of ``u'`` into the problem ``p ∘ sq`` (numbered by its rank),
    the other ``sq.bot`` into ``p``.  Every point of ``V`` is merged with a
    point of ``U``, so the classes are numbered by their least point of
    ``U``, in problem order.  The extension is the pushout of the colimit
    along its counit into ``target``.

    ``V`` needs no top: merging a top point ``a'`` of ``p ∘ sq`` with
    ``sq.top(a')`` of ``p`` would add nothing to the pushout.  Both land on
    one point of ``target.top``, as ``p ∘ sq`` has top ``p.top ∘ sq.top``;
    and their bottoms ``u'(a')`` and ``u(sq.top(a')) = sq.bot(u'(a'))`` are
    merged by ``V``'s bottom.  So the colimit's top is ``U``'s, and the
    counit's descent check is the bottom one."""
    x, y = target.top.size, target.bot.size
    gens = _layouts(shape, x, y, False)
    check_listable(sum(meta.block for meta in gens.values()), budget,
                   "general step lists", "problems at most")
    cols, starts = {}, {}  # generator -> its key columns, where its block of U's bottom starts
    utable, to_top, to_bot = [], [], []
    for name, meta in gens.items():
        meta.ranks, tops, bots = meta.columns(target)
        count = len(meta.ranks)
        cols[name], starts[name] = (tops, bots), len(to_bot)
        utable += _copies(meta.u.map.table, meta.u.bot.size, range(count), len(to_bot))
        to_top += _interleave(tops, count)
        to_bot += _interleave(bots, count)
    big_u = ArrowObject(FiniteMap(FinSet(len(to_top)), FinSet(len(to_bot)), tuple(utable)))
    moved_bot, along_bot = [], []
    for _, src_gen, dst_gen, sq in shape.lifting_squares():
        st, sb, (tops, bots) = sq.top.table, sq.bot.table, cols[dst_gen]
        src, rows = gens[src_gen], range(len(gens[dst_gen].ranks))
        # the number of p ∘ sq among the problems of src_gen, for each problem p
        digits = [(x, tops[v]) for v in st] + [(y, bots[sb[b]]) for b in src.free]
        ranks = _rank_column(digits, 1, 0) if digits else [0] * len(rows)
        numbers = _gather(src.by_rank(range(len(src.ranks))), ranks)
        moved_bot += _copies(range(len(sb)), len(sb), numbers, starts[src_gen])
        along_bot += _copies(sb, sq.dst.bot.size, rows, starts[dst_gen])
    big_v = ArrowObject(FiniteMap(FinSet(0), FinSet(len(along_bot)), ()))

    def edge(bot: list) -> CommSquare:
        return CommSquare(big_v, big_u, FiniteMap(big_v.top, big_u.top, ()),
                          FiniteMap(big_v.bot, big_u.bot, tuple(bot)))

    moved, along = edge(moved_bot), edge(along_bot)
    colim = ArrowColimit([big_u, big_v], [(1, 0, moved), (1, 0, along)])
    to_f = CommSquare(big_u, target, FiniteMap(big_u.top, target.top, tuple(to_top)),
                      FiniteMap(big_u.bot, target.bot, tuple(to_bot)))
    counit = colim.induced([to_f, square_compose(to_f, moved)], target)
    po = pushout(counit.top, colim.apex.map)
    bottoms = colim.bot.legs[0]
    copair = compose(po.right, bottoms)
    # each cell's free entries, read off the copaired cells in problem order
    cover = list(po.left.table)
    for name, meta in gens.items():
        nb = meta.u.bot.size
        entries = _gather(copair.table, _copies(meta.free, nb, range(len(meta.ranks)), starts[name]))
        cover += entries
        meta.points = meta.by_rank(entries, meta.fcount)
    return StepStructure(shape, target, gens, ArrowObject(po.induced(target.map, counit.bot)),
                         po.left, bottoms, copair, cover)


# ---------------------------------------------------------------------------
# the universal property
# ---------------------------------------------------------------------------


@dataclass
class OneStepLifting:
    """A square ``base: f -> g`` together with a filler for every lifting
    problem of ``f``, the data classified by squares out of the extension:
    ``fillers: ∐ₚ Bₚ -> g.top``, problems in ``problem_list`` order."""

    base: CommSquare
    fillers: FiniteMap


def restrict_square(struct: StepStructure, t: CommSquare) -> OneStepLifting:
    """Restrict a square ``t: Tf -> g`` to the lifting it classifies: ``t``
    after the unit, and ``t.top`` after the copairing ∐ₚ Bₚ -> Tf of the cells."""
    if t.src != struct.extended:
        raise DiagramError("square does not start at this extension")
    top, fillers = _restricted(struct, t.top.table)
    base = CommSquare(struct.target, t.dst, FiniteMap(struct.target.top, t.dst.top, top), t.bot)
    return OneStepLifting(base, FiniteMap(struct.copaired().dom, t.dst.top, fillers))


def _restricted(struct: StepStructure, top: tuple) -> tuple[tuple, tuple]:
    """The kernel of ``restrict_square``: the top table of a square after the
    inclusion, and after the copaired cells."""
    return _gather(top, struct.inclusion.table), _gather(top, struct.copaired().table)


def mediate(struct: StepStructure, lifting: OneStepLifting) -> CommSquare:
    """The unique square ``Tf -> g`` classifying ``lifting``, its top built by
    ``_mediated_top``.  The engine builds its squares by classification
    instead; this is the independent construction the tests check it against."""
    if lifting.base.src != struct.target:
        raise ProblemMismatch("lifting does not start at this structure's target")
    g, fillers = lifting.base.dst, lifting.fillers
    if fillers.dom != struct.copaired().dom or fillers.cod != g.top:
        raise ProblemMismatch("fillers do not run from the problem bottoms to the base's target")
    top = _mediated_top(struct, lifting.base.top.table, fillers.table, g.top.size)
    return CommSquare(struct.extended, g, FiniteMap(struct.extended.top, g.top, top),
                      lifting.base.bot)


def _mediated_top(struct: StepStructure, base_top: tuple, fillers: tuple, cod_size: int) -> tuple:
    """The kernel of ``mediate``: the top table, into ``cod_size`` points, of
    the square out of the extension that sends the inclusion to ``base_top``
    and the copaired cells to ``fillers``.  The fillers descend through
    ``bottoms`` (else ``NonNaturalLifting``), the pushout of the inclusion
    and the cells induces the top (else ``UniversalityError``), and every
    point must land in range, as ``FiniteMap`` checks (else ``DiagramError``)."""
    bottoms = struct.bottoms
    if bottoms is not None and bottoms.cod.size != bottoms.dom.size:
        try:
            _mediate(bottoms.cod.size, [(bottoms.table, fillers)], _NOT_COEQUALISED)
        except UniversalityError as exc:
            raise NonNaturalLifting(f"fillers are not natural across connecting squares: {exc}") from None
    legs = [(struct.inclusion.table, base_top), (struct.copaired().table, fillers)]
    top = _mediate(struct.size, legs, _NOT_COMMUTING)
    if top and not (0 <= min(top) and max(top) < cod_size):
        FiniteMap(FinSet(len(top)), FinSet(cod_size), top)  # raises, naming the first bad entry
    return top


def _mediate_cells(
    struct: StepStructure, base: CommSquare, cell_of: Callable[[LiftingProblem], FiniteMap]
) -> CommSquare:
    """The square out of ``struct.extended`` over ``base`` that sends the
    cell of each problem ``p`` to ``cell_of(p)``, through the universal
    property: the tables of the ``cell_of(p)`` copaired in problem order."""
    table = tuple(itertools.chain.from_iterable(cell_of(p).table for p in struct.problem_list))
    return mediate(struct, OneStepLifting(base, FiniteMap(struct.copaired().dom, base.dst.top, table)))


def compose_mediated(dengine: DoubleEngine, f: ArrowObject) -> CommSquare:
    """``dengine.compose_comparison(f)`` built through the pair colimit, the
    independent reference for the classification."""
    s1 = dengine.single.step_tables(f)

    def cell_of(p: LiftingProblem) -> FiniteMap:
        composite = dengine.pairs.pair(p.gen).composite
        return s1.cell((composite, p.square.top.table, p.square.bot.table))

    return _mediate_cells(dengine.paired.step(f), s1.unit, cell_of)


def iterate_mediated(dengine: DoubleEngine, f: ArrowObject) -> CommSquare:
    """The two-stage comparison ``dengine.iterate_then(f, identity_square(Tf))``
    built through the pair colimit, the independent reference for
    ``iterate_then``."""
    s1 = dengine.single.step_tables(f)
    s11 = dengine.single.step_tables(s1.extended)

    def cell_of(p: LiftingProblem) -> FiniteMap:
        pair = dengine.pairs.pair(p.gen)
        inner_bot = compose(p.square.bot, dengine.pres.uarrow(pair.right).map)
        inner = s1.cell((pair.left, p.square.top.table, inner_bot.table))
        return s11.cell((pair.right, inner.table, p.square.bot.table))

    return _mediate_cells(dengine.paired.step(f), square_compose(s11.unit, s1.unit), cell_of)


# ---------------------------------------------------------------------------
# squares out of an extension, by classification
# ---------------------------------------------------------------------------


def _square_out(src: StepStructure, dst: ArrowObject, parts: list, bot: FiniteMap) -> CommSquare:
    """The square ``src.extended -> dst`` with bottom ``bot`` whose top
    sends the inclusion, then the free entries of the cells of every
    generator's problems in rank order, to the entries of ``parts`` in turn:
    on a fast step the carrier in order, on a general step ``src.cover``."""
    top = tuple(itertools.chain.from_iterable(parts))
    if src.cover is not None:
        scattered = [0] * src.size
        for point, v in zip(src.cover, top):
            scattered[point] = v
        top = tuple(scattered)
    return CommSquare(src.extended, dst, FiniteMap(src.extended.top, dst.top, top), bot)


# A square out of an extension is classified one block per generator: where
# it sends a block is the rank of the problem each source problem is sent to,
# computed for the whole block at once from digit tables or digit columns.


def _fold(ranks: list, radix: int, digits: Sequence[int]) -> list:
    """Append one digit to every rank, in product order: each rank is
    followed by every value of the next digit, read off ``digits``."""
    return [r * radix + d for r in ranks for d in digits]


def _column(values: Sequence[int], inner: int, outer: int) -> list:
    """One digit of a product in lexicographic order, as a column: each of
    its ``values`` repeated ``inner`` times (the count of the less
    significant digits), and that run repeated ``outer`` times (the count
    of the more significant ones)."""
    if inner > len(values):
        run = list(itertools.chain.from_iterable(itertools.repeat(v, inner) for v in values))
    else:  # one slice per copy, when there are fewer copies than values
        run = [0] * (len(values) * inner)
        for i in range(inner):
            run[i::inner] = values
    return run * outer


def _rank_column(digits: list, scale: int, offset: int) -> list:
    """``offset + scale * rank`` for each row, where the rank is read in
    mixed radix off the digit columns ``(radix, column)``, most significant
    first (the first radix is not used)."""
    rank = digits[0][1]
    for radix, col in digits[1:-1]:
        rank = [r * radix + d for r, d in zip(rank, col)]
    if len(digits) == 1:
        return [d * scale + offset for d in rank]
    radix, col = digits[-1]
    radix *= scale
    return [r * radix + d * scale + offset for r, d in zip(rank, col)]


def _rows(columns: list, count: int) -> Iterator[tuple]:
    """The ``count`` rows of a block's columns (all empty when it has none)."""
    return zip(*columns) if columns else itertools.repeat((), count)


def _interleave(columns: list, n: int) -> list:
    """Row after row of ``columns``, each ``n`` long."""
    if len(columns) == 1:
        return columns[0]
    out = [0] * (n * len(columns))
    for i, col in enumerate(columns):
        out[i :: len(columns)] = col
    return out


def classify_extend(
    struct_src: StepStructure, struct_dst: StepStructure, alpha: CommSquare
) -> CommSquare:
    """The functorial action of the one-step extension on a square ``alpha:
    f -> g``: the inclusion follows ``alpha`` into the inclusion of ``g``,
    and each adjoined cell lands on the cell of the problem ``alpha``
    transports it to.  The problem ``(s0, s1)`` goes to ``(at∘s0,
    ab∘s1)``, whose rank folds the per-digit tables ``at`` and ``ab`` into
    the radices of ``g``."""
    if alpha.src != struct_src.target or alpha.dst != struct_dst.target:
        raise ProblemMismatch("square endpoints do not match the step structures")
    at, ab = alpha.top.table, alpha.bot.table
    xd, yd = struct_dst.target.top.size, struct_dst.target.bot.size
    parts = [struct_dst.included(at)]
    for meta in struct_src._gens.values():
        k = meta.fcount
        if not k:
            continue
        dst = struct_dst._gens[meta.name]
        ranks = [0]
        for _ in range(meta.u.top.size):
            ranks = _fold(ranks, xd, at)
        for _ in range(k - 1):
            ranks = _fold(ranks, yd, ab)
        # the last digit also scales by k and adds the base of the block
        ranks = meta.select(_fold(ranks, yd * k, [dst.base + d * k for d in ab]))
        parts.append(dst.points_at(ranks if k == 1 else [p + i for p in ranks for i in range(k)]))
    return _square_out(struct_src, struct_dst.extended, parts, alpha.bot)


# ---------------------------------------------------------------------------
# engines with memoisation
# ---------------------------------------------------------------------------


def _arrow_key(f: ArrowObject):
    return (f.top.size, f.bot.size, f.map.table)


class StepEngine:
    """Memoised one-step extensions over a fixed shape.

    ``step_tables`` returns the structure everything runs on: cells,
    units, classification, and the mediator of ``oracle_kappa``.  It is
    the fast one when ``fast_eligible`` accepts the shape, the general one
    otherwise, whatever was built before.  ``step`` returns the general
    structure (budgeted), which on fast shapes only the tests build, as the
    reference the fast one is checked against.  Classification takes
    either kind at either end.
    """

    def __init__(self, shape, budget: Optional[SizeBudget] = None):
        self.shape = shape
        self.budget = budget
        self._general: dict = {}
        self._fast: dict = {}
        self._fast_ok = fast_eligible(shape)

    def step(self, f: ArrowObject) -> StepStructure:
        key = _arrow_key(f)
        if key not in self._general:
            self._general[key] = step(self.shape, f, self.budget)
        return self._general[key]

    def step_fast(self, f: ArrowObject) -> StepStructure:
        key = _arrow_key(f)
        if key not in self._fast:
            self._fast[key] = fast_step(self.shape, f, self.budget)
        return self._fast[key]

    def step_tables(self, f: ArrowObject) -> StepStructure:
        return self.step_fast(f) if self._fast_ok else self.step(f)

    def extend(self, alpha: CommSquare) -> CommSquare:
        """The one-step extension applied to a square, by classification
        (``classify_extend``) on the steps of its two ends."""
        if alpha.is_identity():
            return identity_square(self.step_tables(alpha.src).extended)
        return classify_extend(self.step_tables(alpha.src), self.step_tables(alpha.dst), alpha)


def mode_fault(shape, mode: str) -> Optional[str]:
    """Why a run of ``shape`` in ``mode`` cannot start, or None: the mode is
    not ``"plain"`` or ``"special"``, or is special on a shape not ``"double"``."""
    if mode not in ("plain", "special"):
        return f"unknown chain mode {mode!r}"
    if mode == "special" and getattr(shape, "kind", None) != "double":
        return "special mode needs a presentation with vertical composition"
    return None


def engines(shape, mode: str,
            budget: Optional[SizeBudget] = None) -> tuple[StepEngine, Optional[DoubleEngine]]:
    """The step engine a run of ``shape`` in ``mode`` runs on, and its double
    engine in special mode (else None); a ``DiagramError`` with the text of
    ``mode_fault`` when the run cannot start.  The one builder of engines."""
    fault = mode_fault(shape, mode)
    if fault:
        raise DiagramError(fault)
    if mode == "plain":
        return StepEngine(shape, budget), None
    dengine = DoubleEngine(shape, budget)
    return dengine.single, dengine


class DoubleEngine:
    """Step engines over a double presentation: ``single``, indexed by the
    presentation's generators and squares, and ``paired``, the free pair
    extension, indexed by its composable pairs with no connecting squares,
    with the comparison squares between the extensions they generate.
    Each comparison is built one way, by classification one block per
    pair, on fast and general steps alike; ``compose_mediated`` and
    ``iterate_mediated`` are the cross-checks."""

    def __init__(self, pres, budget: Optional[SizeBudget] = None):
        fault = mode_fault(pres, "special")
        if fault:
            raise DiagramError(fault)
        pres.ensure_valid()
        self.pres = pres
        self.pairs = pres.composable_pairs()
        self.single = StepEngine(pres, budget)
        # The pair extension is only the domain of squares that are
        # coequalised (the composition fork) or compared (the special law).
        # Stacked squares would identify cells of this free extension P̃, by
        # a surjection π: P̃ -> P onto a quotient; coeq(u, v) = coeq(u∘π, v∘π)
        # and u = v exactly when u∘π = v∘π, so they change no table.
        self.paired = StepEngine(self.pairs, budget)

    def compose_comparison(self, f: ArrowObject) -> CommSquare:
        """The square from the pair-indexed extension to the plain one that
        lifts each pair problem through the pair's composite arrow, by
        classification.  A pair problem is the problem of its composite
        with the same tables, so of the same rank: its cell lands on the
        cell at the same offsets of the composite's block."""
        s2 = self.paired.step_tables(f)
        s1 = self.single.step_tables(f)
        parts = [s1.inclusion.table]
        for meta in s2._gens.values():
            if meta.fcount:
                composite, k = s1._gens[self.pairs.pair(meta.name).composite], meta.fcount
                offsets = range(composite.base, composite.base + meta.block * k)
                parts.append(composite.points_at(meta.select(offsets, k)))
        return _square_out(s2, s1.extended, parts, identity(f.bot))

    def iterate_then(self, stage: ArrowObject, collapse: CommSquare) -> CommSquare:
        """The composite ``T(collapse) ∘ λ`` of ``collapse`` (a square out
        of the one-step extension of ``stage``) after the two-stage
        comparison ``λ``, which lifts each pair problem first through the
        left arrow against ``stage``, then through the right arrow against
        its extension.  Built fused, by classification: each pair cell
        lands on the cell of its right arrow against the extension of
        ``stage``, moved along ``collapse``, one block per pair
        (``_iterate_blocks``).  The twice-iterated extension, whose carrier
        grows quadratically and dwarfs everything else in chain runs, is
        never built; ``λ`` itself is the case where ``collapse`` is the
        identity."""
        s2 = self.paired.step_tables(stage)
        s1 = self.single.step_tables(stage)
        if collapse.src != s1.extended:
            raise ProblemMismatch("collapse square does not start at the extension of the stage")
        snext = self.single.step_tables(collapse.dst)
        incl = _gather(collapse.top.table, s1.inclusion.table)
        parts = [snext.included(incl)]
        parts += self._iterate_blocks(s2, s1, snext, collapse, incl)
        return _square_out(s2, snext.extended, parts, collapse.bot)

    def _iterate_blocks(self, s2: StepStructure, s1: StepStructure, snext: StepStructure,
                        collapse: CommSquare, incl: Sequence[int]) -> Iterator[list]:
        """The cell part of ``iterate_then``'s top table, one block per
        pair, in digit columns over the pair's problems.

        A pair problem ``(s0, s1)`` of ``left; right`` has the digits of
        ``s0`` (radix |X|) and the free digits of ``s1`` (radix |Y|).  The
        left problem has top ``s0`` and its free digits the entries of
        ``s1`` where ``right`` sends them (``bottom``); that gives the inner
        cell's rank.  Moving the inner cell along ``collapse`` (``incl`` on
        the inclusion) gives the right problem's top digits, and
        ``collapse`` on the right arrow's free positions its free digits;
        that gives the outer cell's rank.  The image of the pair cell is the
        outer cell at the composite's free positions, row after row."""
        ct, cb, ft = collapse.top.table, collapse.bot.table, s1.target.map.table
        x, y = s1.target.top.size, s1.target.bot.size
        xn, yn = snext.target.top.size, snext.target.bot.size
        for meta in s2._gens.values():
            k = meta.fcount
            if not k or not meta.ranks:
                continue
            pair = self.pairs.pair(meta.name)
            left, right = s1._gens[pair.left], snext._gens[pair.right]
            a = meta.u.top.size
            radices = [x] * a + [y] * k
            outer = list(itertools.accumulate(radices, operator.mul, initial=1))
            inner = list(itertools.accumulate(reversed(radices), operator.mul, initial=1))[::-1]

            def column(j: int, values: Sequence[int]) -> Sequence[int]:
                return meta.select(_column(values, inner[j + 1], outer[j]))

            def bottom(c: int) -> Sequence[int]:
                # the bottom entry at c: a free digit, or f after its first top preimage
                is_free, i = meta.layout[c]
                return column(a + i, range(y)) if is_free else column(i, ft)

            moved = []  # per bottom point of left: the inner cell there, after collapse
            if left.fcount:
                rt = right.u.map.table
                digits = [(None, meta.select(_column(range(x**a), y**k, 1)))]
                digits += [(y, bottom(rt[b])) for b in left.free]
                lpos = _rank_column(digits, left.fcount, left.base)
            for is_free, i in left.layout:
                moved.append(_gather(ct, left.points_at([p + i for p in lpos])) if is_free
                             else column(i, incl))
            if right.fcount:
                digits = [(xn, col) for col in moved]
                digits += [(yn, column(a + meta.layout[c][1], cb)) for c in right.free]
                rpos = _rank_column(digits, right.fcount, right.base)
            columns = [right.points_at([p + i for p in rpos]) if is_free else snext.included(moved[i])
                       for is_free, i in map(right.layout.__getitem__, meta.free)]
            yield _interleave(columns, len(meta.ranks))
