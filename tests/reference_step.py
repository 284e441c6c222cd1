"""The general one-step extension built literally, as a reference.

``awfskit.step.step`` computes the colimit of the lifting problems as one
coequaliser of two coproduct arrows.  This module keeps the construction
it replaced: the comma category of problems with one edge per connecting
square and target problem (each built by ``square_compose``), the
pointwise colimit over one vertex per problem (and the initial arrow) with
its counit, and the pushout along the counit.  The differential test in
``test_step.py`` compares the two on fixtures and random shapes.

The comma category lists its problems row by row (``_problem_tables``),
not through the digit columns ``awfskit.step`` reads them off, so the
differential of ``problem_blocks`` and ``enumerate_problems`` against
``reference_problems`` compares two independent enumerators.

It also keeps the pair shape of a double presentation as the engine built
it before it took the free pair extension: the composable pairs connected
by one square per vertically stacked pair of squares (``pair_squares``).
``reference_double_engine`` runs special mode on it, the reference of the
differential in ``test_pair_squares.py``.

``extend_square`` is the functorial action on squares built through the
universal property of the source extension (``_mediate_cells``), the
mediated reference ``classify_extend`` is tested against in ``test_step.py``.

``reference_lift_table`` builds a certificate's lift table one problem at
a time, ``beta0`` after each enumerated problem's cell, the reference for
the columns ``extract`` reads off the step in ``test_chain.py`` and
``test_lift_table.py``.

``reference_algebra_violations`` walks the algebra laws of a structure
map element by element, building the special law's two squares itself:
the reference that ``awfskit.chain.algebra_violations``, which compares
whole tables, must match pair for pair, and the law check of the
references of ``check_algebra`` and ``oracle_initiality``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from awfskit.arrows import (ArrowColimit, ArrowObject, CommSquare, arrow, identity_square,
                            square_compose)
from awfskit.errors import ProblemMismatch, SizeBudgetExceeded
from awfskit.finset import FiniteMap, PushoutResult, compose, identity, pushout
from awfskit.presentation import ComposablePairs, PairGen, id_name, is_id_name, pair_name
from awfskit.step import (DoubleEngine, LiftingProblem, SizeBudget, StepEngine, StepStructure,
                          _mediate_cells, enumerate_problems)


def _image_reps(umap: FiniteMap) -> tuple[dict, list]:
    """First preimage of each value in the image, and the free positions."""
    reps: dict[int, int] = {}
    for a, b in enumerate(umap.table):
        reps.setdefault(b, a)
    free = [b for b in range(umap.cod.size) if b not in reps]
    return reps, free


def count_problems_bound(u: ArrowObject, f: ArrowObject) -> int:
    """Cheap upper bound on the number of lifting problems of ``u`` in ``f``."""
    _, free = _image_reps(u.map)
    return (f.top.size ** u.top.size) * (f.bot.size ** len(free))


def _problem_tables(u: ArrowObject, f: ArrowObject, free: Sequence[int]) -> Iterator[tuple]:
    """Top and bottom tables of every lifting problem of ``u`` in ``f``.

    Canonical order: top components lexicographically, then the free
    bottom coordinates ``free`` lexicographically (the others are forced
    by the top component, which is skipped when it forces a coordinate
    two different ways).
    """
    ut, ft = u.map.table, f.map.table
    forced_twice = len(set(ut)) != len(ut)
    nbot, values, nfree = u.bot.size, range(f.bot.size), len(free)
    for s0 in itertools.product(range(f.top.size), repeat=u.top.size):
        s1 = [0] * nbot
        for a, b in enumerate(ut):
            s1[b] = ft[s0[a]]
        if forced_twice and any(s1[b] != ft[s0[a]] for a, b in enumerate(ut)):
            continue
        for vals in itertools.product(values, repeat=nfree):
            for b, v in zip(free, vals):
                s1[b] = v
            yield s0, tuple(s1)


def reference_problems(gen: str, u: ArrowObject, f: ArrowObject) -> Iterator[LiftingProblem]:
    """All lifting problems of ``u`` in ``f``, in canonical order, listed
    row by row by ``_problem_tables``."""
    _, free = _image_reps(u.map)
    for s0, s1 in _problem_tables(u, f, free):
        yield LiftingProblem(
            gen,
            CommSquare(u, f, FiniteMap(u.top, f.top, s0), FiniteMap(u.bot, f.bot, s1)),
        )


@dataclass
class CommaCategory:
    """All lifting problems of a shape in ``f``, with the connecting edges
    induced by the shape's squares (an edge per square and target problem)."""

    target: ArrowObject
    problems: list[LiftingProblem]
    index: dict
    edges: list[tuple[int, int, str, CommSquare]]

    def diagram(self) -> tuple[list, list]:
        return (
            [p.square.src for p in self.problems],
            [(s, d, sq) for s, d, _, sq in self.edges],
        )


def comma_category(shape, f: ArrowObject, budget: Optional[SizeBudget] = None) -> CommaCategory:
    budget = budget or SizeBudget()
    gens = shape.lifting_generators()
    bound = sum(count_problems_bound(u, f) for _, u in gens)
    if bound > budget.max_problems:
        raise SizeBudgetExceeded(
            f"enumerating lifting problems needs up to {bound} squares, "
            f"budget allows {budget.max_problems}"
        )
    problems: list[LiftingProblem] = []
    for name, u in gens:
        problems.extend(reference_problems(name, u, f))
    index = {p.key: i for i, p in enumerate(problems)}
    edges = []
    for sqname, src_gen, dst_gen, sq in shape.lifting_squares():
        for i, p in enumerate(problems):
            if p.gen != dst_gen:
                continue
            moved = square_compose(p.square, sq)
            edges.append((index[(src_gen, moved.top.table, moved.bot.table)], i, sqname, sq))
    return CommaCategory(f, problems, index, edges)


@dataclass
class DensityStep:
    """Colimit of the comma diagram with its counit back into the target."""

    comma: CommaCategory
    colim: ArrowColimit
    counit: CommSquare

    @property
    def apex(self) -> ArrowObject:
        return self.colim.apex


def density_step(shape, f: ArrowObject, budget: Optional[SizeBudget] = None) -> DensityStep:
    comma = comma_category(shape, f, budget)
    # a last vertex, the initial arrow with its empty square into f, changes
    # no colimit and keeps the diagram non-empty, as ArrowColimit needs
    (vertices, edges), initial = comma.diagram(), arrow(0, 0, [])
    vertices.append(initial)
    colim = ArrowColimit(vertices, edges)
    empty = CommSquare(initial, f, FiniteMap(initial.top, f.top, ()),
                       FiniteMap(initial.bot, f.bot, ()))
    counit = colim.induced([p.square for p in comma.problems] + [empty], f)
    return DensityStep(comma, colim, counit)


@dataclass
class ReferenceStep:
    """The tables of the general one-step extension, built literally."""

    density: DensityStep
    po: PushoutResult
    inclusion: FiniteMap
    extended: ArrowObject
    unit: CommSquare
    bottoms: FiniteMap
    copair: FiniteMap
    cells: dict


def reference_step(shape, target: ArrowObject,
                   budget: Optional[SizeBudget] = None) -> ReferenceStep:
    density = density_step(shape, target, budget)
    po = pushout(density.counit.top, density.colim.apex.map)
    tmap = po.induced(target.map, density.counit.bot)
    extended = ArrowObject(tmap)
    unit = CommSquare(target, extended, po.left, identity(target.bot))
    bot = density.colim.bot
    copair = compose(po.right, bot.q)  # each cell is a slice of it
    ends, ct = itertools.accumulate(leg.dom.size for leg in bot.legs), copair.table
    cells = {p.key: FiniteMap(leg.dom, tmap.dom, ct[end - leg.dom.size : end])
             for p, leg, end in zip(density.comma.problems, bot.legs, ends)}
    return ReferenceStep(density, po, po.left, extended, unit,
                         bot.q, copair, cells)


@dataclass
class PairsWithSquares(ComposablePairs):
    """The composable pairs connected by the pair squares."""

    pair_squares: list = field(default_factory=list)

    def lifting_squares(self) -> list[tuple[str, str, str, CommSquare]]:
        return list(self.pair_squares)


def pairs_with_squares(pres) -> PairsWithSquares:
    """The pair shape of ``pres``, with a square for every vertically
    composable pair of squares but pairs of identity squares: the body of
    ``DoubleCatPresentation.composable_pairs`` before the engine took the
    free pair extension, with ``pres`` for ``self``."""
    pres.ensure_valid()
    pairs = []
    for left in pres.varrows:
        for right in pres.varrows:
            if left.vcod == right.vdom:
                pairs.append(
                    PairGen(
                        pair_name(left.name, right.name),
                        left.name,
                        right.name,
                        pres.vcompose(left.name, right.name),
                    )
                )
    squares = []
    names = [id_name(v.name) for v in pres.varrows] + [s.name for s in pres.squares]
    for a, b in [(a, b) for a in names for b in names
                 if not (is_id_name(a) and is_id_name(b)) and pres._vcomposable(a, b)]:
        asrc, adst, atop, _ = pres.square_boundary(a)
        bsrc, bdst, _, bbot = pres.square_boundary(b)
        src, dst = pair_name(asrc, bsrc), pair_name(adst, bdst)
        cs = CommSquare(
            pres.uarrow(pres.vcompose(asrc, bsrc)),
            pres.uarrow(pres.vcompose(adst, bdst)),
            pres.hmap(atop),
            pres.hmap(bbot),
        )
        squares.append((pair_name(a, b), src, dst, cs))
    return PairsWithSquares(pres, pairs, squares)


def extend_square(
    struct_src: StepStructure, struct_dst: StepStructure, alpha: CommSquare
) -> CommSquare:
    """Functorial action of the one-step extension on a square ``f -> g``,
    built through the universal property of the source extension."""
    if alpha.src != struct_src.target or alpha.dst != struct_dst.target:
        raise ProblemMismatch("square endpoints do not match the step structures")
    if alpha.is_identity():
        return identity_square(struct_src.extended)

    def cell_of(p: LiftingProblem) -> FiniteMap:
        moved = square_compose(alpha, p.square)
        return struct_dst.cell((p.gen, moved.top.table, moved.bot.table))

    return _mediate_cells(struct_src, square_compose(struct_dst.unit, alpha), cell_of)


def reference_double_engine(pres, budget: Optional[SizeBudget] = None) -> DoubleEngine:
    """A ``DoubleEngine`` whose pair step runs on ``pairs_with_squares``."""
    dengine = DoubleEngine(pres, budget)
    dengine.pairs = pairs_with_squares(pres)
    dengine.paired = StepEngine(dengine.pairs, budget)
    return dengine


def reference_lift_table(cert) -> dict:
    """The lift table of ``cert`` (from ``extract``, with its chain) built
    one problem at a time: a checked map per enumerated problem, ``beta0``
    after the problem's cell."""
    st = cert.trace.engine.step_tables(cert.right)
    return {
        p.key: compose(cert.beta0, st.cell(p.key))
        for name, u in st.shape.lifting_generators()
        for p in enumerate_problems(name, u, cert.right)
    }


def reference_algebra_violations(g: ArrowObject, beta0: FiniteMap, engine: StepEngine,
                                 dengine: Optional[DoubleEngine]) -> list:
    """Violated algebra laws for the claimed structure map ``beta0`` on
    ``g``, as (label, detail) pairs, found by walking every element; the
    special law is checked exactly when ``dengine`` is given.  A map into
    another carrier than ``g``'s raises ``CompositionError``."""
    out = []
    st = engine.step_tables(g)
    if beta0.dom.size != st.size:
        return [("boundary", f"algebra map domain {beta0.dom.size} != extension carrier {st.size}")]
    unit = compose(beta0, st.inclusion)
    for v in range(g.top.size):
        if unit.table[v] != v:
            out.append(("unit-law", f"beta(unit({v})) = {unit.table[v]} != {v}"))
    over = compose(g.map, beta0)
    for v in range(st.size):
        if over.table[v] != st.extended.map.table[v]:
            out.append(("boundary", f"algebra map is not over the codomain at {v}: "
                                    f"{over.table[v]} != {st.extended.map.table[v]}"))
    if out:
        return out
    if dengine is not None:
        beta = CommSquare(st.extended, g, beta0, identity(g.bot))
        lhs = square_compose(beta, dengine.compose_comparison(g))
        rhs = square_compose(beta, dengine.iterate_then(g, beta))
        for v in range(lhs.top.dom.size):
            if lhs.top.table[v] != rhs.top.table[v]:
                out.append(("special-algebra-square", f"pair element {v}: composite route "
                            f"{lhs.top.table[v]} != two-stage route {rhs.top.table[v]}"))
    return out
