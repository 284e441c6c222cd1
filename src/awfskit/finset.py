"""Exact colimit kernel for maps between canonical finite sets.

Carriers are the ranges {0, .., n-1}, so every construction lands in a
canonical numbering: quotient classes are numbered by order of least member
of the underlying coproduct.  Equal inputs therefore produce identical
tables, and "same map" is literal table equality.  All values here are
immutable and every operation is a pure function of its inputs.

Quotients use an ordered union-find over the merged points and write labels
as ``range`` slices, so their Python work grows with the merges.  Every
carrier size is checked to be a non-negative integer, every map is checked
when built and every mediator checks that it factors its input.  The
per-element passes of the map check, composition and the square check run in
C (``map``, ``itemgetter``, ``min``/``max``, ``sum``); a Python loop walks a
table only to name its first bad entry.  A quotient's mediator copies the
least members with slices and compares only the points it merged; the
pushout and cocone mediators keep one Python walk per leg, which measured
faster than rebuilding their tables with ``dict``/``map`` for legs used once
(the step's mediator reuses its legs, so it gathers: ``step._MediationPlan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import itemgetter, ne
from typing import Callable, Iterable, Optional, Sequence

from .errors import CompositionError, DiagramError, UniversalityError


@dataclass(frozen=True)
class FinSet:
    """The canonical finite set {0, .., size - 1}."""

    size: int

    def __post_init__(self) -> None:
        if isinstance(self.size, bool) or not isinstance(self.size, int):
            raise DiagramError(f"carrier size must be an integer, got {self.size!r}")
        if self.size < 0:
            raise DiagramError(f"carrier size must be non-negative, got {self.size}")

    def __iter__(self):
        return iter(range(self.size))

    def __repr__(self) -> str:
        return f"FinSet({self.size})"


@dataclass(frozen=True)
class FiniteMap:
    """A total function dom -> cod stored as a lookup table."""

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != self.dom.size:
            raise DiagramError(
                f"table length {len(table)} does not match domain size {self.dom.size}"
            )
        cod = self.cod.size
        try:
            # a sum of ints (bools included) is an int; one float makes it not
            inside = not table or (0 <= min(table) and max(table) < cod and type(sum(table)) is int)
        except TypeError:
            inside = False
        if not inside:
            for x, v in enumerate(table):
                if not isinstance(v, int):
                    raise DiagramError(f"table entry {x} -> {v!r} is not an integer")
                if not 0 <= v < cod:
                    raise DiagramError(f"table entry {x} -> {v} lies outside codomain of size {cod}")

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __repr__(self) -> str:
        return f"FiniteMap({self.dom.size}->{self.cod.size}, {list(self.table)})"


def _gather(table: Sequence, positions: Sequence[int]) -> tuple:
    """``table`` at each of ``positions``, as a tuple.  ``itemgetter`` is three
    to four times as fast as ``map`` over a tuple's ``__getitem__``; it takes
    a tuple of positions as its argument tuple, and copies only positions
    held in any other sequence."""
    if len(positions) > 1:
        return itemgetter(*positions)(table)
    return tuple(map(table.__getitem__, positions))


def _gatherer(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``_gather`` at fixed ``positions``, built once for many tables."""
    if len(positions) == 1:
        p, = positions
        return lambda table: (table[p],)
    return itemgetter(*positions) if positions else lambda table: ()


def identity(s: FinSet) -> FiniteMap:
    return FiniteMap(s, s, tuple(range(s.size)))


def compose(g: FiniteMap, f: FiniteMap) -> FiniteMap:
    """g after f."""
    if f.cod != g.dom:
        raise CompositionError(
            f"cannot compose: first map ends at {f.cod.size}, second starts at {g.dom.size}"
        )
    return FiniteMap(f.dom, g.cod, _gather(g.table, f.table))


def is_iso(f: FiniteMap) -> Optional[FiniteMap]:
    """Return the inverse map if f is a bijection, else None."""
    if f.dom.size != f.cod.size:
        return None
    inv = [-1] * f.cod.size
    for x, v in enumerate(f.table):
        if inv[v] != -1:
            return None
        inv[v] = x
    return FiniteMap(f.cod, f.dom, tuple(inv))


def _quotient_table(n: int, merges: Iterable[tuple[int, int]]) -> tuple[int, tuple, tuple]:
    """Quotient {0, .., n-1} by the relation generated by the merges, each
    merged point in ``range(n)`` as the callers guarantee (a point past n - 1
    lengthens the table, which ``FiniteMap`` refuses): the number of classes,
    the class of each point, numbered by least member, and the hung points,
    those not the least member of their class, in ascending order.

    The union-find keeps parents only for hung points and hangs the larger
    root under the smaller, so ``parent[x] < x``.  In ascending order, the
    unhung points before a hung x take the labels up to ``x - k`` (k the hung
    points below x) as one slice, and x copies its parent's label.
    """
    parent = {}
    hung = []
    for a, b in merges:
        while a in parent:  # path halving: hang a at its grandparent, step there
            parent[a] = a = parent.get(parent[a], parent[a])
        while b in parent:
            parent[b] = b = parent.get(parent[b], parent[b])
        if a != b:
            if a < b:
                a, b = b, a
            parent[a] = b
            hung.append(a)
    hung.sort()
    table, lo = [], 0  # lo: the unhung points written so far
    for k, x in enumerate(hung):
        if x != lo + k:
            table += range(lo, x - k)
            lo = x - k
        table.append(table[parent[x]])
    table += range(lo, n - len(hung))
    return n - len(hung), tuple(table), tuple(hung)


# the faults of the two mediators, also raised by the table kernels of ``step``
_NOT_COEQUALISED = "map does not coequalise: elements of class {cls} disagree ({first} vs {other})"
_NOT_COMMUTING = "cospan does not commute with the pushout identifications"


def _mediate(size: int, pairs: Iterable[tuple[Sequence[int], Sequence[int]]], message: str) -> tuple:
    """The table u on {0, .., size-1} with u[leg[x]] == h[x] for every ``(leg,
    h)`` in ``pairs``; unreached classes get -1, which ``FiniteMap`` rejects.
    A class given two values raises ``message`` with ``{cls}``, ``{first}``
    and ``{other}`` filled in."""
    out = [-1] * size
    for leg, h in pairs:
        for cls, hx in zip(leg, h):
            seen = out[cls]
            if seen != hx:
                if seen != -1:
                    raise UniversalityError(message.format(cls=cls, first=seen, other=hx))
                out[cls] = hx
    return tuple(out)


@dataclass(frozen=True)
class QuotientResult:
    """A coequaliser-style quotient q: Y -> apex with its mediating factory;
    ``hung`` lists in ascending order the points that are not the least
    member of their class.  Descent needs ``q`` canonical, with classes
    numbered by least member, so that the rest are the classes in order."""

    apex: FinSet
    q: FiniteMap
    hung: tuple[int, ...]

    def induced(self, h: FiniteMap) -> FiniteMap:
        """The unique map u with u . q = h, read off h at the least members;
        h must be constant on classes, else the first disagreeing hung point is named."""
        if h.dom != self.q.dom:
            raise DiagramError("mediating input must start at the quotiented carrier")
        ht, hung, out, start = h.table, self.hung, [], 0
        for x in hung:
            if x != start:
                out += ht[start:x]
            start = x + 1
        out += ht[start:]
        classes, values = _gather(self.q.table, hung), _gather(ht, hung)
        if _gather(out, classes) != values:
            for cls, hx in zip(classes, values):
                if out[cls] != hx:
                    raise UniversalityError(
                        _NOT_COEQUALISED.format(cls=cls, first=out[cls], other=hx))
        return FiniteMap(self.apex, h.cod, out)


def joint_coequalizer(
    pairs: Sequence[tuple[FiniteMap, FiniteMap]],
    codomain: FinSet | None = None,
) -> QuotientResult:
    """Quotient a common codomain by f(x) ~ g(x) for every listed pair.

    Each pair must be parallel; all pairs must share one codomain.  An empty
    list needs the codomain spelled out and yields the identity quotient.
    """
    if not pairs:
        if codomain is None:
            raise DiagramError("empty joint coequaliser needs an explicit codomain")
        return QuotientResult(codomain, identity(codomain), ())
    cod = pairs[0][0].cod
    if codomain is not None and codomain != cod:
        raise DiagramError("declared codomain does not match the pairs")
    merges = []
    for f, g in pairs:
        if f.dom != g.dom or f.cod != g.cod:
            raise DiagramError("coequaliser pair is not parallel")
        if f.cod != cod:
            raise DiagramError("coequaliser pairs do not share a codomain")
        merges.extend(compress(zip(f.table, g.table), map(ne, f.table, g.table)))  # no self-merges
    size, table, hung = _quotient_table(cod.size, merges)
    apex = FinSet(size)
    return QuotientResult(apex, FiniteMap(cod, apex, table), hung)


@dataclass(frozen=True)
class PushoutResult:
    """Pushout of f: A -> X along g: A -> B.

    left: X -> apex and right: B -> apex are the cocone legs; induced builds
    the unique mediating map out of a commuting cospan.
    """

    apex: FinSet
    left: FiniteMap
    right: FiniteMap

    def induced(self, u: FiniteMap, v: FiniteMap) -> FiniteMap:
        """Unique w with w . left = u and w . right = v."""
        if u.cod != v.cod:
            raise DiagramError("mediating cospan must share a codomain")
        if u.dom != self.left.dom or v.dom != self.right.dom:
            raise DiagramError("mediating cospan does not match the pushout feet")
        pairs = [(self.left.table, u.table), (self.right.table, v.table)]
        return FiniteMap(self.apex, u.cod, _mediate(self.apex.size, pairs, _NOT_COMMUTING))


def pushout(f: FiniteMap, g: FiniteMap) -> PushoutResult:
    """Pushout of the span X <-f- A -g-> B, computed as a quotient of X + B."""
    if f.dom != g.dom:
        raise DiagramError("pushout span must share its domain")
    nx, nb = f.cod.size, g.cod.size
    merges = ((f.table[a], nx + g.table[a]) for a in range(f.dom.size))
    size, table, _ = _quotient_table(nx + nb, merges)
    apex = FinSet(size)
    left = FiniteMap(f.cod, apex, table[:nx])
    right = FiniteMap(g.cod, apex, table[nx:])
    return PushoutResult(apex, left, right)


@dataclass(frozen=True)
class CoconeWitness:
    """Colimit apex with its legs and the mediating-map factory; ``q`` is the
    quotient of the coproduct of the vertices onto the apex, sliced by the legs."""

    apex: FinSet
    legs: tuple[FiniteMap, ...]
    q: FiniteMap

    def induced(self, maps: Sequence[FiniteMap]) -> FiniteMap:
        """Unique u with u . leg_i = maps[i] for a commuting cocone."""
        if len(maps) != len(self.legs):
            raise DiagramError("cocone must provide one map per vertex")
        # a disagreement among the maps before a misplaced one comes first
        pairs, fault = [], None
        for leg, h in zip(self.legs, maps):
            if h.dom != leg.dom:
                fault = DiagramError("cocone map does not start at its vertex")
                break
            if h.cod != maps[0].cod:
                fault = DiagramError("cocone maps must share a codomain")
                break
            pairs.append((leg.table, h.table))
        out = _mediate(self.apex.size, pairs, "cocone does not commute with the diagram edges")
        if fault is not None:
            raise fault
        if not maps:
            raise DiagramError("cannot mediate out of an empty diagram without a target")
        return FiniteMap(self.apex, maps[0].cod, out)


def finite_colimit(vertices: Sequence[FinSet],
                   edges: Sequence[tuple[int, int, FiniteMap]]) -> CoconeWitness:
    """Colimit of a finite diagram of sets, given as its vertices and its
    edges ``(source, target, map)``: the quotient of the coproduct of the
    vertices by the edges.

    The colimit depends only on the identifications the edges generate, so
    identity and composite edges may be included or omitted freely.  Every
    apex class contains at least one coproduct element, so the legs are
    jointly surjective.
    """
    sizes = [v.size for v in vertices]
    offsets = list(accumulate(sizes, initial=0))
    total, merges = offsets[-1], []
    for src, dst, e in edges:
        if not (0 <= src < len(sizes) and 0 <= dst < len(sizes)):
            raise DiagramError("diagram edge endpoint out of range")
        if e.dom != vertices[src] or e.cod != vertices[dst]:
            raise DiagramError("diagram edge map does not match its endpoints")
        osrc, odst = offsets[src], offsets[dst]
        merges.extend((osrc + x, odst + v) for x, v in enumerate(e.table))
    size, table, _ = _quotient_table(total, merges)
    apex = FinSet(size)
    legs = tuple(
        FiniteMap(vert, apex, table[offsets[i] : offsets[i] + vert.size])
        for i, vert in enumerate(vertices)
    )
    return CoconeWitness(apex, legs, FiniteMap(FinSet(total), apex, table))
