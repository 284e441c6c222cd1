"""The category whose objects are maps and whose morphisms are squares.

A square from f to g is a pair (top, bot) with g.map . top = bot . f.map;
construction always re-verifies commutation and fails eagerly, so a square
that exists is a square that commutes.  Colimits are computed separately on
top and bottom carriers, with the connecting map of the apex induced through
the top quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CompositionError, DiagramError
from .finset import (
    FinSet,
    FiniteMap,
    QuotientResult,
    _gather,
    compose,
    finite_colimit,
    identity,
    joint_coequalizer,
)


@dataclass(frozen=True)
class ArrowObject:
    """An object of the arrow category: a single map between carriers."""

    map: FiniteMap

    @property
    def top(self) -> FinSet:
        return self.map.dom

    @property
    def bot(self) -> FinSet:
        return self.map.cod

    def __repr__(self) -> str:
        return f"ArrowObject({self.top.size}->{self.bot.size}, {list(self.map.table)})"


def arrow(dom: int, cod: int, table) -> ArrowObject:
    return ArrowObject(FiniteMap(FinSet(dom), FinSet(cod), tuple(table)))


@dataclass(frozen=True)
class CommSquare:
    """A commuting square src -> dst, checked on construction."""

    src: ArrowObject
    dst: ArrowObject
    top: FiniteMap
    bot: FiniteMap

    def __post_init__(self) -> None:
        if self.top.dom != self.src.top or self.top.cod != self.dst.top:
            raise DiagramError("square top component has wrong boundaries")
        if self.bot.dom != self.src.bot or self.bot.cod != self.dst.bot:
            raise DiagramError("square bottom component has wrong boundaries")
        # both composites are defined
        if _gather(self.dst.map.table, self.top.table) != _gather(self.bot.table, self.src.map.table):
            raise DiagramError("square does not commute")

    def is_identity(self) -> bool:
        return (
            self.src == self.dst
            and self.top.table == tuple(range(self.top.dom.size))
            and self.bot.table == tuple(range(self.bot.dom.size))
        )


def identity_square(a: ArrowObject) -> CommSquare:
    return CommSquare(a, a, identity(a.top), identity(a.bot))


def square_compose(b: CommSquare, a: CommSquare) -> CommSquare:
    """b after a."""
    if a.dst != b.src:
        raise CompositionError("squares are not composable")
    return CommSquare(a.src, b.dst, compose(b.top, a.top), compose(b.bot, a.bot))


class ArrowColimit:
    """Colimit of a finite diagram of arrows, given as its vertices and its
    edges ``(source, target, square)``, with legs and a mediating factory.
    It is computed on top and bottom carriers separately (``finite_colimit``),
    so it depends only on the identifications its edges generate."""

    def __init__(self, vertices: Sequence[ArrowObject],
                 edges: Sequence[tuple[int, int, CommSquare]]):
        for s, d, e in edges:
            if e.src != vertices[s] or e.dst != vertices[d]:
                raise DiagramError("diagram edge square does not match its endpoints")
        self.top = finite_colimit([v.top for v in vertices], [(s, d, e.top) for s, d, e in edges])
        self.bot = finite_colimit([v.bot for v in vertices], [(s, d, e.bot) for s, d, e in edges])
        self.apex = ArrowObject(self.top.induced(
            [compose(self.bot.legs[i], v.map) for i, v in enumerate(vertices)]
        ))
        self._vertices = list(vertices)

    def leg(self, i: int) -> CommSquare:
        return CommSquare(self._vertices[i], self.apex, self.top.legs[i], self.bot.legs[i])

    def induced(self, squares: Sequence[CommSquare], target: ArrowObject) -> CommSquare:
        """Unique square u with u . leg_i = squares[i]."""
        if len(squares) != len(self._vertices):
            raise DiagramError("cocone must provide one square per vertex")
        ut = self.top.induced([s.top for s in squares])
        ub = self.bot.induced([s.bot for s in squares])
        return CommSquare(self.apex, target, ut, ub)


@dataclass(frozen=True)
class ArrowQuotient:
    """Joint coequaliser in the arrow category with its mediating factory."""

    apex: ArrowObject
    q: CommSquare
    top: QuotientResult
    bot: QuotientResult

    def induced(self, h: CommSquare) -> CommSquare:
        return CommSquare(self.apex, h.dst, self.top.induced(h.top), self.bot.induced(h.bot))


def arrow_joint_coequalizer(
    pairs: Sequence[tuple[CommSquare, CommSquare]],
    codomain: ArrowObject,
) -> ArrowQuotient:
    """Quotient the codomain arrow by u(x) ~ v(x) for each parallel pair."""
    for u, v in pairs:
        if u.src != v.src or u.dst != v.dst:
            raise DiagramError("coequaliser pair of squares is not parallel")
        if u.dst != codomain:
            raise DiagramError("coequaliser pairs must target the declared codomain")
    top = joint_coequalizer([(u.top, v.top) for u, v in pairs], codomain=codomain.top)
    bot = joint_coequalizer([(u.bot, v.bot) for u, v in pairs], codomain=codomain.bot)
    # classes are numbered by least member, so a bottom quotient that merged
    # nothing is the identity and bot.q . codomain.map is codomain.map: the
    # chain's coequalisers are of this kind, and a carrier-sized compose per
    # stage goes; induced still checks descent along the top quotient
    mapped = codomain.map if bot.apex == codomain.bot else compose(bot.q, codomain.map)
    apex = ArrowObject(top.induced(mapped))
    q = CommSquare(codomain, apex, top.q, bot.q)
    return ArrowQuotient(apex, q, top, bot)
