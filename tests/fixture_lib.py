"""Programmatic builders for the presentations and maps used across tests.

The JSON files under fixtures/ carry the same data; tests that exercise
parsing compare against these builders.
"""

from awfskit.finset import FinSet, FiniteMap
from awfskit.presentation import DoubleCatPresentation, PlainPresentation


def fmap(dom, cod, table) -> FiniteMap:
    return FiniteMap(FinSet(dom), FinSet(cod), tuple(table))


def split_epi_pres() -> DoubleCatPresentation:
    """One generating vertical arrow, realised as the map from the empty
    carrier into a point."""
    return DoubleCatPresentation.build(
        objects={"0": 0, "1": 1},
        varrows=[
            ("e0", "0", "0", []),
            ("e1", "1", "1", [0]),
            ("j", "0", "1", []),
        ],
        vid={"0": "e0", "1": "e1"},
    )


def abc_pres() -> DoubleCatPresentation:
    """Two composable generating vertical arrows with a named composite,
    realised as injections between carriers of sizes 1, 2, 3."""
    return DoubleCatPresentation.build(
        objects={"x1": 1, "x2": 2, "x3": 3},
        varrows=[
            ("e1", "x1", "x1", [0]),
            ("e2", "x2", "x2", [0, 1]),
            ("e3", "x3", "x3", [0, 1, 2]),
            ("a", "x1", "x2", [0]),
            ("b", "x2", "x3", [0, 1]),
            ("c", "x1", "x3", [0]),
        ],
        vid={"x1": "e1", "x2": "e2", "x3": "e3"},
        vcomp=[("a", "b", "c")],
    )


def composite_pres() -> DoubleCatPresentation:
    """A composable pair whose first leg adjoins a point and whose second
    leg is realised as an identity map; the composite is named."""
    return DoubleCatPresentation.build(
        objects={"p": 0, "q": 1, "r": 1},
        varrows=[
            ("ep", "p", "p", []),
            ("eq", "q", "q", [0]),
            ("er", "r", "r", [0]),
            ("a", "p", "q", []),
            ("b", "q", "r", [0]),
            ("c", "p", "r", []),
        ],
        vid={"p": "ep", "q": "eq", "r": "er"},
        vcomp=[("a", "b", "c")],
    )


def retract_pres() -> DoubleCatPresentation:
    """A point ``a`` with a retraction ``d`` onto it, whose other composite
    ``p`` is idempotent; ``d`` and ``p`` are not injective, so the one-step
    extensions take the general path."""
    return DoubleCatPresentation.build(
        objects={"x1": 1, "x2": 2},
        varrows=[
            ("e1", "x1", "x1", [0]),
            ("e2", "x2", "x2", [0, 1]),
            ("a", "x1", "x2", [0]),
            ("d", "x2", "x1", [0, 0]),
            ("p", "x2", "x2", [0, 0]),
        ],
        vid={"x1": "e1", "x2": "e2"},
        vcomp=[("a", "d", "e1"), ("d", "a", "p"), ("p", "p", "p"), ("p", "d", "d"), ("a", "p", "a")],
    )


def square_pres() -> DoubleCatPresentation:
    """The split-epi vertical arrow ``j`` next to a horizontal arrow ``h``
    with the same realisation, one square between the vertical identities
    along ``h``, and an entry in every composition table."""
    return DoubleCatPresentation.build(
        objects={"x": 0, "y": 1},
        harrows=[("h", "x", "y", [])],
        hcomp=[("1_x", "h", "h")],
        varrows=[("ex", "x", "x", []), ("ey", "y", "y", [0]), ("j", "x", "y", [])],
        vid={"x": "ex", "y": "ey"},
        vcomp=[("ex", "j", "j")],
        squares=[("sh", "ex", "ey", "h", "h")],
        square_comp=[("1_ex", "sh", "sh")],
        square_vcomp=[("sh", "sh", "sh")],
    )


def codiag_pres() -> PlainPresentation:
    """A generator collapsing two points onto one (not injective) next to
    the split-epi generator."""
    return PlainPresentation.build(generators=[("d", 2, 1, [0, 0]), ("j", 0, 1, [])])


def growth_pres() -> PlainPresentation:
    """A single generator whose codomain is strictly larger than its
    domain; iterating the one-step construction keeps growing."""
    return PlainPresentation.build(generators=[("g", 1, 2, [0])])


def plain_split_epi_pres() -> PlainPresentation:
    """The split-epi generator as a plain presentation (no vertical data)."""
    return PlainPresentation.build(generators=[("j", 0, 1, [])])


def two_gen_plain_pres() -> PlainPresentation:
    """Two generators with one connecting square between them."""
    return PlainPresentation.build(
        generators=[("j", 0, 1, []), ("k", 1, 1, [0])],
        morphisms=[("s", "j", "k", [], [0])],
    )


def f_3to2() -> FiniteMap:
    return fmap(3, 2, [0, 1, 0])


def f_1to1() -> FiniteMap:
    return fmap(1, 1, [0])


def f_0to1() -> FiniteMap:
    return fmap(0, 1, [])


def f_2to3() -> FiniteMap:
    return fmap(2, 3, [2, 0])
