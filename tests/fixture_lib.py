"""Programmatic builders for the presentations and maps used across tests.

The JSON files under fixtures/ carry the same data; tests that exercise
parsing compare against these builders.
"""

import dataclasses
import itertools

from awfskit.finset import FinSet, FiniteMap
from awfskit.presentation import (
    DoubleCatPresentation,
    HArrowSpec,
    PlainPresentation,
    RawMap,
    SquareSpec,
    id_name,
    is_id_name,
)


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


def pair_square_pres() -> DoubleCatPresentation:
    """``composite_pres`` with a horizontal arrow ``h: q -> r`` realised as
    the identity map of a point, the square ``sh`` along ``h`` between the
    vertical identities of ``q`` and ``r``, and ``sh`` stacked on itself:
    its one stacked pair of squares connects the pair problems."""
    return dataclasses.replace(
        composite_pres(),
        harrows=(HArrowSpec("h", "q", "r", RawMap(1, 1, (0,))),),
        squares=(SquareSpec("sh", "eq", "er", "h", "h"),),
        square_vcomp={("sh", "sh"): "sh"},
    )


def uniform_monos_pres(n: int) -> DoubleCatPresentation:
    """The finite shadow of uniform fibrations on the carriers ``0..n``.

    Objects ``"0"``..``"n"`` have carrier sizes 0..n.  The horizontal
    arrows are every map between them, the vertical arrows every
    injection, and the squares ``v -> w`` the pullback squares: a bottom
    ``k`` with ``k⁻¹(im w) = im v``, whose top is forced as ``w⁻¹ ∘ k ∘ v``.
    Identity maps are the implied ``1_m``; the identity injections are
    listed and ``vid`` names them.  A square is fixed by its boundary, so
    every composition table is filled by looking its composite up by
    boundary; composites with implied identities are left implied."""
    sizes = range(n + 1)

    def digits(t):
        return "".join(map(str, t))

    def maps(m, k, mono=False):
        return [t for t in itertools.product(range(k), repeat=m)
                if not mono or len(set(t)) == m]

    hname = {(m, k, t): id_name(str(m)) if m == k and t == tuple(range(m))
             else f"h{m}{k}_{digits(t)}" for m in sizes for k in sizes for t in maps(m, k)}
    vname = {(m, k, t): f"v{m}{k}_{digits(t)}" for m in sizes for k in sizes
             for t in maps(m, k, mono=True)}
    vid = {str(m): vname[m, m, tuple(range(m))] for m in sizes}
    ids = set(vid.values())

    def after(f, g):  # g after f, both (dom, cod, table)
        return (f[0], g[1], tuple(g[2][x] for x in f[2]))

    squares = {}  # (v, w, bottom map) -> square name
    boundary = {}  # square name -> (v, w, top map, bottom map)
    for v in vname:
        for w in vname:
            for k in maps(v[1], w[1]):
                image = {b for b in range(v[1]) if k[b] in w[2]}
                if image != set(v[2]):
                    continue
                top = tuple(w[2].index(k[b]) for b in v[2])
                name = (id_name(vname[v]) if v == w and k == tuple(range(v[1]))
                        else f"s_{vname[v]}_{vname[w]}_{digits(k)}")
                squares[v, w, k] = name
                boundary[name] = (v, w, (v[0], w[0], top), (v[1], w[1], k))
    declared = [name for name in boundary if not is_id_name(name)]

    hcomp = [(hname[f], hname[g], hname[after(f, g)]) for f in hname for g in hname
             if f[1] == g[0] and not is_id_name(hname[f]) and not is_id_name(hname[g])]
    vcomp = [(vname[v], vname[w], vname[after(v, w)]) for v in vname for w in vname
             if v[1] == w[0] and vname[v] not in ids and vname[w] not in ids]
    square_comp = [
        (a, b, squares[boundary[a][0], boundary[b][1], after(boundary[a][3], boundary[b][3])[2]])
        for a in declared for b in declared if boundary[a][1] == boundary[b][0]]
    square_vcomp = [
        (a, b, squares[after(boundary[a][0], boundary[b][0]),
                       after(boundary[a][1], boundary[b][1]), boundary[b][3][2]])
        for a in boundary for b in boundary
        if not (is_id_name(a) and is_id_name(b)) and boundary[a][3] == boundary[b][2]
        and boundary[a][0][1] == boundary[b][0][0] and boundary[a][1][1] == boundary[b][1][0]]
    return DoubleCatPresentation.build(
        objects={str(m): m for m in sizes},
        harrows=[(name, str(m), str(k), t) for (m, k, t), name in hname.items()
                 if not is_id_name(name)],
        hcomp=hcomp,
        varrows=[(name, str(m), str(k), t) for (m, k, t), name in vname.items()],
        vid=vid,
        squares=[(name, vname[v], vname[w], hname[top], hname[bot])
                 for name, (v, w, top, bot) in boundary.items() if not is_id_name(name)],
        square_comp=square_comp,
        vcomp=vcomp,
        square_vcomp=square_vcomp,
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
