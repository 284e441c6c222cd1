"""Kernel tests: composition, quotients, pushouts, colimits.

The quotient oracle below is an independent closure computation (repeated
set merging, no union-find) so the kernel's canonical class numbering is
checked against something that shares no code with it.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfskit.errors import CompositionError, DiagramError, UniversalityError
from awfskit.finset import (
    CoconeWitness,
    Diagram,
    FinSet,
    FiniteMap,
    compose,
    finite_colimit,
    identity,
    is_iso,
    joint_coequalizer,
    pushout,
)


def fmap(dom: int, cod: int, table) -> FiniteMap:
    return FiniteMap(FinSet(dom), FinSet(cod), tuple(table))


def naive_quotient(n: int, relations) -> list[int]:
    """Oracle: canonical class table via repeated set merging."""
    classes = [{i} for i in range(n)]
    for a, b in relations:
        ca = next(c for c in classes if a in c)
        cb = next(c for c in classes if b in c)
        if ca is not cb:
            classes.remove(cb)
            ca |= cb
    classes.sort(key=min)
    table = [0] * n
    for idx, c in enumerate(classes):
        for x in c:
            table[x] = idx
    return table


def all_maps(dom: int, cod: int):
    for table in itertools.product(range(cod), repeat=dom):
        yield fmap(dom, cod, table)


# ---------------------------------------------------------------- composition


def test_compose_frozen_example():
    f = fmap(2, 3, [1, 2])
    g = fmap(3, 3, [2, 0, 1])
    assert compose(g, f).table == (0, 1)


def test_compose_identity_laws():
    f = fmap(3, 2, [1, 0, 1])
    assert compose(f, identity(FinSet(3))).table == f.table
    assert compose(identity(FinSet(2)), f).table == f.table


def test_compose_boundary_mismatch():
    with pytest.raises(CompositionError):
        compose(fmap(2, 2, [0, 1]), fmap(2, 3, [0, 1]))


def test_map_table_validation():
    with pytest.raises(DiagramError):
        fmap(2, 2, [0, 2])
    with pytest.raises(DiagramError):
        fmap(2, 2, [0])


@given(
    st.integers(0, 4).flatmap(
        lambda a: st.integers(1, 4).flatmap(
            lambda b: st.integers(1, 4).flatmap(
                lambda c: st.integers(1, 4).flatmap(
                    lambda d: st.tuples(
                        st.lists(st.integers(0, b - 1), min_size=a, max_size=a),
                        st.lists(st.integers(0, c - 1), min_size=b, max_size=b),
                        st.lists(st.integers(0, d - 1), min_size=c, max_size=c),
                        st.just((a, b, c, d)),
                    )
                )
            )
        )
    )
)
def test_compose_associative(data):
    t1, t2, t3, (a, b, c, d) = data
    f = fmap(a, b, t1)
    g = fmap(b, c, t2)
    h = fmap(c, d, t3)
    assert compose(h, compose(g, f)).table == compose(compose(h, g), f).table


def test_is_iso():
    assert is_iso(fmap(3, 3, [2, 0, 1])).table == (1, 2, 0)
    assert is_iso(fmap(2, 2, [0, 0])) is None
    assert is_iso(fmap(2, 3, [0, 1])) is None
    assert is_iso(fmap(0, 0, [])).table == ()


def test_iso_inverse_roundtrip():
    f = fmap(4, 4, [3, 1, 0, 2])
    inv = is_iso(f)
    assert compose(inv, f).table == identity(FinSet(4)).table
    assert compose(f, inv).table == identity(FinSet(4)).table


# ------------------------------------------------------------- coequalizers


def test_joint_coequalizer_frozen_example():
    res = joint_coequalizer([(fmap(1, 3, [0]), fmap(1, 3, [2]))])
    assert res.apex.size == 2
    assert res.q.table == (0, 1, 0)


def test_coequalizer_of_equal_maps_is_identity():
    f = fmap(2, 3, [0, 2])
    res = joint_coequalizer([(f, f)])
    assert res.q.table == (0, 1, 2)


def test_joint_coequalizer_empty_pairs():
    res = joint_coequalizer([], codomain=FinSet(3))
    assert res.q.table == (0, 1, 2)
    with pytest.raises(DiagramError):
        joint_coequalizer([])


def test_joint_coequalizer_non_parallel_rejected():
    with pytest.raises(DiagramError):
        joint_coequalizer([(fmap(1, 3, [0]), fmap(2, 3, [0, 1]))])


def test_joint_coequalizer_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(100):
        y = rng.randint(1, 5)
        pairs = []
        rels = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(0, 3)
            t1 = [rng.randrange(y) for _ in range(d)]
            t2 = [rng.randrange(y) for _ in range(d)]
            pairs.append((fmap(d, y, t1), fmap(d, y, t2)))
            rels.extend(zip(t1, t2))
        res = joint_coequalizer(pairs, codomain=FinSet(y))
        assert list(res.q.table) == naive_quotient(y, rels)


def test_quotient_induced_unique_by_enumeration():
    rng = random.Random(11)
    for _ in range(100):
        y = rng.randint(1, 4)
        d = rng.randint(0, 3)
        t1 = [rng.randrange(y) for _ in range(d)]
        t2 = [rng.randrange(y) for _ in range(d)]
        res = joint_coequalizer([(fmap(d, y, t1), fmap(d, y, t2))])
        z = rng.randint(1, 4)
        # pick h constant on classes by factoring a random map through q
        w = [rng.randrange(z) for _ in range(res.apex.size)]
        h = fmap(y, z, [w[c] for c in res.q.table])
        u = res.induced(h)
        solutions = [
            m for m in all_maps(res.apex.size, z) if compose(m, res.q).table == h.table
        ]
        assert solutions == [u]


def test_quotient_induced_rejects_non_coequalising():
    res = joint_coequalizer([(fmap(1, 3, [0]), fmap(1, 3, [2]))])
    with pytest.raises(UniversalityError):
        res.induced(fmap(3, 2, [0, 1, 1]))


# ------------------------------------------------------------------- pushout


def test_pushout_frozen_example():
    res = pushout(fmap(1, 2, [0]), fmap(1, 1, [0]))
    assert res.apex.size == 2
    assert compose(res.left, fmap(1, 2, [0])).table == compose(res.right, fmap(1, 1, [0])).table


def test_pushout_along_identity_is_iso():
    g = fmap(3, 2, [1, 0, 1])
    res = pushout(identity(FinSet(3)), g)
    assert res.apex.size == 2
    inv = is_iso(res.right)
    assert inv is not None
    assert res.left.table == compose(res.right, g).table


def test_pushout_of_empty_span():
    res = pushout(fmap(0, 3, []), fmap(0, 2, []))
    assert res.apex.size == 5
    assert res.left.table == (0, 1, 2)
    assert res.right.table == (3, 4)


def test_pushout_induced_unique_by_enumeration():
    rng = random.Random(13)
    for _ in range(100):
        a, x, b = rng.randint(0, 3), rng.randint(1, 4), rng.randint(1, 4)
        f = fmap(a, x, [rng.randrange(x) for _ in range(a)])
        g = fmap(a, b, [rng.randrange(b) for _ in range(a)])
        res = pushout(f, g)
        z = rng.randint(1, 3)
        w = [rng.randrange(z) for _ in range(res.apex.size)]
        u = fmap(x, z, [w[c] for c in res.left.table])
        v = fmap(b, z, [w[c] for c in res.right.table])
        med = res.induced(u, v)
        solutions = [
            m
            for m in all_maps(res.apex.size, z)
            if compose(m, res.left).table == u.table and compose(m, res.right).table == v.table
        ]
        assert solutions == [med]


def test_pushout_induced_rejects_non_commuting():
    res = pushout(fmap(1, 2, [0]), fmap(1, 1, [0]))
    with pytest.raises(UniversalityError):
        res.induced(fmap(2, 2, [0, 1]), fmap(1, 2, [1]))


# ------------------------------------------------------------ finite colimits


def test_colimit_span_frozen_example():
    # 1 <- 0 -> 1 has apex of size 2
    d = Diagram(
        vertices=[FinSet(1), FinSet(0), FinSet(1)],
        edges=[(1, 0, fmap(0, 1, [])), (1, 2, fmap(0, 1, []))],
    )
    w = finite_colimit(d)
    assert w.apex.size == 2
    assert w.legs[0].table == (0,) and w.legs[2].table == (1,)


def test_colimit_single_vertex():
    w = finite_colimit(Diagram(vertices=[FinSet(3)], edges=[]))
    assert w.apex.size == 3
    assert w.legs[0].table == (0, 1, 2)


def test_colimit_empty_diagram():
    w = finite_colimit(Diagram(vertices=[], edges=[]))
    assert w.apex.size == 0 and w.legs == ()


def test_colimit_edge_validation():
    d = Diagram(vertices=[FinSet(1), FinSet(2)], edges=[(0, 1, fmap(2, 2, [0, 1]))])
    with pytest.raises(DiagramError):
        finite_colimit(d)
    d2 = Diagram(vertices=[FinSet(1)], edges=[(0, 3, fmap(1, 1, [0]))])
    with pytest.raises(DiagramError):
        finite_colimit(d2)


def _random_diagram(rng: random.Random) -> Diagram:
    nv = rng.randint(1, 4)
    vertices = [FinSet(rng.randint(0, 4)) for _ in range(nv)]
    edges = []
    for _ in range(rng.randint(0, 4)):
        s, d = rng.randrange(nv), rng.randrange(nv)
        if vertices[d].size == 0 and vertices[s].size > 0:
            continue
        table = [rng.randrange(vertices[d].size) for _ in range(vertices[s].size)]
        edges.append((s, d, FiniteMap(vertices[s], vertices[d], tuple(table))))
    return Diagram(vertices, edges)


def test_colimit_legs_commute_and_cover():
    rng = random.Random(17)
    for _ in range(100):
        d = _random_diagram(rng)
        w = finite_colimit(d)
        for s, t, e in d.edges:
            assert compose(w.legs[t], e).table == w.legs[s].table
        covered = {c for leg in w.legs for c in leg.table}
        assert covered == set(range(w.apex.size))


def test_colimit_induced_unique_by_enumeration():
    rng = random.Random(19)
    checked = 0
    while checked < 100:
        d = _random_diagram(rng)
        w = finite_colimit(d)
        z = rng.randint(1, 3)
        vals = [rng.randrange(z) for _ in range(w.apex.size)]
        maps = [
            FiniteMap(v, FinSet(z), tuple(vals[c] for c in w.legs[i].table))
            for i, v in enumerate(d.vertices)
        ]
        if not maps:
            continue
        u = w.induced(maps)
        solutions = [
            m
            for m in all_maps(w.apex.size, z)
            if all(compose(m, w.legs[i]).table == maps[i].table for i in range(len(maps)))
        ]
        assert solutions == [u]
        checked += 1


def test_colimit_induced_rejects_non_cocone():
    d = Diagram(
        vertices=[FinSet(1), FinSet(1)],
        edges=[(0, 1, fmap(1, 1, [0]))],
    )
    w = finite_colimit(d)
    with pytest.raises(UniversalityError):
        w.induced([fmap(1, 2, [0]), fmap(1, 2, [1])])


def test_determinism_identical_inputs():
    pairs = [(fmap(2, 4, [0, 2]), fmap(2, 4, [1, 3]))]
    a = joint_coequalizer(pairs)
    b = joint_coequalizer(pairs)
    assert a.q.table == b.q.table and a.apex == b.apex
