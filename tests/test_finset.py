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

from awfskit.arrows import ArrowObject, CommSquare, arrow
from awfskit.errors import CompositionError, DiagramError, UniversalityError
from awfskit.finset import (
    CoconeWitness,
    Diagram,
    FinSet,
    FiniteMap,
    _quotient_table,
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


@pytest.mark.parametrize("size", [2.0, True, "2", None])
def test_finset_refuses_non_integer_sizes(size):
    with pytest.raises(DiagramError, match="must be an integer"):
        FinSet(size)


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


# ------------------------------------------------ the kernel against its loops
#
# The kernel runs its per-element work as whole-table passes.  The functions
# below are the per-element loops those passes replaced, kept as references:
# the kernel must give the same tables, accept the same maps and raise the
# same exceptions with the same text.


def ref_quotient_table(n: int, merges) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Union-find with path halving, labels numbered by a walk in order; the
    points met after the first point of their class are the hung ones."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in merges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    labels: dict[int, int] = {}
    table, hung = [0] * n, []
    for x in range(n):
        root = find(x)
        if root in labels:
            hung.append(x)
        table[x] = labels.setdefault(root, len(labels))
    return len(labels), tuple(table), tuple(hung)


def ref_check_table(table, cod: int) -> None:
    """Every entry an int (``bool`` included, every float refused) in range;
    the first bad entry is named."""
    for x, v in enumerate(table):
        if not isinstance(v, int):
            raise DiagramError(f"table entry {x} -> {v!r} is not an integer")
        if not 0 <= v < cod:
            raise DiagramError(f"table entry {x} -> {v} lies outside codomain of size {cod}")


def _fill(out, leg, h, error):
    for x, cls in enumerate(leg.table):
        hx = h.table[x]
        if out[cls] == -1:
            out[cls] = hx
        elif out[cls] != hx:
            raise error(cls, out[cls], hx)


def ref_quotient_induced(res, h):
    if h.dom != res.q.dom:
        raise DiagramError("mediating input must start at the quotiented carrier")
    out = [-1] * res.apex.size
    _fill(out, res.q, h, lambda cls, a, b: UniversalityError(
        f"map does not coequalise: elements of class {cls} disagree ({a} vs {b})"))
    return FiniteMap(res.apex, h.cod, tuple(out))


def ref_pushout_induced(res, u, v):
    if u.cod != v.cod:
        raise DiagramError("mediating cospan must share a codomain")
    if u.dom != res.left.dom or v.dom != res.right.dom:
        raise DiagramError("mediating cospan does not match the pushout feet")
    out = [-1] * res.apex.size
    error = lambda *_: UniversalityError("cospan does not commute with the pushout identifications")
    _fill(out, res.left, u, error)
    _fill(out, res.right, v, error)
    return FiniteMap(res.apex, u.cod, tuple(out))


def ref_cocone_induced(w, maps):
    if len(maps) != len(w.legs):
        raise DiagramError("cocone must provide one map per vertex")
    out = [-1] * w.apex.size
    cod = None
    for leg, h in zip(w.legs, maps):
        if h.dom != leg.dom:
            raise DiagramError("cocone map does not start at its vertex")
        if cod is None:
            cod = h.cod
        elif h.cod != cod:
            raise DiagramError("cocone maps must share a codomain")
        _fill(out, leg, h, lambda *_: UniversalityError("cocone does not commute with the diagram edges"))
    if cod is None:
        raise DiagramError("cannot mediate out of an empty diagram without a target")
    return FiniteMap(w.apex, cod, tuple(out))


def outcome(fn, *args):
    """The result of a call, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (DiagramError, UniversalityError, TypeError) as exc:
        return type(exc), str(exc)


@st.composite
def merge_lists(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    point = st.integers(0, n - 1)
    merges = draw(st.lists(st.one_of(
        st.tuples(point, point),
        point.map(lambda x: (x, x)),  # self-merges
    ), max_size=60))
    return n, merges


@settings(max_examples=300, deadline=None)
@given(merge_lists())
def test_quotient_table_matches_reference_loop(case):
    n, merges = case
    assert _quotient_table(n, iter(merges)) == ref_quotient_table(n, merges)


def test_quotient_table_edge_cases_match_reference_loop():
    rng = random.Random(23)
    chain = [(i, i + 1) for i in range(3000)]
    n, m = 200_000, 5000
    descending = [(x, x - 1) for x in range(m - 1, 0, -1)]  # one parent path through every point
    cases = [
        (0, []),
        (1, [(0, 0)]),
        (5, [(3, 3), (1, 1)]),
        (3001, chain),
        (3001, chain[::-1]),
        (3001, [(b, a) for a, b in chain]),
        (3001, rng.sample(chain, len(chain))),
        (3001, [(0, i) for i in range(3001)] + [(i, 3000 - i) for i in range(3001)]),
        # sparse: few merges on a large carrier
        (n, []),
        (n, [(n - 1, n - 3), (n - 2, n - 1), (n - 4, n - 4)]),  # only the last few points
        (m, [(x, m - 1) for x in range(m - 1)]),  # every point into the last
        (m, descending),
        (m, descending + [(m - 1, m // 2), (m - 2, 0)]),  # finds that walk the long path
    ]
    for size, merges in cases:
        assert _quotient_table(size, merges) == ref_quotient_table(size, merges)
    assert _quotient_table(3001, chain) == (1, (0,) * 3001, tuple(range(1, 3001)))
    assert _quotient_table(n, []) == (n, tuple(range(n)), ())
    assert _quotient_table(n, cases[9][1]) == (
        n - 2, tuple(range(n - 3)) + (n - 3, n - 3, n - 3), (n - 2, n - 1))
    assert _quotient_table(m, cases[10][1]) == (1, (0,) * m, tuple(range(1, m)))


@st.composite
def sparse_merge_lists(draw):
    """Few merges on a large carrier, some of them among its last points: the
    labels are mostly slices between a handful of hung points."""
    n = draw(st.integers(1, 5000))
    point = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 6), n - 1))
    return n, draw(st.lists(st.tuples(point, point), max_size=12))


@settings(max_examples=300, deadline=None)
@given(sparse_merge_lists())
def test_sparse_quotient_table_matches_reference_loop(case):
    n, merges = case
    assert _quotient_table(n, iter(merges)) == ref_quotient_table(n, merges)


@settings(max_examples=100, deadline=None)
@given(sparse_merge_lists(), st.data())
def test_sparse_quotient_induced_matches_reference_loop(case, data):
    """Descent through a sparse joint coequaliser, on a map constant on
    classes and on the same map moved at one point."""
    n, merges = case
    f = fmap(len(merges), n, [a for a, _ in merges])
    g = fmap(len(merges), n, [b for _, b in merges])
    res = joint_coequalizer([(f, g)])
    assert (res.apex.size, res.q.table, res.hung) == ref_quotient_table(n, merges)
    w = data.draw(st.lists(st.integers(0, 3), min_size=res.apex.size, max_size=res.apex.size))
    table = [w[c] for c in res.q.table]
    h = fmap(n, 4, table)
    assert res.induced(h) == ref_quotient_induced(res, h) == fmap(res.apex.size, 4, w)
    x = data.draw(st.integers(0, n - 1))
    table[x] = (table[x] + 1) % 4
    h = fmap(n, 4, table)
    assert outcome(res.induced, h) == outcome(ref_quotient_induced, res, h)


def _maps_into(draw, doms, cod):
    return [fmap(d, cod, draw(st.lists(st.integers(0, cod - 1), min_size=d, max_size=d)))
            for d in doms]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_induced_matches_reference_loop(data):
    """Descent through the hung points of a joint coequaliser of several
    pairs, on maps constant on classes, on the same maps with some points
    moved (several hung points may then disagree with their class) and on
    maps that start elsewhere."""
    draw = data.draw
    y = draw(st.integers(1, 30))
    pairs = [tuple(_maps_into(draw, [d, d], y)) for d in draw(st.lists(st.integers(0, 8), max_size=4))]
    res = joint_coequalizer(pairs, codomain=FinSet(y))
    assert res.hung == ref_quotient_table(y, [m for f, g in pairs for m in zip(f.table, g.table)])[2]
    z = draw(st.integers(1, 5))
    w = draw(st.lists(st.integers(0, z - 1), min_size=res.apex.size, max_size=res.apex.size))
    table = [w[c] for c in res.q.table]
    for x in draw(st.lists(st.integers(0, y - 1), max_size=y)):  # none: constant on classes
        table[x] = draw(st.integers(0, z - 1))
    if draw(st.integers(0, 5)) == 0:
        table.append(0)
    h = fmap(len(table), z, table)
    assert outcome(res.induced, h) == outcome(ref_quotient_induced, res, h)


def test_quotient_descent_on_a_large_sparse_quotient():
    """200,001 points, 80 merges: the same table as the walk, and the same
    first disagreement, at the last hung point and at the first."""
    n, rng = 200_001, random.Random(7)
    f = fmap(80, n, [rng.randrange(n) for _ in range(80)])
    g = fmap(80, n, [rng.randrange(n) for _ in range(80)])
    res = joint_coequalizer([(f, g)])
    assert 0 < len(res.hung) <= 80 and res.apex.size == n - len(res.hung)
    w = [rng.randrange(5) for _ in range(res.apex.size)]
    table = [w[c] for c in res.q.table]
    h = fmap(n, 5, table)
    assert res.induced(h) == ref_quotient_induced(res, h) == fmap(res.apex.size, 5, w)
    for x in (res.hung[-1], res.hung[0]):
        table[x] = (table[x] + 1) % 5
        h = fmap(n, 5, table)
        faults = outcome(res.induced, h)
        assert faults == outcome(ref_quotient_induced, res, h)
        assert faults[0] is UniversalityError and f"class {res.q.table[x]} " in faults[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pushout_induced_matches_reference_loop(data):
    draw = data.draw
    a, x, b = draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    (f,), (g,) = _maps_into(draw, [a], x), _maps_into(draw, [a], b)
    res = pushout(f, g)
    z = draw(st.integers(1, 4))
    if draw(st.booleans()):  # a commuting cospan
        w = draw(st.lists(st.integers(0, z - 1), min_size=res.apex.size, max_size=res.apex.size))
        u = fmap(x, z, [w[c] for c in res.left.table])
        v = fmap(b, z, [w[c] for c in res.right.table])
    else:
        u, v = _maps_into(draw, [x, draw(st.sampled_from([b, b, b + 1]))], z)
        if draw(st.booleans()):
            (v,) = _maps_into(draw, [v.dom.size], z + 1)
    assert outcome(res.induced, u, v) == outcome(ref_pushout_induced, res, u, v)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cocone_induced_matches_reference_loop(data):
    draw = data.draw
    sizes = draw(st.lists(st.integers(1, 3), max_size=5))
    vertices = [FinSet(s) for s in sizes]
    edges = []
    for _ in range(draw(st.integers(0, 5)) if sizes else 0):
        s, t = draw(st.integers(0, len(sizes) - 1)), draw(st.integers(0, len(sizes) - 1))
        (e,) = _maps_into(draw, [sizes[s]], sizes[t])
        edges.append((s, t, e))
    w = finite_colimit(Diagram(vertices, edges))
    z = draw(st.integers(1, 3))
    if draw(st.booleans()):  # a commuting cocone
        vals = draw(st.lists(st.integers(0, z - 1), min_size=w.apex.size, max_size=w.apex.size))
        maps = [fmap(s, z, [vals[c] for c in leg.table]) for s, leg in zip(sizes, w.legs)]
    else:  # arbitrary maps, some starting or ending elsewhere
        maps = [
            _maps_into(draw, [draw(st.sampled_from([s, s, s, s + 1]))],
                       draw(st.sampled_from([z, z, z, z + 1])))[0]
            for s in sizes
        ]
    if draw(st.booleans()) and maps:
        maps = maps[:-1]
    assert outcome(w.induced, maps) == outcome(ref_cocone_induced, w, maps)


def test_induced_messages_match_reference_loops():
    res = joint_coequalizer([(fmap(1, 3, [0]), fmap(1, 3, [2]))])
    h = fmap(3, 3, [0, 1, 2])
    assert outcome(res.induced, h) == outcome(ref_quotient_induced, res, h) == (
        UniversalityError, "map does not coequalise: elements of class 0 disagree (0 vs 2)"
    )
    w = finite_colimit(Diagram([FinSet(1), FinSet(1), FinSet(1)], [(0, 1, fmap(1, 1, [0]))]))
    # a disagreement on the first two legs comes before the misplaced third map
    maps = [fmap(1, 2, [0]), fmap(1, 2, [1]), fmap(2, 2, [0, 0])]
    assert outcome(w.induced, maps) == outcome(ref_cocone_induced, w, maps) == (
        UniversalityError, "cocone does not commute with the diagram edges"
    )
    assert outcome(w.induced, []) == outcome(ref_cocone_induced, w, []) == (
        DiagramError, "cocone must provide one map per vertex"
    )


NAN = float("nan")

table_entries = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, -0.5, 7.0, NAN, float("inf"), -float("inf")]),
    st.floats(-2, 9, allow_nan=False),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(table_entries, max_size=8), st.integers(0, 6))
def test_finitemap_accepts_exactly_what_the_reference_loop_accepts(table, cod):
    new = outcome(FiniteMap, FinSet(len(table)), FinSet(cod), tuple(table))
    ref = outcome(ref_check_table, table, cod)
    if ref is None:
        assert isinstance(new, FiniteMap) and new.table == tuple(table)
    else:
        assert new == ref


def test_finitemap_rejects_what_min_and_max_miss():
    # a NaN between in-range entries is neither the minimum nor the maximum
    cases = [
        ((0, NAN, 1), 2),
        (tuple(range(100)) + (NAN,) + tuple(range(100)), 100),
        ((0, "1", 1), 2),
        ((1, None), 2),
        ((True, 1, -1), 2),
        ((0, 2), 2),
    ]
    for table, cod in cases:
        new = outcome(FiniteMap, FinSet(len(table)), FinSet(cod), table)
        assert new == outcome(ref_check_table, table, cod)
        assert new[0] is DiagramError
    assert outcome(FiniteMap, FinSet(3), FinSet(2), (0, NAN, 1)) == (
        DiagramError, "table entry 1 -> nan is not an integer"
    )


def test_finitemap_rejects_every_float_and_keeps_bools():
    # an in-range float used to be accepted, and the first compose on it raised TypeError
    for table in [(1.5,), (1.0,), (0, 2.0), (0, 1, 0.0)]:
        with pytest.raises(DiagramError, match="is not an integer"):
            FiniteMap(FinSet(len(table)), FinSet(3), table)
    assert outcome(FiniteMap, FinSet(1), FinSet(3), (1.5,)) == (
        DiagramError, "table entry 0 -> 1.5 is not an integer"
    )
    flags = FiniteMap(FinSet(2), FinSet(2), (True, False))
    assert compose(flags, flags).table == (0, 1)


def test_square_rejects_a_large_square_wrong_only_at_its_last_entry():
    n = 5000
    ident = arrow(n, n, range(n))
    bot = fmap(n, n, list(range(n - 1)) + [0])
    with pytest.raises(DiagramError, match="square does not commute"):
        CommSquare(ident, ident, identity(FinSet(n)), bot)
    assert CommSquare(ident, ident, identity(FinSet(n)), identity(FinSet(n))).is_identity()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_commutes_exactly_when_the_composites_agree(data):
    draw = data.draw
    a, b, c, d = (draw(st.integers(1, 4)) for _ in range(4))
    (f,), (g,) = _maps_into(draw, [a], b), _maps_into(draw, [c], d)
    (top,), (bot,) = _maps_into(draw, [a], c), _maps_into(draw, [b], d)
    commutes = compose(g, top).table == compose(bot, f).table
    made = outcome(CommSquare, ArrowObject(f), ArrowObject(g), top, bot)
    assert isinstance(made, CommSquare) if commutes else made == (DiagramError, "square does not commute")
