"""Tests for the arrow category: squares, and pointwise colimit machinery."""

import random
from pathlib import Path

import pytest

from awfskit import chain as chain_module
from awfskit.arrows import (
    ArrowColimit,
    CommSquare,
    arrow,
    arrow_joint_coequalizer,
    identity_square,
    square_compose,
)
from awfskit.chain import run_chain
from awfskit.errors import CompositionError, DiagramError, SizeBudgetExceeded
from awfskit.finset import FinSet, FiniteMap, compose, identity, joint_coequalizer
from awfskit.serialize import decode_map_or_arrow, decode_presentation, read_json
from awfskit.step import SizeBudget


def fmap(dom, cod, table):
    return FiniteMap(FinSet(dom), FinSet(cod), tuple(table))


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------


def test_square_construction_checks_commutation():
    src = arrow(2, 1, [0, 0])
    dst = arrow(2, 2, [0, 1])
    with pytest.raises(DiagramError):
        CommSquare(src, dst, fmap(2, 2, [0, 1]), fmap(1, 2, [0]))


def test_square_construction_checks_boundaries():
    src = arrow(1, 1, [0])
    dst = arrow(2, 2, [0, 1])
    with pytest.raises(DiagramError):
        CommSquare(src, dst, fmap(1, 1, [0]), fmap(1, 2, [0]))


def test_identity_square_and_composition():
    a = arrow(3, 2, [0, 1, 0])
    b = arrow(5, 2, [0, 1, 0, 0, 1])
    s = CommSquare(a, b, fmap(3, 5, [0, 1, 2]), fmap(2, 2, [0, 1]))
    assert identity_square(a).is_identity()
    assert not s.is_identity()
    assert square_compose(s, identity_square(a)).top.table == s.top.table
    assert square_compose(identity_square(b), s).bot.table == s.bot.table


def test_square_compose_rejects_mismatched_squares():
    a = arrow(1, 1, [0])
    with pytest.raises(CompositionError):
        square_compose(
            identity_square(arrow(2, 2, [0, 1])),
            identity_square(a),
        )


def test_square_compose_frozen_example():
    a = arrow(2, 1, [0, 0])
    b = arrow(3, 2, [0, 1, 0])
    c = arrow(2, 2, [0, 1])
    s = CommSquare(a, b, fmap(2, 3, [0, 2]), fmap(1, 2, [0]))
    t = CommSquare(b, c, fmap(3, 2, [0, 1, 0]), fmap(2, 2, [0, 1]))
    u = square_compose(t, s)
    assert u.top.table == (0, 0)
    assert u.bot.table == (0,)


# ---------------------------------------------------------------------------
# colimits of arrow diagrams
# ---------------------------------------------------------------------------


def test_colimit_of_two_vertex_chain():
    v0 = arrow(1, 1, [0])
    v1 = arrow(2, 1, [0, 0])
    e = CommSquare(v0, v1, fmap(1, 2, [0]), fmap(1, 1, [0]))
    colim = ArrowColimit([v0, v1], [(0, 1, e)])
    assert colim.apex.top.size == 2
    assert colim.apex.bot.size == 1
    assert colim.apex.map.table == (0, 0)
    assert colim.leg(1).top.table == (0, 1)
    # legs commute with the edge
    assert square_compose(colim.leg(1), e).top.table == colim.leg(0).top.table


def test_colimit_induced_square():
    v0 = arrow(1, 1, [0])
    v1 = arrow(2, 1, [0, 0])
    e = CommSquare(v0, v1, fmap(1, 2, [0]), fmap(1, 1, [0]))
    colim = ArrowColimit([v0, v1], [(0, 1, e)])
    target = v1
    cocone = [CommSquare(v0, target, fmap(1, 2, [0]), fmap(1, 1, [0])), identity_square(v1)]
    u = colim.induced(cocone, target)
    for i in range(2):
        got = square_compose(u, colim.leg(i))
        assert got.top.table == cocone[i].top.table
        assert got.bot.table == cocone[i].bot.table


def test_colimit_of_empty_diagram():
    # the one-step construction always glues two vertices; an empty diagram
    # has no cocone to mediate its apex map out of
    with pytest.raises(DiagramError, match="cannot mediate out of an empty diagram"):
        ArrowColimit([], [])


def test_colimit_rejects_edge_endpoint_mismatch():
    v0 = arrow(1, 1, [0])
    v1 = arrow(2, 1, [0, 0])
    e = identity_square(v1)
    with pytest.raises(DiagramError):
        ArrowColimit([v0, v1], [(0, 1, e)])


def test_colimit_random_diagrams_legs_commute():
    rng = random.Random(5)
    for _ in range(60):
        ysize = rng.randint(1, 3)
        nverts = rng.randint(1, 4)
        verts = []
        for _ in range(nverts):
            xsize = rng.randint(ysize, ysize + 2)
            table = list(range(ysize)) + [rng.randrange(ysize) for _ in range(xsize - ysize)]
            rng.shuffle(table)
            verts.append(arrow(xsize, ysize, table))
        edges = []
        for _ in range(rng.randint(0, 3)):
            s, d = rng.randrange(nverts), rng.randrange(nverts)
            fs, fd = verts[s], verts[d]
            fibers = {y: [x for x in range(fd.top.size) if fd.map.table[x] == y] for y in range(ysize)}
            top = [rng.choice(fibers[fs.map.table[x]]) for x in range(fs.top.size)]
            edges.append((s, d, CommSquare(fs, fd, fmap(fs.top.size, fd.top.size, top), identity(FinSet(ysize)))))
        colim = ArrowColimit(verts, edges)
        for s, d, e in edges:
            glued = square_compose(colim.leg(d), e)
            assert glued.top.table == colim.leg(s).top.table
            assert glued.bot.table == colim.leg(s).bot.table
        # the legs themselves form a cocone; mediating out of it is the identity
        u = colim.induced([colim.leg(i) for i in range(nverts)], colim.apex)
        assert u.top.table == tuple(range(colim.apex.top.size))
        assert u.bot.table == tuple(range(colim.apex.bot.size))


# ---------------------------------------------------------------------------
# joint coequalisers of squares
# ---------------------------------------------------------------------------


def test_joint_coequalizer_collapses_one_step_object():
    # quotient the one-step arrow 5->2 back onto the original 3->2 map by
    # identifying the two adjoined cells with their images
    c = arrow(5, 2, [0, 1, 0, 0, 1])
    src = arrow(2, 2, [0, 1])
    u = CommSquare(src, c, fmap(2, 5, [3, 4]), fmap(2, 2, [0, 1]))
    v = CommSquare(src, c, fmap(2, 5, [0, 1]), fmap(2, 2, [0, 1]))
    res = arrow_joint_coequalizer([(u, v)], codomain=c)
    assert res.apex.top.size == 3
    assert res.apex.bot.size == 2
    assert res.apex.map.table == (0, 1, 0)
    assert res.q.top.table == (0, 1, 2, 0, 1)
    # mediating out of the quotient
    h = CommSquare(c, res.apex, res.q.top, res.q.bot)
    w = res.induced(h)
    assert w.top.table == (0, 1, 2)


def test_joint_coequalizer_empty_pairs_is_identity():
    c = arrow(3, 2, [0, 1, 0])
    res = arrow_joint_coequalizer([], codomain=c)
    assert res.apex == c
    assert res.q.is_identity()


def test_joint_coequalizer_rejects_non_parallel_pairs():
    c = arrow(2, 2, [0, 1])
    u = identity_square(c)
    v = identity_square(arrow(2, 2, [1, 0]))
    with pytest.raises(DiagramError):
        arrow_joint_coequalizer([(u, v)], codomain=c)


def _assert_matches_reference(pairs, codomain):
    """The joint coequaliser equals the reference as first written: both
    quotients, and the apex map induced from bot.q after the codomain map
    in every case."""
    res = arrow_joint_coequalizer(pairs, codomain=codomain)
    top = joint_coequalizer([(u.top, v.top) for u, v in pairs], codomain=codomain.top)
    bot = joint_coequalizer([(u.bot, v.bot) for u, v in pairs], codomain=codomain.bot)
    assert (res.top, res.bot) == (top, bot)
    assert res.apex.map == top.induced(compose(bot.q, codomain.map))
    assert res.q == CommSquare(codomain, res.apex, top.q, bot.q)
    return res


def _random_pairs(rng, merge_bottom):
    """Parallel pairs of squares from an injective arrow into a random
    codomain arrow.  Each square's bottom is forced on the image of the
    source arrow and free elsewhere; unless ``merge_bottom``, both squares
    of a pair share their bottom, so the bottom quotient merges nothing."""
    bsize = rng.randint(1, 4)
    tsize = rng.randint(bsize, bsize + 3)
    table = list(range(bsize)) + [rng.randrange(bsize) for _ in range(tsize - bsize)]
    rng.shuffle(table)
    codomain = arrow(tsize, bsize, table)
    fibres = {y: [x for x in range(tsize) if table[x] == y] for y in range(bsize)}
    n = rng.randint(0, 2)
    src = arrow(n, n + rng.randint(0, 2), range(n))
    free = range(n, src.bot.size)

    def square(top, bot_free):
        bot = [table[t] for t in top] + bot_free
        return CommSquare(src, codomain, fmap(n, tsize, top), fmap(src.bot.size, bsize, bot))

    pairs = []
    for _ in range(rng.randint(1, 3)):
        top_u = [rng.randrange(tsize) for _ in range(n)]
        bot_u = [rng.randrange(bsize) for _ in free]
        if merge_bottom:
            top_v = [rng.randrange(tsize) for _ in range(n)]
            bot_v = [rng.randrange(bsize) for _ in free]
        else:
            top_v = [rng.choice(fibres[table[t]]) for t in top_u]
            bot_v = bot_u
        pairs.append((square(top_u, bot_u), square(top_v, bot_v)))
    return pairs, codomain


@pytest.mark.parametrize("merge_bottom", [False, True], ids=["bottom-kept", "bottom-merged"])
def test_joint_coequalizer_matches_the_reference_apex(merge_bottom):
    rng = random.Random(17)
    merged = 0
    for _ in range(200):
        pairs, codomain = _random_pairs(rng, merge_bottom)
        res = _assert_matches_reference(pairs, codomain)
        merged += res.bot.apex != codomain.bot
    if merge_bottom:
        assert merged > 50
    else:
        assert merged == 0


def test_joint_coequalizer_merging_the_bottom_example():
    # the two bottoms disagree, so the bottom 2 -> 1 merges and the apex
    # map is induced through it
    c = arrow(3, 2, [0, 1, 0])
    src = arrow(0, 1, [])
    u = CommSquare(src, c, fmap(0, 3, []), fmap(1, 2, [0]))
    v = CommSquare(src, c, fmap(0, 3, []), fmap(1, 2, [1]))
    res = _assert_matches_reference([(u, v)], c)
    assert res.apex.map.table == (0, 0, 0)
    assert res.bot.apex.size == 1


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
# every shipped presentation in plain mode, and the double ones in special mode
CHAIN_RUNS = [(p.stem, mode) for p in sorted(FIXTURE_DIR.glob("gen_*.json"))
              for mode in ("plain", "special")
              if mode == "plain" or read_json(str(p))["kind"] == "double"]


@pytest.mark.parametrize("name, mode", CHAIN_RUNS, ids=[f"{n}-{m}" for n, m in CHAIN_RUNS])
def test_every_chain_coequaliser_matches_the_reference_apex(name, mode, monkeypatch):
    """Every coequaliser the chain takes up to stage 3, on every shipped
    presentation and map (the abc chain of 1 -> 2 reaches 429,565 cells);
    none of them merges the bottom, so each takes the codomain map as is."""
    pres = decode_presentation(read_json(str(FIXTURE_DIR / f"{name}.json")))
    seen = []

    def checked(pairs, codomain):
        res = _assert_matches_reference(pairs, codomain)
        seen.append(res.bot.apex == codomain.bot)
        return res

    monkeypatch.setattr(chain_module, "arrow_joint_coequalizer", checked)
    maps = [decode_map_or_arrow(read_json(str(p))) for p in sorted(FIXTURE_DIR.glob("f_*.json"))]
    for f in maps + [arrow(1, 2, [0])]:
        try:
            run_chain(pres, f, mode, max_stage=3, budget=SizeBudget(500_000))
        except SizeBudgetExceeded:
            pass
    assert seen and all(seen)
