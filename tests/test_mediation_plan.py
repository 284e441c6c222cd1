"""The step's mediation plan against the walk it stands in for.

``_mediated_top`` decides the descent of the fillers through ``bottoms`` and
the agreement of the pushout legs by comparing prebuilt gathers
(``StepStructure.plan``), and walks the legs (``finset._mediate``) only when
a comparison fails or a class is unreached.  The reference ``walked_top`` is
the walk alone.  A seeded differential runs both on arbitrary legs (classes
no leg reaches, conflicting values, tables of the wrong length, values out
of range, and descent through a quotient independent of the cells), and on
the squares out of real steps with one filler moved; the two must give
equal tables, or raise the same exception type with the same message.  On a
heavy pair of the kappa oracle the plan is built once for 8,192 squares, and
non-natural fillers raise ``NonNaturalLifting`` through it on the two
presentations whose steps merge problem bottoms.
"""

import random
from functools import cached_property

import pytest

from awfskit import step as step_module
from awfskit import verify
from awfskit.arrows import ArrowObject, CommSquare
from awfskit.errors import NonNaturalLifting, UniversalityError
from awfskit.finset import _NOT_COEQUALISED, _NOT_COMMUTING, FinSet, FiniteMap, _mediate
from awfskit.step import OneStepLifting, StepStructure, _mediated_top, _restricted, mediate, step

from fixture_lib import abc_pres, fmap, pair_square_pres, split_epi_pres, two_gen_plain_pres


def walked_top(struct, base_top, fillers, cod_size):
    """``_mediated_top`` by the walk alone: descent through ``bottoms``,
    then the pushout of the inclusion and the cells, then the range check."""
    bottoms = struct.bottoms
    if bottoms is not None and bottoms.cod.size != bottoms.dom.size:
        try:
            _mediate(bottoms.cod.size, [(bottoms.table, fillers)], _NOT_COEQUALISED)
        except UniversalityError as exc:
            raise NonNaturalLifting(f"fillers are not natural across connecting squares: {exc}") from None
    legs = [(struct.inclusion.table, base_top), (struct.copaired().table, fillers)]
    top = _mediate(struct.size, legs, _NOT_COMMUTING)
    if top and not (0 <= min(top) and max(top) < cod_size):
        FiniteMap(FinSet(len(top)), FinSet(cod_size), top)
    return top


def outcome(kernel, *args):
    """The table ``kernel`` returns, or the type and message it raises."""
    try:
        return kernel(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


def raised(result) -> bool:
    return bool(result) and isinstance(result[0], type)


class Legs:
    """What ``_mediated_top`` reads off a step, on arbitrary tables: the
    carrier size, the inclusion, the copaired cells and ``bottoms``, with
    the plan ``StepStructure`` builds from them."""

    plan = cached_property(StepStructure.plan.func)

    def __init__(self, size, incl, cells, bottoms=None):
        self.size = size
        self.inclusion = fmap(len(incl), size, incl)
        self._cells = fmap(len(cells), size, cells)
        self.bottoms = bottoms

    def copaired(self):
        return self._cells


def random_case(rng):
    """Legs and a kernel input of one of six kinds."""
    size = rng.randint(0, 5)
    incl = [rng.randrange(size) for _ in range(rng.randint(0, 4))] if size else []
    cells = [rng.randrange(size) for _ in range(rng.randint(0, 6))] if size else []
    if rng.random() < 0.6:  # every class reached
        cells += [c for c in range(size) if c not in incl and c not in cells]
        rng.shuffle(cells)
    bottoms = None
    if cells and rng.random() < 0.5:  # a quotient of the cells' domain, unrelated to the cells
        k = rng.randint(1, len(cells))
        bottoms = fmap(len(cells), k, [rng.randrange(k) for _ in range(len(cells))])
    legs = Legs(size, incl, cells, bottoms)
    cod = rng.randint(1, 4)
    kind = rng.choice(["natural", "descended", "conflict", "short", "long", "range"])
    top = [rng.randrange(cod) for _ in range(size)]
    base_top, fillers = [top[c] for c in incl], [top[c] for c in cells]
    if kind == "descended" and bottoms is not None:
        values = [rng.randrange(cod) for _ in range(bottoms.cod.size)]
        fillers = [values[b] for b in bottoms.table]
    elif kind == "conflict" and base_top + fillers:
        i = rng.randrange(len(base_top) + len(fillers))
        side, i = (base_top, i) if i < len(base_top) else (fillers, i - len(base_top))
        side[i] = (side[i] + rng.randint(1, cod)) % (cod + 1)
    elif kind == "short" and base_top + fillers:
        side = rng.choice([s for s in (base_top, fillers) if s])
        side.pop()
    elif kind == "long":
        rng.choice([base_top, fillers]).append(rng.randrange(cod))
    elif kind == "range" and size:
        top[rng.randrange(size)] = rng.choice([-1, cod, cod + 1])
        base_top, fillers = [top[c] for c in incl], [top[c] for c in cells]
    return kind, legs, (tuple(base_top), tuple(fillers), cod)


def test_plan_matches_the_walk_on_random_legs(monkeypatch):
    rng, seen, unreached = random.Random(20261022), {}, 0
    walks = []
    real = step_module._mediate

    def counted(*args):
        walks.append(1)
        return real(*args)

    monkeypatch.setattr(step_module, "_mediate", counted)
    for _ in range(4000):
        kind, legs, args = random_case(rng)
        del walks[:]
        got, want = outcome(_mediated_top, legs, *args), outcome(walked_top, legs, *args)
        assert got == want, (kind, legs.size, legs.inclusion, legs._cells, legs.bottoms, args)
        how = ("walk" if walks else "plan", got[0].__name__ if raised(got) else "table")
        seen.setdefault(kind, set()).add(how)
        unreached += legs.plan.firsts is None
    # every kind ran; tables came off the plan, and only the range check
    # raised without a walk
    assert set(seen) == {"natural", "descended", "conflict", "short", "long", "range"}
    assert ("plan", "table") in seen["natural"] and ("plan", "DiagramError") in seen["range"]
    assert ("walk", "UniversalityError") in seen["conflict"]
    assert ("walk", "NonNaturalLifting") in seen["natural"]  # natural on the legs only
    assert ("plan", "table") in seen["descended"]
    assert ("walk", "table") in seen["short"] and ("walk", "table") in seen["long"]
    assert {why for s in seen.values() for route, why in s if route == "plan"} == {"table", "DiagramError"}
    assert unreached > 400  # legs that reach no point of some class: walked, and refused in range


@pytest.mark.parametrize("make", [two_gen_plain_pres, pair_square_pres, split_epi_pres],
                         ids=["two_gen_plain", "pair_square", "split_epi"])
def test_plan_matches_the_walk_on_real_steps(make):
    """Every square out of a general step restricts and mediates back alike
    on both routes, and so does each restriction with one filler moved."""
    rng, shape, faults = random.Random(7), make(), 0
    for f in [fmap(2, 2, [0, 1]), fmap(3, 2, [0, 1, 0]), fmap(1, 1, [0])]:
        struct = step(shape, ArrowObject(f))
        assert struct.bottoms is not None
        g = ArrowObject(fmap(3, 2, [0, 1, 1]))
        for n, (top, _) in enumerate(verify._square_tables(struct.extended, g)):
            if n == 300:
                break
            base_top, fillers = _restricted(struct, top)
            args = (base_top, fillers, g.top.size)
            assert outcome(_mediated_top, struct, *args) == outcome(walked_top, struct, *args) == top
            if fillers:
                i = rng.randrange(len(fillers))
                moved = fillers[:i] + ((fillers[i] + 1) % 3,) + fillers[i + 1:]
                got = outcome(_mediated_top, struct, base_top, moved, 3)
                faults += raised(got)
                assert got == outcome(walked_top, struct, base_top, moved, 3)
    assert faults


def test_heavy_pair_builds_its_plan_once(monkeypatch):
    """A heavy pair of the benchmark's oracle workload: 8,192 squares, each
    through both kernels, on one structure with one plan."""
    built, calls = [], []
    real_plan = StepStructure.plan.func

    def counted_plan(struct):
        built.append(struct)
        return real_plan(struct)

    plan = cached_property(counted_plan)
    plan.__set_name__(StepStructure, "plan")
    monkeypatch.setattr(StepStructure, "plan", plan)
    real_kernel = verify._mediated_top

    def counted_kernel(*args):
        calls.append(args[0])
        return real_kernel(*args)

    monkeypatch.setattr(verify, "_mediated_top", counted_kernel)
    f, g = ArrowObject(fmap(1, 2, [0])), ArrowObject(fmap(2, 2, [0, 0]))
    report = verify.oracle_kappa(abc_pres(), f, g)
    assert report.ok and report.entries[0].detail == "squares=8192 liftings=8192"
    assert len(calls) == 8192 and len(set(map(id, calls))) == 1
    assert built == [calls[0]]


@pytest.mark.parametrize("make", [two_gen_plain_pres, pair_square_pres],
                         ids=["two_gen_plain", "pair_square"])
def test_nonnatural_fillers_raise_through_the_plan(make):
    """Fillers that differ within a class of the problems' bottoms are not
    natural: ``mediate`` raises ``NonNaturalLifting`` with the walk's message,
    after the plan's comparison failed; constant fillers mediate."""
    shape, checked = make(), 0
    g = ArrowObject(fmap(2, 1, [0, 0]))
    for f in [fmap(2, 2, [0, 1]), fmap(3, 2, [0, 1, 0]), fmap(2, 1, [0, 0])]:
        struct = step(shape, ArrowObject(f))
        base = CommSquare(struct.target, g, fmap(f.dom.size, 2, [0] * f.dom.size),
                          fmap(f.cod.size, 1, [0] * f.cod.size))
        n = struct.copaired().dom.size
        natural = OneStepLifting(base, fmap(n, 2, [0] * n))
        assert mediate(struct, natural).top.table == (0,) * struct.size
        firsts = {}
        for i, b in enumerate(struct.bottoms.table):
            if firsts.setdefault(b, i) == i:
                continue
            fillers = [0] * n
            fillers[i] = 1
            lifting = OneStepLifting(base, fmap(n, 2, fillers))
            with pytest.raises(NonNaturalLifting) as err:
                mediate(struct, lifting)
            assert struct.plan.brep(tuple(fillers)) != tuple(fillers)
            want = outcome(walked_top, struct, base.top.table, tuple(fillers), 2)
            assert (NonNaturalLifting, str(err.value)) == want
            checked += 1
    assert checked
