"""The iterated-extension chain, stabilisation detection, and extraction.

Starting from the target map, each stage applies the one-step extension
and then coequalises the redundancy introduced by re-extending cells that
were already filled: stage n+2 is the coequaliser of the two ways of
mapping the stage-n extension into the extension of stage n+1 (through
the extension's own unit, or through the extension of the unit).  In
special mode the coequaliser is joint with a second fork that forces the
fillers of composable pairs to agree with filling through the composite,
which is what makes the extracted lifting structure respect vertical
composition.  ``ChainTrace.advance`` is the one place a stage is built;
``run_chain`` advances a trace of the target, on the engines that
``step.engines`` builds for its mode, and ``run_plain`` and ``run_special``
call it.  A trace is special exactly when it has a double engine.

A chain that becomes stationary yields the factorisation: the stabilised
stage is the middle object, the composite of the connecting squares is
the left half, the stage itself (as an arrow) is the right half, and the
inverse of the stabilised connecting square turns the stage's structure
square into the algebra map that answers every lifting problem.
``extract`` returns all of it as one ``Certificate``, the record that
``verify``, the certificate encoder and the command line read.  Whether a
map obeys the algebra laws (unit, over the codomain, and in special mode
the pair-composition law) is decided in one place, ``algebra_violations``,
which ``extract``, ``verify`` and the initiality oracle all call.

That algebra map ``beta0: Tg -> g`` is the whole lifting structure: the
filler of a problem is ``beta0`` after its cell.  So the lift table is
kept as columns: the problems' key columns one block per generator, and
one map, ``beta0`` after the copaired cells out of ∐ₚ Bₚ, that a
``LiftTable`` slices a filler out of only when one is looked up.  The
certificate encoder, the decoder and ``verify`` read the same columns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Iterator, Optional

from .arrows import (
    ArrowObject,
    CommSquare,
    arrow_joint_coequalizer,
    identity_square,
    square_compose,
)
from .errors import DiagramError, NotStabilised, ProblemMismatch
from .finset import FinSet, FiniteMap, compose, identity, is_iso
from .step import (
    DoubleEngine,
    LiftingProblem,
    SizeBudget,
    StepEngine,
    _rows,
    check_listable,
    engines,
)


@dataclass
class ChainTrace:
    """Computed prefix of the chain of ``engine`` from ``stages[0]``: stage
    arrows, connecting squares ``connect[n]: stage n -> stage n+1``, and
    structure squares ``structure[n]: extension of stage n -> stage n+1``.
    The three lists grow only in ``advance``.  The mode and the shape are
    read off the engines: special exactly when there is a double engine."""

    engine: StepEngine
    stages: list[ArrowObject]
    double_engine: Optional[DoubleEngine] = None
    connect: list[CommSquare] = field(default_factory=list)
    structure: list[CommSquare] = field(default_factory=list)

    @property
    def mode(self) -> str:
        return "plain" if self.double_engine is None else "special"

    @property
    def shape(self):
        return self.engine.shape

    @property
    def target(self) -> ArrowObject:
        return self.stages[0]

    @property
    def carrier_sizes(self) -> list[int]:
        return [s.top.size for s in self.stages]

    def connecting(self, n: int, m: int) -> CommSquare:
        """The composite connecting square from stage ``n`` to stage ``m``."""
        if not 0 <= n <= m < len(self.stages):
            raise DiagramError(f"no connecting square {n} -> {m} in a trace of {len(self.stages)} stages")
        out = identity_square(self.stages[n])
        for i in range(n, m):
            out = square_compose(self.connect[i], out)
        return out

    def advance(self, to: int) -> "ChainTrace":
        """Build the stages up to ``to`` that the trace lacks, each appended
        once whole, and return the trace: stage 1 with the identity structure
        square, later ones the coequaliser of the successor fork (jointly
        with the composition fork in special mode)."""
        while len(self.stages) <= to:
            st = self.engine.step_tables(self.stages[-1])
            if len(self.stages) == 1:
                x = identity_square(st.extended)
            else:
                n = len(self.stages) - 2
                x_n = self.structure[n]
                # The two legs of the successor fork collapse along
                # functoriality and unit naturality to the extended
                # connecting square and unit-then-structure; the special
                # fork's first leg is fused so the twice-iterated extension
                # never materialises.
                t_j = self.engine.extend(self.connect[n])
                pairs = [(t_j, square_compose(st.unit, x_n))]
                if self.double_engine is not None:
                    gam = self.double_engine.compose_comparison(self.stages[n])
                    pairs.append((self.double_engine.iterate_then(self.stages[n], x_n),
                                  square_compose(t_j, gam)))
                x = arrow_joint_coequalizer(pairs, codomain=st.extended).q
            self.stages.append(x.dst)
            self.structure.append(x)
            self.connect.append(square_compose(x, st.unit))
        return self

    def verify_laws(self) -> list[str]:
        """Re-check the defining chain equations; returns violated labels."""
        out = []
        for n in range(len(self.structure)):
            eta = self.engine.step_tables(self.stages[n]).unit
            if square_compose(self.structure[n], eta) != self.connect[n]:
                out.append(f"unit-law:{n}")
        for n in range(len(self.structure) - 1):
            # Extending the structure square after the extended unit gives
            # the extended connecting square, and extending it after the
            # unit gives unit-then-structure; the fork legs are computed in
            # this collapsed form so every check stays proportional to the
            # extension carriers actually built.
            t_j = self.engine.extend(self.connect[n])
            eta_next = self.engine.step_tables(self.stages[n + 1]).unit
            lhs = square_compose(self.structure[n + 1], t_j)
            rhs = square_compose(
                self.structure[n + 1], square_compose(eta_next, self.structure[n])
            )
            if lhs != rhs:
                out.append(f"successor-fork:{n}")
            if self.mode == "special":
                gam = self.double_engine.compose_comparison(self.stages[n])
                lhs = square_compose(
                    self.connect[n + 1], square_compose(self.structure[n], gam)
                )
                rhs = square_compose(
                    self.structure[n + 1],
                    self.double_engine.iterate_then(self.stages[n], self.structure[n]),
                )
                if lhs != rhs:
                    out.append(f"composition-fork:{n}")
        for n, j in enumerate(self.connect):
            if j.bot.table != tuple(range(j.bot.dom.size)):
                out.append(f"codomain-rigidity:{n}")
        return out


def run_chain(shape, f, mode: str = "plain", max_stage: int = 16,
              budget: Optional[SizeBudget] = None) -> ChainTrace:
    """Run the chain of ``shape`` in ``mode`` up to ``max_stage``, on the
    engines ``step.engines`` builds: at least two stages in plain mode, and
    three in special mode, whose composition fork needs a stage more."""
    engine, dengine = engines(shape, mode, budget)
    if max_stage < (2 if dengine is None else 3):
        raise DiagramError(f"a {mode} chain needs at least {'two' if dengine is None else 'three'} stages")
    target = f if isinstance(f, ArrowObject) else ArrowObject(f)
    return ChainTrace(engine, [target], dengine).advance(max_stage)


def run_plain(shape, f, max_stage: int = 16, budget: Optional[SizeBudget] = None) -> ChainTrace:
    return run_chain(shape, f, "plain", max_stage, budget)


def run_special(pres, f, max_stage: int = 16, budget: Optional[SizeBudget] = None) -> ChainTrace:
    return run_chain(pres, f, "special", max_stage, budget)


def detect_stabilisation(trace: ChainTrace) -> Optional[int]:
    """Least stage whose connecting square (and, in special mode, the next
    one too) is invertible; None if the trace never becomes stationary."""
    for n, j in enumerate(trace.connect):
        if is_iso(j.top) is None:
            continue
        if trace.mode == "plain":
            return n
        if n + 1 < len(trace.connect) and is_iso(trace.connect[n + 1].top) is not None:
            return n
    return None


def _transpose(rows: list) -> list:
    """The columns of equally long ``rows``, at least one."""
    return [tuple(map(itemgetter(j), rows)) for j in range(len(rows[0]))]


def _checked_key(key) -> tuple:
    """``key`` when it is a problem key ``(generator, top, bottom)``."""
    if not (type(key) is tuple and len(key) == 3 and isinstance(key[0], str)
            and all(type(t) is tuple and all(isinstance(v, int) for v in t) for t in key[1:])):
        raise DiagramError(f"lift table key {key!r} is not (generator, top, bottom)")
    return key


def _keys(name, tops: list, bots: list, count: int) -> Iterator[tuple]:
    """The keys of a block's ``count`` problems, from its key columns."""
    return zip(repeat(name), _rows(tops, count), _rows(bots, count))


class LiftTable(Mapping):
    """A lift table held as columns: a read-only mapping from each lifting
    problem's key ``(generator, top, bottom)`` to its filler.

    The keys come in ``runs``, one per stretch of keys that share a
    generator and table lengths, ``(name, bottom, count, tops, bots)``: the
    fillers' domain, the number of keys, and their top and bottom tables as
    columns, one per position.  All fillers are one checked map,
    ``fillers``, out of ∐ₚ Bₚ in the order of the keys, which is the order
    of iteration; a lookup bisects the runs of its key's generator and
    table lengths, whose keys are sorted, and slices one out as a checked
    map (KeyError when the key is no entry).  ``extract`` gives one run per
    generator, problems in canonical order, which sorts each run's keys, and
    fillers ``beta0`` after the copaired cells; the decoder and
    ``from_items`` give all keys sorted, though two runs may then share a
    generator and table lengths."""

    def __init__(self, runs: list, fillers: FiniteMap):
        self.runs = runs
        self.fillers = fillers
        self._filler_tables: Optional[dict] = None

    @classmethod
    def from_columns(cls, gens, tops, bots, doms, fillers: FiniteMap) -> "LiftTable":
        """The table whose ``i``-th key is ``(gens[i], tops[i], bots[i])``
        with a filler on ``doms[i]`` points, the fillers laid out in that
        order in ``fillers``: one run per stretch of keys that share a
        generator and table lengths."""
        runs, start = [], 0
        shapes = zip(gens, map(len, tops), map(len, bots), doms)
        for (gen, _, _, dom), run in groupby(shapes):
            end = start + len(list(run))
            runs.append((gen, FinSet(dom), end - start,
                         _transpose(tops[start:end]), _transpose(bots[start:end])))
            start = end
        return cls(runs, fillers)

    @classmethod
    def from_items(cls, items) -> "LiftTable":
        """The table of ``(key, filler)`` pairs, keys sorted.  Refuses with
        ``DiagramError`` a key that is not ``(generator, top, bottom)`` of a
        string and two tuples of integers, a repeated key, a filler that is
        not a ``FiniteMap``, and fillers into more than one carrier."""
        items = sorted(items, key=lambda item: _checked_key(item[0]))
        for i, (key, filler) in enumerate(items):
            if not isinstance(filler, FiniteMap):
                raise DiagramError(f"lift table entry {key} is not a map")
            if i and key == items[i - 1][0]:
                raise DiagramError(f"lift table key {key} is repeated")
        cods = {filler.cod for _, filler in items}
        if len(cods) > 1:
            raise DiagramError("lift table fillers land in more than one carrier")
        table = tuple(chain.from_iterable(filler.table for _, filler in items))
        fillers = FiniteMap(FinSet(len(table)), cods.pop() if cods else FinSet(0), table)
        gens, tops, bots = _transpose([key for key, _ in items]) if items else ((), (), ())
        return cls.from_columns(gens, tops, bots, [f.dom.size for _, f in items], fillers)

    def __len__(self) -> int:
        return sum(run[2] for run in self.runs)

    def __iter__(self) -> Iterator[tuple]:
        return chain.from_iterable(_keys(name, tops, bots, count)
                                   for name, _, count, tops, bots in self.runs)

    def filler_columns(self) -> list:
        """The filler tables of each run as columns, one per position."""
        table, start, out = self.fillers.table, 0, []
        for _, bottom, count, _, _ in self.runs:
            n = bottom.size
            out.append([table[start + b : start + count * n : n] for b in range(n)])
            start += count * n
        return out

    def filler_tables(self) -> dict:
        """Every key's filler table, without building a map; kept."""
        if self._filler_tables is None:
            counts = [run[2] for run in self.runs]
            self._filler_tables = dict(zip(self, chain.from_iterable(
                map(_rows, self.filler_columns(), counts))))
        return self._filler_tables

    def __getitem__(self, key) -> FiniteMap:
        """The filler of ``key``, without the index of every key
        (``filler_tables``): KeyError wherever the index would raise it."""
        try:
            hash(key)
            gen, top, bot = key
            shape = (gen, len(top), len(bot))
        except (TypeError, ValueError):  # unhashable, or no (generator, top, bottom)
            raise KeyError(key) from None
        start, table = 0, self.fillers.table
        for name, bottom, count, tops, bots in self.runs:
            n = bottom.size
            if (name, len(tops), len(bots)) == shape:
                # the run's keys are sorted, so each column is sorted where
                # the columns before it equal the key's entries
                lo, hi = 0, count
                try:
                    for col, v in zip(chain(tops, bots), chain(top, bot)):
                        lo, hi = bisect_left(col, v, lo, hi), bisect_right(col, v, lo, hi)
                except TypeError:  # an entry that does not compare with integers
                    raise KeyError(key) from None
                at = itemgetter(lo)
                if lo < hi and (tuple(map(at, tops)), tuple(map(at, bots))) == (top, bot):
                    return FiniteMap(bottom, self.fillers.cod, table[start + lo * n : start + lo * n + n])
            start += count * n
        raise KeyError(key)


@dataclass
class Certificate:
    """The factorisation f = R after L with its lifting algebra ``beta0``,
    from ``extract`` (with the chain, ``trace``) or supplied for auditing.
    The lift table maps each problem key to its filler and is always a
    ``LiftTable``: any other mapping given to the constructor (or to
    ``replace``) is turned into one by ``LiftTable.from_items``; anything
    else, and malformed keys and fillers, are refused with ``DiagramError``."""

    pres: object
    mode: str
    input: ArrowObject
    left: FiniteMap  # input domain -> middle carrier
    right: ArrowObject  # middle carrier -> input codomain
    beta0: FiniteMap  # extension carrier of the right leg -> middle carrier
    lift_table: LiftTable
    stage: Optional[int] = None
    trace_sizes: Optional[list] = None
    trace: Optional[ChainTrace] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.lift_table, LiftTable):
            if not isinstance(self.lift_table, Mapping):
                raise DiagramError(f"lift table is a {type(self.lift_table).__name__}, not a mapping")
            self.lift_table = LiftTable.from_items(self.lift_table.items())

    @classmethod
    def from_result(cls, pres, result: "Certificate") -> "Certificate":
        return replace(result, pres=pres)

    @property
    def middle_size(self) -> int:
        return self.right.top.size


def extract(trace: ChainTrace) -> Certificate:
    """Extract the factorisation at the stage ``detect_stabilisation``
    finds, re-checking that it recomposes the input and, through
    ``algebra_violations``, every algebra law before returning."""
    n = detect_stabilisation(trace)
    if n is None:
        raise NotStabilised(
            f"chain did not stabilise within {len(trace.stages) - 1} stages "
            f"(carrier sizes {trace.carrier_sizes})",
            sizes=trace.carrier_sizes,
        )
    right = trace.stages[n]
    beta0 = compose(is_iso(trace.connect[n].top), trace.structure[n].top)
    left = trace.connecting(0, n).top
    st = trace.engine.step_tables(right)
    if compose(right.map, left).table != trace.target.map.table:
        raise DiagramError("extracted factorisation does not recompose the input")
    check_listable(st.problem_count(), trace.engine.budget, f"lift table at stage {n} lists")
    laws = algebra_violations(right, beta0, trace.engine, trace.double_engine)
    if laws:
        raise DiagramError("extracted algebra violates {}: {}".format(*laws[0]))
    return Certificate(
        pres=trace.shape,
        mode=trace.mode,
        input=trace.target,
        left=left,
        right=right,
        beta0=beta0,
        lift_table=LiftTable(list(st.problem_blocks()), compose(beta0, st.copaired())),
        stage=n,
        trace_sizes=trace.carrier_sizes,
        trace=trace,
    )


def _mismatches(got: tuple, want: tuple) -> list:
    """The positions where two equally long tables differ: [] at the cost
    of one comparison of whole tables when they are equal."""
    return [] if got == want else [v for v, (a, b) in enumerate(zip(got, want)) if a != b]


def algebra_violations(g: ArrowObject, beta0: FiniteMap, engine: StepEngine,
                       dengine: Optional[DoubleEngine] = None) -> list:
    """The algebra laws ``beta0: Tg -> g`` breaks, as (label, detail) pairs,
    one per failing element: a ``boundary`` pair alone when ``beta0`` is off
    the extension carrier or off ``g``'s carrier; else the unit law, lying
    over the codomain and, when both hold and ``dengine`` is given, the
    special law: a composable pair filled through its composite and in two
    stages (fused by ``iterate_then``) agree.  Each law is compared on whole
    tables; elements are walked only to name the ones that fail."""
    st = engine.step_tables(g)
    if beta0.dom.size != st.size:
        return [("boundary", f"algebra map domain {beta0.dom.size} != extension carrier {st.size}")]
    if beta0.cod != g.top:
        return [("boundary", f"algebra map codomain {beta0.cod.size} != carrier {g.top.size}")]
    unit = compose(beta0, st.inclusion).table
    over, ext = compose(g.map, beta0).table, st.extended.map.table
    out = [("unit-law", f"beta(unit({v})) = {unit[v]} != {v}")
           for v in _mismatches(unit, tuple(range(g.top.size)))]
    out += [("boundary", f"algebra map is not over the codomain at {v}: {over[v]} != {ext[v]}")
            for v in _mismatches(over, ext)]
    if out or dengine is None:
        return out
    beta = CommSquare(st.extended, g, beta0, identity(g.bot))
    composite = square_compose(beta, dengine.compose_comparison(g)).top.table
    two_stage = square_compose(beta, dengine.iterate_then(g, beta)).top.table
    return [("special-algebra-square",
             f"pair element {v}: composite route {composite[v]} != two-stage route {two_stage[v]}")
            for v in _mismatches(composite, two_stage)]


def solve_lift(result: Certificate, problem: LiftingProblem) -> FiniteMap:
    """Answer a lifting problem against the extracted middle arrow: the
    command line's ``lift`` answers through it, once its problem's square
    has been built and checked (``LiftingProblem.of``)."""
    if problem.square.dst != result.right:
        raise ProblemMismatch("problem does not target the extracted arrow")
    try:
        return result.lift_table[problem.key]
    except KeyError:
        raise ProblemMismatch(f"no table entry for problem {problem.key}") from None


def factorise(shape, f, mode: str = "plain", max_stage: int = 16,
              budget: Optional[SizeBudget] = None) -> Certificate:
    """Run the chain and extract in one call."""
    return extract(run_chain(shape, f, mode, max_stage, budget))
