"""Independent re-verification of factorisation certificates.

Everything here is a pure table computation over the certificate (the
``Certificate`` record that ``chain.extract`` builds, re-exported here)
and the presentation, on the engines ``step.engines`` builds for its mode
(a ``step.mode_fault`` is a boundary fault): the checks recompute the
extension tables and compare exact integer tables, so a passing report
means the defining equations hold on the nose, not up to tolerance (the
algebra laws by ``chain.algebra_violations``, as in ``extract``).  The lift
table, always a ``LiftTable``, is read as columns: the key columns of each
generator are compared with the step's ``problem_blocks``, the fillers with
``beta0`` after the copaired cells, and every equation is checked on whole
columns, with moved, inner and outer fillers found in the table's index of
filler tables.  No problem, square or map is built per problem, and nothing
is looked up key by key unless a block differs, which is then walked to
name what fails.  Failures never raise — they become report entries naming
the violated equation and the witnessing element, and a certificate whose
boundaries do not fit (a filler off its problem's bottom among them) gets
one ``boundary`` entry per fault — so a corrupted certificate yields a
deterministic, complete list of everything wrong with it.

The two oracles check the engine against definitions that do not go
through the engine's own construction: ``oracle_kappa`` counts exactly
the commuting squares out of the one-step extension and the lifting
structures on the original arrow, natural by its own classes on ∐ₚ Bₚ,
checks the step's cells against those classes, and confirms the two
correspond one to one: every square restricts to a lifting that mediates
back to it, on raw tables through the kernels that ``mediate`` and
``restrict_square`` wrap, or a seeded sample of each side when the
squares are too many to list (the command line sweeps it over every pair
of ``small_arrows``);
``oracle_initiality`` confirms the extracted algebra maps uniquely into
any supplied algebra under any boundary square.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional

from .arrows import ArrowObject, CommSquare
from .chain import Certificate, LiftTable, _keys, _mismatches, algebra_violations
from .errors import EngineError, SizeBudgetExceeded
from .finset import FinSet, FiniteMap, _gather, _gatherer, compose
from . import step
from .step import (
    OneStepLifting,
    SizeBudget,
    _mediated_top,
    _restricted,
    _rows,
    check_listable,
    mediate,
    restrict_square,
)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportEntry:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    name: str
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.ok]

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "entries": [
                {"label": e.label, "ok": e.ok, "detail": e.detail} for e in self.entries
            ],
        }

    @classmethod
    def merged(cls, name: str, reports) -> "Report":
        entries = []
        for r in reports:
            entries.extend(r.entries)
        return cls(name, tuple(entries))


def _entry_ok(label: str, count: int, unit: str = "instances") -> ReportEntry:
    return ReportEntry(label, True, f"checked {count} {unit}")


# ---------------------------------------------------------------------------
# algebra checks


def _lift_table_problem(cert: Certificate) -> Optional[str]:
    """The first malformed lift-table entry, described, or None: fillers
    off the middle object, named by the first key, then a run whose domain
    is not its generator's bottom, by the run's first key (keys naming no
    generator are surplus, for ``check_compat``).  One test per run."""
    table = cert.lift_table
    if len(table) and table.fillers.cod != cert.right.top:
        return f"lift table entry {next(iter(table))} does not land in the middle object"
    bottoms = {name: u.bot.size for name, u in cert.pres.lifting_generators()}
    for name, bottom, count, tops, bots in table.runs:
        if count and bottoms.get(name, bottom.size) != bottom.size:
            return (f"lift table entry {next(_keys(name, tops, bots, count))} has domain "
                    f"{bottom.size}, its generator's bottom has {bottoms[name]}")
    return None


def _boundary_report(cert: Certificate, name: str) -> Optional[Report]:
    """The report ``name`` of the certificate's boundary faults, one entry
    each, or None when its boundaries fit."""
    fault = step.mode_fault(cert.pres, cert.mode)
    out = [fault] if fault else []
    if cert.input.bot != cert.right.bot:
        out.append("input and extracted arrow have different codomains")
    if cert.left.dom != cert.input.top or cert.left.cod != cert.right.top:
        out.append("left factor boundaries do not match")
    if cert.beta0.cod != cert.right.top:
        out.append("algebra map does not land in the middle object")
    entry = _lift_table_problem(cert)
    if entry is not None:
        out.append(entry)
    return Report(name, tuple(ReportEntry("boundary", False, b) for b in out)) if out else None


def _aligned(table: LiftTable, blocks: list) -> list:
    """The problem blocks of a step (``problem_blocks``) with their fillers
    in the table: ``(name, count, tops, bots, fillers)``, where ``fillers``
    holds each problem's filler table, or None when the table has none.  A
    block the table holds as a run with the same key columns is read off
    the run's filler columns; any other is looked up key by key."""
    runs = {run[0]: (run, fillers) for run, fillers in zip(table.runs, table.filler_columns())}
    out = []
    for name, _, count, tops, bots in blocks:
        run, fillers = runs.get(name, (None, None))
        # the boundary check has matched the run's fillers to the bottom
        if run and run[2] == count and (
                list(map(tuple, run[3] + run[4])) == list(map(tuple, tops + bots))):
            rows = list(_rows(fillers, count))
        else:
            rows = list(map(table.filler_tables().get, _keys(name, tops, bots, count)))
        out.append((name, count, tops, bots, rows))
    return out


def _failing(entries: list):
    """A function that appends a failed entry to ``entries``."""
    return lambda label, detail: entries.append(ReportEntry(label, False, detail))


def check_algebra(cert: Certificate, budget: Optional[SizeBudget] = None,
                  engines: Optional[tuple] = None) -> Report:
    """Recompute the extension of the extracted arrow and verify the
    factorisation identity, the algebra laws of ``beta0`` (those of
    ``chain.algebra_violations``) and the agreement of the lift table with
    the algebra map.  Raises ``SizeBudgetExceeded`` when the lift table
    lists more problems than ``budget`` allows.  ``engines`` are the
    certificate's, from ``step.engines``, which ``verify_certificate``
    shares with ``check_compat``."""
    boundary = _boundary_report(cert, "check-algebra")
    if boundary:
        return boundary
    entries = [_entry_ok("boundary", 1, "certificates")]
    fail = _failing(entries)

    engine, dengine = engines or step.engines(cert.pres, cert.mode, budget)
    st = engine.step_tables(cert.right)
    check_listable(st.problem_count(), engine.budget, "lift table lists")

    recomposed, ft = compose(cert.right.map, cert.left).table, cert.input.map.table
    bad = _mismatches(recomposed, ft)
    for x in bad:
        fail("factorisation", f"element {x}: R(L({x})) = {recomposed[x]} != f({x}) = {ft[x]}")
    if not bad:
        entries.append(_entry_ok("factorisation", cert.input.top.size, "elements"))

    laws = algebra_violations(cert.right, cert.beta0, engine, dengine)
    law_labels = {label for label, _ in laws}
    for label, detail in laws:
        fail(label, detail)
    if "boundary" in law_labels:
        return Report("check-algebra", tuple(entries))
    if "unit-law" not in law_labels:
        entries.append(_entry_ok("unit-law", cert.right.top.size, "elements"))
    if cert.mode == "special" and "special-algebra-square" not in law_labels:
        entries.append(_entry_ok("special-algebra-square", 1, "equations"))
    if cert.mode == "plain":
        entries.append(ReportEntry("special-algebra-square", True, "skipped (plain mode)"))

    # the algebra route of every filler: beta0 after the copaired cells
    blocks = list(st.problem_blocks())
    routes = LiftTable(blocks, compose(cert.beta0, st.copaired())).filler_columns()
    blocks = _aligned(cert.lift_table, blocks)
    consistent = True
    for (name, count, tops, bots, rows), fillers in zip(blocks, routes):
        expected = list(_rows(fillers, count))
        if rows == expected:
            continue
        for key, got, route in zip(_keys(name, tops, bots, count), rows, expected):
            if got != route:
                consistent = False
                fail("filler-consistency", f"missing entry for problem {key}" if got is None
                     else f"problem {key}: table {got} != algebra route {route}")
    if consistent:
        entries.append(_entry_ok("filler-consistency", st.problem_count(), "problems"))
    return Report("check-algebra", tuple(entries))


# ---------------------------------------------------------------------------
# compatibility checks


def check_compat(cert: Certificate, budget: Optional[SizeBudget] = None,
                 engines: Optional[tuple] = None) -> Report:
    """Check every lifting problem of every generator against the
    extracted arrow: the fill equations, the square (horizontal)
    compatibilities, and — when the presentation composes vertical
    generators — the pair (vertical) compatibilities.  Raises
    ``SizeBudgetExceeded`` when the lift table lists more problems than
    ``budget`` allows; ``engines`` are as for ``check_algebra``.

    The problems are the key columns of the step's ``problem_blocks``,
    each aligned with its filler in the table; every equation is checked
    on whole columns, and moved, inner and outer fillers are found in the
    table's index of filler tables.  A block is walked problem by problem
    only to name what fails in it.  A filler whose boundaries do not fit
    its problem is a ``boundary`` failure, so the passes index only tables
    that fit."""
    boundary = _boundary_report(cert, "check-compat")
    if boundary:
        return boundary
    entries = []
    fail = _failing(entries)

    pres, table = cert.pres, cert.lift_table
    engine, _ = engines or step.engines(cert.pres, cert.mode, budget)
    st = engine.step_tables(cert.right)
    check_listable(st.problem_count(), engine.budget, "lift table lists")
    blocks = _aligned(table, list(st.problem_blocks()))
    project = cert.right.map.table.__getitem__
    fills_checked, complete = 0, True
    fill_ok = {"filler-fill-top": True, "filler-fill-bottom": True}
    gens = dict(pres.lifting_generators())
    for name, count, tops, bots, rows in blocks:
        ut = gens[name].map.table
        if None not in rows:
            fcols = list(zip(*rows))
            if (all(fcols[b] == tuple(tops[a]) for a, b in enumerate(ut)) and all(
                    tuple(map(project, col)) == tuple(bot) for col, bot in zip(fcols, bots))):
                fills_checked += count
                continue
        for key, pt in zip(_keys(name, tops, bots, count), rows):
            if pt is None:
                fail("lift-table-incomplete", f"no filler for problem {key}")
                complete = False
                continue
            fills_checked += 1
            if tuple(map(pt.__getitem__, ut)) != key[1]:
                fail("filler-fill-top",
                     f"problem {key}: filler does not restrict to the problem's top leg")
                fill_ok["filler-fill-top"] = False
            if tuple(map(project, pt)) != key[2]:
                fail("filler-fill-bottom",
                     f"problem {key}: filler does not project to the problem's bottom leg")
                fill_ok["filler-fill-bottom"] = False
    # problem keys are distinct, so a table holding only problem keys holds
    # exactly the fillers found above
    if len(table) != fills_checked:
        expected = chain.from_iterable(_keys(name, tops, bots, count)
                                       for name, count, tops, bots, _ in blocks)
        for key in sorted(set(table).difference(expected)):
            fail("lift-table-incomplete", f"surplus entry {key} matches no problem")
            complete = False
    if complete:
        entries.append(_entry_ok("lift-table-incomplete", st.problem_count(), "problems"))
    for label, ok in fill_ok.items():
        if ok:
            entries.append(_entry_ok(label, fills_checked, "fillers"))

    by_name = {block[0]: block for block in blocks}
    squares = pres.lifting_squares()
    double = getattr(pres, "kind", "plain") == "double"
    get = table.filler_tables().get if squares or double else None
    horiz_checked, horiz_ok = 0, True
    for sqname, vsrc, vdst, sq in squares:
        if vdst not in by_name:
            continue
        name, count, tops, bots, rows = by_name[vdst]
        top, bot = sq.top.table, sq.bot.table
        moved = list(map(get, _keys(vsrc, [tops[a] for a in top], [bots[b] for b in bot], count)))
        if None not in moved and None not in rows:
            fcols = list(zip(*rows))
            if list(_rows([fcols[b] for b in bot], count)) == moved:
                horiz_checked += count
                continue
        for key, phi_dst, phi_src in zip(_keys(name, tops, bots, count), rows, moved):
            if phi_src is None or phi_dst is None:
                continue  # already reported as incomplete
            horiz_checked += 1
            if tuple(map(phi_dst.__getitem__, bot)) != phi_src:
                fail("horizontal-compatibility",
                     f"square {sqname} at problem {key}: moved filler disagrees")
                horiz_ok = False
    if horiz_ok:
        entries.append(_entry_ok("horizontal-compatibility", horiz_checked, "instances"))

    if double:
        vert_checked, vert_ok = 0, True
        for pair in pres.composable_pairs().pairs:
            if pair.composite not in by_name:
                continue
            name, count, tops, bots, rows = by_name[pair.composite]
            rt = pres.uarrow(pair.right).map.table
            inner = list(map(get, _keys(pair.left, tops, [bots[b] for b in rt], count)))
            outer = list(map(get, zip(repeat(pair.right), inner, _rows(bots, count))))
            if outer == rows and None not in inner and None not in rows:
                vert_checked += count
                continue
            for key, phi_in, direct, phi_out in zip(_keys(name, tops, bots, count),
                                                    inner, rows, outer):
                if phi_in is None or direct is None:
                    continue
                vert_checked += 1
                if phi_out != direct:
                    vert_ok = False
                    fail("vertical-compatibility", f"pair {pair.name} at problem {key}: " + (
                        "no filler for the two-stage problem" if phi_out is None
                        else f"two-stage route {phi_out} != composite route {direct}"))
        if vert_ok:
            entries.append(_entry_ok("vertical-compatibility", vert_checked, "instances"))
    return Report("check-compat", tuple(entries))


def verify_certificate(cert: Certificate, budget: Optional[SizeBudget] = None) -> Report:
    """The full deterministic suite: algebra laws plus compatibilities, on
    one step.  A certificate whose boundaries do not fit gets one entry per
    fault, and nothing else."""
    boundary = _boundary_report(cert, "verify")
    if boundary:
        return boundary
    engines = step.engines(cert.pres, cert.mode, budget)
    reports = [check_algebra(cert, budget, engines), check_compat(cert, budget, engines)]
    return Report.merged("verify", reports)


# ---------------------------------------------------------------------------
# the correspondence oracle


def _fibres(g: ArrowObject) -> list:
    out = [[] for _ in range(g.bot.size)]
    for z, w in enumerate(g.map.table):
        out[w].append(z)
    return out


def _square_tables(src: ArrowObject, dst: ArrowObject):
    """Top and bottom tables of all squares src -> dst, bottom-major lexicographic order."""
    fib = _fibres(dst)
    for bot in itertools.product(range(dst.bot.size), repeat=src.bot.size):
        for top in itertools.product(*[fib[bot[w]] for w in src.map.table]):
            yield top, bot


def _commuting_squares(src: ArrowObject, dst: ArrowObject):
    """All squares src -> dst, in the order of ``_square_tables``."""
    for bot, squares in itertools.groupby(_square_tables(src, dst), key=itemgetter(1)):
        bot_map = FiniteMap(src.bot, dst.bot, bot)
        for top, _ in squares:
            yield CommSquare(src, dst, FiniteMap(src.top, dst.top, top), bot_map)


def _count_commuting_squares(src: ArrowObject, dst: ArrowObject) -> int:
    """The number of squares src -> dst, ∏_b Σ_w |dst⁻¹(w)|^|src⁻¹(b)|: each
    bottom point b picks its image w, each top point over b a point over w."""
    sizes = [len(over) for over in _fibres(dst)]
    return math.prod(sum(n ** len(over) for n in sizes) for over in _fibres(src))


def _problem_free_positions(struct) -> tuple[list, list]:
    """Every lifting problem of the structure, in canonical order, as (top
    table, bottom table, generator realisation, free filler positions), and
    the naturality class of each point of ∐ₚ Bₚ, by least member: for each
    connecting square ``sq: u' → u`` and problem ``p`` of ``u``, point ``b``
    of the moved problem ``p ∘ sq`` joins point ``sq.bot[b]`` of ``p``, by
    the oracle's own union-find, not the step's colimit."""
    gens, problems, spans = dict(struct.shape.lifting_generators()), [], {}
    for name, bottom, count, tops, bots in struct.problem_blocks():
        free = sorted(set(range(bottom.size)).difference(gens[name].map.table))
        spans[name] = range(len(problems), len(problems) + count)
        problems += [(s0, s1, gens[name], free) for s0, s1 in zip(_rows(tops, count), _rows(bots, count))]
    starts = list(itertools.accumulate((u.bot.size for _, _, u, _ in problems), initial=0))
    classes, squares = list(range(starts[-1])), struct.shape.lifting_squares()
    if not squares:
        return problems, classes

    def find(i: int) -> int:
        while classes[i] != i:
            classes[i] = i = classes[classes[i]]
        return i

    index = {(name, *problems[i][:2]): starts[i] for name, span in spans.items() for i in span}
    for _, vsrc, vdst, sq in squares:
        for i in spans.get(vdst, ()):
            s0, s1, _, _ = problems[i]
            moved = index[vsrc, _gather(s0, sq.top.table), _gather(s1, sq.bot.table)]
            for b, c in enumerate(sq.bot.table):
                low, high = sorted((find(moved + b), find(starts[i] + c)))
                classes[high] = low
    return problems, list(map(find, range(len(classes))))


def _filler_template(problems, base: CommSquare, classes) -> Optional[tuple[tuple, list]]:
    """The filler values over ``base`` at each class label (``classes`` as
    ``_problem_free_positions`` gives them): the value the class's forced
    entries agree on, and each free class once as (label, bottom point of
    ``g`` its fibre lies over).  None when two forced entries of a class
    differ: then ``base`` has no lifting."""
    bt, bb = base.top.table, base.bot.table
    values, slots, start = [None] * len(classes), [], 0
    for s0, s1, u, free in problems:
        for a, b in enumerate(u.map.table):
            c, v = classes[start + b], bt[s0[a]]
            if values[c] not in (None, v):
                return None
            values[c] = v
        slots.extend((start + b, bb[s1[b]]) for b in free if classes[start + b] == start + b)
        start += u.bot.size
    return tuple(values), [(c, w) for c, w in slots if values[c] is None]


def _lifting_tables(template, fib, classes):
    """The filler table over ∐ₚ Bₚ of each lifting a template allows,
    canonical order: each free class takes every point of its fibre, each
    point its class's value, read off the template's values and that choice."""
    values, slots = template
    at = {c: len(values) + i for i, (c, _) in enumerate(slots)}
    index = [at.get(c, c) for c in classes]
    pick = _gatherer(index)
    for combo in itertools.product(*[fib[w] for _, w in slots]):
        yield pick(values + combo)


def _enumerate_liftings(problems, base: CommSquare, fib, g: ArrowObject):
    """Every candidate lifting over a fixed base square, natural or not,
    canonical order: the listing the rejection reference filters."""
    classes = range(sum(u.bot.size for _, _, u, _ in problems))
    template = _filler_template(problems, base, classes)
    for table in () if template is None else _lifting_tables(template, fib, classes):
        yield OneStepLifting(base, FiniteMap(FinSet(len(table)), g.top, table))


def _random_lifting(rng, viable, fib, g: ArrowObject, classes):
    """A random lifting over one of the (base, filler template) pairs ``viable``."""
    base, (values, slots) = rng.choice(viable)
    values = list(values)
    for c, w in slots:
        values[c] = rng.choice(fib[w])
    return OneStepLifting(base, FiniteMap(FinSet(len(classes)), g.top, _gather(values, classes)))


def _round_trip(struct, t: CommSquare) -> bool:
    """Whether ``t`` is the square mediated from its own restriction; an
    engine error on the way counts as a mismatch."""
    try:
        return mediate(struct, restrict_square(struct, t)) == t
    except EngineError:
        return False


def _random_square(rng, src: ArrowObject, dst: ArrowObject, fib):
    while True:
        bot = tuple(rng.randrange(dst.bot.size) for _ in range(src.bot.size))
        choices = [fib[bot[src.map.table[x]]] for x in range(src.top.size)]
        if all(choices):
            top = tuple(rng.choice(c) for c in choices)
            return CommSquare(src, dst, FiniteMap(src.top, dst.top, top), FiniteMap(src.bot, dst.bot, bot))


# the most squares ``oracle_kappa`` lists one by one; above it, it samples
LIST_CAP = 20_000


def oracle_kappa(
    pres,
    f: ArrowObject,
    g: ArrowObject,
    bound: int = 2,
    budget: Optional[SizeBudget] = None,
    seed: int = 0,
    samples: int = 64,
) -> Report:
    """Check that squares out of the one-step extension of ``f`` into ``g``
    correspond exactly to lifting structures on ``f`` over ``g``.

    Both sides go through the step the engine uses (``step_tables``), whose
    problems are listed within the budget.  A lifting is a base square and
    one flat filler table over ∐ₚ Bₚ, in the structure's problem order,
    constant on each naturality class (``_problem_free_positions``), so the
    liftings over a base are counted exactly as a product of fibre sizes
    over its free classes, as the squares are by formula.  The step's cells
    are checked once, on whole tables, against the oracle's own problems
    and classes.  When the squares fit under ``LIST_CAP`` the bijection is
    checked exhaustively from the square side, through the kernels
    ``mediate`` and ``restrict_square`` wrap: each square is restricted once
    and must mediate back to itself.  Otherwise the two inverse identities
    are checked on a seeded sample from each side.  Cells that do not fit,
    and an engine error while mediating, count as failed identities.
    """
    for size in (f.top.size, f.bot.size, g.top.size, g.bot.size):
        if size > bound:
            raise SizeBudgetExceeded(f"oracle carrier size {size} exceeds the configured bound {bound}")
    engine, _ = step.engines(pres, "plain", budget)
    struct = engine.step_tables(f)
    check_listable(struct.problem_count(), budget, "oracle kappa lists")
    check_listable(_count_commuting_squares(f, g), budget, "oracle kappa lists", "base squares")
    fib = _fibres(g)
    problems, classes = _problem_free_positions(struct)
    # the step's cells on whole tables, against the oracle's own problems and
    # classes: constant on each class, each forced entry the inclusion of its
    # problem's top, and each cell over its problem's bottom
    cells, at, tops, bots = struct.copaired().table, [], [], []
    for s0, s1, u, _ in problems:
        at += [len(bots) + b for b in u.map.table]
        tops += s0
        bots += s1
    cells_fit = (len(cells) == len(classes) and _gather(cells, classes) == cells
                 and _gather(cells, at) == _gather(struct.inclusion.table, tops)
                 and _gather(struct.extended.map.table, cells) == tuple(bots))

    n_squares = _count_commuting_squares(struct.extended, g)
    # a natural lifting over a base fills each free class of its template from one fibre
    n_liftings, viable = 0, []  # viable: (base, template) with a lifting, by base
    for base in _commuting_squares(f, g):
        template = _filler_template(problems, base, classes)
        count = 0 if template is None else math.prod(len(fib[w]) for _, w in template[1])
        if count:
            n_liftings += count
            viable.append((base, template))

    if n_squares <= LIST_CAP:
        # The unit commutes by construction, so when the cells fit, the
        # restriction of every square is a natural lifting over its base.
        # mediate∘restrict = id on the listed squares makes restriction
        # injective, and equal counts (both by formula, the squares also
        # against the listing) make it a bijection, so restrict∘mediate = id
        # follows.
        inverse, listed = cells_fit, 0
        mediated, restricted, cod = _mediated_top, _restricted, g.top.size
        for top, _ in _square_tables(struct.extended, g):
            listed += 1
            try:
                back = mediated(struct, *restricted(struct, top), cod)
            except EngineError:
                back = None  # a round trip that raises is a miss
            inverse = back == top and inverse
        counted = listed == n_squares
        inverse = inverse and counted and n_squares == n_liftings
        how = f"exhaustive over {n_squares} squares and {n_liftings} liftings"
    else:
        rng, counted, inverse = random.Random(seed), True, cells_fit
        if viable:
            for _ in range(samples):
                lift = _random_lifting(rng, viable, fib, g, classes)
                try:
                    inverse = restrict_square(struct, mediate(struct, lift)) == lift and inverse
                except EngineError:
                    inverse = False
        if n_squares:
            for _ in range(samples):
                if not _round_trip(struct, _random_square(rng, struct.extended, g, fib)):
                    inverse = False
        how = f"sampled {samples} per side (seed {seed})"
    return Report("oracle-kappa", (
        ReportEntry("cardinality", n_squares == n_liftings and counted,
                    f"squares={n_squares} liftings={n_liftings}"),
        ReportEntry("two-sided-inverse", inverse, how)))


def small_arrows(bound: int) -> list:
    """Every map with carriers of at most ``bound`` points, by domain, codomain, then table."""
    return [ArrowObject(FiniteMap(FinSet(x), FinSet(y), t)) for x in range(bound + 1)
            for y in range(bound + 1) for t in itertools.product(range(y), repeat=x)]


# ---------------------------------------------------------------------------
# the initiality oracle


def oracle_initiality(
    cert: Certificate,
    targets: Optional[list] = None,
    budget: Optional[SizeBudget] = None,
) -> Report:
    """Check that the certificate's algebra maps uniquely into each target
    algebra: for every boundary square from the certified input into the
    target arrow there must be exactly one algebra morphism out of the
    extracted arrow extending it.

    ``targets`` is a list of (arrow, algebra map) pairs; by default the
    certificate's own algebra, for which the unique self-extension of the
    left factor must be the identity.  A certificate that fails ``verify``'s
    boundary checks gets those failures as its report, before any step is
    built.
    """
    boundary = _boundary_report(cert, "oracle-initiality")
    if boundary:
        return boundary
    engine, dengine = step.engines(cert.pres, cert.mode, budget)
    if targets is None:
        targets = [(cert.right, cert.beta0)]
    entries = []
    for ti, (g, bprime) in enumerate(targets):
        laws = algebra_violations(g, bprime, engine, dengine)
        if laws:
            details = "; ".join(f"{label}: {detail}" for label, detail in laws)
            entries.append(
                ReportEntry(f"target-{ti}-not-algebra", False, details)
            )
            continue
        check_listable(_count_commuting_squares(cert.right, g), budget,
                       "oracle initiality lists", "candidate squares")
        check_listable(_count_commuting_squares(cert.input, g), budget,
                       "oracle initiality lists", "boundary squares")
        morphisms = []
        for h in _commuting_squares(cert.right, g):
            th = engine.extend(h)
            if compose(h.top, cert.beta0) == compose(bprime, th.top):
                morphisms.append(h)
        # a morphism h extends the boundary square s exactly when h after
        # the left factor has s's tables, so count the morphisms by those
        # tables once, at the first boundary square
        squares_checked, unique, extensions = 0, True, None
        for s in _commuting_squares(cert.input, g):
            if extensions is None:
                extensions = Counter((compose(h.top, cert.left).table, h.bot.table)
                                     for h in morphisms)
            matching = extensions[s.top.table, s.bot.table]
            squares_checked += 1
            if matching != 1:
                unique = False
                entries.append(ReportEntry(f"target-{ti}-initiality", False, (
                    f"square (top={s.top.table}, bot={s.bot.table}) has "
                    f"{matching} algebra-morphism extensions, expected 1")))
        if unique:
            entries.append(ReportEntry(f"target-{ti}-initiality", True, (
                f"{squares_checked} boundary squares, each with a unique "
                f"extension among {len(morphisms)} algebra morphisms")))
    return Report("oracle-initiality", tuple(entries))
