"""The one-pass oracles against the listings they replaced.

``oracle_kappa`` checks the correspondence between squares out of the
one-step extension and liftings from the square side, on tables: it
checks the step's cells once against its own classes, then restricts each
square once and mediates it back, through the kernels ``mediate`` and
``restrict_square`` wrap, and compares the counts.
``reference_kappa`` below is the object-level listing that checks the four
identities separately: the counts, restrict∘mediate = id on the liftings,
the mediated multiset against the squares, and mediate∘restrict = id on
the squares (restricting and mediating every square a second time).  With
connecting squares it lists every candidate filler table and keeps those
``mediate`` accepts, so its count is the rejection count that the
oracle's count by naturality class must equal.  The two must give
byte-identical reports on every exhaustive pair with carriers ≤ 2 of eight
presentations (the heavy ``gen_abc`` pairs among them) and with carriers
≤ 1 of ``uniform2``, whose candidate tables are slow to list, and the
same verdicts under four mutants, of the two kernels and of the square
listing, each of which must fail ``two-sided-inverse`` without raising.

``oracle_initiality`` counts the algebra morphisms by the tables of their
restriction along the left factor; ``reference_initiality`` recomposes
every morphism for every boundary square.  Their reports must be equal,
failure entries included, in order.
"""

import itertools
from collections import Counter

import pytest

from awfskit import step, verify
from awfskit.chain import factorise
from awfskit.errors import DiagramError, EngineError, NonNaturalLifting, SizeBudgetExceeded
from awfskit.finset import FinSet, FiniteMap, compose
from awfskit.serialize import dumps
from awfskit.step import SizeBudget, StepEngine
from awfskit.verify import (Certificate, Report, ReportEntry, oracle_initiality, oracle_kappa,
                            small_arrows)

from fixture_lib import (
    abc_pres,
    codiag_pres,
    composite_pres,
    f_3to2,
    fmap,
    pair_square_pres,
    plain_split_epi_pres,
    retract_pres,
    split_epi_pres,
    square_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)
from reference_step import reference_algebra_violations
from test_verify import arr


def count_liftings(problems, base, fib_sizes) -> int:
    """The reference's own count of the liftings over ``base``: the product
    of the fibre sizes over every free filler entry, or 0 when a generator
    that is not injective forces one entry two different ways."""
    bt, bb = base.top.table, base.bot.table
    total = 1
    for s0, s1, u, free in problems:
        forced = {}
        for a, b in enumerate(u.map.table):
            if forced.setdefault(b, bt[s0[a]]) != bt[s0[a]]:
                return 0
        for b in free:
            total *= fib_sizes[bb[s1[b]]]
    return total


def reference_kappa(pres, f, g, bound=2, budget=None):
    """The exhaustive branch of ``oracle_kappa`` as four separate
    identities; a restriction that raises is a failed identity.  Engine
    functions are looked up on ``verify``, so the mutants below reach both."""
    for size in (f.top.size, f.bot.size, g.top.size, g.bot.size):
        if size > bound:
            raise SizeBudgetExceeded(f"oracle carrier size {size} exceeds the configured bound {bound}")
    struct = StepEngine(pres, budget).step(f)
    fib = verify._fibres(g)
    fib_sizes = [len(c) for c in fib]
    problems, _ = verify._problem_free_positions(struct)
    bases = list(verify._commuting_squares(f, g))
    has_squares = bool(pres.lifting_squares())
    n_squares = verify._count_commuting_squares(struct.extended, g)
    n_liftings = None if has_squares else sum(
        count_liftings(problems, base, fib_sizes) for base in bases)
    listable = n_squares <= verify.LIST_CAP and (n_liftings is None or n_liftings <= verify.LIST_CAP)
    if not listable:
        raise SizeBudgetExceeded("not listable")  # both sides share the sampled branch
    squares = list(verify._commuting_squares(struct.extended, g))
    liftings, mediated = [], []
    for base in bases:
        for lift in verify._enumerate_liftings(problems, base, fib, g):
            try:
                mediated.append(verify.mediate(struct, lift))
            except NonNaturalLifting:
                continue
            liftings.append(lift)
    ok_counts = len(squares) == n_squares and (n_liftings is None or n_liftings == len(liftings))
    n_liftings = len(liftings)

    def restricts_to(t, lift):
        try:
            return verify.restrict_square(struct, t) == lift
        except EngineError:
            return False

    ok_back = all(restricts_to(t, lift) for lift, t in zip(liftings, mediated))
    ok_forward = sorted((t.top.table, t.bot.table) for t in mediated) == sorted(
        (t.top.table, t.bot.table) for t in squares)
    ok_forward = ok_forward and all(verify._round_trip(struct, t) for t in squares)
    return Report("oracle-kappa", (
        ReportEntry("cardinality", n_squares == n_liftings and ok_counts,
                    f"squares={n_squares} liftings={n_liftings}"),
        ReportEntry("two-sided-inverse", ok_back and ok_forward,
                    f"exhaustive over {n_squares} squares and {n_liftings} liftings")))


def outcome(oracle, *args):
    try:
        return dumps(oracle(*args).to_payload())
    except SizeBudgetExceeded as e:
        return f"budget: {e}"
    except EngineError as e:
        return f"error: {type(e).__name__}: {e}"


def verdicts(report):
    return {e.label: e.ok for e in report.entries}


HEAVY = [(arr(1, 2, [0]), arr(2, 2, [0, 0])), (arr(2, 1, [0, 0]), arr(2, 1, [0, 0]))]


# presentation, carrier bound, and how many of its pairs give an exhaustive
# report, a sampled one (not compared: the reference lists exhaustively) or
# an engine error.
DIFFERENTIAL = {
    "split_epi": (split_epi_pres, 2, {"exhaustive": 121}),
    "two_gen_plain": (two_gen_plain_pres, 2, {"exhaustive": 121}),
    "composite": (composite_pres, 2, {"exhaustive": 121}),
    "abc": (abc_pres, 2, {"exhaustive": 109, "sampled": 12}),
    "retract": (retract_pres, 2, {"exhaustive": 121}),
    "codiag": (codiag_pres, 2, {"exhaustive": 121}),
    "square": (square_pres, 2, {"exhaustive": 121}),
    "pair_square": (pair_square_pres, 2, {"exhaustive": 121}),
    "uniform2": (lambda: uniform_monos_pres(2), 1, {"exhaustive": 9}),
}


class TestKappaDifferential:
    @pytest.mark.parametrize("pres", sorted(DIFFERENTIAL))
    def test_small_pairs_give_identical_reports(self, pres):
        build, bound, expected = DIFFERENTIAL[pres]
        shape, kinds = build(), Counter()
        for f, g in itertools.product(small_arrows(bound), repeat=2):
            ours = outcome(oracle_kappa, shape, f, g)
            kind = ("error" if ours.startswith("error") else
                    "exhaustive" if "exhaustive over" in ours else "sampled")
            kinds[kind] += 1
            if kind != "sampled":
                assert ours == outcome(reference_kappa, shape, f, g), (f, g)
        assert kinds == expected

    def test_entries_forced_two_ways_must_agree(self):
        """A generator that is not injective (``d: 2→1`` of retract, the
        codiagonal of codiag) forces one filler entry twice; a base square
        that forces it two different ways has no lifting, so every one of
        the 242 pairs reports equal cardinalities and none raises."""
        for build in (retract_pres, codiag_pres):
            shape = build()
            for f, g in itertools.product(small_arrows(2), repeat=2):
                report = oracle_kappa(shape, f, g)
                assert report.ok, (build.__name__, f, g)
        report = oracle_kappa(retract_pres(), arr(2, 1, [0, 0]), arr(2, 1, [0, 0]))
        assert report.entries[0].detail == "squares=128 liftings=128"

    @pytest.mark.parametrize("f, g", HEAVY, ids=["1to2-into-2to2", "2to1-into-2to1"])
    def test_heavy_abc_pairs_give_identical_reports(self, f, g):
        report = oracle_kappa(abc_pres(), f, g)
        assert report.ok and "exhaustive" in report.entries[1].detail
        assert dumps(report.to_payload()) == dumps(reference_kappa(abc_pres(), f, g).to_payload())


def _mediate_merging(real, f, g):
    """The kernel of ``mediate`` giving every natural lifting the first
    one's top table."""
    seen = []

    def mutant(*args):
        seen.append(real(*args))
        return seen[0]

    return mutant


def _restrict_raising(real, f, g):
    """The kernel of ``restrict_square`` raising on the last square out of
    the extension."""
    victim = []

    def mutant(struct, top):
        if not victim:
            victim.extend(verify._square_tables(struct.extended, g))
        if top == victim[-1][0]:
            raise DiagramError("restriction refused")
        return real(struct, top)

    return mutant


def _squares_listed(times):
    """``_square_tables`` listing its first square out of the extension
    ``times`` times.  (Repeating a base square repeats its liftings too,
    which the multiset comparison of the four-identity listing can miss;
    both then still fail ``cardinality``.)"""
    def factory(real, f, g):
        def mutant(src, dst):
            squares = real(src, dst)
            first = None if src is f else next(squares, None)
            if first is not None:
                yield from [first] * times
            yield from squares

        return mutant

    return factory


# each mutant replaces a name in every module that binds it: the kernels are
# called by ``oracle_kappa`` and, inside ``mediate`` and ``restrict_square``,
# by the reference
MUTANTS = {"mediate-merging": ("_mediated_top", _mediate_merging),
           "restrict-raising": ("_restricted", _restrict_raising),
           "square-repeated": ("_square_tables", _squares_listed(2)),
           "square-dropped": ("_square_tables", _squares_listed(0))}
MUTANT_PAIRS = [
    (plain_split_epi_pres(), arr(1, 1, [0]), arr(2, 1, [0, 0])),
    (split_epi_pres(), arr(2, 2, [0, 1]), arr(2, 1, [0, 0])),
    (two_gen_plain_pres(), arr(2, 2, [0, 1]), arr(2, 1, [0, 0])),
]


class TestKappaMutants:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    @pytest.mark.parametrize("case", range(len(MUTANT_PAIRS)))
    def test_both_fail_two_sided_inverse_alike(self, name, case, monkeypatch):
        args, (attr, factory) = MUTANT_PAIRS[case], MUTANTS[name]
        assert oracle_kappa(*args).ok
        real = getattr(verify, attr)

        def install():
            mutant = factory(real, *args[1:])
            for module in (step, verify):
                if getattr(module, attr, None) is real:
                    monkeypatch.setattr(module, attr, mutant)

        install()
        ours = verdicts(oracle_kappa(*args))
        monkeypatch.undo()
        install()
        assert ours == verdicts(reference_kappa(*args))
        assert ours["two-sided-inverse"] is False


def reference_initiality(cert, targets=None, budget=None):
    """``oracle_initiality`` matching every boundary square against every
    algebra morphism by recomposing it along the left factor."""
    limit = (budget or SizeBudget()).max_problems
    engine, dengine = step.engines(cert.pres, cert.mode, budget)
    entries = []
    for ti, (g, bprime) in enumerate(targets or [(cert.right, cert.beta0)]):
        laws = reference_algebra_violations(g, bprime, engine, dengine)
        if laws:
            entries.append(ReportEntry(f"target-{ti}-not-algebra", False,
                                       "; ".join(f"{label}: {detail}" for label, detail in laws)))
            continue
        n_candidates = verify._count_commuting_squares(cert.right, g)
        if n_candidates > limit:
            raise SizeBudgetExceeded(f"{n_candidates} candidate squares")
        morphisms = [h for h in verify._commuting_squares(cert.right, g)
                     if compose(h.top, cert.beta0) == compose(bprime, engine.extend(h).top)]
        checked, unique = 0, True
        for s in verify._commuting_squares(cert.input, g):
            matching = [h for h in morphisms
                        if compose(h.top, cert.left) == s.top and h.bot == s.bot]
            checked += 1
            if len(matching) != 1:
                unique = False
                entries.append(ReportEntry(
                    f"target-{ti}-initiality", False,
                    f"square (top={s.top.table}, bot={s.bot.table}) has "
                    f"{len(matching)} algebra-morphism extensions, expected 1"))
        if unique:
            entries.append(ReportEntry(
                f"target-{ti}-initiality", True,
                f"{checked} boundary squares, each with a unique "
                f"extension among {len(morphisms)} algebra morphisms"))
    return Report("oracle-initiality", tuple(entries))


def _cert(pres, f, mode, max_stage):
    return Certificate.from_result(pres, factorise(pres, f, mode=mode, max_stage=max_stage))


@pytest.fixture(scope="module")
def certs():
    return {
        "plain": _cert(plain_split_epi_pres(), f_3to2(), "plain", 2),
        "double": _cert(split_epi_pres(), f_3to2(), "special", 3),
        "composite": _cert(composite_pres(), f_3to2(), "special", 4),
        "composite-2to2": _cert(composite_pres(), fmap(2, 2, [0, 1]), "special", 4),
    }


def _with_left(cert, table):
    return Certificate(cert.pres, cert.mode, cert.input, FiniteMap(cert.left.dom, cert.left.cod,
                       tuple(table)), cert.right, cert.beta0, cert.lift_table)


# the collapse of two points onto one with the adjoined cell sent to 1 is an
# algebra for the plain split-epi certificate
COLLAPSE = (arr(2, 1, [0, 0]), FiniteMap(FinSet(3), FinSet(2), (0, 1, 1)))


class TestInitialityReference:
    @pytest.mark.parametrize("name", ["plain", "double", "composite", "composite-2to2"])
    def test_fixture_certificates(self, certs, name):
        report = oracle_initiality(certs[name])
        assert report.ok
        assert report == reference_initiality(certs[name])

    def test_hand_built_targets(self, certs):
        cert = certs["plain"]
        targets = [COLLAPSE, (cert.right, cert.beta0), (arr(2, 1, [0, 0]),
                   FiniteMap(FinSet(3), FinSet(2), (0, 0, 0)))]
        report = oracle_initiality(cert, targets=targets)
        assert [e.ok for e in report.entries] == [True, True, False]
        assert report == reference_initiality(cert, targets)

    def test_squares_with_no_or_several_extensions(self, certs):
        # a left factor sending 2 where 0 goes: boundary squares that tell 0
        # and 2 apart extend to no morphism, and some others to several
        cert = certs["plain"]
        wrong = _with_left(cert, (0, 1, 0))
        for targets in ([COLLAPSE], None):
            report = oracle_initiality(wrong, targets=targets)
            assert report == reference_initiality(wrong, targets)
            counts = Counter(e.detail.split(" has ")[1].split()[0]
                             for e in report.failures())
            assert counts and not report.ok
        assert "0" in counts and max(map(int, counts)) >= 2

    def test_matching_composes_each_morphism_once(self, certs, monkeypatch):
        for cert in certs.values():
            calls = []

            def counted(g, f, _real=verify.compose):
                if f is cert.left:
                    calls.append(g)
                return _real(g, f)

            monkeypatch.setattr(verify, "compose", counted)
            report = oracle_initiality(cert)
            morphisms = int(report.entries[0].detail.split(" among ")[1].split()[0])
            assert 0 < len(calls) <= morphisms
            monkeypatch.undo()

    def test_budget_goes_through_the_shared_listing_check(self, certs):
        with pytest.raises(SizeBudgetExceeded, match=(
                r"^oracle initiality lists \d+ candidate squares, budget allows 10$")):
            oracle_initiality(certs["plain"], budget=SizeBudget(max_problems=10))
