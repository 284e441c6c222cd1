"""The algebra laws have one owner, ``chain.algebra_violations``.

``extract``, ``verify.check_algebra`` and ``oracle_initiality`` decide
whether a structure map ``beta: Tg -> g`` is an algebra through it.  It
compares each law on whole tables and walks the elements only to name the
ones that fail; ``reference_algebra_violations`` (``reference_step.py``)
walks every element, as the check did before it had one owner.  The
differential below asks both for the same (label, detail) pairs, in the
same order, on certificate algebras with one to three entries changed
(anywhere, or within the fibre they lie over, which keeps the map over the
codomain and so reaches the special law), on maps off the extension
carrier and, with the paired engine of the double presentation, on plain
algebras, which break the special law at many elements.  A map into
another carrier than ``g``'s is one ``boundary`` pair, where the walk
fails to compose.

``extract`` re-checks the laws of the algebra it reads off the chain and
refuses the first violation by name: a plain chain relabelled special
breaks the special law, and a structure square replaced by another
commuting square between the same stages breaks the unit law.
"""

import itertools
import random
from pathlib import Path

import pytest

import awfskit
from awfskit.chain import algebra_violations, detect_stabilisation, extract, factorise, run_plain, run_special
from awfskit.errors import CompositionError, DiagramError, NotStabilised, SizeBudgetExceeded
from awfskit.finset import FinSet, FiniteMap
from awfskit.step import DoubleEngine, SizeBudget, StepEngine
from awfskit.verify import _commuting_squares

from fixture_lib import (
    abc_pres,
    composite_pres,
    f_0to1,
    f_1to1,
    f_2to3,
    f_3to2,
    fmap,
    plain_split_epi_pres,
    split_epi_pres,
)
from reference_step import reference_algebra_violations
from test_step import _calls_in_src

SHAPES = [
    ("special", composite_pres),
    ("special", split_epi_pres),
    ("special", abc_pres),
    ("plain", composite_pres),
    ("plain", plain_split_epi_pres),
]
MAPS = [f_0to1, f_1to1, f_2to3, f_3to2, lambda: fmap(2, 1, [0, 0]), lambda: fmap(2, 2, [1, 0])]


def _cases():
    """(name, arrow, certificate algebra, step engine, paired engine or
    None) for every small factorisation of ``SHAPES``; a plain algebra of
    a double presentation is checked once more against its paired engine."""
    for (mode, make), f in itertools.product(SHAPES, MAPS):
        try:
            cert = factorise(make(), f(), mode=mode, max_stage=4,
                             budget=SizeBudget(max_problems=20_000))
        except (NotStabilised, SizeBudgetExceeded):
            continue
        name = f"{make.__name__}-{mode}-{f().table}"
        dengine = DoubleEngine(make()) if getattr(cert.pres, "kind", "plain") == "double" else None
        engine = dengine.single if mode == "special" else StepEngine(make())
        yield name, cert.right, cert.beta0, engine, dengine if mode == "special" else None
        if mode == "plain" and dengine is not None:
            yield name + "-paired", cert.right, cert.beta0, engine, dengine


def _betas(rng, g, beta0, count):
    """``beta0``, maps off the extension carrier, and ``count`` maps with
    one to three entries changed, half of them within their fibre."""
    yield beta0
    if beta0.cod.size:
        yield FiniteMap(FinSet(beta0.dom.size + 1), beta0.cod, beta0.table + (0,))
    if beta0.dom.size:
        yield FiniteMap(FinSet(beta0.dom.size - 1), beta0.cod, beta0.table[:-1])
    over = g.map.table
    fibres = {w: [z for z in range(len(over)) if over[z] == w] for w in set(over)}
    for _ in range(count if beta0.dom.size else 0):
        table = list(beta0.table)
        for i in rng.sample(range(len(table)), min(len(table), rng.randint(1, 3))):
            pool = fibres[over[table[i]]] if rng.random() < 0.5 else range(g.top.size)
            table[i] = rng.choice(pool)
        yield FiniteMap(beta0.dom, beta0.cod, tuple(table))


def _outcome(check, *args):
    """The (label, detail) pairs ``check`` returns, or its exception's type and message."""
    try:
        return check(*args)
    except Exception as exc:  # the differential compares failures too
        return type(exc), str(exc)


class TestOneOwnerNamesTheSameElements:
    def test_matches_the_per_element_walk(self):
        rng, compared, labels, multiple = random.Random(29), 0, set(), set()
        for name, g, beta0, engine, dengine in _cases():
            for beta in _betas(rng, g, beta0, 120):
                ours = _outcome(algebra_violations, g, beta, engine, dengine)
                assert ours == _outcome(reference_algebra_violations, g, beta, engine, dengine), name
                compared += 1
                found = {label for label, _ in ours}
                labels |= found
                if len(ours) > 1 and len(found) == 1:
                    multiple |= found
        assert compared >= 2_000
        # every law fails somewhere, and each at several elements of one map
        assert labels == multiple == {"unit-law", "boundary", "special-algebra-square"}

    def test_a_map_into_another_carrier_is_one_boundary_pair(self):
        for name, g, beta0, engine, dengine in itertools.islice(_cases(), 0, None, 4):
            beta = FiniteMap(beta0.dom, FinSet(beta0.cod.size + 1), beta0.table)
            assert algebra_violations(g, beta, engine, dengine) == [
                ("boundary", f"algebra map codomain {g.top.size + 1} != carrier {g.top.size}")]
            with pytest.raises(CompositionError):
                reference_algebra_violations(g, beta, engine, dengine)

    def test_one_owner_in_the_source(self):
        """Only the chain recursion and the owner build the special law's
        comparisons; ``ChainTrace.verify_laws`` re-checks the chain's own
        composition fork with them, in a form the recursion does not use."""
        for name in ("compose_comparison", "iterate_then"):
            assert sorted({call[:2] for call in _calls_in_src(name)}) == [
                ("chain", "advance"), ("chain", "algebra_violations"), ("chain", "verify_laws")]
        assert [call[:2] for call in _calls_in_src("algebra_violations")] == [
            ("chain", "extract"), ("verify", "check_algebra"), ("verify", "oracle_initiality")]
        source = "".join(p.read_text() for p in Path(awfskit.__file__).parent.glob("*.py"))
        for gone in ("special_algebra_routes", "beta_square", "_algebra_violations"):
            assert gone not in source


class TestExtractRefusals:
    def test_plain_chain_relabelled_special_breaks_the_special_law(self):
        trace = run_plain(composite_pres(), f_3to2(), max_stage=3)
        trace.double_engine = DoubleEngine(composite_pres())
        with pytest.raises(DiagramError) as caught:
            extract(trace)
        assert str(caught.value) == ("extracted algebra violates special-algebra-square: "
                                     "pair element 13: composite route 5 != two-stage route 3")

    @pytest.mark.parametrize("run", [run_plain, run_special], ids=["plain", "special"])
    def test_replaced_structure_square_breaks_the_unit_law(self, run):
        trace = run(composite_pres(), f_3to2(), max_stage=4)
        n = detect_stabilisation(trace)
        original, refused = trace.structure[n], 0
        squares = _commuting_squares(original.src, original.dst)
        for alt in itertools.islice((s for s in squares if s != original), 40):
            trace.structure[n] = alt
            with pytest.raises(DiagramError, match=r"^extracted algebra violates (unit-law|boundary): "):
                extract(trace)
            refused += 1
        trace.structure[n] = original
        assert refused == 40 and extract(trace).stage == n
