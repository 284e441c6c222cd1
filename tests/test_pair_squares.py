"""Special mode on the free pair extension against the pair shape with
pair squares.

The engine's pair step has one block of cells per problem of each
composable pair and no connecting squares.  Stacked squares of the
presentation would connect the pair problems; ``reference_step`` keeps
that shape (``pairs_with_squares``) and a ``DoubleEngine`` that runs on
it.  The pair extension is only ever the domain of squares that the chain
coequalises and that ``extract`` and ``verify`` compare, and the quotient
map onto the connected extension is surjective, so the two engines must
give the same chain tables, the same certificate and the same verify
report.
"""

import dataclasses

import pytest

from awfskit.arrows import ArrowObject
from awfskit.chain import ChainTrace, extract, factorise
from awfskit.errors import EngineError
from awfskit.step import DoubleEngine, SizeBudget
from awfskit.verify import Certificate, Report, check_algebra, check_compat, verify_certificate

from fixture_lib import (
    abc_pres,
    composite_pres,
    f_0to1,
    f_1to1,
    f_2to3,
    f_3to2,
    fmap,
    pair_square_pres,
    retract_pres,
    split_epi_pres,
    square_pres,
    uniform_monos_pres,
)
from reference_step import pairs_with_squares, reference_double_engine

MAX_STAGE = 4
BUDGET = SizeBudget(2_000)
MAPS = [f_3to2(), f_1to1(), f_0to1(), f_2to3()]
# one map per pair of carrier sizes up to 3, and one larger map
UNIFORM_MAPS = [fmap(x, y, [i % y for i in range(x)])
                for y in range(4) for x in range(4) if y or not x]
UNIFORM_MAPS.append(fmap(10, 3, [i % 3 for i in range(10)]))
SHAPES = {
    "uniform2": uniform_monos_pres(2),
    "square": square_pres(),
    "pair_square": pair_square_pres(),
    "split_epi": split_epi_pres(),
    "abc": abc_pres(),
    "composite": composite_pres(),
    "retract": retract_pres(),
}
CASES = [("uniform2", f) for f in UNIFORM_MAPS]
CASES += [(name, f) for name in sorted(SHAPES) if name != "uniform2" for f in MAPS]


def _run(pres, f, dengine: DoubleEngine):
    """The special chain on ``dengine``, and what extracting it gives: the
    certificate with its verify report on ``dengine``, or the error text
    when the chain or the extraction stops."""
    trace = ChainTrace(dengine.single, [f], dengine)
    try:
        cert = Certificate.from_result(pres, extract(trace.advance(MAX_STAGE)))
    except EngineError as exc:
        return trace, f"{type(exc).__name__}: {exc}"
    engines = (dengine.single, dengine)
    report = Report.merged("verify", [check_algebra(cert, None, engines),
                                      check_compat(cert, None, engines)])
    return trace, (cert.stage, cert.left, cert.right, cert.beta0,
                   dict(cert.lift_table.filler_tables()), report)


def test_the_reference_shapes_have_pair_squares():
    counts = {name: len(pairs_with_squares(pres).pair_squares) for name, pres in SHAPES.items()}
    assert counts == {"uniform2": 188, "square": 1, "pair_square": 1, "split_epi": 0,
                      "abc": 0, "composite": 0, "retract": 0}
    assert all(pres.composable_pairs().lifting_squares() == [] for pres in SHAPES.values())


@pytest.mark.parametrize("name,f", CASES,
                         ids=[f"{n}-{f.dom.size}to{f.cod.size}" for n, f in CASES])
def test_free_pair_extension_matches_pair_squares(name, f):
    pres, target = SHAPES[name], ArrowObject(f)
    trace, outcome = _run(pres, target, DoubleEngine(pres, BUDGET))
    ref_trace, ref_outcome = _run(pres, target, reference_double_engine(pres, BUDGET))
    assert trace.stages == ref_trace.stages
    assert trace.structure == ref_trace.structure
    assert trace.connect == ref_trace.connect
    assert outcome == ref_outcome


# The algebra of a plain chain on ``pair_square_pres`` fills the pair a*b
# one way through its composite c and another way in two stages, so the
# special law fails; the details number points of the pair extension.
NON_SPECIAL = [
    (fmap(1, 1, [0]), "pair element 6: composite route 2 != two-stage route 1"),
    (fmap(2, 1, [0, 0]), "pair element 7: composite route 3 != two-stage route 2"),
    (fmap(0, 1, []), "pair element 5: composite route 1 != two-stage route 0"),
]


@pytest.mark.parametrize("f,detail", NON_SPECIAL, ids=["1to1", "2to1", "0to1"])
def test_verify_rejects_a_plain_algebra_where_pair_squares_exist(f, detail):
    pres = pair_square_pres()
    result = factorise(pres, ArrowObject(f), "plain")
    cert = dataclasses.replace(Certificate.from_result(pres, result), mode="special")
    report = verify_certificate(cert)
    assert [e.detail for e in report.failures() if e.label == "special-algebra-square"] == [
        detail]
