"""Acceptance suite: seven end-to-end criteria, one test and one
pass/fail line each.

Every expectation is exact — integer table identities, exact
cardinalities, exact stage numbers — with the only tolerances being the
two pinned wall-clock bounds (criterion 1: under 1 second, criterion 2:
under 60 seconds).  Random inputs are generated from fixed seeds.

The two chain fixtures referenced throughout are the shipped
presentations: the one-generator split-epi shape (a single vertical
arrow realised as the map from the empty carrier into a point) and the
three-generator composable-pair shape with carriers 1, 2, 3.  The
special-versus-plain differential (criterion 4) additionally needs a
presentation whose chain stabilises in both modes while its composite
genuinely constrains the fillers; the composable-pair shape whose
middle generator is realised as an identity map does exactly that.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from awfskit.arrows import ArrowObject, identity_square
from awfskit.chain import factorise, run_plain, run_special
from awfskit.errors import NotStabilised
from awfskit.finset import FinSet, FiniteMap, is_iso
from awfskit.serialize import decode_presentation, read_json
from awfskit.step import (
    DoubleEngine,
    SizeBudget,
    compose_mediated,
    enumerate_problems,
    iterate_mediated,
)
from awfskit.verify import (
    Certificate,
    check_algebra,
    check_compat,
    oracle_initiality,
    oracle_kappa,
    verify_certificate,
)

from fixture_lib import (
    abc_pres,
    composite_pres,
    f_3to2,
    fmap,
    growth_pres,
    plain_split_epi_pres,
    split_epi_pres,
)
from test_verify import _cert, _mutants

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _all_maps(max_size: int):
    """Every arrow of finite sets with both carriers at most ``max_size``."""
    out = []
    for x in range(max_size + 1):
        for y in range(max_size + 1):
            for table in itertools.product(range(y), repeat=x):
                out.append(ArrowObject(fmap(x, y, table)))
    return out


def test_criterion_1_split_epi_end_to_end():
    start = time.perf_counter()
    pres = plain_split_epi_pres()
    result = factorise(pres, f_3to2(), mode="plain", max_stage=2)
    assert result.stage == 1
    assert result.right.top.size == 5
    # the extracted arrow is the copairing of the input with the identity
    assert result.right.map.table == (0, 1, 0, 0, 1)
    cert = Certificate.from_result(pres, result)
    algebra = check_algebra(cert)
    compat = check_compat(cert)
    initial = oracle_initiality(cert)
    assert algebra.ok, [e.detail for e in algebra.failures()]
    assert compat.ok, [e.detail for e in compat.failures()]
    assert initial.ok, [e.detail for e in initial.failures()]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"
    print(
        f"criterion 1 split-epi end-to-end: PASS "
        f"(stage 1, middle carrier 5, all checks exact, {elapsed:.3f}s < 1s)"
    )


def test_criterion_2_kappa_bijection_exhaustive():
    start = time.perf_counter()
    arrows = _all_maps(2)
    assert len(arrows) == 11
    checked = 0
    for name in ("gen_split_epi.json", "gen_abc.json"):
        pres = decode_presentation(read_json(str(FIXTURES / name)))
        for f in arrows:
            for g in arrows:
                report = oracle_kappa(pres, f, g, bound=2)
                assert report.ok, (name, f.map.table, g.map.table, report.failures())
                checked += 1
    assert checked == 242
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, bound is 60s"
    print(
        f"criterion 2 kappa bijection: PASS "
        f"(242 pairs over both shipped presentations, exact, {elapsed:.1f}s < 60s)"
    )


def test_criterion_3_chain_law_suite():
    rng = random.Random(20260815)
    inputs = []
    while len(inputs) < 100:
        x = rng.randint(0, 4)
        y = rng.randint(0, 4)
        if y == 0:
            x = 0
        inputs.append(fmap(x, y, [rng.randrange(y) for _ in range(x)]))
    split = split_epi_pres()
    abc = abc_pres()
    # the three-generator chain legitimately reaches stages whose extension
    # adjoins ~430k cells; raise the size guard for these runs only
    budget = SizeBudget(max_problems=2_000_000)
    traces = 0
    for f in inputs:
        runs = [
            run_plain(split, f, max_stage=4, budget=budget),
            run_special(split, f, max_stage=3, budget=budget),
            run_plain(abc, f, max_stage=2, budget=budget),
        ]
        if f.dom.size * f.cod.size <= 2:
            runs.append(run_special(abc, f, max_stage=3, budget=budget))
        for trace in runs:
            assert trace.verify_laws() == [], (f.table, trace.mode)
            # stabilisation propagates: once a connecting square is
            # invertible on top, every later one in the trace is too
            for n in range(len(trace.connect) - 1):
                if is_iso(trace.connect[n].top) is not None:
                    assert is_iso(trace.connect[n + 1].top) is not None, (f.table, n)
            traces += 1
    print(
        f"criterion 3 chain laws: PASS "
        f"(100 seeded inputs, {traces} traces, unit/fork/propagation exact)"
    )


def test_criterion_4_special_vs_plain_differential():
    pres = composite_pres()
    plain_cert = _cert(pres, f_3to2(), "plain", 2)
    special_cert = _cert(pres, f_3to2(), "special", 4)

    plain_compat = check_compat(plain_cert)
    vertical_failures = [
        e for e in plain_compat.failures() if e.label == "vertical-compatibility"
    ]
    assert vertical_failures, "plain mode must violate the composite condition"

    special_report = verify_certificate(special_cert)
    assert special_report.ok, [e.detail for e in special_report.failures()]
    vertical_entries = [
        e for e in special_report.entries if e.label == "vertical-compatibility"
    ]
    assert vertical_entries and all(e.ok for e in vertical_entries)
    print(
        f"criterion 4 special-vs-plain differential: PASS "
        f"({len(vertical_failures)} plain-mode violations, special mode clean)"
    )


def _comparison_equations(pres, f: ArrowObject, route: str) -> int:
    """Check both comparison squares against their defining per-cell
    equations for every composable pair and every enumerated problem;
    returns the number of problems checked."""
    dengine = DoubleEngine(pres)
    engine = dengine.single
    if route == "mediated":
        gam, lam = compose_mediated(dengine, f), iterate_mediated(dengine, f)
    else:
        gam = dengine.compose_comparison(f)
        lam = dengine.iterate_then(f, identity_square(engine.step_tables(f).extended))
    s_pair = dengine.paired.step_tables(f)
    s1 = engine.step_tables(f)
    s11 = engine.step_tables(s1.extended)
    gt, lt = gam.top.table, lam.top.table
    k_pair = s_pair.inclusion.table
    k1, k11 = s1.inclusion.table, s11.inclusion.table
    assert gam.bot.table == tuple(range(f.bot.size))
    assert lam.bot.table == tuple(range(f.bot.size))
    for v in range(f.top.size):
        assert gt[k_pair[v]] == k1[v]
        assert lt[k_pair[v]] == k11[k1[v]]
    checked = 0
    for name, u in dengine.pairs.lifting_generators():
        pair = dengine.pairs.pair(name)
        right_u = pres.uarrow(pair.right)
        rt = right_u.map.table
        for p in enumerate_problems(name, u, f):
            _, s0, s1t = p.key
            cell = s_pair.cell(p.key).table
            composite_cell = s1.cell((pair.composite, s0, s1t)).table
            assert tuple(gt[c] for c in cell) == composite_cell
            inner = s1.cell(
                (pair.left, s0, tuple(s1t[rt[b]] for b in range(right_u.top.size)))
            )
            outer = s11.cell((pair.right, inner.table, s1t)).table
            assert tuple(lt[c] for c in cell) == outer
            checked += 1
    return checked


def test_criterion_5_comparison_equation_suite():
    fixtures = [split_epi_pres(), abc_pres(), composite_pres()]
    checked_direct = 0
    checked_mediated = 0
    for pres in fixtures:
        for f in _all_maps(3):
            checked_direct += _comparison_equations(pres, f, "fast")
        for f in _all_maps(2):
            checked_mediated += _comparison_equations(pres, f, "mediated")
    assert checked_direct > 0 and checked_mediated > 0
    print(
        f"criterion 5 comparison equations: PASS "
        f"({checked_direct} problems direct, {checked_mediated} mediated, exact)"
    )


def test_criterion_6_honest_non_termination():
    with pytest.raises(NotStabilised) as exc:
        factorise(growth_pres(), fmap(1, 1, [0]), mode="plain", max_stage=5)
    sizes = exc.value.sizes
    assert sizes == [1, 2, 3, 4, 5, 6]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    print(
        f"criterion 6 honest non-termination: PASS "
        f"(NotStabilised at max stage 5, strictly increasing sizes {sizes})"
    )


def test_criterion_7_mutation_sensitivity():
    certs = [
        _cert(plain_split_epi_pres(), f_3to2(), "plain", 2),
        _cert(split_epi_pres(), f_3to2(), "special", 3),
        _cert(composite_pres(), f_3to2(), "special", 4),
    ]
    total = 0
    undetected = []
    for cert in certs:
        for desc, mutant in _mutants(cert):
            total += 1
            if verify_certificate(mutant).ok:
                undetected.append(desc)
    assert total >= 200, f"only {total} mutations generated"
    assert undetected == [], f"silently accepted: {undetected}"
    print(
        f"criterion 7 mutation sensitivity: PASS "
        f"({total} single-entry mutations, every one detected)"
    )
