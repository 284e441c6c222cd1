"""Tests for certificate verification and the two oracles.

The mutation corpus is systematic, not sampled: every entry of the
algebra map, every entry of every lift-table filler, every entry of the
middle arrow's map, and every entry of the input map is replaced by
every other value in range, over three passing certificates — 228
mutants in all — and each one must produce a non-empty failure report.
Mutations of the left factor are deliberately excluded: replacing
L(0) = 0 by 3 in the split-epi certificate still satisfies R(L(x)) =
f(x) (both carrier points 0 and 3 sit over the same codomain point and
the algebra does not constrain which section the left factor picks), so
such a mutant is a genuinely different but valid certificate that no
sound checker may reject.

Frozen oracle counts, computed by hand: over the one-generator
split-epi shape with f = g = the identity on one point, the extension
carrier is 2 and the codomain fibre is a single point, so there is
exactly one square and one lifting; with g the two-point collapse onto
one point there are 2 top choices for the base and 2 filler choices,
against 2x2 assignments of the extension's two elements — four each.
"""

import dataclasses
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from awfskit import step as step_module
from awfskit import verify
from awfskit.arrows import ArrowObject, CommSquare, identity_square, square_compose
from awfskit.chain import LiftTable, factorise
from awfskit.errors import DiagramError, NotStabilised, SizeBudgetExceeded
from awfskit.finset import FinSet, FiniteMap, compose, identity
from awfskit.serialize import decode_certificate, dumps, encode_certificate, parse_text
from awfskit.step import DoubleEngine, SizeBudget, StepEngine, enumerate_problems
from awfskit.verify import (
    Certificate,
    Report,
    ReportEntry,
    check_algebra,
    check_compat,
    oracle_initiality,
    oracle_kappa,
    verify_certificate,
)

from fixture_lib import (
    abc_pres,
    codiag_pres,
    composite_pres,
    f_0to1,
    f_1to1,
    f_2to3,
    f_3to2,
    fmap,
    growth_pres,
    pair_square_pres,
    plain_split_epi_pres,
    retract_pres,
    split_epi_pres,
    two_gen_plain_pres,
    uniform_monos_pres,
)
from reference_step import reference_algebra_violations


def arr(x, y, table) -> ArrowObject:
    return ArrowObject(fmap(x, y, table))


def _cert(pres, f, mode, max_stage):
    return Certificate.from_result(pres, factorise(pres, f, mode=mode, max_stage=max_stage))


@pytest.fixture(scope="module")
def certs():
    return {
        "plain": _cert(plain_split_epi_pres(), f_3to2(), "plain", 2),
        "double": _cert(split_epi_pres(), f_3to2(), "special", 3),
        "composite": _cert(composite_pres(), f_3to2(), "special", 4),
    }


@pytest.fixture(scope="module")
def square_certs():
    """Special certificates of presentations with squares: the special fork
    of ``pair_square_pres`` merges cells, and ``uniform_monos_pres(2)``
    has squares between its injections."""
    return {
        "pair_square": _cert(pair_square_pres(), f_3to2(), "special", 4),
        "uniform2": _cert(uniform_monos_pres(2), fmap(2, 1, [0, 0]), "special", 6),
    }


def _with(cert, **kw):
    fields = dict(
        pres=cert.pres, mode=cert.mode, input=cert.input, left=cert.left,
        right=cert.right, beta0=cert.beta0, lift_table=dict(cert.lift_table),
        stage=cert.stage, trace_sizes=cert.trace_sizes,
    )
    fields.update(kw)
    return Certificate(**fields)


def _mutants(cert):
    """Every single-entry mutation of the checked tables."""
    size = cert.right.top.size
    for i, v in enumerate(cert.beta0.table):
        for w in range(size):
            if w != v:
                tab = list(cert.beta0.table)
                tab[i] = w
                yield f"beta0[{i}]={w}", _with(
                    cert, beta0=FiniteMap(cert.beta0.dom, cert.beta0.cod, tuple(tab))
                )
    for key in sorted(cert.lift_table):
        val = cert.lift_table[key]
        for i, v in enumerate(val.table):
            for w in range(size):
                if w != v:
                    tab = list(val.table)
                    tab[i] = w
                    table = dict(cert.lift_table)
                    table[key] = FiniteMap(val.dom, val.cod, tuple(tab))
                    yield f"lift[{key}][{i}]={w}", _with(cert, lift_table=table)
    y = cert.right.bot.size
    for i, v in enumerate(cert.right.map.table):
        for w in range(y):
            if w != v:
                tab = list(cert.right.map.table)
                tab[i] = w
                yield f"R[{i}]={w}", _with(
                    cert, right=ArrowObject(FiniteMap(cert.right.top, cert.right.bot, tuple(tab)))
                )
    for i, v in enumerate(cert.input.map.table):
        for w in range(cert.input.bot.size):
            if w != v:
                tab = list(cert.input.map.table)
                tab[i] = w
                yield f"f[{i}]={w}", _with(
                    cert, input=ArrowObject(FiniteMap(cert.input.top, cert.input.bot, tuple(tab)))
                )


class TestPassingCertificates:
    def test_all_fixture_certificates_pass(self, certs):
        for name, cert in certs.items():
            report = verify_certificate(cert)
            assert report.ok, (name, [e.detail for e in report.failures()])

    def test_plain_mode_skips_special_square(self, certs):
        report = check_algebra(certs["plain"])
        labels = {e.label: e for e in report.entries}
        assert labels["special-algebra-square"].ok
        assert "skipped" in labels["special-algebra-square"].detail

    def test_reports_are_byte_identical(self, certs):
        again = _cert(composite_pres(), f_3to2(), "special", 4)
        assert dumps(verify_certificate(certs["composite"]).to_payload()) == dumps(
            verify_certificate(again).to_payload()
        )
        one = oracle_kappa(plain_split_epi_pres(), arr(1, 1, [0]), arr(2, 1, [0, 0]))
        two = oracle_kappa(plain_split_epi_pres(), arr(1, 1, [0]), arr(2, 1, [0, 0]))
        assert dumps(one.to_payload()) == dumps(two.to_payload())

    def test_report_helpers(self):
        r = Report("demo", (ReportEntry("a", True, ""), ReportEntry("b", False, "bad")))
        assert not r.ok
        assert [e.label for e in r.failures()] == ["b"]
        merged = Report.merged("all", [r, Report("other", ())])
        assert len(merged.entries) == 2

    def test_plain_composite_fails_only_vertical(self):
        cert = _cert(composite_pres(), f_3to2(), "plain", 2)
        assert check_algebra(cert).ok
        report = check_compat(cert)
        assert not report.ok
        assert {e.label for e in report.failures()} == {"vertical-compatibility"}
        assert any("pair a*b" in e.detail for e in report.failures())

    def test_horizontal_check_runs_on_square_presentations(self):
        cert = _cert(two_gen_plain_pres(), f_3to2(), "plain", 3)
        report = verify_certificate(cert)
        assert report.ok
        horiz = [e for e in report.entries if e.label == "horizontal-compatibility"]
        assert horiz and "checked" in horiz[0].detail
        assert horiz[0].detail != "checked 0 instances"


class TestMutationSensitivity:
    def test_every_single_entry_mutation_is_detected(self, certs, square_certs):
        total = 0
        undetected = []
        for name, cert in {**certs, **square_certs}.items():
            for desc, mutant in _mutants(cert):
                total += 1
                if verify_certificate(mutant).ok:
                    undetected.append(f"{name}:{desc}")
        assert total >= 200 + 120 + 116, f"corpus too small: {total}"
        assert undetected == []

    def test_dict_table_reports_as_its_decoded_columns(self, certs, square_certs):
        """A dict lift table is turned into columns by ``from_items``; the
        certificate decoded from its encoding holds the decoder's columns.
        Both get the same report."""
        checked = 0
        for _, cert in {**certs, **square_certs}.items():
            for desc, mutant in _mutants(cert):
                decoded = decode_certificate(parse_text(dumps(encode_certificate(mutant))),
                                             mutant.pres)
                assert isinstance(decoded.lift_table, LiftTable), desc
                assert dumps(verify_certificate(mutant).to_payload()) == dumps(
                    verify_certificate(decoded).to_payload()), desc
                checked += 1
        assert checked >= 200 + 120 + 116

    def test_specific_labels(self, certs):
        cert = certs["plain"]
        # corrupting the algebra map on the image of the unit breaks the unit law
        tab = list(cert.beta0.table)
        tab[0] = 1
        bad = _with(cert, beta0=FiniteMap(cert.beta0.dom, cert.beta0.cod, tuple(tab)))
        labels = {e.label for e in check_algebra(bad).failures()}
        assert "unit-law" in labels
        # corrupting it on an adjoined cell desynchronises the lift table
        tab = list(cert.beta0.table)
        tab[5] = 0
        bad = _with(cert, beta0=FiniteMap(cert.beta0.dom, cert.beta0.cod, tuple(tab)))
        labels = {e.label for e in check_algebra(bad).failures()}
        assert "filler-consistency" in labels
        # corrupting a filler breaks consistency and names the problem
        key = ("j", (), (0,))
        table = dict(cert.lift_table)
        table[key] = FiniteMap(table[key].dom, table[key].cod, (0,))
        bad = _with(cert, lift_table=table)
        fails = check_algebra(bad).failures()
        assert any(e.label == "filler-consistency" and "('j', (), (0,))" in e.detail for e in fails)
        # corrupting the middle arrow over the left factor's image breaks
        # the factorisation identity
        tab = list(cert.right.map.table)
        tab[0] = 1
        bad = _with(cert, right=ArrowObject(FiniteMap(cert.right.top, cert.right.bot, tuple(tab))))
        labels = {e.label for e in check_algebra(bad).failures()}
        assert "factorisation" in labels

    def test_missing_and_surplus_lift_entries(self, certs):
        cert = certs["plain"]
        table = dict(cert.lift_table)
        removed = table.pop(("j", (), (0,)))
        incomplete = _with(cert, lift_table=table)
        labels = {e.label for e in verify_certificate(incomplete).failures()}
        assert "lift-table-incomplete" in labels
        table = dict(cert.lift_table)
        table[("ghost", (), (0,))] = removed
        surplus = _with(cert, lift_table=table)
        labels = {e.label for e in check_compat(surplus).failures()}
        assert "lift-table-incomplete" in labels

    def test_boundary_violations_reported(self, certs):
        cert = certs["plain"]
        bad = _with(cert, left=FiniteMap(FinSet(2), cert.right.top, (0, 1)))
        report = check_algebra(bad)
        assert not report.ok
        assert report.failures()[0].label == "boundary"
        special_on_plain = _with(cert, mode="special")
        assert not check_algebra(special_on_plain).ok

    @pytest.mark.parametrize("mode, detail", [
        ("special", "special mode needs a presentation with vertical composition"),
        ("odd", "unknown chain mode 'odd'"),
    ])
    def test_mode_faults_are_the_owners_texts(self, certs, mode, detail):
        # the report names the fault ``step.mode_fault`` names, which is
        # also what the chain and the command line refuse with
        cert = _with(certs["plain"], mode=mode)
        assert step_module.mode_fault(cert.pres, mode) == detail
        for check in (check_algebra, check_compat, verify_certificate, oracle_initiality):
            assert [(e.label, e.ok, e.detail) for e in check(cert).entries] == [
                ("boundary", False, detail)]

    @pytest.mark.parametrize("lift_table", [[1, 2], None, 3, "table"])
    def test_lift_table_that_is_no_mapping_is_refused(self, certs, lift_table):
        # an engine error naming the type, not an AttributeError
        with pytest.raises(DiagramError) as exc:
            dataclasses.replace(certs["plain"], lift_table=lift_table)
        assert str(exc.value) == f"lift table is a {type(lift_table).__name__}, not a mapping"

    def test_filler_with_wrong_domain_is_a_boundary_failure(self, certs):
        cert = certs["double"]
        key = sorted(cert.lift_table)[0]
        val = cert.lift_table[key]
        table = dict(cert.lift_table)
        table[key] = FiniteMap(FinSet(val.dom.size + 1), val.cod, val.table + (0,))
        report = verify_certificate(_with(cert, lift_table=table))
        detail = (
            f"lift table entry {key} has domain {val.dom.size + 1}, "
            f"its generator's bottom has {val.dom.size}"
        )
        assert [(e.label, e.ok, e.detail) for e in report.entries] == [
            ("boundary", False, detail)
        ]

    def test_wrong_codomain_is_named_before_wrong_domain(self, certs):
        cert = certs["double"]
        first, second = sorted(cert.lift_table)[:2]
        cod = FinSet(cert.right.top.size + 1)
        table = {key: FiniteMap(m.dom, cod, m.table) for key, m in cert.lift_table.items()}
        b = table[second]
        table[second] = FiniteMap(FinSet(b.dom.size + 1), cod, b.table + (0,))
        fails = check_compat(_with(cert, lift_table=table)).failures()
        assert [e.detail for e in fails] == [
            f"lift table entry {first} does not land in the middle object"
        ]

    def test_malformed_api_tables_are_refused_when_built(self, certs):
        cert = certs["double"]
        key = sorted(cert.lift_table)[0]
        m = cert.lift_table[key]
        for bad, message in [
            ({key: "not a map"}, f"lift table entry {key} is not a map"),
            ({key: FiniteMap(m.dom, FinSet(m.cod.size + 1), m.table)},
             "lift table fillers land in more than one carrier"),
            ({"j": m}, "lift table key 'j' is not (generator, top, bottom)"),
            ({("j", (0,)): m}, "lift table key ('j', (0,)) is not (generator, top, bottom)"),
            ({(7, (), ()): m}, "lift table key (7, (), ()) is not (generator, top, bottom)"),
            ({("j", ("0",), ()): m},
             "lift table key ('j', ('0',), ()) is not (generator, top, bottom)"),
        ]:
            with pytest.raises(DiagramError) as exc:
                _with(cert, lift_table={**cert.lift_table, **bad})
            assert str(exc.value) == message
        with pytest.raises(DiagramError, match="is repeated"):
            LiftTable.from_items([(key, m), (key, m)])


# ---------------------------------------------------------------------------
# the per-problem reference
#
# ``check_algebra`` and ``check_compat`` enumerate problems as tables and
# check every equation by indexing.  The functions below are the
# per-problem loops they replaced, which build a problem, its square and
# the composite maps of every equation; the differential tests assert that
# both produce the same report bytes.


def _reference_boundary(cert):
    fault = step_module.mode_fault(cert.pres, cert.mode)
    out = [fault] if fault else []
    if cert.input.bot != cert.right.bot:
        out.append("input and extracted arrow have different codomains")
    if cert.left.dom != cert.input.top or cert.left.cod != cert.right.top:
        out.append("left factor boundaries do not match")
    if cert.beta0.cod != cert.right.top:
        out.append("algebra map does not land in the middle object")
    for key, val in cert.lift_table.items():
        if val.cod != cert.right.top:
            out.append(f"lift table entry {key} does not land in the middle object")
            break
    return out


def _reference_problems(pres, f):
    for name, u in pres.lifting_generators():
        yield from enumerate_problems(name, u, f)


def _reference_check_algebra(cert):
    entries = [ReportEntry("boundary", False, b) for b in _reference_boundary(cert)]
    if entries:
        return Report("check-algebra", tuple(entries))
    entries.append(verify._entry_ok("boundary", 1, "certificates"))
    dengine = DoubleEngine(cert.pres) if cert.mode == "special" else None
    engine = dengine.single if dengine is not None else StepEngine(cert.pres)
    st = engine.step_tables(cert.right)
    recomposed = compose(cert.right.map, cert.left)
    bad = [x for x in range(cert.input.top.size) if recomposed.table[x] != cert.input.map.table[x]]
    for x in bad:
        entries.append(ReportEntry(
            "factorisation", False,
            f"element {x}: R(L({x})) = {recomposed.table[x]} != f({x}) = {cert.input.map.table[x]}",
        ))
    if not bad:
        entries.append(verify._entry_ok("factorisation", cert.input.top.size, "elements"))
    laws = reference_algebra_violations(cert.right, cert.beta0, engine, dengine)
    law_labels = {label for label, _ in laws}
    entries.extend(ReportEntry(label, False, detail) for label, detail in laws)
    if "boundary" in law_labels:
        return Report("check-algebra", tuple(entries))
    if "unit-law" not in law_labels:
        entries.append(verify._entry_ok("unit-law", cert.right.top.size, "elements"))
    if cert.mode == "special" and "special-algebra-square" not in law_labels:
        entries.append(verify._entry_ok("special-algebra-square", 1, "equations"))
    if cert.mode == "plain":
        entries.append(ReportEntry("special-algebra-square", True, "skipped (plain mode)"))
    checked, consistent = 0, True
    for p in _reference_problems(cert.pres, cert.right):
        expected = compose(cert.beta0, st.cell(p.key))
        got = cert.lift_table.get(p.key)
        if got is None:
            entries.append(
                ReportEntry("filler-consistency", False, f"missing entry for problem {p.key}")
            )
            consistent = False
        elif got.table != expected.table:
            entries.append(ReportEntry(
                "filler-consistency", False,
                f"problem {p.key}: table {got.table} != algebra route {expected.table}",
            ))
            consistent = False
        checked += 1
    if consistent:
        entries.append(verify._entry_ok("filler-consistency", checked, "problems"))
    return Report("check-algebra", tuple(entries))


def _reference_check_compat(cert):
    entries = [ReportEntry("boundary", False, b) for b in _reference_boundary(cert)]
    if entries:
        return Report("check-compat", tuple(entries))
    pres, right, table = cert.pres, cert.right, cert.lift_table
    expected_keys = set()
    fills_checked = 0
    fill_ok = {"filler-fill-top": True, "filler-fill-bottom": True}
    complete = True
    for p in _reference_problems(pres, right):
        expected_keys.add(p.key)
        phi = table.get(p.key)
        if phi is None:
            entries.append(
                ReportEntry("lift-table-incomplete", False, f"no filler for problem {p.key}")
            )
            complete = False
            continue
        fills_checked += 1
        if compose(phi, p.square.src.map).table != p.square.top.table:
            entries.append(ReportEntry(
                "filler-fill-top", False,
                f"problem {p.key}: filler does not restrict to the problem's top leg",
            ))
            fill_ok["filler-fill-top"] = False
        if compose(right.map, phi).table != p.square.bot.table:
            entries.append(ReportEntry(
                "filler-fill-bottom", False,
                f"problem {p.key}: filler does not project to the problem's bottom leg",
            ))
            fill_ok["filler-fill-bottom"] = False
    for key in sorted(set(table) - expected_keys):
        entries.append(
            ReportEntry("lift-table-incomplete", False, f"surplus entry {key} matches no problem")
        )
        complete = False
    if complete:
        entries.append(verify._entry_ok("lift-table-incomplete", len(expected_keys), "problems"))
    for label, ok in fill_ok.items():
        if ok:
            entries.append(verify._entry_ok(label, fills_checked, "fillers"))

    gens = dict(pres.lifting_generators())
    horiz_checked, horiz_ok = 0, True
    for sqname, vsrc, vdst, sq in pres.lifting_squares():
        for p in enumerate_problems(vdst, gens[vdst], right):
            moved = square_compose(p.square, sq)
            phi_src = table.get((vsrc, moved.top.table, moved.bot.table))
            phi_dst = table.get(p.key)
            if phi_src is None or phi_dst is None:
                continue
            horiz_checked += 1
            if compose(phi_dst, sq.bot).table != phi_src.table:
                entries.append(ReportEntry(
                    "horizontal-compatibility", False,
                    f"square {sqname} at problem {p.key}: moved filler disagrees",
                ))
                horiz_ok = False
    if horiz_ok:
        entries.append(verify._entry_ok("horizontal-compatibility", horiz_checked, "instances"))

    if getattr(pres, "kind", "plain") == "double":
        vert_checked, vert_ok = 0, True
        for pair in pres.composable_pairs().pairs:
            right_u = pres.uarrow(pair.right)
            for p in enumerate_problems(pair.composite, pres.uarrow(pair.composite), right):
                tau0, tau1 = p.square.top, p.square.bot
                inner = table.get((pair.left, tau0.table, compose(tau1, right_u.map).table))
                direct = table.get(p.key)
                if inner is None or direct is None:
                    continue
                outer = table.get((pair.right, inner.table, tau1.table))
                vert_checked += 1
                if outer is None or outer.table != direct.table:
                    via = "no filler for the two-stage problem" if outer is None else (
                        f"two-stage route {outer.table} != composite route {direct.table}"
                    )
                    entries.append(ReportEntry(
                        "vertical-compatibility", False,
                        f"pair {pair.name} at problem {p.key}: {via}",
                    ))
                    vert_ok = False
        if vert_ok:
            entries.append(verify._entry_ok("vertical-compatibility", vert_checked, "instances"))
    return Report("check-compat", tuple(entries))


def _assert_same_report(cert):
    boundary = _reference_boundary(cert)
    if boundary:  # one entry per fault, and nothing else
        reference = Report("verify", tuple(ReportEntry("boundary", False, b) for b in boundary))
    else:
        reference = Report.merged(
            "verify", [_reference_check_algebra(cert), _reference_check_compat(cert)])
    assert dumps(verify_certificate(cert).to_payload()) == dumps(reference.to_payload())


_SHAPES = [plain_split_epi_pres, two_gen_plain_pres, growth_pres, codiag_pres,
           split_epi_pres, abc_pres, composite_pres, retract_pres]
_MAPS = [f_0to1, f_1to1, f_2to3, f_3to2]


def _fixture_certificates():
    """Every certificate the fixture shapes and maps give in each valid mode."""
    for make in _SHAPES:
        for mode in ("plain", "special"):
            if mode == "special" and make().kind != "double":
                continue
            for f in _MAPS:
                try:
                    result = factorise(make(), f(), mode=mode, max_stage=4,
                                       budget=SizeBudget(max_problems=20_000))
                except (NotStabilised, SizeBudgetExceeded):
                    continue
                name = f"{make.__name__}-{mode}-{f.__name__}"
                yield name, Certificate.from_result(make(), result)


def _seeded_composite(mode, max_stage):
    rng = random.Random(300)
    f = fmap(300, 40, [rng.randrange(40) for _ in range(300)])
    return Certificate.from_result(
        composite_pres(), factorise(composite_pres(), f, mode=mode, max_stage=max_stage)
    )


@pytest.fixture(scope="module")
def seeded():
    return {"special": _seeded_composite("special", 4), "plain": _seeded_composite("plain", 2)}


def _replace(table, i, w):
    tab = list(table)
    tab[i] = w
    return tuple(tab)


def _mutate(cert, what, a, b, c):
    """One single-entry mutation of ``cert``, chosen by the integers ``a``,
    ``b`` and ``c``: a filler entry changed, dropped or moved to a key no
    problem has, an entry of the algebra map, or an entry of the middle
    arrow's map."""
    size = cert.right.top.size
    if what == "beta0":
        i = a % cert.beta0.dom.size
        return _with(cert, beta0=FiniteMap(cert.beta0.dom, cert.beta0.cod,
                                           _replace(cert.beta0.table, i, b % size)))
    if what == "R":
        i = a % size
        tab = _replace(cert.right.map.table, i, b % cert.right.bot.size)
        return _with(cert, right=ArrowObject(FiniteMap(cert.right.top, cert.right.bot, tab)))
    keys = list(cert.lift_table)
    key = keys[a % len(keys)]
    table = dict(cert.lift_table)
    val = table.pop(key) if what in ("drop", "move") else table[key]
    if what == "move":
        gen, top, bot = key
        table[(gen, top, bot + (c,))] = val
    elif what == "lift" and val.table:
        table[key] = FiniteMap(val.dom, val.cod, _replace(val.table, b % len(val.table), c % size))
    return _with(cert, lift_table=table)


class TestReportsMatchPerProblemReference:
    def test_fixture_certificates(self):
        names = []
        for name, cert in _fixture_certificates():
            _assert_same_report(cert)
            names.append(name)
        assert len(names) >= 20, names

    def test_connecting_square_runs_the_horizontal_pass(self):
        cert = _cert(two_gen_plain_pres(), f_3to2(), "plain", 3)
        _assert_same_report(cert)
        table = dict(cert.lift_table)
        key = next(k for k in sorted(table) if k[0] == "j")
        table[key] = FiniteMap(table[key].dom, table[key].cod,
                               ((table[key].table[0] + 1) % cert.right.top.size,))
        _assert_same_report(_with(cert, lift_table=table))

    def test_every_mutant_of_the_composite_certificate(self, certs):
        count = 0
        for _desc, mutant in _mutants(certs["composite"]):
            _assert_same_report(mutant)
            count += 1
        assert count > 50

    def test_missing_surplus_and_boundary_mutants(self, certs):
        cert = certs["plain"]
        table = dict(cert.lift_table)
        removed = table.pop(("j", (), (0,)))
        _assert_same_report(_with(cert, lift_table=table))
        table[("ghost", (), (0,))] = removed
        table[("j", (), (7,))] = removed
        _assert_same_report(_with(cert, lift_table=table))
        table = {key: FiniteMap(m.dom, FinSet(9), m.table) for key, m in cert.lift_table.items()}
        _assert_same_report(_with(cert, lift_table=table))
        table[("j", (), (0,))] = FiniteMap(FinSet(2), FinSet(9), (0, 0))
        _assert_same_report(_with(cert, lift_table=table))
        _assert_same_report(_with(cert, mode="special"))
        _assert_same_report(_with(cert, mode="odd"))

    @settings(max_examples=40, deadline=None)
    @given(
        mode=hst.sampled_from(["special", "plain"]),
        what=hst.sampled_from(["lift", "drop", "move", "beta0", "R"]),
        a=hst.integers(0, 10**6),
        b=hst.integers(0, 10**6),
        c=hst.integers(0, 10**6),
    )
    def test_seeded_composite_mutants(self, seeded, mode, what, a, b, c):
        _assert_same_report(_mutate(seeded[mode], what, a, b, c))


def _unfused_two_stage(dengine, beta):
    """The two-stage side of the special algebra law built unfused, as the
    reference for the fused one: ``beta`` after its own extension after the
    two-stage comparison, which runs into the twice-iterated extension."""
    g = beta.dst
    lam = dengine.iterate_then(g, identity_square(dengine.single.step_tables(g).extended))
    return square_compose(beta, square_compose(dengine.single.extend(beta), lam))


def _assert_two_stage_matches(cert):
    """Assert that the fused two-stage square of ``cert``'s algebra map
    equals the unfused one; returns whether the map obeys the special law,
    or None when it is not a square over the codomain (nothing to compare)."""
    dengine = DoubleEngine(cert.pres)
    st = dengine.single.step_tables(cert.right)
    try:
        beta = CommSquare(st.extended, cert.right, cert.beta0, identity(cert.right.bot))
    except DiagramError:
        return None
    through_composite = square_compose(beta, dengine.compose_comparison(cert.right))
    two_stage = square_compose(beta, dengine.iterate_then(cert.right, beta))
    assert two_stage == _unfused_two_stage(dengine, beta)
    return through_composite == two_stage


class TestFusedTwoStageMatchesUnfused:
    def test_small_special_factorisations(self):
        # every map with at most 3 points into 1 or 2 that stabilises by
        # stage 4 within a budget of 20,000 problems
        count = 0
        for make in (retract_pres, composite_pres, abc_pres, split_epi_pres):
            for y, x in itertools.product((1, 2), range(4)):
                for table in itertools.product(range(y), repeat=x):
                    try:
                        result = factorise(make(), fmap(x, y, list(table)), mode="special",
                                           max_stage=4, budget=SizeBudget(max_problems=20_000))
                    except (NotStabilised, SizeBudgetExceeded):
                        continue
                    assert _assert_two_stage_matches(Certificate.from_result(make(), result))
                    count += 1
        assert count == 42

    def test_fixture_certificates_and_mutants(self, certs):
        special = [cert for _, cert in _fixture_certificates() if cert.mode == "special"]
        assert all(_assert_two_stage_matches(cert) for cert in special) and len(special) >= 8
        outcomes = [_assert_two_stage_matches(m) for _, m in _mutants(certs["composite"])]
        # mutants whose algebra map is still a square, some of them breaking the law
        assert outcomes.count(True) > 0 and outcomes.count(False) > 0

    def test_seeded_composite_mutants(self, seeded):
        # the algebra map moved within the fibre it lies in, so it stays a square
        cert, rng = seeded["special"], random.Random(17)
        g = cert.right.map.table
        outcomes = []
        for i in rng.sample(range(cert.beta0.dom.size), 40):
            fibre = [z for z in range(len(g)) if g[z] == g[cert.beta0.table[i]]]
            outcomes.append(_assert_two_stage_matches(
                _mutate(cert, "beta0", i, rng.choice(fibre), 0)))
        assert None not in outcomes and False in outcomes


class TestOracleKappa:
    def test_identity_on_one_point(self):
        report = oracle_kappa(plain_split_epi_pres(), arr(1, 1, [0]), arr(1, 1, [0]))
        assert report.ok
        details = {e.label: e.detail for e in report.entries}
        assert details["cardinality"] == "squares=1 liftings=1"

    def test_empty_codomain_top(self):
        report = oracle_kappa(plain_split_epi_pres(), arr(1, 1, [0]), arr(0, 1, []))
        assert report.ok
        details = {e.label: e.detail for e in report.entries}
        assert details["cardinality"] == "squares=0 liftings=0"

    def test_collapse_codomain(self):
        report = oracle_kappa(plain_split_epi_pres(), arr(1, 1, [0]), arr(2, 1, [0, 0]))
        assert report.ok
        details = {e.label: e.detail for e in report.entries}
        assert details["cardinality"] == "squares=4 liftings=4"

    def test_bound_is_enforced(self):
        with pytest.raises(SizeBudgetExceeded):
            oracle_kappa(plain_split_epi_pres(), arr(3, 2, [0, 1, 0]), arr(1, 1, [0]))

    def test_sampled_path_on_large_counts(self):
        report = oracle_kappa(abc_pres(), arr(2, 2, [0, 1]), arr(2, 2, [0, 0]), samples=8)
        assert report.ok
        details = {e.label: e.detail for e in report.entries}
        assert "sampled" in details["two-sided-inverse"]

    def test_general_step_is_built_only_for_shapes_that_need_it(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("general step built")

        monkeypatch.setattr(step_module, "step", refuse)
        assert oracle_kappa(abc_pres(), arr(1, 2, [0]), arr(2, 1, [0, 0])).ok
        assert oracle_kappa(split_epi_pres(), arr(2, 1, [0, 0]), arr(2, 1, [0, 0])).ok
        with pytest.raises(AssertionError, match="general step built"):
            oracle_kappa(two_gen_plain_pres(), arr(1, 1, [0]), arr(1, 1, [0]))

    def test_budget_counts_every_listed_problem(self):
        # e0, e1 and j have 1, 2 and 1 problems on 2 -> 1; only j adjoins a cell
        f = arr(2, 1, [0, 0])
        assert oracle_kappa(split_epi_pres(), f, f, budget=SizeBudget(max_problems=4)).ok
        with pytest.raises(SizeBudgetExceeded) as exc:
            oracle_kappa(split_epi_pres(), f, f, budget=SizeBudget(max_problems=3))
        assert str(exc.value) == "oracle kappa lists 4 problems, budget allows 3"

    def test_square_presentations_enumerate_with_naturality(self):
        report = oracle_kappa(two_gen_plain_pres(), arr(1, 1, [0]), arr(1, 1, [0]))
        assert report.ok

    def test_squares_beyond_the_listing_cap_are_counted_and_sampled(self):
        """32,768 squares exceed ``LIST_CAP``: a presentation with connecting
        squares gets exact counts by class and the sampled regime."""
        f, g = arr(3, 3, [0, 1, 2]), arr(8, 4, [0, 0, 1, 1, 2, 2, 3, 3])
        report = oracle_kappa(pair_square_pres(), f, g, bound=8)
        assert report.ok
        assert [e.detail for e in report.entries] == [
            "squares=32768 liftings=32768", "sampled 64 per side (seed 0)"]

    def test_square_count_formula_matches_the_listing(self):
        for src, dst in itertools.product(verify.small_arrows(2), repeat=2):
            listed = sum(1 for _ in verify._square_tables(src, dst))
            assert verify._count_commuting_squares(src, dst) == listed, (src, dst)

    def test_exhaustive_sweep_small(self):
        maps = [arr(x, y, [i % y for i in range(x)]) for x, y in [(0, 1), (1, 1), (1, 2), (2, 1)]]
        for f in maps:
            for g in maps:
                assert oracle_kappa(split_epi_pres(), f, g).ok

    @staticmethod
    def _counted_kernel_calls(monkeypatch, pres, f, g):
        """Run the exhaustive oracle, counting the filler tables it lists and
        its calls of the kernels ``mediate`` and ``restrict_square`` wrap."""
        counts = {"_mediated_top": 0, "_restricted": 0, "liftings": 0}
        real_tables = verify._lifting_tables
        for name in ("_mediated_top", "_restricted"):
            def counted(*args, _name=name, _real=getattr(verify, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(verify, name, counted)

        def counted_tables(*args):
            for table in real_tables(*args):
                counts["liftings"] += 1
                yield table

        monkeypatch.setattr(verify, "_lifting_tables", counted_tables)
        report = oracle_kappa(pres, f, g)
        assert report.ok and "exhaustive" in report.entries[1].detail
        return report, counts

    def test_each_natural_lifting_is_mediated_once(self, monkeypatch):
        report, counts = self._counted_kernel_calls(
            monkeypatch, two_gen_plain_pres(), arr(2, 2, [0, 1]), arr(2, 1, [0, 0]))
        details = {e.label: e.detail for e in report.entries}
        assert details["cardinality"] == "squares=4 liftings=4"
        # no filler table is listed: each square is restricted once and its
        # restriction, one of the 4 natural liftings, is mediated once
        assert counts == {"liftings": 0, "_mediated_top": 4, "_restricted": 4}

    def test_heavy_pair_mediates_and_restricts_once_each(self, monkeypatch):
        # a heavy pair of the benchmark's oracle workload
        report, counts = self._counted_kernel_calls(
            monkeypatch, abc_pres(), arr(1, 2, [0]), arr(2, 2, [0, 0]))
        assert report.entries[0].detail == "squares=8192 liftings=8192"
        assert counts == {"liftings": 0, "_mediated_top": 8192, "_restricted": 8192}


def _faulty_cells(kind, struct, cells):
    """The copaired ``cells`` of ``struct`` with one fault of ``kind``, or
    None where it has none to make: (a) a forced entry moved to another
    inclusion point of its fibre, (b) two free entries over different
    bottom points swapped, (c) a naturality class split, one free member
    moved to another point over the same bottom point.  Each leaves the
    other two cell checks of ``oracle_kappa`` satisfied."""
    problems, classes = verify._problem_free_positions(struct)
    incl, ext, ft = struct.inclusion.table, struct.extended.map.table, struct.target.map.table
    table, forced, free, start = list(cells), [], [], 0
    for s0, _, u, positions in problems:
        forced += [(start + b, s0[a]) for a, b in enumerate(u.map.table)]
        free += [start + b for b in positions]
        start += u.bot.size
    if kind == "a":
        for i, x in forced:
            moved = [incl[y] for y in range(len(ft)) if ft[y] == ft[x] and incl[y] != incl[x]]
            if moved:
                table[i] = moved[0]
                return tuple(table)
    if kind == "b":
        for i, j in itertools.combinations(free, 2):
            if ext[cells[i]] != ext[cells[j]]:
                table[i], table[j] = cells[j], cells[i]
                return tuple(table)
    if kind == "c":
        for i in free:
            others = [p for p in range(len(ext)) if ext[p] == ext[cells[i]] and p != cells[i]]
            if classes.count(classes[i]) > 1 and others:
                table[i] = others[0]
                return tuple(table)
    return None


def install_faulty_cells(monkeypatch, kind):
    """Make every step's ``copaired`` return its cells with one fault of
    ``kind`` (``_faulty_cells``), where it has one to make."""
    real, faulty = step_module.StepStructure.copaired, {}

    def copaired(struct):
        cells = real(struct)
        if id(struct) not in faulty:
            table = _faulty_cells(kind, struct, cells.table)
            faulty[id(struct)] = struct, table and FiniteMap(cells.dom, cells.cod, table)
        return faulty[id(struct)][1] or cells

    monkeypatch.setattr(step_module.StepStructure, "copaired", copaired)


# (mutant, presentation, f, g): pairs whose cells each mutant changes, all
# listed exhaustively; on split_epi and composite every class is one point,
# and on two_gen every fibre of the extension is, so only uniform2 splits one
FAULTY_CELLS = [
    ("a", split_epi_pres, (2, 1, [0, 0]), (2, 1, [0, 0])),
    ("a", split_epi_pres, (2, 1, [0, 0]), (2, 2, [0, 1])),
    ("a", composite_pres, (2, 1, [0, 0]), (2, 1, [0, 0])),
    ("a", composite_pres, (2, 2, [0, 0]), (2, 2, [1, 1])),
    ("b", split_epi_pres, (2, 2, [0, 1]), (2, 1, [0, 0])),
    ("b", composite_pres, (1, 2, [0]), (2, 2, [0, 1])),
    ("b", two_gen_plain_pres, (2, 2, [0, 1]), (2, 1, [0, 0])),
    ("c", lambda: uniform_monos_pres(2), (1, 1, [0]), (0, 1, [])),
    ("c", lambda: uniform_monos_pres(2), (1, 1, [0]), (1, 1, [0])),
    ("c", lambda: uniform_monos_pres(2), (1, 1, [0]), (2, 1, [0, 0])),
]


class TestOracleKappaMutations:
    """The oracle must report, not pass or raise, when the restriction, the
    count of liftings or the step's cells are broken."""

    @staticmethod
    def _labels(report):
        return {e.label: e.ok for e in report.entries}

    def test_corrupted_restriction_fails_two_sided_inverse(self, monkeypatch):
        real = step_module._restricted

        def corrupted(struct, top):
            # both targets below have two points, so this moves the first filler
            incl, fillers = real(struct, top)
            return incl, ((fillers[0] + 1) % 2,) + fillers[1:]

        exhaustive = (plain_split_epi_pres(), arr(1, 1, [0]), arr(2, 1, [0, 0]))
        sampled = (abc_pres(), arr(2, 2, [0, 1]), arr(2, 2, [0, 0]))
        assert oracle_kappa(*exhaustive).ok and oracle_kappa(*sampled, samples=8).ok
        # the exhaustive branch calls the kernel, the sampled one restrict_square
        monkeypatch.setattr(verify, "_restricted", corrupted)
        monkeypatch.setattr(step_module, "_restricted", corrupted)
        report = oracle_kappa(*exhaustive)
        assert "exhaustive" in report.entries[1].detail
        assert self._labels(report) == {"cardinality": True, "two-sided-inverse": False}
        report = oracle_kappa(*sampled, samples=8)
        assert "sampled" in report.entries[1].detail
        assert self._labels(report) == {"cardinality": True, "two-sided-inverse": False}

    @pytest.mark.parametrize("shape", [plain_split_epi_pres(), two_gen_plain_pres()],
                             ids=["no-squares", "connecting-square"])
    def test_dropped_lifting_fails_cardinality(self, shape, monkeypatch):
        """A filler template that drops a free slot counts one fibre's worth
        fewer liftings over each base with a free class."""
        real = verify._filler_template

        def dropping(problems, base, classes):
            template = real(problems, base, classes)
            return template and (template[0], template[1][1:])

        f, g = arr(1, 2, [0]), arr(2, 1, [0, 0])
        assert oracle_kappa(shape, f, g).ok
        monkeypatch.setattr(verify, "_filler_template", dropping)
        report = oracle_kappa(shape, f, g)
        squares, liftings = (int(side.split("=")[1]) for side in report.entries[0].detail.split())
        assert liftings < squares
        assert self._labels(report) == {"cardinality": False, "two-sided-inverse": False}

    def test_dropped_square_fails_both_identities(self, monkeypatch):
        """Classes that miss the one connecting square of two_gen count the
        16 candidate filler tables as liftings instead of the 4 natural
        ones: against 4 squares, neither the counts nor the inverses hold."""
        shape, f, g = two_gen_plain_pres(), arr(2, 2, [0, 1]), arr(2, 1, [0, 0])
        real = verify._problem_free_positions

        def dropping(struct):
            squares = shape.lifting_squares()
            assert len(squares) == 1
            return real(SimpleNamespace(problem_blocks=struct.problem_blocks, shape=SimpleNamespace(
                lifting_generators=shape.lifting_generators, lifting_squares=lambda: squares[1:])))

        assert oracle_kappa(shape, f, g).ok
        monkeypatch.setattr(verify, "_problem_free_positions", dropping)
        report = oracle_kappa(shape, f, g)
        assert "exhaustive" in report.entries[1].detail
        assert self._labels(report) == {"cardinality": False, "two-sided-inverse": False}

    @pytest.mark.parametrize("kind, build, f, g", FAULTY_CELLS,
                             ids=[f"{k}-{i}" for i, (k, *_) in enumerate(FAULTY_CELLS)])
    def test_faulty_cells_fail_two_sided_inverse(self, kind, build, f, g, monkeypatch):
        shape, f, g = build(), arr(*f), arr(*g)
        struct = StepEngine(shape).step_tables(f)
        assert _faulty_cells(kind, struct, struct.copaired().table) is not None
        assert oracle_kappa(shape, f, g, bound=2).ok
        install_faulty_cells(monkeypatch, kind)
        report = oracle_kappa(shape, f, g, bound=2)
        assert "exhaustive" in report.entries[1].detail
        assert self._labels(report) == {"cardinality": True, "two-sided-inverse": False}

    def test_faulty_cells_fail_the_sampled_branch(self, monkeypatch):
        """531,441 squares are sampled: the cells are checked all the same,
        and mediating a sampled lifting through the faulty cells raises,
        which counts as a failed identity, not an escaped error."""
        args = (abc_pres(), arr(2, 1, [0, 0]), arr(3, 1, [0, 0, 0]))
        before = oracle_kappa(*args, bound=3, samples=16)
        assert before.ok and before.entries[1].detail == "sampled 16 per side (seed 0)"
        install_faulty_cells(monkeypatch, "a")
        report = oracle_kappa(*args, bound=3, samples=16)
        assert [e.detail for e in report.entries] == [e.detail for e in before.entries]
        assert self._labels(report) == {"cardinality": True, "two-sided-inverse": False}


class TestOracleInitiality:
    def test_own_algebra(self, certs):
        for cert in certs.values():
            report = oracle_initiality(cert)
            assert report.ok
            assert all("unique" in e.detail for e in report.entries)

    def test_hand_built_target(self, certs):
        cert = certs["plain"]
        # the collapse of two points onto one, with the adjoined cell sent
        # to the section point 1: the unit law holds, so this is an algebra
        g = arr(2, 1, [0, 0])
        beta = FiniteMap(FinSet(3), FinSet(2), (0, 1, 1))
        report = oracle_initiality(cert, targets=[(g, beta)])
        assert report.ok

    def test_non_algebra_target_rejected(self, certs):
        cert = certs["plain"]
        g = arr(2, 1, [0, 0])
        beta = FiniteMap(FinSet(3), FinSet(2), (0, 0, 0))  # breaks the unit law
        report = oracle_initiality(cert, targets=[(g, beta)])
        assert not report.ok
        assert report.failures()[0].label == "target-0-not-algebra"

    def test_non_special_target_rejected_in_special_mode(self, certs):
        cert = certs["composite"]
        plain = _cert(composite_pres(), f_3to2(), "plain", 2)
        report = oracle_initiality(cert, targets=[(plain.right, plain.beta0)])
        assert not report.ok
        assert "special-algebra-square" in report.failures()[0].detail

    def test_target_into_another_carrier_is_reported_not_raised(self, certs):
        cert = certs["double"]
        b = cert.beta0
        target = (cert.right, FiniteMap(b.dom, FinSet(b.cod.size + 1), b.table))
        report = oracle_initiality(cert, targets=[target])
        assert report.entries == (ReportEntry(
            "target-0-not-algebra", False, "boundary: algebra map codomain 6 != carrier 5"),)

    def test_budget_guard(self, certs):
        from awfskit.step import SizeBudget

        cert = certs["plain"]
        with pytest.raises(SizeBudgetExceeded):
            oracle_initiality(cert, budget=SizeBudget(max_problems=10))


class TestChecksShareOneStep:
    def test_check_compat_alone_counts_the_lift_table_against_the_budget(self):
        # one identity generator on 4 points against 16 -> 1: no cell is
        # adjoined, but the lift table lists 16**4 problems
        from awfskit.presentation import PlainPresentation

        pres = PlainPresentation.build(generators=[("g", 4, 4, [0, 1, 2, 3])])
        result = factorise(pres, fmap(16, 1, [0] * 16), max_stage=2,
                           budget=SizeBudget(max_problems=65_536))
        cert = verify.Certificate.from_result(pres, result)
        with pytest.raises(SizeBudgetExceeded,
                           match="lift table lists 65536 problems, budget allows 1000"):
            check_compat(cert, SizeBudget(max_problems=1000))
        assert check_compat(cert, SizeBudget(max_problems=65_536)).ok

    @pytest.mark.parametrize("name", ["plain", "double", "composite"])
    def test_verify_builds_the_step_of_the_certified_arrow_once(self, certs, name, monkeypatch):
        import awfskit.step

        cert = certs[name]
        built = []
        for builder in ("fast_step", "step"):
            def counted(shape, target, budget=None, _build=getattr(awfskit.step, builder)):
                if shape is cert.pres and target == cert.right:
                    built.append(target)
                return _build(shape, target, budget)

            monkeypatch.setattr(awfskit.step, builder, counted)
        assert check_algebra(cert).ok and check_compat(cert).ok
        assert len(built) == 2  # each check on its own builds the step it counts
        assert verify_certificate(cert).ok
        assert len(built) == 3
