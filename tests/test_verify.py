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

import pytest

from awfskit import verify
from awfskit.arrows import ArrowObject
from awfskit.chain import factorise
from awfskit.errors import SizeBudgetExceeded
from awfskit.finset import FinSet, FiniteMap
from awfskit.serialize import dumps
from awfskit.step import OneStepLifting, mediate, step
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
    composite_pres,
    f_3to2,
    fmap,
    plain_split_epi_pres,
    split_epi_pres,
    two_gen_plain_pres,
)


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
    def test_every_single_entry_mutation_is_detected(self, certs):
        total = 0
        undetected = []
        for name, cert in certs.items():
            for desc, mutant in _mutants(cert):
                total += 1
                if verify_certificate(mutant).ok:
                    undetected.append(f"{name}:{desc}")
        assert total >= 200, f"corpus too small: {total}"
        assert undetected == []

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

    def test_square_presentations_enumerate_with_naturality(self):
        report = oracle_kappa(two_gen_plain_pres(), arr(1, 1, [0]), arr(1, 1, [0]))
        assert report.ok

    def test_exhaustive_sweep_small(self):
        maps = [arr(x, y, [i % y for i in range(x)]) for x, y in [(0, 1), (1, 1), (1, 2), (2, 1)]]
        for f in maps:
            for g in maps:
                assert oracle_kappa(split_epi_pres(), f, g).ok

    def test_each_natural_lifting_is_mediated_once(self, monkeypatch):
        counts = {"mediate": 0, "liftings": 0}
        real_mediate, real_enumerate = verify.mediate, verify._enumerate_liftings

        def counted_mediate(struct, lift):
            counts["mediate"] += 1
            return real_mediate(struct, lift)

        def counted_enumerate(*args):
            for lift in real_enumerate(*args):
                counts["liftings"] += 1
                yield lift

        monkeypatch.setattr(verify, "mediate", counted_mediate)
        monkeypatch.setattr(verify, "_enumerate_liftings", counted_enumerate)
        report = oracle_kappa(two_gen_plain_pres(), arr(2, 2, [0, 1]), arr(2, 1, [0, 0]))
        assert report.ok
        details = {e.label: e.detail for e in report.entries}
        assert details["cardinality"] == "squares=4 liftings=4"
        # one mediation per enumerated lifting, natural or not, and one per
        # square; the 4 natural liftings are not mediated a second time
        assert counts == {"liftings": 16, "mediate": 16 + 4}


class TestOracleKappaMutations:
    """The oracle must report, not pass, when the restriction or the
    enumeration of liftings is broken."""

    @staticmethod
    def _labels(report):
        return {e.label: e.ok for e in report.entries}

    def test_corrupted_restriction_fails_two_sided_inverse(self, monkeypatch):
        real = verify.restrict_square

        def corrupted(struct, t):
            lift = real(struct, t)
            table = list(lift.fillers.table)
            table[0] = (table[0] + 1) % lift.fillers.cod.size
            fillers = FiniteMap(lift.fillers.dom, lift.fillers.cod, tuple(table))
            return OneStepLifting(lift.base, fillers)

        exhaustive = (plain_split_epi_pres(), arr(1, 1, [0]), arr(2, 1, [0, 0]))
        sampled = (abc_pres(), arr(2, 2, [0, 1]), arr(2, 2, [0, 0]))
        assert oracle_kappa(*exhaustive).ok and oracle_kappa(*sampled, samples=8).ok
        monkeypatch.setattr(verify, "restrict_square", corrupted)
        report = oracle_kappa(*exhaustive)
        assert "exhaustive" in report.entries[1].detail
        assert self._labels(report) == {"cardinality": True, "two-sided-inverse": False}
        report = oracle_kappa(*sampled, samples=8)
        assert "sampled" in report.entries[1].detail
        assert self._labels(report) == {"cardinality": True, "two-sided-inverse": False}

    @pytest.mark.parametrize("shape", [plain_split_epi_pres(), two_gen_plain_pres()],
                             ids=["no-squares", "connecting-square"])
    def test_dropped_lifting_fails_cardinality(self, shape, monkeypatch):
        real = verify._enumerate_liftings
        dropped = []

        def dropping(*args):
            for lift in real(*args):
                if dropped:
                    yield lift
                else:
                    dropped.append(lift)

        monkeypatch.setattr(verify, "_enumerate_liftings", dropping)
        f = arr(1, 1, [0])
        report = oracle_kappa(shape, f, arr(2, 1, [0, 0]))
        mediate(step(shape, f), dropped[0])  # a natural lifting was dropped
        assert self._labels(report)["cardinality"] is False


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

    def test_budget_guard(self, certs):
        from awfskit.step import SizeBudget

        cert = certs["plain"]
        with pytest.raises(SizeBudgetExceeded):
            oracle_initiality(cert, budget=SizeBudget(max_problems=10))
