"""End-to-end tests of the command line: every subcommand, every exit code."""

import json
from pathlib import Path

import pytest

from awfskit import cli
from awfskit.cli import main
from awfskit.serialize import encode_presentation

from fixture_lib import pair_square_pres
from test_verify import install_faulty_cells, refuse_square_listings

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_on_four(tmp_path):
    """A plain presentation with one identity generator on 4 points, and
    the map 16 -> 1: the chain stabilises at once, since the generator
    adjoins no cell, but the lift table lists 16**4 = 65,536 problems."""
    pres = write(tmp_path, "ident.json", {
        "kind": "plain",
        "generators": [{"name": "g", "map": {"dom": 4, "cod": 4, "table": [0, 1, 2, 3]}}],
        "morphisms": [],
        "comp": [],
    })
    return pres, write(tmp_path, "f.json", {"dom": 16, "cod": 1, "table": [0] * 16})


@pytest.fixture
def cert_path(tmp_path):
    out = str(tmp_path / "cert.json")
    code = main(
        [
            "factor",
            "--presentation", fx("gen_split_epi.json"),
            "--map", fx("f_3to2.json"),
            "--mode", "plain",
            "--max-stage", "2",
            "--out", out,
        ]
    )
    assert code == 0
    return out


class TestFactor:
    def test_writes_certificate_and_trace(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        trace = str(tmp_path / "trace.json")
        code = main(
            [
                "factor",
                "--presentation", fx("gen_split_epi.json"),
                "--map", fx("f_3to2.json"),
                "--mode", "plain",
                "--max-stage", "2",
                "--out", out,
                "--trace", trace,
            ]
        )
        assert code == 0
        assert "stabilised at stage 1" in capsys.readouterr().out
        cert = json.loads(Path(out).read_text())
        assert cert["right"]["top"] == 5
        assert cert["right"]["map"]["table"] == [0, 1, 0, 0, 1]
        assert cert["left"]["table"] == [0, 1, 2]
        assert cert["stage"] == 1
        summary = json.loads(Path(trace).read_text())
        assert summary["carrier_sizes"] == [3, 5, 5]
        assert summary["stabilised_at"] == 1

    def test_special_mode_on_double_presentation(self, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(
            [
                "factor",
                "--presentation", fx("gen_composite.json"),
                "--map", fx("f_3to2.json"),
                "--mode", "special",
                "--max-stage", "4",
                "--out", out,
            ]
        )
        assert code == 0
        cert = json.loads(Path(out).read_text())
        assert cert["mode"] == "special"
        assert cert["trace_sizes"] == [3, 7, 5, 5, 5]

    def test_special_mode_requires_double_presentation(self, tmp_path, capsys):
        plain = write(
            tmp_path,
            "plain.json",
            {
                "kind": "plain",
                "generators": [{"name": "j", "map": {"dom": 0, "cod": 1, "table": []}}],
            },
        )
        out, trace = tmp_path / "cert.json", tmp_path / "trace.json"
        code = main(
            [
                "factor",
                "--presentation", plain,
                "--map", fx("f_3to2.json"),
                "--mode", "special",
                "--max-stage", "3",
                "--out", str(out),
                "--trace", str(trace),
            ]
        )
        # the engines refuse the run before the chain starts, with the
        # text of ``step.mode_fault``
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: DiagramError: special mode needs a presentation with vertical composition\n")
        assert not out.exists() and not trace.exists()

    def test_growth_exits_not_stabilised(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(
            [
                "factor",
                "--presentation", fx("gen_growth.json"),
                "--map", fx("f_1to1.json"),
                "--max-stage", "5",
                "--out", out,
            ]
        )
        assert code == 2
        assert "[1, 2, 3, 4, 5, 6]" in capsys.readouterr().err
        payload = json.loads(Path(out).read_text())
        assert payload["error"] == "not-stabilised"
        assert payload["carrier_sizes"] == [1, 2, 3, 4, 5, 6]

    def test_budget_exceeded_exits_3(self, capsys):
        code = main(
            [
                "factor",
                "--presentation", fx("gen_abc.json"),
                "--map", fx("f_3to2.json"),
                "--mode", "special",
                "--max-stage", "3",
                "--budget", "50",
            ]
        )
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_lift_table_over_budget_exits_3(self, tmp_path, capsys):
        pres, fmap = identity_on_four(tmp_path)
        out = tmp_path / "cert.json"
        code = main(["factor", "--presentation", pres, "--map", fmap,
                     "--budget", "1000", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "65536 problems" in err and "budget allows 1000" in err
        assert not out.exists()
        assert main(["factor", "--presentation", pres, "--map", fmap,
                     "--budget", "65536", "--max-stage", "2"]) == 0
        assert "lift table 65536 fillers" in capsys.readouterr().out

    def test_lift_table_at_stage_over_budget_exits_3(self, capsys):
        # the fast step adjoins cells for 2 problems, the lift table lists 8
        code = main(["factor", "--presentation", fx("gen_split_epi.json"), "--map",
                     fx("f_3to2.json"), "--mode", "plain", "--max-stage", "3", "--budget", "4"])
        assert code == 3
        assert capsys.readouterr() == (
            "", "size budget exceeded: lift table at stage 1 lists 8 problems, budget allows 4\n")


class TestVerify:
    def test_lift_table_over_budget_exits_3(self, tmp_path, capsys):
        pres, fmap = identity_on_four(tmp_path)
        cert = str(tmp_path / "cert.json")
        assert main(["factor", "--presentation", pres, "--map", fmap,
                     "--budget", "65536", "--out", cert]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = main(["verify", "--presentation", pres, "--certificate", cert,
                     "--budget", "1000", "--out", str(report)])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "size budget exceeded: lift table lists 65536 problems, budget allows 1000\n"
        assert not report.exists()
        assert main(["verify", "--presentation", pres, "--certificate", cert,
                     "--budget", "65536"]) == 0

    def test_passing_certificate(self, cert_path, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = main(
            [
                "verify",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
                "--out", report_path,
            ]
        )
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out
        payload = json.loads(Path(report_path).read_text())
        assert payload["ok"] is True

    def test_corrupted_certificate_names_the_violation(self, cert_path, capsys):
        obj = json.loads(Path(cert_path).read_text())
        obj["beta0"]["table"][0] = 1
        Path(cert_path).write_text(json.dumps(obj))
        code = main(
            [
                "verify",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL unit-law" in out

    def test_corrupted_filler_names_the_problem(self, cert_path, capsys):
        obj = json.loads(Path(cert_path).read_text())
        record = next(
            r for r in obj["lift_table"] if r["generator"] == "j" and r["bot"] == [0]
        )
        record["filler"]["table"][0] = 0
        Path(cert_path).write_text(json.dumps(obj))
        code = main(
            [
                "verify",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
            ]
        )
        assert code == 1
        assert "FAIL filler-consistency" in capsys.readouterr().out

    def test_filler_with_wrong_domain_is_reported(self, cert_path, capsys):
        obj = json.loads(Path(cert_path).read_text())
        record = obj["lift_table"][0]
        record["filler"]["dom"] += 1
        record["filler"]["table"].append(0)
        Path(cert_path).write_text(json.dumps(obj))
        code = main(
            [
                "verify",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
            ]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert err == ""
        key = (record["generator"], tuple(record["top"]), tuple(record["bot"]))
        dom = record["filler"]["dom"]
        line = (f"FAIL boundary: lift table entry {key} has domain {dom}, "
                f"its generator's bottom has {dom - 1}")
        assert out.splitlines() == [line]

    def test_unparseable_certificate(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            [
                "verify",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", str(bad),
            ]
        )
        assert code == 1
        assert "line 1" in capsys.readouterr().err


class TestLift:
    def test_spec_example_filler(self, cert_path, tmp_path, capsys):
        problem = write(tmp_path, "p.json", {"generator": "j", "top": [], "bot": [1]})
        out = str(tmp_path / "filler.json")
        code = main(
            [
                "lift",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
                "--problem", problem,
                "--out", out,
            ]
        )
        assert code == 0
        filler = json.loads(Path(out).read_text())
        assert filler == {"dom": 1, "cod": 5, "table": [4]}
        assert "[4]" in capsys.readouterr().out

    def test_unknown_generator(self, cert_path, tmp_path, capsys):
        problem = write(tmp_path, "p.json", {"generator": "zz", "top": [], "bot": [1]})
        code = main(
            [
                "lift",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
                "--problem", problem,
            ]
        )
        assert code == 1
        assert "unknown generator" in capsys.readouterr().err

    def test_non_commuting_problem(self, cert_path, tmp_path, capsys):
        problem = write(tmp_path, "p.json", {"generator": "e1", "top": [0], "bot": [1]})
        code = main(
            [
                "lift",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
                "--problem", problem,
            ]
        )
        assert code == 1
        assert "does not commute" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,err", [
        ({"generator": "j", "top": [], "bot": [1, 0]},
         "DiagramError: table length 2 does not match domain size 1"),
        ({"generator": "j", "top": [], "bot": [7]},
         "DiagramError: table entry 0 -> 7 lies outside codomain of size 2"),
        ({"generator": "e1", "top": [0], "bot": [1]}, "DiagramError: square does not commute"),
    ], ids=["table-length", "entry-out-of-range", "not-commuting"])
    def test_no_problem_is_refused_by_its_square(self, cert_path, tmp_path, capsys,
                                                 payload, err):
        problem = write(tmp_path, "p.json", payload)
        code = main(["lift", "--presentation", fx("gen_split_epi.json"),
                     "--certificate", cert_path, "--problem", problem])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_problem_with_no_table_entry(self, cert_path, tmp_path, capsys):
        obj = json.loads(Path(cert_path).read_text())
        obj["lift_table"] = [r for r in obj["lift_table"]
                             if (r["generator"], r["bot"]) != ("j", [1])]
        cert = write(tmp_path, "partial.json", obj)
        problem = write(tmp_path, "p.json", {"generator": "j", "top": [], "bot": [1]})
        code = main(["lift", "--presentation", fx("gen_split_epi.json"),
                     "--certificate", cert, "--problem", problem])
        assert code == 1
        assert capsys.readouterr() == (
            "", "error: ProblemMismatch: no table entry for problem ('j', (), (1,))\n")

    def test_fillers_with_several_codomains_are_refused_at_decode(self, cert_path, tmp_path,
                                                                  capsys):
        obj = json.loads(Path(cert_path).read_text())
        obj["lift_table"][1]["filler"]["cod"] += 1
        cert = write(tmp_path, "mixed.json", obj)
        problem = write(tmp_path, "p.json", {"generator": "j", "top": [], "bot": [1]})
        fault = (f"error: {cert}.lift_table[1].filler.cod: codomain 6 differs from 5, "
                 "the codomain of record 0\n")
        args = ["--presentation", fx("gen_split_epi.json"), "--certificate", cert]
        assert main(["verify", *args]) == 1
        assert capsys.readouterr() == ("", fault)
        assert main(["lift", *args, "--problem", problem]) == 1
        assert capsys.readouterr() == ("", fault)

    @pytest.mark.parametrize("payload,fault", [
        ({"generator": "j", "top": [], "bot": [True]}, ".bot[0]: expected an integer, got bool"),
        ({"generator": "j", "top": []}, ": missing key 'bot'"),
    ], ids=["bool-entry", "missing-key"])
    def test_malformed_problem_names_its_first_fault(self, cert_path, tmp_path, capsys,
                                                     payload, fault):
        problem = write(tmp_path, "p.json", payload)
        code = main(["lift", "--presentation", fx("gen_split_epi.json"),
                     "--certificate", cert_path, "--problem", problem])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {problem}{fault}\n")

    def test_lift_table_over_budget_exits_3(self, tmp_path, capsys):
        pres, fmap = identity_on_four(tmp_path)
        cert = str(tmp_path / "cert.json")
        assert main(["factor", "--presentation", pres, "--map", fmap,
                     "--budget", "65536", "--out", cert]) == 0
        problem = write(tmp_path, "p.json", {"generator": "g", "top": [3, 1, 4, 1],
                                             "bot": [0, 0, 0, 0]})
        capsys.readouterr()
        out = tmp_path / "filler.json"
        code = main(["lift", "--presentation", pres, "--certificate", cert,
                     "--problem", problem, "--budget", "10", "--out", str(out)])
        assert code == 3
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == "size budget exceeded: lift table lists 65536 problems, budget allows 10\n"
        assert not out.exists()
        assert main(["lift", "--presentation", pres, "--certificate", cert,
                     "--problem", problem, "--budget", "65536", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"dom": 4, "cod": 16, "table": [3, 1, 4, 1]}


class TestOracle:
    def test_kappa(self, tmp_path, capsys):
        out = str(tmp_path / "kappa.json")
        code = main(
            [
                "oracle", "kappa",
                "--presentation", fx("gen_split_epi.json"),
                "--map", fx("f_1to1.json"),
                "--target-map", fx("f_1to1.json"),
                "--out", out,
            ]
        )
        assert code == 0
        assert "squares=1 liftings=1" in capsys.readouterr().out
        assert json.loads(Path(out).read_text())["ok"] is True

    def test_kappa_bound(self, capsys):
        code = main(
            [
                "oracle", "kappa",
                "--presentation", fx("gen_split_epi.json"),
                "--map", fx("f_3to2.json"),
                "--target-map", fx("f_1to1.json"),
            ]
        )
        assert code == 3
        assert "bound" in capsys.readouterr().err

    def test_kappa_raised_bound_passes(self, capsys):
        code = main(
            [
                "oracle", "kappa",
                "--presentation", fx("gen_split_epi.json"),
                "--map", fx("f_3to2.json"),
                "--target-map", fx("f_1to1.json"),
                "--bound", "3",
            ]
        )
        assert code == 0

    def test_initiality(self, cert_path, capsys):
        code = main(
            [
                "oracle", "initiality",
                "--presentation", fx("gen_split_epi.json"),
                "--certificate", cert_path,
            ]
        )
        assert code == 0
        assert "unique" in capsys.readouterr().out

    def test_initiality_reports_boundary_faults_as_verify_does(self, tmp_path, capsys):
        cert = str(tmp_path / "special.json")
        assert main(["factor", "--presentation", fx("gen_split_epi.json"),
                     "--map", fx("f_3to2.json"), "--mode", "special", "--out", cert]) == 0
        obj = json.loads(Path(cert).read_text())
        obj["left"]["cod"] -= 1  # 3 -> 4, where the middle object has 5 points
        Path(cert).write_text(json.dumps(obj))
        capsys.readouterr()
        args = ["--presentation", fx("gen_split_epi.json"), "--certificate", cert]
        assert main(["oracle", "initiality", *args]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("FAIL boundary: left factor boundaries do not match\n", "")
        assert main(["verify", *args]) == 1
        assert capsys.readouterr().out.splitlines() == [out.strip()]

    def test_initiality_refuses_before_listing_squares(self, tmp_path, capsys):
        """The identity on 9 points has 101,559,956,668,416 squares from its
        middle object to itself: counted, not listed, then refused."""
        f = write(tmp_path, "id9.json", {"dom": 9, "cod": 9, "table": list(range(9))})
        cert = str(tmp_path / "cert.json")
        pres = ["--presentation", fx("gen_split_epi.json")]
        assert main(["factor", *pres, "--map", f, "--mode", "special", "--max-stage", "4",
                     "--out", cert]) == 0
        capsys.readouterr()
        assert main(["oracle", "initiality", *pres, "--certificate", cert]) == 3
        assert capsys.readouterr() == ("", "size budget exceeded: oracle initiality lists "
                                           "101559956668416 candidate squares, budget allows 250000\n")

    def test_kappa_refuses_before_listing_base_squares(self, tmp_path, capsys, monkeypatch):
        """The identity on 8 points has 16,777,216 base squares into the
        constant map onto one point: counted, not listed, then refused."""
        f = write(tmp_path, "id8.json", {"dom": 8, "cod": 8, "table": list(range(8))})
        g = write(tmp_path, "c8.json", {"dom": 8, "cod": 1, "table": [0] * 8})
        refuse_square_listings(monkeypatch)
        assert main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"), "--map", f,
                     "--target-map", g, "--bound", "8", "--budget", "1000"]) == 3
        assert capsys.readouterr() == ("", "size budget exceeded: oracle kappa lists "
                                           "16777216 base squares, budget allows 1000\n")

    def test_initiality_refuses_before_listing_boundary_squares(self, tmp_path, capsys,
                                                                monkeypatch):
        """The special certificate of 2 -> 1 with its input replaced by the
        constant map 16 -> 1 and its left factor by the constant map to 0
        passes every boundary check; its 43,046,721 boundary squares are
        counted, not listed, then refused."""
        cert = tmp_path / "cert.json"
        pres = ["--presentation", fx("gen_split_epi.json")]
        f = write(tmp_path, "f.json", {"dom": 2, "cod": 1, "table": [0, 0]})
        assert main(["factor", *pres, "--map", f, "--mode", "special", "--out", str(cert)]) == 0
        obj = json.loads(cert.read_text())
        obj["input"] = {"top": 16, "bot": 1, "map": {"dom": 16, "cod": 1, "table": [0] * 16}}
        obj["left"] = {"dom": 16, "cod": 3, "table": [0] * 16}
        cert.write_text(json.dumps(obj))
        capsys.readouterr()
        refuse_square_listings(monkeypatch)
        assert main(["oracle", "initiality", *pres, "--certificate", str(cert),
                     "--budget", "1000"]) == 3
        assert capsys.readouterr() == ("", "size budget exceeded: oracle initiality lists "
                                           "43046721 boundary squares, budget allows 1000\n")

    def test_kappa_with_squares_beyond_the_listing_cap_samples(self, tmp_path, capsys):
        pres = write(tmp_path, "pres.json", encode_presentation(pair_square_pres()))
        f = write(tmp_path, "f.json", {"dom": 3, "cod": 3, "table": [0, 1, 2]})
        g = write(tmp_path, "g.json", {"dom": 8, "cod": 4, "table": [0, 0, 1, 1, 2, 2, 3, 3]})
        assert main(["oracle", "kappa", "--presentation", pres, "--map", f, "--target-map", g,
                     "--bound", "8"]) == 0
        assert capsys.readouterr() == ("ok cardinality: squares=32768 liftings=32768\n"
                                       "ok two-sided-inverse: sampled 64 per side (seed 0)\n", "")

    def test_kappa_reports_faulty_cells_as_a_failure(self, tmp_path, capsys, monkeypatch):
        """Cells with a forced entry moved within its fibre are a FAIL line
        and exit 1, not an escaped engine error."""
        f = write(tmp_path, "f.json", {"dom": 2, "cod": 1, "table": [0, 0]})
        args = ["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                "--map", f, "--target-map", f]
        assert main(args) == 0
        capsys.readouterr()
        install_faulty_cells(monkeypatch, "a")
        assert main(args) == 1
        assert capsys.readouterr() == ("ok cardinality: squares=8 liftings=8\nFAIL two-sided-inverse: "
                                       "exhaustive over 8 squares and 8 liftings\n", "")

    def test_kappa_needs_both_maps(self, capsys):
        for flag in ("--map", "--target-map"):
            code = main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                         flag, fx("f_1to1.json")])
            assert code == 1
            assert capsys.readouterr() == ("", "oracle kappa needs --map and --target-map\n")

    @pytest.mark.parametrize("presentation, bound, line", [
        ("gen_split_epi.json", "0", "swept 1 pairs, 0 failures"),
        ("gen_abc.json", "1", "swept 9 pairs, 0 failures"),
        ("gen_uniform2.json", "2", "swept 121 pairs, 0 failures"),
    ], ids=["kappa_sweep", "kappa_sweep-abc", "kappa_sweep-uniform2"])
    def test_kappa_sweep_runs_to_its_summary(self, presentation, bound, line, capsys):
        assert main(["oracle", "kappa", "--presentation", fx(presentation), "--bound", bound]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line

    def test_kappa_sweep_lists_every_pair_in_order(self, capsys):
        assert main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                     "--bound", "1"]) == 0
        one = "squares=1 liftings=1; exhaustive over 1 squares and 1 liftings"
        none = "squares=0 liftings=0; exhaustive over 0 squares and 0 liftings"
        assert capsys.readouterr().out.splitlines() == [
            "3 maps with carriers <= 1; sweeping 9 ordered pairs",
            f"ok   f=[]:0->0 g=[]:0->0  {one}",
            f"ok   f=[]:0->0 g=[]:0->1  {one}",
            f"ok   f=[]:0->0 g=[0]:1->1  {one}",
            f"ok   f=[]:0->1 g=[]:0->0  {none}",
            f"ok   f=[]:0->1 g=[]:0->1  {none}",
            f"ok   f=[]:0->1 g=[0]:1->1  {one}",
            f"ok   f=[0]:1->1 g=[]:0->0  {none}",
            f"ok   f=[0]:1->1 g=[]:0->1  {none}",
            f"ok   f=[0]:1->1 g=[0]:1->1  {one}",
            "swept 9 pairs, 0 failures",
        ]

    def test_kappa_over_budget_names_the_extension(self, tmp_path, capsys):
        f = write(tmp_path, "f.json", {"dom": 1, "cod": 2, "table": [0]})
        assert main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                     "--map", f, "--target-map", f, "--budget", "1"]) == 3
        assert capsys.readouterr() == ("", "size budget exceeded: extension of a carrier of "
                                           "size 1 adjoins cells for 2 problems, budget allows 1\n")

    def test_kappa_sweep_over_budget_exits_3(self, capsys):
        assert main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                     "--budget", "100"]) == 3
        assert capsys.readouterr() == (
            "", "size budget exceeded: oracle kappa sweep lists 121 pairs, budget allows 100\n")

    def test_kappa_sweep_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "kappa.json"
        assert main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "oracle kappa sweep writes no report; --out needs both maps\n")
        assert not out.exists()


class TestValidate:
    def test_shipped_fixtures_valid(self, capsys):
        for name in ("gen_split_epi", "gen_abc", "gen_composite", "gen_growth"):
            code = main(["validate", "--presentation", fx(f"{name}.json")])
            assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_non_commuting_square_named(self, tmp_path, capsys):
        bad = write(
            tmp_path,
            "bad.json",
            {
                "kind": "plain",
                "generators": [
                    {"name": "j", "map": {"dom": 1, "cod": 1, "table": [0]}},
                    {"name": "k", "map": {"dom": 1, "cod": 2, "table": [1]}},
                ],
                "morphisms": [
                    {
                        "name": "s",
                        "dom": "j",
                        "cod": "k",
                        "top": {"dom": 1, "cod": 1, "table": [0]},
                        "bot": {"dom": 1, "cod": 2, "table": [0]},
                    }
                ],
            },
        )
        code = main(["validate", "--presentation", bad])
        assert code == 1
        out = capsys.readouterr().out
        assert "realisation-square" in out and "s" in out

    def test_missing_file(self, capsys):
        code = main(["validate", "--presentation", "/nonexistent/p.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestUndecodableInput:
    """A file that is not UTF-8, or that nests deeper than the decoder can
    follow, exits 1 and names the path, as any other bad input does."""

    @pytest.mark.parametrize("argv", [
        ["factor", "--presentation", fx("gen_split_epi.json"), "--map", "{bad}"],
        ["validate", "--presentation", "{bad}"],
        ["verify", "--presentation", fx("gen_split_epi.json"), "--certificate", "{bad}"],
        ["lift", "--presentation", fx("gen_split_epi.json"), "--certificate", "{cert}",
         "--problem", "{bad}"],
    ], ids=["factor-map", "validate-presentation", "verify-certificate", "lift-problem"])
    @pytest.mark.parametrize("content, fault", [
        (b"\xff\xfe{}", "not UTF-8: invalid start byte at byte 0\n"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["not-utf8", "too-deep"])
    def test_exits_1_naming_the_path(self, argv, content, fault, cert_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([a.format(bad=bad, cert=cert_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: {fault}")


class TestUnwritableOutput:
    """An output path in a missing directory exits 1 and names the path."""

    @pytest.mark.parametrize("argv", [
        ["factor", "--presentation", fx("gen_split_epi.json"), "--map", fx("f_3to2.json"),
         "--max-stage", "2", "--out", "{missing}"],
        ["factor", "--presentation", fx("gen_split_epi.json"), "--map", fx("f_3to2.json"),
         "--max-stage", "2", "--trace", "{missing}"],
        ["validate", "--presentation", fx("gen_split_epi.json"), "--out", "{missing}"],
        # the report of a chain that does not stabilise
        ["factor", "--presentation", fx("gen_growth.json"), "--map", fx("f_1to1.json"),
         "--max-stage", "5", "--out", "{missing}"],
    ], ids=["factor-out", "factor-trace", "validate-out", "not-stabilised-out"])
    def test_missing_directory_exits_1(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "no-such-dir" / "out.json")
        code = main([a.format(missing=missing) for a in argv])
        assert code == 1
        assert f"error: {missing}: No such file or directory" in capsys.readouterr().err


class TestUsage:
    """A command line that does not parse is an input failure (exit 1), not
    exit 2, which means the chain did not stabilise."""

    @pytest.mark.parametrize("argv", [
        [],
        ["factor", "--presentation", fx("gen_growth.json")],
        ["factor", "--presentation", fx("gen_growth.json"), "--map", fx("f_1to1.json"),
         "--max-stage", "x"],
        ["factor", "--presentation", fx("gen_growth.json"), "--map", fx("f_1to1.json"),
         "--budget", "many"],
        ["verify", "--presentation", fx("gen_growth.json")],
        ["oracle", "sigma", "--presentation", fx("gen_growth.json")],
        ["factorise"],
        ["validate", "--presentation", fx("gen_uniform2.json"), "--budget", "0"],
    ], ids=["no-command", "missing-map", "bad-max-stage", "bad-budget", "missing-certificate",
            "unknown-oracle", "unknown-command", "validate-has-no-budget"])
    def test_usage_error_exits_1_with_usage(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: awfskit")
        assert "error:" in captured.err
        assert captured.out == ""

    def test_negative_budget_is_refused(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["factor", "--presentation", fx("gen_growth.json"), "--map",
                     fx("f_1to1.json"), "--budget", "-5", "--out", str(out)])
        assert code == 1
        assert "budget must not be negative: -5" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_bound_is_refused(self, capsys):
        code = main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                     "--map", fx("f_1to1.json"), "--target-map", fx("f_1to1.json"),
                     "--bound", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: awfskit")
        assert "bound must not be negative: -1" in captured.err
        assert captured.out == ""

    def test_zero_bound_is_a_bound(self, capsys):
        code = main(["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
                     "--map", fx("f_1to1.json"), "--target-map", fx("f_1to1.json"),
                     "--bound", "0"])
        assert code == 3
        assert "bound 0" in capsys.readouterr().err

    def test_zero_budget_is_a_budget(self, capsys):
        code = main(["factor", "--presentation", fx("gen_growth.json"), "--map",
                     fx("f_1to1.json"), "--budget", "0"])
        assert code == 3
        assert "budget allows 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["factor", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: awfskit")


class TestCallReuse:
    """One process calls ``main`` many times: the parser is built once and
    each presentation is decoded and validated once per path and content,
    and no call sees what an earlier one parsed or loaded."""

    @staticmethod
    def call(argv, capsys, out=None):
        """Exit code, stdout, stderr and the ``--out`` bytes of one call."""
        code = main(argv)
        captured = capsys.readouterr()
        written = Path(out).read_bytes() if out and Path(out).exists() else None
        return code, captured.out, captured.err, written

    @pytest.mark.parametrize("argv", [
        ["factor", "--presentation", fx("gen_composite.json"), "--map", fx("f_3to2.json"),
         "--mode", "special", "--max-stage", "4"],
        ["verify", "--presentation", fx("gen_split_epi.json"), "--certificate", "{cert}"],
        ["lift", "--presentation", fx("gen_split_epi.json"), "--certificate", "{cert}",
         "--problem", "{problem}"],
        ["oracle", "kappa", "--presentation", fx("gen_split_epi.json"),
         "--map", fx("f_1to1.json"), "--target-map", fx("f_1to1.json")],
        ["oracle", "initiality", "--presentation", fx("gen_split_epi.json"),
         "--certificate", "{cert}"],
    ], ids=["factor", "verify", "lift", "oracle-kappa", "oracle-initiality"])
    def test_same_argv_twice_is_byte_identical(self, argv, cert_path, tmp_path, capsys):
        problem = write(tmp_path, "p.json", {"generator": "j", "top": [], "bot": [1]})
        out = str(tmp_path / "out.json")
        argv = [a.format(cert=cert_path, problem=problem) for a in argv] + ["--out", out]
        first = self.call(argv, capsys, out)
        Path(out).unlink()
        second = self.call(argv, capsys, out)
        assert first == second
        assert first[0] == 0 and first[3]

    def test_rewritten_presentation_is_read_again(self, tmp_path, capsys):
        """The same path holds a valid, an invalid (twice) and another valid
        presentation in turn; each call answers as a call on a fresh file
        with that content does, so a memo keyed on the path alone fails."""
        invalid = json.dumps({
            "kind": "plain",
            "generators": [{"name": "j", "map": {"dom": 1, "cod": 1, "table": [0]}},
                           {"name": "k", "map": {"dom": 1, "cod": 2, "table": [1]}}],
            "morphisms": [{"name": "s", "dom": "j", "cod": "k",
                           "top": {"dom": 1, "cod": 1, "table": [0]},
                           "bot": {"dom": 1, "cod": 2, "table": [0]}}],
        })
        contents = [Path(fx("gen_split_epi.json")).read_text(), invalid, invalid,
                    Path(fx("gen_composite.json")).read_text()]
        pres = tmp_path / "pres.json"
        results = []
        for i, text in enumerate(contents):
            fresh = tmp_path / f"fresh-{i}.json"
            fresh.write_text(text)
            pres.write_text(text)
            argv = ["factor", "--presentation", "{p}", "--map", fx("f_3to2.json"),
                    "--max-stage", "3"]
            got = self.call([a.format(p=pres) for a in argv], capsys)
            want = self.call([a.format(p=fresh) for a in argv], capsys)
            assert got == want
            results.append(got)
        assert results[1][0] == 1
        assert results[1][2].startswith("error: invalid presentation: ")
        assert "realisation-square" in results[1][2]
        assert results[0][0] == results[3][0] == 0
        assert results[0][1] != results[3][1]

    def test_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        base = ["factor", "--presentation", fx("gen_composite.json"), "--map", fx("f_3to2.json"),
                "--max-stage", "4", "--out", str(out)]
        assert main(base + ["--mode", "special"]) == 0
        assert json.loads(out.read_text())["mode"] == "special"
        assert main(base) == 0
        assert json.loads(out.read_text())["mode"] == "plain"
        capsys.readouterr()
        bad = ["factor", "--presentation", fx("gen_growth.json"), "--max-stage", "x"]
        first = self.call(bad, capsys)
        assert first == self.call(bad, capsys)
        assert first[0] == 1 and first[2].startswith("usage: awfskit")
        assert cli._parser() is cli._parser()

    def test_presentation_memo_stays_bounded(self, tmp_path, capsys):
        text = Path(fx("gen_split_epi.json")).read_text()
        for i in range(cli._PRESENTATION_MEMO + 3):
            pres = tmp_path / f"pres-{i}.json"
            pres.write_text(text)
            assert main(["oracle", "kappa", "--presentation", str(pres),
                         "--map", fx("f_1to1.json"), "--target-map", fx("f_1to1.json")]) == 0
        info = cli._presentation.cache_info()
        assert info.maxsize == cli._PRESENTATION_MEMO
        assert info.currsize == cli._PRESENTATION_MEMO
