import json

import pytest

from harmonichh.cli import (
    ConfigError,
    build_family,
    default_config,
    dumps_machine,
    main,
    parse_config,
    render_text,
    run,
)
from harmonichh.hh_check import THEOREM_IDS


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def verify_doc(**overrides):
    doc = default_config()
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_default_round_trips(self):
        cfg = parse_config(default_config())
        assert cfg.mode == "verify"
        assert cfg.c == 1.0
        assert cfg.grid.pair_count == 1024
        assert cfg.quadrature.order_or_panels == 16
        assert set(cfg.theorems) == set(THEOREM_IDS)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            parse_config(verify_doc(mode="prove"))

    def test_unknown_theorem(self):
        with pytest.raises(ConfigError):
            parse_config(verify_doc(theorems=["hh_left", "thm99"]))

    def test_missing_domain(self):
        doc = verify_doc(families=[{"family": "quadratic-interval",
                                    "alpha": 1, "beta": 1, "K": 10}])
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_search_needs_space_and_single_theorem(self):
        with pytest.raises(ConfigError):
            parse_config(verify_doc(mode="search"))
        with pytest.raises(ConfigError):
            parse_config(verify_doc(mode="search", search={},
                                    theorems=["hh_left", "hh_right"]))

    def test_bad_quadrature(self):
        with pytest.raises(ConfigError):
            parse_config(verify_doc(quadrature={"rule": "trapezoid", "order": 4}))


class TestBuildFamily:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_family({"family": "polytope", "a": 1.0, "b": 2.0})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            build_family({"family": "quadratic-interval", "a": 1.0, "b": 2.0,
                          "alpha": 1.0, "beta": 1.0})

    def test_disc(self):
        f = build_family({"family": "disc", "v": [1, 0], "w": [0, 1],
                          "K": 3, "beta": 1, "a": 1.0, "b": 2.0})
        assert f.kind == "support"


class TestRun:
    def test_verify_subset_all_hold(self):
        doc = verify_doc(theorems=["def_shc", "hh_left", "hh_right",
                                   "nikodem_left", "nikodem_right", "prop_31"])
        report, code = run(parse_config(doc))
        assert code == 0
        assert report.summary["failed"] == 0
        assert report.summary["total"] == 6

    def test_violation_exits_one(self):
        doc = verify_doc(
            families=[{"family": "quadratic-interval", "alpha": 0.5,
                       "beta": 1.0, "K": 10.0, "a": 1.0, "b": 2.0}],
            theorems=["def_shc"])
        report, code = run(parse_config(doc))
        assert code == 1
        assert not report.reports[0]["holds"]

    def test_baseline_mode_runs_arithmetic_checks(self):
        doc = verify_doc(mode="baseline", theorems=[])
        report, code = run(parse_config(doc))
        assert code == 0
        assert {e["theorem"] for e in report.reports} == \
            {"nikodem_left", "nikodem_right"}

    def test_search_mode(self):
        doc = verify_doc(
            mode="search",
            theorems=["hh_left"],
            search={"alpha": [1.0, 2.0], "beta": [1.0, 2.0], "K": [10.0, 20.0],
                    "a": [1.0, 1.2], "b": [1.8, 2.0], "c": [0.5, 1.0],
                    "budget": 12})
        report, code = run(parse_config(doc))
        assert code == 0
        entry = report.reports[0]
        assert entry["theorem"] == "hh_left"
        assert entry["evaluations"] >= 12
        assert entry["slack"] >= -1e-9

    def test_multiple_families(self):
        doc = verify_doc(
            families=[
                {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0,
                 "K": 10.0, "a": 1.0, "b": 2.0},
                {"family": "disc", "v": [1, 0], "w": [0, 1], "K": 3.0,
                 "beta": 1.0, "a": 1.0, "b": 2.0},
            ],
            theorems=["hh_left", "hh_right"])
        report, code = run(parse_config(doc))
        assert code == 0
        assert report.summary["total"] == 4


class TestMachineFormat:
    def test_round_trip_exact(self):
        doc = verify_doc(theorems=["hh_left", "hh_right", "def_shc"])
        report, _ = run(parse_config(doc))
        parsed = json.loads(dumps_machine(report.to_dict()))
        assert parsed == report.to_dict()

    def test_17_digit_floats(self):
        assert dumps_machine(0.1) == "0.10000000000000001"
        assert json.loads(dumps_machine(1 / 3)) == 1 / 3

    def test_bools_not_rendered_as_floats(self):
        assert dumps_machine({"holds": True}) == '{\n  "holds": true\n}'


class TestTextFormat:
    def test_one_row_per_theorem(self):
        doc = verify_doc(theorems=["hh_left", "hh_right"])
        report, _ = run(parse_config(doc))
        lines = render_text(report).splitlines()
        assert len(lines) == 1 + 2 + 1  # header, rows, summary
        assert "hh_left" in lines[1] and "hh_right" in lines[2]
        assert lines[-1].startswith("total=2 held=2 failed=0")


class TestMain:
    def test_missing_config_file_exits_two(self, capsys):
        assert main(["--config", "/nonexistent/cfg.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_family_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(
            families=[{"family": "quadratic-interval", "alpha": 1, "beta": 1,
                       "K": 10}]))
        assert main(["--config", path]) == 2

    def test_infeasible_family_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(
            families=[{"family": "quadratic-interval", "alpha": 1.0,
                       "beta": 1.0, "K": 1.0, "a": 1.0, "b": 2.0}],
            theorems=["hh_left"]))
        assert main(["--config", path]) == 2

    def test_violation_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(
            families=[{"family": "quadratic-interval", "alpha": 0.5,
                       "beta": 1.0, "K": 10.0, "a": 1.0, "b": 2.0}],
            theorems=["def_shc"]))
        assert main(["--config", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["failed"] == 1

    def test_passing_subset_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(
            theorems=["def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31",
                      "nikodem_left", "nikodem_right", "hh_left", "hh_right"]))
        assert main(["--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["held"] == 9

    def test_tol_override(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(theorems=["hh_left"]))
        assert main(["--config", path, "--tol", "1e-6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"][0]["tolerance_used"] >= 1e-6

    def test_out_file(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(theorems=["hh_left"]))
        out_path = tmp_path / "report.json"
        assert main(["--config", path, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["summary"]["held"] == 1

    def test_text_format(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(theorems=["hh_left"]))
        assert main(["--config", path, "--format", "text"]) == 0
        assert "hh_left" in capsys.readouterr().out

    def test_default_config_keyword(self, capsys):
        # the bundled default lists the product identities, whose printed
        # statement form fails under Moore interval multiplication
        code = main(["--config", "default", "--format", "text"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "def_shc" in out and "hh_left" in out and "thm33" in out


class TestConfigErrorExitCode:
    """A modulus a theorem does not accept, or an empty search budget, is a
    config error: exit 2 with one ``error:`` line, never a traceback."""

    def assert_config_error(self, tmp_path, capsys, doc):
        assert main(["--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err

    def test_negative_c_verify(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(c=-0.5))

    def test_lemma_with_default_c(self, tmp_path, capsys):
        doc = verify_doc(theorems=["def_shc", "lemma_i"])
        del doc["c"]
        self.assert_config_error(tmp_path, capsys, doc)

    def test_negative_c_search(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "mode": "search", "theorems": ["def_shc"], "grid": {"pair_count": 64},
            "search": {"c": [-1.0, 0.5], "certified_only": False, "budget": 4},
        })

    def test_zero_budget_search(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "mode": "search", "theorems": ["def_shc"],
            "search": {"c": [0.5, 1.0], "budget": 0},
        })

    def test_parse_config_checks_baseline_theorems(self):
        with pytest.raises(ConfigError):
            parse_config(verify_doc(mode="baseline", theorems=[], c=-1.0))
        # baseline runs only the Nikodem pair, which accepts c = 0
        assert parse_config(verify_doc(mode="baseline", c=0.0)).theorems == [
            "nikodem_left", "nikodem_right"]
