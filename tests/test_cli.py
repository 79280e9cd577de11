import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harmonichh
from harmonichh.cli import (
    SEARCH_FIELDS,
    ConfigError,
    build_family,
    default_config,
    dumps_machine,
    main,
    parse_config,
    render_text,
    run,
)
from harmonichh.explorer import SearchSpace, emit_counterexample, min_slack_search
from harmonichh.hh_check import THEOREM_IDS

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def verify_doc(**overrides):
    doc = default_config()
    doc.update(overrides)
    return doc


# a quadratic family at its own bound K = (alpha+beta)/a^2, where F(a) is a
# single point and rounding inverts F at grid midpoints just below a
AT_BOUND = verify_doc(
    families=[{"family": "quadratic-interval", "alpha": 0.4896563079259635,
               "beta": 2.5575578371179746, "K": 1.1926770877672164,
               "a": 1.5984168522602438, "b": 1.5984168522602438 + 1.0}],
    c=0.25, theorems=["hh_left"])

DISC = {"family": "disc", "v": [1, 0], "w": [0, 1], "K": 3.0, "beta": 1.0,
        "a": 1.0, "b": 2.0}
QUADRATIC = default_config()["families"][0]


def search_doc(seed=0, **space):
    return {"mode": "search", "theorems": ["def_shc"], "grid": {"pair_count": 16},
            "seed": seed, "search": {"c": [0.5, 1.0], "budget": 4, **space}}


# (id, config, the key the error line names).  Each config is malformed in
# one field and, but for that field, runs and holds.
MALFORMED = [
    ("grid-not-object", verify_doc(theorems=["hh_left"], grid=5), "grid"),
    ("quadrature-not-object", verify_doc(theorems=["hh_left"], quadrature="x"),
     "quadrature"),
    ("theorems-not-list", verify_doc(theorems=5), "theorems"),
    ("families-not-list", verify_doc(theorems=["hh_left"], families=5), "families"),
    ("output-integer", verify_doc(theorems=["hh_left"], output=5), "output"),
    ("output-list", verify_doc(theorems=["hh_left"], output=[1]), "output"),
    ("unknown-top-key", verify_doc(theorems=["hh_left"], tolerence=1), "tolerence"),
    ("unknown-grid-key", verify_doc(theorems=["hh_left"], grid={"pair_cout": 4}),
     "pair_cout"),
    ("unknown-quadrature-key", verify_doc(theorems=["hh_left"], quadrature={"ordr": 3}),
     "ordr"),
    ("unknown-disc-key", verify_doc(theorems=["hh_left"],
                                    families=[{**DISC, "grid_sise": 8}]), "grid_sise"),
    ("substitution-string", verify_doc(theorems=["hh_left"], quadrature={
        "rule": "gauss-legendre", "order": 16, "substitution": "false"}), "substitution"),
    ("certified-only-string", search_doc(certified_only="no"), "certified_only"),
    ("negative-seed", search_doc(seed=-1), "seed"),
    ("negative-grid-seed", verify_doc(theorems=["def_shc"], grid={
        "pair_count": 16, "sampling": "seeded-random", "seed": -1}), "seed"),
    ("c-bool", verify_doc(theorems=["hh_left"], c=True), "c"),
    ("c-string", verify_doc(theorems=["hh_left"], c="1.5"), "c"),
    ("family-field-string", verify_doc(theorems=["hh_left"],
                                       families=[{**QUADRATIC, "alpha": "2"}]), "alpha"),
    ("family-field-bool", verify_doc(theorems=["hh_left"],
                                     families=[{**QUADRATIC, "beta": True}]), "beta"),
    ("disc-field-string", verify_doc(theorems=["hh_left"],
                                     families=[{**DISC, "K": "2"}]), "K"),
]


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

    def test_search_keys_are_the_search_space(self):
        assert set(SEARCH_FIELDS) == {f.name for f in dataclasses.fields(SearchSpace)} | {
            "budget", "counterexample_out"}


class TestRepoConfigsParse:
    """Every config the repository writes or documents still parses, and the
    small ones run: the one key table per section refuses nothing they use."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        return importlib.import_module("workloads")

    def test_default(self):
        report, code = run(parse_config(default_config()))
        assert code == 1 and report.summary["total"] == len(THEOREM_IDS)

    def test_readme_search_example(self):
        blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        assert len(blocks) == 1
        cfg = parse_config(json.loads(blocks[0]))
        assert cfg.mode == "search" and cfg.search["counterexample_out"] == "cx.json"

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("workload", ["suite-default", "grid-262k", "search-disc"])
    def test_benchmark_workloads(self, workloads, tmp_path, workload, seed):
        cx = str(tmp_path / "cx.json")
        parse_config(workloads.make_config(workload, seed, cx))
        _, code = run(parse_config(workloads.make_config(workload, seed, cx, tiny=True)))
        assert code in (0, 1)

    def test_emitted_counterexample_replays(self, tmp_path):
        result = min_slack_search(SearchSpace(alpha=(0.1, 0.4), c=(1.0, 2.0),
                                              certified_only=False), "def_shc", 8, 0)
        path = tmp_path / "cx.json"
        emit_counterexample(result, str(path))
        doc = json.loads(path.read_text())
        assert "expected_slack" in doc
        report, code = run(parse_config(doc))
        assert code == 1
        assert abs(report.reports[0]["slack"] - doc["expected_slack"]) <= 1e-12


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

    @pytest.mark.parametrize("panels", [2, 4])
    def test_coarse_simpson_sandwich_holds(self, tmp_path, capsys, panels):
        # the certified default family integrated in x: the quadrature error
        # goes into the budget, it is not reported as a violation
        path = write_config(tmp_path, verify_doc(
            theorems=["hh_left", "hh_right"],
            quadrature={"rule": "composite-simpson", "order": panels, "substitution": False}))
        assert main(["--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [e["holds"] for e in out["reports"]] == [True, True]

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

    def assert_config_error(self, tmp_path, capsys, doc, names=None, args=()):
        assert main(["--config", write_config(tmp_path, doc), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err
        if names is not None:  # the key at fault, quoted
            assert repr(names) in captured.err
        return captured.err

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

    # malformed fields: one error line and exit 2, not a traceback and exit 1
    def test_unknown_search_key(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "mode": "search", "theorems": ["def_shc"],
            "search": {"alpah": [0.5, 1.0], "budget": 4},
        })

    def test_scalar_search_range(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, {
            "mode": "search", "theorems": ["def_shc"],
            "search": {"alpha": 0.5, "budget": 4},
        })

    def test_non_numeric_pair_count(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(grid={"pair_count": "x"}))

    def test_empty_grid(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(
            grid={"pair_count": 0, "sampling": "seeded-random"}))

    def test_non_numeric_c(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(c="abc"))

    # malformed family descriptors
    def test_family_not_an_object(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(families=[1]))

    def test_non_numeric_family_parameter(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(families=[
            {"family": "quadratic-interval", "alpha": "x", "beta": 1.0, "K": 10.0,
             "a": 1.0, "b": 2.0}]))

    def test_non_numeric_family_domain(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(families=[
            {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0, "K": 10.0,
             "a": "q", "b": 2.0}]))

    def test_disc_grid_too_small(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(
            families=[{"family": "disc", "v": [1, 0], "w": [0, 1], "K": 3.0,
                       "beta": 1.0, "a": 1.0, "b": 2.0, "grid_size": 2}],
            theorems=["def_shc"]))

    def test_disc_vector_not_a_pair(self, tmp_path, capsys):
        for v in ("12", {"x": 1, "y": 0}, [1, 0, 0], [True, 0]):
            self.assert_config_error(tmp_path, capsys, verify_doc(
                families=[{"family": "disc", "v": v, "w": [0, 1], "K": 3.0,
                           "beta": 1.0, "a": 1.0, "b": 2.0}],
                theorems=["def_shc"]))

    def test_disc_grid_size_not_an_integer(self, tmp_path, capsys):
        for grid_size in (3.9, True, "64"):
            self.assert_config_error(tmp_path, capsys, verify_doc(
                families=[{"family": "disc", "v": [1, 0], "w": [0, 1], "K": 3.0,
                           "beta": 1.0, "a": 1.0, "b": 2.0, "grid_size": grid_size}],
                theorems=["def_shc"]))

    @pytest.mark.parametrize("theorems", [["thm33"], ["cor36"]])
    def test_disc_product_theorem(self, tmp_path, capsys, theorems):
        assert main(["--config", write_config(tmp_path, verify_doc(
            families=[{"family": "disc", "v": [1, 0], "w": [0, 1], "K": 3.0,
                       "beta": 1.0, "a": 1.0, "b": 2.0}],
            theorems=theorems))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: product integrals are interval-only\n"

    @pytest.mark.parametrize("value", [16.9, 16.0, True, "16", None])
    @pytest.mark.parametrize("where", ["pair_count", "grid seed", "order", "seed", "budget"])
    def test_count_not_an_integer(self, tmp_path, capsys, where, value):
        # every integer field follows one rule: a JSON integer, not a float,
        # a bool or a string that int() would accept
        if where == "budget":
            doc = {"mode": "search", "theorems": ["def_shc"], "grid": {"pair_count": 16},
                   "search": {"c": [0.5, 1.0], "budget": value}}
        else:
            doc = verify_doc(theorems=["hh_left"])
            if where == "pair_count":
                doc["grid"] = {"pair_count": value}
            elif where == "grid seed":
                doc["grid"] = {"sampling": "seeded-random", "seed": value}
            elif where == "order":
                doc["quadrature"] = {"rule": "gauss-legendre", "order": value}
            else:
                doc["seed"] = value
        self.assert_config_error(tmp_path, capsys, doc)

    def test_family_at_its_bound(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, AT_BOUND)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "K=1.1926770877672164" in captured.err

    def test_any_exception_of_a_run(self, tmp_path, capsys, monkeypatch):
        # exit 1 is the program's finding; a failure of any kind is exit 2
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr("harmonichh.cli.run_theorems", boom)
        assert main(["--config", write_config(tmp_path, verify_doc(theorems=["hh_left"]))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: boom\n"

    def test_interpreter_exit_status(self, tmp_path):
        # only a process shows what an escaping exception does: status 1,
        # read as a violation, and a traceback on stderr
        env = dict(os.environ)
        # the src tree this run tests, which PYTHONPATH may name
        src = Path(harmonichh.__file__).parents[1]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "harmonichh.cli", "--config", write_config(tmp_path, AT_BOUND)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("error:") == 1

    def test_overflowing_family(self, tmp_path, capsys):
        # finite fields whose F(a) + F(b) overflows: a numerical error, not a violation
        self.assert_config_error(tmp_path, capsys, verify_doc(
            families=[{"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0,
                       "K": 1e308, "a": 1.0, "b": 2.0}],
            theorems=["hh_right"]))

    @pytest.mark.parametrize("a,b,end", [(1.0, 1e308, "b=1e+308"), (1e200, 1e201, "a=1e+200")],
                             ids=["b", "a"])
    def test_overflowing_domain(self, tmp_path, capsys, recwarn, a, b, end):
        # x^2 of the end (and of the grid midpoints) overflows: the domain
        # refuses the end by name before any family or grid sees it
        err = self.assert_config_error(tmp_path, capsys, verify_doc(
            families=[{**QUADRATIC, "a": a, "b": b}]))
        assert f"end {end} outside" in err
        assert not recwarn.list

    def test_largest_domain_runs(self, tmp_path, capsys, recwarn):
        # at b = 2^511 every id runs without a warning; only the printed
        # product theorems fail, as on [1, 2]
        doc = verify_doc(families=[{**QUADRATIC, "b": 2.0 ** 511}], theorems=list(THEOREM_IDS))
        assert main(["--config", write_config(tmp_path, doc)]) == 1
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["theorem"] for r in reports if not r["holds"]] == \
            ["thm33", "cor34", "thm35", "cor36"]
        assert not recwarn.list

    def test_search_leaving_the_domain_range(self, tmp_path, capsys, recwarn):
        # the a-range reaches a whose square overflows in the explorer's repair
        err = self.assert_config_error(tmp_path, capsys,
                                       search_doc(a=[1.0, 1e200], b=[2e200, 3e200]))
        assert "end b=3e+200 outside" in err
        assert not recwarn.list

    @pytest.mark.parametrize("a_max", [1.5e-154, 1.0], ids=["near", "wide"])
    def test_search_whose_least_K_overflows(self, tmp_path, capsys, recwarn, a_max):
        # (alpha + beta)/a^2 overflows at a = 2^-511: the space is refused by
        # naming a, before any sample is repaired
        err = self.assert_config_error(tmp_path, capsys, search_doc(
            a=[2.0 ** -511, a_max], alpha=[3.0, 3.0], beta=[3.0, 3.0]))
        assert err.count("\n") == 1
        assert "a=1.4916681462400413e-154" in err
        assert not recwarn.list

    @pytest.mark.parametrize("family", [{**QUADRATIC, "alpha": 3.0, "beta": 3.0},
                                        {**DISC, "beta": 5.0}], ids=["quadratic", "disc"])
    def test_family_whose_least_K_overflows(self, tmp_path, capsys, recwarn, family):
        err = self.assert_config_error(tmp_path, capsys, verify_doc(
            families=[{**family, "a": 2.0 ** -511, "b": 1.0}], theorems=["def_shc"]))
        assert err.count("\n") == 1
        assert "a=1.4916681462400413e-154" in err
        assert not recwarn.list

    # tolerances and t values that would turn held inclusions into violations
    def test_negative_tolerance(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(
            theorems=["hh_left"], tolerance=-1))

    def test_nan_tolerance(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(
            theorems=["hh_left"], tolerance=float("nan")))

    def test_nan_tol_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_doc(theorems=["hh_left"]))
        assert main(["--config", path, "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1

    # an output that cannot be written is an error, not a violation
    def test_unwritable_out_flag(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "r.json")
        self.assert_config_error(tmp_path, capsys, verify_doc(theorems=["hh_left"]),
                                 args=("--out", missing))

    def test_unwritable_config_output(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "r.json")
        self.assert_config_error(tmp_path, capsys,
                                 verify_doc(theorems=["hh_left"], output=missing))

    def test_unwritable_counterexample(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "cx.json")
        self.assert_config_error(tmp_path, capsys, {
            "mode": "search", "theorems": ["def_shc"], "grid": {"pair_count": 16},
            "search": {"alpha": [0.1, 0.4], "c": [1.0, 2.0], "certified_only": False,
                       "budget": 4, "counterexample_out": missing}})

    @pytest.mark.parametrize("doc,key", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_field(self, tmp_path, capsys, doc, key):
        # one rule for every section: the section is an object, its keys are
        # known, and each value has its field's JSON type
        self.assert_config_error(tmp_path, capsys, doc, names=key)

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--tol", "0.1"], ["--mode", "verify"]])
    def test_non_object_document_with_flag(self, tmp_path, capsys, flag):
        # a flag replaces a key of the document; a document that is not an
        # object has none, and is refused like any other
        assert main(["--config", write_config(tmp_path, [1]), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config must be a JSON object, got [1]\n"

    def test_nan_t_value(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, verify_doc(
            theorems=["def_shc"], grid={"t_values": [0.0, float("nan"), 0.5, 1.0]}))
