import json
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from harmonichh import hh_check
from harmonichh.aumann import QuadratureSpec
from harmonichh.cli import build_family
from harmonichh.cli import main as cli_main
from harmonichh.explorer import (
    SearchSpace,
    _repair,
    emit_counterexample,
    evaluate_config,
    family_descriptor,
    min_slack_search,
    run_theorems,
)
from harmonichh.hh_check import THEOREM_IDS, ConvexityGrid
from harmonichh.svf import FeasibilityError, QuadraticIntervalFn, least_K, make_family

GRID = ConvexityGrid(pair_count=64)


def build_function(cfg):
    """The family of a search config, as the search builds it."""
    return make_family(family_descriptor(cfg))


def pinned_space(**overrides):
    base = dict(
        alpha=(1.0, 1.0), beta=(1.0, 1.0), K=(10.0, 10.0),
        a=(1.0, 1.0), b=(2.0, 2.0), c=(1.0, 1.0),
    )
    base.update(overrides)
    return SearchSpace(**base)


class TestSearchSpace:
    def test_overlapping_domain_ranges_rejected(self):
        with pytest.raises(FeasibilityError):
            SearchSpace(a=(0.5, 2.0), b=(1.5, 3.0))

    def test_empty_range_rejected(self):
        with pytest.raises(FeasibilityError):
            SearchSpace(K=(10.0, 5.0))

    @pytest.mark.parametrize("name", ["v", "w"])
    @pytest.mark.parametrize("bad", [(1.0, -1.0), (float("nan"), 1.0)])
    def test_empty_disc_vector_range_rejected(self, name, bad):
        for i in (0, 1):
            ranges = [(-1.0, 1.0), (-1.0, 1.0)]
            ranges[i] = bad
            with pytest.raises(FeasibilityError, match=rf"empty range for {name}\[{i}\]"):
                SearchSpace(family="disc", **{name: tuple(ranges)})

    def test_unknown_family_rejected(self):
        with pytest.raises(FeasibilityError):
            SearchSpace(family="polytope")

    @pytest.mark.parametrize("kind,name", [("quadratic-interval", "alpha"),
                                           ("quadratic-interval", "beta"),
                                           ("disc", "beta")])
    def test_nonpositive_moduli_rejected(self, kind, name):
        with pytest.raises(FeasibilityError):
            SearchSpace(family=kind, certified_only=False, **{name: (0.0, 0.5)})

    def test_overflowing_least_K_rejected(self):
        # (alpha + beta)/a^2 overflows at a-min = 2^-511
        with pytest.raises(FeasibilityError, match=re.escape("a=1.4916681462400413e-154")):
            SearchSpace(a=(2.0 ** -511, 1.5e-154), alpha=(3.0, 3.0), beta=(3.0, 3.0))

    def test_disc_ignores_alpha(self):
        SearchSpace(family="disc", alpha=(-1.0, -0.5), certified_only=False)

    def test_c_range_checked_against_theorem(self):
        space = SearchSpace(c=(0.0, 0.5), certified_only=False)
        with pytest.raises(FeasibilityError):
            min_slack_search(space, "lemma_i", budget=2, seed=0, grid=GRID)
        # def_shc accepts c = 0
        min_slack_search(space, "def_shc", budget=2, seed=0, grid=GRID)


@st.composite
def space_and_sample(draw, family):
    """A search space the explorer accepts, at any scale of the domain
    range, and a raw sample of it drawn as the search draws one."""
    def span(lo, hi):
        x, y = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
        return (min(x, y), max(x, y))

    a_min = 2.0 ** draw(st.integers(-511, 200)) * draw(st.floats(1.0, 2.0))
    a = (a_min, a_min * draw(st.floats(1.0, 4.0)))
    b_min = a[1] * draw(st.floats(1.01, 4.0))
    try:
        space = SearchSpace(family=family, alpha=span(1e-3, 10.0), beta=span(1e-3, 10.0),
                            K=span(0.0, 100.0), v=(span(-1.0, 1.0), span(-1.0, 1.0)),
                            w=(span(-1.0, 1.0), span(-1.0, 1.0)), a=a,
                            b=(b_min, b_min * draw(st.floats(1.0, 4.0))), c=span(1e-3, 10.0),
                            certified_only=draw(st.booleans()))
    except FeasibilityError:  # its least K overflows: a-min within an ulp or two of 2^-511
        reject()
    raw = {name: lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
           for name, (lo, hi) in space.dimension_ranges()}
    return space, raw


@pytest.mark.parametrize("family", ["quadratic-interval", "disc"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_repair_and_factories_share_the_family_rule(family, data):
    space, raw = data.draw(space_and_sample(family))
    cfg = _repair(space, raw)
    f = build_function(cfg)  # the factory accepts every repaired sample
    top = raw["alpha"] + raw["beta"] if family == "quadratic-interval" else raw["beta"]
    assert cfg["K"] == max(raw["K"], least_K(top, raw["a"]))
    modulus = f.certificate.claimed_modulus
    if space.certified_only:
        assert min(space.c[0], modulus) <= cfg["c"] <= modulus


QUADRATIC_CFG = {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0,
                 "K": 10.0, "a": 1.0, "b": 2.0, "c": 1.0}


class TestTheoremTable:
    def test_requested_order_with_repeats(self):
        f = build_function(QUADRATIC_CFG)
        ids = ["cor36", "hh_right", "def_shc", "hh_right", "lemma_i", "thm35"]
        reports = run_theorems(f, ids, 1.0, GRID, QuadratureSpec())
        assert [r.theorem_id for r in reports] == ids
        assert reports[1] is reports[3]

    @pytest.mark.parametrize("ids,grid_ids,integral_ids", [
        # one walk over the grid serves all five grid ids, one integral pass
        # both sandwiches and all four product ids
        (THEOREM_IDS + THEOREM_IDS, hh_check.GRID_IDS, THEOREM_IDS[5:]),
        (("def_mid", "prop_31", "def_mid"), ("def_mid", "prop_31"), None),
        (("cor36", "hh_left"), None, ("hh_left", "cor36")),
        (("thm33", "lemma_ii", "nikodem_right", "def_shc"), ("def_shc", "lemma_ii"),
         ("nikodem_right", "thm33")),
    ])
    def test_each_row_runs_once(self, monkeypatch, ids, grid_ids, integral_ids):
        calls = []

        def counting(name, ids_at=None):
            original = getattr(hh_check, name)

            def wrapper(*args, **kwargs):
                calls.append((name, None if ids_at is None else tuple(args[ids_at])))
                return original(*args, **kwargs)
            monkeypatch.setattr(hh_check, name, wrapper)

        counting("grid_reports", 3)
        counting("integral_reports", 5)
        for name in ("_walk", "check_hh", "check_nikodem"):
            counting(name)
        reports = run_theorems(build_function(QUADRATIC_CFG), ids, 1.0, GRID, QuadratureSpec())
        assert [r.theorem_id for r in reports] == list(ids)
        # each pass runs at most once, given its requested ids in THEOREM_IDS order
        want = []
        if grid_ids:
            want += [("grid_reports", grid_ids), ("_walk", None)]
        if integral_ids:
            want.append(("integral_reports", integral_ids))
        assert sorted(calls) == sorted(want)

    @pytest.mark.parametrize("ids,per_point,per_triple", [
        (["def_shc"], 1, 1),
        (["def_shc", "lemma_i"], 1, 1),  # the shifted side adds no evaluation
        (["lemma_i", "prop_31"], 2, 2),  # prop_31's arithmetic side is independent
    ])
    def test_f_evaluated_once_per_point(self, monkeypatch, ids, per_point, per_triple):
        # the stratified grid is the product of its points with themselves:
        # F is evaluated at each point once, not at each pair, in x or (the
        # grid pass's quadratic) from u and u^2
        points = []
        for name in ("eval_vector", "rows_in_u"):
            original = getattr(QuadraticIntervalFn, name)
            monkeypatch.setattr(QuadraticIntervalFn, name,
                                lambda self, xs, *out, original=original:
                                points.append(len(xs)) or original(self, xs, *out))
        run_theorems(build_function(QUADRATIC_CFG), ids, 1.0, GRID, QuadratureSpec())
        n = GRID.points(1.0, 2.0).size
        pairs = GRID.pairs(1.0, 2.0)[0].size
        assert (n, pairs) == (8, 64)
        assert sum(points) == per_point * n + per_triple * pairs * len(GRID.t_values)

    def test_lemma_without_def_shc_requested(self):
        f = build_function(QUADRATIC_CFG)
        [rep] = run_theorems(f, ["lemma_ii"], 1.0, GRID, QuadratureSpec())
        assert rep.theorem_id == "lemma_ii" and rep.holds

    def test_modulus_checked(self):
        f = build_function(QUADRATIC_CFG)
        with pytest.raises(FeasibilityError):
            run_theorems(f, ["def_shc", "lemma_i"], 0.0, GRID, QuadratureSpec())
        with pytest.raises(FeasibilityError):
            run_theorems(f, ["hh_left"], -1.0, GRID, QuadratureSpec())


class TestEvaluateConfig:
    def test_pinned_tight_family_hh_slack(self):
        cfg = {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0,
               "K": 10.0, "a": 1.0, "b": 2.0, "c": 1.0}
        rep = evaluate_config(cfg, "hh_left", GRID)
        assert rep.holds
        assert rep.verdict.slack == pytest.approx(0.0, abs=1e-10)

    def test_build_function_certificate(self):
        cfg = {"family": "quadratic-interval", "alpha": 2.0, "beta": 3.0,
               "K": 20.0, "a": 1.0, "b": 2.0, "c": 1.0}
        assert build_function(cfg).certificate.claimed_modulus == 2.0

    def test_unknown_theorem(self):
        cfg = {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0,
               "K": 10.0, "a": 1.0, "b": 2.0, "c": 1.0}
        with pytest.raises(ValueError):
            evaluate_config(cfg, "thm99", GRID)


class TestMinSlackSearch:
    def test_deterministic(self):
        space = SearchSpace()
        r1 = min_slack_search(space, "def_shc", budget=24, seed=3, grid=GRID)
        r2 = min_slack_search(space, "def_shc", budget=24, seed=3, grid=GRID)
        assert r1.best_config == r2.best_config
        assert r1.best_slack == r2.best_slack
        assert r1.evaluations == r2.evaluations

    def test_seed_changes_samples(self):
        space = SearchSpace()
        r1 = min_slack_search(space, "hh_left", budget=16, seed=1, grid=GRID)
        r2 = min_slack_search(space, "hh_left", budget=16, seed=2, grid=GRID)
        assert r1.best_config != r2.best_config

    def test_degenerate_space_returns_its_slack(self):
        result = min_slack_search(pinned_space(), "hh_left", budget=4, seed=0,
                                  grid=GRID)
        assert result.best_slack == pytest.approx(0.0, abs=1e-10)
        assert not result.violation_found
        assert result.best_config["K"] == 10.0

    @pytest.mark.parametrize("tid", ["def_shc", "prop_31", "lemma_i",
                                     "hh_left", "hh_right"])
    def test_certified_space_finds_no_violation(self, tid):
        space = SearchSpace()  # certified_only=True clamps c to the modulus
        result = min_slack_search(space, tid, budget=32, seed=0, grid=GRID)
        assert not result.violation_found
        assert result.best_slack >= -1e-9

    def test_uncertified_space_finds_violation(self):
        space = SearchSpace(alpha=(0.1, 0.4), c=(1.0, 2.0), certified_only=False)
        result = min_slack_search(space, "def_shc", budget=32, seed=0, grid=GRID)
        assert result.violation_found
        assert result.best_slack < -1e-9

    def test_budget_counts_descent_probes(self):
        result = min_slack_search(SearchSpace(), "def_shc", budget=8, seed=0,
                                  grid=GRID)
        assert result.evaluations > 8

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            min_slack_search(SearchSpace(), "def_shc", budget=0, seed=0)


class TestEmitCounterexample:
    def test_non_violation_raises(self, tmp_path):
        result = min_slack_search(pinned_space(), "hh_left", budget=4, seed=0,
                                  grid=GRID)
        with pytest.raises(ValueError):
            emit_counterexample(result, str(tmp_path / "cx.json"))

    def test_round_trip_reproduces_slack(self, tmp_path, capsys):
        space = SearchSpace(alpha=(0.1, 0.4), c=(1.0, 2.0), certified_only=False)
        result = min_slack_search(space, "def_shc", budget=32, seed=0, grid=GRID)
        assert result.violation_found
        path = tmp_path / "cx.json"
        emit_counterexample(result, str(path))

        doc = json.loads(path.read_text())
        assert doc["mode"] == "verify"
        assert doc["theorems"] == ["def_shc"]

        code = cli_main(["--config", str(path)])
        replay = json.loads(capsys.readouterr().out)
        assert code == 1
        entry = replay["reports"][0]
        assert not entry["holds"]
        assert entry["slack"] == pytest.approx(doc["expected_slack"], abs=1e-12)


class TestReplay:
    @pytest.mark.parametrize("cfg", [
        {"family": "quadratic-interval", "alpha": 0.3, "beta": 1.7, "K": 12.5,
         "a": 0.8, "b": 2.2, "c": 1.0},
        {"family": "disc", "v0": 0.4, "v1": -0.9, "w0": 0.1, "w1": 0.6, "K": 4.0,
         "beta": 1.3, "a": 0.9, "b": 1.9, "c": 1.0},
    ], ids=["quadratic", "disc"])
    def test_params_rebuild_the_same_function(self, cfg):
        f = build_function(cfg)
        g = build_family(json.loads(json.dumps(f.params())))
        xs = np.linspace(cfg["a"], cfg["b"], 17)
        assert np.array_equal(f.eval_vector(xs), g.eval_vector(xs))

    def test_nonpositive_alpha_search_exits_two_before_writing(self, tmp_path, capsys):
        cx = tmp_path / "cx.json"
        doc = {"mode": "search", "theorems": ["def_shc"], "grid": {"pair_count": 64},
               "search": {"alpha": [-1.0, -0.5], "certified_only": False,
                          "budget": 4, "counterexample_out": str(cx)}}
        path = tmp_path / "search.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["--config", str(path)]) == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not cx.exists()
