"""Randomized slack mining over family-parameter and domain space.

Sweeps feasible configurations, scores each one by the signed slack of a
chosen theorem checker, and reports the minimum-slack configuration; a
negative slack beyond tolerance is a counterexample and can be written
out as a replayable verify-mode config document.

Sampling is Latin-hypercube followed by a derivative-free coordinate
descent around the best sample (3 rounds of shrinking steps).  Results
are deterministic given (space, budget, seed); ties are broken by
lexicographic config ordering.

Every evaluation goes through ``hh_check.run_theorems``, the one way the
search and the CLI run a theorem on a family.  The feasible set is the
family rule of ``svf`` (``family_rule``, ``least_K``), which checks the
search space once and repairs every sample.  The dimensions of a search
are the parameters the family's class declares, each pair p as p0 and p1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .aumann import QuadratureSpec
from .hh_check import DEFAULT_TOL, ConvexityGrid, TheoremReport, check_modulus, run_theorems
from .svf import (FeasibilityError, HarmonicDomain, family_class, family_rule, least_K,
                  make_family)

# Names of deleted checks, bound only because perfbench/spans.py still looks
# them up here; nothing calls them.  ROADMAP item 1 retires the lookups.
(check_cor34, check_cor36, check_hh, check_lemma_shift, check_nikodem, check_prop31,
 check_strongly_harmonic_convex, check_strongly_harmonic_midconvex, check_thm33,
 check_thm35) = (None,) * 10

DEFAULT_SEARCH_GRID = ConvexityGrid(pair_count=64)


@dataclass(frozen=True)
class SearchSpace:
    """Parameter ranges, each as (min, max).  The a-range must lie strictly
    below the b-range so every sampled domain satisfies 0 < a < b, and
    [a-min, b-max] must be a domain, so every sampled one is.  The family
    rule must hold at the range minima with a finite least K at the maxima."""

    family: str = "quadratic-interval"
    alpha: Tuple[float, float] = (0.5, 3.0)
    beta: Tuple[float, float] = (0.5, 3.0)
    K: Tuple[float, float] = (5.0, 20.0)
    v: Tuple[Tuple[float, float], Tuple[float, float]] = ((-1.0, 1.0), (-1.0, 1.0))
    w: Tuple[Tuple[float, float], Tuple[float, float]] = ((-1.0, 1.0), (-1.0, 1.0))
    a: Tuple[float, float] = (0.5, 1.5)
    b: Tuple[float, float] = (1.6, 3.0)
    c: Tuple[float, float] = (0.25, 1.0)
    certified_only: bool = True

    def __post_init__(self) -> None:
        ranges = [(name, getattr(self, name)) for name in ("alpha", "beta", "K", "a", "b", "c")]
        ranges += [(f"{name}[{i}]", r) for name in ("v", "w")
                   for i, r in enumerate(getattr(self, name))]
        for name, (lo, hi) in ranges:
            if not (lo <= hi):  # also rejects NaN
                raise FeasibilityError(f"empty range for {name}: ({lo}, {hi})")
        if not (0.0 < self.a[0] and self.a[1] < self.b[0]):
            raise FeasibilityError("feasible space needs 0 < a-range strictly below b-range")
        HarmonicDomain(self.a[0], self.b[1])  # refuses an end outside the domain range
        dims = self.dimension_ranges()
        family_rule(self.family, {name: lo for name, (lo, _) in dims})
        top, _ = family_rule(self.family, {name: hi for name, (_, hi) in dims})
        least_K(top, self.a[0])
        if self.c[0] <= 0.0 and self.certified_only:
            raise FeasibilityError("certified-only search needs c > 0")

    def dimension_ranges(self):
        """(name, range) of each dimension searched: the family's parameters
        in their declared order, a pair p as p0 and p1, then a, b and c."""
        cls = family_class(self.family)
        dims = []
        for name in cls.parameters + ("a", "b", "c"):
            if name in cls.pairs:
                dims += [(f"{name}{i}", r) for i, r in enumerate(getattr(self, name))]
            else:
                dims.append((name, getattr(self, name)))
        return dims


@dataclass(frozen=True)
class SearchResult:
    best_config: dict
    best_slack: float
    theorem_id: str
    evaluations: int
    seed: int
    violation_found: bool
    context: dict = field(default_factory=dict)


def _repair(space: SearchSpace, raw: dict) -> dict:
    """Project a raw sample onto the feasible set: K up to its least K and,
    if certified-only, c into [min(c-min, modulus), modulus]."""
    cfg = dict(raw)
    cfg["family"] = space.family
    top, modulus = family_rule(space.family, cfg)
    cfg["K"] = max(cfg["K"], least_K(top, cfg["a"]))
    if space.certified_only:
        cfg["c"] = min(cfg["c"], modulus)
        cfg["c"] = max(cfg["c"], min(space.c[0], modulus))
    return cfg


def family_descriptor(cfg: dict) -> dict:
    """The family descriptor of a search config, the layout ``make_family``
    reads: its kind, parameters and domain, each pair p from p0 and p1."""
    cls = family_class(cfg["family"])
    desc = {name: (cfg[f"{name}0"], cfg[f"{name}1"]) if name in cls.pairs else cfg[name]
            for name in cls.parameters}
    return {"family": cfg["family"], **desc, "a": cfg["a"], "b": cfg["b"]}


def evaluate_config(cfg: dict, theorem_id: str,
                    grid: ConvexityGrid = DEFAULT_SEARCH_GRID,
                    quad: Optional[QuadratureSpec] = None,
                    tol: float = DEFAULT_TOL) -> TheoremReport:
    """Slack and verdict of the given theorem checker on one configuration."""
    return run_theorems(make_family(family_descriptor(cfg)), [theorem_id], cfg["c"], grid,
                        quad or QuadratureSpec(), tol)[0]


def _config_key(cfg: dict):
    return tuple(cfg[k] for k in sorted(cfg) if k != "family")


def min_slack_search(space: SearchSpace, theorem_id: str, budget: int, seed: int,
                     grid: ConvexityGrid = DEFAULT_SEARCH_GRID,
                     quad: Optional[QuadratureSpec] = None,
                     tol: float = DEFAULT_TOL) -> SearchResult:
    """Minimum-slack configuration for one theorem checker."""
    check_modulus([theorem_id], space.c[0])
    if budget < 1:
        raise FeasibilityError("search budget must be >= 1")
    quad = quad or QuadratureSpec()
    dims = space.dimension_ranges()
    rng = np.random.default_rng(seed)

    # Latin hypercube: one permuted stratum per dimension per sample
    unit = np.empty((budget, len(dims)))
    for j in range(len(dims)):
        unit[:, j] = (rng.permutation(budget) + rng.uniform(size=budget)) / budget

    evaluations = 0
    best = None  # (slack, key, cfg, holds)
    seen = {}  # entries by config key: a descent probe can revisit a config

    def consider(cfg: dict):
        nonlocal evaluations, best
        key = _config_key(cfg)
        if key not in seen:
            rep = evaluate_config(cfg, theorem_id, grid, quad, tol)
            seen[key] = (rep.verdict.slack, key, cfg, rep.holds)
        evaluations += 1
        if best is None or seen[key][:2] < best[:2]:
            best = seen[key]

    for i in range(budget):
        raw = {name: lo + unit[i, j] * (hi - lo)
               for j, (name, (lo, hi)) in enumerate(dims)}
        consider(_repair(space, raw))

    # coordinate descent around the best sample, 3 rounds of shrinking steps
    step_frac = 0.25
    for _ in range(3):
        base = dict(best[2])
        for name, (lo, hi) in dims:
            span = hi - lo
            if span == 0.0:
                continue
            for delta in (-step_frac * span, step_frac * span):
                trial = dict(base)
                trial[name] = min(max(trial[name] + delta, lo), hi)
                consider(_repair(space, trial))
        step_frac *= 0.5

    slack, _, cfg, holds = best
    return SearchResult(
        best_config=cfg,
        best_slack=float(slack),
        theorem_id=theorem_id,
        evaluations=evaluations,
        seed=seed,
        violation_found=not holds,
        context={
            "grid": {"pair_count": grid.pair_count, "t_values": list(grid.t_values),
                     "sampling": grid.sampling, "seed": grid.seed},
            "quadrature": {"rule": quad.rule, "order": quad.order_or_panels,
                           "substitution": quad.substitution},
            "tolerance": tol,
        },
    )


def emit_counterexample(result: SearchResult, path: str) -> None:
    """Write a self-contained verify-mode config reproducing the violation."""
    if not result.violation_found:
        raise ValueError("no violation in this search result")
    doc = {
        "mode": "verify",
        "families": [make_family(family_descriptor(result.best_config)).params()],
        "c": result.best_config["c"],
        "grid": result.context.get("grid", {}),
        "quadrature": result.context.get("quadrature", {}),
        "theorems": [result.theorem_id],
        "tolerance": result.context.get("tolerance", DEFAULT_TOL),
        "seed": result.seed,
        "expected_slack": result.best_slack,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
