"""Workload configs generated from a seed, and the expected verdicts.

Only the stdlib is used here, so the benchmark parent can build configs
without importing the program.  The program receives nothing but the
config document a builder returns.
"""

from __future__ import annotations

import random

THEOREMS = (
    "def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31",
    "nikodem_left", "nikodem_right", "hh_left", "hh_right",
    "thm33", "cor34", "thm35", "cor36",
)
# Theorems that hold whenever c is at most the family's certified modulus.
GUARANTEED = THEOREMS[:9]
# The product theorems violate in their printed form for c > 0; on the
# bundled default family exactly these four fail.
DEFAULT_FAILURES = frozenset(THEOREMS[9:])

QUADRATURE = {"rule": "gauss-legendre", "order": 16, "substitution": True}
TOLERANCE = 1e-9


def draw_quadratic(seed: int) -> tuple:
    """(family descriptor, c) for a suite workload.

    Seed 0 is the bundled default family alpha = beta = 1, K = 10 on [1, 2]
    at c = 1.  Other seeds draw the parameters, with c at most the
    certified modulus min(alpha, beta), so the guaranteed theorems hold.
    """
    if seed == 0:
        fam = {"alpha": 1.0, "beta": 1.0, "K": 10.0, "a": 1.0, "b": 2.0}
        c = 1.0
    else:
        rng = random.Random(seed)
        alpha = rng.uniform(0.5, 3.0)
        beta = rng.uniform(0.5, 3.0)
        a = rng.uniform(0.5, 1.5)
        b = a + rng.uniform(0.5, 1.5)
        K = (alpha + beta) / a ** 2 * rng.uniform(1.5, 6.0)
        fam = {"alpha": alpha, "beta": beta, "K": K, "a": a, "b": b}
        c = min(alpha, beta) * rng.uniform(0.25, 1.0)
    return {"family": "quadratic-interval", **fam}, c


def suite_config(seed: int, pair_count: int) -> dict:
    family, c = draw_quadratic(seed)
    return {
        "mode": "verify",
        "families": [family],
        "c": c,
        "grid": {"pair_count": pair_count, "sampling": "deterministic-stratified",
                 "seed": 0},
        "quadrature": dict(QUADRATURE),
        "theorems": list(THEOREMS),
        "tolerance": TOLERANCE,
        "seed": seed,
    }


def search_config(seed: int, pair_count: int, budget: int, counterexample: str) -> dict:
    return {
        "mode": "search",
        "families": [],
        "grid": {"pair_count": pair_count, "sampling": "deterministic-stratified",
                 "seed": 0},
        "quadrature": dict(QUADRATURE),
        "theorems": ["def_shc"],
        "tolerance": TOLERANCE,
        "seed": seed,
        "search": {"family": "disc", "c": [0.25, 2.0], "budget": budget,
                   "certified_only": False, "counterexample_out": counterexample},
    }


def make_config(workload: str, seed: int, counterexample: str, tiny: bool = False) -> dict:
    """Config document for a workload; ``tiny`` shrinks grids for the self-check."""
    if workload == "suite-default":
        return suite_config(seed, 64 if tiny else 1024)
    if workload == "grid-262k":
        return suite_config(seed, 256 if tiny else 262144)
    if workload == "search-disc":
        return search_config(seed, 64 if tiny else 1024, 16 if tiny else 64,
                             counterexample)
    raise ValueError(f"unknown workload: {workload!r}")


def expected_failures(workload: str, seed: int):
    """The exact set of failing theorems, where the workload pins it."""
    if workload in ("suite-default", "grid-262k") and seed == 0:
        return DEFAULT_FAILURES
    return None
