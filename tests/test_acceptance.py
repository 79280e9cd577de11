"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -v -s` or in
captured output) before asserting, so a red criterion is still reported.
"""

import dataclasses
import itertools
import json
import sys
import time

import numpy as np
import pytest

from harmonichh.aumann import QuadratureSpec, weighted_harmonic_integral
from harmonichh.cli import default_config, main as cli_main, parse_config, run
from harmonichh.hh_check import ConvexityGrid, grid_reports, integral_reports
from harmonichh.set_core import (
    Disc,
    Interval,
    ball,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    scale,
)
from harmonichh.svf import (
    CShiftFn,
    HarmonicDomain,
    make_disc_family,
    make_quadratic_family,
    reciprocal_transform,
)
from oracles import monte_carlo_oracle

DOM12 = HarmonicDomain(1.0, 2.0)
GL16 = QuadratureSpec()
HH_IDS = ("hh_left", "hh_right")


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {status}  {detail}", file=sys.stderr)
    return ok


def seeded_certified_family(seed):
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(0.8, 3.0, 2)
    a = rng.uniform(0.6, 1.4)
    b = a + rng.uniform(0.4, 1.6)
    dom = HarmonicDomain(a, b)
    K = (alpha + beta) / a ** 2 + rng.uniform(1.0, 8.0)
    f = make_quadratic_family(alpha, beta, K, dom)
    return f, min(alpha, beta)


def test_criterion_1_tight_hh_reproduction():
    start = time.perf_counter()
    f = make_quadratic_family(1, 1, 10, DOM12)
    left, right = integral_reports(f, f, 1.0, DOM12, GL16, HH_IDS).values()
    elapsed = time.perf_counter() - start

    mean_ok = hausdorff(right.rhs, Interval(7 / 12, 113 / 12)) <= 1e-10
    mid_ok = hausdorff(left.rhs, Interval(0.5625, 9.4375)) <= 1e-10
    slack_ok = abs(left.verdict.slack) <= 1e-10 and abs(right.verdict.slack) <= 1e-10
    fast = elapsed < 1.0
    ok = report(1, mean_ok and mid_ok and slack_ok and fast,
                f"slacks ({left.verdict.slack:.2e}, {right.verdict.slack:.2e}), "
                f"{elapsed * 1e3:.0f} ms")
    assert ok


def test_criterion_2_margin_monotonicity():
    f = make_quadratic_family(1, 1, 10, DOM12)
    cs = (0.0, 0.25, 0.5, 0.75, 1.0)
    lefts, rights = [], []
    for c in cs:
        left, right = integral_reports(f, f, c, DOM12, GL16, HH_IDS).values()
        lefts.append(left.verdict.slack)
        rights.append(right.verdict.slack)
    mono = all(s1 >= s2 - 1e-12 for s1, s2 in zip(lefts, lefts[1:])) and \
        all(s1 >= s2 - 1e-12 for s1, s2 in zip(rights, rights[1:]))
    # closed form: delta^2 = 1/4, coefficients (1/12 - 1/24) and 1/12
    left_diff = lefts[2] - lefts[4]
    right_diff = rights[2] - rights[4]
    diff_ok = abs(left_diff - 1 / 96) <= 1e-10 and abs(right_diff - 1 / 48) <= 1e-10
    ok = report(2, mono and diff_ok,
                f"left diff {left_diff:.12f} vs 1/96, right diff "
                f"{right_diff:.12f} vs 1/48")
    assert ok


def test_criterion_3_reciprocal_equivalence():
    grid = ConvexityGrid(pair_count=64)  # 704 triples per family
    triples = 0
    disagreements = 0
    for seed in range(20):
        f, modulus = seeded_certified_family(seed)
        # exercise both verdict signs: certified c and an excessive c
        for c in (modulus, 2.5 * modulus):
            rep = grid_reports(f, c, grid, ("prop_31",))["prop_31"]
            triples += len(grid.t_values) * grid.pair_count
            disagreements += rep.inputs_echo["disagreements"]
    ok = report(3, triples >= 10_000 and disagreements == 0,
                f"{triples} triples, {disagreements} disagreements")
    assert ok


def test_criterion_4_shift_lemma():
    grid = ConvexityGrid(pair_count=64)
    all_hold = True
    for seed in range(20):
        f, modulus = seeded_certified_family(seed)
        # both directions of the lemma are one pair of checks
        rep = grid_reports(f, modulus, grid, ("lemma_i",))["lemma_i"]
        all_hold = all_hold and rep.holds

    uncertified = make_quadratic_family(0.5, 1.0, 10, DOM12)  # alpha < c = 1
    shifted = CShiftFn(uncertified, 1.0)
    shifted_fails = not grid_reports(shifted, 0.0, grid, ("def_shc",))["def_shc"].holds
    ok = report(4, all_hold and shifted_fails,
                f"20 certified seeds, both directions, hold: {all_hold}; "
                f"uncertified shift fails: {shifted_fails}")
    assert ok


def test_criterion_5_arithmetic_baseline():
    g = reciprocal_transform(make_quadratic_family(1, 1, 10, DOM12))
    f = reciprocal_transform(g)
    left, right = integral_reports(f, f, 1.0, f.domain, GL16,
                                   ("nikodem_left", "nikodem_right")).values()
    dom_ok = g.domain.a == pytest.approx(0.5) and g.domain.b == pytest.approx(1.0)
    slack_ok = abs(left.verdict.slack) <= 1e-10 and abs(right.verdict.slack) <= 1e-10
    ok = report(5, dom_ok and left.holds and right.holds and slack_ok,
                f"G(u)=[u^2,10-u^2] on [1/2,1], slacks "
                f"({left.verdict.slack:.2e}, {right.verdict.slack:.2e})")
    assert ok


def test_criterion_6_quadrature_vs_riemann_oracle():
    cfg = parse_config(default_config())
    worst = 0.0
    families = 0
    from harmonichh.cli import build_family
    for descriptor in cfg.families:
        f = build_family(descriptor)
        if f.kind != "interval":
            continue
        quad = weighted_harmonic_integral(f, f.domain, GL16)
        oracle = monte_carlo_oracle(f, f.domain, samples=1_000_000, seed=0)
        worst = max(worst, hausdorff(quad.value, oracle.value))
        families += 1
    ok = report(6, families >= 1 and worst <= 1e-7,
                f"{families} families, worst Hausdorff gap {worst:.3e}")
    assert ok


def test_criterion_7_product_suite():
    alphas = (1.0, 1.5, 2.0)
    betas = (1.0, 1.5, 2.0)
    margins = (2.0, 6.0, 10.0)
    reproducible = True
    cor34_bitwise = True
    violations = []
    for alpha, beta, margin in itertools.product(alphas, betas, margins):
        K = (alpha + beta) + margin
        c = min(alpha, beta)
        fam = {"alpha": alpha, "beta": beta, "K": K}

        def suite():
            f = make_quadratic_family(alpha, beta, K, DOM12)
            return {tid: integral_reports(f, f, c, DOM12, GL16, (tid,))[tid]
                    for tid in ("thm33", "thm35", "cor34", "cor36")}

        first, second = suite(), suite()
        for tid in first:
            if first[tid] != second[tid]:
                reproducible = False
            if not first[tid].holds:
                violations.append((fam, c, tid, first[tid].verdict.slack))
        relabeled = dataclasses.replace(first["cor34"], theorem_id="thm33")
        cor34_bitwise = cor34_bitwise and relabeled == first["thm33"]

    # every verdict is definitive: a violation must replay exactly via the CLI
    replay_ok = True
    if violations:
        fam, c, tid, slack = violations[0]
        import tempfile, os
        doc = {
            "mode": "verify",
            "families": [dict(fam, family="quadratic-interval", a=1.0, b=2.0)],
            "c": c, "theorems": [tid], "tolerance": 1e-9,
            "quadrature": {"rule": "gauss-legendre", "order": 16,
                           "substitution": True},
        }
        fd, path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        try:
            with open(path, "w") as fh:
                json.dump(doc, fh)
            rep, code = run(parse_config(doc))
            replay_ok = code == 1 and abs(rep.reports[0]["slack"] - slack) <= 1e-12
        finally:
            os.unlink(path)

    ok = report(7, reproducible and cor34_bitwise and replay_ok,
                f"27 families x 4 theorems; bit-for-bit: {reproducible}; "
                f"cor34==thm33: {cor34_bitwise}; {len(violations)} statement-form "
                f"violations, replay exact: {replay_ok}")
    assert ok


def test_criterion_8_support_set_mode():
    # the disc family's sets are discs, decided exactly from centre and radius
    f = make_disc_family((1, 0), (0, 1), 3, 1, DOM12)
    left, right = integral_reports(f, f, 1.0, DOM12, GL16, HH_IDS, tol=1e-9).values()
    kind_ok = f.kind == "disc" and all(isinstance(s, Disc) for rep in (left, right)
                                       for s in (rep.lhs, rep.rhs))
    slack_ok = left.verdict.slack >= 0.0 - left.verdict.tolerance_used and \
        right.verdict.slack >= 0.0 - right.verdict.tolerance_used
    ok = report(8, kind_ok and left.holds and right.holds and slack_ok,
                f"disc sets, slacks ({left.verdict.slack:.2e}, "
                f"{right.verdict.slack:.2e})")
    assert ok


def test_criterion_9_set_algebra_properties():
    rng = np.random.default_rng(2024)
    cases = 0

    def rand_interval():
        lo, hi = np.sort(rng.uniform(-50, 50, 2))
        return Interval(lo, hi)

    failures = 0
    for _ in range(25_000):
        a, b = rand_interval(), rand_interval()
        if minkowski_sum(a, b) != minkowski_sum(b, a):
            failures += 1
        cases += 1

    for _ in range(25_000):
        t = rng.uniform(0, 10)
        a, b = rand_interval(), rand_interval()
        lhs = scale(t, minkowski_sum(a, b))
        rhs = minkowski_sum(scale(t, a), scale(t, b))
        if hausdorff(lhs, rhs) > 1e-9 * (1 + abs(lhs.lo) + abs(lhs.hi)):
            failures += 1
        cases += 1

    for _ in range(25_000):
        inner = rand_interval()
        mid = minkowski_sum(inner, ball(rng.uniform(0, 5)))
        outer = minkowski_sum(mid, ball(rng.uniform(0, 5)))
        if includes(inner, mid).holds and includes(mid, outer).holds:
            if not includes(inner, outer, tol=1e-12).holds:
                failures += 1
        cases += 1

    for _ in range(25_000):
        a, b = rand_interval(), rand_interval()
        big_a = minkowski_sum(a, ball(rng.uniform(0, 5)))
        big_b = minkowski_sum(b, ball(rng.uniform(0, 5)))
        prod = interval_product(a, b)
        big_prod = interval_product(big_a, big_b)
        if not includes(prod, big_prod, tol=1e-12).holds:
            failures += 1
        cases += 1

    ok = report(9, cases == 100_000 and failures == 0,
                f"{cases} randomized cases, {failures} failures")
    assert ok
