import dataclasses

import numpy as np
import pytest

from harmonichh.aumann import QuadratureSpec
from harmonichh.hh_check import (
    ConvexityGrid,
    check_hh,
    check_lemma_shift,
    check_nikodem,
    check_prop31,
    check_strongly_harmonic_convex,
    check_strongly_harmonic_midconvex,
    check_cor34,
    check_cor36,
    check_thm33,
    check_thm35,
)
from harmonichh.set_core import Interval, hausdorff
from harmonichh.svf import (
    HarmonicDomain,
    QuadraticIntervalFn,
    SampledFn,
    c_shift,
    harmonic_combination,
    make_quadratic_family,
    reciprocal_transform,
)

DOM12 = HarmonicDomain(1.0, 2.0)
GL16 = QuadratureSpec()
GRID = ConvexityGrid()
SMALL_GRID = ConvexityGrid(pair_count=64)


def constant_fn(lo, hi, dom=DOM12):
    return SampledFn([dom.a, dom.b], np.array([[lo, hi], [lo, hi]]), dom)


def brute_force_shc(f, c, dom, n_pairs=200, seed=0, harmonic=True):
    """Independent loop-and-set-ops oracle for the definitional inclusion."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_pairs):
        x, y = rng.uniform(dom.a, dom.b, 2)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, rng.uniform()):
            if harmonic:
                m = harmonic_combination(x, y, t)
                d2 = ((x - y) / (x * y)) ** 2
            else:
                m = t * y + (1 - t) * x
                d2 = (x - y) ** 2
            fy, fx, fm = f.eval(y), f.eval(x), f.eval(m)
            pen = c * t * (1 - t) * d2
            lhs_lo = t * fy.lo + (1 - t) * fx.lo - pen
            lhs_hi = t * fy.hi + (1 - t) * fx.hi + pen
            worst = min(worst, fm.hi - lhs_hi, lhs_lo - fm.lo)
    return worst


class TestStronglyHarmonicConvex:
    def test_tight_family_holds(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_strongly_harmonic_convex(f, 1.0, GRID)
        assert rep.holds
        assert rep.verdict.slack == pytest.approx(0.0, abs=1e-12)
        assert brute_force_shc(f, 1.0, DOM12) >= -1e-12

    def test_excess_modulus_fails(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_strongly_harmonic_convex(f, 2.0, GRID)
        assert not rep.holds
        assert rep.verdict.slack < 0
        assert brute_force_shc(f, 2.0, DOM12) < 0

    def test_endpoint_t_slack_zero(self):
        f = make_quadratic_family(2, 3, 20, DOM12)
        grid = ConvexityGrid(pair_count=16, t_values=(0.0, 0.5, 1.0))
        xs, ys = grid.pairs(1.0, 2.0)
        for x, y in zip(xs[:5], ys[:5]):
            for t in (0.0, 1.0):
                m = harmonic_combination(x, y, t)
                fy, fx, fm = f.eval(y), f.eval(x), f.eval(m)
                lhs_lo = t * fy.lo + (1 - t) * fx.lo
                lhs_hi = t * fy.hi + (1 - t) * fx.hi
                assert min(fm.hi - lhs_hi, lhs_lo - fm.lo) == pytest.approx(0.0, abs=1e-12)

    def test_modulus_monotonicity(self):
        f = make_quadratic_family(2, 3, 20, DOM12)
        slacks = [check_strongly_harmonic_convex(f, c, SMALL_GRID).verdict.slack
                  for c in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slacks, slacks[1:]))
        assert all(s >= -1e-12 for s in slacks)  # certified at c = 2

    def test_matches_brute_force_verdicts(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            alpha, beta = rng.uniform(0.5, 3, 2)
            K = (alpha + beta) + rng.uniform(1, 10)
            c = rng.uniform(0.1, 3.5)
            f = make_quadratic_family(alpha, beta, K, DOM12)
            rep = check_strongly_harmonic_convex(f, c, SMALL_GRID)
            expected = c <= min(alpha, beta) + 1e-12
            assert rep.holds == expected

    def test_negative_modulus_rejected(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(ValueError):
            check_strongly_harmonic_convex(f, -1.0, GRID)


class TestMidconvex:
    def test_follows_from_full_check(self):
        f = make_quadratic_family(2, 3, 20, DOM12)
        assert check_strongly_harmonic_midconvex(f, 2.0, GRID).holds

    def test_tight_pair_slack_zero(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_strongly_harmonic_midconvex(f, 1.0, GRID)
        assert rep.holds
        assert rep.verdict.slack == pytest.approx(0.0, abs=1e-12)

    def test_constant_with_zero_modulus(self):
        rep = check_strongly_harmonic_midconvex(constant_fn(0, 1), 0.0, SMALL_GRID)
        assert rep.holds
        assert rep.verdict.slack == pytest.approx(0.0, abs=1e-9)


class TestProp31ArithmeticSide:
    """Arithmetic strong convexity of G(u) = F(1/u), as prop_31 reports it."""

    def test_quadratic_on_reciprocal_domain(self):
        rep = check_prop31(make_quadratic_family(1, 1, 10, DOM12), 1.0, GRID)
        assert rep.inputs_echo["arithmetic_holds"]

    def test_constant_zero_modulus(self):
        rep = check_prop31(constant_fn(1, 2), 0.0, SMALL_GRID)
        assert rep.inputs_echo["arithmetic_holds"]
        assert rep.inputs_echo["arithmetic_slack"] == pytest.approx(0.0, abs=1e-9)

    def test_affine_admits_no_modulus(self):
        dom = HarmonicDomain(0.5, 1.0)
        xs = np.linspace(0.5, 1.0, 101)
        g = SampledFn(xs, np.column_stack([xs, xs]), dom)
        # G = reciprocal_transform(F) is g itself, since the transform is an involution
        rep = check_prop31(reciprocal_transform(g), 1.0, SMALL_GRID)
        assert not rep.inputs_echo["arithmetic_holds"]


class TestLemmaShift:
    def test_forward_and_backward_hold(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        for direction in ("forward", "backward"):
            rep = check_lemma_shift(f, 1.0, SMALL_GRID, direction=direction)
            assert rep.holds
            assert rep.inputs_echo["verdicts_agree"]

    def test_weaker_modulus_holds(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_lemma_shift(f, 0.5, SMALL_GRID)
        assert rep.holds

    def test_midconvex_variant(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_lemma_shift(f, 1.0, SMALL_GRID, midconvex=True)
        assert rep.theorem_id == "lemma_ii"
        assert rep.holds

    def test_uncertified_shift_fails_harmonic_convexity(self):
        f = make_quadratic_family(0.5, 1.0, 10, DOM12)  # alpha < c
        shifted = c_shift(f, 1.0)
        rep = check_strongly_harmonic_convex(shifted, 0.0, SMALL_GRID)
        assert not rep.holds
        lemma = check_lemma_shift(f, 1.0, SMALL_GRID)
        assert not lemma.holds
        assert lemma.inputs_echo["verdicts_agree"]  # both sides fail together

    def test_requires_positive_c(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(ValueError):
            check_lemma_shift(f, 0.0, SMALL_GRID)


class TestProp31:
    def test_certified_agrees_and_holds(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_prop31(f, 1.0, GRID)
        assert rep.holds
        assert rep.inputs_echo["disagreements"] == 0
        assert not rep.inputs_echo["consistency_failure"]

    def test_excess_modulus_agrees_and_fails(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_prop31(f, 1.5, GRID)
        assert not rep.holds
        assert not rep.inputs_echo["arithmetic_holds"]
        assert rep.inputs_echo["disagreements"] == 0

    def test_trivial_t_grid(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        grid = ConvexityGrid(pair_count=64, t_values=(0.0, 0.5, 1.0))
        rep = check_prop31(f, 1.0, grid)
        assert rep.holds and rep.inputs_echo["disagreements"] == 0


class TestNikodem:
    def test_tight_quadratic_oracle_values(self):
        g = reciprocal_transform(make_quadratic_family(1, 1, 10, DOM12))
        left, right = check_nikodem(g, 1.0, GL16)
        assert left.holds and right.holds
        assert left.verdict.slack == pytest.approx(0.0, abs=1e-10)
        assert right.verdict.slack == pytest.approx(0.0, abs=1e-10)
        # mean set over [1/2, 1] of [u^2, 10-u^2] is [7/12, 113/12]
        assert hausdorff(right.rhs, Interval(7 / 12, 113 / 12)) <= 1e-12
        # G(3/4) = [9/16, 10 - 9/16]
        assert hausdorff(left.rhs, Interval(0.5625, 9.4375)) <= 1e-12

    def test_constant_zero_modulus(self):
        g = constant_fn(1, 2, HarmonicDomain(0.5, 1.0))
        left, right = check_nikodem(g, 0.0, GL16)
        assert left.holds and right.holds
        assert abs(left.verdict.slack) <= 1e-9
        assert abs(right.verdict.slack) <= 1e-9

    def test_margin_with_stronger_curvature(self):
        g = reciprocal_transform(make_quadratic_family(2, 2, 10, DOM12))
        left, right = check_nikodem(g, 1.0, GL16)
        assert left.holds and right.holds
        assert left.verdict.slack > 1e-3
        assert right.verdict.slack > 1e-3


class TestHH:
    def test_tight_family_exact_values(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        left, right = check_hh(f, 1.0, DOM12, GL16)
        assert left.holds and right.holds
        assert left.verdict.slack == pytest.approx(0.0, abs=1e-10)
        assert right.verdict.slack == pytest.approx(0.0, abs=1e-10)
        assert hausdorff(right.rhs, Interval(7 / 12, 113 / 12)) <= 1e-12
        assert hausdorff(left.rhs, Interval(0.5625, 9.4375)) <= 1e-12
        # left LHS = [7/12 - 1/48, 113/12 + 1/48] = F(4/3) exactly
        assert hausdorff(left.lhs, Interval(0.5625, 9.4375)) <= 1e-12
        # right LHS = (F(1)+F(2))/2 +- 1/24 = the mean set exactly
        assert hausdorff(right.lhs, Interval(7 / 12, 113 / 12)) <= 1e-12

    def test_halved_modulus_frees_margin(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        left_1, right_1 = check_hh(f, 1.0, DOM12, GL16)
        left_h, right_h = check_hh(f, 0.5, DOM12, GL16)
        # delta^2 = 1/4: left margin grows by (1/12 - 1/24)/4 = 1/96
        assert left_h.verdict.slack - left_1.verdict.slack == \
            pytest.approx(1 / 96, abs=1e-12)
        assert right_h.verdict.slack - right_1.verdict.slack == \
            pytest.approx(1 / 48, abs=1e-12)

    def test_upper_translation_leaves_lower_slack(self):
        base = make_quadratic_family(1, 1, 10, DOM12)
        lifted = make_quadratic_family(1, 1, 14, DOM12)
        l0, _ = check_hh(base, 1.0, DOM12, GL16)
        l1, _ = check_hh(lifted, 1.0, DOM12, GL16)
        # slack attained on the lower endpoint is translation invariant
        assert l0.verdict.slack == pytest.approx(l1.verdict.slack, abs=1e-10)

    def test_support_kind(self):
        from harmonichh.svf import make_disc_family
        f = make_disc_family((1, 0), (0, 1), 3, 1, DOM12)
        left, right = check_hh(f, 1.0, DOM12, GL16)
        assert left.holds and right.holds


class TestProductTheorems:
    def test_constants_collapse(self):
        f = constant_fn(1, 2)
        rep33 = check_thm33(f, f, 0.0, DOM12, GL16)
        # (1/6)(2 [1,4]) + (1/3)(2 [1,4]) = [1,4] = RHS
        assert hausdorff(rep33.lhs, Interval(1, 4)) <= 1e-9
        assert hausdorff(rep33.rhs, Interval(1, 4)) <= 1e-9
        assert abs(rep33.verdict.slack) <= 1e-8
        rep35 = check_thm35(f, 0.0 * 1 + f if False else f, 0.0, DOM12, GL16)
        assert abs(rep35.verdict.slack) <= 1e-8

    def test_degenerate_factor_reduces_to_hh_right(self):
        one = constant_fn(1, 1)
        g = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_thm35(one, g, 0.0, DOM12, GL16)
        assert rep.holds

    def test_statement_and_proof_forms_coincide_on_positive_sets(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = make_quadratic_family(2, 1.5, 16, DOM12)
        rep = check_thm33(f, g, 1.0, DOM12, GL16)
        assert rep.inputs_echo["assembly_gap"] <= 1e-12
        assert rep.inputs_echo["proof_form_slack"] == pytest.approx(
            rep.verdict.slack, abs=1e-12)

    def test_chain_form_tight_for_quadratics(self):
        # the integrated bracket product is exactly the printed expansion's
        # scalar endpoint algebra, and for quadratic families it is tight
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep33 = check_thm33(f, f, 1.0, DOM12, GL16)
        assert rep33.inputs_echo["chain_form_holds"]
        assert rep33.inputs_echo["chain_form_slack"] == pytest.approx(0.0, abs=1e-10)
        rep35 = check_thm35(f, f, 1.0, DOM12, GL16)
        assert rep35.inputs_echo["chain_form_holds"]
        assert rep35.inputs_echo["chain_form_slack"] == pytest.approx(0.0, abs=1e-10)

    def test_statement_form_ball_term_enlarges(self):
        # with c > 0 the Moore product S * (c/12) d^2 B subtracts the top of
        # S from the lower endpoint; the statement-form left side exceeds
        # the integral there, so the printed inclusion fails
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_thm33(f, f, 1.0, DOM12, GL16)
        assert not rep.holds
        assert rep.verdict.slack < -0.1
        assert rep.inputs_echo["chain_form_holds"]

    def test_cor34_bitwise_equals_thm33(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        t33 = check_thm33(f, f, 1.0, DOM12, GL16)
        c34 = check_cor34(f, 1.0, DOM12, GL16)
        assert c34.theorem_id == "cor34"
        assert dataclasses.replace(c34, theorem_id="thm33") == t33

    def test_cor36_reports_both_variants(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        rep = check_cor36(f, 1.0, DOM12, GL16)
        assert rep.theorem_id == "cor36"
        assert "printed_slack" in rep.inputs_echo
        assert "printed_holds" in rep.inputs_echo
        t35 = check_thm35(f, f, 1.0, DOM12, GL16)
        assert rep.verdict.slack == t35.verdict.slack

    def test_cor36_constant_collapse(self):
        f = constant_fn(1, 2)
        rep = check_cor36(f, 0.0, DOM12, GL16)
        # derived variant collapses to [1,4] vs [1,4]
        assert abs(rep.verdict.slack) <= 1e-8


class TestMomentConstants:
    def test_integral_moments(self):
        # the assembly constants come from these Beta-function moments
        ts = np.polynomial.legendre.leggauss(16)
        xs = 0.5 * (ts[0] + 1.0)
        ws = 0.5 * ts[1]
        assert ws @ (xs * (1 - xs)) == pytest.approx(1 / 6, abs=1e-15)
        assert ws @ (xs * (1 - xs) ** 2) == pytest.approx(1 / 12, abs=1e-15)
        assert ws @ (xs ** 2 * (1 - xs) ** 2) == pytest.approx(1 / 30, abs=1e-15)
        assert ws @ (1 - xs) ** 2 == pytest.approx(1 / 3, abs=1e-15)


class TestGrid:
    def test_t_grid_requires_anchors(self):
        with pytest.raises(ValueError):
            ConvexityGrid(t_values=(0.0, 1.0))

    def test_seeded_random_deterministic(self):
        g = ConvexityGrid(pair_count=32, sampling="seeded-random", seed=9)
        assert np.array_equal(g.pairs(1, 2)[0], g.pairs(1, 2)[0])

    def test_triples_cross_product(self):
        g = ConvexityGrid(pair_count=16)
        xs, ys, ts = g.triples(1, 2)
        assert xs.size == ys.size == ts.size == 16 * len(g.t_values)
