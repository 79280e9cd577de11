import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from harmonichh import hh_check
from harmonichh.aumann import QuadratureSpec
from harmonichh.cli import default_config
from harmonichh.explorer import run_theorems
from harmonichh.hh_check import (
    BLOCK_ELEMENTS,
    ConvexityGrid,
    TheoremReport,
    _Worst,
    check_hh,
    check_lemma_shift,
    check_modulus,
    check_nikodem,
    check_prop31,
    check_strongly_harmonic_convex,
    check_strongly_harmonic_midconvex,
    check_cor34,
    check_cor36,
    check_thm33,
    check_thm35,
    grid_reports,
    shift_lemma_report,
)
from harmonichh.set_core import (Disc, Interval, NonFiniteSetError, as_row, as_set, hausdorff,
                                 inclusion_block, row_verdict)
from harmonichh.svf import (
    DomainError,
    FeasibilityError,
    HarmonicDomain,
    QuadraticIntervalFn,
    CShiftFn,
    ReciprocalFn,
    SampledFn,
    make_disc_family,
    make_family,
    make_quadratic_family,
    reciprocal_transform,
)
from oracles import harmonic_combination, inclusion_rows

DOM12 = HarmonicDomain(1.0, 2.0)
GL16 = QuadratureSpec()
PRODUCT_IDS = ("thm33", "cor34", "thm35", "cor36")
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


class TestModulusRejected:
    """The public grid checkers reject a negative or NaN modulus (the shift
    lemma also 0) with ValueError before any evaluation."""

    @pytest.mark.parametrize("c", [-1.0, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize("check,message", [
        (check_strongly_harmonic_convex, "modulus c must be >= 0"),
        (check_strongly_harmonic_midconvex, "modulus c must be >= 0"),
        (check_lemma_shift, "needs c > 0"),
        (check_prop31, "modulus c must be >= 0"),
    ], ids=["def_shc", "def_mid", "lemma", "prop_31"])
    def test_bad_modulus(self, check, message, c):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(ValueError, match=message) as info:
            check(f, c, SMALL_GRID)
        assert not isinstance(info.value, NonFiniteSetError)

    # every public checker, by the id it reports first
    CHECKERS = {
        "def_shc": lambda f, c: check_strongly_harmonic_convex(f, c, SMALL_GRID),
        "def_mid": lambda f, c: check_strongly_harmonic_midconvex(f, c, SMALL_GRID),
        "lemma_i": lambda f, c: check_lemma_shift(f, c, SMALL_GRID),
        "lemma_ii": lambda f, c: check_lemma_shift(f, c, SMALL_GRID, midconvex=True),
        "prop_31": lambda f, c: check_prop31(f, c, SMALL_GRID),
        "nikodem_left": lambda f, c: check_nikodem(reciprocal_transform(f), c, GL16),
        "hh_left": lambda f, c: check_hh(f, c, DOM12, GL16),
        "thm33": lambda f, c: check_thm33(f, f, c, DOM12, GL16),
        "cor34": lambda f, c: check_cor34(f, c, DOM12, GL16),
        "thm35": lambda f, c: check_thm35(f, f, c, DOM12, GL16),
        "cor36": lambda f, c: check_cor36(f, c, DOM12, GL16),
    }

    @pytest.mark.parametrize("c", [-1.0, float("nan")], ids=["negative", "nan"])
    @pytest.mark.parametrize("tid", CHECKERS)
    def test_every_checker_names_its_id(self, tid, c):
        # refused by the modulus rule, not by a set built from the bad c
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(FeasibilityError, match=rf"^{tid}\b"):
            self.CHECKERS[tid](f, c)

    @pytest.mark.parametrize("tid", hh_check.THEOREM_IDS)
    def test_one_modulus_rule(self, tid):
        # the shift lemma's ids need c > 0, every other id c >= 0
        for c in (-1.0, float("nan")):
            with pytest.raises(FeasibilityError):
                check_modulus([tid], c)
        if tid in ("lemma_i", "lemma_ii"):
            with pytest.raises(FeasibilityError, match="needs c > 0"):
                check_modulus([tid], 0.0)
        else:
            check_modulus([tid], 0.0)
        check_modulus([tid], 0.5)


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
        shifted = CShiftFn(f, 1.0)
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

    @pytest.mark.parametrize("block_pairs", [1, 7, None])
    def test_disc_evaluates_G_once_per_point_and_midpoint(self, monkeypatch, block_pairs):
        # The disc's arithmetic side takes G(u) = F(1/u) once at the n grid
        # points, for t G(v) + (1-t) G(u), and once per triple at u_H.
        counts = []
        eval_vector = ReciprocalFn.eval_vector

        def spy(self, us, out=None):
            counts.append(np.size(us))
            return eval_vector(self, us, out=out)

        monkeypatch.setattr(ReciprocalFn, "eval_vector", spy)
        grid = ConvexityGrid(pair_count=150)
        rep = grid_reports(disc_fn(), 2.0, grid, ("prop_31",), block_pairs=block_pairs)
        n = grid.points(0.0, 1.0).size
        assert counts[0] == n and sum(counts[1:]) == n * n * len(grid.t_values)
        assert rep["prop_31"].inputs_echo["disagreements"] == 0


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

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("make", [
        lambda: make_family(default_config()["families"][0]),
        lambda: make_disc_family((1, 0), (0, 1), 3, 1, DOM12),
    ], ids=["default-quadratic", "disc"])
    def test_one_route_with_the_integral_pass(self, make, c):
        # check_nikodem on G(u) = F(1/u) is the integral pass's Nikodem pair
        # of F, field for field: no second route with a rule of its own
        f = make()
        ids = ["nikodem_left", "nikodem_right"]
        for got, want in zip(check_nikodem(reciprocal_transform(f), c, GL16),
                             run_theorems(f, ids, c, SMALL_GRID, GL16), strict=True):
            assert got.theorem_id == want.theorem_id
            assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
            assert got.verdict == want.verdict
            assert got.error_budget == want.error_budget


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

    def test_disc_kind(self):
        f = make_disc_family((1, 0), (0, 1), 3, 1, DOM12)
        left, right = check_hh(f, 1.0, DOM12, GL16)
        assert left.holds and right.holds
        # the mean of F(1/u) over [1/2, 1]: centre (3/4, 1), radius 3 - 7/12
        assert hausdorff(right.rhs, Disc((0.75, 1.0), 3.0 - 7.0 / 12.0)) <= 1e-15
        assert isinstance(left.lhs, Disc) and isinstance(left.rhs, Disc)


SANDWICH_IDS = ("nikodem_left", "nikodem_right", "hh_left", "hh_right")
INTEGRAL_IDS = SANDWICH_IDS + PRODUCT_IDS
SIMPSON8 = QuadratureSpec("composite-simpson", 8)
INTEGRAL_FAMILIES = {
    "quadratic": (lambda: make_quadratic_family(1, 1.5, 10, DOM12), INTEGRAL_IDS),
    "disc": (lambda: make_disc_family((1, 0), (0, 1), 3, 1, DOM12), SANDWICH_IDS),
}


class TestIntegralPass:
    """One pass per family serves both sandwiches and the product ids."""

    @staticmethod
    def relabelled(rep, tid):
        return dataclasses.replace(rep, theorem_id=tid)

    @pytest.mark.parametrize("q", [GL16, SIMPSON8], ids=["gl16", "simpson8"])
    @pytest.mark.parametrize("family", INTEGRAL_FAMILIES)
    def test_nikodem_is_hh_relabelled(self, family, q):
        make, ids = INTEGRAL_FAMILIES[family]
        reps = dict(zip(ids, run_theorems(make(), ids, 0.75, SMALL_GRID, q)))
        for side in ("left", "right"):
            assert self.relabelled(reps[f"nikodem_{side}"], f"hh_{side}") == reps[f"hh_{side}"]

    @pytest.mark.parametrize("q", [GL16, SIMPSON8], ids=["gl16", "simpson8"])
    @pytest.mark.parametrize("family", INTEGRAL_FAMILIES)
    def test_substitution_off_keeps_nikodem_in_u(self, family, q):
        # hh integrates in x, the Nikodem pair is the substitution-on hh pair
        make, ids = INTEGRAL_FAMILIES[family]
        off = dataclasses.replace(q, substitution=False)
        reps = dict(zip(ids, run_theorems(make(), ids, 0.75, SMALL_GRID, off)))
        on = dict(zip(SANDWICH_IDS, run_theorems(make(), SANDWICH_IDS, 0.75, SMALL_GRID, q)))
        for side in ("left", "right"):
            assert self.relabelled(reps[f"nikodem_{side}"], f"hh_{side}") == on[f"hh_{side}"]
            # hh's own integral, in x, has a budget of its own
            assert reps[f"hh_{side}"].error_budget != on[f"hh_{side}"].error_budget

    @pytest.mark.parametrize("substitution,integrals", [(True, 1), (False, 2)])
    @pytest.mark.parametrize("family", INTEGRAL_FAMILIES)
    def test_one_integral_and_three_points(self, monkeypatch, family, substitution, integrals):
        make, ids = INTEGRAL_FAMILIES[family]
        f = make()
        calls, points = [], []
        for name in ("weighted_harmonic_integral", "aumann_integral"):
            original = getattr(hh_check, name)
            monkeypatch.setattr(hh_check, name, lambda *args, _name=name, _f=original, **kw:
                                calls.append(_name) or _f(*args, **kw))
        original = type(f).eval_vector
        monkeypatch.setattr(type(f), "eval_vector", lambda self, xs, out=None: points.append(
            tuple(xs)) or original(self, xs, out=out))
        run_theorems(f, ids, 0.75, SMALL_GRID, QuadratureSpec(substitution=substitution))
        # aumann_integral never runs: no checker calls it, check_nikodem
        # included, as it runs this pass too
        assert calls == ["weighted_harmonic_integral"] * integrals
        # F once at a, at b and at the harmonic midpoint for all the ids
        assert sorted(p for p in points if len(p) == 1) == \
            sorted([(1.0,), (2.0,), (DOM12.harmonic_midpoint,)])


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

    @pytest.mark.parametrize("ids,same", [
        (ids, same) for r in range(1, 5) for ids in itertools.combinations(PRODUCT_IDS, r)
        for same in (True, False) if same or {"cor34", "cor36"}.isdisjoint(ids)])
    def test_one_product_pass(self, monkeypatch, ids, same):
        # F and G are each evaluated once at a and b, and an integral runs
        # only for its own ids
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = f if same else make_quadratic_family(2, 1.5, 16, DOM12)
        calls, points = [], []
        for name in ("reflected_product_integral", "plain_product_integral",
                     "bracket_product_integral"):
            original = getattr(hh_check, name)
            monkeypatch.setattr(hh_check, name, lambda *args, _name=name, _f=original, **kw:
                                calls.append(_name) or _f(*args, **kw))
        original = QuadraticIntervalFn.eval_vector
        monkeypatch.setattr(QuadraticIntervalFn, "eval_vector", lambda self, xs, out=None:
                            points.append((self.alpha, tuple(xs))) or original(self, xs, out=out))
        reports = hh_check.integral_reports(f, g, 1.0, DOM12, GL16, ids)
        assert list(reports) == list(ids)
        integrals = [name for tid, cor, name in (
            ("thm33", "cor34", "reflected_product_integral"),
            ("thm35", "cor36", "plain_product_integral")) if tid in ids or cor in ids]
        assert sorted(calls) == sorted(integrals + ["bracket_product_integral"] * len(integrals))
        ends = [p for p in points if len(p[1]) == 1]
        assert sorted(ends) == sorted({(h.alpha, (x,)) for h in (f, g) for x in (1.0, 2.0)})
        views = {"thm33": lambda: check_thm33(f, g, 1.0, DOM12, GL16),
                 "thm35": lambda: check_thm35(f, g, 1.0, DOM12, GL16),
                 "cor34": lambda: check_cor34(f, 1.0, DOM12, GL16),
                 "cor36": lambda: check_cor36(f, 1.0, DOM12, GL16)}
        # one pass for several ids gives each id's report on its own
        assert all(reports[tid] == views[tid]() for tid in ids)

    @pytest.mark.parametrize("ids", [("cor34",), ("thm33", "cor36")])
    def test_corollaries_need_g_is_f(self, ids):
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = make_quadratic_family(2, 1.5, 16, DOM12)
        with pytest.raises(ValueError, match="G = F"):
            hh_check.integral_reports(f, g, 1.0, DOM12, GL16, ids)

    @pytest.mark.parametrize("check", [
        lambda f, dom: check_thm33(f, f, 1.0, dom, GL16),
        lambda f, dom: check_thm35(f, f, 1.0, dom, GL16),
        lambda f, dom: check_cor34(f, 1.0, dom, GL16),
        lambda f, dom: check_cor36(f, 1.0, dom, GL16),
    ], ids=["thm33", "thm35", "cor34", "cor36"])
    def test_domain_wider_than_f_rejected(self, check):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(DomainError, match=r"point 0\.9 outside \[1\.0, 2\.0\]"):
            check(f, HarmonicDomain(0.9, 2.0))


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

    @pytest.mark.parametrize("sampling", ["seeded-random", "deterministic-stratified"])
    def test_negative_seed_rejected(self, sampling):
        # refused where the grid is built, not at its first seeded-random draw
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ConvexityGrid(pair_count=16, sampling=sampling, seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("pair_count", float("nan")), ("pair_count", float("inf")), ("pair_count", 2.5),
        ("seed", 1.5), ("seed", float("nan")),
    ])
    def test_fractional_count_rejected(self, field, value):
        # refused where the grid is built, not inside numpy at the first draw
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            ConvexityGrid(**{field: value})
        grid = ConvexityGrid(pair_count=16.0, seed=3.0)
        assert (grid.pair_count, grid.seed) == (16, 3)
        assert all(type(v) is int for v in (grid.pair_count, grid.seed))

    def test_triples_cross_product(self):
        g = ConvexityGrid(pair_count=16)
        xs, ys, ts = g.triples(1, 2)
        assert xs.size == ys.size == ts.size == 16 * len(g.t_values)


GRID_IDS = ("def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31")
MID_IDS = ("def_mid", "lemma_ii")  # the ids a pass on the t = 1/2 pairs alone serves


def disc_fn():
    return make_disc_family((0.7, -0.3), (0.2, 0.5), 4.0, 1.5, HarmonicDomain(0.8, 2.1))


def sampled_fn(kind):
    xs = np.linspace(1.0, 2.0, 9)
    if kind == "interval":
        return SampledFn(xs, np.column_stack([np.sin(3 * xs), 3 + np.cos(2 * xs)]), DOM12)
    return SampledFn(xs, np.column_stack([np.sin(k * xs) + k for k in range(1, 4)]), DOM12,
                     kind="disc")


class TestBlockInvariance:
    """The streamed pass gives the same reports whatever its block size."""

    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    @pytest.mark.parametrize("family", ["quadratic", "disc", "sampled-interval",
                                        "sampled-disc"])
    def test_block_sizes_agree(self, family, sampling):
        f = {"quadratic": lambda: make_quadratic_family(1.5, 2.0, 20.0, DOM12),
             "disc": disc_fn,
             "sampled-interval": lambda: sampled_fn("interval"),
             "sampled-disc": lambda: sampled_fn("disc")}[family]()
        grid = ConvexityGrid(pair_count=150, sampling=sampling, seed=4)
        pairs = grid.pairs(f.domain.a, f.domain.b)[0].size
        for ids in (GRID_IDS, MID_IDS):
            reports = [grid_reports(f, 1.0, grid, ids, block_pairs=n)
                       for n in (1, 7, None, 4096, pairs + 1)]
            assert tuple(reports[0]) == ids
            for rep in reports[1:]:
                assert rep == reports[0]

    def test_tied_minimum_keeps_first_row(self):
        # The tight family attains slack 0 with the same tolerance on every
        # degenerate row at x = a; the first of them, in grid order, is the
        # witness even when other blocks hold tied rows.
        f = make_quadratic_family(1.0, 1.0, 10.0, DOM12)
        grid = ConvexityGrid(pair_count=64)
        sides = reference_sides(f, 1.0, grid, 1e-9)
        keys = sides["strong"][0] + sides["strong"][1]
        tied = np.flatnonzero(keys == keys.min())
        assert tied[0] == 0 and len({i // (7 * len(grid.t_values)) for i in tied}) > 1
        for n in (1, 7, 4096):
            rep = grid_reports(f, 1.0, grid, ("def_shc",), block_pairs=n)["def_shc"]
            assert rep.inputs_echo["witness"] == {"x": 1.0, "y": 1.0, "t": 0.0}
            assert rep.verdict.slack == 0.0

    def test_constant_family_all_rows_tied(self):
        f = constant_fn(1.0, 3.0)
        grid = ConvexityGrid(pair_count=49, t_values=(0.0, 0.5, 1.0))
        first = grid.pairs(1.0, 2.0)
        for n in (1, 7, 4096):
            rep = grid_reports(f, 0.0, grid, ("def_shc",), block_pairs=n)["def_shc"]
            assert rep.inputs_echo["witness"] == {
                "x": float(first[0][0]), "y": float(first[1][0]), "t": 0.0}


def reference_sides(f, c, grid, tol, values=False):
    """Every side of the grid pass from all triples at once: per side the
    slacks, tolerances and witnesses of every row, the rows, and (x, y, t).

    The pass works in u = 1/x, with u_H = t u_y + (1-t) u_x and the penalty
    c t(1-t) (u_x - u_y)^2.  A family with ``rows_in_u`` (the quadratic's
    ends, the disc's centre and radius) takes its rows from u and u^2, at
    the grid's points and at u_H, and every other family its values at x and
    at 1/u_H; the shifted map widens them by c u^2.  With ``values`` set, the strong and shifted sides are
    instead F's values in x, at the midpoint xy/(tx + (1-t)y) with the
    penalty c t(1-t) ((x-y)/(xy))^2, the formulas the pass no longer uses.
    Each side goes through one ``inclusion_rows`` call over the whole grid.
    The arithmetic side is always the values of G(u) = F(1/u)."""
    xs, ys = grid.pairs(f.domain.a, f.domain.b)
    t = np.asarray(grid.t_values)
    x, y, ts = np.repeat(xs, t.size), np.repeat(ys, t.size), np.tile(t, xs.size)

    def widened(vals, r):
        # vals widened by the balls of radius r
        out = vals.copy()
        if f.kind == "interval":
            out[:, 0] -= r
            out[:, 1] += r
        else:
            out[:, 2] += r
        return out

    def side(fy, fx, rhs, pen):
        lhs = widened(ts[:, None] * fy + (1.0 - ts)[:, None] * fx, pen)
        return inclusion_rows(lhs, rhs, f.kind, tol) + (lhs, rhs)

    u, v = 1.0 / x, 1.0 / y
    uh = ts * v + (1.0 - ts) * u
    strength = c * ts * (1.0 - ts)
    if values:
        mids = x * y / (ts * x + (1.0 - ts) * y)
        dist2 = ((x - y) / (x * y)) ** 2
        fx, fy, fm = (f.eval_vector(p) for p in (x, y, mids))
        strong = side(fy, fx, fm, strength * dist2)
        shifted_side = side(*(widened(vals, c / p ** 2) for vals, p in (
            (fy, y), (fx, x), (fm, mids))), 0.0 * strength) if c > 0 else None
    else:
        if f.rows_in_u is not None:
            channels = 2 if f.kind == "interval" else 3
            fy, fx, fm = (f.rows_in_u(p, p * p, np.empty((channels, p.size))).T
                          for p in (v, u, uh))
        else:
            fy, fx, fm = (f.eval_vector(p) for p in (y, x, 1.0 / uh))
        strong = side(fy, fx, fm, strength * (u - v) ** 2)
        shifted_side = side(*(widened(vals, c * (p * p)) for vals, p in (
            (fy, v), (fx, u), (fm, uh))), 0.0 * strength) if c > 0 else None
    return {
        "strong": strong,
        "shifted": shifted_side,
        "arithmetic": side(*(reciprocal_transform(f).eval_vector(p) for p in (v, u, uh)),
                           strength * (u - v) ** 2),
        "where": (x, y, ts),
    }


def reference_pass(f, c, grid, tol, ids):
    """The reports of ``grid_reports`` from ``reference_sides``: one
    ``np.argmin`` per side over the whole grid, or over its t = 1/2 rows for
    def_mid and lemma_ii, no blocks."""
    sides = reference_sides(f, c, grid, tol)
    x, y, ts = sides["where"]

    def report(name, theorem_id, c, rows, **echo):
        slacks, tols, witness, lhs, rhs = (a[rows] for a in sides[name])
        i = int(np.argmin(slacks + tols))
        return TheoremReport(
            theorem_id, as_set(lhs[i], f.kind), as_set(rhs[i], f.kind),
            row_verdict(slacks[i], tols[i], witness[i], f.kind), 0.0,
            {"c": c, "triples": slacks.size, **echo,
             "witness": {"x": float(x[rows][i]), "y": float(y[rows][i]),
                         "t": float(ts[rows][i])}})

    out = {}
    for strong_id, lemma_id, rows in (("def_shc", "lemma_i", slice(None)),
                                      ("def_mid", "lemma_ii", ts == 0.5)):
        out[strong_id] = report("strong", strong_id, c, rows)
        if lemma_id in ids:
            out[lemma_id] = shift_lemma_report(
                lemma_id, out[strong_id], report("shifted", strong_id, 0.0, rows), c)
    if "prop_31" in ids:
        sh, th = sides["strong"][:2]
        sa, ta = sides["arithmetic"][:2]
        disagreements = int(np.count_nonzero((sh >= -th) != (sa >= -ta)))
        out["prop_31"] = report(
            "strong", "prop_31", c, slice(None), harmonic_holds=out["def_shc"].holds,
            arithmetic_holds=bool(np.all(sa >= -ta)), arithmetic_slack=float(np.min(sa)),
            disagreements=disagreements, consistency_failure=disagreements > 0)
    return {tid: out[tid] for tid in ids}


def id_subsets(ids):
    return [sub for r in range(1, len(ids) + 1) for sub in itertools.combinations(ids, r)]


class TestAgainstUnblockedReference:
    """The streamed pass gives the reports of one unblocked evaluation of
    every triple, for every set of grid ids."""

    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    @pytest.mark.parametrize("family", ["quadratic", "tight", "disc", "sampled-interval",
                                        "sampled-disc"])
    def test_reports_equal(self, family, sampling):
        f = {"quadratic": lambda: make_quadratic_family(1.5, 2.0, 20.0, DOM12),
             "tight": lambda: make_quadratic_family(1.0, 1.0, 10.0, DOM12),
             "disc": disc_fn,
             "sampled-interval": lambda: sampled_fn("interval"),
             "sampled-disc": lambda: sampled_fn("disc")}[family]()
        grid = ConvexityGrid(pair_count=150, sampling=sampling, seed=4)
        for c in (0.5, 1.0, 2.5):
            for sub in id_subsets(GRID_IDS):
                assert grid_reports(f, c, grid, sub) == \
                    reference_pass(f, c, grid, 1e-9, sub), (c, sub)

    @pytest.mark.parametrize("block_pairs", [1, 7, None])
    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    @pytest.mark.parametrize("family", ["quadratic", "tight", "disc"])
    def test_disagreements_at_tol_zero(self, family, sampling, block_pairs):
        # At tol = 0 rounding alone splits rows between prop_31's two sides
        # (1,799 of 11,264 on the tight family at c = 1, stratified), so the
        # pass's count, taken only on blocks where a side's least key is
        # negative, meets the reference's row-by-row count on many rows; a
        # one-pair block is where one side holds on every row and the other
        # does not
        f = {"quadratic": lambda: make_quadratic_family(1.5, 2.0, 20.0, DOM12),
             "tight": lambda: make_quadratic_family(1.0, 1.0, 10.0, DOM12),
             "disc": disc_fn}[family]()
        grid = ConvexityGrid(pair_count=1024, sampling=sampling, seed=4)
        counts = []
        for scale in (0.5, 1.0, 1.0 + 1e-12, 2.0):
            c = scale * f.claimed_modulus
            rep = grid_reports(f, c, grid, ("prop_31",), 0.0, block_pairs=block_pairs)
            assert rep == reference_pass(f, c, grid, 0.0, ("prop_31",)), scale
            counts.append(rep["prop_31"].inputs_echo["disagreements"])
        assert counts[1] > 100 and counts[2] > 0

    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    @pytest.mark.parametrize("family", ["quadratic", "tight", "disc", "sampled-interval",
                                        "sampled-disc", "c-shifted"])
    def test_u_space_agrees_with_x_values(self, family, sampling):
        # The grid pass's sides in u = 1/x, from u and u^2 (rows_in_u) or F
        # at 1/u_H, against F's values in x at the midpoint xy/(tx + (1-t)y)
        # with the penalty c t(1-t) ((x-y)/(xy))^2: the same verdict on every
        # row, slacks within 1e-13.
        f = {"quadratic": lambda: make_quadratic_family(1.5, 2.0, 20.0, DOM12),
             "tight": lambda: make_quadratic_family(1.0, 1.0, 10.0, DOM12),
             "disc": disc_fn,
             "sampled-interval": lambda: sampled_fn("interval"),
             "sampled-disc": lambda: sampled_fn("disc"),
             "c-shifted": lambda: CShiftFn(make_quadratic_family(1.5, 2.0, 20.0, DOM12),
                                           0.5)}[family]()
        grid = ConvexityGrid(pair_count=150, sampling=sampling, seed=4)
        for c in (0.5, 1.0, 2.5):
            in_u = reference_sides(f, c, grid, 1e-9)
            in_x = reference_sides(f, c, grid, 1e-9, values=True)
            for name in ("strong", "shifted"):
                (s0, t0), (s1, t1) = in_u[name][:2], in_x[name][:2]
                assert np.array_equal(s0 >= -t0, s1 >= -t1), (c, name)
                assert np.max(np.abs(s0 - s1)) <= 1e-13, (c, name)
        assert not np.all(in_u["strong"][0] >= -in_u["strong"][1])  # c = 2.5 fails somewhere

    @pytest.mark.parametrize("family,pairs", [("quadratic", 1024), ("quadratic", 262144),
                                              ("disc", 1024), ("disc", 16384)],
                             ids=["1024", "262144", "disc-1024", "disc-16384"])
    def test_endpoint_rows_exact(self, family, pairs):
        # At t = 0 or 1, u_H is u_x or u_y exactly, and both families' rows
        # (the quadratic's ends, the disc's centre and radius) come from u and u^2
        # at the grid's points and at u_H alike, so both sides of the row are
        # the same bits and its slack is exactly 0.0; on the t = 1/2 rows of a
        # held pass the slack is >= 0.  At tol = 0 a key is its slack, so the
        # reported witness is the first row, (a, a, 0).  In x,
        # xy/(tx + (1-t)y) at t = 1 can miss y by an ulp, which gives the
        # quadratic family a def_shc slack of -4.44e-16 at t = 1.
        dom = HarmonicDomain(0.8, 2.0)
        f = (make_quadratic_family(1.3, 2.1, 40.0, dom) if family == "quadratic"
             else make_disc_family((0.7, -0.3), (0.2, 0.5), 6.0, 1.5, dom))
        grid = ConvexityGrid(pair_count=pairs, t_values=(0.0, 0.5, 1.0))
        for c in (0.5, 1.0) if family == "quadratic" else (0.5,):
            rep = grid_reports(f, c, grid, ("def_shc", "lemma_i"), tol=0.0)
            assert rep["def_shc"].verdict.slack == 0.0, c
            assert rep["def_shc"].inputs_echo["witness"] == {"x": 0.8, "y": 0.8, "t": 0.0}
            assert rep["lemma_i"].inputs_echo["shifted_slack"] == 0.0, c

    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    def test_signed_zero_upper_ends(self, sampling):
        # An upper channel with knots at 0.0, -0.0 and below zero, and a
        # constant lower one, so that some witnesses have a -0.0 end.  The
        # reference widens the shifted side by its zero penalty explicitly,
        # the pass does not; reports are compared by repr, which tells -0.0
        # from 0.0.
        xs = np.linspace(1.0, 2.0, 9)
        hi = np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.25, -0.5])
        f = SampledFn(xs, np.column_stack([np.full(9, -2.0), hi]), DOM12)
        assert np.signbit(f.eval_vector(xs)[:, 1]).tolist() == \
            [True, True, False, False, True, False, True, True, True]
        grid = ConvexityGrid(pair_count=81, sampling=sampling, seed=4)
        texts = []
        for c in (0.0, 0.5, 2.0):
            for sub in id_subsets(GRID_IDS):
                if c > 0.0 or not {"lemma_i", "lemma_ii"} & set(sub):
                    texts.append(repr(grid_reports(f, c, grid, sub)))
                    assert texts[-1] == repr(reference_pass(f, c, grid, 1e-9, sub)), (c, sub)
        assert any("-0.0" in text for text in texts)


def seeded_discs(count=12, seed=25):
    """Seeded certified discs: v, w, beta, the domain and K's margin above
    its least value drawn."""
    rng = np.random.default_rng(seed)
    discs = []
    for _ in range(count):
        v, w = rng.uniform(-1.5, 1.5, (2, 2))
        beta, a, width, margin = rng.uniform([0.2, 0.3, 0.2, 0.01], [3.0, 2.0, 3.0, 2.0])
        dom = HarmonicDomain(a, a + width)
        discs.append(make_disc_family(v, w, beta / a ** 2 * (1.0 + margin), beta, dom))
    return discs


class TestSeededDiscs:
    """The streamed pass gives the unblocked reference's reports on seeded
    discs, held (c <= beta) and violated (c > beta)."""

    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    @pytest.mark.parametrize("index", range(12))
    def test_reports_equal(self, index, sampling):
        f = seeded_discs()[index]
        grid = ConvexityGrid(pair_count=(64, 100, 256)[index % 3], sampling=sampling,
                             seed=index)
        subsets = id_subsets(("def_shc", "def_mid", "lemma_i", "lemma_ii"))
        for i, scale in enumerate((0.5, 1.0, 2.0, 3.0)):
            c = scale * f.beta
            for j, block_pairs in enumerate((1, 7, None)):
                ids = subsets[(3 * i + j + index) % len(subsets)]
                assert grid_reports(f, c, grid, ids, block_pairs=block_pairs) == \
                    reference_pass(f, c, grid, 1e-9, ids), (c, block_pairs, ids)


class TestOverflowingCentres:
    """On [2^-500, 2^-499], u = 1/x reaches 2^500, so with |v| near 2^13 the
    centres v u + w reach about 2^513 and their squares overflow.  The pass
    takes those lengths from np.hypot, so every report's slack and
    tolerance are finite and match a hypot-based reference at its row."""

    @pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
    def test_finite_and_as_hypot_gives(self, sampling):
        a = 2.0 ** -500
        f = make_disc_family((2.0 ** 13, -(2.0 ** 12)), (0.5, 0.25), 1.5 / a ** 2 * 1.001, 1.5,
                             HarmonicDomain(a, 2.0 * a))
        grid = ConvexityGrid(pair_count=256, sampling=sampling, seed=3)
        eps = np.finfo(float).eps
        holds = []
        for c in (0.75, 1.5, 3.0):
            for rep in grid_reports(f, c, grid, GRID_IDS).values():
                lhs, rhs = as_row(rep.lhs), as_row(rep.rhs)
                assert np.hypot(rhs[0], rhs[1]) > 2.0 ** 512  # a square overflows
                slack = (rhs[2] - lhs[2]) - np.hypot(rhs[0] - lhs[0], rhs[1] - lhs[1])
                tol = 1e-9 * (1.0 + rhs[2] + np.hypot(rhs[0], rhs[1]))
                v = rep.verdict
                assert np.isfinite(v.slack) and np.isfinite(v.tolerance_used)
                assert abs(v.slack - slack) <= 4 * eps * (rhs[2] + lhs[2]), (c, rep.theorem_id)
                assert v.tolerance_used == pytest.approx(tol, rel=4 * eps), (c, rep.theorem_id)
                holds.append(rep.holds)
        assert any(holds) and not all(holds)


class TestFold:
    """The kept row minimises (slack + tolerance, grid index), NaN first,
    whatever order the blocks arrive in."""

    T = np.array([0.0, 1.0])

    def offer(self, worst, keys, first, x=1.0, y=2.0):
        # one block of two rows, at t = 0 and 1, of the pair with grid index
        # ``first``; row i holds [0, 1] inside [-keys[i], 1 + keys[i]], with
        # slack keys[i] at tolerance 0
        lhs = np.array([[0.0, 1.0], [0.0, 1.0]])
        rhs = np.array([[-k, 1.0 + k] for k in keys])
        worst.update(inclusion_block(lhs, rhs, "interval", 0.0),
                     np.array([x]), np.array([[y]]), first, 0)

    def witness(self, worst):
        """(x, y, t) and slack of the kept row (a NaN row makes no report)."""
        slack, *_, x, y, t = worst.row
        return {"x": float(x), "y": float(y), "t": float(t)}, slack

    def test_grid_first_of_tied_rows_wins(self):
        worst = _Worst("interval", self.T)
        self.offer(worst, [0.5, 0.25], first=5, x=1.5)
        self.offer(worst, [0.25, 0.25], first=2, x=1.25)  # ties, earlier in the grid
        self.offer(worst, [0.25, 0.5], first=3, x=1.75)   # ties, later
        assert self.witness(worst) == ({"x": 1.25, "y": 2.0, "t": 0.0}, 0.25)

    def test_smaller_key_wins_regardless_of_index(self):
        worst = _Worst("interval", self.T)
        self.offer(worst, [0.5, 0.5], first=0)
        self.offer(worst, [0.5, 0.125], first=9, x=1.5)
        assert self.witness(worst) == ({"x": 1.5, "y": 2.0, "t": 1.0}, 0.125)

    def test_first_nan_in_grid_order_wins(self):
        worst = _Worst("interval", self.T)
        self.offer(worst, [-1.0, -1.0], first=0)
        self.offer(worst, [0.5, np.nan], first=7, x=1.5)
        self.offer(worst, [np.nan, 0.5], first=4, x=1.25)
        self.offer(worst, [-2.0, -3.0], first=1)
        (where, slack) = self.witness(worst)
        assert where == {"x": 1.25, "y": 2.0, "t": 0.0} and np.isnan(slack)

    def test_tie_at_the_bound_is_skipped_only_after_the_kept_row(self):
        # The x-run walk does not deliver blocks in grid order, so a block
        # whose keys are all >= a bound equal to the kept key may still hold
        # the first row of that key: it is skipped only when its least grid
        # index comes after the kept row's.
        worst = _Worst("interval", self.T)
        self.offer(worst, [0.5, 0.25], first=5)
        assert (worst.rank, worst.index) == ((1, 0.25), 11)
        assert not worst.beaten(0.25, 10)
        assert worst.beaten(0.25, 12)
        assert worst.beaten(0.5, 0) and not worst.beaten(0.125, 12)
        self.offer(worst, [0.25, 0.5], first=4, x=1.5)  # the tie the skip kept
        assert worst.index == 8 and self.witness(worst)[0]["x"] == 1.5

    def test_mirrored_pairs_tie_and_the_grid_first_wins(self):
        # At t = 1/2 the pairs (x, y) and (y, x) give the same row, bit for
        # bit.  On the 2 x 2 grid with c above the modulus the off-diagonal
        # pairs are the worst; one-pair blocks visit (x0, y1) (pair 2)
        # before (x1, y0) (pair 1), and pair 1 is the witness.
        f = make_quadratic_family(1.0, 1.0, 10.0, DOM12)
        grid = ConvexityGrid(pair_count=4)
        reports = [grid_reports(f, 2.0, grid, ("def_mid",), block_pairs=n)
                   for n in (1, None)]
        assert reports[0] == reports[1] == reference_pass(f, 2.0, grid, 1e-9, ("def_mid",))
        rep = reports[0]["def_mid"]
        assert not rep.holds
        assert rep.inputs_echo["witness"] == {"x": 2.0, "y": 1.0, "t": 0.5}

    @pytest.mark.parametrize("pick", [None, 2])
    def test_chunked_blocks_keep_the_brute_force_argmin(self, pick):
        # Random keys, with ties and NaNs, on a grid of 2R y rows x 2k x
        # values and m = 5 t values: four blocks of R y rows x k x values,
        # in random order, each folded in chunks that start at whole (y row,
        # t) slabs.  A row holds [0, 1] inside [-key, 1 + key] at tolerance
        # 0, so each key is its slack.  The kept row must be the argmin of
        # (key, grid index), NaN first.
        rng = np.random.default_rng(5)
        m, t = 5, np.linspace(0.0, 1.0, 5)
        for _ in range(40):
            rows, k = rng.integers(1, 4, 2)
            n = 2 * k  # pairs per grid row, and the stride of a y row
            xs, ys = rng.uniform(1.0, 2.0, n), rng.uniform(1.0, 2.0, 2 * rows)
            keys = rng.choice([-1.0, 0.0, 0.5, np.nan], p=[0.3, 0.3, 0.38, 0.02],
                              size=(2 * rows, m, n))
            worst = _Worst("interval", t, pick)
            starts = [(i, j) for i in range(0, 2 * rows, rows) for j in range(0, n, k)]
            for i, j in (starts[s] for s in rng.permutation(len(starts))):
                block = keys[i:i + rows, :, j:j + k].reshape(-1)
                cuts = np.flatnonzero(rng.random(rows * m - 1) < 0.4) + 1
                for lo, hi in zip([0, *cuts], [*cuts, rows * m]):
                    part = block[lo * k:hi * k]
                    chunk = inclusion_block(np.tile([0.0, 1.0], (len(part), 1)),
                                            np.column_stack([-part, 1.0 + part]), "interval", 0.0)
                    worst.update(chunk, xs[j:j + k], ys[i:i + rows, None], i * n + j, n, lo)
            yr, ti, kx = np.meshgrid(*(np.arange(s) for s in keys.shape), indexing="ij")
            at = (yr * n + kx) * m + ti
            read = (ti == pick) if pick is not None else np.ones(keys.shape, bool)
            nan = np.isnan(keys) & read
            pool = nan if nan.any() else read & (keys == np.nanmin(keys[read]))
            best = np.argmin(at[pool])
            want = tuple(a[pool][best] for a in (yr, ti, kx))
            slack, *_, x, y, tw = worst.row
            assert worst.index == at[want]
            assert worst.rank == ((0, 0.0) if nan.any() else (1, keys[want]))
            assert (x, y, tw) == (xs[want[2]], ys[want[0]], t[want[1]])
            assert slack == keys[want] or np.isnan(keys[want]) and np.isnan(slack)


def block_shapes(monkeypatch, name):
    """The (channels, rows) shape of the first argument of every call the
    grid pass makes to ``name``, the inclusion rule's branch
    ``interval_block`` or ``disc_block`` on sets held channel by channel,
    recorded from then on."""
    shapes = []
    kernel = getattr(hh_check, name)

    def spy(first, *args):
        shapes.append(first.shape)
        return kernel(first, *args)

    monkeypatch.setattr(hh_check, name, spy)
    return shapes


class TestBlockSize:
    """Blocks of the grid pass follow the x-run walk: with p =
    BLOCK_ELEMENTS // (t values x channels per array) pairs (at least one)
    and n grid points per axis, a run of p x values shorter than a row
    gives one block per y row; otherwise a block holds p // n whole rows.
    An interval's ends and a disc's centre coordinates and radius are
    arrays of their own, one channel each."""

    # all grid ids: the strong, shifted and arithmetic sides on the whole t
    # grid; the midconvex ids alone: the strong and shifted sides at t = 1/2
    @pytest.mark.parametrize("walk,ids", [("triples", GRID_IDS), ("midconvex", MID_IDS)],
                             ids=["triples", "midconvex"])
    @pytest.mark.parametrize("family", ["quadratic", "disc"])
    def test_default_block_within_budget(self, monkeypatch, family, walk, ids):
        f, rule, channels = (
            (make_quadratic_family(1.5, 2.0, 20.0, DOM12), "interval_block", 2)
            if family == "quadratic" else
            (make_disc_family((1.0, 0.0), (0.0, 1.0), 3.0, 1.0, DOM12), "disc_block", 3))
        pairs = 16384
        rows = block_shapes(monkeypatch, rule)
        grid_reports(f, 1.0, ConvexityGrid(pair_count=pairs), ids)
        m = len(GRID.t_values) if walk == "triples" else 1
        n = round(pairs ** 0.5)
        p = BLOCK_ELEMENTS // m
        # x values per run, and y rows per block
        k = min(p, n)
        step = p // k
        # (pairs, x values) of each block
        blocks = [(min(step, n - i) * min(k, n - j), min(k, n - j))
                  for j in range(0, n, k) for i in range(0, n, step)]
        pairs_per_block = [b for b, _ in blocks]
        expected = {"triples": (8 * 128, 16), "midconvex": (96 * 128, 2)}
        assert (pairs_per_block[0], len(pairs_per_block)) == expected[walk]
        # each block's channels go through the rule once for the strong side,
        # once for the shifted one and, with prop_31, once for the arithmetic
        # side on G's values in the same workspace rows: no (triples,
        # channels) parts
        sides = 3 if walk == "triples" else 2
        assert rows == [(channels, k * m) for k in pairs_per_block for _ in range(sides)]
        assert max(triples for _, triples in rows) <= BLOCK_ELEMENTS

    def test_floor_is_one_pair(self, monkeypatch):
        f = make_quadratic_family(1.5, 2.0, 20.0, DOM12)
        t = np.arange(BLOCK_ELEMENTS + 1) / BLOCK_ELEMENTS  # one pair is over budget
        grid = ConvexityGrid(pair_count=9, t_values=t)
        shapes = block_shapes(monkeypatch, "interval_block")
        rep = grid_reports(f, 1.0, grid, ("def_shc",))
        assert shapes == [(2, t.size)] * 9
        assert rep == grid_reports(f, 1.0, grid, ("def_shc",), block_pairs=10)


def traced_peak(f, ids, pairs, sampling="deterministic-stratified"):
    tracemalloc.start()
    run_theorems(f, ids, 1.0, ConvexityGrid(pair_count=pairs, sampling=sampling), GL16)
    size = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return size


class TestBoundedMemory:
    def test_peak_does_not_grow_with_the_grid(self):
        f = make_quadratic_family(1.0, 1.0, 10.0, DOM12)

        def peak(pairs):
            return traced_peak(f, ["def_shc", "lemma_i", "prop_31"], pairs)

        # 16x the pairs; an unstreamed pass would need about 16x the memory
        assert peak(65536) < 2.0 * peak(4096)

    def test_disc_peak_does_not_grow_with_the_grid(self):
        # The pass holds a block (about 1 MB of workspace rows) and F at the
        # grid's points, not the pairs.  An unstreamed pass would need about
        # 16x as much.
        f = make_disc_family((1.0, 0.0), (0.0, 1.0), 3.0, 1.0, DOM12)

        def peak(pairs):
            return traced_peak(f, ["def_shc"], pairs)

        assert peak(65536) < 2.0 * peak(4096)

    def test_seeded_random_peak_is_bounded_by_the_block(self):
        # Seeded-random pairs are drawn block by block: holding all 2^20
        # pairs' x and y values alone would take 16 MB.  A first draw outside
        # the trace leaves out numpy.random's one-off state (about 0.7 MB).
        f = make_quadratic_family(1.0, 1.0, 10.0, DOM12)
        ConvexityGrid(pair_count=1, sampling="seeded-random").pairs(1.0, 2.0)
        assert traced_peak(f, ["def_mid"], 2 ** 20, "seeded-random") <= 4 * 2 ** 20
