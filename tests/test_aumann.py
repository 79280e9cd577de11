import math
from fractions import Fraction

import numpy as np
import pytest

from harmonichh.aumann import (
    COMPOSITE_SIMPSON,
    PositivityError,
    QuadratureError,
    QuadratureSpec,
    aumann_integral,
    bracket_product_integral,
    plain_product_integral,
    reflected_product_integral,
    weighted_harmonic_integral,
)
from harmonichh.set_core import (
    Interval,
    UnsupportedProductError,
    as_row,
    as_set,
    hausdorff,
    interval_product,
    minkowski_sum,
)
from harmonichh.svf import (
    HarmonicDomain,
    QuadraticIntervalFn,
    SampledFn,
    make_disc_family,
    make_quadratic_family,
    reciprocal_transform,
)
from oracles import monte_carlo_oracle

DOM12 = HarmonicDomain(1.0, 2.0)
GL16 = QuadratureSpec()


def constant_fn(lo, hi, dom=DOM12):
    return SampledFn([dom.a, dom.b], np.array([[lo, hi], [lo, hi]]), dom)


def weighted_quadratic_oracle(alpha, beta, K, a, b):
    """Antiderivative oracle for int_a^b [alpha/x^2, K - beta/x^2] / x^2 dx.

    Exact rational arithmetic: int x^-4 = -x^-3/3, int x^-2 = -x^-1.
    """
    a, b = Fraction(a), Fraction(b)
    i4 = Fraction(1, 3) * (a ** -3 - b ** -3)
    i2 = a ** -1 - b ** -1
    return (Fraction(alpha) * i4, Fraction(K) * i2 - Fraction(beta) * i4)


class TestQuadratureSpec:
    def test_bad_rule(self):
        with pytest.raises(QuadratureError):
            QuadratureSpec(rule="trapezoid")

    def test_gl_order_floor(self):
        with pytest.raises(QuadratureError):
            QuadratureSpec(order_or_panels=1)

    def test_fractional_order(self):
        # refused, not truncated to order 2
        for order in (2.7, float("inf"), float("nan")):
            with pytest.raises(QuadratureError, match="whole number"):
                QuadratureSpec(order_or_panels=order)
        assert QuadratureSpec(order_or_panels=16.0).order_or_panels == 16

    def test_simpson_odd_panels(self):
        with pytest.raises(QuadratureError):
            QuadratureSpec(rule=COMPOSITE_SIMPSON, order_or_panels=5)


class TestAumannIntegral:
    def test_constant(self):
        res = aumann_integral(constant_fn(0, 1), 1.0, 2.0, GL16)
        assert hausdorff(res.value, Interval(0, 1)) <= 1e-13

    def test_singleton_identity(self):
        dom = HarmonicDomain(0.25, 1.0)
        f = SampledFn([0.25, 1.0], np.array([[0.25, 0.25], [1.0, 1.0]]), dom)
        res = aumann_integral(f, 0.25, 1.0, GL16)
        # integral of x over [1/4, 1] is (1 - 1/16)/2
        expect = (1 - 0.0625) / 2
        assert res.value.lo == pytest.approx(expect, abs=1e-12)
        assert res.value.hi == pytest.approx(expect, abs=1e-12)

    def test_quadratic_unweighted(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        res = aumann_integral(f, 1.0, 2.0, GL16)
        assert res.value.lo == pytest.approx(0.5, abs=1e-12)
        assert res.value.hi == pytest.approx(9.5, abs=1e-12)

    def test_outside_domain(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(QuadratureError):
            aumann_integral(f, 0.5, 2.0, GL16)

    def test_linearity(self):
        f = make_quadratic_family(1, 2, 10, DOM12)
        g = make_quadratic_family(0.5, 1, 8, DOM12)

        class Sum(QuadraticIntervalFn):
            pass

        h = QuadraticIntervalFn(1.5, 3, 18, DOM12)  # pointwise f (+) g
        rf = aumann_integral(f, 1.0, 2.0, GL16)
        rg = aumann_integral(g, 1.0, 2.0, GL16)
        rh = aumann_integral(h, 1.0, 2.0, GL16)
        combined = minkowski_sum(rf.value, rg.value)
        assert hausdorff(rh.value, combined) <= rf.error_budget + rg.error_budget + rh.error_budget + 1e-12

    def test_additivity_over_subdomains(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        whole = aumann_integral(f, 1.0, 2.0, GL16)
        left = aumann_integral(f, 1.0, 1.4, GL16)
        right = aumann_integral(f, 1.4, 2.0, GL16)
        budget = whole.error_budget + left.error_budget + right.error_budget + 1e-12
        assert hausdorff(whole.value, minkowski_sum(left.value, right.value)) <= budget

    @pytest.mark.parametrize("rule,n", [("gauss-legendre", 2), ("composite-simpson", 2)])
    def test_disc_budget_covers_every_direction(self, rule, n):
        # a disc's doubled-rule estimate is the Hausdorff distance of Q_n and
        # Q_2n, ||c_n - c_2n|| + |r_n - r_2n|: the largest change of its
        # support function over all directions, which exceeds the largest
        # change of one channel when the centre moves
        f = make_disc_family((2.0, -1.0), (0.5, 0.5), 9.0, 2.0, DOM12)
        res = aumann_integral(f, 1.0, 2.0, QuadratureSpec(rule, n))
        xs, ws = (np.polynomial.legendre.leggauss(n) if rule == "gauss-legendre" else
                  (np.linspace(-1.0, 1.0, n + 1), np.array([1.0, 4.0, 1.0]) / 3.0))
        q_n = (0.5 * ws) @ f.eval_vector(1.5 + 0.5 * xs)
        gap = hausdorff(as_set(q_n, "disc"), res.value)
        floor = 16 * np.finfo(float).eps * (1.0 + math.hypot(*res.value.center) + res.value.radius)
        assert res.error_budget == pytest.approx(gap + floor, rel=1e-12)
        assert gap > np.max(np.abs(q_n - as_row(res.value)))


class TestWeightedHarmonicIntegral:
    def test_tight_family_oracle(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        res = weighted_harmonic_integral(f, DOM12, GL16)
        lo, hi = weighted_quadratic_oracle(1, 1, 10, 1, 2)
        assert (lo, hi) == (Fraction(7, 24), Fraction(113, 24))
        assert res.value.lo == pytest.approx(float(lo), abs=1e-13)
        assert res.value.hi == pytest.approx(float(hi), abs=1e-13)
        assert res.error_budget < 1e-12

    def test_constant(self):
        res = weighted_harmonic_integral(constant_fn(0, 1), DOM12, GL16)
        assert hausdorff(res.value, Interval(0, 0.5)) <= 1e-7  # sampled fn: not exact

    def test_mean_value_scaling(self):
        from harmonichh.set_core import scale
        f = make_quadratic_family(1, 1, 10, DOM12)
        res = weighted_harmonic_integral(f, DOM12, GL16)
        mean = scale(2.0, res.value)  # ab/(b-a) = 2
        assert mean.lo == pytest.approx(7 / 12, abs=1e-12)
        assert mean.hi == pytest.approx(113 / 12, abs=1e-12)

    def test_substitution_identity(self):
        f = make_quadratic_family(1.3, 0.8, 11, DOM12)
        w = weighted_harmonic_integral(f, DOM12, GL16)
        g = reciprocal_transform(f)
        direct = aumann_integral(g, 0.5, 1.0, GL16)
        assert hausdorff(w.value, direct.value) <= 1e-12

    def test_no_substitution_agrees(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        sub = weighted_harmonic_integral(f, DOM12, GL16)
        direct = weighted_harmonic_integral(
            f, DOM12, QuadratureSpec(substitution=False))
        assert hausdorff(sub.value, direct.value) <= direct.error_budget + 1e-12

    def test_simpson_agrees(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        simpson = weighted_harmonic_integral(
            f, DOM12, QuadratureSpec(rule=COMPOSITE_SIMPSON, order_or_panels=256))
        assert hausdorff(simpson.value, Interval(7 / 24, 113 / 24)) <= \
            simpson.error_budget + 1e-12

    @pytest.mark.parametrize("substitution", [True, False])
    @pytest.mark.parametrize("rule,order", [(COMPOSITE_SIMPSON, n) for n in (2, 4, 8, 16)]
                             + [("gauss-legendre", n) for n in (2, 3, 4, 8, 16)])
    def test_budget_covers_the_error(self, rule, order, substitution):
        # the default family: the exact set lies within the reported budget
        f = make_quadratic_family(1, 1, 10, DOM12)
        q = QuadratureSpec(rule, order, substitution)
        res = weighted_harmonic_integral(f, DOM12, q)
        assert hausdorff(res.value, Interval(7 / 24, 113 / 24)) <= res.error_budget
        if substitution:
            # a polynomial in u: one run of the rule, no doubled nodes
            assert res.nodes_used == (order + 1 if rule == COMPOSITE_SIMPSON else order)

    @pytest.mark.parametrize("params", [(1, 1, 10), (2, 3, 20), (0.7, 1.9, 15)])
    def test_matches_antiderivative_oracle(self, params):
        alpha, beta, K = params
        f = make_quadratic_family(alpha, beta, K, DOM12)
        res = weighted_harmonic_integral(f, DOM12, GL16)
        lo, hi = weighted_quadratic_oracle(*(Fraction(p).limit_denominator() for p in params), 1, 2)
        assert abs(res.value.lo - float(lo)) <= 1e-13 * (1 + abs(float(lo)))
        assert abs(res.value.hi - float(hi)) <= 1e-13 * (1 + abs(float(hi)))

    def test_monotone_in_integrand(self):
        inner = make_quadratic_family(1, 1, 10, DOM12)   # [1/x^2, 10 - 1/x^2]
        outer = make_quadratic_family(0.5, 0.5, 10.5, DOM12)
        # inner(x) subset outer(x) pointwise on [1,2]
        xs = np.linspace(1, 2, 50)
        vi, vo = inner.eval_vector(xs), outer.eval_vector(xs)
        assert np.all(vi[:, 0] >= vo[:, 0]) and np.all(vi[:, 1] <= vo[:, 1])
        ri = weighted_harmonic_integral(inner, DOM12, GL16)
        ro = weighted_harmonic_integral(outer, DOM12, GL16)
        budget = ri.error_budget + ro.error_budget + 1e-12
        assert ri.value.lo >= ro.value.lo - budget
        assert ri.value.hi <= ro.value.hi + budget


class TestProductIntegrals:
    def test_reflected_constants(self):
        f = constant_fn(1, 1)
        g = constant_fn(2, 2)
        res = reflected_product_integral(f, g, DOM12, GL16)
        assert hausdorff(res.value, Interval(2, 2)) <= 1e-10

    def test_plain_constants(self):
        f = constant_fn(1, 1)
        g = constant_fn(1, 2)
        res = plain_product_integral(f, g, DOM12, GL16)
        assert hausdorff(res.value, Interval(1, 2)) <= 1e-10

    def test_plain_moore_square(self):
        f = constant_fn(2, 3)
        res = plain_product_integral(f, f, DOM12, GL16)
        assert hausdorff(res.value, Interval(4, 9)) <= 1e-10

    def test_midpoint_node_value(self):
        # at t = 1/2 both arguments hit the harmonic midpoint 4/3
        f = make_quadratic_family(1, 1, 10, DOM12)
        v = f.eval(4 / 3)
        sq = interval_product(v, v)
        assert sq == Interval(0.5625 ** 2, 9.4375 ** 2)
        assert sq.lo == pytest.approx(0.31640625)
        assert sq.hi == pytest.approx(89.06640625)

    def test_endpoint_parametrization(self):
        # reflected integrand at t=0 is F(b) G(a); check via 2-panel Simpson nodes
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = make_quadratic_family(2, 1, 12, DOM12)
        res = reflected_product_integral(f, g, DOM12, GL16)
        # Riemann cross-check of (ab/(b-a)) int F(x) G(theta(x)) / x^2 dx
        n = 400_000
        xs = np.linspace(1, 2, n + 1)[:-1] + 0.5 / n
        theta = 2 * xs / (3 * xs - 2)
        vf, vg = f.eval_vector(xs), g.eval_vector(theta)
        lo = 2.0 * np.sum(vf[:, 0] * vg[:, 0] / xs ** 2) / n
        hi = 2.0 * np.sum(vf[:, 1] * vg[:, 1] / xs ** 2) / n
        assert res.value.lo == pytest.approx(lo, abs=1e-8)
        assert res.value.hi == pytest.approx(hi, abs=1e-7)

    def test_positivity_required(self):
        f = constant_fn(-1, 1)
        with pytest.raises(PositivityError):
            plain_product_integral(f, f, DOM12, GL16)

    def test_support_kind_rejected(self):
        d = make_disc_family((1, 0), (0, 1), 3, 1, DOM12)
        f = constant_fn(1, 2)
        with pytest.raises(UnsupportedProductError):
            reflected_product_integral(d, f, DOM12, GL16)

    def test_bracket_product_inside_product_integral(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = make_quadratic_family(2, 1.5, 16, DOM12)
        for reflected, integral in [
            (True, reflected_product_integral(f, g, DOM12, GL16)),
            (False, plain_product_integral(f, g, DOM12, GL16)),
        ]:
            chain = bracket_product_integral(f.eval(1.0), f.eval(2.0), g.eval(1.0),
                                             g.eval(2.0), 1.0, DOM12, GL16,
                                             reflected=reflected)
            budget = chain.error_budget + integral.error_budget + 1e-10
            assert chain.value.lo >= integral.value.lo - budget
            assert chain.value.hi <= integral.value.hi + budget


class TestRiemannOracle:
    def test_weighted_tight_family(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        res = monte_carlo_oracle(f, DOM12, samples=1_000_000, seed=0, weight="harmonic")
        assert res.value.lo == pytest.approx(7 / 24, abs=1e-8)
        assert res.value.hi == pytest.approx(113 / 24, abs=1e-8)

    def test_unweighted_constant(self):
        res = monte_carlo_oracle(constant_fn(0, 1), DOM12, samples=200_000,
                                 seed=3, weight="none")
        assert hausdorff(res.value, Interval(0, 1)) <= 1e-9

    def test_agrees_with_quadrature(self):
        f = make_quadratic_family(2, 3, 20, DOM12)
        quad = weighted_harmonic_integral(f, DOM12, GL16)
        oracle = monte_carlo_oracle(f, DOM12, samples=1_000_000, seed=1)
        assert hausdorff(quad.value, oracle.value) <= \
            quad.error_budget + oracle.error_budget + 1e-7

    def test_deterministic_given_seed(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        r1 = monte_carlo_oracle(f, DOM12, samples=10_000, seed=11)
        r2 = monte_carlo_oracle(f, DOM12, samples=10_000, seed=11)
        assert r1.value == r2.value
