"""Symbolic oracles for the rules of the two certified families and for
printed thm33 and thm35 on the bundled default family.

Starting from each family's closed form in u = 1/x, sympy derives the
certified modulus, the least over the support channels of -phi''/2 (hi
and -lo for an interval), and the numerator ``top`` of the least K, a^2
times the K at which the family's width vanishes at u = 1/a.  Both are
checked against ``svf.family_rule``, ``svf.least_K`` and the factories'
claimed moduli on seeded draws, with every float parameter taken exactly as
a rational.

The printed product theorems' slacks are derived as exact polynomials in
the modulus c and checked against ``run_theorems``' floats, on the default
family and on seeded draws, and so are the quadratic family's
Hermite-Hadamard and Nikodem sandwich slacks.  The five grid ids are
checked exactly at each reported witness triple of the quadratic family.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from harmonichh.aumann import QuadratureSpec
from harmonichh.cli import default_config
from harmonichh.hh_check import ConvexityGrid, run_theorems
from harmonichh.svf import (
    FEASIBILITY_RTOL,
    HarmonicDomain,
    family_rule,
    least_K,
    make_disc_family,
    make_quadratic_family,
)

u, K = sp.symbols("u K", positive=True)
E = sp.symbols("e1 e2", real=True)  # a direction of the plane


def quadratic_form(alpha, beta):
    """The support channels hi and -lo of [alpha u^2, K - beta u^2], and
    its width hi - lo."""
    lo, hi = alpha * u ** 2, K - beta * u ** 2
    return [hi, -lo], hi - lo


def disc_form(v, w, beta):
    """The support channel <v,e> u + <w,e> + K - beta u^2 in a direction e,
    and the disc's radius (h(e) + h(-e)) / 2."""
    def h(e):
        return (v[0] * e[0] + v[1] * e[1]) * u + w[0] * e[0] + w[1] * e[1] + K - beta * u ** 2
    return [h(E)], sp.expand((h(E) + h([-x for x in E])) / 2)


def certified_modulus(channels):
    modulus = sp.Min(*[sp.expand(-sp.diff(phi, u, 2) / 2) for phi in channels])
    assert modulus.free_symbols == set()  # the same in every direction
    return modulus


def derived_top(width, a):
    (k_empty,) = sp.solve(width.subs(u, 1 / a), K)
    return sp.expand(a ** 2 * k_empty)


def draws(count=20, seed=17):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha, beta, a, width = rng.uniform([0.05, 0.05, 0.1, 0.1], [8.0, 8.0, 4.0, 4.0])
        v, w = rng.uniform(-2.0, 2.0, (2, 2))
        yield float(alpha), float(beta), float(a), float(a + width), v, w


def exact(x):
    return sp.Rational(float(x))  # a float is a dyadic rational


def assert_within_ulps(got, want, ulps):
    assert abs(got - float(want)) <= ulps * math.ulp(float(want))


@pytest.mark.parametrize("kind", ["quadratic-interval", "disc"])
def test_family_rule_matches_the_closed_form(kind):
    for alpha, beta, a, b, v, w in draws():
        if kind == "quadratic-interval":
            moduli = {"alpha": alpha, "beta": beta}
            channels, width = quadratic_form(exact(alpha), exact(beta))
        else:
            moduli = {"beta": beta}
            channels, width = disc_form([exact(x) for x in v], [exact(x) for x in w], exact(beta))
        modulus, top = certified_modulus(channels), derived_top(width, exact(a))
        got_top, got_modulus = family_rule(kind, moduli)
        assert exact(got_modulus) == modulus  # exactly: the least of the moduli
        assert_within_ulps(got_top, top, 1)
        want_K = (1 + exact(FEASIBILITY_RTOL)) * top / exact(a) ** 2
        assert_within_ulps(least_K(got_top, a), want_K, 4)
        dom = HarmonicDomain(a, b)
        K_ok = least_K(got_top, a)
        f = (make_quadratic_family(alpha, beta, K_ok, dom) if kind == "quadratic-interval"
             else make_disc_family(v, w, K_ok, beta, dom))
        assert exact(f.claimed_modulus) == modulus


# Printed thm33 and thm35 on the bundled default family, G = F: the left
# side (1/6)M + (1/3)N + S (c/12) d^2 B + (c^2/30) d^4 B of
# ``hh_check._product_lhs`` against the mean over t of F(u) G(u_a + u_b - u)
# (thm33) or F(u) G(u) (thm35) on u(t) = u_a + t (u_b - u_a), u = 1/x.  The
# family's ends are positive, so a product of intervals is [lo lo', hi hi'].
c = sp.symbols("c", nonnegative=True)
t = sp.symbols("t")
DEFAULT = default_config()


def product(p, q):
    return (p[0] * q[0], p[1] * q[1])


def total(*ends):
    return tuple(sum(e[i] for e in ends) for i in (0, 1))


def mean_over_t(p):
    """The exact integral over t in [0, 1] of the polynomial ``p`` in t."""
    antiderivative = sp.Poly(p, t).integrate()
    return antiderivative.eval(1) - antiderivative.eval(0)


@functools.cache
def margins(alpha, beta, Kv, a, b):
    """The lower-end and upper-end margins, lhs_lo - rhs_lo and
    rhs_hi - lhs_hi, of printed thm33 and thm35 as exact polynomials in c,
    for the quadratic family of the exact parameters on [a, b]."""
    ua, ub = 1 / a, 1 / b

    def F(w):
        return (alpha * w ** 2, Kv - beta * w ** 2)

    fa, fb = F(ua), F(ub)
    d2 = (ua - ub) ** 2
    M, N, S = total(product(fa, fa), product(fb, fb)), total(product(fa, fb), product(fb, fa)), \
        total(fa, fb, fa, fb)
    # the penalty ball times S is [-r S_hi, r S_hi], and the quartic term a ball
    pen = c / 12 * d2 * S[1] + c ** 2 / 30 * d2 ** 2
    lhs = (M[0] / 6 + N[0] / 3 - pen, M[1] / 6 + N[1] / 3 + pen)
    w = ua + t * (ub - ua)
    out = {}
    for tid, g in (("thm33", F(ua + ub - w)), ("thm35", F(w))):
        rhs = [mean_over_t(e) for e in product(F(w), g)]
        out[tid] = (sp.expand(lhs[0] - rhs[0]), sp.expand(rhs[1] - lhs[1]))
    return out


@functools.cache
def printed_margins():
    """``margins`` of the bundled default family."""
    fam = {k: exact(v) for k, v in DEFAULT["families"][0].items() if k != "family"}
    return margins(fam["alpha"], fam["beta"], fam["K"], fam["a"], fam["b"])


def float_report(tid, cv):
    fam = DEFAULT["families"][0]
    f = make_quadratic_family(fam["alpha"], fam["beta"], fam["K"],
                              HarmonicDomain(fam["a"], fam["b"]))
    quad = DEFAULT["quadrature"]
    spec = QuadratureSpec(quad["rule"], quad["order"], quad["substitution"])
    (rep,) = run_theorems(f, [tid], cv, ConvexityGrid(**DEFAULT["grid"]), spec,
                          DEFAULT["tolerance"])
    return rep


class TestPrintedProductTheorems:
    """The standing finding, derived: printed thm33 and thm35 fail on the
    default family at c = 1, by exact amounts."""

    def slack(self, tid, cv):
        return sp.Min(*(m.subs(c, cv) for m in printed_margins()[tid]))

    def test_pins(self):
        assert self.slack("thm33", 1) == sp.Rational(-11, 15)
        assert self.slack("thm35", 1) == sp.Rational(-397, 480)
        assert self.slack("thm33", 0) == sp.Rational(1, 20)
        assert self.slack("thm35", 0) == sp.Rational(-7, 160)

    @pytest.mark.parametrize("tid", ["thm33", "thm35"])
    @pytest.mark.parametrize("cv", [0, sp.Rational(1, 2), 1])
    def test_float_slack_agrees(self, tid, cv):
        rep = float_report(tid, float(cv))
        want = self.slack(tid, cv)
        assert abs(rep.verdict.slack - want) <= rep.error_budget + rep.verdict.tolerance_used
        assert rep.holds == bool(want >= 0)

    def test_thm33_root(self):
        lo = printed_margins()["thm33"][0]
        assert sp.degree(lo, c) == 2
        (root,) = [r for r in sp.solve(lo, c) if r >= 0]
        assert sp.simplify(root - (-375 + sp.sqrt(140721)) / 2) == 0
        rep = float_report("thm33", float(root))
        assert abs(rep.verdict.slack) <= rep.error_budget + rep.verdict.tolerance_used
        assert abs(rep.verdict.slack) < 1e-15

    @pytest.mark.parametrize("substitution", [True, False], ids=["in-u", "in-x"])
    def test_seeded_families(self, substitution):
        # every product id on seeded families, K twice its least so that
        # every end is positive: cor34 is thm33 with G = F, and cor36's
        # primary verdict is thm35's
        spec = QuadratureSpec(substitution=substitution)
        of = {"thm33": "thm33", "cor34": "thm33", "thm35": "thm35", "cor36": "thm35"}
        for alpha, beta, a, b, _, _ in draws():
            Kv = 2.0 * least_K(alpha + beta, a)
            f = make_quadratic_family(alpha, beta, Kv, HarmonicDomain(a, b))
            exact_margins = margins(*(exact(v) for v in (alpha, beta, Kv, a, b)))
            for share in (0.5, 1.0, 1.5):
                cv = share * min(alpha, beta)
                for rep in run_theorems(f, list(of), cv, ConvexityGrid(), spec):
                    want = min(m.subs(c, exact(cv)) for m in exact_margins[of[rep.theorem_id]])
                    err = abs(rep.verdict.slack - want)
                    assert err <= rep.error_budget + rep.verdict.tolerance_used, \
                        (rep.theorem_id, alpha, beta, a, b, cv)


# The quadratic family's Hermite-Hadamard sandwiches, exactly.  The mean
# (ab/(b-a)) int_a^b F(x)/x^2 dx is [alpha m, K - beta m] with
# m = (a^2 + ab + b^2)/(3 a^2 b^2); hh_left widens it by the (c/12) d^2 ball
# inside F(2ab/(a+b)), hh_right widens (F(a) + F(b))/2 by the (c/6) d^2 ball
# inside it, with d = (b - a)/(ab).  The Nikodem pair is the same sandwich of
# F(1/u) in u.
SANDWICH_IDS = ("hh_left", "hh_right", "nikodem_left", "nikodem_right")
x, A, B = sp.symbols("x a b", positive=True)


@functools.cache
def mean_factor():
    """m, derived: the mean of the u^2 channel, (ab/(b-a)) int_a^b x^-4 dx."""
    m = sp.factor(A * B / (B - A) * sp.integrate(x ** -4, (x, A, B)))
    assert sp.simplify(m - (A ** 2 + A * B + B ** 2) / (3 * A ** 2 * B ** 2)) == 0
    return m


def sandwich_slacks(alpha, beta, Kv, a, b, cv):
    """Exact (left, right) slacks: the margin of the tighter end of each
    inclusion, the ball's radius taken off both."""
    def F(xv):
        return (alpha / xv ** 2, Kv - beta / xv ** 2)

    def slack(lhs, r, rhs):  # lhs widened by the ball of radius r, inside rhs
        return min(lhs[0] - r - rhs[0], rhs[1] - lhs[1] - r)

    m = mean_factor().subs({A: a, B: b})
    mean = (alpha * m, Kv - beta * m)
    d2 = ((b - a) / (a * b)) ** 2
    ends = total(F(a), F(b))
    return (slack(mean, cv / 12 * d2, F(2 * a * b / (a + b))),
            slack((ends[0] / 2, ends[1] / 2), cv / 6 * d2, mean))


@pytest.mark.parametrize("substitution", [True, False], ids=["in-u", "in-x"])
def test_quadratic_sandwich_slacks_exact(substitution):
    grid, spec = ConvexityGrid(pair_count=4), QuadratureSpec(substitution=substitution)
    for alpha, beta, a, b, _, _ in draws():
        Kv = 2.0 * least_K(alpha + beta, a)
        f = make_quadratic_family(alpha, beta, Kv, HarmonicDomain(a, b))
        for share in (0.0, 0.5, 1.0):
            cv = share * min(alpha, beta)
            left, right = sandwich_slacks(*(exact(v) for v in (alpha, beta, Kv, a, b, cv)))
            want = {"left": left, "right": right}
            for rep in run_theorems(f, SANDWICH_IDS, cv, grid, spec):
                err = abs(rep.verdict.slack - want[rep.theorem_id.rsplit("_", 1)[1]])
                assert err <= rep.error_budget + rep.verdict.tolerance_used, \
                    (rep.theorem_id, alpha, beta, a, b, cv)


# The quadratic family on the grid, exactly.  With u = 1/x and v = 1/y the
# harmonic combination is u_H = t v + (1-t) u, and each end of
# t F(y) + (1-t) F(x) misses F(u_H) by t(1-t)(u-v)^2 times its modulus
# (alpha below, beta above).  So the strong side's slack at a triple, its
# penalty c t(1-t)(u-v)^2 taken off, is (min(alpha, beta) - c) t(1-t)(u-v)^2,
# and so is that of the shifted map [(alpha-c) u^2, K - (beta-c) u^2] at
# modulus 0: every grid id reports it at its witness.
GRID_IDS = ("def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31")


@pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
def test_quadratic_grid_slacks_exact_at_the_witness(sampling):
    grid = ConvexityGrid(pair_count=256, sampling=sampling, seed=5)
    for alpha, beta, a, b, _, _ in draws():
        Kv = 2.0 * least_K(alpha + beta, a)
        f = make_quadratic_family(alpha, beta, Kv, HarmonicDomain(a, b))
        for share in (0.5, 1.0, 1.5):
            cv = share * min(alpha, beta)
            for rep in run_theorems(f, GRID_IDS, cv, grid, QuadratureSpec()):
                w = rep.inputs_echo["witness"]
                uw, vw, tw = 1 / Fraction(w["x"]), 1 / Fraction(w["y"]), Fraction(w["t"])
                want = (Fraction(min(alpha, beta)) - Fraction(cv)) * tw * (1 - tw) * (uw - vw) ** 2
                err = abs(Fraction(rep.verdict.slack) - want)
                assert err <= Fraction(rep.error_budget + rep.verdict.tolerance_used), \
                    (rep.theorem_id, alpha, beta, a, b, cv, w)
