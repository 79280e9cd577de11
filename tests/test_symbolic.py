"""Symbolic oracle for the rules of the two certified families.

Starting from each family's closed form in u = 1/x, sympy derives the
certified modulus, the least over the support channels of -phi''/2 (hi
and -lo for an interval), and the numerator ``top`` of the least K, a^2
times the K at which the family's width vanishes at u = 1/a.  Both are
checked against ``svf.family_rule``, ``svf.least_K`` and the factories'
certificates on seeded draws, with every float parameter taken exactly as
a rational.
"""

import math

import numpy as np
import pytest
import sympy as sp

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
        assert exact(f.certificate.claimed_modulus) == modulus
