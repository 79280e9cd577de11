"""Numerical Aumann integration of set-valued functions.

For compact convex values the Aumann integral acts per support channel:
each interval endpoint (or each support direction) is an ordinary scalar
integral.  Integrals therefore reduce to quadrature applied columnwise to
``eval_vector`` output.

Every result carries an error budget (estimated absolute error per
channel) which downstream inclusion checks absorb into their tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .set_core import ConvexSet, Interval, SupportSet, UnsupportedProductError
from .svf import (
    HarmonicDomain,
    SetValuedFn,
    polynomial_under_reciprocal,
    reciprocal_transform,
)

_EPS = np.finfo(float).eps

GAUSS_LEGENDRE = "gauss-legendre"
COMPOSITE_SIMPSON = "composite-simpson"


class QuadratureError(ValueError):
    """Invalid quadrature specification or integration bounds."""


class PositivityError(ValueError):
    """A product integral met a set that is not strictly positive."""


@dataclass(frozen=True)
class QuadratureSpec:
    rule: str = GAUSS_LEGENDRE
    order_or_panels: int = 16
    substitution: bool = True

    def __post_init__(self) -> None:
        if self.rule not in (GAUSS_LEGENDRE, COMPOSITE_SIMPSON):
            raise QuadratureError(f"unknown quadrature rule: {self.rule!r}")
        n = int(self.order_or_panels)
        if self.rule == GAUSS_LEGENDRE and n < 2:
            raise QuadratureError("gauss-legendre order must be >= 2")
        if self.rule == COMPOSITE_SIMPSON and (n < 2 or n % 2 != 0):
            raise QuadratureError("simpson panel count must be even and >= 2")
        object.__setattr__(self, "order_or_panels", n)


@dataclass(frozen=True)
class IntegralResult:
    value: ConvexSet
    error_budget: float
    nodes_used: int


def _gl_nodes(order: int, lo: float, hi: float):
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def _simpson_nodes(panels: int, lo: float, hi: float):
    xs = np.linspace(lo, hi, panels + 1)
    h = (hi - lo) / panels
    w = np.full(panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return xs, w * (h / 3.0)


def _integrate_columns(
    sample: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    q: QuadratureSpec,
    exact_polynomial: bool = False,
):
    """Columnwise quadrature of ``sample`` over [lo, hi].

    Returns (column integrals, error budget, nodes used).  Gauss-Legendre
    reports a machine-epsilon budget when the integrand is known to be a
    polynomial the rule integrates exactly; otherwise the budget is the
    difference against a doubled-order rule.  Composite Simpson reports
    the standard (b-a) h^4 |f''''| / 180 bound with the fourth derivative
    estimated from fourth differences of the sampled values.
    """
    if not (lo < hi):
        raise QuadratureError(f"need lo < hi, got [{lo}, {hi}]")
    if q.rule == GAUSS_LEGENDRE:
        xs, ws = _gl_nodes(q.order_or_panels, lo, hi)
        vals = sample(xs)
        cols = ws @ vals
        scale = float(np.max(np.abs(cols))) if cols.size else 0.0
        nodes = xs.size
        if exact_polynomial:
            budget = 16.0 * _EPS * (1.0 + scale)
        else:
            xs2, ws2 = _gl_nodes(2 * q.order_or_panels, lo, hi)
            cols2 = ws2 @ sample(xs2)
            nodes += xs2.size
            budget = float(np.max(np.abs(cols - cols2))) + 16.0 * _EPS * (1.0 + scale)
            cols = cols2
        return cols, budget, nodes
    # composite Simpson
    panels = q.order_or_panels
    xs, ws = _simpson_nodes(panels, lo, hi)
    vals = sample(xs)
    cols = ws @ vals
    if vals.shape[0] >= 5:
        d4 = np.diff(vals, 4, axis=0)
        budget = (hi - lo) * float(np.max(np.abs(d4))) / 180.0
    else:
        budget = 0.0
    scale = float(np.max(np.abs(cols))) if cols.size else 0.0
    budget += 16.0 * _EPS * (1.0 + scale)
    return cols, budget, xs.size


def _wrap(cols: np.ndarray, kind: str) -> ConvexSet:
    if kind == "interval":
        return Interval(cols[0], cols[1])
    return SupportSet(tuple(cols))


def aumann_integral(f: SetValuedFn, lo: float, hi: float, q: QuadratureSpec,
                    exact_polynomial: bool = False) -> IntegralResult:
    """Integral of F over [lo, hi] inside F's domain, per support channel."""
    dom = f.domain
    pad = 1e-12 * (1.0 + abs(dom.a) + abs(dom.b))
    if lo < dom.a - pad or hi > dom.b + pad:
        raise QuadratureError(
            f"[{lo}, {hi}] not inside the function domain [{dom.a}, {dom.b}]")
    cols, budget, nodes = _integrate_columns(f.eval_vector, lo, hi, q,
                                             exact_polynomial=exact_polynomial)
    return IntegralResult(_wrap(cols, f.kind), budget, nodes)


def weighted_harmonic_integral(f: SetValuedFn, dom: HarmonicDomain,
                               q: QuadratureSpec) -> IntegralResult:
    """integral_a^b F(x) / x^2 dx.

    With substitution on, integrates F(1/u) over [1/b, 1/a]; for the
    closed-form families this integrand is a polynomial of degree <= 2
    per channel and Gauss-Legendre of order >= 2 is exact.
    """
    a, b = dom.a, dom.b
    if q.substitution:
        g = reciprocal_transform(f)
        exact = q.rule == GAUSS_LEGENDRE and polynomial_under_reciprocal(f)
        cols, budget, nodes = _integrate_columns(
            g.eval_vector, 1.0 / b, 1.0 / a, q, exact_polynomial=exact)
    else:
        def sample(xs: np.ndarray) -> np.ndarray:
            return f.eval_vector(xs) / (xs ** 2)[:, None]

        cols, budget, nodes = _integrate_columns(sample, a, b, q)
    return IntegralResult(_wrap(cols, f.kind), budget, nodes)


def _product_integral(f: SetValuedFn, g: SetValuedFn, dom: HarmonicDomain,
                      q: QuadratureSpec, reflected: bool) -> IntegralResult:
    if f.kind != "interval" or g.kind != "interval":
        raise UnsupportedProductError("product integrals are interval-only")
    a, b = dom.a, dom.b

    def sample(ts: np.ndarray) -> np.ndarray:
        xf = a * b / (ts * a + (1.0 - ts) * b)
        xg = a * b / ((1.0 - ts) * a + ts * b) if reflected else xf
        vf = f.eval_vector(xf)
        vg = g.eval_vector(xg)
        if np.any(vf[:, 0] <= 0.0) or np.any(vg[:, 0] <= 0.0):
            raise PositivityError("product integral met a set not contained in (0, inf)")
        # both factors lie in (0, inf), so the Moore product is [lo lo', hi hi']
        return vf * vg

    cols, budget, nodes = _integrate_columns(sample, 0.0, 1.0, q)
    return IntegralResult(Interval(cols[0], cols[1]), budget, nodes)


def reflected_product_integral(f: SetValuedFn, g: SetValuedFn, dom: HarmonicDomain,
                               q: QuadratureSpec) -> IntegralResult:
    """(ab/(b-a)) integral_a^b F(x) G(theta(x)) / x^2 dx.

    Computed in the t-parametrization x = ab/(ta + (1-t)b) over [0, 1],
    with G evaluated at the reflected point ab/((1-t)a + tb); the Moore
    product is taken at each node.
    """
    return _product_integral(f, g, dom, q, reflected=True)


def plain_product_integral(f: SetValuedFn, g: SetValuedFn, dom: HarmonicDomain,
                           q: QuadratureSpec) -> IntegralResult:
    """(ab/(b-a)) integral_a^b F(x) G(x) / x^2 dx in the same t-parametrization."""
    return _product_integral(f, g, dom, q, reflected=False)


def bracket_product_integral(f: SetValuedFn, g: SetValuedFn, c: float,
                             dom: HarmonicDomain, q: QuadratureSpec,
                             reflected: bool = True) -> IntegralResult:
    """Integral over [0, 1] of the Moore product of the two modulus-c
    inclusion brackets

        t F(b) + (1-t) F(a) + c t(1-t) d^2 B   and
        t G(a) + (1-t) G(b) + c t(1-t) d^2 B   (endpoints swapped when not
                                                reflected),

    with d = (b-a)/(ab).  Each bracket is included in the corresponding
    function value, so by isotonicity of the Moore product this integral
    is included in the matching product integral; it is the sharpest left
    side the product theorems' proofs actually establish.
    """
    if f.kind != "interval" or g.kind != "interval":
        raise UnsupportedProductError("product integrals are interval-only")
    a, b = dom.a, dom.b
    delta2 = ((b - a) / (a * b)) ** 2
    fa, fb = f.eval_vector(np.array([a]))[0], f.eval_vector(np.array([b]))[0]
    ga, gb = g.eval_vector(np.array([a]))[0], g.eval_vector(np.array([b]))[0]
    g_first, g_second = (ga, gb) if reflected else (gb, ga)

    def sample(ts: np.ndarray) -> np.ndarray:
        pen = c * ts * (1.0 - ts) * delta2
        b1_lo = ts * fb[0] + (1.0 - ts) * fa[0] - pen
        b1_hi = ts * fb[1] + (1.0 - ts) * fa[1] + pen
        b2_lo = ts * g_first[0] + (1.0 - ts) * g_second[0] - pen
        b2_hi = ts * g_first[1] + (1.0 - ts) * g_second[1] + pen
        prods = np.stack([b1_lo * b2_lo, b1_lo * b2_hi, b1_hi * b2_lo, b1_hi * b2_hi])
        return np.column_stack([prods.min(axis=0), prods.max(axis=0)])

    cols, budget, nodes = _integrate_columns(sample, 0.0, 1.0, q)
    return IntegralResult(Interval(cols[0], cols[1]), budget, nodes)


def monte_carlo_oracle(f: SetValuedFn, dom: HarmonicDomain,
                       samples: int = 1_000_000, seed: int = 0,
                       weight: str = "harmonic") -> IntegralResult:
    """Jittered-midpoint Riemann sum; independent cross-check for quadrature.

    weight="harmonic" estimates integral F(x)/x^2 dx, weight="none" the
    unweighted integral.  Deterministic given the seed.
    """
    if f.kind != "interval":
        raise UnsupportedProductError("the Riemann oracle is interval-only")
    if weight not in ("harmonic", "none"):
        raise ValueError(f"unknown weight: {weight!r}")
    a, b = dom.a, dom.b
    n = int(samples)
    h = (b - a) / n
    rng = np.random.default_rng(seed)
    xs = a + (np.arange(n) + rng.uniform(size=n)) * h
    vals = f.eval_vector(xs)
    if weight == "harmonic":
        vals = vals / (xs ** 2)[:, None]
    cols = h * vals.sum(axis=0)
    # budget from the coarsened (every-other-sample) estimate
    coarse = 2.0 * h * vals[::2].sum(axis=0)
    budget = float(np.max(np.abs(cols - coarse))) + 16.0 * _EPS * (1.0 + float(np.max(np.abs(cols))))
    return IntegralResult(Interval(cols[0], cols[1]), budget, n)
