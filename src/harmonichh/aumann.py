"""Numerical Aumann integration of set-valued functions.

For compact convex values the Aumann integral acts per channel: each
interval endpoint, disc centre coordinate and radius is an ordinary
scalar integral.  Integrals therefore reduce to quadrature
applied columnwise to ``eval_vector`` output.

Every result carries an error budget, the rounding floor or the
difference against the doubled rule (an estimate, not a bound), measured
as the support function's largest change over all directions
(``set_core.reach``: for a disc its centre's shift plus its radius's),
which downstream inclusion checks absorb into their tolerance.  The
independent Riemann-sum cross-check of these rules lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .set_core import ConvexSet, Interval, UnsupportedProductError, as_set, reach
from .svf import HarmonicDomain, SetValuedFn, reciprocal_transform

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
        if not float(self.order_or_panels).is_integer():  # also refuses NaN and inf
            raise QuadratureError(f"order must be a whole number, got {self.order_or_panels!r}")
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


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_nodes(order: int, lo: float, hi: float):
    x, w = _leggauss(order)
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
    kind: str = "interval",
) -> IntegralResult:
    """Columnwise quadrature of ``sample`` over [lo, hi]: the integral, a set
    of kind ``kind``, its error budget and the nodes used.  Where the
    integrand is a polynomial the rule integrates exactly, the budget is the
    rounding floor 16 eps (1 + |I|), |I| the integral's ``reach``.
    Otherwise the same rule at twice the order or panel count gives the
    integral, and the budget adds the Hausdorff distance of Q_n and Q_2n:
    an estimate of the error, not a bound.
    """
    if not (lo < hi):
        raise QuadratureError(f"need lo < hi, got [{lo}, {hi}]")
    nodes_of = _gl_nodes if q.rule == GAUSS_LEGENDRE else _simpson_nodes
    xs, ws = nodes_of(q.order_or_panels, lo, hi)
    cols = ws @ sample(xs)
    floor = 16.0 * _EPS * (1.0 + reach(cols, kind))
    if exact_polynomial:
        return IntegralResult(as_set(cols, kind), floor, xs.size)
    xs2, ws2 = nodes_of(2 * q.order_or_panels, lo, hi)
    cols2 = ws2 @ sample(xs2)
    return IntegralResult(as_set(cols2, kind), reach(cols - cols2, kind) + floor,
                          xs.size + xs2.size)


def aumann_integral(f: SetValuedFn, lo: float, hi: float, q: QuadratureSpec) -> IntegralResult:
    """Integral of F over [lo, hi] inside F's domain, per channel."""
    dom = f.domain
    if not (dom.contains(lo) and dom.contains(hi)):
        raise QuadratureError(
            f"[{lo}, {hi}] not inside the function domain [{dom.a}, {dom.b}]")
    return _integrate_columns(f.eval_vector, lo, hi, q, kind=f.kind)


def weighted_harmonic_integral(f: SetValuedFn, dom: HarmonicDomain,
                               q: QuadratureSpec) -> IntegralResult:
    """integral_a^b F(x) / x^2 dx.

    With substitution on, integrates F(1/u) over [1/b, 1/a]; for the
    closed-form families this integrand is a polynomial of degree <= 2
    per channel, which both rules integrate exactly.
    """
    a, b = dom.a, dom.b
    if q.substitution:
        return _integrate_columns(reciprocal_transform(f).eval_vector, 1.0 / b, 1.0 / a, q,
                                  exact_polynomial=f.polynomial_in_u, kind=f.kind)

    def sample(xs: np.ndarray) -> np.ndarray:
        return f.eval_vector(xs) / (xs ** 2)[:, None]

    return _integrate_columns(sample, a, b, q, kind=f.kind)


def _product_integral(f: SetValuedFn, g: SetValuedFn, dom: HarmonicDomain,
                      q: QuadratureSpec, reflected: bool) -> IntegralResult:
    if f.kind != "interval" or g.kind != "interval":
        raise UnsupportedProductError("product integrals are interval-only")
    a, b = dom.a, dom.b

    def sample(ts: np.ndarray) -> np.ndarray:
        xf = a * b / (ts * a + (1.0 - ts) * b)
        xg = a * b / ((1.0 - ts) * a + ts * b) if reflected else xf
        vf = f.eval_vector(xf)
        vg = vf if g is f and not reflected else g.eval_vector(xg)
        if np.any(vf[:, 0] <= 0.0) or np.any(vg[:, 0] <= 0.0):
            raise PositivityError("product integral met a set not contained in (0, inf)")
        # both factors lie in (0, inf), so the Moore product is [lo lo', hi hi']
        return vf * vg

    return _integrate_columns(sample, 0.0, 1.0, q)


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


def bracket_product_integral(fa: Interval, fb: Interval, ga: Interval, gb: Interval,
                             c: float, dom: HarmonicDomain, q: QuadratureSpec,
                             reflected: bool = True) -> IntegralResult:
    """Integral over [0, 1] of the Moore product of the two modulus-c
    inclusion brackets

        t F(b) + (1-t) F(a) + c t(1-t) d^2 B   and
        t G(a) + (1-t) G(b) + c t(1-t) d^2 B   (endpoints swapped when not
                                                reflected),

    with d = (b-a)/(ab), given the endpoint values F(a), F(b), G(a) and
    G(b).  Each bracket is included in the corresponding function value,
    so by isotonicity of the Moore product this integral is included in
    the matching product integral; it is the sharpest left side the
    product theorems' proofs actually establish.
    """
    a, b = dom.a, dom.b
    delta2 = ((b - a) / (a * b)) ** 2
    g_first, g_second = (ga, gb) if reflected else (gb, ga)

    def sample(ts: np.ndarray) -> np.ndarray:
        pen = c * ts * (1.0 - ts) * delta2
        b1_lo = ts * fb.lo + (1.0 - ts) * fa.lo - pen
        b1_hi = ts * fb.hi + (1.0 - ts) * fa.hi + pen
        b2_lo = ts * g_first.lo + (1.0 - ts) * g_second.lo - pen
        b2_hi = ts * g_first.hi + (1.0 - ts) * g_second.hi + pen
        prods = np.stack([b1_lo * b2_lo, b1_lo * b2_hi, b1_hi * b2_lo, b1_hi * b2_hi])
        return np.column_stack([prods.min(axis=0), prods.max(axis=0)])

    return _integrate_columns(sample, 0.0, 1.0, q)

