"""Independent oracles the tests check ``harmonichh`` against.

No run of the verifier calls these, so they live with the tests: the
harmonic combination and reflection on scalars, a grid of unit
directions, the inclusion rule row by row, the support margins of two
discs read off their sampled boundaries, and a jittered-midpoint Riemann
sum for the quadrature rules.  Test files import them with ``from oracles import ...``.
"""

import numpy as np

from harmonichh.aumann import IntegralResult
from harmonichh.set_core import Disc, Interval, UnsupportedProductError, inclusion_block
from harmonichh.svf import DomainError, HarmonicDomain, SetValuedFn

_EPS = np.finfo(float).eps


def harmonic_combination(x: float, y: float, t: float) -> float:
    """xy / (tx + (1-t)y); equals y at t=1 and x at t=0."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError("harmonic combinations need positive arguments")
    return x * y / (t * x + (1.0 - t) * y)


def reflect(dom: HarmonicDomain, x: float) -> float:
    """The harmonic reflection theta(x) = abx / ((a+b)x - ab), the involution
    of [a, b] that swaps the ends and fixes the harmonic midpoint."""
    if not dom.contains(x):
        raise DomainError(f"{x} outside [{dom.a}, {dom.b}]")
    a, b = dom.a, dom.b
    return a * b * x / ((a + b) * x - a * b)


def directions(count: int) -> np.ndarray:
    """``count`` unit directions at equal angles,
    u_i = (cos(2 pi i/M), sin(2 pi i/M)) for M = ``count``, shape (M, 2)."""
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def inclusion_rows(lhs: np.ndarray, rhs: np.ndarray, kind: str, tol: float):
    """The inclusion rule per row: slack, tolerance and witness of
    lhs[i] subset-of rhs[i] for each row i of two (n, channels) arrays.  An
    interval's witness is "hi" when its upper end is the tighter, else "lo";
    a disc's is read at each row by the block."""
    block = inclusion_block(lhs, rhs, kind, tol)
    if kind == "interval":
        hi_tighter = rhs[:, 1] - lhs[:, 1] <= lhs[:, 0] - rhs[:, 0]
        return block.slack, block.tols, np.where(hi_tighter, "hi", "lo").astype(object)
    witness = np.empty(lhs.shape[0], dtype=object)
    for i in range(witness.size):
        witness[i] = block.at(i)[2]
    return block.slack, block.tols, witness


def sampled_disc_margins(a: Disc, b: Disc, angles: int = 4096) -> np.ndarray:
    """h_B(e) - h_A(e) at ``angles`` unit directions e, each support value
    read off its disc's boundary sampled at the same angles: in direction e
    it is <p, e> at the boundary point p = c + r e.  An inclusion oracle for
    discs that knows nothing of the centre-radius rule: its least margin is
    at least the exact slack (r_B - r_A) - ||c_B - c_A||, and exceeds it by
    at most ||c_B - c_A|| (1 - cos(pi / angles)), up to rounding."""
    e = directions(angles)

    def support(d):
        return np.einsum("ij,ij->i", np.asarray(d.center) + d.radius * e, e)

    return support(b) - support(a)


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
