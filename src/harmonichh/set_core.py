"""Arithmetic and comparison of compact convex sets in R and R^2.

Two representations are supported:

* ``Interval`` -- a compact interval [lo, hi], the one-dimensional case.
* ``SupportSet`` -- a convex compact subset of R^2 represented by its
  support values on a fixed grid of M directions
  u_i = (cos(2*pi*i/M), sin(2*pi*i/M)).

The support vector IS the object: inclusion and Hausdorff distance are
defined directly on support vectors.  All constructors provided here
(balls, points, Minkowski sums, nonnegative scalings) keep the sampled
support values exact for the represented set, so no polytope
reconstruction is ever needed.

``inclusion_rows`` is the one inclusion rule: ``includes`` is its one-row
case, and the grid checks apply it to whole blocks of rows.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

DEFAULT_GRID_SIZE = 64


class RepresentationMismatchError(ValueError):
    """Operands use different set representations (or grid sizes)."""


class NegativeScaleError(ValueError):
    """A negative scalar was passed where a nonnegative one is required."""


class UnsupportedProductError(TypeError):
    """Set products are defined for intervals only."""


class NonFiniteSetError(ValueError):
    """A set would have an infinite or NaN endpoint or support value, as
    when arithmetic on large finite sets overflows."""


@dataclass(frozen=True)
class Interval:
    """Compact interval [lo, hi] with finite lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteSetError(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"inverted interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class SupportSet:
    """Convex compact subset of R^2 given by support values on a direction grid."""

    support: tuple

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.support)
        if len(vals) < 3:
            raise ValueError("support grid needs at least 3 directions")
        if not all(math.isfinite(v) for v in vals):
            raise NonFiniteSetError("support values must be finite")
        object.__setattr__(self, "support", vals)

    @property
    def grid_size(self) -> int:
        return len(self.support)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.support, dtype=float)

    def __repr__(self) -> str:
        return f"SupportSet(M={self.grid_size})"


ConvexSet = Union[Interval, SupportSet]


def directions(grid_size: int) -> np.ndarray:
    """Unit direction grid used by SupportSet, shape (M, 2)."""
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    return np.column_stack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class InclusionVerdict:
    """Outcome of an inclusion test A subset-of B.

    ``slack`` is the signed margin at the witness direction; the test holds
    iff slack >= -tolerance_used.
    """

    holds: bool
    slack: float
    witness_direction: Union[int, str]
    tolerance_used: float


def _check_same_kind(a: ConvexSet, b: ConvexSet) -> None:
    if isinstance(a, Interval) and isinstance(b, Interval):
        return
    if isinstance(a, SupportSet) and isinstance(b, SupportSet):
        if a.grid_size != b.grid_size:
            raise RepresentationMismatchError(
                f"mixed support grids: {a.grid_size} vs {b.grid_size}"
            )
        return
    raise RepresentationMismatchError(
        f"mixed set representations: {type(a).__name__} vs {type(b).__name__}"
    )


def minkowski_sum(a: ConvexSet, b: ConvexSet) -> ConvexSet:
    """A (+) B.  Support functions of convex compacts add."""
    _check_same_kind(a, b)
    if isinstance(a, Interval):
        return Interval(a.lo + b.lo, a.hi + b.hi)
    return SupportSet(tuple(x + y for x, y in zip(a.support, b.support)))


def scale(lam: float, a: ConvexSet) -> ConvexSet:
    """lam * A for lam >= 0 (support values scale by lam)."""
    lam = float(lam)
    if lam < 0.0:
        raise NegativeScaleError(f"scale factor must be nonnegative, got {lam}")
    if isinstance(a, Interval):
        return Interval(lam * a.lo, lam * a.hi)
    if isinstance(a, SupportSet):
        return SupportSet(tuple(lam * v for v in a.support))
    raise TypeError(f"not a convex set: {a!r}")


def ball(radius: float, kind: str = "interval", grid_size: int = DEFAULT_GRID_SIZE) -> ConvexSet:
    """Closed ball of the given radius centered at the origin."""
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    if kind == "interval":
        return Interval(-radius, radius)
    if kind == "support":
        return SupportSet((radius,) * grid_size)
    raise ValueError(f"unknown representation kind: {kind!r}")


def point(value, kind: str = "interval", grid_size: int = DEFAULT_GRID_SIZE) -> ConvexSet:
    """Singleton set {value}.  For 'support', value is a 2-vector."""
    if kind == "interval":
        v = float(value)
        return Interval(v, v)
    if kind == "support":
        p = np.asarray(value, dtype=float)
        if p.shape != (2,):
            raise ValueError("support-kind point needs a 2-vector")
        return SupportSet(tuple(directions(grid_size) @ p))
    raise ValueError(f"unknown representation kind: {kind!r}")


def as_set(row, kind: str) -> ConvexSet:
    """The set whose channels are ``row``: the endpoints (lo, hi) of an
    interval or the support values of a SupportSet."""
    if kind == "interval":
        return Interval(row[0], row[1])
    return SupportSet(tuple(row))


def as_row(s: ConvexSet) -> np.ndarray:
    """The channels of ``s``; the inverse of ``as_set``."""
    if isinstance(s, Interval):
        return np.array([s.lo, s.hi])
    return s.as_array()


def inclusion_rows(lhs: np.ndarray, rhs: np.ndarray, kind: str, tol: float):
    """The inclusion rule: slack, tolerance and witness of lhs[i] subset-of
    rhs[i] for each row i of two (n, channels) arrays.

    The raw slack in a direction is h_B - h_A; the per-direction pass
    threshold is -tol * (1 + |h_B|) (for intervals, 1 + the larger endpoint
    magnitude of B).  The witness is the most binding direction, the first
    one on ties: an index into the support grid, or for intervals 0 ("hi")
    or 1 ("lo").
    """
    if kind == "interval":
        margin_hi = rhs[:, 1] - lhs[:, 1]
        margin_lo = lhs[:, 0] - rhs[:, 0]
        slacks = np.minimum(margin_hi, margin_lo)
        tols = tol * (1.0 + np.maximum(np.abs(rhs[:, 0]), np.abs(rhs[:, 1])))
        return slacks, tols, np.where(margin_hi <= margin_lo, 0, 1)
    margins = rhs - lhs
    dir_tols = np.abs(rhs)  # in place: tol * (1 + |rhs|) without temporaries
    dir_tols += 1.0
    dir_tols *= tol
    j = np.argmin(margins + dir_tols, axis=1)
    rows = np.arange(lhs.shape[0])
    return margins[rows, j], dir_tols[rows, j], j


def row_verdict(slack: float, tol_used: float, witness: int, kind: str) -> InclusionVerdict:
    """The verdict of one ``inclusion_rows`` row."""
    return InclusionVerdict(
        holds=bool(slack >= -tol_used),
        slack=float(slack),
        witness_direction=("hi", "lo")[witness] if kind == "interval" else int(witness),
        tolerance_used=float(tol_used),
    )


def includes(a: ConvexSet, b: ConvexSet, tol: float = 0.0) -> InclusionVerdict:
    """Test A subset-of B: the one-row case of ``inclusion_rows``."""
    _check_same_kind(a, b)
    kind = "interval" if isinstance(a, Interval) else "support"
    slacks, tols, witness = inclusion_rows(as_row(a)[None], as_row(b)[None], kind, float(tol))
    return row_verdict(slacks[0], tols[0], witness[0], kind)


def interval_product(a: Interval, b: Interval) -> Interval:
    """Moore product of two intervals (min/max over endpoint products)."""
    if not isinstance(a, Interval) or not isinstance(b, Interval):
        raise UnsupportedProductError("set products are defined for intervals only")
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(cands), max(cands))


def hausdorff(a: ConvexSet, b: ConvexSet) -> float:
    """Hausdorff distance; exact on this representation class."""
    _check_same_kind(a, b)
    if isinstance(a, Interval):
        return max(abs(a.lo - b.lo), abs(a.hi - b.hi))
    return float(np.max(np.abs(a.as_array() - b.as_array())))
