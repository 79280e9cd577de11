"""Arithmetic and comparison of compact convex sets in R and R^2.

Two representations are supported:

* ``Interval`` -- a compact interval [lo, hi], the one-dimensional case.
* ``SupportSet`` -- a convex compact subset of R^2 represented by its
  support values on a fixed grid of M directions
  u_i = (cos(2*pi*i/M), sin(2*pi*i/M)).

The support vector IS the object: inclusion and Hausdorff distance are
defined directly on support vectors.  All constructors provided here
(balls, Minkowski sums, nonnegative scalings) keep the sampled
support values exact for the represented set, so no polytope
reconstruction is ever needed.

``inclusion_block`` is the one inclusion rule: one key, slack plus
tolerance, per direction of a support set or per interval, for whole
blocks of rows at once, with the slacks and tolerances it is made of.  A row
holds when its smallest key is >= 0.  The grid checks reduce a block to
its one smallest key and read slack, tolerance and witness at that
element from the block's arrays (``InclusionBlock.at``), and so does
``includes``, its one-row case.  Its support branch is ``support_keys``, a
function of the slack and h_B alone, which the grid pass also calls on
support values it forms from coefficients; its interval branch is
``interval_block``, on ends held as separate arrays, into buffers the grid
pass allocates once.

``basis_product`` turns per-row coefficients into support values on a
fixed basis at one padded matrix shape, so that a row's values do not
depend on how many rows share its product; ``basis_floor`` bounds every
value of a row's product from below, from the row's coefficients alone.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

DEFAULT_GRID_SIZE = 64
# Values (rows x channels) per array of a streamed grid block or of one
# basis product: 96 KiB of float64, below glibc's 128 KiB mmap threshold.
BLOCK_ELEMENTS = 12288


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
        support = self.support
        if not hasattr(support, "__len__"):  # a one-pass iterable
            support = tuple(support)
        vals = np.asarray(support, dtype=float)
        if vals.ndim != 1:
            raise TypeError(f"support values must be a flat sequence, got shape {vals.shape}")
        if vals.size < 3:
            raise ValueError("support grid needs at least 3 directions")
        if not np.isfinite(vals).all():
            raise NonFiniteSetError("support values must be finite")
        object.__setattr__(self, "support", tuple(vals.tolist()))

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
    iff its key slack + tolerance_used is >= 0 (for finite values, iff
    slack >= -tolerance_used).
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


def as_set(row, kind: str) -> ConvexSet:
    """The set whose channels are ``row``: the endpoints (lo, hi) of an
    interval or the support values of a SupportSet."""
    if kind == "interval":
        return Interval(row[0], row[1])
    return SupportSet(row)


def as_row(s: ConvexSet) -> np.ndarray:
    """The channels of ``s``; the inverse of ``as_set``."""
    if isinstance(s, Interval):
        return np.array([s.lo, s.hi])
    return s.as_array()


class InclusionBlock(NamedTuple):
    """The inclusion rule's kernel output for the rows of a block: lhs[i]
    subset-of rhs[i] at tolerance ``tol``.

    ``keys`` holds slack plus tolerance, per direction (n, M) for support
    sets and per row (n,) for intervals, and ``slack`` the slack of the
    same shape.  ``tols`` holds an interval row's tolerance; a support
    value's tolerance is recomputed from its h_B alone, and ``tols`` is
    None.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    tol: float
    keys: np.ndarray
    slack: np.ndarray
    tols: Optional[np.ndarray] = None

    def at(self, r: int, j: Optional[int] = None):
        """Slack, tolerance and witness at row r (and direction j of a
        support row), read from the block's arrays.  An interval's witness
        is 0 ("hi") when its upper end is the tighter, else 1 ("lo"): its
        two end margins are recomputed at that row alone."""
        if self.tols is not None:
            (lo, hi), (b_lo, b_hi) = self.lhs[r].tolist(), self.rhs[r].tolist()
            return self.slack[r], self.tols[r], 0 if b_hi - hi <= lo - b_lo else 1
        return self.slack[r, j], support_tolerance(self.rhs[r, j], self.tol), j

    def row_slack(self) -> np.ndarray:
        """Each row's slack at its witness direction, the first direction of
        smallest key, a NaN key first."""
        if self.tols is not None:
            return self.slack
        j = self.keys.argmin(axis=1)
        return self.slack[np.arange(j.size), j]


def inclusion_block(lhs: np.ndarray, rhs: np.ndarray, kind: str, tol: float) -> InclusionBlock:
    """The inclusion rule's kernel over the rows i of two (n, channels)
    arrays, lhs[i] subset-of rhs[i].

    A key is slack plus tolerance.  For support sets it is kept per
    direction: the margin h_B - h_A plus the threshold tol * (1 + |h_B|).
    For intervals it is kept per row: the margin of the tighter end plus
    tol * (1 + the larger endpoint magnitude of B).  A row holds when its
    smallest key is >= 0, and its witness is the first direction of
    smallest key, a NaN key first.
    """
    if kind == "interval":
        return interval_block(lhs.T, rhs.T, tol, *(np.empty(lhs.shape[0]) for _ in range(3)))
    slack = rhs - lhs
    return InclusionBlock(lhs, rhs, tol, support_keys(slack, rhs, tol, np.empty_like(rhs)), slack)


def interval_block(lhs: np.ndarray, rhs: np.ndarray, tol: float, slack: np.ndarray,
                   tols: np.ndarray, keys: np.ndarray) -> InclusionBlock:
    """The interval branch of ``inclusion_block`` on intervals held end by
    end (lhs[0] and rhs[0] their lower ends, lhs[1] and rhs[1] their upper
    ends), into the buffers ``slack``, ``tols`` and ``keys`` of one value
    per row: the margin of the tighter end, min(rhs[1] - lhs[1],
    lhs[0] - rhs[0]), and tol * (1 + max(|rhs[0]|, |rhs[1]|)), each in its
    buffer with no other temporary of its size."""
    np.subtract(rhs[1], lhs[1], out=slack)
    np.subtract(lhs[0], rhs[0], out=keys)
    np.minimum(slack, keys, out=slack)
    np.abs(rhs[0], out=tols)
    np.abs(rhs[1], out=keys)
    np.maximum(tols, keys, out=tols)
    tols += 1.0
    tols *= tol
    return InclusionBlock(lhs.T, rhs.T, tol, np.add(slack, tols, out=keys), slack, tols)


def support_keys(slack: np.ndarray, hb: np.ndarray, tol: float, out: np.ndarray) -> np.ndarray:
    """The support branch of the inclusion rule: the keys
    tol * (1 + |h_B|) + slack of the support values ``hb`` of B and their
    slacks h_B - h_A, into ``out`` (which may be ``hb``), in place after
    one pass for |h_B|."""
    np.abs(hb, out=out)
    out += 1.0
    out *= tol
    out += slack
    return out


def support_tolerance(hb: float, tol: float) -> float:
    """The tolerance of a support key at one value h_B: tol * (1 + |h_B|)."""
    return (abs(float(hb)) + 1.0) * tol


def product_rows(width: int) -> int:
    """Rows of ``width`` values that make at most BLOCK_ELEMENTS values, at
    least one: of every ``basis_product`` and of every grid-pass block array."""
    return max(1, BLOCK_ELEMENTS // width)


def basis_product(coefs: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row i of ``out`` is coefs[i] @ basis, for the (n, k) coefficients
    ``coefs`` and a (k, channels) basis; returns ``out``, shaped (n, channels).

    Every product runs at the one shape (product_rows(channels), k) @
    (k, channels), a short last chunk padded with zero rows: BLAS rounds a
    row differently at other row counts (a one-row product is a
    matrix-vector call), so a row's bits would depend on how many rows
    share its call.  At the one shape they do not depend on the row's
    position either."""
    n, rows = coefs.shape[0], product_rows(basis.shape[1])
    whole = n - n % rows
    for i in range(0, whole, rows):
        np.matmul(coefs[i:i + rows], basis, out=out[i:i + rows])
    if whole < n:
        pad = np.zeros((rows, coefs.shape[1]))
        pad[:n - whole] = coefs[whole:]
        out[whole:] = (pad @ basis)[:n - whole]
    return out


def basis_floor(coefs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """A lower bound on every value ``basis_product`` gives for each row of
    the (n, k) coefficients ``coefs`` on the (k, channels) ``basis``, shaped
    (n,), read from the coefficients alone.

    With lo_j, hi_j and r_j the least value, the greatest value and the
    greatest magnitude of basis row j, a row s's floor is
    sum_j min(s_j lo_j, s_j hi_j) - 4 (k+1) (eps sum_j |s_j| r_j + eta),
    eps the machine epsilon and eta = 2^-1074, the least subnormal.  The
    first sum is at most the exact value in any direction, and a k-term
    dot product, in any order and with or without FMA, is within
    gamma_k sum_j |s_j| |B_je| of it, plus k eta / 2 under gradual underflow
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1); the margin also covers the floor's own roundings.  Where
    sum_j |s_j| r_j is NaN or >= 2^1000, where a product could overflow, the
    floor is -inf."""
    k = basis.shape[0]
    lo, hi = basis.min(axis=1), basis.max(axis=1)
    # coefficient by coefficient, along the rows: the grid pass holds them
    # end-major
    ends = coefs.T
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(-lo, hi) @ np.abs(ends)
        # sum_j min(s_j lo_j, s_j hi_j) = hi . s + (lo - hi) . max(s, 0); the
        # roundings of lo - hi and of the two dot products are inside the
        # margin too
        floor = hi @ ends
        floor += (lo - hi) @ np.maximum(ends, 0.0)
        floor -= reach * (4.0 * (k + 1) * np.finfo(float).eps)
        floor -= 4.0 * (k + 1) * 2.0 ** -1074
    if not reach.max() < 2.0 ** 1000:  # also at a NaN
        floor[~(reach < 2.0 ** 1000)] = -np.inf
    return floor


def rows_hold(keys: np.ndarray) -> np.ndarray:
    """Whether each row of the keys of ``inclusion_block`` (or of per-row
    keys, slack + tolerance) holds: its smallest key is >= 0, and no key is
    NaN."""
    return (keys if keys.ndim == 1 else keys.min(axis=1)) >= 0.0


def row_verdict(slack: float, tol_used: float, witness: int, kind: str) -> InclusionVerdict:
    """The verdict of one row of ``InclusionBlock.at``:
    it holds when its key, slack + tolerance, is >= 0."""
    return InclusionVerdict(
        holds=bool(slack + tol_used >= 0.0),
        slack=float(slack),
        witness_direction=("hi", "lo")[witness] if kind == "interval" else int(witness),
        tolerance_used=float(tol_used),
    )


def includes(a: ConvexSet, b: ConvexSet, tol: float = 0.0) -> InclusionVerdict:
    """Test A subset-of B: the one-row case of ``inclusion_block``, read at
    its row (and witness direction) as the grid checks read their kept
    element."""
    _check_same_kind(a, b)
    kind = "interval" if isinstance(a, Interval) else "support"
    block = inclusion_block(as_row(a)[None], as_row(b)[None], kind, float(tol))
    j = None if kind == "interval" else int(block.keys[0].argmin())
    return row_verdict(*block.at(0, j), kind)


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
