"""Arithmetic and comparison of compact convex sets in R and R^2.

Two representations are supported:

* ``Interval`` -- a compact interval [lo, hi], the one-dimensional case.
* ``Disc`` -- a closed disc in R^2 given by its centre and radius, whose
  support function is h(e) = <c, e> + r.

Support functions add over Minkowski sums and scale with nonnegative
factors, so both kinds are closed under the constructors provided here
(balls, Minkowski sums, nonnegative scalings): endpoints, centres and
radii add and scale.  D(c1, r1) is inside D(c2, r2) exactly when
||c1 - c2|| <= r2 - r1, since the supremum of <c1 - c2, e> over unit e is
||c1 - c2|| (Rockafellar, Convex Analysis, section 13).

Every decision about a kind of set is stated here: ``KINDS`` maps each
kind to its channel count and its branch of the inclusion rule,
``widen`` widens a kind's rows by balls, and ``reach`` (which
``hausdorff`` and the quadrature budget read) is the largest
support-function magnitude of a set given by its channels.
``inclusion_block`` is the one inclusion rule: one key, slack plus
tolerance, per interval or disc, for whole blocks of rows at once, with
the slacks and tolerances it is made of.  A row holds when its key
is >= 0.  The grid checks reduce a block to its one smallest key and read
slack, tolerance and witness at that row from the block's arrays
(``InclusionBlock.at``), and so does ``includes``, its one-row case.
Its interval and disc branches, ``interval_block`` and ``disc_block``,
take sets held channel by channel as separate arrays, into buffers the
grid pass allocates once.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np


class RepresentationMismatchError(ValueError):
    """Operands use different set representations."""


class NegativeScaleError(ValueError):
    """A negative scalar was passed where a nonnegative one is required."""


class UnsupportedProductError(TypeError):
    """Set products are defined for intervals only."""


class NonFiniteSetError(ValueError):
    """A set would have an infinite or NaN endpoint, centre coordinate or
    radius, as when arithmetic on large finite sets overflows."""


@dataclass(frozen=True)
class Interval:
    """Compact interval [lo, hi] with finite lo <= hi."""

    kind = "interval"
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
class Disc:
    """Closed disc in R^2 with a finite centre and a finite radius >= 0."""

    kind = "disc"
    center: tuple
    radius: float

    def __post_init__(self) -> None:
        center = tuple(float(v) for v in self.center)
        radius = float(self.radius)
        if len(center) != 2:
            raise ValueError(f"disc centre must be a 2-vector, got {center}")
        if not all(math.isfinite(v) for v in (*center, radius)):
            raise NonFiniteSetError(f"disc centre and radius must be finite, got {center}, {radius}")
        if radius < 0.0:
            raise ValueError(f"disc radius must be nonnegative, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


ConvexSet = Union[Interval, Disc]


@dataclass(frozen=True)
class InclusionVerdict:
    """Outcome of an inclusion test A subset-of B.

    ``slack`` is the signed margin at the witness direction; the test holds
    iff its key slack + tolerance_used is >= 0 (for finite values, iff
    slack >= -tolerance_used).  The witness is "hi" or "lo" for intervals,
    and for discs the unit vector along c_A - c_B, or "radius" where the
    centres coincide.
    """

    holds: bool
    slack: float
    witness_direction: Union[str, list]
    tolerance_used: float


def _check_same_kind(a: ConvexSet, b: ConvexSet) -> None:
    if type(a) is type(b) in (Interval, Disc):
        return
    raise RepresentationMismatchError(
        f"mixed set representations: {type(a).__name__} vs {type(b).__name__}"
    )


def minkowski_sum(a: ConvexSet, b: ConvexSet) -> ConvexSet:
    """A (+) B.  Support functions of convex compacts add."""
    _check_same_kind(a, b)
    if isinstance(a, Interval):
        return Interval(a.lo + b.lo, a.hi + b.hi)
    return Disc((a.center[0] + b.center[0], a.center[1] + b.center[1]), a.radius + b.radius)


def scale(lam: float, a: ConvexSet) -> ConvexSet:
    """lam * A for lam >= 0 (support functions scale by lam)."""
    lam = float(lam)
    if lam < 0.0:
        raise NegativeScaleError(f"scale factor must be nonnegative, got {lam}")
    if isinstance(a, Interval):
        return Interval(lam * a.lo, lam * a.hi)
    if isinstance(a, Disc):
        return Disc((lam * a.center[0], lam * a.center[1]), lam * a.radius)
    raise TypeError(f"not a convex set: {a!r}")


def ball(radius: float, kind: str = "interval") -> ConvexSet:
    """Closed ball of the given radius centered at the origin."""
    radius = float(radius)
    if radius < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    if kind == "interval":
        return Interval(-radius, radius)
    if kind == "disc":
        return Disc((0.0, 0.0), radius)
    raise ValueError(f"unknown representation kind: {kind!r}")


def as_set(row, kind: str) -> ConvexSet:
    """The set whose channels are ``row``: the endpoints (lo, hi) of an
    interval, or a disc's centre coordinates and radius (c0, c1, r)."""
    if kind == "interval":
        return Interval(row[0], row[1])
    return Disc((row[0], row[1]), row[2])


def as_row(s: ConvexSet) -> np.ndarray:
    """The channels of ``s``; the inverse of ``as_set``."""
    if isinstance(s, Interval):
        return np.array([s.lo, s.hi])
    return np.array([*s.center, s.radius])


class InclusionBlock(NamedTuple):
    """The inclusion rule's kernel output for the rows of a block: lhs[i]
    subset-of rhs[i], for sets of kind ``kind``.

    ``keys`` holds slack plus tolerance, one per row, and ``slack`` and
    ``tols`` the slacks and tolerances they are made of.
    """

    kind: str
    lhs: np.ndarray
    rhs: np.ndarray
    keys: np.ndarray
    slack: np.ndarray
    tols: np.ndarray

    def at(self, r: int):
        """Slack, tolerance and witness at row r, read from the block's
        arrays.  An interval's witness is "hi" when its upper end is the
        tighter, else "lo": its two end margins are recomputed at that row
        alone.  A disc's is the unit vector along c_A - c_B, or "radius"
        where they are equal."""
        if self.kind == "interval":
            (lo, hi), (b_lo, b_hi) = self.lhs[r].tolist(), self.rhs[r].tolist()
            return self.slack[r], self.tols[r], "hi" if b_hi - hi <= lo - b_lo else "lo"
        (a0, a1, _), (b0, b1, _) = self.lhs[r].tolist(), self.rhs[r].tolist()
        d0, d1 = a0 - b0, a1 - b1
        norm = math.hypot(d0, d1)
        return self.slack[r], self.tols[r], [d0 / norm, d1 / norm] if norm else "radius"


def inclusion_block(lhs: np.ndarray, rhs: np.ndarray, kind: str, tol: float) -> InclusionBlock:
    """The inclusion rule's kernel over the rows i of two (n, channels)
    arrays, lhs[i] subset-of rhs[i].

    A key is slack plus tolerance, one per row.  For intervals it is the
    margin of the tighter end plus tol * (1 + the larger endpoint magnitude
    of B); for discs the margin (r_B - r_A) - ||c_B - c_A|| plus
    tol * (1 + r_B + ||c_B||), which bounds |h_B| in every direction.  A row
    holds when its key is >= 0.
    """
    return KINDS[kind].rule(lhs.T, rhs.T, tol, *(np.empty(lhs.shape[0]) for _ in range(3)))


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
    return InclusionBlock("interval", lhs.T, rhs.T, np.add(slack, tols, out=keys), slack, tols)


def disc_block(lhs: np.ndarray, rhs: np.ndarray, tol: float, slack: np.ndarray,
               tols: np.ndarray, keys: np.ndarray) -> InclusionBlock:
    """The disc branch of ``inclusion_block`` on discs held channel by
    channel (rows 0 and 1 their centres' coordinates, row 2 their radii),
    into the buffers ``slack``, ``tols`` and ``keys`` of one value per row:
    (r_B - r_A) - ||c_B - c_A|| and tol * (1 + r_B + ||c_B||), with no
    other temporary of their size.  Where 1 + r_B + ||c_B|| overflows, the
    tolerance is formed from its half, so it is finite wherever r_B, c_B and
    the tolerance itself are."""
    # a square that overflows is mended by _norm, a sum r_B + ||c_B|| below
    with np.errstate(over="ignore"):
        np.subtract(rhs[0], lhs[0], out=slack)
        slack *= slack
        np.subtract(rhs[1], lhs[1], out=keys)
        keys *= keys
        _norm(slack, keys, lambda i: (rhs[0][i] - lhs[0][i], rhs[1][i] - lhs[1][i]))
        np.square(rhs[0], out=tols)
        np.square(rhs[1], out=keys)
        _norm(tols, keys, lambda i: (rhs[0][i], rhs[1][i]))
        tols += rhs[2]
        over = None if tols.max(initial=0.0) < np.inf else np.flatnonzero(~(tols < np.inf))
        if over is not None:  # also at a NaN or an infinity, which the half keeps
            half = 0.5 + 0.5 * rhs[2][over] + np.hypot(0.5 * rhs[0][over], 0.5 * rhs[1][over])
            tols[over] = 0.0
    tols += 1.0
    tols *= tol
    if over is not None:
        tols[over] = 2.0 * (tol * half)
    np.subtract(rhs[2], lhs[2], out=keys)
    np.subtract(keys, slack, out=slack)
    return InclusionBlock("disc", lhs.T, rhs.T, np.add(slack, tols, out=keys), slack, tols)


def _norm(squares: np.ndarray, other: np.ndarray, coordinates) -> np.ndarray:
    """The lengths of 2-vectors whose squared coordinates ``squares`` and
    ``other`` hold, sqrt(x0^2 + x1^2), into ``squares``.  Where that square
    sum overflows (or is NaN), the length is np.hypot of the coordinates
    ``coordinates(where)`` returns at those elements, so it is finite
    wherever the vector is.  Where the squares underflow (a length below
    about 2^-484), the length is off by less than 2^-536, the root of their
    rounding."""
    squares += other
    np.sqrt(squares, out=squares)
    if not squares.max(initial=0.0) < np.inf:  # also at a NaN
        where = ~(squares < np.inf)
        squares[where] = np.hypot(*coordinates(where))
    return squares


class Kind(NamedTuple):
    """A kind's channel count and its branch of ``inclusion_block``."""

    channels: int
    rule: Callable[..., InclusionBlock]


KINDS = {"interval": Kind(2, interval_block), "disc": Kind(3, disc_block)}


def widen(rows: np.ndarray, r: np.ndarray, kind: str) -> np.ndarray:
    """Widen the (channels, n) ``rows`` of sets of kind ``kind``, one row
    per channel, in place by the balls of radius r[i] at column i, and
    return ``rows``: an interval's lower end moves down by r[i] and its
    upper end up, and a disc's radius row rises by r[i]."""
    if kind == "interval":
        rows[0] -= r
        rows[1] += r
    else:
        rows[2] += r
    return rows


def reach(row, kind: str) -> float:
    """The largest |h(e)| over unit directions e of the support function h
    of the set of kind ``kind`` whose channels are ``row``: the larger end
    magnitude, or for a disc ||c|| + |r|.  Of the difference of two sets'
    channels, it is their Hausdorff distance."""
    if kind == "disc":
        return math.hypot(row[0], row[1]) + abs(float(row[2]))
    return float(np.max(np.abs(row)))


def row_verdict(slack: float, tol_used: float, witness) -> InclusionVerdict:
    """The verdict of one row of ``InclusionBlock.at``:
    it holds when its key, slack + tolerance, is >= 0."""
    return InclusionVerdict(
        holds=bool(slack + tol_used >= 0.0),
        slack=float(slack),
        witness_direction=witness,
        tolerance_used=float(tol_used),
    )


def includes(a: ConvexSet, b: ConvexSet, tol: float = 0.0) -> InclusionVerdict:
    """Test A subset-of B: the one-row case of ``inclusion_block``, read at
    its row as the grid checks read their kept row."""
    _check_same_kind(a, b)
    return row_verdict(*inclusion_block(as_row(a)[None], as_row(b)[None], a.kind,
                                        float(tol)).at(0))


def interval_product(a: Interval, b: Interval) -> Interval:
    """Moore product of two intervals (min/max over endpoint products)."""
    if not isinstance(a, Interval) or not isinstance(b, Interval):
        raise UnsupportedProductError("set products are defined for intervals only")
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(cands), max(cands))


def hausdorff(a: ConvexSet, b: ConvexSet) -> float:
    """Hausdorff distance, the ``reach`` of the channels' difference; exact
    on this representation class."""
    _check_same_kind(a, b)
    return reach([p - q for p, q in zip(as_row(a).tolist(), as_row(b).tolist())], a.kind)
