"""Checkers for the definitional properties and inclusion theorems.

Each checker returns a TheoremReport carrying the worst-case signed slack
over its sample grid, an InclusionVerdict at the witness sample, and the
quadrature error budget, always absorbed into the inclusion tolerance: the
rounding floor where the rule is exact on a polynomial integrand, else the
difference against the doubled rule, an estimate rather than a bound, so a
violation within a few budgets may still be quadrature error.  Every verdict
comes from the one inclusion rule in ``set_core``: ``includes`` for a pair
of sets, ``inclusion_block`` for the rows of a grid block.

Grid checks run as one streamed pass per family, over the (x, y, t) grid,
or over its t = 1/2 pairs alone when only def_mid and lemma_ii are asked
for; those two read the t = 1/2 rows of each block.  The stratified grid
is the product of n points with themselves, so F is evaluated once per
pass at those points (seeded-random pairs share none, so there once per
block) and once per midpoint.  The pass walks runs of x values outer and
y rows inner: a run's (1-t) F(x) slab serves all its blocks.  Consecutive
blocks of a run form a group of at most BLOCK_ELEMENTS triples and as many
values of t F(y); the group's geometry (xy, dist^2, the midpoints and the
penalty c t(1-t) dist^2) and its t F(y) are computed once, and a block
adds F(mid).  Every side the requested theorems need (the modulus-c
inclusion, the shift lemma's shifted map, Proposition 3.1's arithmetic
form) is computed from the same block and reduced to running witnesses;
the shifted map has modulus 0, so its rows take no penalty.  With p the
number of pairs whose (t values x channels) fit in BLOCK_ELEMENTS, at
least one, a run holds k = min(p, n) x values and a block p // k of its
y rows.  The budget keeps each float64 block array below the allocator's
mmap threshold (128 KiB in glibc): a larger array is a fresh map that
page-faults in on every block.  Memory is bounded by the block and the
values at the n points, not the grid.  Per-x and per-pair operands are
repeated out to whole arrays before they meet the block's, since numpy
runs a broadcast one short inner row at a time.

A block is reduced by one key array, slack + tolerance per support
direction or per interval row, and one flat argmin over it: the kept
element minimises (key, grid index), so verdicts do not depend on how
evaluation is batched or in what order blocks come (tested for block
sizes from 1 to larger than the grid).  Slack, tolerance and witness are
read at the kept element alone, from the arrays the keys were made of.
Proposition 3.1 counts a row as holding when its smallest key is >= 0,
from one kernel call per side and block.

The quadrature ids share one integral pass per family (``integral_reports``):
F once at a, at b and at 2ab/(a+b), one harmonic integral for both
Hermite-Hadamard sandwiches (the Nikodem pair is hh's in u = 1/x, so two
only with substitution off), one assembly of the left side that thm33 and
thm35 share, and only the product integrals the requested ids need.

``run_theorems`` runs any ids on a family with each pass at most once;
both passes check the modulus c first (``check_modulus``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .aumann import (
    bracket_product_integral,
    QuadratureSpec,
    aumann_integral,
    plain_product_integral,
    reflected_product_integral,
    weighted_harmonic_integral,
)
from .set_core import (
    ConvexSet,
    InclusionVerdict,
    Interval,
    as_set,
    ball,
    hausdorff,
    includes,
    inclusion_block,
    interval_product,
    minkowski_sum,
    row_verdict,
    rows_hold,
    scale,
)
from .svf import (FeasibilityError, HarmonicDomain, SetValuedFn, ball_shift,
                  reciprocal_transform, widen)

DEFAULT_TOL = 1e-9

THEOREM_IDS = (
    "def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31",
    "nikodem_left", "nikodem_right", "hh_left", "hh_right",
    "thm33", "cor34", "thm35", "cor36",
)
# the ids of the grid pass; every other id belongs to the integral pass
GRID_IDS = THEOREM_IDS[:5]


def check_modulus(ids, c: float) -> None:
    """Raise unless every theorem id is known and accepts modulus c: the
    shift lemma's ids need c > 0, every other id c >= 0 (NaN fails both)."""
    for tid in ids:
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id: {tid!r}")
        if tid in ("lemma_i", "lemma_ii") and not c > 0.0:
            raise FeasibilityError(f"{tid} needs c > 0, got c = {c}")
        if not c >= 0.0:
            raise FeasibilityError(f"{tid}: modulus c must be >= 0, got c = {c}")


def run_theorems(f: SetValuedFn, ids: Sequence[str], c: float, grid: ConvexityGrid,
                 quad: QuadratureSpec, tol: float = DEFAULT_TOL) -> list:
    """Reports of the theorem ids on one family, in the requested order
    (repeats included), from at most one grid pass (the GRID_IDS) and one
    integral pass with G = F (the rest), each given its ids in THEOREM_IDS
    order."""
    check_modulus(ids, c)
    grid_ids = [tid for tid in GRID_IDS if tid in ids]
    rest = [tid for tid in THEOREM_IDS[len(GRID_IDS):] if tid in ids]
    done = grid_reports(f, c, grid, grid_ids, tol) if grid_ids else {}
    if rest:
        done.update(integral_reports(f, f, c, f.domain, quad, rest, tol))
    return [done[tid] for tid in ids]


# Values (rows x channels) per array of a streamed grid block: 96 KiB of
# float64, below glibc's 128 KiB mmap threshold.
BLOCK_ELEMENTS = 12288

_DEFAULT_T = tuple(np.round(np.linspace(0.0, 1.0, 11), 12))


@dataclass(frozen=True)
class ConvexityGrid:
    """Sample grid discretizing 'for all x, y in D, t in [0,1]'."""

    pair_count: int = 1024
    t_values: tuple = _DEFAULT_T
    sampling: str = "deterministic-stratified"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pair_count", "seed"):
            value = getattr(self, name)
            if not float(value).is_integer():  # also refuses NaN and inf
                raise ValueError(f"{name} must be a whole number, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.pair_count < 1:
            raise ValueError(f"pair_count must be >= 1, got {self.pair_count}")
        ts = tuple(float(t) for t in self.t_values)
        if not all(0.0 <= t <= 1.0 for t in ts):  # also rejects NaN
            raise ValueError("t values must lie in [0, 1]")
        if list(ts) != sorted(ts):
            raise ValueError("t values must be sorted")
        for required in (0.0, 0.5, 1.0):
            if required not in ts:
                raise ValueError(f"t grid must contain {required}")
        if self.sampling not in ("deterministic-stratified", "seeded-random"):
            raise ValueError(f"unknown sampling mode: {self.sampling!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "t_values", ts)

    def points(self, lo: float, hi: float) -> np.ndarray:
        """The n distinct coordinates of the stratified grid on [lo, hi]:
        pair i*n + j is (x, y) = (points[j], points[i])."""
        if self.sampling != "deterministic-stratified":
            raise ValueError("seeded-random pairs share no grid points")
        return np.linspace(lo, hi, max(2, round(self.pair_count ** 0.5)))

    def pairs(self, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
        if self.sampling == "deterministic-stratified":
            pts = self.points(lo, hi)
            xg, yg = np.meshgrid(pts, pts)
            return xg.ravel(), yg.ravel()
        rng = np.random.default_rng(self.seed)
        xs = rng.uniform(lo, hi, self.pair_count)
        ys = rng.uniform(lo, hi, self.pair_count)
        return xs, ys

    def triples(self, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs, ys = self.pairs(lo, hi)
        ts = np.asarray(self.t_values)
        n, m = xs.size, ts.size
        return (np.repeat(xs, m), np.repeat(ys, m), np.tile(ts, n))


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    lhs: ConvexSet
    rhs: ConvexSet
    verdict: InclusionVerdict
    error_budget: float
    inputs_echo: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict.holds


def _walk(grid: ConvexityGrid, lo: float, hi: float, per_block: int, m: int, channels: int):
    """The blocks of a streamed pass over the pairs, x-runs outer and y rows
    inner, in groups of consecutive blocks that share their geometry.

    Yields ``(points, runs)``: the points at which the pass evaluates F, and
    for each x-run its slice of ``points`` and its groups.  A group is
    ``(rows, blocks)``: the index into ``points`` of its y values, shaped
    (R, 1) for R y rows of the run or (1, K) for K y values paired one to
    one with the run's x values, and its blocks.  A block is
    ``(part, first, stride)``: its slice of the group's y values (first
    axis), the grid index of its first pair and the grid index step from
    one row to the next.  On the stratified grid each run holds k =
    min(per_block, row length) x values and a block per_block // k y rows
    of its run: one for a run shorter than a row.  A group
    holds as many whole blocks as fit, at least one, with at most
    BLOCK_ELEMENTS triples and BLOCK_ELEMENTS values of t F(y), on a t grid
    of ``m`` values and F of ``channels`` channels.  Seeded-random pairs
    share no points, so each block is an x-run and a group of its own over
    its own points.
    """
    if grid.sampling == "seeded-random":
        px, py = grid.pairs(lo, hi)
        for first in range(0, px.size, per_block):
            k = min(per_block, px.size - first)
            pts = np.concatenate((px[first:first + k], py[first:first + k]))
            yield pts, [(slice(0, k), [((None, slice(k, 2 * k)), [(slice(None), first, 0)])])]
        return
    pts = grid.points(lo, hi)
    n = pts.size
    # (first x, x values, y rows per block) of each run of k x values
    k = min(per_block, n)
    shapes = [(j, min(k, n - j), per_block // k) for j in range(0, n, k)]

    def groups(j, k, step):
        # a y row of the run holds k m triples and m channels values of t F(y)
        size = step * max(1, BLOCK_ELEMENTS // (step * m * max(k, channels)))
        for i0 in range(0, n, size):
            i1 = min(i0 + size, n)
            yield ((slice(i0, i1), None),
                   [(slice(i - i0, i - i0 + step), i * n + j, n) for i in range(i0, i1, step)])

    yield pts, [(slice(j, j + k), groups(j, k, step)) for j, k, step in shapes]


def _spread(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """w(t) F over the t grid, shaped (..., t, channels): ``vals`` holds F
    values (any leading shape, then channels) and ``weights`` w(t) per t and
    channel.  The values are repeated over t first, so that the product runs
    over whole (t x channels) rows even for an interval's two channels."""
    return vals[..., None, :].repeat(weights.shape[0], axis=-2) * weights


def _across(a: np.ndarray, k: int) -> np.ndarray:
    """``a``, shaped (rows, 1 or k, ...), repeated to k along its second axis
    in a fresh array, so that an operation with a per-x operand runs over
    whole contiguous arrays rather than one short broadcast row at a time."""
    return a.repeat(k // a.shape[1], axis=1)


def _over_t(a: np.ndarray, m: int) -> np.ndarray:
    """One value per pair, shaped (y, x), repeated over the m values of t in
    a fresh (y, x, t) array."""
    return a[..., None].repeat(m, axis=-1)


def _lhs_rows(ty: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """The rows t F(y) + (1-t) F(x) of one block in grid order, in a fresh
    (triples, channels) array: ``ty`` holds the block's t F(y) and ``sx``
    the x-run's (1-t) F(x) slab."""
    lhs = _across(ty, sx.shape[0])
    lhs += sx
    return lhs.reshape(-1, lhs.shape[-1])


class _Worst:
    """Running reduction of one side of a grid check over its blocks: the
    element minimising (key, grid index), NaN first.

    The side reads the rows ``pick`` of each block on the t grid ``t`` (all
    of them by default) and takes one argmin over their keys, per direction
    for support sets.  The kept row is the first global argmin in grid
    order whatever order the blocks arrive in, so the verdict does not
    depend on batching.  Every row holds exactly when the kept row does, so
    the kept row's verdict is the side's verdict.
    """

    def __init__(self, kind: str, t: np.ndarray, pick: Optional[slice] = None):
        self.kind = kind
        self.t = t if pick is None else t[pick]
        self.pick = pick
        self.rank = None
        self.index = None
        self.row = None
        self.triples = 0

    def update(self, block, x, y, first, stride):
        """Fold in one block's rows, an ``inclusion_block`` of lhs[i] inside
        rhs[i], for the x values ``x`` and y values ``y`` of a block of
        ``_walk``.  Slack, tolerance and witness are read at the kept element
        alone."""
        keys, rows = block.keys, range(block.keys.shape[0])
        if self.pick is not None:
            keys, rows = keys[self.pick], rows[self.pick]
        flat = keys.reshape(-1)
        i = int(flat.argmin())
        self.triples += keys.shape[0]
        key = float(flat[i])
        rank = (0, 0.0) if key != key else (1, key)  # NaN first
        if self.row is not None and rank > self.rank:
            return
        r, j = divmod(i, keys.shape[1]) if keys.ndim > 1 else (i, None)
        pair, ti = divmod(r, self.t.size)
        yr, k = divmod(pair, x.size)
        index = (first + yr * stride + k) * self.t.size + ti
        if self.row is None or rank < self.rank or index < self.index:
            self.rank, self.index = rank, index
            row = rows[r]
            # y is one value per y row, shaped (R, 1), or one per x, (1, K)
            self.row = (*block.at(row, j), block.lhs[row].copy(), block.rhs[row].copy(),
                        x[k], y[yr, 0] if y.shape[1] == 1 else y[0, k], self.t[ti])

    def report(self, theorem_id: str, c: float, **echo) -> TheoremReport:
        slack, tol_used, witness, lhs, rhs, x, y, t = self.row
        return TheoremReport(
            theorem_id=theorem_id,
            lhs=as_set(lhs.tolist(), self.kind),  # Python floats build a set faster
            rhs=as_set(rhs.tolist(), self.kind),
            verdict=row_verdict(slack, tol_used, witness, self.kind),
            error_budget=0.0,
            inputs_echo={"c": c, "triples": self.triples, **echo,
                         "witness": {"x": float(x), "y": float(y), "t": float(t)}},
        )


def _fold(sides, lhs, rhs, kind, tol, where):
    """Fold one block's rows lhs[i] inside rhs[i] into the running witness
    of each of ``sides``; returns the rows' ``inclusion_block``."""
    block = inclusion_block(lhs, rhs, kind, tol)
    for side in sides:
        side.update(block, *where)
    return block


def grid_reports(f: SetValuedFn, c: float, grid: ConvexityGrid, ids,
                 tol: float = DEFAULT_TOL, block_pairs: Optional[int] = None) -> dict:
    """Reports of the grid theorem ids ``ids``, keyed by id, from one
    streamed pass.

    The pass covers the (x, y, t) grid when def_shc, lemma_i or prop_31 is
    requested, and otherwise the t = 1/2 pairs alone; def_mid and lemma_ii
    read the t = 1/2 rows of its blocks.  It walks the pairs in the blocks
    of ``_walk`` (``block_pairs`` pairs, by default as many as
    BLOCK_ELEMENTS allows; tests pass other sizes), evaluates F once per
    point of the walk and once per midpoint, and computes only the sides the
    ids need: the modulus-c side of F (which is also prop_31's harmonic
    side), the modulus-0 side of the shifted G(x) = F(x) + (c/x^2) B, and
    prop_31's arithmetic side, evaluated independently through
    G(u) = F(1/u).  Each x-run's (1-t) F(x) slab serves all its blocks, and
    each group's geometry and t F(y) all the blocks of the group.
    """
    check_modulus(ids, c)
    full = not {"def_shc", "lemma_i", "prop_31"}.isdisjoint(ids)
    arithmetic = "prop_31" in ids
    kind = f.kind
    t = np.array(grid.t_values if full else (0.5,))
    s = 1.0 - t
    ct = c * t * s
    channels = 2 if kind == "interval" else f.grid_size
    # the weights t and 1-t of _spread
    tw, sw = (w[:, None].repeat(channels, axis=1) for w in (t, s))
    if block_pairs is None:
        block_pairs = max(1, BLOCK_ELEMENTS // (t.size * channels))
    # running witnesses of the strong and shifted sides by strong id: every row
    # of a block for def_shc (lemma_i), the t = 1/2 rows for def_mid (lemma_ii)
    half = slice(grid.t_values.index(0.5), None, t.size) if full else None
    rows_of = {"def_shc": (None, "lemma_i", full),
               "def_mid": (half, "lemma_ii", "def_mid" in ids or "lemma_ii" in ids)}
    strong = {sid: _Worst(kind, t, pick) for sid, (pick, _, wanted) in rows_of.items() if wanted}
    shift = {sid: _Worst(kind, t, pick)
             for sid, (pick, lemma_id, _) in rows_of.items() if lemma_id in ids}
    arith_holds, arith_min, disagreements = True, np.inf, 0
    g = reciprocal_transform(f) if arithmetic else None
    for pts, runs in _walk(grid, f.domain.a, f.domain.b, block_pairs, t.size, channels):
        fp = f.eval_vector(pts)
        if shift:
            sp = ball_shift(fp, pts, c, kind)
        if arithmetic:
            up = 1.0 / pts
            gp = g.eval_vector(up)
        for run, groups in runs:
            # per run: t x, c t(1-t) per x, and the (1-t) F(x) slab of each side
            x = pts[run]
            tx = x[:, None] * t
            ctx = np.tile(ct, (x.size, 1))
            fx = _spread(fp[run], sw)
            if shift:
                sx = _spread(sp[run], sw)
            if arithmetic:
                u = up[run]
                su = u[:, None] * s
                gx = _spread(gp[run], sw)
            for rows, blocks in groups:
                # per group: the geometry of its triples, shaped (y, x, t),
                # and the t F(y) of each side
                y = pts[rows]
                xy = x * y
                dist2 = ((x - y) / xy) ** 2
                mids = _across(s * y[..., None], x.size)
                mids += tx
                np.divide(_over_t(xy, t.size), mids, out=mids)
                pen = _over_t(dist2, t.size)
                pen *= ctx
                fy = _spread(fp[rows], tw)
                if shift:
                    sy = _spread(sp[rows], tw)
                if arithmetic:
                    v = up[rows]
                    pen_u = _over_t((u - v) ** 2, t.size)
                    pen_u *= ctx
                    umids = _across(v[..., None] * t, x.size)
                    umids += su
                    gy = _spread(gp[rows], tw)
                for part, first, stride in blocks:
                    where = (x, y[part], first, stride)
                    bm = mids[part].ravel()
                    fm = f.eval_vector(bm)
                    lhs = _lhs_rows(fy[part], fx)
                    widen(lhs, pen[part].reshape(-1), kind, lhs)
                    keys = _fold(strong.values(), lhs, fm, kind, tol, where).keys
                    if shift:
                        # the shifted side has modulus 0: its rows take no penalty
                        _fold(shift.values(), _lhs_rows(sy[part], sx),
                              ball_shift(fm, bm, c, kind), kind, tol, where)
                    if arithmetic:
                        lhs = _lhs_rows(gy[part], gx)
                        widen(lhs, pen_u[part].reshape(-1), kind, lhs)
                        arith = inclusion_block(lhs, g.eval_vector(umids[part].ravel()),
                                                kind, tol)
                        va = rows_hold(arith.keys)
                        disagreements += int(np.count_nonzero(rows_hold(keys) != va))
                        arith_holds = arith_holds and bool(va.all())
                        arith_min = np.minimum(arith_min, np.min(arith.row_slack()))

    out = {sid: side.report(sid, c) for sid, side in strong.items()}
    for sid, side in shift.items():
        lemma_id = rows_of[sid][1]
        out[lemma_id] = shift_lemma_report(lemma_id, out[sid], side.report(sid, 0.0), c)
    if arithmetic:
        out["prop_31"] = strong["def_shc"].report(
            "prop_31", c,
            harmonic_holds=out["def_shc"].holds,
            arithmetic_holds=arith_holds,
            arithmetic_slack=float(arith_min),
            disagreements=disagreements,
            consistency_failure=disagreements > 0,
        )
    return {tid: out[tid] for tid in ids}


def check_strongly_harmonic_convex(f: SetValuedFn, c: float, grid: ConvexityGrid,
                                   tol: float = DEFAULT_TOL) -> TheoremReport:
    """t F(y) + (1-t) F(x) + c t(1-t) |(x-y)/(xy)|^2 B inside F(xy/(tx+(1-t)y))."""
    return grid_reports(f, c, grid, ("def_shc",), tol)["def_shc"]


def check_strongly_harmonic_midconvex(f: SetValuedFn, c: float, grid: ConvexityGrid,
                                      tol: float = DEFAULT_TOL) -> TheoremReport:
    """The t = 1/2 restriction with the c/4 penalty coefficient."""
    return grid_reports(f, c, grid, ("def_mid",), tol)["def_mid"]


def check_lemma_shift(f: SetValuedFn, c: float, grid: ConvexityGrid,
                      tol: float = DEFAULT_TOL, direction: str = "forward",
                      midconvex: bool = False) -> TheoremReport:
    """Equivalence between modulus-c convexity of F and plain convexity of
    the shifted G(x) = F(x) + (c/x^2) B.  Both directions are one pair of
    checks, of F at modulus c and of G at modulus 0, so ``direction`` only
    reaches the echo."""
    theorem_id = "lemma_ii" if midconvex else "lemma_i"
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    rep = grid_reports(f, c, grid, (theorem_id,), tol)[theorem_id]
    return dataclasses.replace(rep, inputs_echo={**rep.inputs_echo, "direction": direction})


def shift_lemma_report(theorem_id: str, strong: TheoremReport, shifted: TheoremReport,
                       c: float) -> TheoremReport:
    """Combine the modulus-c check of F and the plain check of the shifted
    map into one shift-lemma report, echoed as the forward direction."""
    # worst of the paired checks is the reported witness
    primary = strong if strong.verdict.slack <= shifted.verdict.slack else shifted
    return TheoremReport(
        theorem_id=theorem_id,
        lhs=primary.lhs,
        rhs=primary.rhs,
        verdict=dataclasses.replace(primary.verdict, holds=strong.holds and shifted.holds),
        error_budget=0.0,
        inputs_echo={
            "c": c,
            "direction": "forward",
            "strong_slack": strong.verdict.slack,
            "shifted_slack": shifted.verdict.slack,
            "verdicts_agree": strong.holds == shifted.holds,
            "witness": primary.inputs_echo["witness"],
        },
    )


def check_prop31(f: SetValuedFn, c: float, grid: ConvexityGrid,
                 tol: float = DEFAULT_TOL) -> TheoremReport:
    """Triple-by-triple agreement between the harmonic modulus-c check of F
    and the arithmetic modulus-c check of G(u) = F(1/u).

    A harmonic triple (x, y, t) maps to the arithmetic triple
    (1/x, 1/y, t); a verdict disagreement is a consistency failure of the
    implementation, flagged in the echo.
    """
    return grid_reports(f, c, grid, ("prop_31",), tol)["prop_31"]


def _budget_verdict(lhs: ConvexSet, rhs: ConvexSet, tol: float,
                    budget: float) -> InclusionVerdict:
    """Inclusion verdict with the quadrature budget absorbed into the tolerance."""
    v = includes(lhs, rhs, tol)
    tol_used = v.tolerance_used + budget
    return dataclasses.replace(v, holds=bool(v.slack >= -tol_used), tolerance_used=tol_used)


def _sandwich(name: str, f: SetValuedFn, c: float, ends: Tuple[ConvexSet, ...],
              mean: ConvexSet, budget: float, d2: float, tol: float,
              echo: dict) -> Tuple[TheoremReport, TheoremReport]:
    """Left and right reports of a Hermite-Hadamard sandwich around ``mean``,
    given F's values ``ends`` at a, at the midpoint and at b: the mean
    widened by (c/12) d2 inside F(mid), and (F(a)+F(b))/2 widened by
    (c/6) d2 inside the mean."""
    fa, fmid, fb = ends
    sides = (("left", minkowski_sum(mean, ball(c / 12.0 * d2, f.kind, f.grid_size)), fmid),
             ("right", minkowski_sum(scale(0.5, minkowski_sum(fa, fb)),
                                     ball(c / 6.0 * d2, f.kind, f.grid_size)), mean))
    return tuple(TheoremReport(f"{name}_{side}", lhs, rhs, _budget_verdict(lhs, rhs, tol, budget),
                               budget, dict(echo)) for side, lhs, rhs in sides)


def check_nikodem(g: SetValuedFn, c: float, q: QuadratureSpec,
                  tol: float = DEFAULT_TOL) -> Tuple[TheoremReport, TheoremReport]:
    """Arithmetic strongly convex baseline on G's own interval domain:

    left:  mean integral + (c/12)(b-a)^2 B  inside  G((a+b)/2)
    right: (G(a)+G(b))/2 + (c/6)(b-a)^2 B  inside  mean integral
    """
    check_modulus(("nikodem_left", "nikodem_right"), c)
    a, b = g.domain.a, g.domain.b
    integral = aumann_integral(g, a, b, q)
    return _sandwich("nikodem", g, c, (g.eval(a), g.eval(0.5 * (a + b)), g.eval(b)),
                     scale(1.0 / (b - a), integral.value), integral.error_budget / (b - a),
                     (b - a) ** 2, tol, {"c": c, "a": a, "b": b, "nodes": integral.nodes_used})


def check_hh(f: SetValuedFn, c: float, dom: HarmonicDomain, q: QuadratureSpec,
             tol: float = DEFAULT_TOL) -> Tuple[TheoremReport, TheoremReport]:
    """Harmonic Hermite-Hadamard inclusions:

    left:  (ab/(b-a)) int F/x^2 + (c/12) |(b-a)/(ab)|^2 B  inside  F(2ab/(a+b))
    right: (F(a)+F(b))/2 + (c/6) |(b-a)/(ab)|^2 B  inside  (ab/(b-a)) int F/x^2
    """
    return tuple(integral_reports(f, f, c, dom, q, ("hh_left", "hh_right"), tol).values())


def _product_lhs(fa: Interval, fb: Interval, ga: Interval, gb: Interval,
                 c: float, delta2: float) -> Tuple[Interval, Interval]:
    """Statement-form and proof-form assemblies of the product theorem LHS."""
    m = minkowski_sum(interval_product(fa, ga), interval_product(fb, gb))
    n = minkowski_sum(interval_product(fa, gb), interval_product(fb, ga))
    s = minkowski_sum(minkowski_sum(fa, fb), minkowski_sum(ga, gb))
    main = minkowski_sum(scale(1.0 / 6.0, m), scale(1.0 / 3.0, n))
    quartic = ball(c * c / 30.0 * delta2 * delta2, "interval")
    pen_ball = ball(c / 12.0 * delta2, "interval")
    stmt = minkowski_sum(minkowski_sum(main, interval_product(s, pen_ball)), quartic)
    # proof groups the penalty as c d^2 B [F(a)+G(b)] / 12 + c d^2 B [F(b)+G(a)] / 12
    proof = minkowski_sum(
        minkowski_sum(
            minkowski_sum(main, interval_product(minkowski_sum(fa, gb), pen_ball)),
            interval_product(minkowski_sum(fb, ga), pen_ball)),
        quartic)
    return stmt, proof


def integral_reports(f: SetValuedFn, g: SetValuedFn, c: float, dom: HarmonicDomain,
                     q: QuadratureSpec, ids, tol: float = DEFAULT_TOL) -> dict:
    """Reports of the quadrature ids ``ids`` (both sandwiches and the product
    ids), keyed by id, from one evaluation of F at a and b, and at 2ab/(a+b)
    for a sandwich, and of G at a and b.

    Under u = 1/x the arithmetic sandwich of F(1/u) is the harmonic one of
    F, so both pairs sit around (ab/(b-a)) int F/x^2: hh's integral runs with
    the spec ``q``, the Nikodem pair's in u.  With substitution on that is
    one integral and one sandwich, and nikodem_* are hh_* relabelled.

    thm33 and thm35 share the printed left side
    (1/6)M + (1/3)N + S (c/12) d^2 B + (c^2/30) d^4 B, assembled once with
    its proof form, against the integral of F(x) G(theta(x)) (thm33) or of
    F(x) G(x) (thm35), each run only for its own ids.  cor34 and cor36 are
    the G = F cases (``g`` is ``f``): thm33 relabelled, and thm35 with the
    printed corollary form echoed alongside.
    """
    check_modulus(ids, c)
    if g is not f and not {"cor34", "cor36"}.isdisjoint(ids):
        raise ValueError("cor34 and cor36 are the G = F cases")
    # the integrals come first: their check refuses a family that is not interval-kind
    integrals = {tid: (integrate(f, g, dom, q), reflected)
                 for tid, cor, integrate, reflected in (
                     ("thm33", "cor34", reflected_product_integral, True),
                     ("thm35", "cor36", plain_product_integral, False))
                 if tid in ids or cor in ids}
    # hh integrates as configured, the Nikodem pair in u = 1/x
    specs = {name: spec for name, spec in (("hh", q),
                                           ("nikodem", dataclasses.replace(q, substitution=True)))
             if f"{name}_left" in ids or f"{name}_right" in ids}
    a, b = dom.a, dom.b
    fa, fb = f.eval(a), f.eval(b)
    delta2 = ((b - a) / (a * b)) ** 2
    out = {}
    if specs:
        ends, factor, pairs = (fa, f.eval(dom.harmonic_midpoint), fb), a * b / (b - a), {}
        for name, spec in specs.items():
            if spec not in pairs:
                integral = weighted_harmonic_integral(f, dom, spec)
                pairs[spec] = _sandwich(name, f, c, ends, scale(factor, integral.value),
                                        factor * integral.error_budget, delta2, tol,
                                        {"c": c, "a": a, "b": b, "nodes": integral.nodes_used})
            for rep, side in zip(pairs[spec], ("_left", "_right")):
                out[name + side] = dataclasses.replace(rep, theorem_id=name + side)
    if integrals:
        ga, gb = (fa, fb) if g is f else (g.eval(a), g.eval(b))
        lhs_stmt, lhs_proof = _product_lhs(fa, fb, ga, gb, c, delta2)
        gap = hausdorff(lhs_stmt, lhs_proof)
    for tid, (integral, reflected) in integrals.items():
        budget = integral.error_budget
        proof_verdict = _budget_verdict(lhs_proof, integral.value, tol, budget)
        # Sharpest left side the proof establishes: the integrated bracket
        # product.  Moore products only subdistribute over Minkowski sums, so
        # the printed expansion can be strictly larger than this set.
        chain = bracket_product_integral(fa, fb, ga, gb, c, dom, q, reflected=reflected)
        chain_verdict = _budget_verdict(chain.value, integral.value, tol,
                                        budget + chain.error_budget)
        out[tid] = TheoremReport(
            tid, lhs_stmt, integral.value,
            _budget_verdict(lhs_stmt, integral.value, tol, budget), budget,
            {"c": c, "a": a, "b": b, "assembly_gap": gap,
             "proof_form_slack": proof_verdict.slack, "proof_form_holds": proof_verdict.holds,
             "chain_form_slack": chain_verdict.slack, "chain_form_holds": chain_verdict.holds,
             "nodes": integral.nodes_used})
    if "cor34" in ids:
        out["cor34"] = dataclasses.replace(out["thm33"], theorem_id="cor34")
    if "cor36" in ids:
        # the printed corollary groups its left side as
        # (F^2(a)+F^2(b)+F(a)+F(b))/3 + (c/6) d^2 B (F(a)+F(b)) + (c^2/30) d^4 B
        thm35 = out["thm35"]
        printed = minkowski_sum(
            minkowski_sum(
                scale(1.0 / 3.0, minkowski_sum(
                    minkowski_sum(interval_product(fa, fa), interval_product(fb, fb)),
                    minkowski_sum(fa, fb))),
                interval_product(minkowski_sum(fa, fb), ball(c / 6.0 * delta2, "interval"))),
            ball(c * c / 30.0 * delta2 * delta2, "interval"))
        pv = _budget_verdict(printed, thm35.rhs, tol, thm35.error_budget)
        out["cor36"] = dataclasses.replace(thm35, theorem_id="cor36", inputs_echo={
            **thm35.inputs_echo,
            "printed_lhs": (printed.lo, printed.hi),
            "printed_slack": pv.slack,
            "printed_holds": pv.holds})
    return {tid: out[tid] for tid in ids}


def check_thm33(f: SetValuedFn, g: SetValuedFn, c: float, dom: HarmonicDomain,
                q: QuadratureSpec, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Reflected-product inclusion:

    (1/6)M + (1/3)N + S (c/12) d^2 B + (c^2/30) d^4 B
        inside (ab/(b-a)) int F(x) G(theta(x)) / x^2 dx,
    with d = (b-a)/(ab), M/N/S the endpoint product and sum combinations.
    """
    return integral_reports(f, g, c, dom, q, ("thm33",), tol)["thm33"]


def check_thm35(f: SetValuedFn, g: SetValuedFn, c: float, dom: HarmonicDomain,
                q: QuadratureSpec, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Same LHS as the reflected variant against the plain product integral."""
    return integral_reports(f, g, c, dom, q, ("thm35",), tol)["thm35"]


def check_cor34(f: SetValuedFn, c: float, dom: HarmonicDomain, q: QuadratureSpec,
                tol: float = DEFAULT_TOL) -> TheoremReport:
    """The F = G specialization of the reflected-product theorem; by
    construction its numbers are identical to check_thm33(f, f, ...)."""
    return integral_reports(f, f, c, dom, q, ("cor34",), tol)["cor34"]


def check_cor36(f: SetValuedFn, c: float, dom: HarmonicDomain, q: QuadratureSpec,
                tol: float = DEFAULT_TOL) -> TheoremReport:
    """F = G specialization of the plain-product theorem.

    The printed corollary groups its left side differently from the F = G
    substitution into the general theorem.  Both assemblies are evaluated
    against the same integral; the substitution form is the primary
    verdict and the printed form is echoed alongside.
    """
    return integral_reports(f, f, c, dom, q, ("cor36",), tol)["cor36"]
