"""Checks of the definitional properties and inclusion theorems.

Each theorem id's report is a TheoremReport carrying the worst-case signed
slack over its sample grid, an InclusionVerdict at the witness sample, and
the quadrature error budget, always absorbed into the inclusion tolerance: the
rounding floor where the rule is exact on a polynomial integrand, else the
difference against the doubled rule, an estimate rather than a bound, so a
violation within a few budgets may still be quadrature error.  Every verdict
comes from the one inclusion rule in ``set_core``: ``includes`` for a pair
of sets, and its kind's branch in ``set_core.KINDS`` for the rows of a grid
block held channel by channel.

Grid checks run as one streamed pass per family, over the (x, y, t) grid,
or over its t = 1/2 pairs alone when only def_mid and lemma_ii are asked
for; those two read the t = 1/2 rows of each block.  Every side the
requested theorems need (the modulus-c inclusion, the shift lemma's
shifted map, Proposition 3.1's arithmetic form) is computed from the same
block and reduced to running witnesses; the shifted map has modulus 0, so
its rows take no penalty.  Memory is bounded by the block and the values
at the grid's points, not the grid, under either sampling.

The pass works in u = 1/x: a block's harmonic midpoint is
u_H = t u_y + (1-t) u_x and its penalty c t(1-t) (u_x - u_y)^2, so no xy
product and no midpoint quotient is formed.  A side of a triple is a set
of rows, one per channel: an interval's two ends, or a disc's centre
coordinates and radius.  Support functions add over Minkowski sums and
scale with nonnegative factors (Rockafellar, Convex Analysis, section
13), and so do intervals' ends and discs' centres and radii, so every
side is combined alike: t F(y) + (1-t) F(x) from the rows at the grid's
points, with the penalty on the ball by ``set_core.widen`` (an
interval's ends or a disc's radius).  A family with ``rows_in_u`` (the
quadratic family's ends [alpha u^2, K - beta u^2], the disc's rows
[v0 u + w0, v1 u + w1, K - beta u^2]) takes its rows from u and u^2 at
the grid's points and at u_H alike, so both sides of a row at t = 0 or 1
are the same bits and its slack is exactly 0; the shifted map's radius
c u_H^2 reuses that u_H^2.  Any other family is evaluated at x on the grid
and at 1/u_H.

The stratified grid is the product of n points with themselves, so F is
evaluated once per pass at those points (seeded-random pairs share none,
so there once per block).  The pass walks runs of x values outer and y
rows inner: a run's (1-t) F(x) slab serves all its blocks.  A block's
triples are laid out (y row, t, x), so every operation runs along the
run's x values, and each channel of a block is one contiguous row of a
workspace allocated once per pass.  With p the number of pairs whose t
values fit in BLOCK_ELEMENTS per array, at least one (each channel is an
array of its own), a run holds k = min(p, n) x values and a block p // k
of its y rows; the t values, the walk's runs and the points' ramp are built
once per grid.  A block allocates nothing of its size (past glibc's 128 KiB
mmap threshold it would page-fault in on every block).  Proposition 3.1's
arithmetic side takes G(u) = F(1/u)'s values through ``eval_vector``, written
with 1/u_H into the workspace's right-side rows once the shifted side has
folded, so that it stays an independent check of the harmonic side.

The pass states nothing about a kind itself: ``set_core.KINDS`` gives
the kind's channel count and its branch of the rule, which a block goes
through in the workspace's rows.  One method, ``_Worst.update``, folds a
block into a side's running witness by its keys, slack + tolerance one
per row: the kept row minimises (key, grid index), so verdicts do not
depend on how evaluation is batched or in what order blocks come (tested
for block sizes from 1 to larger than the grid).  One argmin finds a
block's first least key; a tie before it in grid order lies in its y row
at a later t and a smaller x, so only those rows are searched.
Proposition 3.1 counts a row as holding when its key is >= 0: each
side's block goes through the rule once, and rows are compared only
where a side's least key is negative or NaN.

The quadrature ids share one integral pass per family (``integral_reports``):
F once at a, at b and at 2ab/(a+b), one harmonic integral for both
Hermite-Hadamard sandwiches (the Nikodem pair is hh's in u = 1/x, so two
only with substitution off), one assembly of the left side that thm33 and
thm35 share, and only the product integrals the requested ids need.
A G's arithmetic Nikodem pair is this pass's Nikodem pair of F(x) = G(1/x).

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
    plain_product_integral,
    reflected_product_integral,
    weighted_harmonic_integral,
)
# Not called here: perfbench/spans.py wraps this name in this module.
from .aumann import aumann_integral  # noqa: F401
from .set_core import (
    KINDS,
    ConvexSet,
    InclusionVerdict,
    Interval,
    as_set,
    ball,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    row_verdict,
    scale,
    widen,
)
from .svf import FeasibilityError, HarmonicDomain, SetValuedFn, reciprocal_transform

DEFAULT_TOL = 1e-9
# Values (rows x channels) per array of a streamed grid block: 96 KiB of
# float64, below glibc's 128 KiB mmap threshold.
BLOCK_ELEMENTS = 12288

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

    def _cached(self, key, build):
        # what depends on the grid alone, built once per grid
        cache = self.__dict__.setdefault("_cache", {})
        return cache[key] if key in cache else cache.setdefault(key, build())

    def _ramp(self) -> np.ndarray:
        n = max(2, round(self.pair_count ** 0.5))
        return self._cached("ramp", lambda: np.arange(float(n)))

    def points(self, lo: float, hi: float) -> np.ndarray:
        """The n distinct coordinates of the stratified grid on [lo, hi]:
        pair i*n + j is (x, y) = (points[j], points[i]).  Point i is
        i (hi - lo)/(n - 1) + lo and the last is hi, as in np.linspace."""
        if self.sampling != "deterministic-stratified":
            raise ValueError("seeded-random pairs share no grid points")
        ramp = self._ramp()
        pts = ramp * ((hi - lo) / (ramp.size - 1)) + lo
        pts[-1] = hi
        return pts

    def pairs(self, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
        if self.sampling == "deterministic-stratified":
            pts = self.points(lo, hi)
            xg, yg = np.meshgrid(pts, pts)
            return xg.ravel(), yg.ravel()
        ((_, xs, ys),) = self.random_pairs(lo, hi, self.pair_count)
        return xs, ys

    def random_pairs(self, lo: float, hi: float, per_block: int):
        """The seeded-random pairs as ``(first, xs, ys)``, runs of at most
        ``per_block`` from pair ``first`` on: x from the seed's generator, y
        from a copy advanced past the pair_count x draws (a uniform double
        takes one draw), so the bits do not depend on the run length."""
        x_rng = np.random.default_rng(self.seed)
        y_rng = np.random.Generator(np.random.PCG64(self.seed).advance(self.pair_count))
        for first in range(0, self.pair_count, per_block):
            k = min(per_block, self.pair_count - first)
            yield first, x_rng.uniform(lo, hi, k), y_rng.uniform(lo, hi, k)

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


def _walk(grid: ConvexityGrid, lo: float, hi: float, per_block: int):
    """The blocks of a streamed pass over the pairs, x-runs outer and y rows
    inner.

    Yields ``(points, runs)``: the points at which the pass evaluates F, and
    for each x-run its slice of ``points`` and its blocks.  A block is
    ``(rows, first, stride)``: the index into ``points`` of its y values,
    shaped (R, 1) for R y rows of the run or (1, K) for K y values paired
    one to one with the run's x values, the grid index of its first pair
    and the grid index step from one y row to the next.  On the stratified
    grid each run holds k = min(per_block, row length) x values and a block
    per_block // k y rows of its run: one for a run shorter than a row.
    Seeded-random pairs share no points, so each block is an x-run of its
    own over its own points.
    """
    if grid.sampling == "seeded-random":
        for first, px, py in grid.random_pairs(lo, hi, per_block):
            k = px.size
            yield np.concatenate((px, py)), [(slice(0, k), [((None, slice(k, 2 * k)), first, 0)])]
        return
    n = grid._ramp().size
    k = min(per_block, n)
    step = per_block // k
    yield grid.points(lo, hi), grid._cached(("runs", per_block), lambda: [
        (slice(j, j + k), [((slice(i, i + step), None), i * n + j, n) for i in range(0, n, step)])
        for j in range(0, n, k)])


def _rank(key: float) -> tuple:
    """A key's rank in the witness order: NaN first, then by value."""
    return (0, 0.0) if key != key else (1, float(key))


class _Worst:
    """Running reduction of one side of a grid check over its blocks: the
    element minimising (key, grid index), NaN first.

    The side reads the rows at the t index ``pick`` of each block on the t
    grid ``t`` (all of them by default), ``pairs`` per t, and takes the least
    of their keys, one per row.  The kept row is the first global argmin in
    grid order whatever order the blocks arrive in, so the verdict does not
    depend on batching.  Every row holds exactly when the kept row does, so
    the kept row's verdict is the side's verdict.
    """

    def __init__(self, kind: str, t: np.ndarray, pick: Optional[int] = None, pairs: int = 0):
        self.kind = kind
        self.t = t
        self.pick = pick
        self.rank = self.index = self.row = None
        self.triples = pairs * (t.size if pick is None else 1)

    def beaten(self, key: float, index: int) -> bool:
        """Whether an element of key ``key`` at grid index ``index`` cannot
        replace the kept row: it loses on its ``_rank``, or ties and loses
        on index."""
        return self.row is not None and (_rank(key), index) > (self.rank, self.index)

    def update(self, block, x, y, first, stride) -> None:
        """Fold in one block of ``_walk`` (x values ``x``, y values ``y``):
        an ``InclusionBlock`` of its triples in (y row, t, x) order, whose
        least key is kept as ``least``.  One argmin finds it in block order;
        a tie first in grid order lies in its y row at a later t and a
        smaller x.  Slack, tolerance and witness are read at the kept row."""
        m, k = self.t.size, x.size
        keys = block.keys.reshape(-1, m, k)
        if self.pick is not None:  # the rows of one t: ti is 0 below, then pick
            keys = keys[:, self.pick:self.pick + 1]
        yr, i = divmod(int(keys.argmin()), keys.shape[1] * k)
        ti, kx = divmod(i, k)
        self.least = least = keys[yr, ti, kx]
        if kx and ti + 1 < keys.shape[1]:
            later = keys[yr, ti + 1:, :kx].T  # (x, t): the first tie in grid order
            tied = later != later if least != least else later == least
            j = int(tied.argmax())
            if tied.flat[j]:
                kx, i = divmod(j, tied.shape[1])
                ti += 1 + i
        ti += self.pick or 0
        index = (first + yr * stride + kx) * m + ti
        if not self.beaten(least, index):
            self.rank, self.index = _rank(least), index
            row = (yr * m + ti) * k + kx
            # y is one value per y row, shaped (R, 1), or one per x, (1, K)
            self.row = (*block.at(row),
                        block.lhs[row].copy(), block.rhs[row].copy(), x[kx],
                        y[yr, 0] if y.shape[1] == 1 else y[0, kx], self.t[ti])

    def report(self, theorem_id: str, c: float, **echo) -> TheoremReport:
        slack, tol_used, witness, lhs, rhs, x, y, t = self.row
        return TheoremReport(
            theorem_id=theorem_id,
            lhs=as_set(lhs.tolist(), self.kind),  # Python floats build a set faster
            rhs=as_set(rhs.tolist(), self.kind),
            verdict=row_verdict(slack, tol_used, witness),
            error_budget=0.0,
            inputs_echo={"c": c, "triples": self.triples, **echo,
                         "witness": {"x": float(x), "y": float(y), "t": float(t)}},
        )


def grid_reports(f: SetValuedFn, c: float, grid: ConvexityGrid, ids,
                 tol: float = DEFAULT_TOL, block_pairs: Optional[int] = None) -> dict:
    """Reports of the grid theorem ids ``ids``, keyed by id, from one
    streamed pass.

    The pass covers the (x, y, t) grid when def_shc, lemma_i or prop_31 is
    requested, and otherwise the t = 1/2 pairs alone; def_mid and lemma_ii
    read the t = 1/2 rows of its blocks.  It computes only the sides the ids
    need: the modulus-c side of F (which is also prop_31's harmonic side),
    the modulus-0 side of the shifted G(x) = F(x) + (c/x^2) B, and prop_31's
    arithmetic side, evaluated independently through G(u) = F(1/u).
    ``block_pairs`` sets how many pairs a block holds (by default as many
    as the budget allows; tests pass other sizes).
    """
    check_modulus(ids, c)
    full = not {"def_shc", "lemma_i", "prop_31"}.isdisjoint(ids)
    kind = f.kind
    t = grid._cached(("t", full), lambda: np.array(grid.t_values if full else (0.5,)))
    pairs = grid.pair_count if grid.sampling == "seeded-random" else grid._ramp().size ** 2
    # running witnesses of the strong and shifted sides by strong id: every row
    # of a block for def_shc (lemma_i), the t = 1/2 rows for def_mid (lemma_ii)
    half = grid.t_values.index(0.5) if full else None
    rows_of = {"def_shc": (None, "lemma_i", full),
               "def_mid": (half, "lemma_ii", "def_mid" in ids or "lemma_ii" in ids)}
    strong = {sid: _Worst(kind, t, pick, pairs)
              for sid, (pick, _, wanted) in rows_of.items() if wanted}
    shift = {sid: _Worst(kind, t, pick, pairs)
             for sid, (pick, lemma_id, _) in rows_of.items() if lemma_id in ids}
    arith = _Arithmetic(f, strong["def_shc"]) if "prop_31" in ids else None
    # numpy's ufunc buffer, 8192 values by default: at 256 a block's broadcast
    # ops copy no operand into it, 2-3x faster at 512 x values a row
    old = np.setbufsize(256)
    try:
        _grid_pass(f, c, grid, t, tol, block_pairs, list(strong.values()),
                   list(shift.values()), arith)
    finally:
        np.setbufsize(old)

    out = {sid: side.report(sid, c) for sid, side in strong.items()}
    for sid, side in shift.items():
        lemma_id = rows_of[sid][1]
        out[lemma_id] = shift_lemma_report(lemma_id, out[sid], side.report(sid, 0.0), c)
    if arith is not None:
        out["prop_31"] = strong["def_shc"].report(
            "prop_31", c,
            harmonic_holds=out["def_shc"].holds,
            arithmetic_holds=arith.holds,
            arithmetic_slack=float(arith.slack),
            disagreements=arith.disagreements,
            consistency_failure=arith.disagreements > 0,
        )
    return {tid: out[tid] for tid in ids}


class _Arithmetic:
    """prop_31's arithmetic side over the blocks of a pass, always on the
    values of G(u) = F(1/u): whether every row
    t G(v) + (1-t) G(u) + c t(1-t) (u - v)^2 B inside G(t v + (1-t) u)
    holds, their smallest row slack, and how many rows' verdicts differ
    from those of the harmonic side ``harmonic``, the def_shc side.  A
    block whose least key is >= 0 holds on every row, so rows are compared
    only where a side's least key is negative or NaN."""

    def __init__(self, f: SetValuedFn, harmonic: _Worst):
        self.g = reciprocal_transform(f)
        self.side = harmonic
        self.holds, self.slack, self.disagreements, self.harmonic = True, np.inf, 0, True

    def harmonic_rows(self, keys):
        """Keep the harmonic side's verdicts of a block's rows, from its
        keys and folded least key: True where every row holds, else a copy."""
        self.harmonic = True if self.side.least >= 0.0 else keys >= 0.0

    def update(self, block):
        """Fold in the arithmetic side's ``InclusionBlock`` of the block
        whose harmonic verdicts ``harmonic_rows`` kept."""
        least = block.keys.min()
        if self.harmonic is not True or not least >= 0.0:
            self.disagreements += int(np.count_nonzero((block.keys >= 0.0) != self.harmonic))
        self.holds = self.holds and bool(least >= 0.0)
        self.slack = np.minimum(self.slack, block.slack.min())


def _grid_pass(f, c, grid, t, tol, block_pairs, strong, shift, arith):
    """The one grid pass, in u = 1/x by x-runs of ``_walk`` (laid out as
    the module docstring says): folds every block into the running
    witnesses ``strong`` and ``shift``, and into ``arith`` when prop_31 is
    requested.  A block forms u_H, the penalty and, for a family with
    ``rows_in_u`` or the shifted side, u_H^2 once.  Each side's rows are
    t F(y) + (1-t) F(x) and F(u_H), with the penalty (the strong side) or
    c u^2 (the shifted map, at every point) on the ball; only the inclusion
    step, ``fold``, branches on the family's kind."""
    kind, m = f.kind, t.size
    # per t, across the x values of a run, built once per grid
    tc, sc = grid._cached(("columns", m), lambda: (t[:, None], (1.0 - t)[:, None]))
    ct = c * tc * sc
    in_u = f.rows_in_u is not None
    # the channels go through the kind's branch of the rule in rows of the
    # workspace, each channel an array of its own
    channels, rule = KINDS[kind]
    if block_pairs is None:
        block_pairs = max(1, BLOCK_ELEMENTS // m)
    size = block_pairs * m
    # one allocation, with the rule's slack, tolerances and keys: glibc then
    # raises its mmap and trim thresholds to the whole workspace when it is
    # freed, so the next pass reuses the heap rather than faulting fresh pages
    # in after a trim
    work = np.empty((6 + 2 * channels, size))
    uh, uh2, pen = work[:3]
    lhs, rhs = work[3:3 + channels], work[3 + channels:3 + 2 * channels]
    step = work[3 + 2 * channels:]

    def combine(vals, slab, rows, shape, out):
        # t F(y) + (1-t) F(x) into ``out``: F's rows at the points ``vals``
        # and the run's slab
        n = shape[0] * shape[1] * shape[2]
        np.add(tc * vals[(slice(None),) + rows][:, :, None], slab[:, None],
               out=out[:, :n].reshape((out.shape[0],) + shape))

    def fold(sides, n, where):
        # the inclusion rule on the first n triples of lhs and rhs, folded
        # into ``sides``; returns the block
        block = rule(lhs[:, :n], rhs[:, :n], tol, *(a[:n] for a in step))
        for side in sides:
            side.update(block, *where)
        return block

    for pts, runs in _walk(grid, f.domain.a, f.domain.b, block_pairs):
        up = 1.0 / pts
        up2 = np.square(up)
        # each side's rows at the points
        fp = f.rows_in_u(up, up2, np.empty((channels, pts.size))) if in_u else f.eval_vector(pts).T
        if shift:
            sp = widen(fp.copy(), c * up2, kind)
        if arith:
            gp = arith.g.eval_vector(up).T
        for run, blocks in runs:
            x, ux = pts[run], up[run]
            su = sc * ux
            # (1-t) F(x) of each side, shaped (channels, t, x)
            fx = sc * fp[:, None, run]
            sx = sc * sp[:, None, run] if shift else None
            gx = sc * gp[:, None, run] if arith else None
            for rows, first, stride in blocks:
                uy = up[rows]
                shape = (uy.shape[0], m, x.size)
                n = shape[0] * shape[1] * shape[2]
                where = (x, pts[rows], first, stride)
                np.add(tc * uy[:, None], su, out=uh[:n].reshape(shape))
                d = ux - uy
                d *= d
                np.multiply(ct, d[:, None], out=pen[:n].reshape(shape))
                if in_u or shift:
                    np.square(uh[:n], out=uh2[:n])
                combine(fp, fx, rows, shape, lhs)
                widen(lhs[:, :n], pen[:n], kind)
                if in_u:
                    f.rows_in_u(uh[:n], uh2[:n], rhs[:, :n])
                else:
                    f.eval_vector(np.divide(1.0, uh[:n], out=rhs[-1, :n]), out=rhs[:, :n])
                block = fold(strong, n, where)
                if arith:
                    arith.harmonic_rows(block.keys)
                if shift:
                    # the shifted map has modulus 0: its rows take no penalty;
                    # its right side is F(u_H) widened by c u_H^2, formed in
                    # u_H^2's row so that the penalty row stays for prop_31
                    combine(sp, sx, rows, shape, lhs)
                    uh2[:n] *= c
                    widen(rhs[:, :n], uh2[:n], kind)
                    fold(shift, n, where)
                if arith:
                    combine(gp, gx, rows, shape, lhs)
                    widen(lhs[:, :n], pen[:n], kind)
                    arith.g.eval_vector(uh[:n], out=rhs[:, :n])
                    arith.update(fold((), n, where))


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
    sides = (("left", minkowski_sum(mean, ball(c / 12.0 * d2, f.kind)), fmid),
             ("right", minkowski_sum(scale(0.5, minkowski_sum(fa, fb)),
                                     ball(c / 6.0 * d2, f.kind)), mean))
    return tuple(TheoremReport(f"{name}_{side}", lhs, rhs, _budget_verdict(lhs, rhs, tol, budget),
                               budget, dict(echo)) for side, lhs, rhs in sides)


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
