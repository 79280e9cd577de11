"""Checkers for the definitional properties and inclusion theorems.

Each checker returns a TheoremReport carrying the worst-case signed slack
over its sample grid, an InclusionVerdict at the witness sample, and the
quadrature error budget (always absorbed into the inclusion tolerance, so
a reported violation is never attributable to quadrature).  Every verdict
comes from the one inclusion rule in ``set_core``: ``includes`` for a pair
of sets, ``inclusion_rows`` for the rows of a grid block.

Grid checks run as one streamed pass per family and t grid.  The
stratified grid is the product of n points with themselves, so F is
evaluated once per pass at those points (seeded-random pairs share none,
so there once per block) and once per midpoint.  The pass walks runs of
x values outer and y rows inner: a run's (1-t) F(x) slab serves all its
blocks, and a block adds t F(y), the penalty and F(mid).  Every side the
requested theorems need (the modulus-c inclusion, the shift lemma's
shifted map, Proposition 3.1's arithmetic form) is computed from the same
block and reduced to a running witness.  With p the number of pairs whose
(t values x channels) fit in BLOCK_ELEMENTS, at least one, a run of p x
values shorter than a row is one block per y row, and otherwise a block
is p // n whole rows.  The budget
keeps each float64 block array below the allocator's mmap threshold
(128 KiB in glibc): a larger array is a fresh map that page-faults in on
every block.  Memory is bounded by the block and the values at the n
points, not the grid.  The reduction keeps the row minimising
(slack + tolerance, grid index), so verdicts do not depend on how
evaluation is batched or in what order blocks come (tested for block
sizes from 1 to larger than the grid).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .aumann import (
    IntegralResult,
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
    inclusion_rows,
    interval_product,
    minkowski_sum,
    row_verdict,
    scale,
)
from .svf import (HarmonicDomain, SetValuedFn, ball_shift, c_shift, c_unshift,
                  reciprocal_transform, widen)

THEOREM_IDS = (
    "def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31",
    "nikodem_left", "nikodem_right", "hh_left", "hh_right",
    "thm33", "cor34", "thm35", "cor36",
)

DEFAULT_TOL = 1e-9

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


def _walk(grid: ConvexityGrid, lo: float, hi: float, per_block: int):
    """The blocks of a streamed pass over the pairs, x-runs outer and y rows
    inner.

    Yields ``(points, runs)``: the points at which the pass evaluates F, and
    for each x-run its slice of ``points`` and its blocks.  A block is
    ``(rows, first, stride)``: the index into ``points`` of its y values,
    shaped (R, 1) for R y rows of the run or (1, K) for K y values paired
    one to one with the run's x values, the grid index of its first pair
    and the grid index step from one row to the next.  On the stratified
    grid a run of ``per_block`` x values shorter than a row is one block per
    y row; otherwise the run is the whole row and a block holds as many
    whole rows as fit.  Seeded-random pairs share no points, so each block
    is an x-run of its own over its own points.
    """
    if grid.sampling == "seeded-random":
        px, py = grid.pairs(lo, hi)
        for first in range(0, px.size, per_block):
            k = min(per_block, px.size - first)
            pts = np.concatenate((px[first:first + k], py[first:first + k]))
            yield pts, [(slice(0, k), [((None, slice(k, 2 * k)), first, 0)])]
        return
    pts = grid.points(lo, hi)
    n = pts.size
    if per_block < n:
        runs = ((slice(j, j + per_block),
                 [((slice(i, i + 1), None), i * n + j, n) for i in range(n)])
                for j in range(0, n, per_block))
    else:
        step = per_block // n
        runs = [(slice(0, n),
                 [((slice(i, i + step), None), i * n, n) for i in range(0, n, step)])]
    yield pts, runs


def _spread(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """w(t) F over the t grid, shaped (..., t, channels): ``vals`` holds F
    values (any leading shape, then channels) and ``weights`` w(t) per t and
    channel, or one w in all on a one-point t grid.  The values are repeated
    over t first, so that the product runs over whole (t x channels) rows
    even for an interval's two channels."""
    vals = vals[..., None, :]
    if weights.shape[0] > 1:
        vals = vals.repeat(weights.shape[0], axis=-2)
    return vals * weights


def _lhs_rows(ty: np.ndarray, sx: np.ndarray, dist2: np.ndarray, ct: np.ndarray,
              kind: str) -> np.ndarray:
    """The rows t F(y) + (1-t) F(x) + c t(1-t) dist2 B of one block, in grid
    order: ``ty`` holds the block's t F(y), ``sx`` the x-run's (1-t) F(x)
    slab, ``dist2`` one value per pair and ``ct`` c t(1-t) per t."""
    lhs = ty + sx
    return widen(lhs.reshape(-1, lhs.shape[-1]), (dist2[..., None] * ct).reshape(-1), kind)


class _Worst:
    """Running reduction of one side of a grid check over its blocks: the
    row minimising (slack + tolerance, grid index), NaN first.

    The kept row is the first global argmin in grid order whatever order the
    blocks arrive in, so the verdict does not depend on batching.  Every row
    holds exactly when the kept row does, so the kept row's verdict is the
    side's verdict.
    """

    def __init__(self, kind: str, t: np.ndarray):
        self.kind = kind
        self.t = t
        self.rank = None
        self.index = None
        self.row = None
        self.triples = 0

    def update(self, lhs, rhs, tol, x, y, first, stride):
        """Fold in one block's rows lhs[i] inside rhs[i], for the x values
        ``x`` and y values ``y`` of a block of ``_walk``; returns the rows'
        slacks and tolerances."""
        slacks, tols, witness = inclusion_rows(lhs, rhs, self.kind, tol)
        keys = slacks + tols
        i = int(keys.argmin())
        self.triples += keys.size
        key = float(keys[i])
        rank = (0, 0.0) if key != key else (1, key)  # NaN first
        if self.row is not None and rank > self.rank:
            return slacks, tols
        pair, ti = divmod(i, self.t.size)
        r, k = divmod(pair, x.size)
        index = (first + r * stride + k) * self.t.size + ti
        if self.row is None or rank < self.rank or index < self.index:
            self.rank, self.index = rank, index
            self.row = (slacks[i], tols[i], witness[i], lhs[i].copy(), rhs[i].copy(),
                        x[k], np.broadcast_to(y, (y.shape[0], x.size))[r, k], self.t[ti])
        return slacks, tols

    def report(self, theorem_id: str, c: float, **echo) -> TheoremReport:
        slack, tol_used, witness, lhs, rhs, x, y, t = self.row
        return TheoremReport(
            theorem_id=theorem_id,
            lhs=as_set(lhs, self.kind),
            rhs=as_set(rhs, self.kind),
            verdict=row_verdict(slack, tol_used, witness, self.kind),
            error_budget=0.0,
            inputs_echo={"c": c, "triples": self.triples, **echo,
                         "witness": {"x": float(x), "y": float(y), "t": float(t)}},
        )


def _grid_pass(f: SetValuedFn, c: float, grid: ConvexityGrid, tol: float, ids,
               midconvex: bool = False, direction: str = "forward",
               block_pairs: Optional[int] = None) -> dict:
    """Reports of the requested grid ids from one streamed pass.

    The pass covers the (x, y, t) grid (def_shc, lemma_i, prop_31) or, with
    ``midconvex``, the t = 1/2 pairs (def_mid, lemma_ii).  It walks the pairs
    in the blocks of ``_walk`` (``block_pairs`` pairs, by default as many as
    BLOCK_ELEMENTS allows; tests pass other sizes), evaluates F once per
    point of the walk and once per midpoint, and computes only the sides the
    ids need: the modulus-c side of F (which is also prop_31's harmonic
    side), the modulus-0 side of the shifted G(x) = F(x) + (c/x^2) B, and
    prop_31's arithmetic side, evaluated independently through G(u) = F(1/u).
    Each x-run's (1-t) F(x) slab serves all its blocks.
    """
    strong_id, lemma_id = ("def_mid", "lemma_ii") if midconvex else ("def_shc", "lemma_i")
    shifted = lemma_id in ids
    arithmetic = "prop_31" in ids
    kind = f.kind
    t = np.array([0.5]) if midconvex else np.asarray(grid.t_values)
    s = 1.0 - t
    ct, ct0 = c * t * s, 0.0 * t * s  # the shifted side has modulus 0
    channels = 2 if kind == "interval" else f.grid_size
    # the weights t and 1-t of _spread
    tw, sw = (np.repeat(w[:, None], channels if t.size > 1 else 1, axis=1) for w in (t, s))
    if block_pairs is None:
        block_pairs = max(1, BLOCK_ELEMENTS // (t.size * channels))
    strong, shift_side = _Worst(kind, t), _Worst(kind, t)
    arith_holds, arith_min, disagreements = True, np.inf, 0
    g = reciprocal_transform(f) if arithmetic else None
    for pts, runs in _walk(grid, f.domain.a, f.domain.b, block_pairs):
        fp = f.eval_vector(pts)
        if shifted:
            sp = ball_shift(fp, pts, c, kind)
        if arithmetic:
            up = 1.0 / pts
            gp = g.eval_vector(up)
        for run, blocks in runs:
            # per run: t x, and the (1-t) F(x) slab of each side
            x = pts[run]
            tx = x[:, None] * t
            fx = _spread(fp[run], sw)
            if shifted:
                sx = _spread(sp[run], sw)
            if arithmetic:
                u = up[run]
                su = u[:, None] * s
                gx = _spread(gp[run], sw)
            for rows, first, stride in blocks:
                y = pts[rows]
                xy = x * y
                dist2 = ((x - y) / xy) ** 2
                mids = (xy[..., None] / (tx + s * y[..., None])).ravel()
                fm = f.eval_vector(mids)
                lhs = _lhs_rows(_spread(fp[rows], tw), fx, dist2, ct, kind)
                sh, th = strong.update(lhs, fm, tol, x, y, first, stride)
                if shifted:
                    shift_side.update(_lhs_rows(_spread(sp[rows], tw), sx, dist2, ct0, kind),
                                      ball_shift(fm, mids, c, kind), tol, x, y, first, stride)
                if arithmetic:
                    v = up[rows]
                    lhs = _lhs_rows(_spread(gp[rows], tw), gx, (u - v) ** 2, ct, kind)
                    gm = g.eval_vector((v[..., None] * t + su).ravel())
                    sa, ta, _ = inclusion_rows(lhs, gm, kind, tol)
                    va = sa >= -ta
                    disagreements += int(np.count_nonzero((sh >= -th) != va))
                    arith_holds = arith_holds and bool(np.all(va))
                    arith_min = np.minimum(arith_min, np.min(sa))

    out = {}
    harmonic = strong.report(strong_id, c)
    if strong_id in ids or shifted:
        out[strong_id] = harmonic
    if shifted:
        out[lemma_id] = shift_lemma_report(
            lemma_id, harmonic, shift_side.report(strong_id, 0.0), c, direction)
    if arithmetic:
        out["prop_31"] = strong.report(
            "prop_31", c,
            harmonic_holds=harmonic.holds,
            arithmetic_holds=arith_holds,
            arithmetic_slack=float(arith_min),
            disagreements=disagreements,
            consistency_failure=disagreements > 0,
        )
    return out


def grid_reports(f: SetValuedFn, c: float, grid: ConvexityGrid, ids,
                 tol: float = DEFAULT_TOL) -> dict:
    """Reports of the grid theorem ids among ``ids``, keyed by id: one pass
    over the (x, y, t) grid serves def_shc, lemma_i and prop_31, and one over
    the t = 1/2 pairs serves def_mid and lemma_ii."""
    out = {}
    for midconvex, pass_ids in ((False, ("def_shc", "lemma_i", "prop_31")),
                                (True, ("def_mid", "lemma_ii"))):
        wanted = [tid for tid in pass_ids if tid in ids]
        if wanted:
            out.update(_grid_pass(f, c, grid, tol, wanted, midconvex))
    return out


def check_strongly_harmonic_convex(f: SetValuedFn, c: float, grid: ConvexityGrid,
                                   tol: float = DEFAULT_TOL) -> TheoremReport:
    """t F(y) + (1-t) F(x) + c t(1-t) |(x-y)/(xy)|^2 B inside F(xy/(tx+(1-t)y))."""
    if not (c >= 0.0):  # also rejects NaN
        raise ValueError("modulus c must be >= 0")
    return _grid_pass(f, c, grid, tol, ("def_shc",))["def_shc"]


def check_strongly_harmonic_midconvex(f: SetValuedFn, c: float, grid: ConvexityGrid,
                                      tol: float = DEFAULT_TOL) -> TheoremReport:
    """The t = 1/2 restriction with the c/4 penalty coefficient."""
    if not (c >= 0.0):  # also rejects NaN
        raise ValueError("modulus c must be >= 0")
    return _grid_pass(f, c, grid, tol, ("def_mid",), midconvex=True)["def_mid"]


def check_lemma_shift(f: SetValuedFn, c: float, grid: ConvexityGrid,
                      tol: float = DEFAULT_TOL, direction: str = "forward",
                      midconvex: bool = False) -> TheoremReport:
    """Equivalence between modulus-c convexity of F and plain convexity of
    the shifted G(x) = F(x) + (c/x^2) B, in either direction."""
    if not (c > 0.0):  # also rejects NaN
        raise ValueError("the shift lemma needs c > 0")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    theorem_id = "lemma_ii" if midconvex else "lemma_i"
    # backward: recover F from the shifted map and check it at modulus c
    base = f if direction == "forward" else c_unshift(c_shift(f, c), c)
    return _grid_pass(base, c, grid, tol, (theorem_id,), midconvex, direction)[theorem_id]


def shift_lemma_report(theorem_id: str, strong: TheoremReport, shifted: TheoremReport,
                       c: float, direction: str) -> TheoremReport:
    """Combine the modulus-c check of F and the plain check of the shifted
    map into one shift-lemma report."""
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
            "direction": direction,
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
    if not (c >= 0.0):  # also rejects NaN
        raise ValueError("modulus c must be >= 0")
    return _grid_pass(f, c, grid, tol, ("prop_31",))["prop_31"]


def _budget_verdict(lhs: ConvexSet, rhs: ConvexSet, tol: float,
                    budget: float) -> InclusionVerdict:
    """Inclusion verdict with the quadrature budget absorbed into the tolerance."""
    v = includes(lhs, rhs, tol)
    tol_used = v.tolerance_used + budget
    return dataclasses.replace(v, holds=bool(v.slack >= -tol_used), tolerance_used=tol_used)


def _sandwich(name: str, f: SetValuedFn, c: float, a: float, b: float, mid: float,
              mean: ConvexSet, budget: float, d2: float, tol: float,
              nodes: int) -> Tuple[TheoremReport, TheoremReport]:
    """Left and right reports of a Hermite-Hadamard sandwich around ``mean``."""
    echo = {"c": c, "a": a, "b": b, "nodes": nodes}

    lhs_l = minkowski_sum(mean, ball(c / 12.0 * d2, f.kind, f.grid_size))
    rhs_l = f.eval(mid)
    left = TheoremReport(f"{name}_left", lhs_l, rhs_l,
                         _budget_verdict(lhs_l, rhs_l, tol, budget), budget, dict(echo))

    lhs_r = minkowski_sum(scale(0.5, minkowski_sum(f.eval(a), f.eval(b))),
                          ball(c / 6.0 * d2, f.kind, f.grid_size))
    right = TheoremReport(f"{name}_right", lhs_r, mean,
                          _budget_verdict(lhs_r, mean, tol, budget), budget, dict(echo))
    return left, right


def check_nikodem(g: SetValuedFn, c: float, q: QuadratureSpec,
                  tol: float = DEFAULT_TOL) -> Tuple[TheoremReport, TheoremReport]:
    """Arithmetic strongly convex baseline on G's own interval domain:

    left:  mean integral + (c/12)(b-a)^2 B  inside  G((a+b)/2)
    right: (G(a)+G(b))/2 + (c/6)(b-a)^2 B  inside  mean integral
    """
    a, b = g.domain.a, g.domain.b
    integral = aumann_integral(g, a, b, q)
    return _sandwich("nikodem", g, c, a, b, 0.5 * (a + b),
                     scale(1.0 / (b - a), integral.value), integral.error_budget / (b - a),
                     (b - a) ** 2, tol, integral.nodes_used)


def check_hh(f: SetValuedFn, c: float, dom: HarmonicDomain, q: QuadratureSpec,
             tol: float = DEFAULT_TOL) -> Tuple[TheoremReport, TheoremReport]:
    """Harmonic Hermite-Hadamard inclusions:

    left:  (ab/(b-a)) int F/x^2 + (c/12) |(b-a)/(ab)|^2 B  inside  F(2ab/(a+b))
    right: (F(a)+F(b))/2 + (c/6) |(b-a)/(ab)|^2 B  inside  (ab/(b-a)) int F/x^2
    """
    a, b = dom.a, dom.b
    integral = weighted_harmonic_integral(f, dom, q)
    factor = a * b / (b - a)
    return _sandwich("hh", f, c, a, b, dom.harmonic_midpoint,
                     scale(factor, integral.value), factor * integral.error_budget,
                     ((b - a) / (a * b)) ** 2, tol, integral.nodes_used)


def _product_lhs(fa: Interval, fb: Interval, ga: Interval, gb: Interval,
                 c: float, delta2: float) -> Tuple[Interval, Interval]:
    """Statement-form and proof-form assemblies of the product theorem LHS."""
    m = minkowski_sum(interval_product(fa, ga), interval_product(fb, gb))
    n = minkowski_sum(interval_product(fa, gb), interval_product(fb, ga))
    s = minkowski_sum(minkowski_sum(fa, fb), minkowski_sum(ga, gb))
    main = minkowski_sum(scale(1.0 / 6.0, m), scale(1.0 / 3.0, n))
    quartic = ball(c * c / 30.0 * delta2 * delta2, "interval")
    stmt = minkowski_sum(
        minkowski_sum(main, interval_product(s, ball(c / 12.0 * delta2, "interval"))),
        quartic)
    # proof groups the penalty as c d^2 B [F(a)+G(b)] / 12 + c d^2 B [F(b)+G(a)] / 12
    pen_ball = ball(c / 12.0 * delta2, "interval")
    proof = minkowski_sum(
        minkowski_sum(
            minkowski_sum(main, interval_product(minkowski_sum(fa, gb), pen_ball)),
            interval_product(minkowski_sum(fb, ga), pen_ball)),
        quartic)
    return stmt, proof


def _product_report(theorem_id: str, f: SetValuedFn, g: SetValuedFn, c: float,
                    dom: HarmonicDomain, q: QuadratureSpec, tol: float,
                    integral: IntegralResult, reflected: bool) -> TheoremReport:
    a, b = dom.a, dom.b
    fa, fb = f.eval(a), f.eval(b)
    ga, gb = g.eval(a), g.eval(b)
    delta2 = ((b - a) / (a * b)) ** 2
    lhs_stmt, lhs_proof = _product_lhs(fa, fb, ga, gb, c, delta2)
    verdict = _budget_verdict(lhs_stmt, integral.value, tol, integral.error_budget)
    proof_verdict = _budget_verdict(lhs_proof, integral.value, tol, integral.error_budget)
    # Sharpest left side the proof establishes: the integrated bracket product.
    # Moore products only subdistribute over Minkowski sums, so the printed
    # expansion can be strictly larger than this set.
    chain = bracket_product_integral(f, g, c, dom, q, reflected=reflected)
    chain_budget = integral.error_budget + chain.error_budget
    chain_verdict = _budget_verdict(chain.value, integral.value, tol, chain_budget)
    return TheoremReport(
        theorem_id=theorem_id,
        lhs=lhs_stmt,
        rhs=integral.value,
        verdict=verdict,
        error_budget=integral.error_budget,
        inputs_echo={
            "c": c, "a": a, "b": b,
            "assembly_gap": hausdorff(lhs_stmt, lhs_proof),
            "proof_form_slack": proof_verdict.slack,
            "proof_form_holds": proof_verdict.holds,
            "chain_form_slack": chain_verdict.slack,
            "chain_form_holds": chain_verdict.holds,
            "nodes": integral.nodes_used,
        },
    )


def check_thm33(f: SetValuedFn, g: SetValuedFn, c: float, dom: HarmonicDomain,
                q: QuadratureSpec, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Reflected-product inclusion:

    (1/6)M + (1/3)N + S (c/12) d^2 B + (c^2/30) d^4 B
        inside (ab/(b-a)) int F(x) G(theta(x)) / x^2 dx,
    with d = (b-a)/(ab), M/N/S the endpoint product and sum combinations.
    """
    integral = reflected_product_integral(f, g, dom, q)
    return _product_report("thm33", f, g, c, dom, q, tol, integral, reflected=True)


def check_thm35(f: SetValuedFn, g: SetValuedFn, c: float, dom: HarmonicDomain,
                q: QuadratureSpec, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Same LHS as the reflected variant against the plain product integral."""
    integral = plain_product_integral(f, g, dom, q)
    return _product_report("thm35", f, g, c, dom, q, tol, integral, reflected=False)


def check_cor34(f: SetValuedFn, c: float, dom: HarmonicDomain, q: QuadratureSpec,
                tol: float = DEFAULT_TOL) -> TheoremReport:
    """The F = G specialization of the reflected-product theorem; by
    construction its numbers are identical to check_thm33(f, f, ...)."""
    rep = check_thm33(f, f, c, dom, q, tol)
    return dataclasses.replace(rep, theorem_id="cor34")


def check_cor36(f: SetValuedFn, c: float, dom: HarmonicDomain, q: QuadratureSpec,
                tol: float = DEFAULT_TOL) -> TheoremReport:
    """F = G specialization of the plain-product theorem.

    The printed corollary groups its left side as
    (F^2(a)+F^2(b)+F(a)+F(b))/3 + (c/6) d^2 B (F(a)+F(b)) + (c^2/30) d^4 B,
    which is not the F = G substitution into the general theorem.  Both
    assemblies are evaluated against the same integral; the substitution
    form is the primary verdict and the printed form is echoed alongside.
    """
    return cor36_report(check_thm35(f, f, c, dom, q, tol), f, c, dom, tol)


def cor36_report(thm35: TheoremReport, f: SetValuedFn, c: float,
                 dom: HarmonicDomain, tol: float = DEFAULT_TOL) -> TheoremReport:
    """The cor36 report of a thm35 report computed with G = F: the same
    numbers with the printed assembly echoed alongside."""
    a, b = dom.a, dom.b
    fa, fb = f.eval(a), f.eval(b)
    delta2 = ((b - a) / (a * b)) ** 2
    printed = minkowski_sum(
        minkowski_sum(
            scale(1.0 / 3.0, minkowski_sum(
                minkowski_sum(interval_product(fa, fa), interval_product(fb, fb)),
                minkowski_sum(fa, fb))),
            interval_product(minkowski_sum(fa, fb), ball(c / 6.0 * delta2, "interval"))),
        ball(c * c / 30.0 * delta2 * delta2, "interval"))
    pv = _budget_verdict(printed, thm35.rhs, tol, thm35.error_budget)
    echo = {**thm35.inputs_echo,
            "printed_lhs": (printed.lo, printed.hi),
            "printed_slack": pv.slack,
            "printed_holds": pv.holds}
    return dataclasses.replace(thm35, theorem_id="cor36", inputs_echo=echo)
