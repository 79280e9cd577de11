"""Checkers for the definitional properties and inclusion theorems.

Each checker returns a TheoremReport carrying the worst-case signed slack
over its sample grid, an InclusionVerdict at the witness sample, and the
quadrature error budget (always absorbed into the inclusion tolerance, so
a reported violation is never attributable to quadrature).

Grid checks are evaluated vectorized over all (x, y, t) triples; the
reduction to the witness is a fixed-order argmin, so verdicts are
deterministic regardless of how evaluation is batched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Tuple, Union

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
    SupportSet,
    ball,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    scale,
)
from .svf import HarmonicDomain, SetValuedFn, c_shift, c_unshift, reciprocal_transform

THEOREM_IDS = (
    "def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31",
    "nikodem_left", "nikodem_right", "hh_left", "hh_right",
    "thm33", "cor34", "thm35", "cor36",
)

DEFAULT_TOL = 1e-9

_DEFAULT_T = tuple(np.round(np.linspace(0.0, 1.0, 11), 12))


@dataclass(frozen=True)
class ConvexityGrid:
    """Sample grid discretizing 'for all x, y in D, t in [0,1]'."""

    pair_count: int = 1024
    t_values: tuple = _DEFAULT_T
    sampling: str = "deterministic-stratified"
    seed: int = 0

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.t_values)
        if any(t < 0.0 or t > 1.0 for t in ts):
            raise ValueError("t values must lie in [0, 1]")
        if list(ts) != sorted(ts):
            raise ValueError("t values must be sorted")
        for required in (0.0, 0.5, 1.0):
            if required not in ts:
                raise ValueError(f"t grid must contain {required}")
        if self.sampling not in ("deterministic-stratified", "seeded-random"):
            raise ValueError(f"unknown sampling mode: {self.sampling!r}")
        object.__setattr__(self, "t_values", ts)

    def pairs(self, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
        if self.sampling == "deterministic-stratified":
            n = max(2, round(self.pair_count ** 0.5))
            pts = np.linspace(lo, hi, n)
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


def _row_set(row: np.ndarray, kind: str) -> ConvexSet:
    if kind == "interval":
        return Interval(float(row[0]), float(row[1]))
    return SupportSet(tuple(row))


def _rowwise_slacks(lhs: np.ndarray, rhs: np.ndarray, kind: str, tol: float):
    """Per-row inclusion slack, tolerance and witness direction.

    Mirrors set_core.includes applied row by row, with the same mixed
    relative-absolute tolerance rule.
    """
    if kind == "interval":
        margin_hi = rhs[:, 1] - lhs[:, 1]
        margin_lo = lhs[:, 0] - rhs[:, 0]
        slacks = np.minimum(margin_hi, margin_lo)
        tols = tol * (1.0 + np.max(np.abs(rhs), axis=1))
        witness = np.where(margin_hi <= margin_lo, 0, 1)  # 0 -> "hi", 1 -> "lo"
        return slacks, tols, witness
    margins = rhs - lhs
    dir_tols = tol * (1.0 + np.abs(rhs))
    j = np.argmin(margins + dir_tols, axis=1)
    rows = np.arange(lhs.shape[0])
    return margins[rows, j], dir_tols[rows, j], j


def _definitional_slacks(f: SetValuedFn, c: float, xs: np.ndarray, ys: np.ndarray,
                         ts: np.ndarray, tol: float, harmonic: bool):
    """Slack arrays for the modulus-c (harmonic or arithmetic) convexity inclusion."""
    if harmonic:
        mids = xs * ys / (ts * xs + (1.0 - ts) * ys)
        dist2 = ((xs - ys) / (xs * ys)) ** 2
    else:
        mids = ts * ys + (1.0 - ts) * xs
        dist2 = (xs - ys) ** 2
    fy = f.eval_vector(ys)
    fx = f.eval_vector(xs)
    fm = f.eval_vector(mids)
    pen = c * ts * (1.0 - ts) * dist2
    if f.kind == "interval":
        lhs = np.column_stack([
            ts * fy[:, 0] + (1.0 - ts) * fx[:, 0] - pen,
            ts * fy[:, 1] + (1.0 - ts) * fx[:, 1] + pen,
        ])
    else:
        lhs = ts[:, None] * fy + (1.0 - ts)[:, None] * fx + pen[:, None]
    slacks, tols, witness = _rowwise_slacks(lhs, fm, f.kind, tol)
    return slacks, tols, witness, lhs, fm


def _grid_verdict(slacks: np.ndarray, tols: np.ndarray, witness: np.ndarray,
                  kind: str) -> Tuple[int, InclusionVerdict]:
    """Index of the first worst row and the verdict of the whole grid there."""
    i = int(np.argmin(slacks + tols))
    if kind == "interval":
        wdir: Union[int, str] = "hi" if witness[i] == 0 else "lo"
    else:
        wdir = int(witness[i])
    return i, InclusionVerdict(holds=bool(np.all(slacks >= -tols)), slack=float(slacks[i]),
                               witness_direction=wdir, tolerance_used=float(tols[i]))


def _definitional_report(theorem_id: str, f: SetValuedFn, c: float,
                         xs: np.ndarray, ys: np.ndarray, ts: np.ndarray,
                         tol: float, harmonic: bool) -> TheoremReport:
    slacks, tols, witness, lhs, rhs = _definitional_slacks(
        f, c, xs, ys, ts, tol, harmonic)
    i, verdict = _grid_verdict(slacks, tols, witness, f.kind)
    echo = {
        "c": c,
        "triples": int(xs.size),
        "witness": {"x": float(xs[i]), "y": float(ys[i]), "t": float(ts[i])},
    }
    return TheoremReport(
        theorem_id=theorem_id,
        lhs=_row_set(lhs[i], f.kind),
        rhs=_row_set(rhs[i], f.kind),
        verdict=verdict,
        error_budget=0.0,
        inputs_echo=echo,
    )


def check_strongly_harmonic_convex(f: SetValuedFn, c: float, grid: ConvexityGrid,
                                   tol: float = DEFAULT_TOL) -> TheoremReport:
    """t F(y) + (1-t) F(x) + c t(1-t) |(x-y)/(xy)|^2 B inside F(xy/(tx+(1-t)y))."""
    if c < 0.0:
        raise ValueError("modulus c must be >= 0")
    xs, ys, ts = grid.triples(f.domain.a, f.domain.b)
    return _definitional_report("def_shc", f, c, xs, ys, ts, tol, harmonic=True)


def check_strongly_harmonic_midconvex(f: SetValuedFn, c: float, grid: ConvexityGrid,
                                      tol: float = DEFAULT_TOL) -> TheoremReport:
    """The t = 1/2 restriction with the c/4 penalty coefficient."""
    if c < 0.0:
        raise ValueError("modulus c must be >= 0")
    xs, ys = grid.pairs(f.domain.a, f.domain.b)
    ts = np.full(xs.size, 0.5)
    return _definitional_report("def_mid", f, c, xs, ys, ts, tol, harmonic=True)


def check_lemma_shift(f: SetValuedFn, c: float, grid: ConvexityGrid,
                      tol: float = DEFAULT_TOL, direction: str = "forward",
                      midconvex: bool = False) -> TheoremReport:
    """Equivalence between modulus-c convexity of F and plain convexity of
    the shifted G(x) = F(x) + (c/x^2) B, in either direction."""
    if c <= 0.0:
        raise ValueError("the shift lemma needs c > 0")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    checker = check_strongly_harmonic_midconvex if midconvex else check_strongly_harmonic_convex
    theorem_id = "lemma_ii" if midconvex else "lemma_i"
    g = c_shift(f, c)
    shifted = checker(g, 0.0, grid, tol)
    # backward: recover F from the shifted map and check it at modulus c
    strong = checker(f if direction == "forward" else c_unshift(g, c), c, grid, tol)
    return shift_lemma_report(theorem_id, strong, shifted, c, direction)


def shift_lemma_report(theorem_id: str, strong: TheoremReport, shifted: TheoremReport,
                       c: float, direction: str) -> TheoremReport:
    """Combine the modulus-c check of F and the plain check of the shifted
    map into one shift-lemma report."""
    # worst of the paired checks is the reported witness
    primary = strong if strong.verdict.slack <= shifted.verdict.slack else shifted
    verdict = InclusionVerdict(
        holds=strong.holds and shifted.holds,
        slack=primary.verdict.slack,
        witness_direction=primary.verdict.witness_direction,
        tolerance_used=primary.verdict.tolerance_used,
    )
    return TheoremReport(
        theorem_id=theorem_id,
        lhs=primary.lhs,
        rhs=primary.rhs,
        verdict=verdict,
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
    xs, ys, ts = grid.triples(f.domain.a, f.domain.b)
    sh, th, wh, lhs_h, rhs_h = _definitional_slacks(f, c, xs, ys, ts, tol, harmonic=True)
    g = reciprocal_transform(f)
    sa, ta, _, _, _ = _definitional_slacks(g, c, 1.0 / xs, 1.0 / ys, ts, tol, harmonic=False)
    vh = sh >= -th
    va = sa >= -ta
    disagreements = int(np.sum(vh != va))
    i, verdict = _grid_verdict(sh, th, wh, f.kind)
    return TheoremReport(
        theorem_id="prop_31",
        lhs=_row_set(lhs_h[i], f.kind),
        rhs=_row_set(rhs_h[i], f.kind),
        verdict=verdict,
        error_budget=0.0,
        inputs_echo={
            "c": c,
            "triples": int(xs.size),
            "harmonic_holds": verdict.holds,
            "arithmetic_holds": bool(np.all(va)),
            "arithmetic_slack": float(np.min(sa)),
            "disagreements": disagreements,
            "consistency_failure": disagreements > 0,
            "witness": {"x": float(xs[i]), "y": float(ys[i]), "t": float(ts[i])},
        },
    )


def _budget_verdict(lhs: ConvexSet, rhs: ConvexSet, tol: float,
                    budget: float) -> InclusionVerdict:
    """Inclusion verdict with the quadrature budget absorbed into the tolerance."""
    v = includes(lhs, rhs, tol)
    tol_used = v.tolerance_used + budget
    return InclusionVerdict(holds=bool(v.slack >= -tol_used), slack=v.slack,
                            witness_direction=v.witness_direction,
                            tolerance_used=tol_used)


def _ball_like(f: SetValuedFn, radius: float) -> ConvexSet:
    if f.kind == "interval":
        return ball(radius, "interval")
    return ball(radius, "support", grid_size=f.grid_size)


def _sandwich(name: str, f: SetValuedFn, c: float, a: float, b: float, mid: float,
              mean: ConvexSet, budget: float, d2: float, tol: float,
              nodes: int) -> Tuple[TheoremReport, TheoremReport]:
    """Left and right reports of a Hermite-Hadamard sandwich around ``mean``."""
    echo = {"c": c, "a": a, "b": b, "nodes": nodes}

    lhs_l = minkowski_sum(mean, _ball_like(f, c / 12.0 * d2))
    rhs_l = f.eval(mid)
    left = TheoremReport(f"{name}_left", lhs_l, rhs_l,
                         _budget_verdict(lhs_l, rhs_l, tol, budget), budget, dict(echo))

    lhs_r = minkowski_sum(scale(0.5, minkowski_sum(f.eval(a), f.eval(b))),
                          _ball_like(f, c / 6.0 * d2))
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
