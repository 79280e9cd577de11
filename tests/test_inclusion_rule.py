"""The one inclusion rule of ``set_core``: ``includes`` is the one-row case of
the per-row oracle ``inclusion_rows``, the grid pass's flat fold over
``inclusion_block`` keeps the row the per-row rule would, and every report,
grid or integral, re-verifies through ``includes`` on its own two sides."""

import itertools

import numpy as np
import pytest

from harmonichh.aumann import QuadratureSpec
from harmonichh.explorer import run_theorems
from harmonichh.hh_check import DEFAULT_TOL, THEOREM_IDS, ConvexityGrid, _Worst
from harmonichh.set_core import (
    Disc,
    Interval,
    as_row,
    as_set,
    includes,
    inclusion_block,
    row_verdict,
)
from harmonichh.svf import (
    DomainError,
    HarmonicDomain,
    SampledFn,
    make_disc_family,
    make_quadratic_family,
)
from oracles import inclusion_rows

DOM12 = HarmonicDomain(1.0, 2.0)
_XS = np.linspace(1.0, 2.0, 9)
FAMILIES = {
    "quadratic": make_quadratic_family(1.0, 1.0, 10.0, DOM12),
    "quadratic-weak": make_quadratic_family(0.5, 1.0, 10.0, DOM12),
    "disc": make_disc_family((1.0, 0.0), (0.0, 1.0), 3.0, 1.0, DOM12),
    "sampled": SampledFn(_XS, np.column_stack([1.0 / _XS ** 2 + 0.05 * np.sin(5 * _XS),
                                               10.0 - 1.0 / _XS ** 2]), DOM12),
}
PRODUCT_IDS = ("thm33", "cor34", "thm35", "cor36")


def _rows(rng, kind, n):
    if kind == "interval":
        lo = rng.normal(size=(n, 2))
        return np.sort(lo, axis=1), np.sort(lo + 0.3 * rng.normal(size=(n, 2)), axis=1)
    lhs = rng.normal(size=(n, 3))
    lhs[:, 2] = np.abs(lhs[:, 2])
    rhs = lhs + 0.3 * rng.normal(size=(n, 3))
    rhs[:, 2] = np.abs(rhs[:, 2])
    return lhs, rhs


@pytest.mark.parametrize("kind", ["interval", "disc"])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
def test_includes_is_one_row_of_the_kernel(kind, tol):
    lhs, rhs = _rows(np.random.default_rng(3), kind, 200)
    rhs[::7] = lhs[::7]  # exact ties
    slacks, tols, witness = inclusion_rows(lhs, rhs, kind, tol)
    for i in range(lhs.shape[0]):
        v = includes(as_set(lhs[i], kind), as_set(rhs[i], kind), tol)
        assert v == row_verdict(slacks[i], tols[i], witness[i], kind)
        assert v.holds == (v.slack >= -v.tolerance_used)


def flat_fold(lhs, rhs, kind, tol):
    """The verdict and rows the grid pass keeps from one block of rows, each
    row its own pair at one t: one flat argmin over the block's keys."""
    n = lhs.shape[0]
    worst = _Worst(kind, np.array([0.5]))
    worst.update(inclusion_block(lhs, rhs, kind, tol),
                 np.arange(n, dtype=float), np.zeros((1, n)), 0, 0)
    slack, tol_used, witness, kept_lhs, kept_rhs, x, *_ = worst.row
    return row_verdict(slack, tol_used, witness, kind), int(x), kept_lhs, kept_rhs


def per_row_rule(lhs, rhs, kind, tol):
    """The same from the per-row rule: the row of smallest slack + tolerance,
    the first on ties and a NaN first."""
    slacks, tols, witness = inclusion_rows(lhs, rhs, kind, tol)
    i = int(np.argmin(slacks + tols))
    return row_verdict(slacks[i], tols[i], witness[i], kind), i, lhs[i], rhs[i]


def assert_same_fold(lhs, rhs, kind, tol):
    (verdict, row, kept_lhs, kept_rhs), ref = flat_fold(lhs, rhs, kind, tol), \
        per_row_rule(lhs, rhs, kind, tol)
    assert repr(verdict) == repr(ref[0])  # NaN slacks compare equal by repr only
    assert row == ref[1]
    assert np.array_equal(kept_lhs, ref[2], equal_nan=True)
    assert np.array_equal(kept_rhs, ref[3], equal_nan=True)
    return verdict, row


class TestFlatFold:
    """Edge cases of the grid pass's flat fold against the per-row rule."""

    def test_tied_rows_first_wins(self):
        # discs of radius 0 at the origin inside discs about it
        lhs = np.zeros((4, 3))
        rhs = np.zeros((4, 3))
        rhs[:, 2] = 2.0
        rhs[[1, 3], 2] = 0.5  # two rows with the same key
        verdict, row = assert_same_fold(lhs, rhs, "disc", 1e-9)
        assert (row, verdict.witness_direction, verdict.slack) == (1, "radius", 0.5)

    def test_nan_in_a_later_row_wins(self):
        lhs = np.zeros((3, 3))
        rhs = np.zeros((3, 3))
        rhs[:, 2] = 2.0
        rhs[0, 2] = -5.0        # the smallest finite key
        lhs[1, 2] = np.nan      # a NaN after row 0's smaller finite key
        rhs[2, 0] = np.nan
        verdict, row = assert_same_fold(lhs, rhs, "disc", 1e-9)
        assert (row, verdict.witness_direction) == (1, "radius")
        assert np.isnan(verdict.slack) and not verdict.holds

    @pytest.mark.parametrize("tighter", ["hi", "lo"])
    def test_interval_witness_follows_the_margins(self, tighter):
        # end margins of 2^-63 and 2^-62 both vanish into the tolerance 0.05,
        # so the keys of the two ends tie; the witness is the end with the
        # smaller margin
        small, large = 2.0 ** -63, 2.0 ** -62
        hi_gap, lo_gap = (small, large) if tighter == "hi" else (large, small)
        lhs = np.zeros((2, 2))
        rhs = np.array([[-lo_gap, hi_gap], [-1.0, 1.0]])
        tol = 0.05
        margin_hi, margin_lo = rhs[0, 1] - lhs[0, 1], lhs[0, 0] - rhs[0, 0]
        assert margin_hi != margin_lo and margin_hi + tol == margin_lo + tol
        verdict, row = assert_same_fold(lhs, rhs, "interval", tol)
        assert row == 0 and verdict.witness_direction == tighter
        assert verdict.slack == small


_NONFINITE = (0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)


def nonfinite_rows(kind):
    """Every pair of rows over 0, +-1, +-inf and NaN: (lhs, rhs)."""
    channels = 2 if kind == "interval" else 3
    rows = np.array(list(itertools.product(_NONFINITE, repeat=channels)))
    return np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))


@pytest.mark.parametrize("kind", ["interval", "disc"])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_key_sign_against_the_comparison_on_nonfinite_rows(kind, tol):
    # A row holds when its key, slack + tolerance, is >= 0.  That is
    # slack >= -tolerance on every row but those whose slack is -inf against
    # an infinite tolerance (B unbounded below in a direction, tol > 0): the
    # comparison passes them (-inf >= -inf), the key is NaN and fails them.
    lhs, rhs = nonfinite_rows(kind)
    with np.errstate(all="ignore"):
        keys = inclusion_block(lhs, rhs, kind, tol).keys
        slacks, tols, witness = inclusion_rows(lhs, rhs, kind, tol)
        compared = slacks >= -tols
        held = keys >= 0.0
        unbounded = (slacks == -np.inf) & (tols == np.inf)
        assert np.array_equal(held, compared & ~unbounded)
        assert unbounded.any() == (tol > 0.0)
        assert np.array_equal(held, slacks + tols >= 0.0)
        assert held.tolist() == [row_verdict(*r, kind).holds
                                 for r in zip(slacks, tols, witness)]
    # Proposition 3.1's disagreement count, harmonic rows against arithmetic
    # rows in another order, from key signs and from the comparison
    order = np.random.default_rng(7).permutation(len(held))
    from_keys = int(np.count_nonzero(held != held[order]))
    expected = compared & ~unbounded
    assert from_keys == int(np.count_nonzero(expected != expected[order]))
    if tol == 0.0:
        assert from_keys == int(np.count_nonzero(compared != compared[order]))


@pytest.mark.parametrize("s", [Interval(-1.5, 2.25), Disc((1.0, -0.5), 2.0)])
def test_row_set_round_trip(s):
    kind = {Interval: "interval", Disc: "disc"}[type(s)]
    assert as_set(as_row(s), kind) == s


@pytest.mark.parametrize("fname", sorted(FAMILIES))
@pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
@pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
def test_every_report_reverifies_through_includes(fname, sampling, c):
    f = FAMILIES[fname]
    ids = [t for t in THEOREM_IDS if f.kind == "interval" or t not in PRODUCT_IDS]
    grid = ConvexityGrid(pair_count=100, sampling=sampling, seed=1)
    for rep in run_theorems(f, ids, c, grid, QuadratureSpec()):
        v = includes(rep.lhs, rep.rhs, DEFAULT_TOL)
        assert (v.slack, v.witness_direction) == \
            (rep.verdict.slack, rep.verdict.witness_direction), rep.theorem_id
        assert v.tolerance_used + rep.error_budget == rep.verdict.tolerance_used, \
            rep.theorem_id


class TestDomainPad:
    def test_contains_is_elementwise_on_arrays(self):
        xs = np.array([1.0 - 1e-13, 1.0 - 1e-10, 1.5, 2.0 + 1e-13, 2.0 + 1e-10, np.nan])
        assert DOM12.contains(xs).tolist() == [True, False, True, True, False, False]

    def test_eval_outside_pad_names_point(self):
        f = FAMILIES["quadratic"]
        f.eval(2.0 + 1e-13)  # inside the pad
        with pytest.raises(DomainError, match="point 2.0000000001 outside"):
            f.eval(2.0 + 1e-10)

    def test_pad_is_relative_on_a_small_domain(self):
        # The pad is 1e-12 (a + b): an absolute 1e-12 would take in points far
        # outside a domain much smaller than 1, down to 0 and below.
        dom = HarmonicDomain(2.0 ** -45, 2.0 ** -44)
        f = make_quadratic_family(1.0, 1.0, 2.0 ** 92, dom)
        with pytest.raises(DomainError, match="point -5e-13 outside"):
            f.eval(-5e-13)
        f.eval(dom.b * (1.0 + 1e-12))  # inside the pad
        tiny = HarmonicDomain(2.0 ** -40, 2.0 ** -39)
        assert tiny.contains(np.array([0.0, -1e-13, tiny.a, tiny.b])).tolist() == \
            [False, False, True, True]
