import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonichh.set_core import (
    Disc,
    Interval,
    InclusionVerdict,
    NegativeScaleError,
    NonFiniteSetError,
    RepresentationMismatchError,
    UnsupportedProductError,
    as_row,
    as_set,
    ball,
    disc_block,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    scale,
)
from oracles import directions, sampled_disc_margins

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def iv(lo, hi):
    return Interval(min(lo, hi), max(lo, hi))


intervals = st.tuples(finite, finite).map(lambda p: iv(*p))


class TestInterval:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_rejected(self, lo, hi):
        # a compact set; an infinite endpoint would make inclusion margins NaN
        with pytest.raises(ValueError, match="finite"):
            Interval(lo, hi)

    @pytest.mark.parametrize("lo,hi", [(1, 2), (np.float32(1.0), np.int64(2)), ("1", "2")],
                             ids=["ints", "numpy-scalars", "strings"])
    def test_endpoints_stored_as_python_floats(self, lo, hi):
        a = Interval(lo, hi)
        assert (a.lo, a.hi) == (1.0, 2.0)
        assert type(a.lo) is float and type(a.hi) is float

    def test_minkowski_endpoints(self):
        assert minkowski_sum(Interval(1, 2), Interval(3, 5)) == Interval(4, 7)

    def test_minkowski_identity(self):
        a = Interval(-3.5, 2.25)
        assert minkowski_sum(a, Interval(0, 0)) == a

    def test_ball_plus_ball(self):
        assert minkowski_sum(ball(1.0), ball(1.0)) == Interval(-2, 2)

    def test_scale_zero(self):
        assert scale(0.0, Interval(3, 7)) == Interval(0, 0)

    def test_scale_ball(self):
        assert scale(2.0, ball(1.0)) == ball(2.0)

    def test_scale_quarter(self):
        assert scale(0.25, Interval(-1, 1)) == Interval(-0.25, 0.25)

    def test_negative_scale_rejected(self):
        with pytest.raises(NegativeScaleError):
            scale(-1.0, Interval(0, 1))


class TestBall:
    def test_unit_interval_ball(self):
        assert ball(1.0, "interval") == Interval(-1, 1)

    def test_degenerate(self):
        assert ball(0.0, "interval") == Interval(0, 0)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball(-0.5)

    def test_disc_ball(self):
        assert ball(2.5, "disc") == Disc((0.0, 0.0), 2.5)

    def test_negative_disc_radius(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ball(-0.5, "disc")

    @pytest.mark.parametrize("kind", ["support", "disk", None])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError, match="unknown representation kind"):
            ball(1.0, kind)


class TestIncludes:
    def test_basic(self):
        v = includes(Interval(1, 2), Interval(0, 3))
        assert v.holds and v.slack == 1.0

    def test_reflexive(self):
        a = Interval(0.25, 9.75)
        v = includes(a, a)
        assert v.holds and v.slack == 0.0

    def test_failure(self):
        v = includes(Interval(0, 4), Interval(1, 3))
        assert not v.holds and v.slack == -1.0

    def test_holds_iff_slack_within_tolerance(self):
        v = includes(Interval(0, 1.0000001), Interval(0, 1), tol=1e-3)
        assert v.holds == (v.slack >= -v.tolerance_used)

    def test_mixed_kind_rejected(self):
        with pytest.raises(RepresentationMismatchError):
            includes(Interval(0, 1), ball(1, "disc"))

    # ties and the tolerance scale of the shared inclusion rule
    def test_equal_interval_margins_witness_hi(self):
        v = includes(Interval(1, 2), Interval(0, 3))
        assert v.witness_direction == "hi" and v.slack == 1.0
        v = includes(Interval(1, 2), Interval(1, 2), tol=1e-3)
        assert v.witness_direction == "hi" and v.slack == 0.0

    def test_interval_witness_lo_when_strictly_tighter(self):
        assert includes(Interval(0.5, 2), Interval(0, 3)).witness_direction == "lo"

    @pytest.mark.parametrize("b", [Interval(-4.0, 2.0), Interval(-2.0, 4.0)])
    def test_interval_tolerance_scales_with_larger_endpoint(self, b):
        v = includes(Interval(0.0, 1.0), b, tol=1e-3)
        assert v.tolerance_used == 1e-3 * (1.0 + 4.0)

    def test_disc_witness_direction(self):
        # D((4, 0), 1) against D((0, 0), 3): the margin (3 - 1) - 4 is
        # attained along +x
        v = includes(Disc((4.0, 0.0), 1.0), Disc((0.0, 0.0), 3.0))
        assert (v.holds, v.slack, v.witness_direction) == (False, -2.0, [1.0, 0.0])

    def test_disc_tolerance_at_witness(self):
        # slack (4 - 1) - ||(0, 4)||; tolerance scaled by 1 + r_B + ||c_B||
        v = includes(Disc((0.0, 3.0), 1.0), Disc((0.0, -1.0), 4.0), tol=1e-3)
        assert (v.holds, v.slack, v.witness_direction) == (False, -1.0, [0.0, 1.0])
        assert v.tolerance_used == 1e-3 * (1.0 + 4.0 + 1.0)

    def test_disc_holds_within_tolerance(self):
        v = includes(Disc((0.0, 0.0), 1.0001), Disc((0.0, 0.0), 1.0), tol=1e-3)
        # slack 1 - 1.0001 is within the tolerance 1e-3 * (1 + 1 + 0)
        assert v.slack < 0.0 and v.witness_direction == "radius"
        assert v.holds and v.slack >= -v.tolerance_used


class TestMooreProduct:
    def test_positive(self):
        assert interval_product(Interval(1, 2), Interval(3, 4)) == Interval(3, 8)

    def test_unit_idempotent(self):
        assert interval_product(Interval(0, 1), Interval(0, 1)) == Interval(0, 1)

    def test_symmetric(self):
        assert interval_product(Interval(-1, 1), Interval(-1, 1)) == Interval(-1, 1)

    def test_disc_rejected(self):
        with pytest.raises(UnsupportedProductError):
            interval_product(ball(1, "disc"), ball(1, "disc"))

    def test_mixed_rejected(self):
        with pytest.raises(UnsupportedProductError):
            interval_product(Interval(0, 1), ball(1, "disc"))


class TestHausdorff:
    def test_zero(self):
        assert hausdorff(Interval(0, 1), Interval(0, 1)) == 0.0

    def test_shift(self):
        assert hausdorff(Interval(0, 1), Interval(1, 2)) == 1.0

    def test_balls(self):
        assert hausdorff(ball(1.0), ball(3.0)) == 2.0

    def test_concentric_discs(self):
        assert hausdorff(Disc((1.5, -2.0), 0.5), Disc((1.5, -2.0), 3.0)) == 2.5

    def test_mixed_kinds_refused(self):
        with pytest.raises(RepresentationMismatchError):
            hausdorff(Interval(0, 1), ball(1.0, "disc"))


@given(intervals, intervals)
def test_minkowski_commutes(a, b):
    assert minkowski_sum(a, b) == minkowski_sum(b, a)


@given(intervals, intervals, intervals)
def test_minkowski_associates(a, b, c):
    left = minkowski_sum(minkowski_sum(a, b), c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert hausdorff(left, right) <= 1e-9 * (1 + abs(left.lo) + abs(left.hi))


@given(st.floats(0, 100), st.floats(0, 100), intervals)
def test_scale_additive_on_convex(s, t, a):
    lhs = scale(s + t, a)
    rhs = minkowski_sum(scale(s, a), scale(t, a))
    assert hausdorff(lhs, rhs) <= 1e-9 * (1 + abs(lhs.lo) + abs(lhs.hi))


@given(st.floats(0, 100), intervals, intervals)
def test_scale_distributes_over_sum(t, a, b):
    lhs = scale(t, minkowski_sum(a, b))
    rhs = minkowski_sum(scale(t, a), scale(t, b))
    assert hausdorff(lhs, rhs) <= 1e-9 * (1 + abs(lhs.lo) + abs(lhs.hi))


@given(intervals, intervals, intervals)
def test_includes_transitive(a, b, c):
    if includes(a, b).holds and includes(b, c).holds:
        assert includes(a, c, tol=1e-12).holds


@given(intervals, intervals)
def test_mutual_inclusion_is_equality(a, b):
    if includes(a, b).holds and includes(b, a).holds:
        assert hausdorff(a, b) == 0.0


@settings(max_examples=200)
@given(intervals, intervals, intervals, intervals)
def test_monotonicity(a, a2, b, b2):
    big_a = iv(min(a.lo, a2.lo), max(a.hi, a2.hi))
    big_b = iv(min(b.lo, b2.lo), max(b.hi, b2.hi))
    # a subset big_a, b subset big_b by construction
    assert includes(minkowski_sum(a, b), minkowski_sum(big_a, big_b), tol=1e-12).holds
    assert includes(interval_product(a, b), interval_product(big_a, big_b), tol=1e-12).holds


def test_verdict_invariant_randomized():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        lo1, hi1 = np.sort(rng.uniform(-10, 10, 2))
        lo2, hi2 = np.sort(rng.uniform(-10, 10, 2))
        v = includes(Interval(lo1, hi1), Interval(lo2, hi2), tol=1e-9)
        assert isinstance(v, InclusionVerdict)
        assert v.holds == (v.slack >= -v.tolerance_used)


discs = st.builds(Disc, st.tuples(finite, finite), st.floats(0, 1e6))
EPS = np.finfo(float).eps


class TestDisc:
    def test_values_are_floats(self):
        d = Disc(np.array([1, -2]), np.float64(0.5))
        assert d == Disc((1.0, -2.0), 0.5)
        assert all(type(v) is float for v in (*d.center, d.radius))

    @pytest.mark.parametrize("center,radius", [
        ((1.0, -2.0), 0.5), ([1, -2], 0.5), (np.array([1.0, -2.0]), 0.5),
        (tuple(np.array([1.0, -2.0])), np.float32(0.5)), ((v for v in (1.0, -2.0)), 0.5),
        (["1", "-2"], "0.5"),
    ], ids=["tuple", "list", "array", "numpy-scalars", "generator", "strings"])
    def test_accepted_inputs_store_python_floats(self, center, radius):
        d = Disc(center, radius)
        assert (d.center, d.radius) == ((1.0, -2.0), 0.5)
        assert all(type(v) is float for v in (*d.center, d.radius))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["c0", "c1", "radius"])
    def test_non_finite_rejected(self, slot, bad):
        row = [1.0, -2.0, 0.5]
        row[slot] = bad
        with pytest.raises(NonFiniteSetError, match="finite"):
            Disc(row[:2], row[2])

    @pytest.mark.parametrize("center,radius,error", [
        ((0.0, math.inf), 1.0, NonFiniteSetError), ((0.0, 0.0), math.nan, NonFiniteSetError),
        ((0.0, 0.0), -1e-300, ValueError), ((0.0,), 1.0, ValueError),
        ((0.0, 1.0, 2.0), 1.0, ValueError)])
    def test_refused(self, center, radius, error):
        with pytest.raises(error):
            Disc(center, radius)

    def test_algebra(self):
        a, b = Disc((1.0, -2.0), 0.5), Disc((0.25, 4.0), 1.5)
        assert minkowski_sum(a, b) == Disc((1.25, 2.0), 2.0)
        assert scale(2.0, a) == Disc((2.0, -4.0), 1.0)
        assert ball(3.0, "disc") == Disc((0.0, 0.0), 3.0)
        assert minkowski_sum(a, ball(0.25, "disc")) == Disc((1.0, -2.0), 0.75)
        # ||(0.75, -6)|| = sqrt(36.5625) plus |0.5 - 1.5|
        assert hausdorff(a, b) == math.hypot(0.75, -6.0) + 1.0

    def test_mixed_kinds_refused(self):
        with pytest.raises(RepresentationMismatchError):
            includes(Disc((0.0, 0.0), 1.0), ball(1.0))
        with pytest.raises(RepresentationMismatchError):
            minkowski_sum(Interval(0, 1), Disc((0.0, 0.0), 1.0))
        with pytest.raises(UnsupportedProductError):
            interval_product(Disc((0.0, 0.0), 1.0), Disc((0.0, 0.0), 1.0))

    def test_inclusion_rule(self):
        # D((3, 4), 1) inside D((0, 0), 7): ||(3, 4)|| = 5 <= 7 - 1
        v = includes(Disc((3.0, 4.0), 1.0), Disc((0.0, 0.0), 7.0), tol=1e-3)
        assert (v.holds, v.slack, v.witness_direction) == (True, 1.0, [0.6, 0.8])
        assert v.tolerance_used == 1e-3 * (1.0 + 7.0 + 0.0)
        v = includes(Disc((0.0, 0.0), 7.0), Disc((3.0, 4.0), 1.0), tol=1e-3)
        assert (v.holds, v.slack, v.witness_direction) == (False, -11.0, [-0.6, -0.8])
        assert v.tolerance_used == 1e-3 * (1.0 + 1.0 + 5.0)

    def test_concentric_witness_is_the_radius(self):
        v = includes(Disc((1.5, -2.0), 2.0), Disc((1.5, -2.0), 1.0))
        assert (v.holds, v.slack, v.witness_direction) == (False, -1.0, "radius")
        assert includes(Disc((1.5, -2.0), 1.0), Disc((1.5, -2.0), 1.0)).slack == 0.0


def _hypot_rule(lhs, rhs, tol):
    """The disc rule's slack and tolerance with every length by np.hypot."""
    norm = np.hypot(rhs[0] - lhs[0], rhs[1] - lhs[1])
    return (rhs[2] - lhs[2]) - norm, tol * (1.0 + rhs[2] + np.hypot(rhs[0], rhs[1]))


class TestDiscBlock:
    """``disc_block`` forms ||.|| as the root of a square sum, and falls back
    to np.hypot where that sum overflows."""

    def rows(self, scale_, n=500, seed=3):
        rng = np.random.default_rng(seed)
        rhs = rng.uniform(-1.0, 1.0, (3, n)) * scale_
        rhs[2] = np.abs(rhs[2]) * 3.0
        lhs = rhs + rng.uniform(-1.0, 1.0, (3, n)) * scale_ * 1e-3
        return lhs, rhs

    def run(self, lhs, rhs, tol):
        n = lhs.shape[1]
        return disc_block(lhs, rhs, tol, *(np.empty(n) for _ in range(3)))

    @pytest.mark.parametrize("scale_", [1.0, 2.0 ** 500, 2.0 ** 520, 2.0 ** 1000, 2.0 ** -520])
    def test_against_hypot(self, scale_):
        lhs, rhs = self.rows(scale_)
        block = self.run(lhs, rhs, 1e-9)
        slack, tols = _hypot_rule(lhs, rhs, 1e-9)
        assert np.all(np.isfinite(block.slack)) and np.all(np.isfinite(block.tols))
        # a root of a square sum is within 2 ulps of hypot's length, and off
        # by less than 2^-536 where its squares underflow; the slack's own
        # subtractions add an ulp of each radius
        scale_of = np.abs(rhs[2]) + np.abs(lhs[2]) + np.hypot(rhs[0] - lhs[0], rhs[1] - lhs[1])
        assert np.all(np.abs(block.slack - slack) <= 4 * EPS * scale_of + 2.0 ** -536)
        assert np.all(np.abs(block.tols - tols) <= 4 * EPS * tols)
        assert np.array_equal(block.keys, block.slack + block.tols)

    def test_overflow_falls_back_only_where_it_overflows(self):
        lhs, rhs = self.rows(1.0)
        rhs[:2, :7] *= 2.0 ** 600  # their centres' squares overflow
        block = self.run(lhs, rhs, 1e-9)
        slack, tols = _hypot_rule(lhs, rhs, 1e-9)
        assert np.all(np.isfinite(block.tols)) and np.all(np.isfinite(block.slack))
        assert np.array_equal(block.tols[:7], tols[:7])
        assert np.array_equal(block.slack[:7], slack[:7])

    def test_nan_stays_nan(self):
        lhs, rhs = self.rows(1.0, n=4)
        lhs[0, 1] = np.nan
        block = self.run(lhs, rhs, 1e-9)
        assert np.isnan(block.keys).tolist() == [False, True, False, False]


def _near_tie(a, b, slack):
    """Whether the exact slack is within the boundary samples' reach of 0:
    the sampling gap ||c_B - c_A|| (1 - cos(pi/4096)) plus rounding."""
    size = abs(a.radius) + abs(b.radius) + math.hypot(*a.center) + math.hypot(*b.center)
    gap = math.hypot(b.center[0] - a.center[0], b.center[1] - a.center[1])
    return abs(slack) <= gap * (1.0 - math.cos(math.pi / 4096)) + 16 * EPS * size


class TestDiscOracle:
    """The exact rule's verdict agrees with every support value of both
    discs' boundaries sampled at 4,096 angles, away from ties: a held
    inclusion has no negative sampled margin, a violated one some."""

    @staticmethod
    def cases(seed=11, count=300):
        rng = np.random.default_rng(seed)
        for i in range(count):
            size = 10.0 ** rng.uniform(-3, 3)
            a = Disc(rng.normal(size=2) * size, rng.uniform(0, 2) * size)
            # B near A: contained, cut or apart, and ties where B = A
            b = Disc(np.array(a.center) + rng.normal(size=2) * size * rng.choice([0.0, 0.1, 1.0]),
                     a.radius * rng.uniform(0.5, 3.0) * (i % 9 != 0))
            yield a, b

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_verdicts_agree(self, tol):
        decided = 0
        for a, b in self.cases():
            v = includes(a, b, tol)
            margins = sampled_disc_margins(a, b)
            size = abs(b.radius) + math.hypot(*b.center) + abs(a.radius) + math.hypot(*a.center)
            # the least sampled margin is the exact slack, less the sampling gap
            assert margins.min() >= v.slack - 16 * EPS * size
            if _near_tie(a, b, v.slack + v.tolerance_used):
                continue
            decided += 1
            assert v.holds == bool(np.all(margins + v.tolerance_used >= 0.0)), (a, b)
        assert decided > 250

    def test_witness_is_the_least_sampled_margin(self):
        for a, b in self.cases(seed=12, count=60):
            v = includes(a, b)
            if v.witness_direction == "radius":
                assert a.center == b.center
                continue
            margins = sampled_disc_margins(a, b)
            least = directions(4096)[int(margins.argmin())]
            assert np.dot(least, v.witness_direction) >= math.cos(2 * math.pi / 4096)


@settings(max_examples=300, deadline=None)
@given(discs, discs, st.floats(0.0, 2.0 * math.pi))
def test_disc_rule_is_the_support_inclusion_in_every_direction(a, b, angle):
    # slack = min over unit e of h_B(e) - h_A(e), with h(e) = <c, e> + r: no
    # direction has a smaller margin, and the witness direction attains it
    v = includes(a, b)
    size = abs(a.radius) + abs(b.radius) + math.hypot(*a.center) + math.hypot(*b.center)
    # the length of c_B - c_A is off by less than 2^-536 where its squares
    # underflow
    rounding = 8 * EPS * size + 2.0 ** -536

    def margin(e):
        return (np.dot(b.center, e) + b.radius) - (np.dot(a.center, e) + a.radius)

    assert margin((math.cos(angle), math.sin(angle))) >= v.slack - rounding
    witness = (1.0, 0.0) if v.witness_direction == "radius" else v.witness_direction
    assert abs(margin(witness) - v.slack) <= rounding
    assert v.holds == (v.slack >= 0.0)


@given(discs, discs)
def test_disc_minkowski_commutes(a, b):
    assert minkowski_sum(a, b) == minkowski_sum(b, a)


def _disc_size(*ds):
    return sum(abs(d.center[0]) + abs(d.center[1]) + d.radius for d in ds)


@given(discs, discs, discs)
def test_disc_minkowski_associates(a, b, c):
    left = minkowski_sum(minkowski_sum(a, b), c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert hausdorff(left, right) <= 1e-9 * (1 + _disc_size(left))


@given(st.floats(0, 100), st.floats(0, 100), discs)
def test_disc_scale_additive_on_convex(s, t, a):
    lhs = scale(s + t, a)
    rhs = minkowski_sum(scale(s, a), scale(t, a))
    assert hausdorff(lhs, rhs) <= 1e-9 * (1 + _disc_size(lhs))


@given(st.floats(0, 100), discs, discs)
def test_disc_scale_distributes_over_sum(t, a, b):
    lhs = scale(t, minkowski_sum(a, b))
    rhs = minkowski_sum(scale(t, a), scale(t, b))
    assert hausdorff(lhs, rhs) <= 1e-9 * (1 + _disc_size(lhs))


@given(discs, discs, discs)
def test_disc_includes_transitive(a, b, c):
    if includes(a, b).holds and includes(b, c).holds:
        assert includes(a, c, tol=1e-12).holds


@given(discs, discs, st.floats(0, 1e6), st.floats(0, 1e6))
def test_disc_monotonicity(a, b, grow_a, grow_b):
    # a subset big_a, b subset big_b by construction
    big_a = Disc(a.center, a.radius + grow_a)
    big_b = Disc(b.center, b.radius + grow_b)
    assert includes(a, big_a).holds and includes(b, big_b).holds
    assert includes(minkowski_sum(a, b), minkowski_sum(big_a, big_b), tol=1e-12).holds


@given(discs, discs)
def test_disc_hausdorff_symmetric(a, b):
    assert hausdorff(a, b) == hausdorff(b, a)
    assert hausdorff(a, a) == 0.0


@given(st.one_of(intervals, discs))
def test_as_set_inverts_as_row(s):
    kind = "interval" if isinstance(s, Interval) else "disc"
    assert as_set(as_row(s), kind) == s
