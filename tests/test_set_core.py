import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonichh.set_core import (
    Interval,
    InclusionVerdict,
    NegativeScaleError,
    NonFiniteSetError,
    RepresentationMismatchError,
    SupportSet,
    UnsupportedProductError,
    ball,
    directions,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    scale,
)
from oracles import point

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def iv(lo, hi):
    return Interval(min(lo, hi), max(lo, hi))


intervals = st.tuples(finite, finite).map(lambda p: iv(*p))
support_sets = st.lists(finite, min_size=8, max_size=8).map(lambda v: SupportSet(tuple(v)))


class TestSupportSetValues:
    """A SupportSet converts and checks its values in one step and stores
    Python floats, whatever sequence of numbers it is given."""

    @pytest.mark.parametrize("values", [
        (1.0, -0.5, 2.0), [1, -0.5, 2], np.array([1.0, -0.5, 2.0]),
        tuple(np.array([1.0, -0.5, 2.0])), (v for v in (1.0, -0.5, 2.0)), ["1", "-0.5", "2"],
    ], ids=["tuple", "list", "array", "numpy-scalars", "generator", "strings"])
    def test_accepted_inputs_store_python_floats(self, values):
        s = SupportSet(values)
        assert s.support == (1.0, -0.5, 2.0)
        assert all(type(v) is float for v in s.support)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("container", [tuple, np.array])
    def test_non_finite_rejected(self, bad, container):
        with pytest.raises(NonFiniteSetError, match="finite"):
            SupportSet(container([1.0, bad, 1.0]))

    @pytest.mark.parametrize("values", [(1.0, 2.0), np.array([1.0]), ()])
    def test_fewer_than_three_directions_rejected(self, values):
        with pytest.raises(ValueError, match="at least 3"):
            SupportSet(values)

    @pytest.mark.parametrize("values", [1.0, np.ones((2, 3))], ids=["scalar", "2-D"])
    def test_non_flat_rejected(self, values):
        with pytest.raises(TypeError):
            SupportSet(values)


class TestInterval:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_rejected(self, lo, hi):
        # a compact set; an infinite endpoint would make inclusion margins NaN
        with pytest.raises(ValueError, match="finite"):
            Interval(lo, hi)

    def test_non_finite_support_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SupportSet((1.0, math.inf, 1.0))

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

    def test_support_ball(self):
        assert ball(1.0, "support", grid_size=4) == SupportSet((1, 1, 1, 1))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball(-0.5)


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

    def test_support_witness_direction(self):
        a = SupportSet((1.0, 2.0, 1.0, 1.0))
        b = SupportSet((2.0, 1.5, 2.0, 2.0))
        v = includes(a, b)
        assert not v.holds
        assert v.witness_direction == 1
        assert v.slack == -0.5

    def test_mixed_kind_rejected(self):
        with pytest.raises(RepresentationMismatchError):
            includes(Interval(0, 1), ball(1, "support"))

    def test_mixed_grid_rejected(self):
        with pytest.raises(RepresentationMismatchError):
            minkowski_sum(ball(1, "support", 8), ball(1, "support", 16))

    # ties and the tolerance scale of the shared inclusion rule
    def test_equal_interval_margins_witness_hi(self):
        v = includes(Interval(1, 2), Interval(0, 3))
        assert v.witness_direction == "hi" and v.slack == 1.0
        v = includes(Interval(1, 2), Interval(1, 2), tol=1e-3)
        assert v.witness_direction == "hi" and v.slack == 0.0

    def test_interval_witness_lo_when_strictly_tighter(self):
        assert includes(Interval(0.5, 2), Interval(0, 3)).witness_direction == "lo"

    def test_equal_support_keys_witness_first_index(self):
        v = includes(SupportSet((1.0, 1.0, 1.0)), SupportSet((2.0, 2.0, 2.0)), tol=1e-3)
        assert v.witness_direction == 0
        v = includes(SupportSet((0.0, 1.0, 1.0, 1.0)), SupportSet((1.0, 1.0, 1.0, 1.0)))
        assert v.witness_direction == 1 and v.slack == 0.0

    @pytest.mark.parametrize("b", [Interval(-4.0, 2.0), Interval(-2.0, 4.0)])
    def test_interval_tolerance_scales_with_larger_endpoint(self, b):
        v = includes(Interval(0.0, 1.0), b, tol=1e-3)
        assert v.tolerance_used == 1e-3 * (1.0 + 4.0)

    def test_support_tolerance_at_witness(self):
        v = includes(SupportSet((1.0, 5.0, 1.0)), SupportSet((3.0, 4.0, 3.0)), tol=1e-3)
        assert v.witness_direction == 1 and v.tolerance_used == 1e-3 * (1.0 + 4.0)


class TestMooreProduct:
    def test_positive(self):
        assert interval_product(Interval(1, 2), Interval(3, 4)) == Interval(3, 8)

    def test_unit_idempotent(self):
        assert interval_product(Interval(0, 1), Interval(0, 1)) == Interval(0, 1)

    def test_symmetric(self):
        assert interval_product(Interval(-1, 1), Interval(-1, 1)) == Interval(-1, 1)

    def test_support_rejected(self):
        with pytest.raises(UnsupportedProductError):
            interval_product(ball(1, "support"), ball(1, "support"))


class TestHausdorff:
    def test_zero(self):
        assert hausdorff(Interval(0, 1), Interval(0, 1)) == 0.0

    def test_shift(self):
        assert hausdorff(Interval(0, 1), Interval(1, 2)) == 1.0

    def test_balls(self):
        assert hausdorff(ball(1.0), ball(3.0)) == 2.0


class TestPoint:
    def test_support_point_is_inner_product(self):
        p = point((1.0, 2.0), "support", grid_size=16)
        expect = directions(16) @ np.array([1.0, 2.0])
        assert np.allclose(p.as_array(), expect)


@given(intervals, intervals)
def test_minkowski_commutes(a, b):
    assert minkowski_sum(a, b) == minkowski_sum(b, a)


@given(intervals, intervals, intervals)
def test_minkowski_associates(a, b, c):
    left = minkowski_sum(minkowski_sum(a, b), c)
    right = minkowski_sum(a, minkowski_sum(b, c))
    assert hausdorff(left, right) <= 1e-9 * (1 + abs(left.lo) + abs(left.hi))


@given(support_sets, support_sets)
def test_support_minkowski_commutes(a, b):
    assert hausdorff(minkowski_sum(a, b), minkowski_sum(b, a)) <= 1e-15 * 1e7


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
