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
    basis_floor,
    basis_product,
    directions,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    product_rows,
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


class TestBasisProduct:
    """A row's basis product has the same bits whatever rows share its call:
    at every row count from one to a product's rows, and at every position
    in a block of that many rows.  A bare ``np.matmul`` fails this, since
    BLAS rounds a one-row product, a matrix-vector call, differently."""

    M = 64
    ROWS = product_rows(M)
    BASIS = np.vstack((directions(M) @ [0.7, -0.3], directions(M) @ [0.2, 0.5], np.ones(M)))
    COEFS = np.random.default_rng(3).uniform(-3.0, 3.0, (2 * ROWS + 5, 3))

    def product(self, coefs):
        return basis_product(coefs, self.BASIS, np.empty((coefs.shape[0], self.M)))

    def bits(self, values):
        return values.view(np.uint64)

    def test_shape(self):
        assert self.ROWS == 192 and self.BASIS.shape == (3, self.M)

    def test_every_row_count(self):
        whole = self.bits(self.product(self.COEFS))
        for k in range(1, self.ROWS + 1):
            for first in (0, (7 * k) % (self.COEFS.shape[0] - k)):
                part = self.bits(self.product(self.COEFS[first:first + k]))
                assert np.array_equal(part, whole[first:first + k]), (k, first)

    def test_every_position(self):
        whole = self.bits(self.product(self.COEFS))
        block = np.random.default_rng(4).uniform(-3.0, 3.0, (self.ROWS, 3))
        for i in range(self.ROWS):
            row = 5 * i % self.COEFS.shape[0]
            block[i] = self.COEFS[row]
            assert np.array_equal(self.bits(self.product(block))[i], whole[row]), i


EPS = np.finfo(float).eps


@st.composite
def floor_cases(draw):
    """(coefs, basis) for ``basis_floor``: 1 to 4 coefficient rows of k
    values on a (k, M) basis, with exact zeros, mixed signs, full 53-bit
    mantissas (from a drawn seed, so that products and sums round) and
    magnitudes from subnormal to near 2^1000, the products mostly below
    2^1000.  Where ``attained``, column 0 of the basis holds, per basis row
    j, the value that makes s_j B_je least for the first row s, so that
    row's bound is attained there."""
    k, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    e_coef = draw(st.integers(-1074, 1000))
    e_basis = draw(st.integers(-1074, 998 - max(e_coef, 0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def entries(shape, e):
        # exponents from e - 8 to e, about a quarter of the entries 0
        values = rng.uniform(-1.0, 1.0, shape) * 2.0 ** (e + rng.integers(-8, 1, shape))
        return np.where(rng.random(shape) < 0.25, 0.0, values)

    coefs, basis = entries((n, k), e_coef), entries((k, m), e_basis)
    if draw(st.booleans()):
        basis[:, 0] = np.where(coefs[0] >= 0.0, basis.min(axis=1), basis.max(axis=1))
    return coefs, basis


class TestBasisFloor:
    """``basis_floor`` bounds every value of a row's basis product from
    below, from the coefficients alone, and for the disc's slack rows
    [0, 0, s] it is s less a few rounding units of itself."""

    @settings(max_examples=400, deadline=None)
    @given(floor_cases())
    def test_below_every_product_value(self, case):
        coefs, basis = case
        with np.errstate(over="ignore", invalid="ignore"):
            values = basis_product(coefs, basis, np.empty((coefs.shape[0], basis.shape[1])))
        floor = basis_floor(coefs, basis)
        assert floor.shape == (coefs.shape[0],)
        finite = np.isfinite(floor)
        assert np.all(values[finite] >= floor[finite, None]), (coefs, basis, values, floor)
        # -inf only where a product could overflow
        reach = np.abs(coefs) @ np.abs(basis).max(axis=1)
        assert np.array_equal(~finite, ~(reach < 2.0 ** 1000))

    @pytest.mark.parametrize("grid_size", [3, 16, 64])
    def test_disc_slack_rows(self, grid_size):
        dirs = directions(grid_size)
        basis = np.vstack((dirs @ [0.7, -0.3], dirs @ [0.2, 0.5], np.ones(grid_size)))
        rng = np.random.default_rng(5)
        s = rng.uniform(-1.0, 1.0, 200) * 2.0 ** rng.integers(-1000, 990, 200)
        s[:4] = (1.0, -1.0, 2.0 ** -1000, -(2.0 ** 989))
        coefs = np.column_stack((np.zeros_like(s), np.zeros_like(s), s))
        floor = basis_floor(coefs, basis)
        assert np.all(floor >= s - 32.0 * EPS * np.abs(s))
        assert np.all(floor < s)
        values = basis_product(coefs, basis, np.empty((s.size, grid_size)))
        assert np.all(values >= floor[:, None])

    def test_nan_and_overflow(self):
        basis = np.vstack((np.linspace(-1.0, 2.0, 5), np.ones(5)))
        coefs = np.array([[np.nan, 1.0], [np.inf, 0.0], [2.0 ** 999, 2.0 ** 999], [1.0, -1.0]])
        floor = basis_floor(coefs, basis)
        assert floor[:3].tolist() == [-np.inf] * 3
        assert -2.0 - 1e-12 < floor[3] < -2.0
