import math
import re

import numpy as np
import pytest

from harmonichh.aumann import QuadratureSpec
from harmonichh.hh_check import THEOREM_IDS, ConvexityGrid, run_theorems
from harmonichh.cli import ConfigError, build_family
from harmonichh.set_core import Disc, Interval, hausdorff
from harmonichh.svf import (
    CShiftFn,
    DomainError,
    FeasibilityError,
    HarmonicDomain,
    ParameterError,
    QuadraticIntervalFn,
    SampledFn,
    SetValuedFn,
    make_disc_family,
    make_family,
    make_quadratic_family,
    reciprocal_transform,
    widen,
)
from oracles import harmonic_combination, reflect

DOM12 = HarmonicDomain(1.0, 2.0)
NAN = float("nan")


class TestHarmonicDomain:
    def test_requires_positive_ordered(self):
        for a, b in [(0.0, 1.0), (-1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]:
            with pytest.raises(DomainError):
                HarmonicDomain(a, b)

    def test_harmonic_midpoint(self):
        assert HarmonicDomain(1, 2).harmonic_midpoint == pytest.approx(4 / 3)

    def test_rejects_non_finite_ends(self):
        # an infinite b would give a NaN harmonic midpoint
        for a, b in [(1.0, float("inf")), (float("inf"), float("inf")), (1.0, float("nan"))]:
            with pytest.raises(DomainError, match="< inf"):
                HarmonicDomain(a, b)

    def test_ends_inside_the_range(self):
        # at the range's ends x^2, 1/x^2, xy and the squared harmonic distance stay finite
        lo, hi = 2.0 ** -511, 2.0 ** 511
        dom = HarmonicDomain(lo, hi)
        assert (dom.a, dom.b) == (lo, hi)
        for x in (lo, hi):
            assert 0.0 < x * x < math.inf and 0.0 < 1.0 / x ** 2 < math.inf
        assert 0.0 < ((hi - lo) / (lo * hi)) ** 2 < math.inf

    @pytest.mark.parametrize("a,b,name", [
        (math.nextafter(2.0 ** -511, 0.0), 1.0, "a"),
        (1.0, math.nextafter(2.0 ** 511, math.inf), "b"),
    ], ids=["a", "b"])
    def test_refuses_ends_outside_the_range(self, a, b, name):
        end = a if name == "a" else b
        with pytest.raises(DomainError, match=re.escape(f"end {name}={end!r} outside")):
            HarmonicDomain(a, b)


class TestHarmonicCombination:
    def test_harmonic_mean(self):
        assert harmonic_combination(1, 2, 0.5) == pytest.approx(4 / 3)

    def test_endpoints(self):
        assert harmonic_combination(1.3, 1.9, 0.0) == pytest.approx(1.3)
        assert harmonic_combination(1.3, 1.9, 1.0) == pytest.approx(1.9)

    def test_between_min_max(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            x, y = rng.uniform(0.1, 10, 2)
            t = rng.uniform()
            h = harmonic_combination(x, y, t)
            assert min(x, y) - 1e-12 <= h <= max(x, y) + 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            harmonic_combination(-1.0, 2.0, 0.5)


class TestHarmonicReflection:
    def test_endpoint_swap(self):
        assert reflect(DOM12, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert reflect(DOM12, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point(self):
        assert reflect(DOM12, 4 / 3) == pytest.approx(4 / 3, abs=1e-12)

    def test_involution(self):
        x = 1.7
        assert reflect(DOM12, reflect(DOM12, x)) == pytest.approx(x, abs=1e-12)

    def test_involution_dense(self):
        dom = HarmonicDomain(0.3, 5.5)
        for x in np.linspace(dom.a, dom.b, 100):
            assert reflect(dom, reflect(dom, x)) == pytest.approx(x, abs=1e-12)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            reflect(DOM12, 3.0)


class TestQuadraticFamily:
    def test_eval_at_one(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        assert f.eval(1.0) == Interval(1.0, 9.0)

    def test_eval_at_two(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        assert f.eval(2.0) == Interval(0.25, 9.75)

    def test_certificate_min_alpha_beta(self):
        assert make_quadratic_family(1, 1, 10, DOM12).claimed_modulus == 1.0
        assert make_quadratic_family(2, 3, 20, DOM12).claimed_modulus == 2.0

    def test_infeasible_K(self):
        with pytest.raises(FeasibilityError):
            make_quadratic_family(0.5, 1.0, 1.0, DOM12)

    @pytest.mark.parametrize("alpha,beta,K", [(NAN, 1.0, 10.0), (1.0, NAN, 10.0),
                                              (1.0, 1.0, NAN)],
                             ids=["alpha", "beta", "K"])
    def test_nan_parameter_rejected(self, alpha, beta, K):
        with pytest.raises(FeasibilityError):
            make_quadratic_family(alpha, beta, K, DOM12)

    def test_eval_outside_domain(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(DomainError):
            f.eval(0.5)


class TestDiscFamily:
    def test_eval_center_radius(self):
        dom = HarmonicDomain(0.9, 2.0)
        f = make_disc_family((1, 0), (0, 0), 2, 1, dom)
        # centre v/x + w = (1, 0), radius K - beta/x^2 = 1
        assert f.eval(1.0) == Disc((1.0, 0.0), 1.0)
        assert f.eval(2.0) == Disc((0.5, 0.0), 1.75)

    def test_infeasible_radius(self):
        with pytest.raises(FeasibilityError):
            make_disc_family((1, 0), (0, 0), 0.5, 1.0, DOM12)

    def test_certificate_beta(self):
        f = make_disc_family((1, 0), (0, 1), 3, 1, DOM12)
        assert f.claimed_modulus == 1.0

    @pytest.mark.parametrize("K,beta", [(NAN, 1.0), (3.0, NAN)], ids=["K", "beta"])
    def test_nan_parameter_rejected(self, K, beta):
        with pytest.raises(FeasibilityError):
            make_disc_family((1, 0), (0, 1), K, beta, DOM12)

    @pytest.mark.parametrize("grid_size", [3.5, 3.9, 64.5, NAN, math.inf, -math.inf, "7", True,
                                           None, 2, 2.0, 3, 64.0, np.int64(16), np.float64(7.0)],
                             ids=["3.5", "3.9", "64.5", "nan", "inf", "-inf", "str", "True",
                                  "None", "2", "2.0", "3", "64.0", "int64", "float64"])
    def test_grid_size_refused(self, grid_size):
        # the disc is decided exactly from its centre and radius, so it takes
        # no direction count: the factory has no such keyword, and a config
        # key is refused as unknown, whatever its value
        with pytest.raises(TypeError, match="grid_size"):
            make_disc_family((1, 0), (0, 1), 3, 1, DOM12, grid_size=grid_size)
        message = "unknown disc family key 'grid_size'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_family({"family": "disc", "v": [1, 0], "w": [0, 1], "K": 3.0, "beta": 1.0,
                          "a": 1.0, "b": 2.0, "grid_size": grid_size})
        assert "grid_size" not in make_disc_family((1, 0), (0, 1), 3, 1, DOM12).params()


class TestMakeFamily:
    """``make_family`` builds a family from the keys of its ``params()``
    alone and refuses any other key by name, in the CLI's words."""

    @pytest.mark.parametrize("make", [
        lambda: make_quadratic_family(0.7, 2.5, 13.0, DOM12),
        lambda: make_disc_family((0.75, -1.5), (0.2, 0.4), 9.0, 1.3, DOM12),
    ], ids=["quadratic", "disc"])
    @pytest.mark.parametrize("key", ["grid_size", "c", "v0", "alpah"])
    def test_unknown_key_refused(self, make, key):
        f = make()
        doc = f.params()
        assert make_family(doc).params() == doc
        message = f"unknown {f.family} family key {key!r}"
        with pytest.raises(FeasibilityError, match=re.escape(message)):
            make_family({**doc, key: 1.0})
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_family({**doc, key: 1.0})


def bound_draws(seed=15, count=8):
    """Seeded (kind, the factory's arguments but K, need) for quadratic and
    disc families, need being the bound on K as the explorer computes it."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        alpha, beta, a, width = rng.uniform([0.1, 0.1, 0.5, 0.5], [3.0, 3.0, 2.0, 2.0]).tolist()
        dom = HarmonicDomain(a, a + width)
        draws.append(("quadratic", (alpha, beta, dom), (alpha + beta) / a ** 2))
        v, w = rng.uniform(-1.0, 1.0, (2, 2))
        draws.append(("disc", (v, w, beta, dom), beta / a ** 2))
    return draws


BOUND_DRAWS = bound_draws()
BOUND_IDS = [f"{kind}-{i // 2}" for i, (kind, _, _) in enumerate(BOUND_DRAWS)]


def family_at(kind, args, K):
    if kind == "quadratic":
        alpha, beta, dom = args
        return make_quadratic_family(alpha, beta, K, dom)
    v, w, beta, dom = args
    return make_disc_family(v, w, K, beta, dom)


class TestFeasibilityMargin:
    """At K = need, F(a) is a single point (a zero radius) that rounding
    can invert, so each family wants K at least need (1 + 1e-12), the
    least K the explorer's repair gives it."""

    @pytest.mark.parametrize("kind,args,need", BOUND_DRAWS, ids=BOUND_IDS)
    def test_refused_at_the_bound(self, kind, args, need):
        with pytest.raises(FeasibilityError, match=f"K={need!r}"):
            family_at(kind, args, need)

    @pytest.mark.parametrize("kind,args,need", BOUND_DRAWS, ids=BOUND_IDS)
    def test_accepted_at_the_margin(self, kind, args, need):
        f = family_at(kind, args, need * (1.0 + 1e-12))
        ids = THEOREM_IDS if kind == "quadratic" else \
            [t for t in THEOREM_IDS if t not in ("thm33", "cor34", "thm35", "cor36")]
        for sampling in ("deterministic-stratified", "seeded-random"):
            grid = ConvexityGrid(pair_count=1024, sampling=sampling)
            assert len(run_theorems(f, ids, 0.25, grid, QuadratureSpec())) == len(ids)

    @pytest.mark.parametrize("kind", ["quadratic", "disc"])
    def test_a_squaring_to_zero(self, kind):
        # the domain refuses such an a before any family sees it
        args = (1.0, 1.0) if kind == "quadratic" else ((1, 0), (0, 1), 1.0)
        with pytest.raises(DomainError, match="a=1e-170"):
            family_at(kind, args + (HarmonicDomain(1e-170, 1.0),), 3.0)


    @pytest.mark.parametrize("kind", ["quadratic", "disc"])
    def test_least_K_overflowing(self, kind):
        # (alpha+beta)/a^2 = 6 2^1022 and beta/a^2 = 5 2^1022 overflow: the
        # bound is refused by naming a, not compared with K
        args = (3.0, 3.0) if kind == "quadratic" else ((1, 0), (0, 1), 5.0)
        with pytest.raises(FeasibilityError, match=re.escape(f"a={2.0 ** -511!r}")):
            family_at(kind, args + (HarmonicDomain(2.0 ** -511, 1.0),), 1e300)


class TestReciprocalTransform:
    def test_closed_form(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = reciprocal_transform(f)
        assert g.domain.a == pytest.approx(0.5)
        assert g.domain.b == pytest.approx(1.0)
        u = 0.7
        expect = Interval(u ** 2, 10 - u ** 2)
        assert hausdorff(g.eval(u), expect) <= 1e-14

    def test_endpoint_correspondence(self):
        f = make_quadratic_family(2, 3, 20, DOM12)
        g = reciprocal_transform(f)
        assert hausdorff(g.eval(1.0 / DOM12.a), f.eval(DOM12.a)) == 0.0

    def test_involution(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        back = reciprocal_transform(reciprocal_transform(f))
        assert back is f
        assert hausdorff(back.eval(1.5), f.eval(1.5)) <= 1e-15

    def test_round_trip_on_grid(self):
        f = make_quadratic_family(1.5, 0.7, 12, HarmonicDomain(0.8, 3.1))
        back = reciprocal_transform(reciprocal_transform(f))
        for x in np.linspace(f.domain.a, f.domain.b, 100):
            assert hausdorff(back.eval(x), f.eval(x)) <= 1e-15


def same_bits(a, b):
    """Equal shapes and float64 bit patterns, so -0.0 differs from 0.0 and
    NaNs compare by payload."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_POINTS = np.concatenate(([1.0, 2.0, 1.5, 1.0 + 2.0 ** -52],
                          np.random.default_rng(8).uniform(1.0, 2.0, 400)))


class TestLayoutBitForBit:
    """The families and ``CShiftFn`` write whole arrays in place; their
    values are bit for bit those of the column-stacking and broadcasting
    expressions they replace."""

    @pytest.mark.parametrize("alpha,beta,K", [(1.0, 1.0, 10.0), (0.7, 2.5, 13.0),
                                              (-0.5, 0.0, -0.0), (3.0, -1.25, 0.5)])
    def test_quadratic(self, alpha, beta, K):
        f = QuadraticIntervalFn(alpha, beta, K, DOM12)
        for xs in (_POINTS, _POINTS[:1], _POINTS[:0]):
            inv2 = 1.0 / (xs ** 2)
            assert same_bits(f.eval_vector(xs),
                             np.column_stack([alpha * inv2, K - beta * inv2]))

    @pytest.mark.parametrize("v,w,K,beta", [((0.75, -1.5), (0.2, 0.4), 9.0, 1.3),
                                            ((-0.0, 2.0), (0.0, -0.25), 4.0, 0.5)])
    def test_disc(self, v, w, K, beta):
        f = make_disc_family(v, w, K, beta, DOM12)
        for n in (5, 300, 7, 1, 404, 0, 64):
            xs = _POINTS[:n]
            inv = 1.0 / xs
            assert same_bits(f.eval_vector(xs), np.column_stack(
                [v[0] * inv + w[0], v[1] * inv + w[1], K - beta * (inv * inv)])), n

    @pytest.mark.parametrize("kind,channels", [("interval", 2), ("support", 5)])
    @pytest.mark.parametrize("c", [0.25, 0.5, 3.0])
    def test_cshift(self, kind, channels, c):
        vals = np.random.default_rng(9).normal(size=(_POINTS.size, channels))
        vals[::3] = 0.0
        vals[1::3, 0] = -0.0
        vals[2::7] = np.nan
        before = vals.copy()
        expected = vals.copy()
        r = c / _POINTS ** 2
        if kind == "interval":
            expected[:, 0] -= r
            expected[:, 1] += r
        else:
            expected += r[:, None]
        assert same_bits(CShiftFn(Tabled(vals, kind), c).eval_vector(_POINTS), expected)
        assert same_bits(vals, before)


class Tabled(SetValuedFn):
    """A map whose values at _POINTS are the given array itself."""

    def __init__(self, vals, kind):
        self.vals, self.kind = vals, kind
        self.domain, self.claimed_modulus, self.grid_size = DOM12, None, vals.shape[1]

    def eval_vector(self, xs, out=None):
        assert xs is _POINTS
        if out is None:
            return self.vals
        out[...] = self.vals.T
        return out


def _sampled(kind):
    xp = np.linspace(1.0, 2.0, 9)
    channels = 2 if kind == "interval" else 5
    return SampledFn(xp, np.column_stack([np.cos(k * xp) + k for k in range(channels)]), DOM12,
                     kind=kind)


# a family of every class in svf, a support family among them
OUT_FAMILIES = {
    "quadratic": lambda: make_quadratic_family(0.7, 2.5, 13.0, DOM12),
    "disc": lambda: make_disc_family((0.75, -1.5), (0.2, 0.4), 9.0, 1.3, DOM12),
    "sampled-interval": lambda: _sampled("interval"),
    "sampled-support": lambda: _sampled("support"),
    "reciprocal-disc": lambda: reciprocal_transform(OUT_FAMILIES["disc"]()),
    "reciprocal-support": lambda: reciprocal_transform(_sampled("support")),
    "cshift-quadratic": lambda: CShiftFn(OUT_FAMILIES["quadratic"](), 0.5),
    "cshift-support": lambda: CShiftFn(_sampled("support"), 3.0),
}


class TestOutRows:
    """``eval_vector(xs, out=rows)`` writes into the caller's (channels, n)
    rows, wherever they sit in a wider array, bit for bit what
    ``eval_vector(xs).T`` holds, and returns ``rows``."""

    @staticmethod
    def layouts(channels, n):
        # rows of a wider array: its first rows, rows inside it, and rows
        # strided both ways; then the columns of an (n, channels) array
        for rows in (np.s_[:channels, :n], np.s_[1:1 + channels, 2:2 + n],
                     np.s_[1::2, 1::3]):
            wide = np.full((2 * channels + 1, 3 * n + 2), -7.5)
            yield wide[rows][:channels, :n], wide
        yield np.empty((n, channels)).T, None

    @pytest.mark.parametrize("name", list(OUT_FAMILIES))
    def test_rows_are_the_values(self, name):
        f = OUT_FAMILIES[name]()
        pts = _POINTS.copy()
        pts[5::17] = np.nan
        if name.startswith("reciprocal"):
            pts = 1.0 / pts
        for xs in (pts, pts[:1], pts[:0]):
            want = f.eval_vector(xs).T
            for rows, wide in self.layouts(want.shape[0], xs.size):
                assert f.eval_vector(xs, out=rows) is rows
                assert same_bits(rows, want), name
                if wide is not None:
                    # nothing outside the rows was written
                    rows[...] = -7.5
                    assert (wide == -7.5).all()


class TestWiden:
    """``widen`` is the one ball-widening rule: in place on (channels, n)
    rows, one ball radius per column."""

    R = np.array([0.5, 0.0, 2.0 ** -30, 3.0])

    def rows(self, channels):
        return np.random.default_rng(12).normal(size=(channels, self.R.size))

    def test_interval_ends(self):
        rows = self.rows(2)
        before = rows.copy()
        assert widen(rows, self.R, "interval") is rows
        assert same_bits(rows, np.vstack((before[0] - self.R, before[1] + self.R)))

    def test_every_support_row(self):
        rows = self.rows(5)
        before = rows.copy()
        assert widen(rows, self.R, "support") is rows
        assert same_bits(rows, before + self.R)

    def test_disc_radius_row_alone(self):
        # a disc's radius row rises, its centre rows stay as they are
        rows = self.rows(3)
        before = rows.copy()
        assert widen(rows, self.R, "disc") is rows
        assert same_bits(rows[:-1], before[:-1])
        assert same_bits(rows[-1], before[-1] + self.R)

    @pytest.mark.parametrize("make", [
        lambda: make_quadratic_family(0.7, 2.5, 13.0, DOM12),
        lambda: make_disc_family((0.75, -1.5), (0.2, 0.4), 9.0, 1.3, DOM12),
    ], ids=["interval", "disc"])
    @pytest.mark.parametrize("c", [0.25, 3.0])
    def test_cshift_is_the_base_widened(self, make, c):
        f = make()
        want = f.eval_vector(_POINTS)
        widen(want.T, c / _POINTS ** 2, f.kind)
        assert same_bits(CShiftFn(f, c).eval_vector(_POINTS), want)


class TestCShift:
    def test_endpoint_arithmetic(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = CShiftFn(f, 1.0)
        assert g.eval(1.0) == Interval(0.0, 10.0)

    def test_tiny_shift_near_identity(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        g = CShiftFn(f, 1e-14)
        assert hausdorff(g.eval(1.5), f.eval(1.5)) <= 1e-13

    def test_disc_radius_grows(self):
        f = make_disc_family((1, 0), (0, 1), 3, 1, DOM12)
        g = CShiftFn(f, 0.5)
        x = 1.25
        assert g.eval(x).center == f.eval(x).center
        assert g.eval(x).radius == pytest.approx(f.eval(x).radius + 0.5 / x ** 2, rel=1e-15)

    def test_rejects_nonpositive(self):
        f = make_quadratic_family(1, 1, 10, DOM12)
        with pytest.raises(ParameterError):
            CShiftFn(f, 0.0)


class TestSampledInterpolation:
    """SampledFn interpolates bit for bit as np.interp does channel by
    channel, at the knots, past the ends and where values are infinite."""

    @staticmethod
    def per_channel(xp, fp, xs):
        return np.column_stack([np.interp(xs, xp, fp[:, j]) for j in range(fp.shape[1])])

    def assert_bitwise(self, xp, fp, xs):
        got = SampledFn(xp, fp, DOM12, kind="support").eval_vector(xs)
        want = self.per_channel(xp, fp, xs)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_random_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            xp = np.unique(rng.uniform(1.0, 2.0, n))
            fp = rng.normal(size=(xp.size, 5)) * 10.0 ** rng.integers(-3, 4)
            xs = np.concatenate([rng.uniform(0.8, 2.2, 40), xp])
            self.assert_bitwise(xp, fp, xs)

    def test_clamped_outside_and_last_knot(self):
        xp = np.array([1.0, 1.25, 1.5, 2.0])
        fp = np.array([[1.0, -0.0, 3.0], [2.0, 0.5, -1.0], [-4.0, 0.25, 0.0], [5.0, -0.0, 7.0]])
        xs = np.array([0.5, 1.0 - 1e-16, 1.0, 1.25, 1.3, 2.0, 2.0 + 1e-15, 3.0, -np.inf, np.inf])
        self.assert_bitwise(xp, fp, xs)
        got = SampledFn(xp, fp, DOM12, kind="support").eval_vector(xs)
        assert np.array_equal(got[[5, 6, 7, 9]], fp[[-1, -1, -1, -1]])  # fp[-1] at and past xp[-1]
        assert np.array_equal(got[[0, 1, 8]], fp[[0, 0, 0]])

    def test_nan_fallbacks(self):
        # a NaN point gives NaN; a piece whose left-end form is NaN (-inf + inf)
        # is taken from its right end; an infinite flat piece keeps its value
        xp = np.array([1.0, 1.5, 2.0])
        fp = np.array([[-np.inf, np.inf, 1.0], [1.0, np.inf, 2.0], [2.0, 3.0, 1e308]])
        xs = np.array([np.nan, 1.2, 1.7, 1.5, 2.0])
        self.assert_bitwise(xp, fp, xs)
        got = SampledFn(xp, fp, DOM12, kind="support").eval_vector(xs)
        assert np.isnan(got[0]).all()
        assert got[1, 0] == -np.inf and got[1, 1] == np.inf

    def test_single_knot(self):
        xp, fp = np.array([1.5]), np.array([[1.0, 2.0, -0.0]])
        self.assert_bitwise(xp, fp, np.array([1.0, 1.5, 2.0, np.nan]))


class TestEndpointModuli:
    """Scalar strongly-harmonic-convex checks of the family endpoints."""

    def test_lower_endpoint_modulus_alpha(self):
        rng = np.random.default_rng(42)
        alpha = 1.7
        f = lambda x: alpha / x ** 2
        for _ in range(10_000):
            x, y = rng.uniform(1.0, 2.0, 2)
            t = rng.uniform()
            h = harmonic_combination(x, y, t)
            lhs = f(h)
            rhs = t * f(y) + (1 - t) * f(x) - alpha * t * (1 - t) * ((x - y) / (x * y)) ** 2
            assert lhs <= rhs + 1e-12

    def test_upper_endpoint_concave_modulus_beta(self):
        rng = np.random.default_rng(43)
        beta, K = 2.3, 25.0
        f = lambda x: K - beta / x ** 2
        for _ in range(10_000):
            x, y = rng.uniform(1.0, 2.0, 2)
            t = rng.uniform()
            h = harmonic_combination(x, y, t)
            lhs = f(h)
            rhs = t * f(y) + (1 - t) * f(x) + beta * t * (1 - t) * ((x - y) / (x * y)) ** 2
            assert lhs >= rhs - 1e-12


def test_polynomial_under_reciprocal_flags():
    f = make_quadratic_family(1, 1, 10, DOM12)
    assert f.polynomial_in_u
    assert CShiftFn(f, 0.5).polynomial_in_u
    assert make_disc_family((1, 0), (0, 1), 3, 1, DOM12).polynomial_in_u
    sampled = SampledFn([1.0, 2.0], np.array([[0.0, 1.0], [0.0, 1.0]]), DOM12)
    assert not sampled.polynomial_in_u
    assert not CShiftFn(sampled, 0.5).polynomial_in_u
    assert not reciprocal_transform(f).polynomial_in_u
