"""Set-valued function model.

Domains over (0, inf), harmonic combinations and reflections, seeded
function families with closed-form evaluation, and the two structural
transforms (reciprocal substitution and the modulus shift by a scaled
ball).

Families are closed-form descriptors rather than opaque callables so the
integration layer can recognize integrands that become low-degree
polynomials under the substitution u = 1/x.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .set_core import (
    DEFAULT_GRID_SIZE,
    ConvexSet,
    Interval,
    SupportSet,
    directions,
    hausdorff,
)

_DOMAIN_RTOL = 1e-12


class DomainError(ValueError):
    """Point lies outside the function's domain (or domain is invalid)."""


class FeasibilityError(ValueError):
    """Family parameters violate the family's feasibility conditions."""


class ParameterError(ValueError):
    """A transform parameter is out of range."""


@dataclass(frozen=True)
class HarmonicDomain:
    """Interval [a, b] with 0 < a < b.

    Carries the harmonic midpoint 2ab/(a+b) and the harmonic reflection
    theta(x) = abx / ((a+b)x - ab), the involution of [a, b] that swaps
    the endpoints and fixes the harmonic midpoint.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        if not (0.0 < a < b):
            raise DomainError(f"domain needs 0 < a < b, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def harmonic_midpoint(self) -> float:
        return 2.0 * self.a * self.b / (self.a + self.b)

    def contains(self, x: float) -> bool:
        pad = _DOMAIN_RTOL * (1.0 + abs(self.a) + abs(self.b))
        return self.a - pad <= x <= self.b + pad

    def reflect(self, x: float) -> float:
        if not self.contains(x):
            raise DomainError(f"{x} outside [{self.a}, {self.b}]")
        a, b = self.a, self.b
        return a * b * x / ((a + b) * x - a * b)


def harmonic_combination(x: float, y: float, t: float) -> float:
    """xy / (tx + (1-t)y); equals y at t=1 and x at t=0."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError("harmonic combinations need positive arguments")
    return x * y / (t * x + (1.0 - t) * y)


def harmonic_reflection(dom: HarmonicDomain, x: float) -> float:
    """theta(x) = abx / ((a+b)x - ab) on [a, b]."""
    return dom.reflect(x)


@dataclass(frozen=True)
class FamilyCertificate:
    """Claimed strong harmonic convexity modulus with the parameter basis."""

    claimed_modulus: float
    basis: str


class SetValuedFn(abc.ABC):
    """A set-valued map on a HarmonicDomain.

    ``eval_vector`` is the workhorse: it maps an array of n points to an
    (n, 2) array of interval endpoints (interval kind) or an (n, M) array
    of support values (support kind).  ``eval`` wraps a single point into
    a ConvexSet.
    """

    domain: HarmonicDomain
    kind: str  # "interval" | "support"
    certificate: Optional[FamilyCertificate]

    @abc.abstractmethod
    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at points xs (assumed inside the domain)."""

    @property
    def grid_size(self) -> int:
        return DEFAULT_GRID_SIZE

    def _check_in_domain(self, xs: np.ndarray) -> None:
        dom = self.domain
        pad = _DOMAIN_RTOL * (1.0 + abs(dom.a) + abs(dom.b))
        if np.any(xs < dom.a - pad) or np.any(xs > dom.b + pad):
            bad = xs[(xs < dom.a - pad) | (xs > dom.b + pad)]
            raise DomainError(f"point {bad.flat[0]} outside [{dom.a}, {dom.b}]")

    def eval(self, x: float) -> ConvexSet:
        xs = np.asarray([float(x)])
        self._check_in_domain(xs)
        row = self.eval_vector(xs)[0]
        if self.kind == "interval":
            return Interval(row[0], row[1])
        return SupportSet(tuple(row))


class QuadraticIntervalFn(SetValuedFn):
    """F(x) = [alpha/x^2, K - beta/x^2] on [a, b].

    Under u = 1/x the endpoints become alpha*u^2 and K - beta*u^2, the
    canonical strongly convex / strongly concave quadratic pair, so the
    family is strongly harmonic convex with modulus min(alpha, beta).
    """

    kind = "interval"

    def __init__(self, alpha: float, beta: float, K: float, domain: HarmonicDomain,
                 certificate: Optional[FamilyCertificate] = None):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.K = float(K)
        self.domain = domain
        self.certificate = certificate

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        inv2 = 1.0 / (np.asarray(xs, dtype=float) ** 2)
        return np.column_stack([self.alpha * inv2, self.K - self.beta * inv2])

    def params(self) -> dict:
        return {"family": "quadratic-interval", "alpha": self.alpha,
                "beta": self.beta, "K": self.K,
                "a": self.domain.a, "b": self.domain.b}


class DiscFn(SetValuedFn):
    """F(x) = {v/x + w} (+) (K - beta/x^2) * B in R^2, support representation.

    Per direction u the support value is <v,u>/x + <w,u> + K - beta/x^2:
    linear plus a concave quadratic in 1/x, so the family is strongly
    harmonic convex with modulus beta.
    """

    kind = "support"

    def __init__(self, v: Sequence[float], w: Sequence[float], K: float, beta: float,
                 domain: HarmonicDomain, grid_size: int = DEFAULT_GRID_SIZE,
                 certificate: Optional[FamilyCertificate] = None):
        self.v = np.asarray(v, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if self.v.shape != (2,) or self.w.shape != (2,):
            raise FeasibilityError("disc family needs 2-vectors v, w")
        self.K = float(K)
        self.beta = float(beta)
        self.domain = domain
        self._grid_size = int(grid_size)
        self._dirs = directions(self._grid_size)
        self.certificate = certificate

    @property
    def grid_size(self) -> int:
        return self._grid_size

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        inv = 1.0 / xs
        vu = self._dirs @ self.v  # (M,)
        wu = self._dirs @ self.w
        radius = self.K - self.beta * inv ** 2  # (n,)
        return inv[:, None] * vu[None, :] + wu[None, :] + radius[:, None]

    def params(self) -> dict:
        return {"family": "disc", "v": list(self.v), "w": list(self.w),
                "K": self.K, "beta": self.beta,
                "a": self.domain.a, "b": self.domain.b,
                "grid_size": self._grid_size}


class SampledFn(SetValuedFn):
    """Custom-sampled family: precomputed sets on a grid, linear interpolation.

    Carries no certificate; intended for the explorer and for symmetry
    experiments.
    """

    def __init__(self, xs: Sequence[float], values: np.ndarray, domain: HarmonicDomain,
                 kind: str = "interval"):
        self._xs = np.asarray(xs, dtype=float)
        self._values = np.asarray(values, dtype=float)
        if self._xs.ndim != 1 or self._values.shape[0] != self._xs.shape[0]:
            raise FeasibilityError("sampled family needs one value row per grid point")
        if np.any(np.diff(self._xs) <= 0):
            raise FeasibilityError("sample grid must be strictly increasing")
        self.domain = domain
        self.kind = kind
        self.certificate = None

    @property
    def grid_size(self) -> int:
        if self.kind == "support":
            return self._values.shape[1]
        return DEFAULT_GRID_SIZE

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.empty((xs.shape[0], self._values.shape[1]))
        for j in range(self._values.shape[1]):
            out[:, j] = np.interp(xs, self._xs, self._values[:, j])
        return out


class ReciprocalFn(SetValuedFn):
    """G(u) = F(1/u) on [1/b, 1/a]."""

    def __init__(self, base: SetValuedFn):
        self.base = base
        self.domain = HarmonicDomain(1.0 / base.domain.b, 1.0 / base.domain.a)
        self.kind = base.kind
        self.certificate = base.certificate

    @property
    def grid_size(self) -> int:
        return self.base.grid_size

    def eval_vector(self, us: np.ndarray) -> np.ndarray:
        return self.base.eval_vector(1.0 / np.asarray(us, dtype=float))


class CShiftFn(SetValuedFn):
    """G(x) = F(x) (+) (c/x^2) * B."""

    def __init__(self, base: SetValuedFn, c: float):
        if c <= 0.0:
            raise ParameterError(f"shift modulus must be positive, got {c}")
        self.base = base
        self.c = float(c)
        self.domain = base.domain
        self.kind = base.kind
        self.certificate = None

    @property
    def grid_size(self) -> int:
        return self.base.grid_size

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        vals = self.base.eval_vector(xs).copy()
        r = self.c / xs ** 2
        if self.kind == "interval":
            vals[:, 0] -= r
            vals[:, 1] += r
        else:
            vals += r[:, None]
        return vals


def reciprocal_transform(f: SetValuedFn) -> SetValuedFn:
    """G(u) = F(1/u) on [1/b, 1/a]; applying it twice returns the original."""
    if isinstance(f, ReciprocalFn):
        return f.base
    return ReciprocalFn(f)


def c_shift(f: SetValuedFn, c: float) -> SetValuedFn:
    """F(x) (+) (c/x^2) B; turns a modulus-c function into a plain harmonic convex one."""
    return CShiftFn(f, c)


def c_unshift(g: SetValuedFn, c: float) -> SetValuedFn:
    """Inverse of c_shift; unwraps a matching shift exactly."""
    if isinstance(g, CShiftFn) and g.c == c:
        return g.base
    raise ParameterError("c_unshift only undoes a matching c_shift")


def is_harmonic_symmetric(f: SetValuedFn, dom: HarmonicDomain, grid: int, tol: float) -> bool:
    """True iff F(x) and F(theta(x)) agree within tol at all grid points."""
    xs = np.linspace(dom.a, dom.b, int(grid))
    for x in xs:
        if hausdorff(f.eval(x), f.eval(dom.reflect(x))) > tol:
            return False
    return True


def make_quadratic_family(alpha: float, beta: float, K: float,
                          dom: HarmonicDomain) -> QuadraticIntervalFn:
    """Certified quadratic interval family [alpha/x^2, K - beta/x^2]."""
    alpha, beta, K = float(alpha), float(beta), float(K)
    if alpha <= 0.0 or beta <= 0.0:
        raise FeasibilityError("quadratic family needs alpha > 0 and beta > 0")
    need = (alpha + beta) / dom.a ** 2
    if K < need:
        raise FeasibilityError(
            f"quadratic family infeasible: K={K} < (alpha+beta)/a^2 = {need}")
    cert = FamilyCertificate(
        claimed_modulus=min(alpha, beta),
        basis="endpoint moduli alpha (lower) and beta (upper) under u=1/x",
    )
    return QuadraticIntervalFn(alpha, beta, K, dom, certificate=cert)


def make_disc_family(v: Sequence[float], w: Sequence[float], K: float, beta: float,
                     dom: HarmonicDomain,
                     grid_size: int = DEFAULT_GRID_SIZE) -> DiscFn:
    """Certified disc family {v/x + w} (+) (K - beta/x^2) B."""
    K, beta = float(K), float(beta)
    if beta <= 0.0:
        raise FeasibilityError("disc family needs beta > 0")
    need = beta / dom.a ** 2
    if K < need:
        raise FeasibilityError(f"disc family infeasible: K={K} < beta/a^2 = {need}")
    cert = FamilyCertificate(
        claimed_modulus=beta,
        basis="radius quadratic beta under u=1/x; center term linear in u",
    )
    return DiscFn(v, w, K, beta, dom, grid_size=grid_size, certificate=cert)


def polynomial_under_reciprocal(f: SetValuedFn) -> bool:
    """True when every endpoint/support channel of F(1/u) is polynomial in u."""
    if isinstance(f, (QuadraticIntervalFn, DiscFn)):
        return True
    if isinstance(f, CShiftFn):
        return polynomial_under_reciprocal(f.base)
    return False
