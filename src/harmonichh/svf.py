"""Set-valued function model.

Domains inside [2^-511, 2^511], which admit a point up to a pad of
1e-12 (a + b), relative however small the domain, seeded function
families with closed-form evaluation, and the two structural transforms
(reciprocal substitution and the modulus shift by a scaled ball).

The two certified families' rules are stated once, from their moduli:
``family_rule`` (positive moduli, the numerator of the least K, the
certified modulus) and ``least_K``.  Their factories and the search both
call them.  A family's ``polynomial_in_u`` flag tells the integration
layer that each channel of F(1/u) is a polynomial in u.  Both certified
families state F(1/u) through one method, ``rows_in_u``, which the grid
checks work in: the quadratic family as its two ends, the disc family as
per-point coefficients on a fixed ``basis``.  ``make_family`` builds a
certified family from its descriptor, the layout of its ``params()``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .set_core import (
    DEFAULT_GRID_SIZE,
    ConvexSet,
    as_set,
    basis_product,
    directions,
)

_DOMAIN_RTOL = 1e-12
# Ends a domain keeps to, a range closed under x -> 1/x: inside it the
# integral pass's ab and ((b-a)/(ab))^2, and x^2 and 1/x^2 in eval_vector,
# are finite and nonzero.  (The grid pass works in u = 1/x and forms no xy.)
_END_MIN, _END_MAX = 2.0 ** -511, 2.0 ** 511
# Relative margin a family's K keeps above its feasibility bound: at the
# bound F(a) is a single point, which rounding can invert.
FEASIBILITY_RTOL = 1e-12


class DomainError(ValueError):
    """Point lies outside the function's domain (or domain is invalid)."""


class FeasibilityError(ValueError):
    """Family parameters violate the family's feasibility conditions."""


class ParameterError(ValueError):
    """A transform parameter is out of range."""


@dataclass(frozen=True)
class HarmonicDomain:
    """Interval [a, b] with 2^-511 <= a < b <= 2^511, carrying the harmonic
    midpoint 2ab/(a+b).  An end outside that range is refused by name."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        if not (0.0 < a < b < np.inf):
            raise DomainError(f"domain needs 0 < a < b < inf, got [{a}, {b}]")
        for name, end in (("a", a), ("b", b)):
            if not (_END_MIN <= end <= _END_MAX):
                raise DomainError(f"domain end {name}={end!r} outside [2**-511, 2**511]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def harmonic_midpoint(self) -> float:
        return 2.0 * self.a * self.b / (self.a + self.b)

    def contains(self, x):
        """Whether x lies in [a, b] up to a pad of 1e-12 (a + b), relative
        to the domain however small it is; elementwise for an array."""
        pad = _DOMAIN_RTOL * (self.a + self.b)
        return (self.a - pad <= x) & (x <= self.b + pad)


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
    grid_size: int = DEFAULT_GRID_SIZE
    polynomial_in_u: bool = False  # every channel of F(1/u) is a polynomial in u
    # the (k, M) basis of a support family whose rows_in_u are per-point
    # coefficients (DiscFn); None for a family stated by its values
    basis: Optional[np.ndarray] = None
    # rows_in_u(u, u2, out): F(1/u) at the points u from u and their squares
    # u2, one row of ``out`` per channel: an interval's two ends, or a
    # coefficient family's coefficients on ``basis``; None for a family the
    # grid checks evaluate at x
    rows_in_u: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    @abc.abstractmethod
    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at points xs (assumed inside the domain)."""

    def _check_in_domain(self, xs: np.ndarray) -> None:
        inside = self.domain.contains(xs)
        if not np.all(inside):
            dom = self.domain
            raise DomainError(f"point {xs[~inside].flat[0]} outside [{dom.a}, {dom.b}]")

    def eval(self, x: float) -> ConvexSet:
        xs = np.asarray([float(x)])
        self._check_in_domain(xs)
        return as_set(self.eval_vector(xs)[0], self.kind)


class QuadraticIntervalFn(SetValuedFn):
    """F(x) = [alpha/x^2, K - beta/x^2] on [a, b].

    Under u = 1/x the endpoints become alpha*u^2 and K - beta*u^2, the
    canonical strongly convex / strongly concave quadratic pair, so the
    family is strongly harmonic convex with modulus min(alpha, beta).
    """

    kind = "interval"
    polynomial_in_u = True

    def __init__(self, alpha: float, beta: float, K: float, domain: HarmonicDomain,
                 certificate: Optional[FamilyCertificate] = None):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.K = float(K)
        self.domain = domain
        self.certificate = certificate

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        inv2 = np.asarray(xs, dtype=float) ** 2
        np.divide(1.0, inv2, out=inv2)
        out = np.empty((inv2.size, 2))
        np.multiply(self.alpha, inv2, out=out[:, 0])
        hi = out[:, 1]
        np.multiply(self.beta, inv2, out=hi)
        np.subtract(self.K, hi, out=hi)
        return out

    def rows_in_u(self, u: np.ndarray, u2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """F(1/u) = [alpha u^2, K - beta u^2] from the squares ``u2`` of the
        points u, lower ends into out[0] and upper ends into out[1]; returns
        ``out``, shaped (2, n)."""
        np.multiply(self.alpha, u2, out=out[0])
        hi = out[1]
        np.multiply(self.beta, u2, out=hi)
        np.subtract(self.K, hi, out=hi)
        return out

    def params(self) -> dict:
        return {"family": "quadratic-interval", "alpha": self.alpha,
                "beta": self.beta, "K": self.K,
                "a": self.domain.a, "b": self.domain.b}


class DiscFn(SetValuedFn):
    """F(x) = {v/x + w} (+) (K - beta/x^2) * B in R^2, support representation.

    In direction e the support value is <v,e>u + <w,e> + K - beta u^2 with
    u = 1/x: linear plus a concave quadratic in u, so the family is strongly
    harmonic convex with modulus beta.  The family states itself once, as
    the coefficients [u, 1, K - beta u^2] of each point (``rows_in_u``) on
    the (3, M) ``basis`` [<v,e>; <w,e>; 1].  The basis's last row is the
    support of the unit ball, so a ball of radius r adds r to a point's
    last coefficient.  ``eval_vector`` is their ``basis_product``.
    """

    kind = "support"
    polynomial_in_u = True

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
        self.grid_size = int(grid_size)
        dirs = directions(self.grid_size)
        self.basis = np.vstack((dirs @ self.v, dirs @ self.w, np.ones(self.grid_size)))
        self.certificate = certificate

    def rows_in_u(self, u: np.ndarray, u2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The coefficients [u, 1, K - beta u^2] on ``basis`` of the points
        u, from u and their squares ``u2``, as the rows of ``out``; returns
        ``out``, shaped (3, n)."""
        out[0] = u
        out[1] = 1.0
        np.multiply(self.beta, u2, out=out[2])
        np.subtract(self.K, out[2], out=out[2])
        return out

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        """<v,e>/x + <w,e> + K - beta/x^2 per direction e: the basis product
        of the coefficients at u = 1/x."""
        us = 1.0 / np.asarray(xs, dtype=float)
        coefs = self.rows_in_u(us, us * us, np.empty((3, us.size))).T
        return basis_product(coefs, self.basis, np.empty((us.size, self.grid_size)))

    def params(self) -> dict:
        return {"family": "disc", "v": list(self.v), "w": list(self.w),
                "K": self.K, "beta": self.beta,
                "a": self.domain.a, "b": self.domain.b,
                "grid_size": self.grid_size}


class SampledFn(SetValuedFn):
    """Custom-sampled family: precomputed sets on a grid, linear interpolation.

    Carries no certificate, and no config builds one; the tests use it as
    a generic family.
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
        if kind == "support":
            self.grid_size = self._values.shape[1]

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        """Linear interpolation, np.interp on each channel: the value at a
        knot as sampled, the end values past the ends, NaN at NaN."""
        xs = np.asarray(xs, dtype=float)
        return np.column_stack([np.interp(xs, self._xs, self._values[:, j])
                                for j in range(self._values.shape[1])])


class ReciprocalFn(SetValuedFn):
    """G(u) = F(1/u) on [1/b, 1/a]."""

    def __init__(self, base: SetValuedFn):
        self.base = base
        self.domain = HarmonicDomain(1.0 / base.domain.b, 1.0 / base.domain.a)
        self.kind = base.kind
        self.certificate = base.certificate
        self.grid_size = base.grid_size

    def eval_vector(self, us: np.ndarray) -> np.ndarray:
        return self.base.eval_vector(1.0 / np.asarray(us, dtype=float))


class CShiftFn(SetValuedFn):
    """G(x) = F(x) (+) (c/x^2) * B; turns a modulus-c function into a plain
    harmonic convex one."""

    def __init__(self, base: SetValuedFn, c: float):
        if c <= 0.0:
            raise ParameterError(f"shift modulus must be positive, got {c}")
        self.base = base
        self.c = float(c)
        self.domain = base.domain
        self.kind = base.kind
        self.certificate = None
        self.grid_size = base.grid_size
        self.polynomial_in_u = base.polynomial_in_u

    def eval_vector(self, xs: np.ndarray) -> np.ndarray:
        """F's values at ``xs`` widened by the balls of radius c/x^2, in a
        fresh array."""
        xs = np.asarray(xs, dtype=float)
        vals = self.base.eval_vector(xs)
        return widen(vals, self.c / xs ** 2, self.kind, np.empty_like(vals))


def widen(vals: np.ndarray, r: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    """Widen each row of the (n, channels) values ``vals`` by the ball of
    radius r[i] into ``out``, which may be ``vals``, and return ``out``: the
    lower endpoint of an interval moves down by r[i], the upper one and
    every support value up.  A support row adds r[i] repeated across its
    channels, one (n, channels) operand rather than one broadcast per row."""
    if kind == "interval":
        np.subtract(vals[:, 0], r, out=out[:, 0])
        np.add(vals[:, 1], r, out=out[:, 1])
    else:
        np.add(vals, r.repeat(vals.shape[1]).reshape(vals.shape), out=out)
    return out


def reciprocal_transform(f: SetValuedFn) -> SetValuedFn:
    """G(u) = F(1/u) on [1/b, 1/a]; applying it twice returns the original."""
    if isinstance(f, ReciprocalFn):
        return f.base
    return ReciprocalFn(f)


# Each certified family's moduli, the u^2 coefficients of its channels in u = 1/x
FAMILY_MODULI = {"quadratic-interval": ("alpha", "beta"), "disc": ("beta",)}


def family_rule(kind: str, params) -> tuple:
    """(top, modulus) of a certified family of kind ``kind`` from its moduli
    in ``params``, a mapping by name: each must be positive, top, the
    numerator of least_K, is their sum and the modulus their least."""
    names = FAMILY_MODULI.get(kind)
    if names is None:
        raise FeasibilityError(f"unknown family kind: {kind!r}")
    moduli = [params[name] for name in names]
    for name, modulus in zip(names, moduli):
        if not (modulus > 0.0):  # also rejects NaN
            raise FeasibilityError(f"{kind} family needs {name} > 0")
    return sum(moduli), min(moduli)


def least_K(top: float, a: float) -> float:
    """The least K of a certified family on [a, b], (1 + FEASIBILITY_RTOL)
    top/a^2 in Python floats, so that an overflow raises no numpy warning
    and is refused by naming a."""
    least = float(top) / float(a) ** 2 * (1.0 + FEASIBILITY_RTOL)
    if least == np.inf:
        raise FeasibilityError(f"least K (1 + {FEASIBILITY_RTOL}) {top}/a^2 overflows at a={a!r}")
    return least


def _certificate(kind: str, moduli: dict, K: float, dom: HarmonicDomain) -> FamilyCertificate:
    """The certificate of a family whose rule holds and whose K is at least
    its least K on ``dom``."""
    top, modulus = family_rule(kind, moduli)
    least = least_K(top, dom.a)
    if not (K >= least):  # also rejects NaN
        raise FeasibilityError(f"{kind} family infeasible: K={K} < (1 + {FEASIBILITY_RTOL}) "
                               f"({'+'.join(moduli)})/a^2 = {least}")
    return FamilyCertificate(modulus, f"least of the moduli {', '.join(moduli)} under u=1/x")


def make_quadratic_family(alpha: float, beta: float, K: float,
                          dom: HarmonicDomain) -> QuadraticIntervalFn:
    """Certified quadratic interval family [alpha/x^2, K - beta/x^2]."""
    alpha, beta, K = float(alpha), float(beta), float(K)
    cert = _certificate("quadratic-interval", {"alpha": alpha, "beta": beta}, K, dom)
    return QuadraticIntervalFn(alpha, beta, K, dom, certificate=cert)


def make_disc_family(v: Sequence[float], w: Sequence[float], K: float, beta: float,
                     dom: HarmonicDomain,
                     grid_size: int = DEFAULT_GRID_SIZE) -> DiscFn:
    """Certified disc family {v/x + w} (+) (K - beta/x^2) B."""
    K, beta = float(K), float(beta)
    if grid_size < 3:
        raise FeasibilityError(f"disc family needs grid_size >= 3, got {grid_size}")
    cert = _certificate("disc", {"beta": beta}, K, dom)
    return DiscFn(v, w, K, beta, dom, grid_size=grid_size, certificate=cert)


def make_family(descriptor) -> SetValuedFn:
    """The certified family a descriptor names, in the layout of its
    ``params()``: ``family``, the parameters by name, the domain ends ``a``
    and ``b``, and for a disc the pairs ``v`` and ``w`` and an optional
    ``grid_size``."""
    kind = descriptor["family"]
    dom = HarmonicDomain(descriptor["a"], descriptor["b"])
    if kind == "disc":
        return make_disc_family(descriptor["v"], descriptor["w"], descriptor["K"],
                                descriptor["beta"], dom,
                                grid_size=descriptor.get("grid_size", DEFAULT_GRID_SIZE))
    if kind == "quadratic-interval":
        return make_quadratic_family(descriptor["alpha"], descriptor["beta"], descriptor["K"], dom)
    raise FeasibilityError(f"unknown family kind: {kind!r}")
