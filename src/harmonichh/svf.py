"""Set-valued function model.

Domains inside [2^-511, 2^511], which admit a point up to a pad of
1e-12 (a + b), relative however small the domain, seeded function
families with closed-form evaluation, and the two structural transforms
(reciprocal substitution and the modulus shift by a scaled ball).

Each certified family's class declares its descriptor once: its
``family`` name, its ``parameters``, and the ``pairs`` (2-vectors) and
``moduli`` among them.  ``params()``, ``make_family``,
``family_rule`` (positive moduli, the numerator of ``least_K``, the
certified modulus), ``cli``'s key tables and ``explorer``'s dimensions all
read it; ``family_class`` finds a class by kind name, and each class's
``certified`` is its public factory.  A family's ``polynomial_in_u`` flag
tells the integration layer that each channel of F(1/u) is a polynomial in
u.  Both certified families state F(1/u) once, as ``rows_in_u``, one row
per channel: the quadratic family as its two ends, the disc family as its
centre's two coordinates and its radius.  ``widen`` widens such rows by
balls in place.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .set_core import DEFAULT_GRID_SIZE, ConvexSet, as_set

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


class SetValuedFn(abc.ABC):
    """A set-valued map on a HarmonicDomain.

    ``eval_vector`` is the workhorse: it maps an array of n points to an
    (n, 2) array of interval endpoints (interval kind), an (n, M) array of
    support values (support kind) or an (n, 3) array of disc centres and
    radii (disc kind).  Given ``out``, (channels, n) rows such as a grid
    pass's workspace rows, it writes the same bits into them instead and
    returns ``out``.  ``eval`` wraps a single point into a ConvexSet.
    """

    domain: HarmonicDomain
    kind: str  # "interval" | "support" | "disc"
    claimed_modulus: Optional[float] = None  # the modulus family_rule certifies, if any
    grid_size: int = DEFAULT_GRID_SIZE  # a support family's direction count
    polynomial_in_u: bool = False  # every channel of F(1/u) is a polynomial in u
    # rows_in_u(u, u2, out): F(1/u) at the points u from u and their squares
    # u2, one row of ``out`` per channel: an interval's two ends, or a disc's
    # centre coordinates and radius; None for a family the grid checks
    # evaluate at x
    rows_in_u: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    # A certified family's descriptor: its kind name, its parameters in the
    # order of params() and of the constructor, and the 2-vectors and the
    # moduli among them
    family: str
    parameters: tuple
    pairs: tuple = ()
    moduli: tuple

    @abc.abstractmethod
    def eval_vector(self, xs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
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

    def params(self) -> dict:
        """A certified family's descriptor, the layout ``make_family`` reads:
        ``family``, the parameters (a pair as a list), ``a`` and ``b``."""
        doc = {"family": self.family}
        for name in self.parameters:
            doc[name] = list(getattr(self, name)) if name in self.pairs else getattr(self, name)
        doc.update(a=self.domain.a, b=self.domain.b)
        return doc


class QuadraticIntervalFn(SetValuedFn):
    """F(x) = [alpha/x^2, K - beta/x^2] on [a, b].

    Under u = 1/x the endpoints become alpha*u^2 and K - beta*u^2, the
    canonical strongly convex / strongly concave quadratic pair, so the
    family is strongly harmonic convex with modulus min(alpha, beta).
    """

    kind = "interval"
    polynomial_in_u = True
    family = "quadratic-interval"
    parameters = ("alpha", "beta", "K")
    moduli = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float, K: float, domain: HarmonicDomain,
                 claimed_modulus: Optional[float] = None):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.K = float(K)
        self.domain = domain
        self.claimed_modulus = claimed_modulus

    @staticmethod
    def certified(alpha: float, beta: float, K: float,
                  dom: HarmonicDomain) -> QuadraticIntervalFn:
        """Certified quadratic interval family [alpha/x^2, K - beta/x^2]."""
        return _certified(QuadraticIntervalFn, (alpha, beta, K), dom)

    def eval_vector(self, xs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``rows_in_u`` at u^2 = 1/x^2, into the columns of an (n, 2) array."""
        u2 = 1.0 / np.asarray(xs, dtype=float) ** 2
        rows = self.rows_in_u(None, u2, np.empty((u2.size, 2)).T if out is None else out)
        return rows.T if out is None else out

    def rows_in_u(self, u: Optional[np.ndarray], u2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """F(1/u) = [alpha u^2, K - beta u^2] from the squares ``u2`` of the
        points u alone (``u`` is not read), lower ends into out[0] and upper
        ends into out[1]; returns ``out``, shaped (2, n)."""
        np.multiply(self.alpha, u2, out=out[0])
        np.subtract(self.K, np.multiply(self.beta, u2, out=out[1]), out=out[1])
        return out


class DiscFn(SetValuedFn):
    """F(x) = {v/x + w} (+) (K - beta/x^2) * B in R^2, the disc of centre
    v u + w and radius K - beta u^2 with u = 1/x.

    In direction e its support value is <v,e>u + <w,e> + K - beta u^2:
    linear plus a concave quadratic in u, so the family is strongly
    harmonic convex with modulus beta.  The family states itself once, as
    the rows [v0 u + w0, v1 u + w1, K - beta u^2] of each point
    (``rows_in_u``); a ball of radius r adds r to the radius row.
    """

    kind = "disc"
    polynomial_in_u = True
    family = "disc"
    parameters = ("v", "w", "K", "beta")
    pairs = ("v", "w")
    moduli = ("beta",)

    def __init__(self, v: Sequence[float], w: Sequence[float], K: float, beta: float,
                 domain: HarmonicDomain, claimed_modulus: Optional[float] = None):
        self.v = np.asarray(v, dtype=float)
        self.w = np.asarray(w, dtype=float)
        if self.v.shape != (2,) or self.w.shape != (2,):
            raise FeasibilityError("disc family needs 2-vectors v, w")
        self.K = float(K)
        self.beta = float(beta)
        self.domain = domain
        self.claimed_modulus = claimed_modulus

    @staticmethod
    def certified(v: Sequence[float], w: Sequence[float], K: float, beta: float,
                  dom: HarmonicDomain) -> DiscFn:
        """Certified disc family {v/x + w} (+) (K - beta/x^2) B."""
        return _certified(DiscFn, (v, w, K, beta), dom)

    def rows_in_u(self, u: np.ndarray, u2: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The centres v u + w and radii K - beta u^2 of the points u, from u
        and their squares ``u2``, as the rows of ``out``; returns ``out``,
        shaped (3, n)."""
        (v0, v1), (w0, w1) = self.v.tolist(), self.w.tolist()
        np.multiply(v0, u, out=out[0])
        out[0] += w0
        np.multiply(v1, u, out=out[1])
        out[1] += w1
        np.multiply(self.beta, u2, out=out[2])
        np.subtract(self.K, out[2], out=out[2])
        return out

    def eval_vector(self, xs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``rows_in_u`` at u = 1/x, into the columns of an (n, 3) array."""
        us = 1.0 / np.asarray(xs, dtype=float)
        rows = self.rows_in_u(us, us * us, np.empty((us.size, 3)).T if out is None else out)
        return rows.T if out is None else out


class SampledFn(SetValuedFn):
    """Custom-sampled family: precomputed sets on a grid, linear interpolation.

    Claims no modulus, and no config builds one; the tests use it as a
    generic family.
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
        if kind == "support":
            self.grid_size = self._values.shape[1]

    def eval_vector(self, xs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Linear interpolation, np.interp on each channel: the value at a
        knot as sampled, the end values past the ends, NaN at NaN."""
        xs = np.asarray(xs, dtype=float)
        rows = np.empty((xs.size, self._values.shape[1])).T if out is None else out
        for j, row in enumerate(rows):
            row[...] = np.interp(xs, self._xs, self._values[:, j])
        return rows.T if out is None else out


class ReciprocalFn(SetValuedFn):
    """G(u) = F(1/u) on [1/b, 1/a]."""

    def __init__(self, base: SetValuedFn):
        self.base = base
        self.domain = HarmonicDomain(1.0 / base.domain.b, 1.0 / base.domain.a)
        self.kind = base.kind
        self.claimed_modulus = base.claimed_modulus
        self.grid_size = base.grid_size

    def eval_vector(self, us: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.base.eval_vector(1.0 / np.asarray(us, dtype=float), out=out)


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
        self.grid_size = base.grid_size
        self.polynomial_in_u = base.polynomial_in_u

    def eval_vector(self, xs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """F's values at ``xs`` widened by the balls of radius c/x^2, in a
        fresh array (or in ``out``)."""
        xs = np.asarray(xs, dtype=float)
        rows = (self.base.eval_vector(xs).copy().T if out is None
                else self.base.eval_vector(xs, out=out))
        widen(rows, self.c / xs ** 2, self.kind)
        return rows.T if out is None else out


def widen(rows: np.ndarray, r: np.ndarray, kind: str) -> np.ndarray:
    """Widen the (channels, n) ``rows``, one row per channel, in place by
    the balls of radius r[i] at column i, and return ``rows``: an interval's
    lower end moves down by r[i] and its upper end up, a disc's radius row
    rises by r[i], and so does every support row."""
    if kind == "interval":
        rows[0] -= r
        rows[1] += r
    elif kind == "disc":
        rows[2] += r
    else:
        rows += r
    return rows


def reciprocal_transform(f: SetValuedFn) -> SetValuedFn:
    """G(u) = F(1/u) on [1/b, 1/a]; applying it twice returns the original."""
    if isinstance(f, ReciprocalFn):
        return f.base
    return ReciprocalFn(f)


FAMILIES = {cls.family: cls for cls in (QuadraticIntervalFn, DiscFn)}


def family_class(kind: str) -> type:
    """The class of the certified family of kind ``kind``."""
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise FeasibilityError(f"unknown family kind: {kind!r}")
    return FAMILIES[kind]


def family_rule(kind: str, params) -> tuple:
    """(top, modulus) of a certified family of kind ``kind`` from its moduli
    in ``params``, a mapping by name: each must be positive, top, the
    numerator of least_K, is their sum and the modulus their least."""
    names = family_class(kind).moduli
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


def _certified(cls: type, values: Sequence, dom: HarmonicDomain) -> SetValuedFn:
    """The family of class ``cls`` with the parameters ``values`` (in
    ``cls.parameters`` order, each but a pair as a float) on ``dom``, once
    the family rule holds and K is at least its least K."""
    values = {name: value if name in cls.pairs else float(value)
              for name, value in zip(cls.parameters, values)}
    top, modulus = family_rule(cls.family, values)
    least, K = least_K(top, dom.a), values["K"]
    if not (K >= least):  # also rejects NaN
        raise FeasibilityError(f"{cls.family} family infeasible: K={K} < (1 + {FEASIBILITY_RTOL}) "
                               f"({'+'.join(cls.moduli)})/a^2 = {least}")
    return cls(*values.values(), dom, claimed_modulus=modulus)


def make_family(descriptor) -> SetValuedFn:
    """The certified family a descriptor names, in the layout of its
    ``params()``; any other key is refused by name, as ``cli`` refuses it."""
    dom = HarmonicDomain(descriptor["a"], descriptor["b"])
    cls = family_class(descriptor["family"])
    for key in descriptor:
        if key not in ("family", "a", "b", *cls.parameters):
            raise FeasibilityError(f"unknown {cls.family} family key {key!r}")
    return cls.certified(*(descriptor[name] for name in cls.parameters), dom)


# The public factories
make_quadratic_family = QuadraticIntervalFn.certified
make_disc_family = DiscFn.certified
