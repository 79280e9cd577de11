"""Verification toolkit for Hermite-Hadamard-type set inclusions of
strongly harmonic convex set-valued functions.

Submodules:

* ``set_core`` -- compact convex set arithmetic (intervals and discs)
* ``svf``      -- set-valued function families and structural transforms
* ``aumann``   -- Aumann integration by quadrature with error budgets
* ``hh_check`` -- definitional and theorem inclusion checkers
* ``explorer`` -- randomized minimum-slack / counterexample search
* ``cli``      -- command-line verifier

The package holds what a run calls.  The independent oracles the tests
check it against (a Riemann sum, the harmonic combination and reflection
on scalars, the inclusion rule row by row) live with the
tests, in ``tests/oracles.py``.
"""

from .set_core import (
    Disc,
    Interval,
    InclusionVerdict,
    ball,
    hausdorff,
    includes,
    interval_product,
    minkowski_sum,
    scale,
)
from .svf import (
    HarmonicDomain,
    SetValuedFn,
    make_disc_family,
    make_quadratic_family,
    reciprocal_transform,
)
from .aumann import (
    IntegralResult,
    QuadratureSpec,
    aumann_integral,
    plain_product_integral,
    reflected_product_integral,
    weighted_harmonic_integral,
)
from .hh_check import ConvexityGrid, TheoremReport, THEOREM_IDS

__all__ = [
    "Disc", "Interval", "InclusionVerdict", "ball", "hausdorff",
    "includes", "interval_product", "minkowski_sum", "scale",
    "HarmonicDomain", "SetValuedFn",
    "make_disc_family", "make_quadratic_family", "reciprocal_transform",
    "IntegralResult", "QuadratureSpec", "aumann_integral", "plain_product_integral",
    "reflected_product_integral", "weighted_harmonic_integral",
    "ConvexityGrid", "TheoremReport", "THEOREM_IDS",
]

__version__ = "0.1.0"
