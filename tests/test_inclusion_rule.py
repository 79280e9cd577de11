"""The one inclusion rule of ``set_core``: ``includes`` is the one-row case of
``inclusion_rows``, and every report, grid or integral, re-verifies through
``includes`` on its own two sides."""

import numpy as np
import pytest

from harmonichh.aumann import QuadratureSpec
from harmonichh.explorer import run_theorems
from harmonichh.hh_check import DEFAULT_TOL, THEOREM_IDS, ConvexityGrid
from harmonichh.set_core import (
    Interval,
    SupportSet,
    as_row,
    as_set,
    includes,
    inclusion_rows,
    row_verdict,
)
from harmonichh.svf import (
    DomainError,
    HarmonicDomain,
    SampledFn,
    make_disc_family,
    make_quadratic_family,
)

DOM12 = HarmonicDomain(1.0, 2.0)
_XS = np.linspace(1.0, 2.0, 9)
FAMILIES = {
    "quadratic": make_quadratic_family(1.0, 1.0, 10.0, DOM12),
    "quadratic-weak": make_quadratic_family(0.5, 1.0, 10.0, DOM12),
    "disc": make_disc_family((1.0, 0.0), (0.0, 1.0), 3.0, 1.0, DOM12, grid_size=16),
    "sampled": SampledFn(_XS, np.column_stack([1.0 / _XS ** 2 + 0.05 * np.sin(5 * _XS),
                                               10.0 - 1.0 / _XS ** 2]), DOM12),
}
PRODUCT_IDS = ("thm33", "cor34", "thm35", "cor36")


def _rows(rng, kind, n):
    if kind == "interval":
        lo = rng.normal(size=(n, 2))
        return np.sort(lo, axis=1), np.sort(lo + 0.3 * rng.normal(size=(n, 2)), axis=1)
    lhs = rng.normal(size=(n, 8))
    return lhs, lhs + 0.1 * rng.normal(size=(n, 8))


@pytest.mark.parametrize("kind", ["interval", "support"])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
def test_includes_is_one_row_of_the_kernel(kind, tol):
    lhs, rhs = _rows(np.random.default_rng(3), kind, 200)
    rhs[::7] = lhs[::7]  # exact ties in every direction
    slacks, tols, witness = inclusion_rows(lhs, rhs, kind, tol)
    for i in range(lhs.shape[0]):
        v = includes(as_set(lhs[i], kind), as_set(rhs[i], kind), tol)
        assert v == row_verdict(slacks[i], tols[i], witness[i], kind)
        assert v.holds == (v.slack >= -v.tolerance_used)


@pytest.mark.parametrize("s", [Interval(-1.5, 2.25), SupportSet((1.0, -0.5, 2.0, 0.0))])
def test_row_set_round_trip(s):
    kind = "interval" if isinstance(s, Interval) else "support"
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
