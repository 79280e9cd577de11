"""Parity of the streamed grid pass: one SHA-256 over the reports of
``grid_reports`` for every subset of the grid ids, on interval, disc,
sampled-disc and c-shifted families, both samplings and three
moduli.  The lemma ids need c > 0, so their subsets run at c = 1/2 and 2
only.  One disc def_shc run at 16,384 pairs spans many blocks.

The digest was recorded before the blocks were reduced through one key
array per block and before the pass computed the geometry of a group of
blocks at once.  It moved when the disc family's pass moved to
coefficient space; the text of the quadratic, sampled and c-shifted
families stayed byte for byte the same.  It moved again when the values
pass moved to u = 1/x: the disc's text stayed the same, and in the other
three families' no verdict or witness triple moved and every slack moved
by at most 8.4e-16.  The shift lemma reports whichever of its two sides
has the smaller slack, so where the strong and shifted slacks of one row
swapped order in the last ulp, its sets are now the other side's.  It
moved again when the disc became a disc: the disc's lines (345 of 1,377)
now hold Disc sets, the exact rule's tolerance and a unit-vector or
"radius" witness, with the same verdicts; the other three families' text
stayed byte for byte the same.  It moved again when the support-set kind
was deleted: the tied-direction support family gave way to a sampled disc
family, whose digest was recorded at the last commit that still had
support sets, and no other family's text moved.  A change that must not
alter results keeps it.
"""

import hashlib
import itertools

import numpy as np

from harmonichh.hh_check import ConvexityGrid, grid_reports
from harmonichh.set_core import as_row
from harmonichh.svf import (CShiftFn, HarmonicDomain, SampledFn, make_disc_family,
                            make_quadratic_family)

DOM12 = HarmonicDomain(1.0, 2.0)
GRID_IDS = ("def_shc", "def_mid", "lemma_i", "lemma_ii", "prop_31")
_XS = np.linspace(1.0, 2.0, 9)

FAMILIES = (
    make_quadratic_family(1.0, 1.0, 10.0, DOM12),
    make_disc_family((1.0, 0.0), (0.0, 1.0), 3.0, 1.0, DOM12),
    SampledFn(_XS, np.column_stack([np.sin(_XS), np.cos(_XS), 2.0 + np.sin(3 * _XS)]), DOM12,
              kind="disc"),
    CShiftFn(make_quadratic_family(0.5, 1.0, 10.0, DOM12), 0.75),
)

DIGEST = "f4356d2d2adfc75cf6596dd491ff8d12daee7ce8bdbcce6aec12d856e5394e23"


def report_text(reports) -> str:
    """The reports' ``repr``s with the channels of both sides (which a
    support set's ``repr`` left out when the digest was first recorded)."""
    return "".join(f"{rep!r}{as_row(rep.lhs).tolist()}{as_row(rep.rhs).tolist()}\n"
                   for rep in reports.values())


def parity_text() -> str:
    subsets = [sub for r in range(1, len(GRID_IDS) + 1)
               for sub in itertools.combinations(GRID_IDS, r)]
    parts = []
    for f in FAMILIES:
        for sampling in ("deterministic-stratified", "seeded-random"):
            grid = ConvexityGrid(pair_count=256, sampling=sampling, seed=2)
            for c in (0.0, 0.5, 2.0):
                for sub in subsets:
                    if c > 0.0 or not {"lemma_i", "lemma_ii"} & set(sub):
                        parts.append(report_text(grid_reports(f, c, grid, sub)))
    parts.append(report_text(grid_reports(FAMILIES[1], 1.25, ConvexityGrid(pair_count=16384),
                                          ("def_shc",))))
    return "".join(parts)


def test_grid_reports_digest():
    assert hashlib.sha256(parity_text().encode()).hexdigest() == DIGEST
