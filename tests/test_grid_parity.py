"""Parity of the streamed grid pass: one SHA-256 over the reports of
``grid_reports`` for every subset of the grid ids, on interval, disc,
tied-direction sampled and c-shifted families, both samplings and three
moduli.  The lemma ids need c > 0, so their subsets run at c = 1/2 and 2
only.  One 64-direction disc def_shc run at 16,384 pairs spans many
blocks.

The digest was recorded before the blocks were reduced through one key
array per block and before the pass computed the geometry of a group of
blocks at once.  It moved when the disc family's pass moved to
coefficient space; the text of the quadratic, sampled and c-shifted
families stayed byte for byte the same.  A change that must not alter
results keeps it.
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
# channels 1 and 3 are the same, so their keys tie in every row
_TIED = np.column_stack([np.sin(k * _XS) + k for k in (1, 2, 3, 2, 5)])

FAMILIES = (
    make_quadratic_family(1.0, 1.0, 10.0, DOM12),
    make_disc_family((1.0, 0.0), (0.0, 1.0), 3.0, 1.0, DOM12),
    SampledFn(_XS, _TIED, DOM12, kind="support"),
    CShiftFn(make_quadratic_family(0.5, 1.0, 10.0, DOM12), 0.75),
)

DIGEST = "4b803b0789cc639b0bebcec5ddff95311195cdeb9f019243d60013d3c08df14f"


def report_text(reports) -> str:
    """The reports' ``repr``s with the channels of both sides, which a
    SupportSet's ``repr`` leaves out."""
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
