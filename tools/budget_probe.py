"""Count sandwich violations that only quadrature error can explain.

Every family here is certified strongly harmonic convex, so at c = its
certified modulus both Hermite-Hadamard sandwiches and their Nikodem forms
hold.  A reported violation is therefore a quadrature error that the
reported budget failed to cover.  For each rule, order and substitution
setting the script runs the four sandwich ids on every family and prints

    rule order substitution  false violations k of N

    python tools/budget_probe.py [SRC]

SRC is the ``src`` directory whose ``harmonichh`` is probed (this
checkout's by default), e.g. that of an unpacked ``git archive`` of a
parent commit, so two trees can be compared row by row.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

SANDWICH_IDS = ("nikodem_left", "nikodem_right", "hh_left", "hh_right")
SPECS = ([("gauss-legendre", n) for n in (2, 3, 4, 8, 16)]
         + [("composite-simpson", n) for n in (2, 4, 8, 16)])


def families(svf, count: int = 40, seed: int = 0) -> list:
    """The bundled default family, then ``count`` seeded quadratic and
    ``count`` seeded disc families on domains with b/a from 1.1 to 40 and K
    up to twice its feasibility floor."""
    rng = np.random.default_rng(seed)
    out = [svf.make_quadratic_family(1.0, 1.0, 10.0, svf.HarmonicDomain(1.0, 2.0))]
    for i in range(2 * count):
        a = float(rng.uniform(0.25, 2.0))
        dom = svf.HarmonicDomain(a, a * float(np.exp(rng.uniform(np.log(1.1), np.log(40.0)))))
        stretch = 1.0 + float(rng.uniform())
        if i < count:
            alpha, beta = rng.uniform(0.25, 4.0, size=2)
            out.append(svf.make_quadratic_family(alpha, beta, stretch * (alpha + beta) / a ** 2, dom))
        else:
            beta = float(rng.uniform(0.25, 4.0))
            v, w = rng.uniform(-1.0, 1.0, size=(2, 2))
            out.append(svf.make_disc_family(v, w, stretch * beta / a ** 2, beta, dom))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = argv[0] if argv else str(Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(Path(src).resolve()))
    from harmonichh import svf
    from harmonichh.aumann import QuadratureSpec
    from harmonichh.hh_check import ConvexityGrid, run_theorems

    fams, grid = families(svf), ConvexityGrid()
    for rule, order in SPECS:
        for substitution in (True, False):
            q = QuadratureSpec(rule, order, substitution)
            reports = [rep for f in fams for rep in run_theorems(
                f, SANDWICH_IDS, f.claimed_modulus, grid, q)]
            false = sum(not rep.verdict.holds for rep in reports)
            print(f"{rule:17} {order:2} substitution={'on ' if substitution else 'off'}  "
                  f"false violations {false} of {len(reports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
