"""Golden reports: the rendered JSON report of eight fixed configs, pinned by
the SHA-256 of its text with the ``wall_time_s`` line removed.  The
16384-pair config spans several blocks of the streamed grid pass; its
digest was recorded before the grid checks were streamed.  The disc
configs span many blocks of 64-channel rows; the disc search digest was
recorded before the blocks were sized by elements.  The disc midconvex
config requests only def_mid and lemma_ii, so its pass covers the t = 1/2
pairs alone; its digest was recorded while they had a pass of their own.
The product subset config requests two of the four product ids, one of
each integral, on two families; its digest was recorded while each
integral had a table row of its own.  The x-space config runs the default
family with substitution off and every id but the Nikodem pair, so hh
integrates F/x^2 in x; its digest was recorded while the Nikodem pair had
an integral of its own.

The default, disc-verify and default-16k digests moved when the Nikodem
pair became the sandwich of the harmonic integral in u = 1/x, which with
substitution on is hh's: their nikodem_* entries changed in the last ulps
of lhs, rhs and slack, in budget and tolerance_used (the 16-node exact
rule's budget in place of a 16 + 32-node comparison), and in a witness
direction where a last-ulp tie flipped it.  Nothing else in any report
changed (``tools/golden_diff.py`` lists the fields).

The disc-verify digest moved again when the disc's grid checks moved to
coefficient space: the u coefficient of the shifted map's slack is now
exactly 0, so lemma_i's shifted slack went from -2.2e-16 to 0, the tie
with the strong side's 0 picks the strong side, and lemma_i's lhs, rhs
(by the shifted ball, 0.5 at x = 1) and tolerance_used changed with it.
No other field of any golden report changed; the disc-search and
disc-midconvex digests held.

A refactor that must not change results keeps these digests.  A change
that alters a report on purpose updates the digest and says why.
"""

import hashlib
import re

import pytest

from harmonichh.cli import default_config, parse_config, render_report, run
from harmonichh.hh_check import THEOREM_IDS

_WALL_TIME = re.compile(r'^  "wall_time_s": [^\n]*\n', re.M)

DISC_VERIFY = {
    "mode": "verify",
    "families": [{"family": "disc", "v": [1.0, 0.0], "w": [0.0, 1.0],
                  "K": 3.0, "beta": 1.0, "a": 1.0, "b": 2.0}],
    "c": 0.5,
    "grid": {"pair_count": 256},
    "theorems": [t for t in THEOREM_IDS
                 if t not in ("thm33", "cor34", "thm35", "cor36")],
}

DISC_MIDCONVEX = {**DISC_VERIFY, "theorems": ["def_mid", "lemma_ii"]}

QUADRATIC_SEARCH = {
    "mode": "search",
    "theorems": ["def_shc"],
    "grid": {"pair_count": 64},
    "search": {"alpha": [0.1, 0.4], "c": [1.0, 2.0],
               "certified_only": False, "budget": 16},
    "seed": 0,
}

DISC_SEARCH = {
    "mode": "search",
    "theorems": ["def_shc"],
    "grid": {"pair_count": 64},
    "search": {"family": "disc", "c": [0.25, 2.0],
               "certified_only": False, "budget": 16},
    "seed": 0,
}

PRODUCT_SUBSET = {
    "mode": "verify",
    "families": [
        {"family": "quadratic-interval", "alpha": 2.0, "beta": 1.5, "K": 16.0,
         "a": 1.0, "b": 2.0},
        {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0, "K": 10.0,
         "a": 1.0, "b": 2.0},
    ],
    "c": 0.5,
    "theorems": ["cor36", "thm33"],
}

DEFAULT_16K = {**default_config(),
               "grid": {**default_config()["grid"], "pair_count": 16384}}

X_SPACE = {**default_config(),
           "quadrature": {**default_config()["quadrature"], "substitution": False},
           "theorems": [t for t in THEOREM_IDS if not t.startswith("nikodem")]}

GOLDEN = [
    ("default", default_config(), 1,
     "b55d2204f2b2b3c49fd6b737407b7e8b37a1c43c1621d8f8154daff224471841"),
    ("disc-verify", DISC_VERIFY, 0,
     "cd69d1de82ed4d5f8e237aff552bab44d822d6b5891b9c5b731819cc31a11903"),
    ("quadratic-search", QUADRATIC_SEARCH, 1,
     "1a4679b2479427d65f082ec7dbe7a98fbd581a74750658752bb2b24ee5858175"),
    ("default-16k", DEFAULT_16K, 1,
     "1fb9a3bad07774cd0f1e7595d5a2842aea6139a704bdbd489d71b5c902125658"),
    ("disc-search", DISC_SEARCH, 1,
     "6799f8dfd4aa28ed96f5fcb8c78f18e761b9cb3c07dea452239cb22e4c84fafe"),
    ("disc-midconvex", DISC_MIDCONVEX, 0,
     "9dc7274da105d29025125f1b70333e2f82e7cc4ecee98bef2c4a77c99e41c2c8"),
    ("product-subset", PRODUCT_SUBSET, 1,
     "63f124e031b54b5037633f4db30c774e30f5835a268a8ed9fd7ae3e98ae4be7c"),
    ("x-space", X_SPACE, 1,
     "fbc2dce65adb9e89f305a251b4684d04f0e76d473bd534f127900d3874a21bb4"),
]


def report_digest(doc: dict):
    report, exit_code = run(parse_config(doc))
    body = _WALL_TIME.sub("", render_report(report))
    return exit_code, hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("name,doc,exit_code,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_report_digest(name, doc, exit_code, digest):
    assert report_digest(doc) == (exit_code, digest)
