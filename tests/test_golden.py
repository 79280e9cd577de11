"""Golden reports: the rendered JSON report of six fixed configs, pinned by
the SHA-256 of its text with the ``wall_time_s`` line removed.  The
16384-pair config spans several blocks of the streamed grid pass; its
digest was recorded before the grid checks were streamed.  The disc
configs span many blocks of 64-channel rows; the disc search digest was
recorded before the blocks were sized by elements.  The disc midconvex
config requests only def_mid and lemma_ii, so its pass covers the t = 1/2
pairs alone; its digest was recorded while they had a pass of their own.

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

DEFAULT_16K = {**default_config(),
               "grid": {**default_config()["grid"], "pair_count": 16384}}

GOLDEN = [
    ("default", default_config(), 1,
     "330b95528dc2b88f35da7da70baf75686fe90fd7ec557381e2537edc0a512393"),
    ("disc-verify", DISC_VERIFY, 0,
     "8f4231b7696ba4c13bf718b41574f4d34cc88da338a14c79fe958b4510bd5793"),
    ("quadratic-search", QUADRATIC_SEARCH, 1,
     "1a4679b2479427d65f082ec7dbe7a98fbd581a74750658752bb2b24ee5858175"),
    ("default-16k", DEFAULT_16K, 1,
     "5a0f1b5258392903ed138581af8aa0e3c93d4d43f57cfa5cc607b933ec1462d3"),
    ("disc-search", DISC_SEARCH, 1,
     "6799f8dfd4aa28ed96f5fcb8c78f18e761b9cb3c07dea452239cb22e4c84fafe"),
    ("disc-midconvex", DISC_MIDCONVEX, 0,
     "9dc7274da105d29025125f1b70333e2f82e7cc4ecee98bef2c4a77c99e41c2c8"),
]


def report_digest(doc: dict):
    report, exit_code = run(parse_config(doc))
    body = _WALL_TIME.sub("", render_report(report))
    return exit_code, hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("name,doc,exit_code,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_report_digest(name, doc, exit_code, digest):
    assert report_digest(doc) == (exit_code, digest)
