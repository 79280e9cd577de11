"""Field-by-field diff of the golden reports between two source trees.

Runs every config of ``tests/test_golden.py`` (taken from this checkout)
against the ``harmonichh`` package under OLD_SRC and under NEW_SRC, each in
its own interpreter, and lists every report field that differs, ignoring
``wall_time_s``.  Exit status 1 if an exit code, a summary or a field of an
entry whose theorem id is not in ``--allow`` changed, else 0.

With ``--grid`` it compares instead the text that the grid-parity digest of
``tests/test_grid_parity.py`` hashes, ``parity_text()``, line by line: it
prints "grid parity: unchanged", or how many lines differ and the first
differing pair, and exits 1 on any difference.

    python tools/golden_diff.py OLD_SRC NEW_SRC [--allow nikodem_left ...]
    python tools/golden_diff.py OLD_SRC NEW_SRC --grid

OLD_SRC is typically the ``src`` directory of an unpacked ``git archive``
of the parent commit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parents[1] / "tests"

_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from harmonichh.cli import parse_config, render_report, run
from test_golden import GOLDEN
out = {}
for name, doc, _, _ in GOLDEN:
    report, code = run(parse_config(doc))
    out[name] = [code, json.loads(render_report(report))]
print(json.dumps(out))
"""

_PARITY = """
import sys
sys.path[:0] = sys.argv[1:3]
from test_grid_parity import parity_text
sys.stdout.write(parity_text())
"""


def output(script: str, src: str) -> str:
    """What ``script`` prints with the package in ``src`` and the tests of
    this checkout first on the path."""
    done = subprocess.run([sys.executable, "-c", script, str(Path(src).resolve()), str(TESTS)],
                          check=True, capture_output=True, text=True)
    return done.stdout


def reports(src: str) -> dict:
    """{golden name: [exit code, report document]} under the package in ``src``."""
    return json.loads(output(_RUN, src))


def grid_parity(old_src: str, new_src: str) -> int:
    """Compare ``parity_text()`` under the two trees line by line; 1 if any
    line differs, else 0."""
    old, new = (output(_PARITY, src).splitlines() for src in (old_src, new_src))
    # a line only one side has pairs with ""
    pairs = [(a, b) for a, b in itertools.zip_longest(old, new, fillvalue="") if a != b]
    if not pairs:
        print("grid parity: unchanged")
        return 0
    print(f"grid parity: {len(pairs)} of {max(len(old), len(new))} lines differ; the first:")
    print(f"- {pairs[0][0]}\n+ {pairs[0][1]}")
    return 1


def channels(s: dict) -> list:
    """The numbers of a set document: an interval's ends, or a disc's
    centre coordinates and radius."""
    if s["kind"] == "disc":
        return [*s["center"], s["radius"]]
    return [s["lo"], s["hi"]]


def change(old, new) -> str:
    """``old -> new``; for two sets of one kind the largest change of one of
    their numbers, for sets of two kinds the kinds."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old["kind"] != new["kind"]:
            return f"{old['kind']} set -> {new['kind']} set"
        largest = max(map(abs, np.subtract(channels(old), channels(new))))
        return f"{old['kind']} set, largest change {largest:.3g}"
    return f"{old} -> {new}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--allow", nargs="*", default=[],
                        help="theorem ids whose entries may change")
    parser.add_argument("--grid", action="store_true",
                        help="compare the grid-parity text instead of the golden reports")
    args = parser.parse_args(argv)
    if args.grid:
        return grid_parity(args.old_src, args.new_src)
    old, new = reports(args.old_src), reports(args.new_src)
    bad = False
    for name in old:
        (code0, doc0), (code1, doc1) = old[name], new[name]
        lines = []
        if code0 != code1:
            lines.append(f"  exit code {code0} -> {code1}")
        for key in ("config", "summary"):
            if doc0[key] != doc1[key]:
                lines.append(f"  {key}: {doc0[key]} -> {doc1[key]}")
        if len(doc0["reports"]) != len(doc1["reports"]):
            lines.append(f"  {len(doc0['reports'])} -> {len(doc1['reports'])} entries")
        bad |= bool(lines)
        for i, (e0, e1) in enumerate(zip(doc0["reports"], doc1["reports"])):
            changed = [k for k in sorted(set(e0) | set(e1)) if e0.get(k) != e1.get(k)]
            if changed:
                bad |= e0["theorem"] not in args.allow or e0["theorem"] != e1["theorem"]
            for k in changed:
                lines.append(f"  [{i}] family {e0['family']} {e0['theorem']} {k}: "
                             + change(e0.get(k), e1.get(k)))
        print(f"{name}: " + ("unchanged" if not lines else "\n" + "\n".join(lines)))
    print("only allowed entries changed" if not bad else "DISALLOWED CHANGES")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
