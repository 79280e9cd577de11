"""What no run of the verifier reaches leaves ``src/``, unless the
benchmark's span tracer still looks it up: ``tools/reachability.py``
traces the runs, and this test holds its list to the few functions that
stay on purpose."""

import importlib
from pathlib import Path

import harmonichh

ROOT = Path(__file__).resolve().parents[1]

# Kept though no traced run calls them: an interval's __repr__, which the
# tests and an interactive session read, and the abstract eval_vector,
# which every family overrides.
KEPT = {"Interval.__repr__", "SetValuedFn.eval_vector"}


def test_only_the_kept_functions_are_unreached(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    reachability = importlib.import_module("reachability")
    # the src tree this run tests, which PYTHONPATH may name
    found = reachability.unreached(Path(harmonichh.__file__).parents[1])
    assert {qualname for _, _, qualname, _, hold in found
            if hold not in ("wraps", "class")} == KEPT
