"""What no run of the verifier reaches leaves ``src/``, unless the
benchmark's span tracer still looks it up: ``tools/reachability.py``
traces the runs, and this test holds its list to the few functions that
stay on purpose."""

import importlib
from pathlib import Path

import harmonichh

ROOT = Path(__file__).resolve().parents[1]

# Kept though no traced run calls them: the two sets' __repr__s, the
# abstract eval_vector, and the check of a SupportSet's values: no config
# builds a support family since the disc became a disc, but the generic
# families of the tests (SampledFn, CShiftFn) are support families.
KEPT = {"Interval.__repr__", "SupportSet.__repr__", "SetValuedFn.eval_vector",
        "SupportSet.__post_init__"}


def test_only_the_kept_functions_are_unreached(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    reachability = importlib.import_module("reachability")
    # the src tree this run tests, which PYTHONPATH may name
    found = reachability.unreached(Path(harmonichh.__file__).parents[1])
    assert {qualname for _, _, qualname, _, hold in found
            if hold not in ("wraps", "class")} == KEPT
