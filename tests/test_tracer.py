"""The benchmark's span tracer (perfbench/spans.py) wraps public names where
the program looks them up.  A refactor that moves one of those names breaks
every traced benchmark run, so install and remove the tracer here."""

import importlib
from pathlib import Path

import pytest

from harmonichh import cli, explorer, hh_check, svf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def wrapped_names(spans):
    """(owner, attribute) of every name the tracer wraps."""
    names = [(cli, n) for n in ("parse_config", "run", "render_report",
                                "min_slack_search", "emit_counterexample")]
    names.append((explorer, "evaluate_config"))
    names += [(m, n) for m in (cli, explorer) for n in spans.CHECKERS]
    names += [(hh_check, n) for n in spans.AUMANN + spans.SET_CORE]
    names += [(hh_check.ConvexityGrid, n) for n in ("pairs", "triples")]
    names += [(getattr(svf, n), "eval_vector") for n in spans.SVF_CLASSES]
    return names


def lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_and_remove_restores(spans):
    names = wrapped_names(spans)
    originals = [lookup(owner, attr) for owner, attr in names]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == len(names)
        for (owner, attr), original in zip(names, originals):
            assert lookup(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.remove()
    for (owner, attr), original in zip(names, originals):
        assert lookup(owner, attr) is original, attr


def test_traced_default_unit_counts(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_unit()
        report, _ = cli.run(cli.parse_config(cli.default_config()))
        cli.render_report(report)
    finally:
        tracer.remove()
    metrics = spans.unit_metrics(tracer.spans)
    # the suite-default workload's exact counts at seed 0 (the bundled default)
    # one sandwich's set algebra (9 calls) serves both Hermite-Hadamard pairs,
    # and the product left side builds its (c/12) d^2 ball once: 63 before
    assert metrics["set_core.calls"] == 53
    # one weighted integral (16 exact nodes) serves both sandwiches; the two
    # product integrals and two bracket integrals take 48 nodes each
    assert metrics["aumann.calls"] == 5
    assert metrics["aumann.nodes"] == 208
    # G(u) = F(1/u) at the 32 grid points and the 11264 midpoints of the one
    # grid pass, which takes the quadratic F's own values from u^2
    # (QuadraticIntervalFn.rows_in_u, which the tracer does not wrap; 22755
    # before, with F's 11296); 163 points of the one integral pass: 208
    # quadrature nodes less the 48 of thm35's G = F, which reads F's values,
    # and F at a, b and 2ab/(a+b) once for all eight integral ids
    assert metrics["svf.eval_vector.points"] == 11459
