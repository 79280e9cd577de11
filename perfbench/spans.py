"""Span tracing of the program's public functions, installed from outside.

Each public name is wrapped where the caller looks it up: the checkers in
the ``cli`` and ``explorer`` namespaces, the quadrature and set-algebra
functions in the ``hh_check`` namespace, and ``eval_vector`` and the
sample-grid methods on their classes.  A span is
``[name, layer, start, end, parent, count]``; ``count`` carries the work
the call did (points, nodes, triples, bytes) or, for checkers in a
memory unit, the tracemalloc peak in bytes.

Spans stay in memory, one list per unit, and are written out at exit.
"""

from __future__ import annotations

import json
import re
import tracemalloc
from time import perf_counter

CHECKERS = (
    "check_strongly_harmonic_convex", "check_strongly_harmonic_midconvex",
    "check_lemma_shift", "check_prop31", "check_hh", "check_nikodem",
    "check_thm33", "check_cor34", "check_thm35", "check_cor36",
)
AUMANN = ("aumann_integral", "weighted_harmonic_integral",
          "reflected_product_integral", "plain_product_integral",
          "bracket_product_integral")
SET_CORE = ("ball", "hausdorff", "includes", "interval_product",
            "minkowski_sum", "scale")
SVF_CLASSES = ("QuadraticIntervalFn", "DiscFn", "ReciprocalFn", "CShiftFn",
               "SampledFn")

# Per-layer metrics, with units, in the order they are reported.
METRICS = (
    ("svf.eval_vector.calls", "count"),
    ("svf.eval_vector.points", "count"),
    ("svf.eval_vector.self_s", "s"),
    ("hh_check.triples.count", "count"),
    ("hh_check.triples.s", "s"),
    ("hh_check.self_s", "s"),
    ("hh_check.peak_mb", "MB"),
    *((f"hh_check.{name}.s", "s") for name in CHECKERS),
    ("aumann.calls", "count"),
    ("aumann.nodes", "count"),
    ("aumann.self_s", "s"),
    ("set_core.calls", "count"),
    ("set_core.self_s", "s"),
    ("explorer.evaluations", "count"),
    ("explorer.self_s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.render_report.s", "s"),
    ("cli.report_bytes", "bytes"),
)
# Counts that must repeat exactly from unit to unit and run to run.
EXACT_COUNTS = ("svf.eval_vector.points", "hh_check.triples.count", "aumann.nodes",
                "set_core.calls", "explorer.evaluations", "cli.report_bytes")


_WALL_TIME = re.compile(r'^  "wall_time_s": [^\n]*\n', re.M)


def report_body(text: str) -> str:
    """The rendered report without its ``wall_time_s`` line, which varies."""
    return _WALL_TIME.sub("", text)


def _points(args, out):
    return len(args[1])


def _nodes(args, out):
    return out.nodes_used


def _triples(args, out):
    return len(out[0])


def _bytes(args, out):
    return len(report_body(out).encode())


class Tracer:
    """Installs span wrappers on the harmonichh modules and records spans."""

    def __init__(self):
        self.units = []       # one span list per traced unit
        self.spans = []       # span list of the current unit
        self.memory = False   # track tracemalloc peaks of checker spans
        self._open = []       # indices of the open spans, innermost last
        self._patches = []    # (owner, attribute, original)

    def _wrap(self, owner, attr, layer, count=None, checker=False):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        opened, tracer = self._open, self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            span = [attr, layer, 0.0, 0.0, opened[-1] if opened else -1, 0]
            opened.append(len(spans))
            spans.append(span)
            memory = checker and tracer.memory
            if memory:
                tracemalloc.start()
            span[2] = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                opened.pop()
                if memory:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                span[5] = count(args, out)
            return out

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        from harmonichh import cli, explorer, hh_check, svf

        for name in ("parse_config", "run"):
            self._wrap(cli, name, "cli")
        self._wrap(cli, "render_report", "cli", count=_bytes)
        for name in ("min_slack_search", "emit_counterexample"):
            self._wrap(cli, name, "explorer")
        self._wrap(explorer, "evaluate_config", "explorer")
        for module in (cli, explorer):
            for name in CHECKERS:
                self._wrap(module, name, "hh_check", checker=True)
        for name in AUMANN:
            self._wrap(hh_check, name, "aumann", count=_nodes)
        for name in SET_CORE:
            self._wrap(hh_check, name, "set_core")
        for name in ("pairs", "triples"):
            self._wrap(hh_check.ConvexityGrid, name, "grid", count=_triples)
        for name in SVF_CLASSES:
            self._wrap(getattr(svf, name), "eval_vector", "svf", count=_points)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_unit(self):
        self.spans = []
        self.units.append(self.spans)

    def write(self, path):
        """One JSON line per span: [unit, name, start, end, parent]."""
        with open(path, "w") as fh:
            for u, spans in enumerate(self.units):
                for name, _, t0, t1, parent, _ in spans:
                    fh.write(json.dumps([u, name, t0, t1, parent]) + "\n")


def unit_metrics(spans) -> dict:
    """Per-layer metrics of one unit's spans.

    Self time is a span's duration minus that of its direct children.  Calls
    nested in a span of the same layer (``CShiftFn`` calling its base
    ``eval_vector``, ``triples`` calling ``pairs``) count no calls, points or
    triples of their own.
    """
    m = {name: 0.0 for name, _ in METRICS}
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent, count in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    for i, (name, layer, t0, t1, parent, count) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        outer = parent < 0 or spans[parent][1] != layer
        if layer == "svf":
            m["svf.eval_vector.self_s"] += own
            if outer:
                m["svf.eval_vector.calls"] += 1
                m["svf.eval_vector.points"] += count
        elif layer == "grid":
            if outer:
                m["hh_check.triples.s"] += dur
                m["hh_check.triples.count"] += count
        elif layer == "hh_check":
            m["hh_check.self_s"] += own
            m[f"hh_check.{name}.s"] += dur
            m["hh_check.peak_mb"] = max(m["hh_check.peak_mb"], count / 2 ** 20)
        elif layer in ("aumann", "set_core"):
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += own
            if layer == "aumann":
                m["aumann.nodes"] += count
        elif layer == "explorer":
            m["explorer.self_s"] += own
            if name == "evaluate_config":
                m["explorer.evaluations"] += 1
        elif name == "run":
            m["cli.run.self_s"] += own
        else:
            m[f"cli.{name}.s"] += dur
            if name == "render_report":
                m["cli.report_bytes"] += count
    return m
