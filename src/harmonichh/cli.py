"""Command-line frontend: config ingestion, suite orchestration, reports.

Exit codes: 0 = all inclusions held, 1 = at least one genuine violation,
2 = any failure of the run (a bad config, a numerical error, an output
that cannot be written): ``main`` turns every exception into one
``error:`` line, so 1 only ever comes with a completed report.

The config and report documents are JSON.  Machine-format reports print
numbers with 17 significant digits, so parse(render(report)) round-trips
exactly; an infinite or NaN number, which JSON has no text for, is
refused by name.  A family descriptor's key table is built from its
class's declaration in ``svf``, so no family parameter is named here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .aumann import QuadratureSpec
from .explorer import SearchSpace, emit_counterexample, min_slack_search
from .hh_check import (DEFAULT_TOL, THEOREM_IDS, ConvexityGrid, TheoremReport, check_modulus,
                       run_theorems)
# Not called here: perfbench/spans.py wraps these names in this module.
from .hh_check import (  # noqa: F401
    check_cor34, check_cor36, check_hh, check_lemma_shift, check_nikodem, check_prop31,
    check_strongly_harmonic_convex, check_strongly_harmonic_midconvex, check_thm33, check_thm35)
from .set_core import Disc, Interval
from .svf import FAMILIES, FeasibilityError, SetValuedFn, make_family

MODES = ("verify", "search", "baseline")


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    mode: str
    families: list
    c: float
    grid: ConvexityGrid
    quadrature: QuadratureSpec
    theorems: list
    tolerance: float
    output: Optional[str]
    seed: int
    search: Optional[dict] = None
    raw: dict = field(default_factory=dict)


def default_config() -> dict:
    """Bundled default: the tight quadratic family on [1, 2], all theorems."""
    return {
        "mode": "verify",
        "families": [
            {"family": "quadratic-interval", "alpha": 1.0, "beta": 1.0,
             "K": 10.0, "a": 1.0, "b": 2.0},
        ],
        "c": 1.0,
        "grid": {"pair_count": 1024, "sampling": "deterministic-stratified", "seed": 0},
        "quadrature": {"rule": "gauss-legendre", "order": 16, "substitution": True},
        "theorems": list(THEOREM_IDS),
        "tolerance": 1e-9,
        "seed": 0,
    }


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return float(value)


def _count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"not a non-negative integer: {value!r}")
    return value


def _typed(kind: type, name: str):
    """Reader of a value of one JSON type, taken as it is."""
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"not {name}: {value!r}")
        return value
    return read


_flag = _typed(bool, "true or false")
_text = _typed(str, "a string")
_object = _typed(dict, "an object")


def _list(read):
    """Reader of a JSON list whose items go through ``read``."""
    def read_list(value) -> list:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"not a list: {value!r}")
        return [read(item) for item in value]
    return read_list


def _pair(read=_number):
    """Reader of a two-item JSON list whose items go through ``read``."""
    def read_pair(value) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"not a pair [x, y]: {value!r}")
        return read(value[0]), read(value[1])
    return read_pair


def _tolerance(value) -> float:
    tol = _number(value)
    if tol < 0.0:
        raise ValueError(f"negative tolerance: {tol}")
    return tol


# The key table of each config section: every key the section accepts and
# the reader of its value.  A table in place of a reader is a nested section.
GRID_FIELDS = {"pair_count": _count, "t_values": _list(_number), "sampling": _text,
               "seed": _count}
QUADRATURE_FIELDS = {"rule": _text, "order": _count, "substitution": _flag}
SEARCH_FIELDS = {
    "family": _text, "alpha": _pair(), "beta": _pair(), "K": _pair(),
    "v": _pair(_pair()), "w": _pair(_pair()), "a": _pair(), "b": _pair(), "c": _pair(),
    "certified_only": _flag, "budget": _count, "counterexample_out": _text,
}
# expected_slack: emit_counterexample writes it, so replays carry it
CONFIG_FIELDS = {
    "mode": _text, "families": _list(_object), "c": _number, "grid": GRID_FIELDS,
    "quadrature": QUADRATURE_FIELDS, "theorems": _list(_text), "tolerance": _tolerance,
    "output": _text, "seed": _count, "search": SEARCH_FIELDS, "expected_slack": _number,
}


def _family_fields(cls: type) -> dict:
    """The key table of a family's descriptor, in ``params()`` order, from
    its class's declaration: a pair or a number per parameter."""
    fields = {"family": _text}
    fields.update((name, _pair() if name in cls.pairs else _number) for name in cls.parameters)
    fields.update(a=_number, b=_number)
    return fields


# every key is required
FAMILY_FIELDS = {kind: _family_fields(cls) for kind, cls in FAMILIES.items()}


def _section(doc, what: str, fields: dict) -> dict:
    """One config section read through its key table ``fields``: anything but
    an object whose keys are all in ``fields`` and whose values their readers
    accept is a ConfigError naming the section and the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    out = {}
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"unknown {what} key {key!r}")
        read = fields[key]
        if isinstance(read, dict):
            out[key] = _section(value, repr(key), read)
            continue
        try:
            out[key] = read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {what} key {key!r}: {exc}") from exc
    return out


def _family(descriptor: dict) -> dict:
    """A family descriptor read through the key table of its kind."""
    kind = descriptor.get("family")
    if not isinstance(kind, str) or kind not in FAMILY_FIELDS:
        raise ConfigError(f"unknown family kind: {kind!r}")
    fam = _section(descriptor, f"{kind} family", FAMILY_FIELDS[kind])
    missing = [key for key in FAMILY_FIELDS[kind] if key not in fam]
    if missing:
        raise ConfigError(f"{kind} family is missing {', '.join(map(repr, missing))}")
    return fam


def parse_config(doc: dict) -> RunConfig:
    top = _section(doc, "config", CONFIG_FIELDS)
    mode = top.get("mode", "verify")
    if mode not in MODES:
        raise ConfigError(f"unknown mode: {mode!r}")

    quad = top.get("quadrature", {})
    if "order" in quad:
        quad["order_or_panels"] = quad.pop("order")
    try:
        grid = ConvexityGrid(**top.get("grid", {}))
        quadrature = QuadratureSpec(**quad)
    except ValueError as exc:  # QuadratureError too
        raise ConfigError(f"bad grid or quadrature: {exc}") from exc

    theorems = top.get("theorems", [])
    for tid in theorems:
        if tid not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem id: {tid!r}")

    families = [_family(descriptor) for descriptor in top.get("families", [])]
    c = top.get("c", 0.0)
    if mode in ("verify", "baseline"):
        if not families:
            raise ConfigError(f"{mode} mode needs at least one family descriptor")
        if mode == "verify" and not theorems:
            raise ConfigError("verify mode needs a nonempty theorem list")
        if mode == "baseline":
            theorems = [t for t in theorems if t.startswith("nikodem")] or \
                ["nikodem_left", "nikodem_right"]
        try:
            check_modulus(theorems, c)
        except FeasibilityError as exc:
            raise ConfigError(str(exc)) from exc
    search = top.get("search")
    if mode == "search":
        if search is None:
            raise ConfigError("search mode needs a 'search' space object")
        if len(theorems) != 1:
            raise ConfigError("search mode needs exactly one theorem id")

    return RunConfig(
        mode=mode,
        families=families,
        c=c,
        grid=grid,
        quadrature=quadrature,
        theorems=theorems,
        tolerance=top.get("tolerance", DEFAULT_TOL),
        output=top.get("output"),
        seed=top.get("seed", 0),
        search=search,
        raw=doc,
    )


def build_family(descriptor: dict) -> SetValuedFn:
    """The family of a config descriptor, read through its key table."""
    return make_family(_family(descriptor))


def _set_to_doc(s) -> dict:
    if isinstance(s, Interval):
        return {"kind": "interval", "lo": s.lo, "hi": s.hi}
    if isinstance(s, Disc):
        return {"kind": "disc", "center": list(s.center), "radius": s.radius}
    raise TypeError(f"not a convex set: {s!r}")


def _report_entry(rep: TheoremReport, family_index: int) -> dict:
    return {
        "theorem": rep.theorem_id,
        "family": family_index,
        "holds": rep.holds,
        "slack": rep.verdict.slack,
        "lhs": _set_to_doc(rep.lhs),
        "rhs": _set_to_doc(rep.rhs),
        "budget": rep.error_budget,
        "tolerance_used": rep.verdict.tolerance_used,
        "witness_direction": rep.verdict.witness_direction,
    }


@dataclass
class RunReport:
    config: dict
    reports: list
    summary: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return {"config": self.config, "reports": self.reports,
                "summary": self.summary, "wall_time_s": self.wall_time_s}


def run(cfg: RunConfig) -> tuple:
    """Execute the configured suite; returns (RunReport, exit_code)."""
    start = time.perf_counter()
    entries = []

    if cfg.mode == "search":
        space = dict(cfg.search)
        budget = space.pop("budget", 64)
        counterexample_path = space.pop("counterexample_out", None)
        result = min_slack_search(SearchSpace(**space), cfg.theorems[0], budget, cfg.seed,
                                  grid=cfg.grid, quad=cfg.quadrature, tol=cfg.tolerance)
        if result.violation_found and counterexample_path:
            emit_counterexample(result, counterexample_path)
        entries.append({
            "theorem": result.theorem_id,
            "family": 0,
            "holds": not result.violation_found,
            "slack": result.best_slack,
            "lhs": None,
            "rhs": None,
            "budget": 0.0,
            "best_config": result.best_config,
            "evaluations": result.evaluations,
            "seed": result.seed,
        })
    else:
        for idx, descriptor in enumerate(cfg.families):
            reports = run_theorems(build_family(descriptor), cfg.theorems, cfg.c,
                                   cfg.grid, cfg.quadrature, cfg.tolerance)
            entries.extend(_report_entry(rep, idx) for rep in reports)

    held = sum(1 for e in entries if e["holds"])
    failed = len(entries) - held
    report = RunReport(
        config=cfg.raw,
        reports=entries,
        summary={"total": len(entries), "held": held, "failed": failed,
                 "errored": 0},
        wall_time_s=time.perf_counter() - start,
    )
    exit_code = 0 if failed == 0 else 1
    return report, exit_code


def dumps_machine(obj, indent: int = 0) -> str:
    """JSON with floats printed at 17 significant digits (lossless)."""
    parts = []
    _emit(obj, indent, parts)
    return "".join(parts)


def _emit(obj, indent: int, parts: list) -> None:
    """Append the text of ``obj`` at nesting depth ``indent`` to ``parts``."""
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            parts.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = "\n" + "  " * (indent + 1)
        if isinstance(obj, dict):
            sep = "{" + inner
            for k, v in obj.items():
                parts += (sep, _encode_str(str(k)), ": ")
                _emit(v, indent + 1, parts)
                sep = "," + inner
            close = "}"
        else:
            sep = "[" + inner
            for v in obj:
                parts.append(sep)
                _emit(v, indent + 1, parts)
                sep = "," + inner
            close = "]"
        parts.append("\n" + "  " * indent + close)
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot render the non-finite number {obj!r} as JSON")
        parts.append(format(obj, ".17g"))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps does to a str


def render_text(report: RunReport) -> str:
    lines = [f"{'theorem':<14} {'family':>6} {'holds':>6} {'slack':>24} {'budget':>12}"]
    for e in report.reports:
        lines.append(f"{e['theorem']:<14} {e['family']:>6} "
                     f"{str(e['holds']):>6} {e['slack']:>24.16e} {e['budget']:>12.3e}")
    s = report.summary
    lines.append(f"total={s['total']} held={s['held']} failed={s['failed']} "
                 f"errored={s['errored']} wall={report.wall_time_s:.3f}s")
    return "\n".join(lines)


def render_report(report: RunReport, fmt: str = "json",
                  path: Optional[str] = None) -> str:
    if fmt == "json":
        text = dumps_machine(report.to_dict()) + "\n"
    elif fmt == "text":
        text = render_text(report) + "\n"
    else:
        raise ConfigError(f"unknown report format: {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _load_config(path: str) -> dict:
    if path == "default":
        return default_config()
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="harmonichh",
        description="Verify Hermite-Hadamard set inclusions for strongly "
                    "harmonic convex set-valued functions.")
    parser.add_argument("--config", required=True,
                        help="path to a JSON config, or 'default' for the bundled suite")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tol", type=float, help="override the config tolerance")
    args = parser.parse_args(argv)

    try:
        doc = _load_config(args.config)
        overrides = {"mode": args.mode, "seed": args.seed, "tolerance": args.tol}
        if isinstance(doc, dict):  # parse_config refuses any other document
            doc.update((key, value) for key, value in overrides.items() if value is not None)
        cfg = parse_config(doc)
        report, exit_code = run(cfg)
        out_path = args.out or cfg.output
        text = render_report(report, args.format, out_path)
        if not out_path:
            sys.stdout.write(text)
    except Exception as exc:  # any failure of the run, never a traceback's exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
