"""Command-line frontend: config ingestion, suite orchestration, reports.

Exit codes: 0 = all inclusions held, 1 = at least one genuine violation,
2 = configuration or numerical error.

The config and report documents are JSON.  Machine-format reports print
numbers with 17 significant digits, so parse(render(report)) round-trips
exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .aumann import PositivityError, QuadratureError, QuadratureSpec
from .explorer import SearchSpace, emit_counterexample, min_slack_search, run_theorems
from .hh_check import DEFAULT_TOL, THEOREM_IDS, ConvexityGrid, TheoremReport, check_modulus
# Not called here: perfbench/spans.py wraps these names in this module.
from .hh_check import (  # noqa: F401
    check_cor34, check_cor36, check_hh, check_lemma_shift, check_nikodem, check_prop31,
    check_strongly_harmonic_convex, check_strongly_harmonic_midconvex, check_thm33, check_thm35)
from .set_core import (Interval, NonFiniteSetError, RepresentationMismatchError, SupportSet,
                       UnsupportedProductError)
from .svf import (
    DomainError,
    FeasibilityError,
    HarmonicDomain,
    ParameterError,
    SetValuedFn,
    make_disc_family,
    make_quadratic_family,
)

MODES = ("verify", "search", "baseline")

CONFIG_ERRORS = (
    FeasibilityError, DomainError, ParameterError, QuadratureError,
    PositivityError, RepresentationMismatchError, UnsupportedProductError,
    NonFiniteSetError,
)


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


def _convert(value, convert, what: str):
    """``convert(value)``, or a ConfigError naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {value!r}") from exc


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {x}")
    return x


def _count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _tolerance(value) -> float:
    tol = _finite(value)
    if tol < 0.0:
        raise ValueError(f"negative tolerance: {tol}")
    return tol


def _search_range(value, name: str) -> tuple:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise ConfigError(f"search range {name} must be [min, max], got {value!r}")
    return tuple(value)


def _parse_search(doc) -> dict:
    """The search object with its keys checked and its ranges as tuples."""
    if not isinstance(doc, dict):
        raise ConfigError("search mode needs a 'search' space object")
    known = {f.name for f in dataclasses.fields(SearchSpace)} | {"budget",
                                                                 "counterexample_out"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown search key(s): {', '.join(map(repr, unknown))}")
    search = dict(doc)
    for key in ("alpha", "beta", "K", "a", "b", "c"):
        if key in search:
            search[key] = _search_range(search[key], key)
    for key in ("v", "w"):
        if key in search:
            pair = search[key]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"search range {key} must be two [min, max] ranges")
            search[key] = tuple(_search_range(r, f"{key}[{i}]") for i, r in enumerate(pair))
    search["budget"] = _convert(search.get("budget", 64), _count, "search budget")
    return search


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    mode = doc.get("mode", "verify")
    if mode not in MODES:
        raise ConfigError(f"unknown mode: {mode!r}")

    grid_doc = doc.get("grid", {}) or {}
    grid_kwargs = {}
    if "pair_count" in grid_doc:
        grid_kwargs["pair_count"] = _convert(grid_doc["pair_count"], _count, "grid pair_count")
    if "t_values" in grid_doc:
        grid_kwargs["t_values"] = _convert(grid_doc["t_values"], tuple, "grid t_values")
    if "sampling" in grid_doc:
        grid_kwargs["sampling"] = grid_doc["sampling"]
    if "seed" in grid_doc:
        grid_kwargs["seed"] = _convert(grid_doc["seed"], _count, "grid seed")
    try:
        grid = ConvexityGrid(**grid_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc

    quad_doc = doc.get("quadrature", {}) or {}
    order = quad_doc.get("order", quad_doc.get("order_or_panels", 16))
    try:
        quadrature = QuadratureSpec(
            rule=quad_doc.get("rule", "gauss-legendre"),
            order_or_panels=_convert(order, _count, "quadrature order"),
            substitution=bool(quad_doc.get("substitution", True)),
        )
    except QuadratureError as exc:
        raise ConfigError(f"bad quadrature spec: {exc}") from exc

    theorems = list(doc.get("theorems", []))
    for tid in theorems:
        if tid not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem id: {tid!r}")

    families = list(doc.get("families", []))
    c = _convert(doc.get("c", 0.0), float, "modulus c")
    if mode in ("verify", "baseline"):
        if not families:
            raise ConfigError(f"{mode} mode needs at least one family descriptor")
        if mode == "verify" and not theorems:
            raise ConfigError("verify mode needs a nonempty theorem list")
        if mode == "baseline":
            theorems = [t for t in theorems if t.startswith("nikodem")] or \
                ["nikodem_left", "nikodem_right"]
        for fam in families:
            if not isinstance(fam, dict):
                raise ConfigError(f"family descriptor must be an object, got {fam!r}")
            if "a" not in fam or "b" not in fam:
                raise ConfigError("family descriptor is missing its domain (a, b)")
        try:
            check_modulus(theorems, c)
        except FeasibilityError as exc:
            raise ConfigError(str(exc)) from exc
    search = doc.get("search")
    if mode == "search":
        search = _parse_search(search)
        if len(theorems) != 1:
            raise ConfigError("search mode needs exactly one theorem id")

    return RunConfig(
        mode=mode,
        families=families,
        c=c,
        grid=grid,
        quadrature=quadrature,
        theorems=theorems,
        tolerance=_convert(doc.get("tolerance", DEFAULT_TOL), _tolerance, "tolerance"),
        output=doc.get("output"),
        seed=_convert(doc.get("seed", 0), _count, "seed"),
        search=search,
        raw=doc,
    )


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return _finite(value)


def _pair(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"not an [x, y] pair: {value!r}")
    return tuple(_number(v) for v in value)


def build_family(descriptor: dict) -> SetValuedFn:
    kind = descriptor.get("family")

    def get(key, convert=_finite):
        return _convert(descriptor[key], convert, f"family field {key!r}")

    try:
        dom = HarmonicDomain(get("a"), get("b"))
        if kind == "quadratic-interval":
            return make_quadratic_family(get("alpha"), get("beta"), get("K"), dom)
        if kind == "disc":
            return make_disc_family(get("v", _pair), get("w", _pair), get("K"), get("beta"),
                                    dom, grid_size=_convert(descriptor.get("grid_size", 64),
                                                            _count, "family field 'grid_size'"))
    except KeyError as exc:
        raise ConfigError(f"family descriptor missing field: {exc}") from exc
    raise ConfigError(f"unknown family kind: {kind!r}")


def _set_to_doc(s) -> dict:
    if isinstance(s, Interval):
        return {"kind": "interval", "lo": s.lo, "hi": s.hi}
    if isinstance(s, SupportSet):
        return {"kind": "support", "support": list(s.support)}
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
    errored = 0

    if cfg.mode == "search":
        space_doc = dict(cfg.search)
        budget = space_doc.pop("budget")
        counterexample_path = space_doc.pop("counterexample_out", None)
        space = SearchSpace(**space_doc)
        result = min_slack_search(space, cfg.theorems[0], budget, cfg.seed,
                                  grid=cfg.grid, quad=cfg.quadrature,
                                  tol=cfg.tolerance)
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
    failed = len(entries) - held - errored
    report = RunReport(
        config=cfg.raw,
        reports=entries,
        summary={"total": len(entries), "held": held, "failed": failed,
                 "errored": errored},
        wall_time_s=time.perf_counter() - start,
    )
    exit_code = 0 if failed == 0 else 1
    return report, exit_code


def dumps_machine(obj, indent: int = 0) -> str:
    """JSON with floats printed at 17 significant digits (lossless)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps_machine(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps_machine(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
        if args.mode is not None:
            doc["mode"] = args.mode
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.tol is not None:
            doc["tolerance"] = args.tol
        cfg = parse_config(doc)
        report, exit_code = run(cfg)
        out_path = args.out or cfg.output
        text = render_report(report, args.format, out_path)
        if not out_path:
            sys.stdout.write(text)
    except (ConfigError, *CONFIG_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
