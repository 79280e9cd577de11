"""Layered benchmark of the harmonichh verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-default --seed 0 --seconds 35 --trace 0

One client drives ``harmonichh.cli`` in-process, in a closed loop: a unit
is ``parse_config`` -> ``run`` -> ``render_report`` and the next unit
starts when the previous one has finished.  Each workload runs in a fresh
child process (``worker.py``) with BLAS/OpenMP threads pinned to 1, and
every unit passes a correctness gate.

``--trace 0`` reports the end-to-end metrics: ``unit_rel_p50``,
``setup_s`` and ``peak_rss_mb``.  On the shared 2-core x86_64 VM the
benchmark was tuned on, CPU speed switched between states for seconds to
hours at a time, and two sets of ten runs an hour apart differed by up to
a third in unit seconds.  So the unit metric is relative: each unit's
seconds over the mean seconds of the reference kernel runs just before
and after it (``reference.py``, in a helper process), and the median of
those ratios.  Unit seconds themselves (``unit_s_p10``, ``unit_s_p50``
and the tail) are printed and recorded.  ``setup_s`` is the fastest of
several fresh processes, spread over the run, that import the program,
parse the config and build the family; probes run back to back all land
in one speed state.  ``--trace 1`` reports the per-layer metrics of a
traced run (see ``spans.py``) and ``trace.overhead_s``.  The last line
of standard output is the result object; the lines before it list every
metric by name and unit, the error rate, the tail percentile, the report
digest and the environment.  The exit code is 1 when any correctness check
failed, 2 when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, METRICS  # noqa: E402
from workloads import expected_failures, make_config  # noqa: E402

SETUP_PROBES = 24
# Beyond --seconds: start-up, the warm-up unit and a last slow unit.
DEADLINE_MARGIN_S = 60.0
OUT_DIR = ".perfbench"
LAYER_UNITS = dict(METRICS, **{"trace.overhead_s": "s"})
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(script: str, job: dict, timeout: float) -> dict:
    """Run ``script`` on ``job``; returns its parsed last output line."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / script)],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} timed out after {exc.timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list, pct: float) -> float:
    """Linear-interpolated percentile, to a tenth of a percent."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def tail(values: list) -> tuple:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(values, pct)
    return None, None


def git_sha() -> str:
    """HEAD of the checkout; "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(result: dict, why: str) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": result.get("python"),
        "numpy": result.get("numpy"),
        "thread_env": THREAD_ENV,
        "why": why,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def baseline_digest(workload: str, seed: int):
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text()).get("digests", {})
    return recorded.get(workload, {}).get(str(seed))


def collect(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple:
    """Run one workload; returns (result object, record).

    The result carries the metrics BENCHMARK.json lists; the record carries
    every per-layer metric, since a layer time that is zero by construction
    on some workload (no quadrature in a ``def_shc`` search) is kept out of
    the list.
    """
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    config = make_config(workload, seed, f"{OUT_DIR}/{stem}.counterexample.json", tiny)
    expect = expected_failures(workload, seed)
    job = {"config": config, "seconds": seconds, "trace": trace,
           "setup_probes": 0 if trace else 2 if tiny else SETUP_PROBES,
           "expect_failed": sorted(expect) if expect is not None else None,
           "spans_path": f"{OUT_DIR}/{stem}.spans.jsonl" if trace else None}
    result = spawn("worker.py", job, seconds + DEADLINE_MARGIN_S)

    attempted, failed, units = result["attempted"], result["failed"], result["unit_s"]
    baseline = baseline_digest(workload, seed)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "digest": result["digest"],
              "digest_matches_baseline": None if baseline is None
              else baseline == result["digest"],
              "problems": result["problems"],
              "env": environment(result, why)}
    if trace:
        layers = result.get("layers")
        correct = failed == 0 and layers is not None and result["counts_stable"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": LAYER_UNITS[m["name"]]}
                   for m in spec["per_layer"]} if layers else {}
        record["layers"] = layers
        record["exact_counts"] = {name: layers[name] for name in EXACT_COUNTS} if layers else {}
        record["counts_stable"] = result.get("counts_stable")
        record["units"] = {"untraced": len(units),
                           "traced": len(result.get("traced_unit_s", []))}
    else:
        correct = failed == 0 and bool(units)
        metrics = {
            "unit_rel_p50": {"value": statistics.median(result["unit_rel"]), "unit": "s/s"},
            "setup_s": {"value": min(result["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        } if units else {}
        record["unit_s_p10"] = percentile(units, 10.0) if units else None
        record["unit_s_p50"] = statistics.median(units) if units else None
        pct, value = tail(units)
        record["unit_s_tail"] = (None if pct is None else
                                 {"percentile": pct, "value": value, "samples": len(units)})
        record["units"] = len(units)
        record["setup_s_samples"] = result["setup_s"]
        record["ref_s_samples"] = result["ref_s"]
    record["error_rate"] = failed / attempted
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "harmonichh" / "cli.py").is_file():
        print(f"no harmonichh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    try:
        result, record = collect(spec, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {record['env']['why']}")
    shown = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    for name, value in (record.get("layers") or {}).items():
        shown[name] = (value, LAYER_UNITS[name])
    for name, (value, unit) in shown.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<46} {record['error_rate']:>16.6g} "
          f"({result['failed']} of {result['attempted']} units failed)")
    for name in ("unit_s_p10", "unit_s_p50"):
        if record.get(name):
            print(f"  {name:<46} {record[name]:>16.6g} s")
    tail_s = record.get("unit_s_tail")
    if tail_s:
        print(f"  {'unit_s_tail':<46} {tail_s['value']:>16.6g} s "
              f"(p{tail_s['percentile']:g} of {tail_s['samples']} units)")
    print(json.dumps({"record": record}))
    for problem in record["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
