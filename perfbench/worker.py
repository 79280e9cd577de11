"""Benchmark child process: runs one workload in a closed loop.

Reads a job document on stdin and prints one JSON result line.  It runs
one untimed warm-up unit, then timed units, each starting only after the
previous one finished, until the next would overrun ``seconds``.  A unit
is ``parse_config`` -> ``run`` -> ``render_report``.  With ``trace`` on,
the warm-up unit records checker memory peaks and the timed units
alternate untraced and traced, so the tracing overhead is measured under
the same machine conditions as the spans.  Untraced, ``setup_probes``
fresh set-up processes (``probe.py``) run between units, spread evenly
over the window, after one untimed probe that warms the file cache, and
the reference kernel (``reference.py``) runs before a unit whenever
``REF_EVERY_S`` has passed since its last run, and once after the last;
see ``Reference.sample``.

Every unit, traced or not, passes the correctness gate and has its report
digested; see ``gate``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, METRICS, Tracer, report_body, unit_metrics  # noqa: E402
from workloads import GUARANTEED, THEOREMS  # noqa: E402


REF_EVERY_S = 0.5
REF_BURST_MAX = 9


def probe(config: dict) -> float:
    """Seconds from spawning ``probe.py`` until it is ready to run units."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py")], input=json.dumps(config),
                          capture_output=True, text=True, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"probe.py exited {proc.returncode}: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1]) - start


class Reference:
    """The reference kernel's helper process (``reference.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def run(self) -> float:
        """Seconds of one kernel run; the caller waits for it."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference.py exited {self.proc.wait()}")
        return float(line)

    def sample(self, unit_s: float) -> float:
        """Median of a burst of kernel runs, one per ``REF_EVERY_S`` of a unit.

        One run lasts a few hundredths of a second and catches one moment;
        a unit of seconds spans several, so it is compared with more runs.
        """
        n = min(REF_BURST_MAX, max(1, round(unit_s / REF_EVERY_S)))
        return statistics.median([self.run() for _ in range(n | 1)])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def digest(text: str) -> str:
    """SHA-256 of the report text with its ``wall_time_s`` line removed."""
    return hashlib.sha256(report_body(text).encode()).hexdigest()


def _close(got: float, want: float, allow: float) -> bool:
    return abs(got - want) <= allow


def check_suite(config: dict, code: int, report: dict, expect_failed) -> list:
    """Problems with a verify-suite report; an empty list means it passed."""
    entries = {e["theorem"]: e for e in report["reports"]}
    if len(report["reports"]) != len(THEOREMS) or set(entries) != set(THEOREMS):
        return [f"report covers {sorted(entries)}, not the 13 theorems"]
    problems = [f"{tid} failed although c is within the certified modulus"
                for tid in GUARANTEED if not entries[tid]["holds"]]
    failed = {tid for tid, e in entries.items() if not e["holds"]}
    if code != (1 if failed else 0):
        problems.append(f"exit code {code} with failures {sorted(failed)}")
    if expect_failed is not None and failed != set(expect_failed):
        problems.append(f"failed {sorted(failed)}, expected {sorted(expect_failed)}")
    # Closed form of the harmonic mean set: [alpha m, K - beta m].
    fam = config["families"][0]
    a, b, c = fam["a"], fam["b"], config["c"]
    m = (a * a + a * b + b * b) / (3.0 * a * a * b * b)
    lo, hi = fam["alpha"] * m, fam["K"] - fam["beta"] * m
    r = c / 12.0 * ((b - a) / (a * b)) ** 2
    tol = config["tolerance"]
    for tid, side, pad in (("hh_right", "rhs", 0.0), ("hh_left", "lhs", r)):
        e = entries[tid]
        allow = e["budget"] + tol * (1.0 + max(abs(lo), abs(hi)) + pad)
        got = e[side]
        if not (_close(got["lo"], lo - pad, allow) and _close(got["hi"], hi + pad, allow)):
            problems.append(f"{tid} mean side [{got['lo']}, {got['hi']}] is not "
                            f"[{lo - pad}, {hi + pad}] within {allow}")
    return problems


def check_search(config: dict, code: int, report: dict, cli) -> list:
    """Problems with a search report, including the counterexample replay."""
    entry = report["reports"][0]
    if code != 1 or entry["holds"]:
        return [f"search found no violation (exit {code})"]
    path = config["search"]["counterexample_out"]
    try:
        with open(path) as fh:
            replay_doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no counterexample emitted: {exc}"]
    replay, replay_code = cli.run(cli.parse_config(replay_doc))
    expected = replay_doc["expected_slack"]
    slack = replay.reports[0]["slack"]
    problems = []
    if replay_code != 1 or abs(slack - expected) > 1e-12:
        problems.append(f"replay exit {replay_code}, slack {slack}, expected {expected}")
    if entry["slack"] != expected:
        problems.append(f"report slack {entry['slack']} differs from the emitted {expected}")
    return problems


def gate(job: dict, code: int, text: str, cli) -> list:
    """Correctness gate of one unit's exit code and rendered report."""
    if code not in (0, 1):
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    config = job["config"]
    if config["mode"] == "search":
        return check_search(config, code, report, cli)
    return check_suite(config, code, report, job.get("expect_failed"))


class Loop:
    """Runs and gates units, keeping times, digests and problems."""

    def __init__(self, job: dict, cli):
        self.job, self.cli = job, cli
        self.tracer = Tracer() if job.get("trace") else None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []

    def unit(self, traced: bool = False) -> Optional[float]:
        """One unit; returns its seconds, or None if it failed."""
        cli, job = self.cli, self.job
        search = job["config"].get("search")
        if search and os.path.exists(search["counterexample_out"]):
            os.remove(search["counterexample_out"])
        if traced:
            self.tracer.begin_unit()
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            cfg = cli.parse_config(job["config"])
            report, code = cli.run(cfg)
            text = cli.render_report(report)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        else:
            problems = []
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.remove()
        if not problems:
            problems = gate(job, code, text, cli)
            self.digests.append(digest(text))
            if self.digests[-1] != self.digests[0]:
                problems.append(f"report digest {self.digests[-1]} differs from "
                                f"the first unit's {self.digests[0]}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])
            return None
        return seconds


def _median_metrics(units: list) -> tuple:
    """Per-unit medians of the layer metrics, and whether the counts repeat."""
    per_unit = [unit_metrics(spans) for spans in units]
    out = {name: statistics.median(u[name] for u in per_unit) for name, _ in METRICS}
    for name in EXACT_COUNTS:
        out[name] = per_unit[0][name]
    stable = all(u[name] == out[name] for u in per_unit for name in EXACT_COUNTS)
    return out, stable


def measure(job: dict, cli) -> dict:
    loop = Loop(job, cli)
    ref = None if loop.tracer else Reference()
    try:
        return _measure(job, loop, ref)
    finally:
        if ref:
            ref.close()


def _measure(job: dict, loop: Loop, ref: Optional[Reference]) -> dict:
    seconds = float(job["seconds"])
    probes = int(job["setup_probes"])
    untraced, traced, setups = [], [], []
    # ref_s[unit_ref[i]] and ref_s[unit_ref[i] + 1] are the kernel runs
    # just before and after untraced unit i.
    ref_s, unit_ref = [], []
    last_ref = float("-inf")
    if probes:
        probe(job["config"])
    if ref:
        ref.run()
    if loop.tracer:
        loop.tracer.memory = True
        loop.unit(traced=True)
        memory_spans = loop.tracer.units.pop()
        loop.tracer.memory = False
    else:
        loop.unit()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < probes and elapsed >= len(setups) * seconds / probes:
            setups.append(probe(job["config"]))
            continue
        done = untraced + traced
        complete = untraced and (traced or not loop.tracer)
        if complete and elapsed + statistics.median(done) > seconds:
            break
        if not complete and elapsed > seconds and loop.failed:
            break
        use_trace = bool(loop.tracer) and len(untraced) > len(traced)
        if ref and time.perf_counter() - last_ref >= REF_EVERY_S:
            ref_s.append(ref.sample(statistics.median(untraced) if untraced else 0.0))
            last_ref = time.perf_counter()
        dt = loop.unit(traced=use_trace)
        if dt is not None:
            (traced if use_trace else untraced).append(dt)
            if ref:
                unit_ref.append(len(ref_s) - 1)
    if ref:
        ref_s.append(ref.sample(statistics.median(untraced) if untraced else 0.0))
    while len(setups) < probes:
        setups.append(probe(job["config"]))
    result = {
        "unit_s": untraced,
        "unit_rel": [dt * 2.0 / (ref_s[i] + ref_s[i + 1]) for dt, i in zip(untraced, unit_ref)],
        "ref_s": ref_s,
        "setup_s": setups,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "digest": loop.digests[0] if loop.digests else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if loop.tracer and traced and untraced:
        layers, stable = _median_metrics(loop.tracer.units)
        layers["hh_check.peak_mb"] = unit_metrics(memory_spans)["hh_check.peak_mb"]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result.update(traced_unit_s=traced, layers=layers, counts_stable=stable)
        if job.get("spans_path"):
            loop.tracer.write(job["spans_path"])
    return result


def main() -> int:
    job = json.load(sys.stdin)
    import numpy
    from harmonichh import cli

    src = ROOT / "src"
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"harmonichh imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = measure(job, cli)
    result.update(python=sys.version.split()[0], numpy=numpy.__version__)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
