"""Tiny-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at small grids for a short closed loop, untraced and
traced, through the same code path as ``run.py`` and with the correctness
gate on.  Checks that each result names exactly the metrics and units of
BENCHMARK.json, that the exact counts repeat across two traced runs, and
that the gate rejects broken reports.  It takes about fifteen seconds and is
not one of the timed workloads.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_FAILURES, make_config  # noqa: E402

SECONDS = 0.5


def check_runs(spec: dict) -> list:
    problems = []
    for w in spec["workloads"]:
        counts = []
        for trace in (False, True, True):
            result, record = run.collect(spec, w["name"], 0, SECONDS, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{w['name']} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {record['problems']}")
            if got != want:
                problems.append(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace:
                counts.append(record["exact_counts"])
        if counts[0] != counts[1]:
            problems.append(f"{w['name']}: exact counts differ: {counts}")
    return problems


def _entries(doc: dict) -> dict:
    return {e["theorem"]: e for e in doc["reports"]}


def _rejects(job: dict, code: int, doc: dict, cli, what: str) -> list:
    if worker.gate(job, code, json.dumps(doc), cli):
        return []
    return [f"gate accepted a report with {what}"]


def check_gate() -> list:
    from harmonichh import cli

    config = make_config("suite-default", 0, "", tiny=True)
    job = {"config": config, "expect_failed": sorted(DEFAULT_FAILURES)}
    report, code = cli.run(cli.parse_config(config))
    text = cli.render_report(report)
    problems = [f"gate rejected a good suite report: {p}"
                for p in worker.gate(job, code, text, cli)]

    doc = json.loads(text)
    _entries(doc)["hh_right"]["rhs"]["lo"] += 1e-6
    problems += _rejects(job, code, doc, cli, "a wrong harmonic mean")
    doc = json.loads(text)
    _entries(doc)["def_shc"]["holds"] = False
    problems += _rejects(job, code, doc, cli, "a failed guaranteed theorem")
    doc = json.loads(text)
    _entries(doc)["thm33"]["holds"] = True
    problems += _rejects(job, code, doc, cli, "a product theorem that held")
    problems += _rejects(job, 2, json.loads(text), cli, "exit code 2")

    out = run.ROOT / run.OUT_DIR / "selfcheck.counterexample.json"
    out.parent.mkdir(exist_ok=True)
    config = make_config("search-disc", 0, str(out), tiny=True)
    job = {"config": config}
    report, code = cli.run(cli.parse_config(config))
    text = cli.render_report(report)
    problems += [f"gate rejected a good search report: {p}"
                 for p in worker.gate(job, code, text, cli)]
    emitted = json.loads(out.read_text())
    emitted["expected_slack"] += 1e-9
    out.write_text(json.dumps(emitted))
    problems += _rejects(job, code, json.loads(text), cli, "a counterexample that does not replay")
    out.unlink()
    return problems


def main() -> int:
    spec = run.load_spec()
    problems = check_gate() + check_runs(spec)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck failed" if problems else "selfcheck passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
