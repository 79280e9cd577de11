"""Alternating parent/change pairs of the repository benchmark on one workload.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
in two checkouts, PARENT_DIR and CHANGE_DIR, one after the other, ten
times by default: pair i runs the parent first when i is even and the
change first when i is odd.  Each run prints one line as it finishes.  The
last line of output is a JSON object, keyed "<workload> seed <seed>", in
the layout of a workload entry of the ``BENCH_<n>.json`` files: the order
of each pair, unit counts and failures, report digests, and every run with
the median and quartiles of each side of ``unit_s_p50``, of ``ref_s_p50``
(each run's median reference-kernel seconds, the denominator of
``unit_rel_p50``) and of each end-to-end metric of BENCHMARK.json.  Per
metric it also gives the ratio of the medians, the change's wins, whether
every change run beat every parent run, and ``gain``: whether the change
won at least nine tenths of the pairs (ties count for neither side) and
its median is better than the parent's by more than the parent's
interquartile range, the rule a claimed gain must meet.  Run on two copies
of one commit, the same tool gives an A/A control: the ratio and wins that
noise alone produces.  ``kernel_check`` compares the change/parent ratios of
``unit_rel_p50`` and of unit seconds and flags the workload when they
differ by more than the parent's relative interquartile range of
``unit_rel_p50``: there the reference kernel moved between the sides, and
the relative metric shows a gain or a loss that unit seconds do not.  It
takes any workload entry of a BENCH file, older ones included.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload grid-262k --seed 3
    python tools/bench_pairs.py PARENT_DIR PARENT_COPY_DIR --workload grid-262k --seed 3

Only the standard library is used.  Each checkout builds what it runs from
its own ``src``, and the benchmark writes only its ``.perfbench`` output
directory there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(result, record) of one benchmark run in ``checkout``: the last two
    JSON lines run.py prints."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spread(values: list) -> dict:
    """Median, quartiles and interquartile range, as the BENCH files give them."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def sides(values: dict) -> dict:
    """Each side's spread and its runs in pair order."""
    return {side: {**spread(values[side]), "runs": values[side]} for side in SIDES}


def gain(values: dict, wins: int, lower: bool) -> dict:
    """Whether the change's runs in ``values`` (per side, in pair order),
    which won ``wins`` pairs, show a gain: it wins at least nine tenths of
    the pairs, ties counting for neither side, and its median is better than
    the parent's by more than the parent's interquartile range."""
    parent, change = spread(values["parent"]), spread(values["change"])
    margin = (parent["median"] - change["median"]) * (1 if lower else -1)
    needed = -(-9 * len(values["parent"]) // 10)
    return {"wins": wins, "wins_needed": needed, "median_margin": margin,
            "parent_iqr": parent["iqr"], "holds": wins >= needed and margin > parent["iqr"]}


def summary(runs: dict, spec: dict, pairs: int) -> dict:
    """The workload entry of a BENCH file from the runs of each side, in
    pair order."""
    records = {side: [rec for _, rec in runs[side]] for side in SIDES}
    results = {side: [res for res, _ in runs[side]] for side in SIDES}
    entry = {
        "pairs": pairs,
        "order": ["parent first" if i % 2 == 0 else "change first" for i in range(pairs)],
        "all_units_correct": all(res["correct"] for side in SIDES for res in results[side]),
        "failed_units": {side: sum(res["failed"] for res in results[side]) for side in SIDES},
        "attempted_units": {side: sum(res["attempted"] for res in results[side])
                            for side in SIDES},
        "digest_matches_baseline": {side: sorted({rec["digest_matches_baseline"]
                                                  for rec in records[side]}, key=str)
                                    for side in SIDES},
        "digests": {side: sorted({rec["digest"] for rec in records[side]}) for side in SIDES},
        "unit_s_p50": sides({side: [rec["unit_s_p50"] for rec in records[side]]
                             for side in SIDES}),
        "ref_s_p50": sides({side: [statistics.median(rec["ref_s_samples"])
                                   for rec in records[side]] for side in SIDES}),
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [res["metrics"][name]["value"] for res in results[side]]
                  for side in SIDES}

        def better(a, b):
            return a < b if lower else a > b

        wins = sum(better(c, p) for p, c in zip(values["parent"], values["change"]))
        entry["metrics"][name] = {
            "unit": metric["unit"],
            **sides(values),
            "median_ratio_change_over_parent":
                statistics.median(values["change"]) / statistics.median(values["parent"]),
            "change_wins": wins,
            "change_better_than_every_parent_run":
                all(better(c, p) for c in values["change"] for p in values["parent"]),
            "gain": gain(values, wins, lower),
        }
    entry["kernel_check"] = kernel_check(entry)
    return entry


def kernel_check(entry: dict) -> dict:
    """The change/parent ratios of the medians of ``unit_rel_p50`` and of
    ``unit_s_p50`` in a workload entry, the parent's interquartile range of
    ``unit_rel_p50`` over its median, and whether the two ratios differ by
    more than that."""
    rel = entry["metrics"]["unit_rel_p50"]
    rel_ratio = rel["median_ratio_change_over_parent"]
    unit_ratio = entry["unit_s_p50"]["change"]["median"] / entry["unit_s_p50"]["parent"]["median"]
    limit = rel["parent"]["iqr"] / rel["parent"]["median"]
    return {"unit_rel_ratio": rel_ratio, "unit_s_ratio": unit_ratio, "parent_rel_iqr": limit,
            "flagged": abs(rel_ratio - unit_ratio) > limit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    dirs = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result, record = run_once(dirs[side], args.workload, args.seed, seconds)
            runs[side].append((result, record))
            shown = "  ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"pair {i} {side:<6} {shown}  unit_s_p50 {record['unit_s_p50']:.6g}  "
                  f"ref_s {statistics.median(record['ref_s_samples']):.6g}  "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    entry = summary(runs, spec, args.pairs)
    for side in SIDES:
        print(f"{side:<6} median unit_s_p50 {entry['unit_s_p50'][side]['median']:.6g} s  "
              f"reference kernel {entry['ref_s_p50'][side]['median']:.6g} s")
    for name, metric in entry["metrics"].items():
        won = metric["gain"]
        print(f"{name}: change/parent {metric['median_ratio_change_over_parent']:.4f}  "
              f"wins {won['wins']}/{args.pairs} (gain needs {won['wins_needed']})  "
              f"median margin {won['median_margin']:.6g} against parent IQR "
              f"{won['parent_iqr']:.6g}  gain {'holds' if won['holds'] else 'not shown'}")
    check = entry["kernel_check"]
    print(f"change/parent unit_rel_p50 {check['unit_rel_ratio']:.4f}  unit_s_p50 "
          f"{check['unit_s_ratio']:.4f}  parent relative IQR {check['parent_rel_iqr']:.4f}"
          + ("  FLAGGED: the metrics disagree" if check["flagged"] else ""))
    print(json.dumps({f"{args.workload} seed {args.seed}": entry}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
