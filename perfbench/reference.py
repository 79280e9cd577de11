"""Reference kernel: how fast the host is at one moment.

    python3 perfbench/reference.py

Runs as a helper process beside the workload process, so that its arrays
stay out of the workload's peak memory.  For each line read on stdin it
runs the kernel once and prints its seconds; it exits at end of input.

The kernel shares no code with the program.  It mixes what a unit does:
interpreter-bound dict and float work, numpy work on arrays that fit in
the cache, and numpy work streaming arrays larger than the cache, in
about equal shares.  Its seconds move with the host's speed state, so a
unit's seconds divided by those of the kernel runs around it move with
the program alone.
"""

from __future__ import annotations

import sys
import time

import numpy as np

_SMALL = (np.linspace(1.0, 2.0, 1 << 15), np.linspace(2.0, 3.0, 1 << 15))
_LARGE = (np.linspace(1.0, 2.0, 1 << 20), np.linspace(2.0, 3.0, 1 << 20))


def kernel() -> float:
    """Seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    buckets = {}
    for i in range(40000):
        key = i % 997
        buckets[key] = buckets.get(key, 0.0) + i * 0.5
    total = sum(buckets.values())
    a, b = _SMALL
    for _ in range(96):
        total += float(np.maximum(a * b, b - a).sum())
    a, b = _LARGE
    total += float(np.maximum(a * b, b - a).sum())
    seconds = time.perf_counter() - t0
    if not total > 0.0:
        raise AssertionError("reference kernel lost its result")
    return seconds


def main() -> int:
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
