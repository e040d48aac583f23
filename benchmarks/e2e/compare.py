#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

Prints one row per (workload, end-to-end metric) with both values, the
change from A to B, the bound and a verdict:

* ``better`` / ``worse``  B moved past the bound in that direction,
* ``same``                within the bound,
* ``unresolved``          ``host_s`` moved less than the repetitions of either
  run spread, and that spread is wider than the bound.

The bound is the metric's ``bound`` in ``BENCHMARK.json``.  When both files
were made with the same seed the simulated metrics repeat bit-for-bit, so for
them any move past ``SIM_TOLERANCE`` counts.  Exits 1 on any ``worse`` row or
on a lower ``success_share`` (= a higher fail share), else 0.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Same-seed tolerance of the simulated (deterministic) metrics.
SIM_TOLERANCE = 0.001
HOST_METRICS = ("setup_s", "host_s", "host_peak_rss_mb")


def load_records(path: str) -> dict:
    """``{workload: record}`` from a full-set file or a one-workload record."""
    with open(path) as f:
        doc = json.load(f)
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def rep_spread(record: dict) -> float:
    reps = sorted(record.get("host_s_reps") or [0.0])
    mid = reps[len(reps) // 2]
    return (reps[-1] - reps[0]) / mid if mid else 0.0


def verdict(spec: dict, a: float, b: float, bound: float, noise: float = 0.0) -> str:
    """Judge the move from ``a`` to ``b`` for one metric."""
    if a == b:
        return "same"
    change = (b - a) / abs(a) if a else float("inf")
    worse = change > 0 if spec["better"] == "lower" else change < 0
    if abs(change) <= bound:
        return "same"
    if noise > bound and abs(change) <= noise:
        return "unresolved"
    return "worse" if worse else "better"


def compare(a: dict, b: dict, contract: dict) -> list:
    """Rows ``(workload, metric, a, b, change, bound, verdict)``."""
    rows = []
    for name in a:
        if name not in b:
            continue
        ra, rb = a[name], b[name]
        same_seed = ra.get("seed") == rb.get("seed")
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            va, vb = ra["end_to_end"][metric], rb["end_to_end"][metric]
            bound = spec["bound"]
            if same_seed and metric not in HOST_METRICS:
                bound = min(bound, SIM_TOLERANCE)
            noise = max(rep_spread(ra), rep_spread(rb)) if metric == "host_s" else 0.0
            v = verdict(spec, va, vb, bound, noise)
            if metric == "success_share" and vb < va:
                v = "worse"
            change = (vb - va) / abs(va) if va else 0.0
            rows.append((name, metric, va, vb, change, bound, v))
    return rows


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    rows = compare(load_records(argv[1]), load_records(argv[2]), contract)
    print(f"{'workload':16s} {'metric':24s} {'A':>14s} {'B':>14s} {'change':>9s} "
          f"{'bound':>7s}  verdict")
    for name, metric, va, vb, change, bound, v in rows:
        print(f"{name:16s} {metric:24s} {va:14.6g} {vb:14.6g} {change:+9.2%} "
              f"{bound:7.2%}  {v}")
    counts = {v: sum(1 for r in rows if r[-1] == v)
              for v in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{k} {n}" for k, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
