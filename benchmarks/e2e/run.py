#!/usr/bin/env python3
"""Two-clock serving benchmark: one command, six workloads, one schema.

    python3 benchmarks/e2e/run.py --seed 0 [--out results.json]
        runs every workload (each in a fresh subprocess, one after another),
        prints every metric by name with its unit, the layer x workload
        host-share matrix, checks outputs and the design assertions, and
        exits non-zero on a failed check.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        runs one workload in this process and prints, as the last line of
        standard output, one JSON object with ``correct``, ``attempted``,
        ``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
        the per-layer metrics with ``--trace 1``).

``host_*`` metrics are wall clock of this Python process; ``sim_*`` metrics
are the simulated GPU/cluster clock and repeat bit-for-bit for a fixed seed.
See README.md beside this file for the protocol and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

#: The clock of ``setup_s`` starts here, before the program is imported.
_T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
PINNED_ENV = {
    "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_program():
    """Import the program and the harness; returns ``(protocol module,
    seconds since interpreter start)`` — the import part of ``setup_s``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"error: {src}/repro not found; run from a checkout of the repository")
    sys.path[:0] = [src, HERE]
    import protocol

    return protocol, time.perf_counter() - _T0


# -- output ---------------------------------------------------------------------------


def contract_metrics(record: dict, contract: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for the group the contract asks for."""
    group = contract["per_layer"] if trace else contract["end_to_end"]
    values = record["per_layer"] if trace else record["end_to_end"]
    out = {}
    for spec in group:
        value = values.get(spec["name"])
        if value is None:
            print(f"warning: metric {spec['name']} is missing", file=sys.stderr)
            value = 0.0
        out[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return out


def print_metrics(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")


def run_one(args, contract: dict) -> int:
    protocol, import_s = import_program()
    record = protocol.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              scale=1.0, import_s=import_s)
    print(f"workload {args.workload} seed {args.seed}: {len(record['host_s_reps'])} "
          f"repetitions, host {' '.join('%.3f' % h for h in record['host_s_reps'])} s"
          f"{' (unresolved: spread above 10%)' if record['unresolved'] else ''}")
    metrics = contract_metrics(record, contract, False)
    print_metrics("end to end", metrics)
    if args.trace:
        metrics = contract_metrics(record, contract, True)
        print_metrics("per layer", metrics)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def host_share_matrix(per_layer: dict) -> dict:
    """``{layer: {workload: share of traced host self time}}``."""
    matrix: dict = {}
    for workload, metrics in per_layer.items():
        selfs = {
            k.rsplit(".", 1)[0]: v for k, v in metrics.items()
            if k.endswith("host_self_s") and v is not None and not k.startswith("core.wrapper.")
        }
        selfs["core.wrapper"] = sum(
            metrics.get(f"core.wrapper.{p}_host_self_s") or 0.0 for p in ("plan", "run"))
        total = sum(selfs.values())
        for layer, value in selfs.items():
            matrix.setdefault(layer, {})[workload] = value / total if total else 0.0
    return matrix


def design_checks(records: dict) -> list:
    """The assertions the workload design rests on; returns the failures."""
    layers = {n: r["per_layer"] for n, r in records.items()}
    matrix = host_share_matrix(layers)
    workloads = list(records)
    print("-- share of traced host self time, layer x workload")
    print(f"  {'layer':22s}" + "".join(f"{n[:14]:>16s}" for n in workloads))
    for layer in sorted(matrix):
        print(f"  {layer:22s}" + "".join(
            f"{matrix[layer].get(n, 0.0):16.3f}" for n in workloads))
    failures = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    def share(layer: str, n: str) -> float:
        return matrix.get(layer, {}).get(n, 0.0)

    if "chat_decode" in records:
        check(share("core.scheduler", "chat_decode") >= 0.5,
              "core.scheduler holds >= 50% of host time on chat_decode")
        check(layers["chat_decode"]["kvcache.radix.hit_token_share"] == 0,
              "kvcache.radix.hit_token_share is 0 on chat_decode")
    if "kernel_batch" in records:
        check(share("core.kernels", "kernel_batch") + share("core.jit", "kernel_batch") >= 0.5,
              "core.kernels + core.jit hold >= 50% of host time on kernel_batch")
    for n in workloads:
        if n != "kernel_batch":
            check(layers[n]["core.kernels.calls"] == 0, f"core.kernels has 0 calls on {n}")
        check(layers[n]["bench.span_coverage"] >= 0.95, f"span coverage >= 0.95 on {n}")
        # Reported, not asserted: four alternating pairs measure 5-9%, but one
        # reading on a shared core lands anywhere within +-20 points of that.
        if layers[n]["bench.trace_overhead_share"] > 0.10:
            print(f"note: trace overhead reads "
                  f"{layers[n]['bench.trace_overhead_share']:.0%} on {n}")
        check(records[n]["correct"], f"outputs of {n} are correct")
    if "prefix_fleet" in records:
        check(layers["prefix_fleet"]["kvcache.radix.hit_token_share"] >= 0.5,
              "kvcache.radix.hit_token_share >= 0.5 on prefix_fleet")
    return failures


def run_all(args, contract: dict) -> int:
    """Every workload, each in a fresh subprocess, one after another."""
    names = [w["name"] for w in contract["workloads"]]
    records = {}
    env = dict(os.environ, **PINNED_ENV)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        for name in names:
            out = os.path.join(tmp, f"{name}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "1", "--out", out]
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            print("\n".join(proc.stdout.splitlines()[:-1]))
            if not os.path.exists(out):
                print(f"error: workload {name} produced no result", file=sys.stderr)
                return 1
            with open(out) as f:
                records[name] = json.load(f)
    failures = design_checks(records)
    for what in failures:
        print(f"FAILED: {what}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "workloads": records}, f, indent=1, sort_keys=True)
    print(f"{len(names)} workloads, {len(failures)} failed checks")
    return 1 if failures else 0


def main() -> int:
    contract = load_contract()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record(s) to this JSON file")
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args, contract)
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Hash seed and BLAS threads are read at interpreter start: start over.
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    return run_one(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
