"""Self-tests of the benchmark harness (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(E2E))
sys.path[:0] = [os.path.join(ROOT, "src"), E2E]

import compare  # noqa: E402
import kernel_batch  # noqa: E402
import protocol  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)


@pytest.fixture(scope="module")
def records():
    """Every workload once at 1/10 scale, traced."""
    return {
        name: protocol.measure(name, seed=0, seconds=0.0, trace=True, scale=SCALE, import_s=0.0)
        for name in workloads.WORKLOADS
    }


def test_self_time_of_nested_spans():
    # [row, start, end, parent, step]: a root with two children, one of
    # which has a child of its own.
    tree = [
        [0, 0.0, 10.0, -1, 0],
        [1, 1.0, 4.0, 0, 0],
        [2, 2.0, 3.0, 1, 0],
        [1, 5.0, 9.0, 0, 1],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_tracer_records_parents_steps_and_restores():
    import types

    mod = types.ModuleType("span_fixture")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules["span_fixture"] = mod
    ticks = iter(range(100))
    table = [("a", "span_fixture:outer", None, True), ("b", "span_fixture:inner", None, False),
             ("c", "span_fixture:gone", None, False)]
    tracer = spans.SpanTracer(table, clock=lambda: float(next(ticks)))
    original = mod.outer
    with tracer:
        assert mod.outer(1) == 4
    assert mod.outer is original
    assert tracer.unresolved == ["span_fixture:gone"]
    (outer, inner) = tracer.spans
    assert inner[3] == 0 and outer[3] == -1 and outer[4] == 0
    assert tracer.by_layer() == {"a": {"calls": 1, "host_self_s": 2.0},
                                 "b": {"calls": 1, "host_self_s": 1.0}}


def test_every_span_target_resolves_at_this_commit():
    for _, target, _, _ in spans.SPAN_TABLE:
        spans.resolve(target)


def test_contract_is_well_formed():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert len(CONTRACT["end_to_end"]) == 15 and len(CONTRACT["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_fingerprints_match_the_stored_loads():
    with open(os.path.join(E2E, "fingerprints.json")) as f:
        stored = json.load(f)
    for name in workloads.WORKLOADS:
        for seed in (0, 1):
            parts = [workloads.load(name, seed, p) for p in range(workloads.PARTS)]
            assert [workloads.fingerprint(p) for p in parts] == stored[name][str(seed)]


def test_loads_are_balanced_per_block():
    w = workloads.WORKLOADS["long_prefill"]
    load = workloads.serving_load("long_prefill", seed=3)
    # One arrival in every 1/rate slot of the span ...
    slots = np.floor(np.array([r.arrival for r in load]) * w.rate).astype(int)
    assert (slots == np.arange(len(load))).all()
    # ... and one prompt from every eighth of 1024-4096 in every block of 8.
    prompts = np.array([r.prompt_len for r in load]).reshape(-1, workloads.BLOCK)
    bands = np.sort((prompts - 1024) * workloads.BLOCK // 3073, axis=1)
    assert (bands == np.arange(workloads.BLOCK)).all()
    other = workloads.serving_load("long_prefill", seed=4)
    assert [r.prompt_len for r in other] != [r.prompt_len for r in load]


def test_each_workload_runs_and_accounts_for_every_request(records):
    for name, rec in records.items():
        assert rec["accounted"], name
        assert rec["deterministic"], name
        assert rec["correct"], name
        assert rec["failed"] == 0 and rec["token_divergence"] == 0, name
        assert rec["attempted"] >= workloads.PARTS, name


def test_every_contract_metric_is_produced(records):
    for name, rec in records.items():
        for spec in CONTRACT["end_to_end"]:
            assert isinstance(rec["end_to_end"][spec["name"]], float), (name, spec["name"])
        for spec in CONTRACT["per_layer"]:
            assert rec["per_layer"][spec["name"]] is not None, (name, spec["name"])
        assert os.path.exists(os.path.join(ROOT, rec["trace"]))


def test_layers_are_used_where_the_design_says(records):
    for name, rec in records.items():
        layer = rec["per_layer"]
        assert layer["bench.span_coverage"] >= 0.9, name
        if name == "kernel_batch":
            assert layer["core.kernels.calls"] > 0
            assert layer["serving.engine.calls"] == 0
        else:
            assert layer["core.kernels.calls"] == 0, name
            assert layer["core.scheduler.calls"] > 0, name
    assert records["chat_decode"]["per_layer"]["kvcache.radix.hit_token_share"] == 0
    assert records["prefix_fleet"]["per_layer"]["kvcache.radix.hit_token_share"] > 0.3
    assert records["disagg_failover"]["per_layer"]["cluster.disagg.handoffs"] > 0
    assert records["overload_burst"]["per_layer"]["serving.overload.offered"] > 0


def _sim(record):
    return {k: v for k, v in record["end_to_end"].items()
            if k.startswith("sim_") and "util" not in k}


def test_same_seed_same_simulated_metrics_different_seed_different(records):
    again = protocol.measure("chat_decode", 0, 0.0, False, SCALE, 0.0)
    other = protocol.measure("chat_decode", 1, 0.0, False, SCALE, 0.0)
    assert _sim(again) == _sim(records["chat_decode"])
    assert _sim(other) != _sim(records["chat_decode"])


def test_kernel_oracle_catches_a_corrupted_output():
    inputs = [kernel_batch.build_inputs(c) for c in workloads.kernel_load(0, 0, SCALE)]
    outputs = [out for out, _ in kernel_batch.run_batch(inputs)]
    assert kernel_batch.check_outputs(inputs, outputs)["failed"] == 0
    outputs[0] = np.array(outputs[0], copy=True)
    outputs[0][0, 0, 0] += 0.5
    check = kernel_batch.check_outputs(inputs, outputs)
    assert check["failed"] == 1 and check["bad_rows"] == 1


def test_compare_verdicts():
    lower = {"name": "host_s", "better": "lower"}
    higher = {"name": "sim_tok_s", "better": "higher"}
    assert compare.verdict(lower, 1.0, 1.05, 0.10) == "same"
    assert compare.verdict(lower, 1.0, 1.20, 0.10) == "worse"
    assert compare.verdict(lower, 1.0, 0.80, 0.10) == "better"
    assert compare.verdict(higher, 100.0, 80.0, 0.10) == "worse"
    assert compare.verdict(lower, 1.0, 1.20, 0.10, noise=0.30) == "unresolved"


def test_compare_flags_a_lower_success_share(records):
    base = {"chat_decode": records["chat_decode"]}
    hurt = json.loads(json.dumps(base))
    hurt["chat_decode"]["end_to_end"]["success_share"] = 0.999
    rows = compare.compare(base, hurt, CONTRACT)
    assert [r for r in rows if r[1] == "success_share"][0][-1] == "worse"
    assert all(r[-1] == "same" for r in compare.compare(base, base, CONTRACT))
