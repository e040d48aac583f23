"""Tests for the step-level tracing/profiling layer (``repro.obs``)."""

import json

import numpy as np
import pytest

from repro.core import HeadConfig
from repro.gpu import H100_80G
from repro.obs import (
    STEP_COMPONENTS,
    STEP_KINDS,
    KernelRecord,
    StepEvent,
    StepTracer,
    summary_table,
    to_chrome_trace,
    to_csv,
)
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    ServingEngine,
    sharegpt_workload,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def make_engine(tracer=None, **cfg_kwargs):
    cfg = EngineConfig(max_running=64, **cfg_kwargs)
    backend = FlashInferBackend(HEADS, H100_80G)
    return ServingEngine(MODEL, backend, H100_80G, cfg, tracer=tracer)


class CountingBackend(FlashInferBackend):
    """Counts attention_time calls — exactly one per engine step."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.calls = 0

    def attention_time(self, formats):
        self.calls += 1
        return super().attention_time(formats)


def run_traced(requests, **cfg_kwargs):
    tracer = StepTracer()
    cfg = EngineConfig(max_running=64, **cfg_kwargs)
    backend = CountingBackend(HEADS, H100_80G)
    engine = ServingEngine(MODEL, backend, H100_80G, cfg, tracer=tracer)
    metrics = engine.run(requests)
    return tracer, metrics, backend


class TestEventCounts:
    """One StepEvent per engine step, across all scheduling modes."""

    def test_plain_run(self):
        reqs = [Request(i * 0.002, 200, 20) for i in range(6)]
        tracer, metrics, backend = run_traced(reqs)
        assert tracer.num_steps == backend.calls
        assert len(metrics.traces) == 6
        for ev in tracer.events:
            assert ev.kind in STEP_KINDS
            assert ev.t_end >= ev.t_start
            assert set(ev.breakdown) <= set(STEP_COMPONENTS)

    def test_chunked_prefill_run(self):
        reqs = [Request(i * 0.002, 700, 25) for i in range(5)]
        tracer, metrics, backend = run_traced(
            reqs, chunked_prefill=True, prefill_chunk_size=256
        )
        assert tracer.num_steps == backend.calls
        assert any(e.kind == "mixed" for e in tracer.events)
        assert sum(e.num_prefill_tokens for e in tracer.events) == sum(
            r.prompt_len for r in reqs
        )

    def test_preempting_run_records_resume_and_preemptions(self):
        reqs = [Request(i * 0.001, 640, 200) for i in range(8)]
        tracer, metrics, backend = run_traced(reqs, num_pool_pages=256)
        assert metrics.preemptions > 0
        assert tracer.num_steps == backend.calls
        assert sum(e.preemptions for e in tracer.events) == metrics.preemptions
        assert any(e.kind == "resume" for e in tracer.events)

    def test_token_accounting(self):
        reqs = [Request(0.0, 128, 10) for _ in range(4)]
        tracer, metrics, _ = run_traced(reqs)
        assert sum(e.num_prefill_tokens for e in tracer.events) == 4 * 128
        # Every output token beyond the prefill's first lands in a decode step.
        assert sum(e.num_decode_tokens for e in tracer.events) == (
            metrics.total_output_tokens - 4
        )


class TestReconciliation:
    """Summed component durations reconcile with ServingMetrics.total_time."""

    @pytest.mark.parametrize("cfg", [{}, {"chunked_prefill": True}])
    def test_components_tile_total_time(self, cfg):
        reqs = [Request(i * 0.002, 300, 30) for i in range(6)]
        tracer, metrics, _ = run_traced(reqs, **cfg)
        component_sum = sum(
            sum(ev.breakdown.values()) for ev in tracer.events
        )
        idle = sum(ev.duration for ev in tracer.events if ev.kind == "idle")
        assert component_sum + idle == pytest.approx(
            metrics.total_time, rel=0.01
        )
        # Events tile [0, total_time] with no gaps or overlaps.
        cursor = 0.0
        for ev in tracer.events:
            assert ev.t_start == pytest.approx(cursor, abs=1e-12)
            cursor = ev.t_end
        assert cursor == pytest.approx(metrics.total_time)

    def test_attention_component_matches_kernel_reports(self):
        reqs = [Request(0.0, 200, 15) for _ in range(3)]
        tracer, _, _ = run_traced(reqs)
        for ev in tracer.events:
            if ev.kind == "idle":
                continue
            assert len(ev.kernels) >= 1
            kernel_sum = sum(k.makespan for k in ev.kernels)
            assert ev.component("attention") == pytest.approx(
                MODEL.num_layers * kernel_sum, rel=1e-9
            )


class TestZeroOverheadWhenDisabled:
    def test_no_event_objects_allocated(self, monkeypatch):
        """An untraced run must never construct a StepEvent."""
        import repro.serving.executor as executor_mod

        def bomb(*a, **kw):
            raise AssertionError("StepEvent allocated without a tracer")

        monkeypatch.setattr(executor_mod, "StepEvent", bomb)
        reqs = [Request(i * 0.002, 200, 10) for i in range(3)]
        metrics = make_engine().run(reqs)
        assert metrics.total_output_tokens == 30

    def test_backend_reports_not_collected(self):
        backend = FlashInferBackend(HEADS, H100_80G)
        engine = ServingEngine(MODEL, backend, H100_80G, EngineConfig(max_running=64))
        engine.run([Request(0.0, 100, 5)])
        assert backend.collect_kernel_reports is False
        assert backend.pop_kernel_reports() == []

    def test_tracer_toggles_collection_per_run(self):
        backend = FlashInferBackend(HEADS, H100_80G)
        engine = ServingEngine(MODEL, backend, H100_80G, EngineConfig(max_running=64))
        tracer = StepTracer()
        engine.run([Request(0.0, 100, 5)], tracer=tracer)
        assert sum(len(e.kernels) for e in tracer.events) == tracer.num_steps
        engine.run([Request(0.0, 100, 5)])  # untraced again
        assert backend.collect_kernel_reports is False


class TestExporters:
    @pytest.fixture(scope="class")
    def tracer(self):
        """One traced run, shared: the exporters only read its events."""
        tracer, _, _ = run_traced(sharegpt_workload(6, 80.0, seed=1))
        return tracer

    def test_chrome_trace_roundtrips_json(self, tmp_path, tracer):
        trace = to_chrome_trace(tracer.events, metadata={"model": MODEL.name})
        parsed = json.loads(json.dumps(trace))
        assert parsed["metadata"]["model"] == MODEL.name
        events = parsed["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(slices) > tracer.num_steps  # steps + components + kernels
        assert counters, "expected kv_pages/live_streams counter events"
        # Step slices carry the schema's args.
        step_slices = [e for e in slices if e.get("cat") == "step"]
        assert len(step_slices) == tracer.num_steps
        for s in step_slices:
            assert {"prefill_tokens", "decode_tokens", "streams"} <= set(s["args"])

    def test_component_slices_tile_step_interval(self, tracer):
        trace = to_chrome_trace(tracer.events)
        comp = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and e.get("cat") == "component"]
        by_step = {}
        for c in comp:
            by_step.setdefault(c["args"]["step"], []).append(c)
        for ev in tracer.events:
            if ev.kind == "idle":
                continue
            slices = by_step[ev.index]
            total = sum(c["dur"] for c in slices)
            assert total == pytest.approx(ev.duration * 1e6, rel=1e-6)

    def test_csv_export(self, tracer):
        csv = to_csv(tracer.events)
        lines = csv.strip().splitlines()
        assert len(lines) == len(tracer.events) + 1
        header = lines[0].split(",")
        for comp in STEP_COMPONENTS:
            assert comp in header
        assert len(lines[1].split(",")) == len(header)

    def test_summary_table_reads_the_events(self):
        """Every number of the table is a sum or an exact percentile over
        the non-idle events; the idle gaps count only as idle time."""
        reqs = sharegpt_workload(8, 20.0, seed=1)
        tracer, metrics, _ = run_traced(reqs, chunked_prefill=True, prefill_chunk_size=256)
        steps = [e for e in tracer.events if e.kind != "idle"]
        idle = [e for e in tracer.events if e.kind == "idle"]
        assert idle and len(steps) == tracer.num_steps
        text = summary_table(tracer).splitlines()
        kinds = sorted({e.kind for e in steps})
        assert text[1] == f"steps          : {len(steps)} (" + ", ".join(
            f"{sum(e.kind == k for e in steps)} {k}" for k in kinds) + ")"
        assert text[2] == (
            f"tokens         : {sum(e.num_prefill_tokens for e in steps)} prefill, "
            f"{metrics.total_output_tokens - len(metrics.traces)} decode"
        )
        busy = sum(e.duration for e in steps)
        assert text[3] == (
            f"wall clock     : {busy * 1e3:.2f} ms busy, "
            f"{sum(e.duration for e in idle) * 1e3:.2f} ms idle"
        )
        rows = {line.split()[0]: line for line in text if line.startswith("  ")}
        for comp in STEP_COMPONENTS:
            secs = sum(e.breakdown.get(comp, 0.0) for e in steps)
            assert rows[comp].startswith(f"  {comp:<9s} {secs * 1e3:9.2f} ms {secs / busy:6.1%}")
        durations = sorted(e.duration for e in steps)
        p50 = np.median(durations)
        p99 = np.percentile(durations, 99)
        assert text[-1] == f"step latency   : p50 {p50 * 1e3:.3f} ms, p99 {p99 * 1e3:.3f} ms"
        kernels = [k for e in steps for k in e.kernels]
        assert text[-2].startswith(f"kernels        : {len(kernels)} simulated launches")

    def test_write_chrome_trace_file(self, tmp_path, tracer):
        from repro.obs import write_chrome_trace

        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer.events)
        assert json.loads(path.read_text())["traceEvents"]


class TestTracingLeavesTheSummaryAlone:
    def test_traced_and_untraced_summaries_are_equal(self):
        reqs = [Request(i * 0.002, 200, 20) for i in range(4)]
        _, traced, _ = run_traced(reqs)
        assert traced.summary() == make_engine().run(reqs).summary()


class TestStandaloneKernelRecords:
    def test_record_kernel_outside_steps(self):
        tracer = StepTracer()
        from repro.gpu.executor import SimReport

        rep = SimReport(1e-5, 1e9, 1e6, 4, 2, [1e-5, 0.5e-5])
        tracer.record_kernel(KernelRecord.from_report("standalone", "single", rep))
        assert len(tracer.kernels) == 1
        assert tracer.kernels[0].balance == pytest.approx(0.75)


class TestEventSchema:
    def test_to_dict_has_all_components(self):
        ev = StepEvent(index=0, kind="decode", t_start=0.0, t_end=1.0,
                       breakdown={"attention": 0.5})
        d = ev.to_dict()
        for comp in STEP_COMPONENTS:
            assert comp in d
        assert d["duration"] == 1.0


class TestClusterTrace:
    def test_one_process_row_per_replica_on_one_clock(self, tmp_path):
        from repro.cluster import ClusterConfig, ClusterEngine
        from repro.obs import write_cluster_trace

        cluster = ClusterEngine(
            MODEL, H100_80G,
            ClusterConfig(dp=2, router="round-robin", engine=EngineConfig(max_running=64)),
            trace=True,
        )
        cluster.run(sharegpt_workload(6, 100.0, seed=1))
        processes = cluster.trace_processes()
        assert [label for label, _, _ in processes] == [
            "replica 0 (tp=1)", "replica 1 (tp=1)",
        ]
        path = tmp_path / "cluster.json"
        write_cluster_trace(str(path), processes, metadata={"dp": 2})
        trace = json.loads(path.read_text())
        assert trace["metadata"] == {"dp": 2}
        steps = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {e["pid"] for e in steps} == {1, 2}
        assert len(steps) >= sum(len(events) for _, events, _ in processes) > 0

    def test_untraced_cluster_has_no_processes(self):
        from repro.cluster import ClusterConfig, ClusterEngine

        cluster = ClusterEngine(MODEL, H100_80G, ClusterConfig(dp=2))
        with pytest.raises(ValueError, match="trace=True"):
            cluster.trace_processes()

    def test_write_csv_is_the_csv_log(self, tmp_path):
        from repro.obs import write_csv

        tracer, _, _ = run_traced([Request(0.0, 100, 4)])
        path = tmp_path / "steps.csv"
        write_csv(str(path), tracer.events)
        assert path.read_text() == to_csv(tracer.events)
        assert len(path.read_text().splitlines()) == 1 + len(tracer.events)
