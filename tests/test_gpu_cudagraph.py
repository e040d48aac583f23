"""Tests for CUDAGraph capture/replay semantics (paper §3.3.1, App. D.1)."""

from collections import defaultdict

import pytest

from conftest import make_paged_mapping
from repro import BatchAttentionWrapper, CudaGraph, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA
from repro.gpu.cudagraph import GraphCaptureError
from repro.models import TinyTransformer
from repro.serving import (
    EngineConfig, ServingEngine, shared_prefix_workload, sharegpt_workload,
)
from test_models_transformer import GEMMA_STYLE, WORKLOAD


class TestBasics:
    def test_capture_records_launches(self):
        g = CudaGraph()
        calls = []
        with g.capture():
            CudaGraph.add_launch(lambda: calls.append(1), signature=(1,))
            CudaGraph.add_launch(lambda: calls.append(2), signature=(2,))
        assert g.num_launches == 2
        assert calls == [1, 2]  # capture also executes (warm-up semantics)

    def test_replay_reexecutes(self):
        g = CudaGraph()
        calls = []
        with g.capture():
            CudaGraph.add_launch(lambda: calls.append("k"), signature=())
        g.replay()
        g.replay()
        assert calls == ["k", "k", "k"]
        assert g.replay_count == 2

    def test_launch_outside_capture_not_recorded(self):
        g = CudaGraph()
        CudaGraph.add_launch(lambda: None, signature=())
        assert g.num_launches == 0

    def test_nested_capture_rejected(self):
        g1, g2 = CudaGraph(), CudaGraph()
        with g1.capture():
            with pytest.raises(GraphCaptureError, match="nested"):
                with g2.capture():
                    pass

    def test_recapture_rejected(self):
        g = CudaGraph()
        with g.capture():
            pass
        with pytest.raises(GraphCaptureError):
            with g.capture():
                pass

    def test_replay_before_capture_rejected(self):
        with pytest.raises(GraphCaptureError):
            CudaGraph().replay()

    def test_signature_change_detected(self):
        g = CudaGraph()
        state = {"sig": (1,)}

        def fn():
            return "x"

        fn.current_signature = lambda: state["sig"]
        with g.capture():
            CudaGraph.add_launch(fn, signature=state["sig"], name="k")
        g.replay()  # unchanged: fine
        state["sig"] = (2,)
        with pytest.raises(GraphCaptureError, match="signature changed"):
            g.replay()


class TestWrapperIntegration:
    def _setup(self):
        heads = HeadConfig(2, 2, 8)
        ws = WorkspaceBuffer(1 << 26)
        w = BatchAttentionWrapper(VANILLA, heads, ws, avg_qo_len=1,
                                  max_batch_size=8, max_total_qo=8)
        return heads, ws, w

    def test_replay_uses_fresh_plan_data(self, rng):
        """Plan → capture → new plan → replay must reflect the new lengths,
        exactly as Listing 1 requires."""
        heads, ws, w = self._setup()
        m1, slots1 = make_paged_mapping([64, 64], [1, 1], 16)
        w.plan(m1)
        g = CudaGraph()
        with g.capture():
            w.run(None, compute=False)
        first = w.last_report.makespan

        m2, _ = make_paged_mapping([512, 512], [1, 1], 16)
        w.plan(m2)  # plan() is host code, not captured
        g.replay()
        second = w.last_report.makespan
        assert second > first  # longer KV → more simulated work

    def test_replay_rejects_changed_grid(self, rng):
        """Changing the wrapper's launch signature (e.g. pointing it at a
        workspace section that moved) must fail replay loudly."""
        heads, ws, w = self._setup()
        m, _ = make_paged_mapping([64], [1], 16)
        w.plan(m)
        g = CudaGraph()
        with g.capture():
            w.run(None, compute=False)
        w.num_ctas += 1  # simulate an incompatible reconfiguration
        with pytest.raises(GraphCaptureError):
            g.replay()

    def test_graph_amortizes_launches(self):
        heads, ws, w = self._setup()
        m, _ = make_paged_mapping([64], [1], 16)
        w.plan(m)
        g = CudaGraph()
        with g.capture():
            w.run(None, compute=False)
        assert g.num_launches == 1


class TestAServingRunKeepsOneSignaturePerWrapper:
    """§3.3.1 / App. D.1 over a whole run: the serving engine replans every
    step, and a graph captured on any step must still replay on every later
    one — so each wrapper that launches keeps one launch signature for the
    run (``max_batch_size``-sized sections, one grid)."""

    @pytest.mark.parametrize("features, model, workload, wrappers", [
        (dict(chunked_prefill=True, composable=True, prefix_cache=True), None,
         lambda: shared_prefix_workload(24, 40.0), 3),
        (dict(chunked_prefill=True), None, lambda: sharegpt_workload(24, 60.0), 1),
        ({}, None, lambda: sharegpt_workload(24, 60.0), 1),
        # Numerics on: vanilla 1- and 2-format stacks, the windowed layers' dense one.
        (dict(chunked_prefill=True, prefill_chunk_size=16, composable=True, prefix_cache=True,
              num_pool_pages=64), lambda: TinyTransformer(GEMMA_STYLE, seed=3),
         lambda: WORKLOAD, 4),
    ], ids=["chunked-composable-prefix-cache", "chunked", "plain", "numerics-gemma-style"])
    def test_one_signature_per_wrapper(self, monkeypatch, features, model, workload, wrappers):
        signatures = defaultdict(set)
        add_launch = CudaGraph.add_launch.__func__

        def recording(cls, fn, signature, name="kernel"):
            signatures[fn.current_signature.__self__].add(signature)
            return add_launch(cls, fn, signature, name)

        monkeypatch.setattr(CudaGraph, "add_launch", classmethod(recording))
        ServingEngine.from_config(EngineConfig(**features), model=model and model()).run(workload())
        assert len(signatures) == wrappers
        assert all(len(s) == 1 for s in signatures.values()), {
            w.name: s for w, s in signatures.items() if len(s) > 1
        }
