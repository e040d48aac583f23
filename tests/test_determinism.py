"""Determinism guarantees (paper §3.3.1: "LLM serving requires
deterministic outputs, we did not incorporate atomic aggregation").

The scheduler must produce an identical plan — and the engine bitwise
identical outputs — for identical sequence-length inputs, regardless of
how the work was split and merged.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_paged_mapping, sweep
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, plan_schedule

HEADS = HeadConfig(4, 2, 16)


class TestSchedulerDeterminism:
    @given(
        st.lists(st.integers(1, 5000), min_size=1, max_size=12),
        st.integers(1, 4),
    )
    @sweep(12, 50)
    def test_identical_plans_for_identical_lengths(self, kv, heads):
        a = plan_schedule([1] * len(kv), kv, 16, 32, num_kv_heads=heads)
        b = plan_schedule([1] * len(kv), kv, 16, 32, num_kv_heads=heads)
        assert a.cta_queues == b.cta_queues
        assert a.merges == b.merges
        assert a.num_partial_slots == b.num_partial_slots


class TestKernelDeterminism:
    def test_bitwise_identical_outputs_across_runs(self, rng):
        """Same inputs → bit-identical outputs, including the split-KV
        contraction path (fixed merge order, no atomics)."""
        kv_lens = [3000, 64, 900]
        mapping, slots = make_paged_mapping(kv_lens, [1, 1, 1])
        q = rng.standard_normal((3, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))

        outs = []
        for _ in range(2):
            w = BatchAttentionWrapper(
                VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1
            )
            w.plan(mapping)
            out, _, _ = w.run(q, kp, vp)
            outs.append(out)
        assert np.array_equal(outs[0], outs[1])

    def test_bitwise_identical_after_replanning(self, rng):
        """Replanning with the *same* lengths must not change results."""
        mapping, slots = make_paged_mapping([2500], [1])
        q = rng.standard_normal((1, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))
        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        w.plan(mapping)
        a, _, _ = w.run(q, kp, vp)
        w.plan(mapping)
        b, _, _ = w.run(q, kp, vp)
        assert np.array_equal(a, b)

    @staticmethod
    def _decode(order, kv_lens, q, k, v):
        """Decode requests ``order`` (indices into ``kv_lens``/``q``/``k``/
        ``v``) as one batch, each request's KV in its own pages; returns the
        output rows in ``order``."""
        lens = [kv_lens[r] for r in order]
        mapping, slots = make_paged_mapping(lens, [1] * len(lens))
        k_pool, v_pool = np.zeros((2, slots, HEADS.num_kv_heads, HEADS.head_dim))
        for g, r in enumerate(order):
            at = mapping.kv.slot_indices(g)
            k_pool[at], v_pool[at] = k[r], v[r]
        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1)
        w.plan(mapping)
        return w.run(q[order], k_pool, v_pool)[0]

    def test_batch_order_invariance_of_per_request_results(self, rng):
        """A permuted batch gives every request its output bit for bit: the
        plan cuts each request's KV the same way wherever it sits."""
        kv_lens = [500, 1200, 64, 900, 31]
        q = rng.standard_normal((len(kv_lens), 4, 16))
        k = [rng.standard_normal((n, 2, 16)) for n in kv_lens]
        v = [rng.standard_normal((n, 2, 16)) for n in kv_lens]
        order = [0, 1, 2, 3, 4]
        permuted = [3, 0, 4, 2, 1]
        both = self._decode(order, kv_lens, q, k, v)
        again = self._decode(permuted, kv_lens, q, k, v)
        assert np.array_equal(both[permuted], again)

    def test_neighbours_move_a_request_by_rounding_only(self, rng):
        """Beside a 1 200-token neighbour a request's KV may be cut
        differently (or not at all) than alone: the fp32 partial states move
        its output by rounding, never by more."""
        kv_lens = [500, 1200]
        q = rng.standard_normal((2, 4, 16))
        k = [rng.standard_normal((n, 2, 16)) for n in kv_lens]
        v = [rng.standard_normal((n, 2, 16)) for n in kv_lens]
        both = self._decode([0, 1], kv_lens, q, k, v)
        solo = self._decode([0], kv_lens, q, k, v)
        np.testing.assert_allclose(both[0], solo[0], atol=1e-6)


class TestSimulationDeterminism:
    def test_reports_are_reproducible(self):
        mapping, _ = make_paged_mapping([777, 1234, 55], [1, 1, 1])
        spans = []
        for _ in range(2):
            w = BatchAttentionWrapper(
                VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1
            )
            w.plan(mapping)
            _, _, rep = w.run(None, compute=False)
            spans.append(rep.makespan)
        assert spans[0] == spans[1]
