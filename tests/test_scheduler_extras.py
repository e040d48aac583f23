"""Additional scheduler behaviours: hyperparameters, causal weighting."""

import numpy as np

from repro.core import plan_schedule
from repro.core.scheduler import DEFAULT_ALPHA, DEFAULT_BETA, query_tile_kv


class TestHyperparameters:
    def test_min_kv_chunk_floor(self):
        plan = plan_schedule([1], [10000], 16, num_ctas=1000, min_kv_chunk=512,
                             chunk_granularity=1)
        assert plan.kv_chunk_size >= 512

    def test_granularity_rounds_up(self):
        plan = plan_schedule([1], [10000], 16, num_ctas=16, chunk_granularity=96)
        assert plan.kv_chunk_size % 96 == 0

    def test_alpha_beta_change_assignment_costs(self):
        """α weighs query rows, β weighs KV: flipping them regroups items.

        Items (q,kv): A=(100,10), B=(1,100), C=(1,90) on two CTAs.  Sorted
        by KV length the order is B, C, A; β-only costing then pairs A with
        C, while α-only costing pairs A's big query elsewhere.
        """
        qo = [100, 1, 1]
        kv = [10, 100, 90]
        by_kv = plan_schedule(qo, kv, 128, num_ctas=2, alpha=0.0, beta=1.0,
                              split_kv=False)
        by_q = plan_schedule(qo, kv, 128, num_ctas=2, alpha=1.0, beta=0.0,
                             split_kv=False)

        def groups(plan):
            return [sorted(w.group for w in q) for q in plan.cta_queues]

        assert groups(by_kv) != groups(by_q)


class TestCausalWeighting:
    def test_causal_flag_balances_prefill_tiles(self):
        """A single long causal prefill: early tiles are cheap, late tiles
        expensive; planning each tile over what it sees spreads the late
        tiles."""
        qo = np.array([4096])
        kv = np.array([4096])

        def max_visible(plan):
            worst = 0
            for queue in plan.cta_queues:
                vis = 0
                for w in queue:
                    last_pos = w.q_start + w.q_rows  # offsets are 0 here
                    vis += min(max(last_pos - w.kv_start, 0), w.kv_len)
                worst = max(worst, vis)
            return worst

        aware = plan_schedule(qo, kv, 128, num_ctas=8,
                              tile_kv_lens=query_tile_kv(qo, kv, 128, np.arange(1, 4097)))
        naive = plan_schedule(qo, kv, 128, num_ctas=8)
        assert max_visible(aware) <= max_visible(naive)


class TestDefaults:
    def test_alpha_beta_constants(self):
        assert DEFAULT_ALPHA > 0 and DEFAULT_BETA > 0
        assert DEFAULT_BETA > DEFAULT_ALPHA  # KV traffic dominates
