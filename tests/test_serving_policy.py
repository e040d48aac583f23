"""Tests for pluggable scheduling policies (lookup, ordering, exactness)."""

from collections import deque

import pytest

from repro.core import HeadConfig
from repro.faults import ResilienceConfig
from repro.gpu import H100_80G
from repro.serving import (
    EngineConfig,
    FCFSPolicy,
    FlashInferBackend,
    LLAMA_3_1_8B,
    POLICIES,
    PriorityPolicy,
    Request,
    SchedulerPolicy,
    ServingEngine,
    SLAAwarePolicy,
    expected_tokens,
    get_policy,
)

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


class ShortestFirstPolicy(SchedulerPolicy):
    """Toy third-party policy: shortest prompt first (SJF)."""

    name = "shortest-first"

    def order(self, queue, requests, now, default_deadline=None):
        self._sort(queue, key=lambda i: requests[i].prompt_len)


@pytest.fixture
def shortest_first(monkeypatch):
    monkeypatch.setitem(POLICIES, ShortestFirstPolicy.name, ShortestFirstPolicy)


def make_engine(policy="fcfs", resilience=None, **cfg_kwargs):
    cfg = EngineConfig(
        num_pool_pages=1 << 12, max_prefill_tokens=2048, policy=policy, **cfg_kwargs
    )
    return ServingEngine(
        MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G, cfg,
        resilience=resilience,
    )


class TestLookup:
    def test_builtins_available(self):
        assert tuple(POLICIES) == ("fcfs", "priority", "sla-aware")

    def test_get_policy_instantiates(self):
        assert isinstance(get_policy("fcfs"), FCFSPolicy)
        assert isinstance(get_policy("priority"), PriorityPolicy)
        assert isinstance(get_policy("sla-aware"), SLAAwarePolicy)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="fcfs"):
            get_policy("does-not-exist")

    def test_unknown_policy_rejected_at_engine_construction(self):
        with pytest.raises(ValueError, match="policy"):
            make_engine(policy="bogus")


class TestQueueOrdering:
    def test_fcfs_is_a_no_op(self):
        reqs = [Request(0.0, 8, 1, priority=9), Request(0.0, 4, 1)]
        q = deque([1, 0])
        FCFSPolicy().order(q, reqs, 0.0)
        assert list(q) == [1, 0]

    def test_priority_sorts_stably(self):
        reqs = [
            Request(0.0, 8, 1, priority=0),
            Request(0.0, 8, 1, priority=5),
            Request(0.0, 8, 1, priority=5),
        ]
        q = deque([0, 1, 2])
        PriorityPolicy().order(q, reqs, 0.0)
        assert list(q) == [1, 2, 0]

    def test_sla_aware_is_edf_with_fallback(self):
        reqs = [
            Request(0.0, 8, 1),  # no deadline: sorts last
            Request(0.0, 8, 1, deadline=10.0),
            Request(0.5, 8, 1, deadline=1.0),  # earliest absolute deadline
        ]
        q = deque([0, 1, 2])
        SLAAwarePolicy().order(q, reqs, 1.0, default_deadline=None)
        assert list(q) == [2, 1, 0]
        # With an engine-wide default, the bare request gets arrival + 0.5.
        q = deque([0, 1, 2])
        SLAAwarePolicy().order(q, reqs, 1.0, default_deadline=0.5)
        assert list(q) == [0, 2, 1]


class TestEngineOrdering:
    """A policy reorders service; it can never change a stream's tokens."""

    def _reqs(self):
        # Simultaneous arrivals (so both are queued when the policy runs);
        # input order: long prompt first, short second.  Each prompt fills
        # the 2048-token prefill budget alone, forcing separate steps.
        return [Request(0.0, 2048, 6), Request(0.0, 256, 6)]

    def _ttft(self, metrics):
        return {t.req_id: t.ttft for t in metrics.traces}

    def test_shortest_first_reorders_but_stays_token_exact(self, shortest_first):
        resil = ResilienceConfig()
        fcfs = make_engine("fcfs", resilience=resil).run(self._reqs())
        sjf = make_engine("shortest-first", resilience=resil).run(self._reqs())
        # FCFS serves the long prompt first; SJF flips the order.
        assert self._ttft(fcfs)[0] < self._ttft(fcfs)[1]
        assert self._ttft(sjf)[1] < self._ttft(sjf)[0]
        # Token ids are a pure function of (request, generation, position):
        # every stream decodes the same tokens under either order.
        assert expected_tokens(sjf) == expected_tokens(fcfs)

    def test_priority_preempts_queue_order(self):
        reqs = [Request(0.0, 2048, 6), Request(0.0, 2048, 6, priority=10)]
        resil = ResilienceConfig()
        fcfs = make_engine("fcfs", resilience=resil).run(reqs)
        prio = make_engine("priority", resilience=resil).run(reqs)
        assert self._ttft(fcfs)[0] < self._ttft(fcfs)[1]
        assert self._ttft(prio)[1] < self._ttft(prio)[0]
        assert expected_tokens(prio) == expected_tokens(fcfs)

    def test_fcfs_default_matches_explicit(self):
        reqs = self._reqs()
        default = ServingEngine(
            MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G,
            EngineConfig(num_pool_pages=1 << 12, max_prefill_tokens=2048),
        ).run(reqs)
        explicit = make_engine("fcfs").run(reqs)
        assert default.summary() == explicit.summary()
