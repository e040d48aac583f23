"""Boundary-case tests for :class:`repro.serving.AdmissionController`.

Shedding is the engine's last line of defence, so its edges matter: a
deadline *exactly equal* to the clock must not shed (the contract is
strict ``t > deadline``), shedding must be a no-op on empty queues, and
work parked in the preempted deque must be sheddable by both the deadline
scan and the overload valve.
"""

from collections import deque

from repro.core import HeadConfig
from repro.faults import ResilienceConfig
from repro.gpu import H100_80G
from repro.kvcache import PagedKVCache
from repro.serving import (
    AdmissionController,
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    Request,
    RequestTrace,
    RunState,
    ServingEngine,
    ServingMetrics,
)
from repro.serving.batching import Stream

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def make_controller(requests, resilience=None):
    """A real engine + hand-built run state, so shedding paths can be
    driven directly at exact clock values."""
    engine = ServingEngine(
        MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G,
        EngineConfig(max_running=64),
        resilience=resilience or ResilienceConfig(),
    )
    cache = PagedKVCache(64, 16, HEADS.num_kv_heads, HEADS.head_dim,
                         materialize=False)
    state = RunState(
        requests=requests, cache=cache, metrics=ServingMetrics(),
        waiting=deque(range(len(requests))),
    )
    return AdmissionController(engine, state), state


def make_stream(state, req_idx, deadline=None, live=True):
    seq_id = state.cache.new_seq() if live else -1
    trace = RequestTrace(arrival=0.0, first_token_time=0.0,
                         req_id=req_idx, gen_index=0, tokens=[])
    stream = Stream(req_idx, seq_id, remaining=4, trace=trace)
    stream.deadline = deadline
    return stream


def shed_reasons(state):
    return [(t.req_id, t.outcome_reason) for t in state.metrics.shed_traces]


class TestShedExpired:
    def test_deadline_exactly_equal_to_clock_is_not_shed(self):
        """The contract is strict ``t > deadline``: at the instant the
        deadline lands, the request still gets served."""
        reqs = [Request(0.0, 32, 4, deadline=1.0)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.append(0)
        adm.shed_expired(t=1.0)
        assert list(state.prefill_queue) == [0]
        assert state.metrics.sheds == 0
        # One tick past the deadline it goes.
        adm.shed_expired(t=1.0 + 1e-9)
        assert not state.prefill_queue
        assert shed_reasons(state) == [(0, "deadline")]

    def test_stream_deadline_equal_to_clock_is_not_shed(self):
        adm, state = make_controller([Request(0.0, 32, 4)])
        state.waiting.clear()
        state.streams.append(make_stream(state, 0, deadline=0.5))
        adm.shed_expired(t=0.5)
        assert len(state.streams) == 1
        adm.shed_expired(t=0.5000001)
        assert not state.streams
        assert shed_reasons(state) == [(0, "deadline")]

    def test_empty_queues_are_a_noop(self):
        adm, state = make_controller([Request(0.0, 32, 4, deadline=0.1)])
        state.waiting.clear()  # nothing queued, streaming, or preempted
        adm.shed_expired(t=99.0)
        assert state.metrics.sheds == 0
        assert not state.metrics.shed_traces

    def test_no_deadlines_anywhere_sheds_nothing(self):
        reqs = [Request(0.0, 32, 4), Request(0.0, 32, 4)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.append(0)
        state.streams.append(make_stream(state, 1))
        adm.shed_expired(t=1e9)
        assert list(state.prefill_queue) == [0]
        assert len(state.streams) == 1

    def test_expired_stream_in_preempted_deque_is_shed(self):
        """Work parked for recompute still honours its deadline — both a
        stream holding pages and one already evicted (seq_id == -1)."""
        reqs = [Request(0.0, 32, 4), Request(0.0, 32, 4)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        live = make_stream(state, 0, deadline=0.3, live=True)
        evicted = make_stream(state, 1, deadline=0.3, live=False)
        state.preempted.extend([live, evicted])
        free_before = state.cache.num_free_pages
        adm.shed_expired(t=0.3)  # exactly at the deadline: both stay
        assert len(state.preempted) == 2
        adm.shed_expired(t=0.31)
        assert not state.preempted
        assert sorted(shed_reasons(state)) == [(0, "deadline"), (1, "deadline")]
        assert state.cache.num_free_pages == free_before  # live seq freed

    def test_expired_request_sheds_every_generation(self):
        reqs = [Request(0.0, 32, 4, n=3, deadline=0.1)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.append(0)
        adm.shed_expired(t=0.2)
        assert state.metrics.sheds == 3
        assert [t.gen_index for t in state.metrics.shed_traces] == [0, 1, 2]


class TestShedOverload:
    def test_pops_youngest_admitted_request_first(self):
        reqs = [Request(i * 0.01, 32, 4) for i in range(3)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.extend([0, 1, 2])
        adm.shed_overload(t=1.0)
        assert list(state.prefill_queue) == [0, 1]
        assert shed_reasons(state) == [(2, "overload")]

    def test_falls_back_to_youngest_preempted_stream(self):
        """With the prefill queue empty, overload relief comes from the
        preempted deque — and frees the victim's pages."""
        reqs = [Request(0.0, 32, 4), Request(0.0, 32, 4)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        older = make_stream(state, 0)
        younger = make_stream(state, 1)
        state.preempted.extend([older, younger])
        adm.shed_overload(t=1.0)
        assert list(state.preempted) == [older]
        assert younger.seq_id == -1  # pages released
        assert shed_reasons(state) == [(1, "overload")]

    def test_queued_work_shields_preempted_streams(self):
        reqs = [Request(0.0, 32, 4), Request(0.0, 32, 4)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.append(0)
        state.preempted.append(make_stream(state, 1))
        adm.shed_overload(t=1.0)
        assert not state.prefill_queue  # the queued prompt took the hit
        assert len(state.preempted) == 1
        assert shed_reasons(state) == [(0, "overload")]


class TestShedPriorityInteraction:
    """Satellite coverage: deadline/overload shedding x ``Request.priority``.

    ``shed_overload`` is youngest-first and deliberately priority-blind —
    the queue *tail* goes first even between same-age requests.  Priority
    protects work only indirectly, by where :class:`PriorityPolicy` parks
    it in the queue."""

    def test_same_age_shed_takes_the_queue_tail_not_the_low_priority(self):
        """Two requests with identical arrivals: the one at the queue tail
        is shed, even when it is the *high*-priority one."""
        reqs = [Request(0.5, 32, 4, priority=0), Request(0.5, 32, 4, priority=1)]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.extend([0, 1])  # high priority parked at the tail
        adm.shed_overload(t=1.0)
        assert shed_reasons(state) == [(1, "overload")]
        assert list(state.prefill_queue) == [0]

    def test_priority_policy_pools_low_priority_at_the_shed_tail(self):
        """Composed with PriorityPolicy ordering, repeated overload sheds
        consume the low-priority pool first: high priority outlives low."""
        from repro.serving import get_policy

        reqs = [
            Request(0.0, 32, 4, priority=0),
            Request(0.1, 32, 4, priority=1),
            Request(0.2, 32, 4, priority=0),
            Request(0.3, 32, 4, priority=1),
        ]
        adm, state = make_controller(reqs)
        state.waiting.clear()
        state.prefill_queue.extend(range(4))
        get_policy("priority").order(state.prefill_queue, reqs, now=0.4)
        assert list(state.prefill_queue) == [1, 3, 0, 2]
        adm.shed_overload(t=1.0)
        adm.shed_overload(t=1.1)
        # Both priority-0 requests went (youngest first); priority-1 survive.
        assert shed_reasons(state) == [(2, "overload"), (0, "overload")]
        assert [reqs[i].priority for i in state.prefill_queue] == [1, 1]


class TestEngineDeadlineShedding:
    def test_run_with_impossible_deadline_sheds_not_crashes(self):
        """End to end: a deadline shorter than a single step sheds every
        request deterministically instead of wedging the loop."""
        reqs = [Request(i * 0.001, 64, 8, deadline=1e-7) for i in range(4)]
        engine = ServingEngine(
            MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G,
            EngineConfig(max_running=64), resilience=ResilienceConfig(),
        )
        metrics = engine.run(reqs)
        assert metrics.sheds == len(reqs)
        assert all(t.outcome_reason == "deadline"
                   for t in metrics.shed_traces)
        assert not metrics.traces
