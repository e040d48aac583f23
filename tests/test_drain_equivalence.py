"""The closed-form drain against the event loop it replaced.

``tests/reference_drain.py`` holds ``PersistentKernelExecutor._drain`` as it
was while it advanced event by event.  The closed form computes the same
model without replaying the loop's rounding, so the oracle has three parts:

* finish times within 1e-9 relative of the loop on generated stream sets,
  with the same set of jobs finishing at exactly 0.0 and exact ties exact;
* properties the loop only met approximately, required exactly here:
  permutation equivariance and homogeneity under x2 bit for bit, byte
  conservation as an equality;
* identical discrete outcomes (steps, batch membership, token streams,
  finish order) of a serving run and a cluster run when the loop is
  monkeypatched back in, clocks within 1e-9.

Hypothesis runs derandomized, so tier-1 sees a fixed sample.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sweep
from reference_drain import reference_drain
from repro.cluster import ClusterConfig, ClusterEngine, FailoverConfig, ReplicaFailure
from repro.core import HeadConfig
from repro.faults import FaultPlan
from repro.gpu import A100_40G, H100_80G, PersistentKernelExecutor
from repro.gpu.executor import _EPS
from repro.serving import (
    EngineConfig,
    FlashInferBackend,
    LLAMA_3_1_8B,
    ResilienceConfig,
    ServingEngine,
    mixed_disagg_workload,
    sharegpt_workload,
)
from repro.serving.executor import StepExecutor

FIXED = sweep(25, 100)

SPECS = st.sampled_from([A100_40G, H100_80G])
RESIDENT = st.sampled_from([1, 2, 3])
SHARES = st.sampled_from([0.0, 0.1, 0.5])
STRAGGLER_FACTOR = FaultPlan(seed=0).straggler_factor


@st.composite
def stream_sets(draw, tiny=True):
    """``(serial, mem)`` of one launch: n in [0, 528] CTAs with realistic
    magnitudes (0.1 us+ of serial work, 1 KB+ of traffic) and one straggler
    CTA, then absent streams (0, and ``<= _EPS`` when ``tiny``), exact ties
    and a balanced grid of duplicated pairs."""
    n = draw(st.integers(0, 528))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    serial = rng.uniform(1e-7, 10.0 ** draw(st.floats(-6, -3)), n)
    mem = rng.uniform(1e3, 10.0 ** draw(st.floats(4, 8)), n)
    if n and draw(st.booleans()):
        i = int(rng.integers(n))
        serial[i] *= STRAGGLER_FACTOR
        mem[i] *= STRAGGLER_FACTOR
    for arr in (serial, mem):
        zero, eps, tie = (rng.random(n) < draw(SHARES) for _ in range(3))
        if tie.any():
            arr[tie] = arr[tie][0]
        arr[zero] = 0.0
        if tiny:
            arr[eps] = rng.uniform(0.0, _EPS, int(eps.sum()))
    if draw(st.booleans()):
        half = n // 2
        serial[half : 2 * half] = serial[:half]
        mem[half : 2 * half] = mem[:half]
    return serial, mem


def check_against_reference(exe, serial, mem, resident):
    got = exe._drain(serial, mem, resident)
    want = reference_drain(exe, serial, mem, resident)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def check_permutation(exe, serial, mem, resident, p):
    assert np.array_equal(
        exe._drain(serial[p], mem[p], resident), exe._drain(serial, mem, resident)[p]
    )


class TestAgainstTheEventLoop:
    @given(SPECS, stream_sets(), RESIDENT)
    @FIXED
    def test_finish_times_match(self, spec, streams, resident):
        check_against_reference(PersistentKernelExecutor(spec), *streams, resident)

    @given(SPECS, stream_sets(), RESIDENT)
    @FIXED
    def test_exact_ties_stay_exact(self, spec, streams, resident):
        """Jobs with the same streams finish at the same instant, bit for bit."""
        serial, mem = streams
        finish = PersistentKernelExecutor(spec)._drain(serial, mem, resident)
        _, first, inverse = np.unique(
            np.stack([serial, mem], axis=1), axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(finish, finish[first][inverse.reshape(-1)])

    def test_absent_streams(self):
        exe = PersistentKernelExecutor(H100_80G)
        serial = np.array([0.0, _EPS, 2e-6, 0.0, _EPS / 2])
        mem = np.array([0.0, _EPS, 0.0, 4e5, 0.0])
        finish = exe._drain(serial, mem, 1)
        assert finish.tolist()[:3] == [0.0, 0.0, 2e-6] and finish[4] == 0.0
        # The only stream that holds bytes drains at the per-CTA cap.
        assert finish[3] == 4e5 / exe._cta_bw_cap(1)
        assert exe._drain(np.zeros(0), np.zeros(0), 1).shape == (0,)


class TestExactProperties:
    @given(SPECS, stream_sets(), RESIDENT, st.integers(0, 2**32 - 1))
    @FIXED
    def test_permutation_equivariance_is_bitwise(self, spec, streams, resident, seed):
        serial, mem = streams
        p = np.random.default_rng(seed).permutation(serial.size)
        check_permutation(PersistentKernelExecutor(spec), serial, mem, resident, p)

    @given(SPECS, stream_sets(tiny=False), RESIDENT)
    @FIXED
    def test_homogeneity_is_bitwise(self, spec, streams, resident):
        """Twice the work on both streams takes exactly twice as long."""
        serial, mem = streams
        exe = PersistentKernelExecutor(spec)
        assert np.array_equal(
            exe._drain(2.0 * serial, 2.0 * mem, resident),
            2.0 * exe._drain(serial, mem, resident),
        )

    @given(SPECS, stream_sets(), RESIDENT)
    @FIXED
    def test_bytes_are_conserved(self, spec, streams, resident):
        """Between two completions the ``n - j`` streams that still hold
        bytes each drain at ``bw_j``: the segments add up to the bytes."""
        _, mem = streams
        exe = PersistentKernelExecutor(spec)
        held = mem > _EPS
        done = np.sort(exe._drain(np.zeros(mem.size), mem, resident)[held])
        live = np.arange(done.size, 0, -1)
        bw = np.minimum(exe._cta_bw_cap(resident), spec.peak_bandwidth_bytes / live)
        drained = float((bw * live * np.diff(done, prepend=0.0)).sum())
        assert drained == pytest.approx(float(mem[held].sum()), rel=1e-12)


class TestTheOracleBites:
    """The checks above must reject a drain that is 1e-6 off or whose
    result depends on the order of the jobs."""

    STREAMS = (np.linspace(1e-6, 5e-6, 64), np.linspace(2e5, 9e5, 64)[::-1].copy())

    def test_a_perturbed_drain_fails(self, monkeypatch):
        closed = PersistentKernelExecutor._drain
        monkeypatch.setattr(
            PersistentKernelExecutor, "_drain",
            lambda self, s, m, r: closed(self, s, m, r) * (1.0 + 1e-6),
        )
        with pytest.raises(AssertionError):
            check_against_reference(PersistentKernelExecutor(H100_80G), *self.STREAMS, 1)

    def test_an_order_dependent_drain_fails(self, monkeypatch):
        closed = PersistentKernelExecutor._drain
        monkeypatch.setattr(
            PersistentKernelExecutor, "_drain",
            lambda self, s, m, r: closed(self, s, m, r) * (1.0 + 4e-16 * np.arange(s.size)),
        )
        with pytest.raises(AssertionError):
            check_permutation(
                PersistentKernelExecutor(H100_80G), *self.STREAMS, 1, np.arange(64)[::-1]
            )


# -- discrete outcomes of whole runs ------------------------------------------------

MODEL = LLAMA_3_1_8B
HEADS = HeadConfig(MODEL.num_qo_heads, MODEL.num_kv_heads, MODEL.head_dim)


def _rid(requests, idx):
    """Cluster-global rid of a replica-local request index (a single engine
    has no router: the index is the rid)."""
    rid = None if requests is None else requests[idx].rid
    return idx if rid is None else rid


def _record_steps(monkeypatch):
    """Record ``(kind, rids of the batch rows, t_start, t_end)`` of every
    engine step, in execution order, from the executor boundary."""
    steps = []
    execute = StepExecutor.execute

    def recording(self, plan, t):
        requests = self.state.requests
        owner = {s.seq_id: s.req_idx for s in self.state.streams + plan.resumed}
        owner.update({sid: idx for idx, sid in plan.prefilled})
        owner.update({pp.seq_id: pp.req_idx for pp, _ in plan.chunks})
        rids = [_rid(requests, owner[sid]) for sid in plan.seq_ids]
        result = execute(self, plan, t)
        steps.append((plan.kind, rids, result[0], result[1]))
        return result

    monkeypatch.setattr(StepExecutor, "execute", recording)
    return steps


def _streams_of(requests, metrics):
    """``(rid, generation, tokens, token clock)`` per stream, in finish order."""
    return [
        (_rid(requests, tr.req_id), tr.gen_index, tr.tokens,
         [tr.first_token_time] + tr.token_times)
        for tr in metrics.traces
    ]


def _serving_run(monkeypatch):
    steps = _record_steps(monkeypatch)
    engine = ServingEngine(
        MODEL, FlashInferBackend(HEADS, H100_80G), H100_80G,
        # A pool this tight preempts and resumes: prefill, decode and resume steps.
        EngineConfig(max_running=24, num_pool_pages=320),
        resilience=ResilienceConfig(),
    )
    metrics = engine.run(sharegpt_workload(40, 60.0, seed=5))
    return steps, [_streams_of(None, metrics)], metrics.total_time


def _cluster_run(monkeypatch):
    steps = _record_steps(monkeypatch)
    cluster = ClusterEngine(
        MODEL, H100_80G,
        ClusterConfig(
            dp=3, roles="prefill=2,decode=1", failover=FailoverConfig(),
            engine=EngineConfig(max_running=64, chunked_prefill=True, composable=True),
        ),
        replica_failures={0: ReplicaFailure(3, "crash")},
    )
    cm = cluster.run(mixed_disagg_workload(12, 120.0, seed=7))
    streams = [_streams_of(r, m) for r, m in zip(cm.replica_requests, cm.replicas)]
    return steps, streams, cm.total_time


@pytest.mark.parametrize("run", [_serving_run, _cluster_run])
def test_runs_decide_the_same_with_the_event_loop_back_in(run, monkeypatch):
    """Swapping the drain moves clocks by rounding only: no admission,
    batching, preemption, routing or failover decision may flip."""
    with monkeypatch.context() as m:
        steps, streams, total = run(m)
    with monkeypatch.context() as m:
        m.setattr(PersistentKernelExecutor, "_drain", reference_drain)
        ref_steps, ref_streams, ref_total = run(m)

    assert len(steps) == len(ref_steps) > 50
    for (kind, rids, t0, t1), (ref_kind, ref_rids, ref_t0, ref_t1) in zip(steps, ref_steps):
        assert (kind, rids) == (ref_kind, ref_rids)
        assert (t0, t1) == pytest.approx((ref_t0, ref_t1), rel=1e-9)
    assert len(streams) == len(ref_streams)
    for replica, ref_replica in zip(streams, ref_streams):
        # Same streams in the same finish order, token for token.
        assert [s[:3] for s in replica] == [s[:3] for s in ref_replica]
        assert all(s[2] for s in replica)
        for (*_, clock), (*_, ref_clock) in zip(replica, ref_replica):
            assert clock == pytest.approx(ref_clock, rel=1e-9)
    assert total == pytest.approx(ref_total, rel=1e-9)
