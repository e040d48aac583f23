"""Host-time spans taken from outside the program.

``SPAN_TABLE`` names the entry points of every layer as ``(layer,
"module:qualname")``.  :class:`SpanTracer` wraps each one *from this file*
with a stack-based timer: a span records its name, start, end, the span that
caused it (its parent on the stack) and the engine-step index, and counts are
taken at the same boundary by small probes.  Spans stay in memory and are
written out when the benchmark ends.  A layer's self time is its spans'
duration minus the part their child spans cover.

This is the only benchmark file that names things which are not exported
from a package ``__init__``: a function is wrapped in the namespace its
caller looks it up in (``repro.core.wrapper:plan_schedule`` is the scheduler
as the wrapper calls it).  A target that no longer resolves is reported and
skipped — its layer's metrics read as missing, the run does not crash.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of the probe spans (count-taking code of the harness itself).
PROBE_LAYER = "bench"

# -- probes: counts taken at the span boundary ------------------------------------
# Each probe is ``probe(counters, args, kwargs, result)``; ``args[0]`` is
# ``self`` for methods.


def _probe_plan(c, args, kwargs, plan):
    c["core.scheduler.work_items"] += plan.num_work_items
    c["core.scheduler.merge_entries"] += len(plan.merges)
    c["core.scheduler.load_balance_sum"] += plan.load_balance


def _probe_plan_cache_get(c, args, kwargs, hit):
    c["serving.plan_cache.lookups"] += 1
    c["serving.plan_cache.misses"] += hit is None


def _probe_layout(c, args, kwargs, kv):
    cache = args[0]
    c["kvcache.paged.reserved_slots"] += len(kv.indices) * cache.page_size
    c["kvcache.paged.used_slots"] += int(kv.kv_lens.sum())
    used = cache.num_used_pages
    if used > c["kvcache.paged.peak_used_pages"]:
        c["kvcache.paged.peak_used_pages"] = used


def _probe_match(c, args, kwargs, result):
    c["kvcache.radix.query_tokens"] += len(args[1])
    c["kvcache.radix.hit_tokens"] += result[0]


def _probe_insert(c, args, kwargs, new_pages):
    c["kvcache.radix.inserted_pages"] += new_pages


def _probe_evict(c, args, kwargs, freed):
    c["kvcache.radix.evicted_pages"] += freed


def _probe_admit(c, args, kwargs, result):
    state, t = args[0].state, args[1]
    depth = len(state.prefill_queue)
    for idx in state.waiting:
        if state.requests[idx].arrival > t:
            break
        depth += 1
    c["serving.admission.queue_depth_sum"] += depth
    if depth > c["serving.admission.queue_depth_max"]:
        c["serving.admission.queue_depth_max"] = depth


def _probe_run_mapping(c, args, kwargs, result):
    cost_queues, merge_costs = result
    for cost in [x for q in cost_queues for x in q] + list(merge_costs):
        c["core.kernels.flops"] += cost.flops
        c["core.kernels.bytes_moved"] += cost.bytes_read + cost.bytes_written


#: ``(layer, "module:qualname", probe, starts_step)``.  ``starts_step`` marks
#: the call that opens an engine step (the step index spans carry).
SPAN_TABLE: List[Tuple[str, str, Optional[Callable], bool]] = [
    ("serving.engine", "repro.serving.engine:ServingEngine.run", None, False),
    ("serving.engine", "repro.serving.engine:ServingEngine.resume", None, False),
    ("core.scheduler", "repro.core.wrapper:plan_schedule", _probe_plan, False),
    ("serving.plan_cache", "repro.serving.plan_cache:PlanCache.get", _probe_plan_cache_get, False),
    ("serving.plan_cache", "repro.serving.plan_cache:PlanCache.put", None, False),
    ("core.wrapper.plan", "repro.core.wrapper:BatchAttentionWrapper.__init__", None, False),
    ("core.wrapper.plan", "repro.core.wrapper:BatchAttentionWrapper.plan", None, False),
    ("core.wrapper.plan", "repro.core.wrapper:ComposableAttentionWrapper.plan", None, False),
    ("core.wrapper.run", "repro.core.wrapper:BatchAttentionWrapper.run", None, False),
    ("core.wrapper.run", "repro.core.wrapper:ComposableAttentionWrapper.run", None, False),
    ("core.simulate", "repro.core.simulate:item_cost_arrays", None, False),
    ("core.simulate", "repro.core.simulate:merge_cost_arrays", None, False),
    ("core.simulate", "repro.core.simulate:simulate_queues", None, False),
    ("gpu.executor", "repro.gpu.executor:PersistentKernelExecutor.run_persistent", None, False),
    ("gpu.executor", "repro.gpu.executor:PersistentKernelExecutor.run_grid", None, False),
    ("gpu.executor", "repro.gpu.executor:PersistentKernelExecutor._drain", None, False),
    ("gpu.executor", "repro.gpu.executor:PersistentKernelExecutor._drain_dynamic", None, False),
    ("gpu.workspace", "repro.gpu.workspace:WorkspaceBuffer.__init__", None, False),
    ("core.kernels", "repro.core.wrapper:run_mapping", _probe_run_mapping, False),
    ("core.kernels", "repro.core.wrapper:merge_states", None, False),
    ("core.jit", "repro.core.wrapper:get_kernel", None, False),
    ("sparse", "repro.serving.batching:detect_shared_prefixes", None, False),
    ("sparse", "repro.serving.batching:decompose_multi_level", None, False),
    ("sparse", "repro.serving.batching:decompose_shared_prefix", None, False),
    ("kvcache.paged", "repro.kvcache.paged:PagedKVCache.new_seq", None, False),
    ("kvcache.paged", "repro.kvcache.paged:PagedKVCache.fork_seq", None, False),
    ("kvcache.paged", "repro.kvcache.paged:PagedKVCache.free_seq", None, False),
    ("kvcache.paged", "repro.kvcache.paged:PagedKVCache.extend", None, False),
    ("kvcache.paged", "repro.kvcache.paged:PagedKVCache.layout", _probe_layout, False),
    ("kvcache.paged", "repro.kvcache.paged:PagedKVCache.export_pages", None, False),
    ("kvcache.radix", "repro.kvcache.radix:RadixTree.match_prefix", _probe_match, False),
    ("kvcache.radix", "repro.kvcache.radix:RadixTree.insert", _probe_insert, False),
    ("kvcache.radix", "repro.kvcache.radix:RadixTree.evict_until", _probe_evict, False),
    ("serving.admission", "repro.serving.admission:AdmissionController.admit", _probe_admit, True),
    ("serving.admission", "repro.serving.admission:AdmissionController.absorb_handoffs", None, False),
    ("serving.admission", "repro.serving.admission:AdmissionController.shed_expired", None, False),
    ("serving.admission", "repro.serving.admission:AdmissionController.shed_overload", None, False),
    ("serving.policy", "repro.serving.policy:FCFSPolicy.order", None, False),
    ("serving.batching", "repro.serving.batching:BatchFormer.form_prefill", None, False),
    ("serving.batching", "repro.serving.batching:BatchFormer.form_mixed", None, False),
    ("serving.batching", "repro.serving.batching:BatchFormer.form_decode", None, False),
    ("serving.batching", "repro.serving.batching:BatchFormer.form_resume", None, False),
    ("serving.backends", "repro.serving.backends:FlashInferBackend.attention_time", None, False),
    ("serving.executor", "repro.serving.executor:StepExecutor.execute", None, False),
    ("serving.postprocess", "repro.serving.executor:Postprocessor.finalize", None, False),
    ("serving.overload", "repro.serving.overload:FrontDoor.admit", None, False),
    ("serving.overload", "repro.serving.overload:BrownoutController.observe", None, False),
    ("serving.checkpoint", "repro.serving.checkpoint:Checkpointer.on_step_end", None, False),
    ("serving.checkpoint", "repro.serving.checkpoint:Checkpointer.snapshot", None, False),
    ("serving.checkpoint", "repro.serving.checkpoint:Journal._write", None, False),
    ("serving.checkpoint", "repro.serving.checkpoint:RecoveryManager.recover", None, False),
    ("cluster.engine", "repro.cluster.engine:ClusterEngine.run", None, False),
    ("cluster.engine", "repro.cluster.engine:ClusterEngine.run_reference", None, False),
    ("cluster.engine", "repro.cluster.engine:ClusterEngine._run_replica", None, False),
    ("cluster.router", "repro.cluster.engine:ClusterEngine.route", None, False),
    ("cluster.router", "repro.cluster.router:RoutingPolicy.route", None, False),
    ("cluster.router", "repro.cluster.router:DisaggPolicy.route", None, False),
    ("cluster.router", "repro.cluster.router:DisaggPolicy.pair", None, False),
    ("cluster.collectives", "repro.cluster.tp:TPInterconnect.allreduce_per_layer", None, False),
    ("cluster.collectives", "repro.cluster.tp:TPInterconnect.charge_step", None, False),
    ("cluster.collectives", "repro.cluster.failover:p2p_send", None, False),
    ("cluster.failover", "repro.cluster.failover:FailoverController.observe_failure", None, False),
    ("cluster.failover", "repro.cluster.failover:FailoverController.migrate", None, False),
    ("cluster.failover", "repro.cluster.failover:KVMigrator.migrate", None, False),
    ("cluster.disagg", "repro.cluster.disagg:DisaggCoordinator.ship", None, False),
    ("cluster.disagg", "repro.cluster.disagg:HandoffSink.__call__", None, False),
]



def resolve(target: str):
    """``(owner, attribute, function)`` of a ``"module:qualname"`` target;
    raises ``AttributeError``/``ImportError`` when it no longer exists."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(fn) or isinstance(fn, (staticmethod, classmethod, type)):
        raise AttributeError(f"{target} is not a plain function")
    return owner, attr, fn


class SpanTracer:
    """Installs the span table, records spans, derives per-layer self time."""

    def __init__(self, table=None, clock=time.perf_counter):
        self.table = SPAN_TABLE if table is None else table
        self.clock = clock
        self.names: List[str] = []  # span name per table row (+ probe)
        self.layers: List[str] = []
        #: ``[row, start, end, parent, step]`` per span, in start order.
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.step = -1
        self.counters: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.unresolved: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every resolvable target; returns the unresolved ones."""
        probe_row = self._row(PROBE_LAYER, "bench:probe")
        for layer, target, probe, starts_step in self.table:
            try:
                owner, attr, fn = resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(target)
                continue
            row = self._row(layer, target)
            setattr(owner, attr, self._wrap(fn, row, target, probe, probe_row, starts_step))
            self._patched.append((owner, attr, fn))
        return self.unresolved

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _row(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, row, target, probe, probe_row, starts_step):
        spans, stack, clock, tracer = self.spans, self.stack, self.clock, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_step:
                tracer.step += 1
            me = len(spans)
            rec = [row, clock(), 0.0, stack[-1] if stack else -1, tracer.step]
            spans.append(rec)
            stack.append(me)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[f"{target}:{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                prec = [probe_row, clock(), 0.0, stack[-1] if stack else -1, tracer.step]
                spans.append(prec)
                probe(tracer.counters, args, kwargs, result)
                prec[2] = clock()
            return result

        return wrapper

    # -- arithmetic -----------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span: its duration minus its children's."""
        return self_times(self.spans)

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "host_self_s": s}}`` over all spans."""
        out: Dict[str, Dict[str, float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(self.layers[rec[0]], {"calls": 0, "host_self_s": 0.0})
            agg["calls"] += 1
            agg["host_self_s"] += own
        return out

    def calls(self, target: str) -> int:
        """Spans recorded for one table target."""
        if target not in self.names:
            return 0
        row = self.names.index(target)
        return sum(1 for rec in self.spans if rec[0] == row)

    def root_time(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(rec[2] - rec[1] for rec in self.spans if rec[3] < 0)

    # -- export ---------------------------------------------------------------------

    def trace_events(self, t0: float) -> List[dict]:
        """Chrome trace-event ("X") records of the host spans, µs since ``t0``."""
        return [
            {
                "name": self.names[row], "cat": self.layers[row], "ph": "X",
                "pid": 0, "tid": 0, "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "step": step},
            }
            for i, (row, start, end, parent, step) in enumerate(self.spans)
        ]


def self_times(spans: List[list]) -> List[float]:
    """Self time per span of ``[row, start, end, parent, step]`` records."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def request_events(finished, pid: int = 1) -> List[dict]:
    """Simulated per-request spans (arrival -> first token -> last token) as
    trace events on the simulated clock, one track per rid."""
    events = []
    for f in finished:
        last = f.token_times[-1] if f.token_times else f.first_token
        common = {"cat": "sim.request", "ph": "X", "pid": pid, "tid": f.rid}
        events.append({**common, "name": "ttft", "ts": f.arrival * 1e6,
                       "dur": (f.first_token - f.arrival) * 1e6,
                       "args": {"rid": f.rid, "replica": f.replica}})
        events.append({**common, "name": "decode", "ts": f.first_token * 1e6,
                       "dur": (last - f.first_token) * 1e6,
                       "args": {"rid": f.rid, "tokens": 1 + len(f.token_times)}})
    return events


def write_trace(path: str, events: List[dict], meta: dict) -> None:
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "otherData": meta}, f)
