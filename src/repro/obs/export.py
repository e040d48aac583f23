"""Trace exporters: Chrome ``trace_event`` JSON, CSV step log, text summary.

The Chrome trace loads directly in ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev): the step timeline is one track, each step-time
component (attention / GEMM / allreduce / LM head / overhead) gets its own
track with slices laid sequentially inside the step interval, per-kernel
:class:`SimReport` slices appear on a kernels track, and KV-pool occupancy
plus live-stream counts are emitted as counter tracks.

All timestamps are the *simulated* clock in microseconds (the trace-event
unit), starting at 0 at run start.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.events import STEP_COMPONENTS, FaultEvent, StepEvent
from repro.obs.tracer import StepTracer

_PID = 1
_TID_STEPS = 1
_TID_KERNELS = 2 + len(STEP_COMPONENTS)

_US = 1e6  # seconds → trace-event microseconds


def _meta(name: str, tid: Optional[int], label: str, pid: int) -> Dict[str, object]:
    ev: Dict[str, object] = {"ph": "M", "pid": pid, "name": name,
                             "args": {"name": label}}
    if tid is not None:
        ev["tid"] = tid
    return ev


def _process_events(
    events: Sequence[StepEvent],
    fault_events: Optional[Sequence[FaultEvent]],
    pid: int,
    process_name: str,
) -> List[Dict[str, object]]:
    """One engine's trace events under process id ``pid``.

    Cluster traces call this once per replica so each replica renders as
    its own process row (with the shared simulated clock on one axis).
    """
    trace: List[Dict[str, object]] = [
        _meta("process_name", None, process_name, pid),
        _meta("thread_name", _TID_STEPS, "steps", pid),
        _meta("thread_name", _TID_KERNELS, "attention kernels", pid),
    ]
    for i, comp in enumerate(STEP_COMPONENTS):
        trace.append(_meta("thread_name", 2 + i, comp, pid))

    for ev in events:
        ts = ev.t_start * _US
        dur = ev.duration * _US
        if ev.kind == "idle":
            trace.append({
                "ph": "X", "pid": pid, "tid": _TID_STEPS, "ts": ts,
                "dur": dur, "name": "idle", "cat": "idle", "args": {},
            })
            continue
        trace.append({
            "ph": "X", "pid": pid, "tid": _TID_STEPS, "ts": ts, "dur": dur,
            "name": f"{ev.kind} #{ev.index}", "cat": "step",
            "args": {
                "prefill_tokens": ev.num_prefill_tokens,
                "decode_tokens": ev.num_decode_tokens,
                "streams": ev.num_streams,
                "preemptions": ev.preemptions,
                "prefix_cache_hits": ev.prefix_cache_hits,
            },
        })
        # Component slices tile the step interval in breakdown order.
        cursor = ts
        for i, comp in enumerate(STEP_COMPONENTS):
            secs = ev.breakdown.get(comp, 0.0)
            if secs <= 0:
                continue
            trace.append({
                "ph": "X", "pid": pid, "tid": 2 + i, "ts": cursor,
                "dur": secs * _US, "name": comp, "cat": "component",
                "args": {"step": ev.index},
            })
            cursor += secs * _US
        kcursor = ts
        for k in ev.kernels:
            trace.append({
                "ph": "X", "pid": pid, "tid": _TID_KERNELS, "ts": kcursor,
                "dur": k.makespan * _US, "name": k.name, "cat": "kernel",
                "args": {
                    "phase": k.phase,
                    "tiles": k.num_tiles,
                    "ctas": k.num_ctas,
                    "balance": round(k.balance, 4),
                    "gflops": k.total_flops / 1e9,
                    "mbytes": k.total_bytes / 1e6,
                },
            })
            kcursor += k.makespan * _US
        end = ev.t_end * _US
        trace.append({
            "ph": "C", "pid": pid, "ts": end, "name": "kv_pages",
            "args": {"used": ev.kv_used_pages, "free": ev.kv_free_pages},
        })
        trace.append({
            "ph": "C", "pid": pid, "ts": end, "name": "live_streams",
            "args": {"streams": ev.num_streams},
        })

    for fev in fault_events or ():
        trace.append({
            "ph": "i", "pid": pid, "tid": _TID_STEPS, "ts": fev.t * _US,
            "name": f"{fev.site}:{fev.action}", "cat": "fault", "s": "t",
            "args": {
                "step": fev.step_index,
                "req_id": fev.req_id,
                "detail": fev.detail,
            },
        })
    return trace


def to_chrome_trace(
    events: Sequence[StepEvent],
    metadata: Optional[Dict[str, object]] = None,
    fault_events: Optional[Sequence[FaultEvent]] = None,
) -> Dict[str, object]:
    """Convert step events to a ``chrome://tracing`` JSON object.

    ``fault_events`` (from a chaos run's tracer) are rendered as instant
    markers on the step track; omitted, the output is unchanged.
    """
    out: Dict[str, object] = {
        "traceEvents": _process_events(
            events, fault_events, _PID, "repro serving engine"
        ),
        "displayTimeUnit": "ms",
    }
    if metadata:
        out["metadata"] = dict(metadata)
    return out


def to_cluster_trace(
    replicas: Sequence[tuple],
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Multi-process Chrome trace for a cluster run.

    ``replicas`` is a sequence of ``(label, events, fault_events)``
    triples — e.g. ``ClusterEngine.trace_processes()`` — rendered as one
    process row each (pid = replica index + 1) on the shared simulated
    clock, so Perfetto shows all replicas' steps on one time axis.
    """
    trace: List[Dict[str, object]] = []
    for i, (label, events, fault_events) in enumerate(replicas):
        trace.extend(_process_events(events, fault_events, i + 1, label))
    out: Dict[str, object] = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
    }
    if metadata:
        out["metadata"] = dict(metadata)
    return out


def write_cluster_trace(
    path: str,
    replicas: Sequence[tuple],
    metadata: Optional[Dict[str, object]] = None,
) -> None:
    """Serialize :func:`to_cluster_trace` to ``path``."""
    with open(path, "w") as f:
        json.dump(to_cluster_trace(replicas, metadata), f)


def write_chrome_trace(
    path: str,
    events: Sequence[StepEvent],
    metadata: Optional[Dict[str, object]] = None,
    fault_events: Optional[Sequence[FaultEvent]] = None,
) -> None:
    """Serialize :func:`to_chrome_trace` to ``path``."""
    with open(path, "w") as f:
        json.dump(to_chrome_trace(events, metadata, fault_events), f)


_CSV_FIELDS = (
    "index", "kind", "t_start", "t_end", "duration",
    "num_prefill_tokens", "num_decode_tokens", "num_streams",
    *STEP_COMPONENTS,
    "kv_free_pages", "kv_used_pages", "preemptions", "prefix_cache_hits",
    "num_kernels",
)


def to_csv(events: Sequence[StepEvent]) -> str:
    """Flat per-step CSV log (one row per event, kernels counted only)."""
    buf = io.StringIO()
    buf.write(",".join(_CSV_FIELDS) + "\n")
    for ev in events:
        d = ev.to_dict()
        d["num_kernels"] = len(ev.kernels)
        row = []
        for fld in _CSV_FIELDS:
            v = d[fld]
            row.append(repr(v) if isinstance(v, float) else str(v))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def write_csv(path: str, events: Sequence[StepEvent]) -> None:
    with open(path, "w") as f:
        f.write(to_csv(events))


def summary_table(tracer: StepTracer) -> str:
    """Human-readable run summary read off the tracer's events: steps,
    tokens, component breakdown, kernels and exact step-latency percentiles."""
    steps = [e for e in tracer.events if e.kind != "idle"]
    busy = sum(e.duration for e in steps)
    idle = sum(e.duration for e in tracer.events if e.kind == "idle")
    kinds = ", ".join(f"{n} {k}" for k, n in sorted(Counter(e.kind for e in steps).items()))
    lines = ["— step trace summary " + "—" * 43]
    lines.append(f"steps          : {len(steps)} ({kinds or 'none'})")
    lines.append(
        f"tokens         : {sum(e.num_prefill_tokens for e in steps)} prefill, "
        f"{sum(e.num_decode_tokens for e in steps)} decode"
    )
    lines.append(f"wall clock     : {busy * 1e3:.2f} ms busy, {idle * 1e3:.2f} ms idle")
    preemptions = sum(e.preemptions for e in steps)
    prefix_hits = sum(e.prefix_cache_hits for e in steps)
    if preemptions or prefix_hits:
        lines.append(
            f"scheduler      : {preemptions} preemptions, {prefix_hits} prefix-cache hits"
        )
    width = 30
    for comp in STEP_COMPONENTS:
        secs = sum(e.component(comp) for e in steps)
        frac = secs / busy if busy > 0 else 0.0
        bar = "█" * int(round(frac * width))
        lines.append(
            f"  {comp:<9s} {secs * 1e3:9.2f} ms {frac:6.1%} |{bar:<{width}}|"
        )
    kernels = [k for e in steps for k in e.kernels] + tracer.kernels
    if kernels:
        lines.append(
            f"kernels        : {len(kernels)} simulated launches, "
            f"{sum(k.makespan for k in kernels) * 1e3:.2f} ms attention-kernel time"
        )
    if steps:
        p50, p99 = np.percentile([e.duration for e in steps], (50, 99))
        lines.append(
            f"step latency   : p50 {p50 * 1e3:.3f} ms, p99 {p99 * 1e3:.3f} ms"
        )
    return "\n".join(lines)
