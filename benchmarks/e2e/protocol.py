"""The run protocol of one workload: set-up, timed repetitions, sweep,
verify, traced repetition (see README.md).  ``run.py`` imports this module
after it has started the clock, so importing it *is* the import part of
``setup_s``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import List

import numpy as np

import kernel_batch
import scenarios
from layers import event_kernels, kernel_utilisation, layer_metrics, step_events
from repro.core import cache_info, clear_cache
from spans import SpanTracer, request_events, write_trace
from workloads import PARTS, SWEPT, WORKLOADS, fingerprint, kernel_load, serving_load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Set-ups per run (the median is reported).
SETUPS = 3
#: Spread of the repetitions' host times above which the cell is marked
#: unresolved.
MAX_SPREAD = 0.10
#: Relative tolerance when a *traced* repetition is compared with its
#: untraced twin: untraced replays repeat bit for bit, but with the public
#: tracer attached a failover run moves single first-token times by about
#: 1e-11 s (``disagg_failover``, seeds 0 and 3), 1e-9 of a short TTFT.
TRACED_REL_TOL = 1e-6
#: Seconds :func:`probe` takes on the container the sizes were calibrated on
#: when nothing competes for the core; host times are reported at this speed.
PROBE_NOMINAL_S = 0.015
#: Share of a part's requests the warm-up repetition serves.
WARMUP_SHARE = 0.25


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((192, 192))
_PROBE_VECTOR = np.random.default_rng(1).standard_normal(1 << 18)


def probe() -> float:
    """Seconds a fixed mix of interpreter work, small-array NumPy calls and
    memory-bound NumPy calls takes right now (best of three).

    The container shares its cores: the same repetition runs 1.3x to 2x
    slower for minutes at a time, and this loop slows with it (correlation
    0.8).  Host times are divided by ``probe() / PROBE_NOMINAL_S`` measured
    right before and after them, so a slow neighbour does not read as a
    regression.  The loop touches nothing of the program under test."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, seen = 0, {}
        for i in range(60000):
            seen[i & 255] = acc
            acc += (i * i) % 7 + len(seen)
        a = np.arange(64.0)
        for _ in range(1200):
            a = np.cumsum(a) * 0.5 + 1.0
            a[a > 3].sum()
        for _ in range(2):
            _PROBE_MATRIX @ _PROBE_MATRIX
            np.exp(_PROBE_VECTOR * 0.001).sum()
            np.einsum("ij,kj->ik", _PROBE_MATRIX, _PROBE_MATRIX)
        best = min(best, time.perf_counter() - t0)
    return best


class Rep:
    """One timed call: wall and CPU seconds, the probe times around it and
    what the call produced."""

    def __init__(self, wall_s: float, cpu_s: float, before: float, after: float, outcome):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        #: Probe seconds right after the call (the next call's ``before``).
        self.after = after
        #: Calibration factor: probe time around the call over its nominal time.
        self.factor = (before + after) / (2.0 * PROBE_NOMINAL_S)
        self.outcome = outcome

    @property
    def host_s(self) -> float:
        """Wall seconds at the nominal speed of the container."""
        return self.wall_s / self.factor


def timed(fn, before: float) -> Rep:
    """Time ``fn()``; ``before`` is a probe taken just now, the closing probe
    is taken here (and serves as the next call's ``before``)."""
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    outcome = fn()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return Rep(wall, cpu, before, probe(), outcome)


def spread(values) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def close(a, b) -> bool:
    """Two signatures (dicts or lists of floats) agree within
    ``TRACED_REL_TOL``."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and close(list(a.values()), [b[k] for k in a])
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=TRACED_REL_TOL) for x, y in zip(a, b))


def check_fingerprints(name: str, seed: int, scale: float, parts) -> None:
    """A changed load must never pass as a changed result: seeds with a
    stored fingerprint (0 and the hold-out 1) are checked at full scale."""
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        want = json.load(f).get(name, {}).get(str(seed))
    if scale != 1.0 or want is None:
        return
    got = [fingerprint(p) for p in parts]
    if got != want:
        sys.exit(f"error: load fingerprint of {name} seed {seed} changed: {got} != {want}")


class ServingRunner:
    """Set-up, repetitions, sweep and oracle of one serving workload; a
    repetition's outcome is a :class:`scenarios.Outcome`."""

    def __init__(self, name: str, seed: int, scale: float):
        self.name, self.seed, self.scale = name, seed, scale
        self.w = WORKLOADS[name]
        self.parts: List[list] = []
        self.util: dict = {}

    def setup(self) -> None:
        self.parts = [serving_load(self.name, self.seed, p, self.scale) for p in range(PARTS)]
        check_fingerprints(self.name, self.seed, self.scale, self.parts)
        # Warm-up on the head of part 0: lazy imports, JIT kernel cache.
        head = self.parts[0][: max(int(len(self.parts[0]) * WARMUP_SHARE), 4)]
        scenarios.run_once(self.name, self.seed, head)

    def rep(self, part: int, before: float, traced: bool = False) -> Rep:
        """One timed repetition: only ``engine.run`` is on the clock."""
        load = self.parts[part]
        engine = scenarios.build_engine(self.name, self.seed, traced)
        rep = timed(lambda: engine.run(load), before)
        rep.outcome = scenarios.collect(self.name, load, engine, rep.outcome)
        return rep

    def replay(self, part: int, traced: bool = False, rate=None):
        """One untimed repetition (sweep, verify)."""
        load = self.parts[part]
        if rate is not None:
            load = serving_load(self.name, self.seed, part, self.scale, rate)
        return scenarios.run_once(self.name, self.seed, load, traced)

    def signature(self, out):
        return scenarios.sim_metrics(self.w, [out])

    def rate_points(self, outs: list):
        """``(rate, attainment, sustained)`` at the fixed rates: the operating
        point from the pooled parts, the others replay part 0.  Rates below
        the operating point are only run when it is not sustained (they
        cannot change the highest sustained rate otherwise)."""
        point = (self.w.rate, scenarios.attainment(self.w, outs),
                 all(scenarios.sustained(self.w, o) for o in outs))
        points = [point]
        held = point[1] >= scenarios.ATTAINMENT_TARGET and point[2]
        for rate in self.w.rates:
            if rate > self.w.rate or (rate < self.w.rate and not held):
                out = self.replay(0, rate=rate)
                points.append((rate, scenarios.attainment(self.w, [out]),
                               scenarios.sustained(self.w, out)))
        return points

    def verify(self, outs: list):
        """``(accounted, divergent, compared)``: requests sent = succeeded +
        failed in every part, the token oracle, and a replay of every part
        with the public tracer attached, which must not move a simulated
        number (its kernel records give the two utilisation figures, which
        the timed repetitions, tracing off, cannot)."""
        accounted = all(o.sent == o.succeeded + o.shed + o.dropped for o in outs)
        events = []
        for part, out in enumerate(outs):
            replay = self.replay(part, traced=True)
            accounted &= close(self.signature(replay), self.signature(out))
            events += step_events(replay.tracers)
        self.util = kernel_utilisation(event_kernels(events))
        divergent = compared = 0
        for out in outs:
            expected = None
            if self.name not in SWEPT:  # cluster workloads: single-GPU reference
                expected = scenarios.reference_tokens(self.name, self.seed, out.load)
            d, n = scenarios.token_divergence(out, expected)
            divergent += d
            compared += n
        return accounted, divergent, compared

    def end_to_end(self, outs: list):
        """``(simulated metrics, attempted, failed)`` pooled over the parts."""
        e2e = scenarios.sim_metrics(self.w, outs)
        e2e["sim_decode_bw_util"] = self.util["bw_util_decode"]
        e2e["sim_prefill_flops_util"] = self.util["flops_util_prefill"]
        return e2e, sum(o.sent for o in outs), sum(o.failed for o in outs)

    def steps(self, traced) -> int:
        return len(step_events(traced.tracers))

    def layer_inputs(self, traced) -> dict:
        return {"outcome": traced}

    def request_events(self, traced) -> list:
        return request_events(traced.finished)


class KernelRunner:
    """Set-up, repetitions and oracle of ``kernel_batch``; a repetition's
    outcome is ``(part, [(output, SimReport) per call])``."""

    def __init__(self, name: str, seed: int, scale: float):
        self.name, self.seed, self.scale = name, seed, scale
        self.w = WORKLOADS[name]
        self.inputs: List[list] = []
        self.checks: List[dict] = []

    def setup(self) -> None:
        clear_cache()  # every set-up pays the JIT compiles again
        self.inputs = []  # free the last set-up's pools before building new ones
        parts = [kernel_load(self.seed, p, self.scale) for p in range(PARTS)]
        check_fingerprints(self.name, self.seed, self.scale, parts)
        self.inputs = [[kernel_batch.build_inputs(c) for c in cases] for cases in parts]
        kernel_batch.run_batch(self.inputs[0])  # warm-up: JIT cache, lazy imports

    def rep(self, part: int, before: float, traced: bool = False) -> Rep:
        rep = timed(lambda: kernel_batch.run_batch(self.inputs[part]), before)
        rep.outcome = (part, rep.outcome)
        return rep

    def _calls(self, out):
        part, calls = out
        return [(inp.case, report) for inp, (_, report) in zip(self.inputs[part], calls)]

    def _check(self, out) -> dict:
        part, calls = out
        return kernel_batch.check_outputs(self.inputs[part], [o for o, _ in calls])

    def signature(self, out):
        return [report.makespan for _, report in self._calls(out)]

    def rate_points(self, outs: list):
        calls = [c for out in outs for c in self._calls(out)]
        e2e = kernel_batch.sim_metrics(calls)
        # A closed batch has one "rate": the calls it completes per simulated second.
        return [(len(calls) / e2e["sim_makespan_s"], e2e["sim_slo_attainment"], True)]

    def verify(self, outs: list):
        self.checks = [self._check(out) for out in outs]
        return (True, sum(c["bad_rows"] for c in self.checks),
                sum(c["rows"] for c in self.checks))

    def end_to_end(self, outs: list):
        calls = [c for out in outs for c in self._calls(out)]
        e2e = kernel_batch.sim_metrics(calls)
        failed = sum(c["failed"] for c in self.checks)
        e2e["success_share"] = 1.0 - failed / len(calls)
        return e2e, len(calls), failed

    def steps(self, traced) -> int:
        return len(traced[1])

    def layer_inputs(self, traced) -> dict:
        return {"kernel": {"utilisation": kernel_batch.utilisation(self._calls(traced)),
                           "check": self._check(traced)}}

    def request_events(self, traced) -> list:
        return []


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float,
            import_s: float) -> dict:
    """Run one workload by the protocol; returns the full record."""
    runner = (KernelRunner if name == "kernel_batch" else ServingRunner)(name, seed, scale)
    probe()  # warm the calibration loop itself
    before = probe()

    # 1. set-up, several times; the median is reported.
    setups: List[Rep] = []
    for _ in range(SETUPS):
        setups.append(timed(runner.setup, before))
        before = setups[-1].after

    # 2. timed repetitions, tracing off: repetition i serves part i % PARTS on
    #    fresh engines; every part once, then replays while ``seconds`` last.
    reps: List[Rep] = []
    deterministic = True
    started = time.perf_counter()
    while len(reps) < PARTS or time.perf_counter() - started < seconds:
        rep = runner.rep(len(reps) % PARTS, before)
        before = rep.after
        if len(reps) >= PARTS:  # a replayed part must repeat bit for bit
            first = reps[len(reps) % PARTS]
            deterministic &= runner.signature(rep.outcome) == runner.signature(first.outcome)
        reps.append(rep)
    hosts = [r.host_s for r in reps]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pooled = [r.outcome for r in reps[:PARTS]]

    # 3. sweep: the same load at the other fixed rates, once, untimed.
    t = time.perf_counter()
    points = runner.rate_points(pooled)
    sweep_s = time.perf_counter() - t

    # 4. verify: accounting and oracle.
    t = time.perf_counter()
    accounted, divergent, compared = runner.verify(pooled)
    verify_s = time.perf_counter() - t

    e2e, attempted, failed = runner.end_to_end(pooled)
    max_rate, fixed_rate = scenarios.max_rate(points)
    e2e.update({
        # The imports ran before the first probe: the first set-up's factor applies.
        "setup_s": import_s / setups[0].factor + statistics.median(r.host_s for r in setups),
        "host_s": statistics.median(hosts),
        "host_peak_rss_mb": peak_rss_mb,
        "sim_max_rate_rps": max_rate,
        "token_match_share": 1.0 - divergent / max(compared, 1),
    })
    record = {
        "workload": name, "seed": seed, "scale": scale,
        "host_s_reps": hosts, "host_wall_s_reps": [r.wall_s for r in reps],
        "setup_s_reps": [r.host_s for r in setups], "import_s": import_s,
        "calibration_factors": [r.factor for r in setups + reps],
        "unresolved": spread(hosts) > MAX_SPREAD,
        "accounted": accounted, "deterministic": deterministic,
        "token_divergence": divergent, "compared": compared,
        "attempted": attempted, "failed": failed, "end_to_end": e2e,
        "attainment_at_rate": {f"{rate:g}": att for rate, att, _ in points},
        "correct": bool(accounted and deterministic and divergent == 0),
    }

    # 5. traced: part 0 once more with the span table and the public tracer.
    if trace:
        compiled = cache_info()["compiled"]
        tracer = SpanTracer()
        before = probe()
        with tracer:
            t0 = time.perf_counter()
            traced = runner.rep(0, before, traced=True)
        for target in tracer.unresolved:
            print(f"warning: span target {target} no longer resolves", file=sys.stderr)
        record["correct"] &= close(runner.signature(traced.outcome), runner.signature(pooled[0]))
        # The same part untraced once more, so that the traced repetition sits
        # between two untraced ones whatever the container's speed is doing.
        again = runner.rep(0, traced.after)
        record["correct"] &= runner.signature(again.outcome) == runner.signature(pooled[0])
        untraced_s = (reps[0].host_s + again.host_s) / 2.0
        bench = {
            "host_ms_per_step": reps[0].host_s / max(runner.steps(traced.outcome), 1) * 1e3,
            "host_cpu_s": statistics.median(r.cpu_s for r in reps),
            "host_wall_s": statistics.median(r.wall_s for r in reps),
            "calibration_factor": statistics.median(r.factor for r in setups + reps),
            "host_s_spread": spread(hosts),
            "trace_overhead_share": traced.host_s / untraced_s - 1.0,
            "span_coverage": tracer.root_time() / traced.wall_s,
            "verify_s": verify_s, "sweep_s": sweep_s,
            "max_fixed_rate_rps": fixed_rate,
            "unresolved": float(record["unresolved"]),
        }
        record["per_layer"] = layer_metrics(
            tracer, bench, jit_compiles=cache_info()["compiled"] - compiled,
            **runner.layer_inputs(traced.outcome))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{name}.json")
        write_trace(path, tracer.trace_events(t0) + runner.request_events(traced.outcome),
                    {"workload": name, "seed": seed, "part": 0, "scale": scale})
        record["trace"] = os.path.relpath(path, ROOT)
    return record
