"""Operating-point search (the paper's §4.1 methodology).

"The request rate is adjusted to maintain P99 TTFT below 200ms": this
module implements that adjustment — a monotone bisection over request rate
against a latency constraint — so benchmark operating points are derived
rather than hand-picked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.serving.metrics import ServingMetrics

#: Run a workload at a request rate, returning its metrics.
RunAtRate = Callable[[float], ServingMetrics]

#: The paper's default SLO: P99 TTFT under 200 ms (§4.1).
P99_TTFT_LIMIT = 0.2


@dataclass(frozen=True)
class OperatingPoint:
    """The outcome of a rate search."""

    rate: float
    metrics: ServingMetrics

    @property
    def p99_ttft(self) -> float:
        return self.metrics.p99_ttft()


def find_max_rate(
    run_at_rate: RunAtRate,
    lo: float = 1.0,
    hi: float = 512.0,
    tolerance: float = 0.1,
    max_iters: int = 12,
    constraint: "Callable[[ServingMetrics], bool] | None" = None,
) -> OperatingPoint:
    """Largest request rate satisfying a latency constraint.

    The default constraint is the paper's (P99 TTFT under
    :data:`P99_TTFT_LIMIT`); pass
    ``constraint`` for custom SLOs (e.g. combined TTFT + ITL).  Assumes
    the constraint is monotone in the rate (queueing), which holds for the
    simulated engine.  ``tolerance`` is relative on the rate.  If even
    ``lo`` violates the constraint, the ``lo`` point is returned (caller
    inspects its metrics); if ``hi`` satisfies it, ``hi`` is returned.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if constraint is None:
        constraint = lambda m: m.p99_ttft() <= P99_TTFT_LIMIT

    lo_metrics = run_at_rate(lo)
    if not constraint(lo_metrics):
        return OperatingPoint(lo, lo_metrics)
    hi_metrics = run_at_rate(hi)
    if constraint(hi_metrics):
        return OperatingPoint(hi, hi_metrics)

    best = OperatingPoint(lo, lo_metrics)
    for _ in range(max_iters):
        if (hi - lo) <= tolerance * lo:
            break
        mid = (lo + hi) / 2.0
        metrics = run_at_rate(mid)
        if constraint(metrics):
            best = OperatingPoint(mid, metrics)
            lo = mid
        else:
            hi = mid
    return best
