"""The serving engine's prefill-queue order: first come, first served.

The queue is already arrival-ordered by admission (with transient-alloc
retries re-queued at the head), and an order can never change the tokens
a stream produces — token ids are a pure function of (request,
generation, position) — so the engine's one order is a no-op.
"""

from __future__ import annotations

from typing import Deque, Sequence

from repro.serving.workload import Request


class FCFSPolicy:
    """First-come-first-served: keeps the admitted prefill queue as it is.

    The class and its no-op :meth:`order` exist because the benchmark's
    ``serving.policy`` layer times ``FCFSPolicy.order`` (``benchmarks/e2e/
    spans.py`` and ``layers.py``); ROADMAP item 1(b), which unpins dead
    span targets, is the change that lets them go.  A prefill-pool order
    (ROADMAP item 7(a)) takes its place in the engine.
    """

    def order(self, queue: Deque[int], requests: Sequence[Request], now: float) -> None:
        return None
