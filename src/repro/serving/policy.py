"""Pluggable scheduling policies for the serving engine.

A :class:`SchedulerPolicy` decides the *order* of the admitted prefill
queue at the top of every engine step; it never changes what work is
admitted (arrival-FCFS capacity gating stays in
:class:`repro.serving.admission.AdmissionController`) and it cannot
change the tokens a stream produces — token ids are a pure function of
(request, generation, position) — so any policy is token-exact per
stream by construction.

Policies are looked up by name in :data:`POLICIES`.
"""

from __future__ import annotations

from typing import Deque, Dict, Optional, Sequence, Type

from repro.serving.workload import Request


class SchedulerPolicy:
    """Base class: reorder the admitted prefill queue in place.

    ``queue`` holds indices into ``requests`` (the run's arrival-sorted
    request list).  Implementations must reorder *in place* (the engine
    holds a reference) and must use a stable order so repeated calls on an
    unchanged queue are no-ops.
    """

    #: Key in :data:`POLICIES`; subclasses override it.
    name: str = "base"

    def order(
        self,
        queue: "Deque[int]",
        requests: Sequence[Request],
        now: float,
        default_deadline: Optional[float] = None,
    ) -> None:
        raise NotImplementedError

    def _sort(self, queue: "Deque[int]", key) -> None:
        """Stable in-place sort of the deque (ties keep queue order)."""
        if len(queue) > 1:
            ordered = sorted(queue, key=key)
            if ordered != list(queue):
                queue.clear()
                queue.extend(ordered)


class FCFSPolicy(SchedulerPolicy):
    """First-come-first-served: the pre-refactor engine behavior.

    A strict no-op — the queue is already arrival-ordered by admission
    (with transient-alloc retries re-queued at the head), and this policy
    must preserve that order token-for-token.
    """

    name = "fcfs"

    def order(self, queue, requests, now, default_deadline=None) -> None:
        return None


class PriorityPolicy(SchedulerPolicy):
    """Highest :attr:`Request.priority` first; FCFS within a priority."""

    name = "priority"

    def order(self, queue, requests, now, default_deadline=None) -> None:
        self._sort(queue, key=lambda i: -requests[i].priority)


class SLAAwarePolicy(SchedulerPolicy):
    """Earliest absolute deadline first (EDF).

    A request's absolute deadline is ``arrival + deadline`` where the
    relative deadline falls back to the engine-wide
    ``ResilienceConfig.deadline``; requests with no deadline sort last,
    FCFS among themselves.
    """

    name = "sla-aware"

    def order(self, queue, requests, now, default_deadline=None) -> None:
        def key(i: int) -> float:
            req = requests[i]
            rel = req.deadline if req.deadline is not None else default_deadline
            return req.arrival + rel if rel is not None else float("inf")

        self._sort(queue, key=key)


#: Scheduling policy classes by name (alphabetical: the CLI help lists them).
POLICIES: Dict[str, Type[SchedulerPolicy]] = {
    cls.name: cls for cls in (FCFSPolicy, PriorityPolicy, SLAAwarePolicy)
}


def get_policy(name: str) -> SchedulerPolicy:
    """Instantiate the policy named ``name``."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; available: "
            f"{', '.join(POLICIES)}"
        ) from None
