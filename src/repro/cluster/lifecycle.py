"""The validated-edge state machine behind
:class:`~repro.cluster.failover.ReplicaHealth` and
:class:`~repro.cluster.router.CircuitBreaker`: a current state, a table
of legal edges, and a timestamped transition log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["IllegalTransitionError", "Lifecycle", "Transition"]


class IllegalTransitionError(ValueError):
    """A transition outside the lifecycle's legal edges."""


@dataclass(frozen=True)
class Transition:
    """One timestamped lifecycle edge for a replica."""

    t: float
    replica: int
    frm: str
    to: str
    detail: str = ""


class Lifecycle:
    """A replica's current state plus its transition log.  Subclasses
    declare the three class attributes and move only through :meth:`to`,
    so an illegal edge raises instead of corrupting the lifecycle."""

    #: ``state -> states reachable from it``; the keys are the state set.
    edges: Dict[str, frozenset]
    initial: str
    #: What the states describe, for error messages ("health", "breaker").
    noun: str

    def __init__(self, replica: int):
        self.replica = int(replica)
        self.state = self.initial
        self.transitions: List[Transition] = []

    def to(self, state: str, t: float, detail: str = "") -> Transition:
        if state not in self.edges:
            raise IllegalTransitionError(
                f"unknown {self.noun} state {state!r}; "
                f"expected one of {tuple(self.edges)}"
            )
        if state not in self.edges[self.state]:
            raise IllegalTransitionError(
                f"replica {self.replica}: illegal {self.noun} transition "
                f"{self.state} -> {state}"
            )
        tr = Transition(float(t), self.replica, self.state, state, detail)
        self.state = state
        self.transitions.append(tr)
        return tr
