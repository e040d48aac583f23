"""Data-parallel request routing: pluggable policies + a load model.

A :class:`RoutingPolicy` picks which replica serves each arriving
request.  Policies are looked up by name in :data:`ROUTING_POLICIES`,
the same way :mod:`repro.serving.policy` looks up scheduling policies.

Routing is *timing-only*: token ids are a pure function of the request's
cluster-global id (``Request.rid``), so any policy — however bad — is
token-exact per stream by construction.  What a policy changes is
queueing, and therefore TTFT/throughput.

:class:`LoadTracker` is the deterministic fluid model policies consult:
each replica's outstanding token work drains at a nominal service rate.
It deliberately avoids peeking inside replica engines (they run
arrival-clocked and are not steppable mid-run), mirroring what a real
front-end router can actually observe — queue depths it assigned, not
per-step engine internals.

All randomness (power-of-two-choices probing) comes from a policy-owned
generator re-seeded with 0 at the start of every run, keeping cluster
runs reproducible end to end.

:class:`CircuitBreaker` is the router-side overload guard: a per-replica
closed → open → half-open state machine on the simulated clock, tripped
by seeded dispatch timeouts and sustained backlog pressure, reinstated
only after successful half-open probes.  The cluster engine folds open
breakers into the routing health mask (see
:attr:`repro.cluster.ClusterConfig.overload`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

__all__ = [
    "BREAKER_STATES",
    "BreakerConfig",
    "BreakerTransition",
    "CacheAwarePolicy",
    "CircuitBreaker",
    "DisaggPolicy",
    "IllegalBreakerTransition",
    "LeastLoadedPolicy",
    "LoadTracker",
    "PowerOfTwoPolicy",
    "ROUTING_POLICIES",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "SessionAffinityPolicy",
    "Transition",
    "get_routing_policy",
]


class LoadTracker:
    """Fluid-model outstanding work per replica.

    ``assign`` adds a request's token work to a replica; ``observe``
    drains every replica at ``service_rate`` tokens per simulated second.
    Deterministic: state depends only on the assignment sequence.
    """

    def __init__(self, num_replicas: int, service_rate: float):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if service_rate <= 0:
            raise ValueError("service_rate must be positive")
        self.service_rate = service_rate
        self.outstanding = [0.0] * num_replicas
        self.assigned_requests = [0] * num_replicas
        #: Backpressure in seconds of synthetic backlog per replica (the
        #: routing pass charges replicas whose breaker is open here);
        #: folded into :meth:`loads` as ``pressure × service_rate`` tokens.
        self.pressure = [0.0] * num_replicas
        self._t = 0.0

    def observe(self, t: float) -> None:
        """Advance the drain clock to simulated time ``t``."""
        dt = max(t - self._t, 0.0)
        if dt:
            drain = dt * self.service_rate
            self.outstanding = [max(x - drain, 0.0) for x in self.outstanding]
        self._t = max(self._t, t)

    def assign(self, replica: int, tokens: float) -> None:
        self.outstanding[replica] += tokens
        self.assigned_requests[replica] += 1

    def set_pressure(self, replica: int, seconds: float) -> None:
        """Charge (or clear, with 0) a backpressure signal on a replica."""
        self.pressure[replica] = max(0.0, float(seconds))

    def loads(self) -> List[float]:
        if any(self.pressure):
            return [
                x + p * self.service_rate
                for x, p in zip(self.outstanding, self.pressure)
            ]
        return list(self.outstanding)


class RoutingPolicy:
    """Base class: pick a replica for one arriving request.

    ``reset`` is called once per cluster run with the replica count;
    ``choose`` once per request in arrival order.  ``loads`` is the
    tracker's current outstanding-work estimate per replica.

    The cluster calls :meth:`route`, which wraps ``choose`` with a
    ``healthy`` mask (the overload layer's open circuit breakers): when
    the chosen replica is masked out, :meth:`rebind` picks another.
    Policies that maintain sticky mappings (session affinity) override
    ``rebind`` to keep the rebinding deterministic per key.
    """

    #: Key in :data:`ROUTING_POLICIES`; subclasses override it.
    name: str = "base"

    def reset(self, num_replicas: int) -> None:
        self.num_replicas = num_replicas

    def choose(self, req, t: float, loads: Sequence[float]) -> int:
        raise NotImplementedError

    def route(
        self,
        req,
        t: float,
        loads: Sequence[float],
        healthy: Optional[Sequence[bool]] = None,
    ) -> int:
        """Health-aware choice: ``choose``, rebound off unhealthy replicas."""
        choice = self.choose(req, t, loads)
        if healthy is None or not any(healthy):
            # No mask, or an all-false one: nothing to steer around, so
            # the policy's choice stands (the cluster engine passes no
            # mask when every breaker is open — it never drops work).
            return choice
        if 0 <= choice < self.num_replicas and healthy[choice]:
            return choice
        return self.rebind(req, t, loads, healthy, choice)

    def rebind(
        self,
        req,
        t: float,
        loads: Sequence[float],
        healthy: Sequence[bool],
        choice: int,
    ) -> int:
        """Fallback when ``choice`` is unhealthy: least-loaded healthy
        replica (ties → lowest index).  Deterministic."""
        alive = [r for r in range(self.num_replicas) if healthy[r]]
        return int(min(alive, key=lambda r: (loads[r], r)))


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas in arrival order (the load-oblivious baseline)."""

    name = "round-robin"

    def reset(self, num_replicas: int) -> None:
        super().reset(num_replicas)
        self._next = 0

    def choose(self, req, t, loads) -> int:
        r = self._next
        self._next = (self._next + 1) % self.num_replicas
        return r


class LeastLoadedPolicy(RoutingPolicy):
    """Send to the replica with the least outstanding work (ties → lowest
    index, so the choice is deterministic)."""

    name = "least-loaded"

    def choose(self, req, t, loads) -> int:
        return int(min(range(self.num_replicas), key=lambda r: (loads[r], r)))


class PowerOfTwoPolicy(RoutingPolicy):
    """Power-of-two-choices: probe two random replicas, take the less
    loaded — near-optimal balance at a fraction of least-loaded's probing
    cost (Mitzenmacher's classic result)."""

    name = "power-of-two"

    def reset(self, num_replicas: int) -> None:
        super().reset(num_replicas)
        self._rng = np.random.default_rng(0)

    def choose(self, req, t, loads) -> int:
        if self.num_replicas == 1:
            return 0
        a, b = self._rng.choice(self.num_replicas, size=2, replace=False)
        a, b = int(a), int(b)
        return a if (loads[a], a) <= (loads[b], b) else b


class SessionAffinityPolicy(RoutingPolicy):
    """Hash the session key to a replica: requests sharing a
    ``prefix_group`` (a common system prompt) land together, so each
    replica's radix prefix cache sees every reuse of its groups.  Requests
    without a group hash their own id — affinity degrades to a uniform
    deterministic spread.

    When the hashed replica is unhealthy, :meth:`rebind` probes successive
    salted hashes of the *same key* until a healthy replica turns up —
    so every request of a session rebinds to the same fallback replica
    (affinity survives the failover), and the session snaps back to its
    home replica once it rejoins."""

    name = "session-affinity"

    @staticmethod
    def _hash(key: int) -> int:
        # Knuth multiplicative hash: spreads small consecutive ids.
        return (int(key) * 2654435761) & 0xFFFFFFFF

    def _key(self, req) -> int:
        key = req.prefix_group
        if key is None:
            key = req.rid if getattr(req, "rid", None) is not None else 0
        return int(key)

    def choose(self, req, t, loads) -> int:
        return self._hash(self._key(req)) % self.num_replicas

    def rebind(self, req, t, loads, healthy, choice) -> int:
        # Deterministic probe sequence per session key: the first healthy
        # replica among hash(key + i*salt) is the session's fallback home.
        key = self._key(req)
        for i in range(1, 4 * self.num_replicas + 1):
            candidate = self._hash(key + i * 0x9E3779B9) % self.num_replicas
            if healthy[candidate]:
                return candidate
        return super().rebind(req, t, loads, healthy, choice)


class CacheAwarePolicy(RoutingPolicy):
    """Balance estimated radix-cache hits against load (SGLang-style
    cache-aware routing).

    The router mirrors what each replica's radix tree will have cached:
    routing a request with a ``prefix_group`` teaches that replica the
    group's prefix, and later requests of the group score an estimated
    hit of ``prefix_len`` tokens there.  Each replica is scored by the
    prompt tokens it would still have to prefill (prompt minus estimated
    hit) plus its outstanding work; the lowest total wins (ties → lowest
    index).  Unlike :class:`SessionAffinityPolicy` this keeps spreading
    load when one group dominates: once the hot group is cached on a
    second replica, both score equal hits and the load term decides."""

    name = "cache-aware"

    def reset(self, num_replicas: int) -> None:
        super().reset(num_replicas)
        #: Per replica: prefix_group → cached prefix length (tokens), the
        #: router's model of that replica's radix tree contents.
        self._cached: List[Dict[int, int]] = [{} for _ in range(num_replicas)]

    def _est_hit(self, replica: int, req) -> int:
        if req.prefix_group is None:
            return 0
        cached = self._cached[replica].get(req.prefix_group, 0)
        return min(cached, req.prefix_len)

    def choose(self, req, t, loads) -> int:
        best = min(
            range(self.num_replicas),
            key=lambda r: (
                req.prompt_len - self._est_hit(r, req) + loads[r], r
            ),
        )
        if req.prefix_group is not None:
            seen = self._cached[best]
            seen[req.prefix_group] = max(
                seen.get(req.prefix_group, 0), req.prefix_len
            )
        return int(best)


class DisaggPolicy(RoutingPolicy):
    """Prefill→decode pairing for disaggregated role pools (DistServe).

    The cluster binds the role partition with :meth:`bind_roles`; from
    then on :meth:`choose` is least-loaded *within the prefill pool* (the
    prompt compute goes there) and :meth:`pair` picks the least-loaded
    decode replica the finished prefill will hand its KV pages to.  Both
    respect the routing health mask — failover marks and open overload
    breakers confine each side to its pool's healthy members, falling
    back to the whole pool only when none are healthy (the cluster then
    holds the request at the door, exactly as colocated routing does).
    """

    name = "disagg"

    def reset(self, num_replicas: int) -> None:
        super().reset(num_replicas)
        if getattr(self, "prefill_pool", None) is None:
            self.prefill_pool: Optional[Tuple[int, ...]] = None
            self.decode_pool: Optional[Tuple[int, ...]] = None

    def bind_roles(
        self, prefill: Sequence[int], decode: Sequence[int]
    ) -> None:
        """Install the role partition (validated by the cluster engine)."""
        if not prefill or not decode:
            raise ValueError("disagg routing needs both role pools non-empty")
        self.prefill_pool = tuple(int(r) for r in prefill)
        self.decode_pool = tuple(int(r) for r in decode)

    def _require_pools(self) -> None:
        if getattr(self, "prefill_pool", None) is None:
            raise ValueError(
                "DisaggPolicy.bind_roles was never called; the 'disagg' "
                "router only works under ClusterConfig(roles=...)"
            )

    @staticmethod
    def _best(
        pool: Sequence[int],
        loads: Sequence[float],
        healthy: Optional[Sequence[bool]],
    ) -> int:
        candidates = (
            [r for r in pool if healthy[r]]
            if healthy is not None and any(healthy[r] for r in pool)
            else list(pool)
        )
        return int(min(candidates, key=lambda r: (loads[r], r)))

    def choose(self, req, t, loads) -> int:
        self._require_pools()
        return self._best(self.prefill_pool, loads, None)

    def route(self, req, t, loads, healthy=None) -> int:
        self._require_pools()
        return self._best(self.prefill_pool, loads, healthy)

    def rebind(self, req, t, loads, healthy, choice) -> int:
        self._require_pools()
        return self._best(self.prefill_pool, loads, healthy)

    def pair(
        self,
        req,
        t: float,
        loads: Sequence[float],
        healthy: Optional[Sequence[bool]] = None,
    ) -> int:
        """The decode replica this request's KV pages will hand off to."""
        self._require_pools()
        return self._best(self.decode_pool, loads, healthy)


#: Routing policy classes by name (alphabetical: the CLI help lists them).
ROUTING_POLICIES: Dict[str, Type[RoutingPolicy]] = {
    cls.name: cls for cls in (
        CacheAwarePolicy, DisaggPolicy, LeastLoadedPolicy, PowerOfTwoPolicy,
        RoundRobinPolicy, SessionAffinityPolicy,
    )
}


def get_routing_policy(name: str) -> RoutingPolicy:
    """Instantiate the routing policy named ``name``."""
    try:
        return ROUTING_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; available: "
            f"{', '.join(ROUTING_POLICIES)}"
        ) from None


# -- per-replica circuit breakers (the overload layer's router guard) ---------

#: Breaker states in lifecycle order.
BREAKER_STATES: Tuple[str, ...] = ("closed", "open", "half-open")


class IllegalBreakerTransition(ValueError):
    """A breaker edge outside :attr:`CircuitBreaker.edges`."""


@dataclass(frozen=True)
class Transition:
    """One timestamped state edge for a replica: a circuit breaker's, or
    a failed replica's failover timeline
    (:attr:`repro.cluster.failover.FailoverReport.transitions`)."""

    t: float
    replica: int
    frm: str
    to: str
    detail: str = ""


#: The breaker's edge record under its historical name.
BreakerTransition = Transition


@dataclass
class BreakerConfig:
    """Per-replica circuit-breaker knobs.  Only a field a program sets or
    a test needs stays a field (``tests/test_knobs.py``)."""

    #: Failure strikes (dispatch timeouts, sustained pressure) before a
    #: closed breaker opens.
    fail_threshold: int = 3
    #: Seconds an open breaker waits before half-open probing.
    cooldown: float = 0.25
    #: Successful half-open probes before the breaker fully closes.
    probe_successes: int = 2
    #: Estimated backlog (seconds of queued work at the nominal service
    #: rate) at/above which a dispatch counts as a pressure strike.
    pressure_threshold: float = 0.75

    def __post_init__(self) -> None:
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("cooldown must be positive")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")
        if self.pressure_threshold <= 0:
            raise ValueError("pressure_threshold must be positive")


class CircuitBreaker:
    """Per-replica closed → open → half-open breaker on the simulated clock.

    Strikes (:meth:`record_failure`: seeded dispatch timeouts, estimated
    backlog beyond ``pressure_threshold``) open the breaker after
    ``fail_threshold`` in a row; an open breaker refuses traffic for
    ``cooldown`` seconds, then half-opens and admits probe dispatches; a
    failed probe re-opens it (re-arming the cooldown), while
    ``probe_successes`` consecutive clean probes close it again.  All
    edges go through the validated, timestamped :meth:`to`.
    """

    #: ``state -> states reachable from it``; anything else raises
    #: :class:`IllegalBreakerTransition`.
    edges = {
        "closed": frozenset({"open"}),
        "open": frozenset({"half-open"}),
        "half-open": frozenset({"open", "closed"}),
    }

    def __init__(self, replica: int, config: Optional[BreakerConfig] = None):
        self.replica = int(replica)
        self.state = "closed"
        self.transitions: List[Transition] = []
        self.config = config if config is not None else BreakerConfig()
        self.strikes = 0
        self.probes_ok = 0
        self.opened_at: Optional[float] = None

    def to(self, state: str, t: float, detail: str = "") -> Transition:
        if state not in self.edges[self.state]:
            raise IllegalBreakerTransition(
                f"replica {self.replica}: illegal breaker transition "
                f"{self.state} -> {state}"
            )
        tr = Transition(float(t), self.replica, self.state, state, detail)
        self.state = state
        self.transitions.append(tr)
        return tr

    @property
    def counts(self) -> Counter:
        """Edges taken so far, keyed by the state entered."""
        return Counter(tr.to for tr in self.transitions)

    open_count = property(lambda self: self.counts["open"])
    half_open_count = property(lambda self: self.counts["half-open"])
    close_count = property(lambda self: self.counts["closed"])

    def tick(self, t: float) -> None:
        """Open → half-open once the cooldown has elapsed."""
        if (
            self.state == "open"
            and self.opened_at is not None
            and t >= self.opened_at + self.config.cooldown
        ):
            self.probes_ok = 0
            self.to("half-open", t, "cooldown elapsed, probing")

    def allow(self, t: float) -> bool:
        """May traffic be routed to this replica at time ``t``?
        (Half-open admits probes; open refuses.)"""
        self.tick(t)
        return self.state != "open"

    def record_failure(self, t: float, kind: str = "fault") -> None:
        if self.state == "half-open":
            # A failed probe re-opens immediately and re-arms the cooldown.
            self.opened_at = float(t)
            self.strikes = 0
            self.to("open", t, f"probe failed ({kind})")
        elif self.state == "closed":
            self.strikes += 1
            if self.strikes >= self.config.fail_threshold:
                self.opened_at = float(t)
                self.to("open", t, f"{self.strikes} strikes ({kind})")
                self.strikes = 0
        # An already-open breaker absorbs further failures silently.

    def record_success(self, t: float) -> None:
        if self.state == "half-open":
            self.probes_ok += 1
            if self.probes_ok >= self.config.probe_successes:
                self.to("closed", t, f"{self.probes_ok} probes succeeded")
        elif self.state == "closed" and self.strikes > 0:
            # Leaky strike decay: sporadic failures never accumulate to a trip.
            self.strikes -= 1
