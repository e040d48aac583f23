"""Data-parallel request routing: pluggable policies + a load model.

A :class:`RoutingPolicy` picks which replica serves each arriving
request.  Policies are looked up by name through a registry with the
same contract as :mod:`repro.serving.policy`: the built-ins plus
whatever :func:`register_routing_policy` (a class decorator) adds.

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
seeded generator reset at the start of every run, keeping cluster runs
reproducible end to end.

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

from repro.cluster.lifecycle import IllegalTransitionError, Lifecycle, Transition

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
    "RoundRobinPolicy",
    "RoutingPolicy",
    "SessionAffinityPolicy",
    "available_routing_policies",
    "get_routing_policy",
    "register_routing_policy",
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
        #: failover layer charges unhealthy/overloaded replicas here);
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

    ``reset`` is called once per cluster run with the replica count and a
    seed; ``choose`` once per request in arrival order.  ``loads`` is the
    tracker's current outstanding-work estimate per replica.

    The cluster calls :meth:`route`, which wraps ``choose`` with health
    awareness: when a ``healthy`` mask is supplied and the chosen replica
    is down, :meth:`rebind` picks a live one instead.  Policies that
    maintain sticky mappings (session affinity) override ``rebind`` to
    keep the rebinding deterministic per key.
    """

    #: Registry key; subclasses must override.
    name: str = "base"

    def reset(self, num_replicas: int, seed: int = 0) -> None:
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
            # No health info — or nothing is healthy, in which case the
            # caller is responsible for holding the request (the cluster
            # engine queues it until the first replica rejoins).
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

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        super().reset(num_replicas, seed)
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

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        super().reset(num_replicas, seed)
        self._rng = np.random.default_rng(seed)

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

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        super().reset(num_replicas, seed)
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

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        super().reset(num_replicas, seed)
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


_POLICIES: Dict[str, Type[RoutingPolicy]] = {}
_BUILTIN_NAMES = (
    "round-robin", "least-loaded", "power-of-two", "session-affinity",
    "cache-aware", "disagg",
)


def register_routing_policy(cls: Type[RoutingPolicy]) -> Type[RoutingPolicy]:
    """Register a policy class under ``cls.name`` (usable as a decorator)."""
    if not getattr(cls, "name", None) or cls.name == "base":
        raise ValueError(f"{cls.__name__} must define a non-default 'name'")
    _POLICIES[cls.name] = cls
    return cls


for _cls in (
    RoundRobinPolicy, LeastLoadedPolicy, PowerOfTwoPolicy,
    SessionAffinityPolicy, CacheAwarePolicy, DisaggPolicy,
):
    register_routing_policy(_cls)


def available_routing_policies() -> tuple:
    """Registered router names, built-ins first."""
    return tuple(
        sorted(_POLICIES, key=lambda n: (n not in _BUILTIN_NAMES, n))
    )


def get_routing_policy(name: str) -> RoutingPolicy:
    """Instantiate the routing policy registered under ``name``."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; available: "
            f"{', '.join(available_routing_policies())}"
        ) from None


# -- per-replica circuit breakers (the overload layer's router guard) ---------

#: Breaker states in lifecycle order.
BREAKER_STATES: Tuple[str, ...] = ("closed", "open", "half-open")

#: The breaker's edge record and illegal-edge error are the shared
#: :mod:`repro.cluster.lifecycle` ones under their historical names.
BreakerTransition = Transition
IllegalBreakerTransition = IllegalTransitionError


@dataclass
class BreakerConfig:
    """Per-replica circuit-breaker knobs."""

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
    #: Arrival penalty charged to a request re-dispatched after a seeded
    #: timeout (the client's perceived timeout plus resend).
    timeout_penalty: float = 0.02

    def __post_init__(self) -> None:
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("cooldown must be positive")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")
        if self.pressure_threshold <= 0:
            raise ValueError("pressure_threshold must be positive")
        if self.timeout_penalty < 0:
            raise ValueError("timeout_penalty must be >= 0")


class CircuitBreaker(Lifecycle):
    """Per-replica closed → open → half-open breaker on the simulated clock.

    Strikes (:meth:`record_failure`: seeded dispatch timeouts, estimated
    backlog beyond ``pressure_threshold``) open the breaker after
    ``fail_threshold`` in a row; an open breaker refuses traffic for
    ``cooldown`` seconds, then half-opens and admits probe dispatches; a
    failed probe re-opens it (re-arming the cooldown), while
    ``probe_successes`` consecutive clean probes close it again.  All
    edges go through the validated, timestamped :meth:`Lifecycle.to`.
    """

    edges = {
        "closed": frozenset({"open"}),
        "open": frozenset({"half-open"}),
        "half-open": frozenset({"open", "closed"}),
    }
    initial = "closed"
    noun = "breaker"

    def __init__(self, replica: int, config: Optional[BreakerConfig] = None):
        super().__init__(replica)
        self.config = config if config is not None else BreakerConfig()
        self.strikes = 0
        self.probes_ok = 0
        self.opened_at: Optional[float] = None

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
