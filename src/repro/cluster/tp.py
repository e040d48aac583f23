"""Tensor-parallel execution: head sharding + interconnect charging.

Megatron-style TP over the simulated cluster: every shard holds
``1/tp`` of the QO heads, ``1/tp`` of the KV heads (or a replicated KV
head once ``tp > num_kv_heads`` — the GQA over-sharding case), and
``1/tp`` of every GEMM.  The serving engine already prices compute per
shard (``EngineConfig.tensor_parallel`` divides the roofline terms) and
builds its :class:`~repro.kvcache.paged.PagedKVCache` with the *sharded*
KV-head count — so a tp=4 replica's KV pages are 4× smaller and its page
pool holds 4× the tokens, exactly the capacity win TP buys in practice.

What this module adds:

* :func:`plan_tp_sharding` — validates divisibility up front (the engine
  used to fall back silently to unsharded QO heads) and describes the
  shard: per-shard :class:`~repro.core.kernels.HeadConfig`, KV
  replication factor, per-shard KV bytes.
* :class:`TPInterconnect` — prices the two per-layer all-reduces on a
  cluster :class:`~repro.cluster.topology.Topology` (ring formula,
  degradation-aware) instead of the flat NVLink-bus constants, and
  charges the wire traffic to the topology's utilization counters.
  Timing-only: token ids never depend on it.  Engines take one through
  ``ServingEngine.from_config(..., interconnect=...)``.

Token-exactness invariant: sharding heads and charging all-reduces moves
*time*, never token values — tokens are a pure function of (request id,
generation, position) — so tp=2/tp=4 runs are token-exact against tp=1
by construction, and the tests assert it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import Topology

__all__ = [
    "TPInterconnect",
    "TPSharding",
    "plan_tp_sharding",
]


@dataclass(frozen=True)
class TPSharding:
    """How one model shards across a tensor-parallel group."""

    tp: int
    #: Per-shard head geometry (what each replica's backend and KV cache
    #: are built with); ``repro.core.kernels.HeadConfig``.
    shard_heads: object
    #: Shards holding a copy of each KV head (1 unless ``tp`` exceeds the
    #: model's KV-head count, the GQA over-sharding case).
    kv_replication: int


def plan_tp_sharding(model, tp: int) -> TPSharding:
    """Validate and describe the head sharding for ``tp`` shards.

    Raises :class:`ValueError` when ``tp`` does not divide the model's QO
    heads — a shape that silently degrades to replicated attention in the
    bare engine and is a configuration error at cluster level.
    """
    from repro.core.kernels import HeadConfig

    if tp < 1:
        raise ValueError(f"tensor_parallel must be >= 1, got {tp}")
    if model.num_qo_heads % tp != 0:
        raise ValueError(
            f"tensor_parallel={tp} must divide {model.name}'s "
            f"num_qo_heads={model.num_qo_heads}"
        )
    kv_heads = max(model.num_kv_heads // tp, 1)
    replication = max(tp // model.num_kv_heads, 1)
    shard_heads = HeadConfig(model.num_qo_heads // tp, kv_heads, model.head_dim)
    return TPSharding(tp=tp, shard_heads=shard_heads, kv_replication=replication)


class TPInterconnect:
    """Prices a TP group's per-layer all-reduces on a topology.

    Attached to a :class:`~repro.serving.engine.ServingEngine` via its
    ``interconnect=`` argument: the executor calls
    :meth:`allreduce_per_layer` inside step pricing (so degradation
    windows at simulated time ``t`` slow the affected steps) and
    :meth:`charge_step` once per executed step for traffic accounting.
    """

    def __init__(self, topology: Topology, model, tp: int):
        if tp > topology.world:
            raise ValueError(
                f"tensor-parallel group of {tp} exceeds topology world "
                f"{topology.world}"
            )
        self.topology = topology
        self.model = model
        self.tp = tp

    def _payload_bytes(self, num_tokens: int) -> float:
        """One all-reduce's payload: the layer activations."""
        return float(num_tokens * self.model.hidden_size * self.model.dtype_bytes)

    def allreduce_per_layer(
        self, num_tokens: int, efficiency: float = 1.0, t: float = 0.0
    ) -> float:
        """Two ring all-reduces per layer (post-attention and post-MLP)."""
        if self.tp <= 1:
            return 0.0
        nbytes = self._payload_bytes(num_tokens)
        return 2.0 * self.topology.all_reduce_time(nbytes, self.tp, efficiency, t)

    def charge_step(
        self, num_tokens: int, efficiency: float = 1.0, t: float = 0.0
    ) -> None:
        """Account one step's all-reduce traffic (2 per layer × layers)."""
        if self.tp <= 1:
            return
        nbytes = self._payload_bytes(num_tokens)
        count = 2 * self.model.num_layers
        self.topology.charge(
            "all_reduce",
            count * self.topology.all_reduce_wire_bytes(nbytes, self.tp),
            count * self.topology.all_reduce_time(nbytes, self.tp, efficiency, t),
        )
