"""Ring attention: million-token contexts across simulated devices (§2.2).

The attention-state algebra the engine uses for on-device split-KV also
scales *across* devices: shard the sequence, rotate KV shards around a
ring, merge partial states with ⊕.  Each (query shard, KV shard) pair is
one launch of the engine's own wrapper, priced like any other: it pays a
dispatch and gets Algorithm 1's balance over the SMs, so at 2048 tokens
a step's launch is small enough that its dispatch and its longest work
item set its time, and past two devices the ring's ``N`` launches per
device cost more than the work they split.  Each hop is a
point-to-point send on the cluster's link model, latency included.  The
output is staged in float32 (App. D.3), so it matches the single-device
oracle to ~1e-7.  This example checks that exactness and shows the
compute/communication overlap tradeoff as the ring grows.

Run:  python examples/ring_attention.py
"""

import numpy as np

from repro.cluster import NVLINK_P2P, Link, Topology
from repro.core import HeadConfig, reference_attention
from repro.distributed import RingAttention
from repro.utils.dtypes import StorageDType, round_to_storage


def main() -> None:
    rng = np.random.default_rng(0)
    heads = HeadConfig(num_qo_heads=8, num_kv_heads=2, head_dim=64)
    n = 2048  # keep numerics fast; the cost model extrapolates the shape

    q = rng.standard_normal((n, 8, 64))
    k = rng.standard_normal((n, 2, 64))
    v = rng.standard_normal((n, 2, 64))
    ref = reference_attention(
        q, round_to_storage(k, StorageDType.FP16), round_to_storage(v, StorageDType.FP16),
        causal=True,
    )

    print(f"causal prefill of {n} tokens, sharded over a device ring\n")
    print(f"{'devices':>8s} {'max err':>10s} {'compute':>10s} {'comm':>10s} "
          f"{'makespan':>10s} {'skipped':>8s}")
    for num_devices in (1, 2, 4, 8):
        ring = RingAttention(num_devices, heads)
        out, rep = ring.run(q, k, v, causal=True)
        err = float(np.abs(out - ref).max())
        print(
            f"{num_devices:8d} {err:10.2e} {rep.compute_time * 1e6:8.1f}µs "
            f"{rep.comm_time * 1e6:8.1f}µs {rep.makespan * 1e6:8.1f}µs "
            f"{rep.skipped_pairs:8d}"
        )

    # A slow interconnect flips the balance: the ring becomes comm-bound.
    link = Link("5 GB/s", bandwidth=5e9, latency=NVLINK_P2P.latency)
    slow = RingAttention(8, heads, Topology("slow", 8, link))
    _, rep = slow.run(q, k, v, causal=True)
    print(
        f"\nwith a 5 GB/s link the 8-device ring is "
        f"{'comm' if rep.comm_bound else 'compute'}-bound "
        f"(comm {rep.comm_time * 1e6:.1f}µs vs compute {rep.compute_time * 1e6:.1f}µs)"
    )


if __name__ == "__main__":
    main()
