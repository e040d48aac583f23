"""Randomized end-to-end sweep: wrapper vs dense oracle over many configs."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_paged_mapping, sweep
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, reference_attention
from repro.utils.dtypes import StorageDType, round_to_storage


@given(
    st.integers(0, 2**31 - 1),                 # data seed
    st.lists(st.integers(1, 600), min_size=1, max_size=5),   # kv lens
    st.sampled_from([1, 2, 4]),                # GQA group size
    st.sampled_from([1, 4, 16]),               # page size
    st.booleans(),                             # decode vs prefill
    st.booleans(),                             # fuse head groups
)
@sweep(10, 40)
def test_wrapper_matches_oracle_on_random_configs(
    seed, kv_lens, group, page_size, decode, fuse
):
    rng = np.random.default_rng(seed)
    heads = HeadConfig(2 * group, 2, 16)
    qo_lens = [1] * len(kv_lens) if decode else [min(k, 32) for k in kv_lens]
    mapping, slots = make_paged_mapping(kv_lens, qo_lens, page_size)
    total_q = mapping.total_qo
    q = rng.standard_normal((total_q, heads.num_qo_heads, 16))
    kp = rng.standard_normal((slots, 2, 16))
    vp = rng.standard_normal((slots, 2, 16))

    w = BatchAttentionWrapper(
        VANILLA, heads, WorkspaceBuffer(1 << 27),
        avg_qo_len=float(np.mean(qo_lens)), fuse_head_groups=fuse,
    )
    w.plan(mapping)
    out, _, _ = w.run(q, kp, vp)

    for r in range(mapping.num_groups):
        sl = mapping.kv.slot_indices(r)
        kr = round_to_storage(kp[sl], StorageDType.FP16).astype(np.float64)
        vr = round_to_storage(vp[sl], StorageDType.FP16).astype(np.float64)
        s0, s1 = mapping.qo_indptr[r], mapping.qo_indptr[r + 1]
        ref = reference_attention(q[s0:s1], kr, vr, causal=True)
        np.testing.assert_allclose(out[s0:s1], ref, atol=2e-5)
