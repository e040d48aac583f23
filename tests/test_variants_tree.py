"""Tests for tree attention (speculative decoding) and SM partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fp16, make_paged_mapping
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import HeadConfig, VANILLA, reference_attention
from repro.variants import make_tree_attention, tree_attention_mask

HEADS = HeadConfig(4, 2, 16)


class TestTreeMask:
    def test_chain_is_causal(self):
        # A pure chain degenerates to a causal mask.
        mask = tree_attention_mask([-1, 0, 1, 2])
        assert np.array_equal(mask, np.tril(np.ones((4, 4), dtype=bool)))

    def test_branches_are_isolated(self):
        mask = tree_attention_mask([-1, 0, 0])
        assert mask[1, 2] == False  # siblings cannot see each other
        assert mask[2, 1] == False
        assert mask[1, 0] and mask[2, 0]

    def test_context_always_visible(self):
        mask = tree_attention_mask([-1, 0], context_len=3)
        assert mask[:, :3].all()
        assert mask.shape == (2, 5)

    def test_invalid_parent(self):
        with pytest.raises(ValueError, match="parent"):
            tree_attention_mask([-1, 5])

    def test_self_visibility(self):
        mask = tree_attention_mask([-1, 0, 1])
        assert np.all(np.diag(mask))

    def test_forest_roots_are_isolated(self):
        mask = tree_attention_mask([-1, -1, 0, 1])
        assert not mask[0, 1] and not mask[1, 0]
        assert not mask[2, 1] and not mask[3, 0]

    @given(st.lists(st.integers(0, 10**6), max_size=12), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_ancestor_paths(self, draws, context_len):
        """Node ``i`` sees exactly the context, itself and its ancestors."""
        parents = [d % (i + 1) - 1 for i, d in enumerate(draws)]  # parent < i
        mask = tree_attention_mask(parents, context_len)
        for i in range(len(parents)):
            path, node = set(), i
            while node != -1:
                path.add(context_len + node)
                node = parents[node]
            want = set(range(context_len)) | path
            assert set(np.flatnonzero(mask[i])) == want


def _draft_inputs(n, context_len, rng):
    """Mapping, queries and K/V pools for ``n`` draft tokens scored behind
    ``context_len`` cached tokens."""
    mapping, slots = make_paged_mapping([context_len + n], [n], page_size=4)
    q = rng.standard_normal((n, 4, 16))
    kp = rng.standard_normal((slots, 2, 16))
    vp = rng.standard_normal((slots, 2, 16))
    return mapping, q, kp, vp


def _run(variant, mapping, q, kp, vp):
    w = BatchAttentionWrapper(variant, HEADS, WorkspaceBuffer(1 << 26), avg_qo_len=len(q))
    w.plan(mapping)
    out, _, _ = w.run(q, kp, vp)
    return out


def _check_every_path(parents, context_len, rng):
    mapping, q, kp, vp = _draft_inputs(len(parents), context_len, rng)
    out = _run(make_tree_attention(parents, context_len), mapping, q, kp, vp)
    total = context_len + len(parents)
    k = fp16(kp[:total])
    v = fp16(vp[:total])
    for i in range(len(parents)):
        path = list(range(context_len))
        node = i
        anc = []
        while node != -1:
            anc.append(context_len + node)
            node = parents[node]
        path += sorted(anc)
        ref = reference_attention(q[i : i + 1], k[path], v[path], causal=False)
        np.testing.assert_allclose(out[i : i + 1], ref, atol=1e-6)


TREES = {
    "chain": [-1, 0, 1, 2, 3],
    "star": [-1, 0, 0, 0, 0],
    "binary": [-1, 0, 0, 1, 1, 2, 2],
    "forest": [-1, -1, 0, 1, 2],
    "example": [-1, 0, 0, 1, 1, 2],
}


class TestTreeAttentionKernel:
    def test_every_node_matches_path_reference(self, rng):
        _check_every_path([-1, 0, 0, 1, 2, 2, 4], 30, rng)

    @pytest.mark.parametrize("context_len", [0, 13])
    @pytest.mark.parametrize("shape", sorted(TREES))
    def test_tree_shapes_match_path_reference(self, rng, shape, context_len):
        _check_every_path(TREES[shape], context_len, rng)

    def test_chain_tree_equals_causal_attention(self, rng):
        """Verifying a chain draft is ordinary causal prefill over the
        drafted tokens: the tree mask adds nothing to the causal mask."""
        context_len, parents = 9, TREES["chain"]
        inputs = _draft_inputs(len(parents), context_len, rng)
        tree = _run(make_tree_attention(parents, context_len), *inputs)
        np.testing.assert_allclose(tree, _run(VANILLA, *inputs), atol=1e-6)

    def test_two_trees_share_compiled_kernel(self):
        from repro.core import KernelTraits, get_kernel

        a = make_tree_attention([-1, 0], 4)
        b = make_tree_attention([-1, 0, 1], 8)
        # Same functor structure → same cached kernel; masks flow in as
        # parameters at plan time.
        assert get_kernel(a, KernelTraits(head_dim=16)) is get_kernel(
            b, KernelTraits(head_dim=16)
        )


class TestSMPartitioning:
    def test_sm_limit_shrinks_grid(self):
        mapping, _ = make_paged_mapping([1024] * 8, [1] * 8, 16)
        full = BatchAttentionWrapper(
            VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1
        )
        half = BatchAttentionWrapper(
            VANILLA, HEADS, WorkspaceBuffer(1 << 27), avg_qo_len=1, sm_limit=54
        )
        assert half.num_ctas == full.num_ctas // 2

    def test_fewer_sms_slow_compute_bound_prefill(self):
        # Compute-bound prefill scales with the SM share; memory-bound
        # decode would not (27 SMs can already saturate HBM).
        mapping, _ = make_paged_mapping([1024] * 8, [1024] * 8, 16)
        times = {}
        for limit in (108, 27):
            w = BatchAttentionWrapper(
                VANILLA, HeadConfig(8, 8, 64), WorkspaceBuffer(1 << 27),
                avg_qo_len=1024, sm_limit=limit,
            )
            w.plan(mapping)
            _, _, rep = w.run(None, compute=False)
            times[limit] = rep.makespan
        assert times[27] > 1.5 * times[108]

    def test_invalid_limit(self):
        with pytest.raises(ValueError, match="sm_limit"):
            BatchAttentionWrapper(
                VANILLA, HEADS, WorkspaceBuffer(1 << 20), sm_limit=0
            )
        with pytest.raises(ValueError, match="sm_limit"):
            BatchAttentionWrapper(
                VANILLA, HEADS, WorkspaceBuffer(1 << 20), sm_limit=10_000
            )
