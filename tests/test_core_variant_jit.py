"""Tests for variant specs, the kernel template and the JIT cache (§3.2.3)."""

import numpy as np
import pytest

import reference_kernels as ref
from conftest import fp16, make_paged_mapping, priced_kv_columns
from repro import BatchAttentionWrapper, WorkspaceBuffer, reference_attention
from repro.core import (
    AttentionVariant,
    HeadConfig,
    KernelTraits,
    ParamDecl,
    VANILLA,
    cache_info,
    compose_variants,
    get_kernel,
    plan_schedule,
    run_mapping,
)
from repro.core.jit import clear_cache
from repro.core.scheduler import (
    COL_GROUP, COL_KVHEAD, COL_KVSTART, COL_KVSTOP, COL_QROWS, COL_QSTART,
)
from repro.core.state import merge_states
from repro.core.template import render_kernel_source
from repro.utils.dtypes import StorageDType
from repro.variants import (
    make_attention_sink,
    make_flash_sigmoid,
    make_logits_softcap,
    make_sliding_window,
    make_tree_attention,
    tree_attention_mask,
)


class TestVariantValidation:
    def test_name_must_be_identifier(self):
        with pytest.raises(ValueError, match="identifier"):
            AttentionVariant(name="bad name")

    def test_param_name_identifier(self):
        with pytest.raises(ValueError, match="identifier"):
            ParamDecl("2bad")

    def test_duplicate_params(self):
        with pytest.raises(ValueError, match="duplicate"):
            AttentionVariant(name="v", params=(ParamDecl("a"), ParamDecl("a")))

    def test_bad_expression_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="logits_transform"):
            AttentionVariant(name="v", logits_transform="1 +")

    def test_statement_rejected(self):
        with pytest.raises(ValueError):
            AttentionVariant(name="v", logits_mask="x = 1")


class TestBindParams:
    def test_defaults(self):
        v = AttentionVariant(name="v", params=(ParamDecl("a", 2.0),))
        assert v.bind_params().a == 2.0

    def test_override(self):
        v = AttentionVariant(name="v", params=(ParamDecl("a", 2.0),))
        assert v.bind_params({"a": 5.0}).a == 5.0

    def test_missing_required(self):
        v = AttentionVariant(name="v", params=(ParamDecl("a"),))
        with pytest.raises(ValueError, match="not provided"):
            v.bind_params()

    def test_unknown_param(self):
        v = AttentionVariant(name="v")
        with pytest.raises(ValueError, match="unknown"):
            v.bind_params({"zzz": 1})


class TestTemplateSpecialization:
    def test_identity_functors_compiled_out(self):
        src = render_kernel_source("k", "v", None, None, None, None, None, True)
        assert "_query_transform" not in src
        assert "_logits_mask" not in src
        assert "np.where(keep, logits, -np.inf)" in src

    def test_declared_functors_inlined(self):
        src = render_kernel_source(
            "k", "v", "q * 2", None, None, "logits + 1", "q_pos >= kv_pos", True
        )
        assert "def _query_transform" in src
        assert "q * 2" in src
        assert "def _logits_mask" in src

    def test_vanilla_kernel_has_no_functor_hook_and_no_per_head_loop(self):
        """Undeclared functors cost nothing: the head axis is handled by
        batched array operations, and the head-by-head application exists
        only inside a declared Q/K/V transform's own line."""
        src = get_kernel(VANILLA, KernelTraits(head_dim=16)).source
        for hook in ("_query_transform", "_key_transform", "_value_transform",
                     "_logits_transform", "_logits_mask"):
            assert hook not in src
        assert "range(heads)" not in src and "enumerate(" not in src and "np.stack" not in src
        loops = [line.strip() for line in src.splitlines() if line.strip().startswith("for ")]
        assert loops == ["for t0 in range(0, kv_len, kv_tile):"]
        # The causal loop bound is computed once, ahead of the sweep.
        assert src.count("if causal") == 2
        assert src.index("if causal and rows:") < src.index("for t0")

    def test_per_head_loop_rendered_only_for_the_declared_transform(self):
        src = render_kernel_source("k", "v", None, "k * 2", None, "logits + 1", None, True)
        assert src.count("enumerate(kv_head.tolist())") == 1 and "range(heads)" not in src

    def test_no_softmax_epilogue(self):
        src = render_kernel_source("k", "v", None, None, None, None, None, False)
        assert "np.where(keep, logits, 0.0)" in src
        assert "np.log" not in src

    def test_source_compiles(self):
        src = render_kernel_source(
            "kern", "v", "q + 0", "k + 0", "v + 0", "logits", "q_pos >= kv_pos", True
        )
        compile(src, "<test>", "exec")


class TestJITCache:
    def test_cache_hit_same_spec(self):
        clear_cache()
        traits = KernelTraits(head_dim=16)
        k1 = get_kernel(VANILLA, traits)
        k2 = get_kernel(VANILLA, traits)
        assert k1 is k2
        assert cache_info()["cached"] == 1

    def test_cache_miss_different_traits(self):
        clear_cache()
        k1 = get_kernel(VANILLA, KernelTraits(head_dim=16))
        k2 = get_kernel(VANILLA, KernelTraits(head_dim=32))
        assert k1 is not k2
        assert cache_info()["cached"] == 2

    def test_cache_miss_different_variant(self):
        clear_cache()
        v = AttentionVariant(name="scaled", logits_transform="logits * 2.0")
        k1 = get_kernel(VANILLA, KernelTraits(head_dim=16))
        k2 = get_kernel(v, KernelTraits(head_dim=16))
        assert k1 is not k2

    def test_equivalent_specs_share_kernel(self):
        clear_cache()
        a = AttentionVariant(name="same", logits_transform="logits * 2.0")
        b = AttentionVariant(name="same", logits_transform="logits * 2.0")
        assert get_kernel(a, KernelTraits(head_dim=16)) is get_kernel(
            b, KernelTraits(head_dim=16)
        )

    def test_source_attached(self):
        k = get_kernel(VANILLA, KernelTraits(head_dim=16))
        assert "attention_kernel_vanilla" in k.source

    def test_output_transform_compiled(self):
        v = AttentionVariant(name="scaled_out", output_transform="o * 3.0")
        k = get_kernel(v, KernelTraits(head_dim=4))
        o = np.ones((2, 4))
        assert np.allclose(k.output_transform(o, np.arange(2), 0, None), 3.0)


class TestKernelTraits:
    def test_fa3_row_tile_constraint(self):
        with pytest.raises(ValueError, match="64"):
            KernelTraits(head_dim=16, q_tile=32, backend="fa3")

    def test_fa3_allows_decode_tile_1(self):
        KernelTraits(head_dim=16, q_tile=1, backend="fa3")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            KernelTraits(head_dim=16, backend="fa9")


class TestGeneratedKernelNumerics:
    def _run(self, variant, q, k, v, causal=True, kv_tile=7, sm_scale=0.25, params=None,
             q_pos=None):
        """One head through the ``(heads, rows, d)`` calling convention."""
        kern = get_kernel(variant, KernelTraits(head_dim=q.shape[1]))
        n_q, n_kv = q.shape[0], k.shape[0]
        o, lse = kern.fn(
            q[None], k[None], v[None],
            np.arange(n_kv - n_q, n_kv) if q_pos is None else q_pos, np.arange(n_kv),
            np.zeros((1, n_q), dtype=np.int64), np.zeros(1, dtype=np.int64),
            variant.bind_params(params), sm_scale, causal, kv_tile,
        )
        assert o.shape == (1, n_q, q.shape[1]) and lse.shape == (1, n_q)
        return o[0], lse[0]

    def test_matches_dense_softmax(self, rng):
        q = rng.standard_normal((5, 8))
        k = rng.standard_normal((12, 8))
        v = rng.standard_normal((12, 8))
        o, lse = self._run(VANILLA, q, k, v, causal=False)
        s = (q @ k.T) * 0.25
        p = np.exp(s - s.max(axis=1, keepdims=True))
        ref = (p / p.sum(axis=1, keepdims=True)) @ v
        assert np.allclose(o, ref)
        assert np.allclose(lse, np.log(np.exp(s).sum(axis=1)))

    def test_online_sweep_tile_size_invariant(self, rng):
        """The online softmax result must not depend on the KV tile size."""
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((29, 8))
        v = rng.standard_normal((29, 8))
        o1, lse1 = self._run(VANILLA, q, k, v, kv_tile=1)
        o2, lse2 = self._run(VANILLA, q, k, v, kv_tile=29)
        o3, lse3 = self._run(VANILLA, q, k, v, kv_tile=8)
        assert np.allclose(o1, o2) and np.allclose(o1, o3)
        assert np.allclose(lse1, lse2) and np.allclose(lse1, lse3)

    def test_causal_masks_future(self, rng):
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((4, 8))
        v = rng.standard_normal((4, 8))
        o, _ = self._run(VANILLA, q, k, v, causal=True)
        # Row 0 attends only position 0.
        assert np.allclose(o[0], v[0])

    def test_empty_kv_returns_identity_state(self, rng):
        q = rng.standard_normal((2, 8))
        o, lse = self._run(VANILLA, q, np.zeros((0, 8)), np.zeros((0, 8)), causal=False)
        assert np.allclose(o, 0.0)
        assert np.all(np.isneginf(lse))

    def test_fully_masked_rows_safe(self, rng):
        # Causal with queries placed before every key.
        q = rng.standard_normal((2, 4))
        k = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        o, lse = self._run(
            VANILLA, q, k, v, kv_tile=2, sm_scale=1.0, q_pos=np.array([-5, -4])
        )
        assert np.allclose(o, 0.0)
        assert np.all(np.isneginf(lse))
        assert not np.any(np.isnan(o))

    @pytest.mark.parametrize("use_softmax", [True, False])
    def test_causal_sweep_ends_with_the_last_tile_a_row_can_see(self, rng, use_softmax):
        """Rows at positions 3-5 over 29 keys, tiles of 4: tiles 0 and 1 are
        swept (position 7 is hidden but shares a tile with 4 and 5), tiles 2-7
        are never read — NaN there is invisible, NaN at 7 is not."""
        variant = VANILLA if use_softmax else AttentionVariant(name="linear", use_softmax=False)
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((29, 8))
        v = rng.standard_normal((29, 8))
        run = lambda k, v: self._run(  # noqa: E731
            variant, q, k, v, kv_tile=4, sm_scale=1.0, q_pos=np.array([3, 4, 5]))
        o, lse = run(k, v)
        s = np.where(np.arange(3, 6)[:, None] >= np.arange(29), q @ k.T, -np.inf)
        if use_softmax:
            p = np.exp(s - s.max(axis=1, keepdims=True))
            assert np.allclose(o, (p / p.sum(axis=1, keepdims=True)) @ v)
            assert np.allclose(lse, np.log(np.exp(s).sum(axis=1)))
        else:
            assert np.allclose(o, np.where(np.isneginf(s), 0.0, s) @ v)
        k2, v2 = k.copy(), v.copy()
        k2[8:], v2[8:] = np.nan, np.nan
        o2, lse2 = run(k2, v2)
        assert np.array_equal(o2, o) and np.array_equal(lse2, lse)
        v2[7] = np.nan
        assert np.isnan(run(k2, v2)[0]).all()

    @pytest.mark.parametrize("use_softmax", [True, False])
    def test_fully_hidden_chunk_is_the_identity_state_whatever_it_holds(self, use_softmax):
        """``processed = 0``: nothing is swept, ``o = 0`` and ``lse = -inf``
        (0 for a sum variant) — the identity of the merge."""

        variant = VANILLA if use_softmax else AttentionVariant(name="linear", use_softmax=False)
        nan = np.full((6, 4), np.nan)
        o, lse = self._run(variant, np.ones((2, 4)), nan, nan, kv_tile=2, q_pos=np.array([-5, -4]))
        assert np.array_equal(o, np.zeros((2, 4)))
        assert np.array_equal(lse, np.full(2, -np.inf if use_softmax else 0.0))
        if use_softmax:
            other = (np.arange(8.0).reshape(2, 4), np.array([0.5, -1.0]))
            merged = merge_states(*other, o, lse)
            assert np.array_equal(merged[0], other[0]) and np.array_equal(merged[1], other[1])

    def test_no_softmax_sum_semantics(self, rng):
        v_spec = AttentionVariant(name="linear", use_softmax=False)
        q = rng.standard_normal((3, 8))
        k = rng.standard_normal((9, 8))
        v = rng.standard_normal((9, 8))
        o, lse = self._run(v_spec, q, k, v, causal=False, sm_scale=1.0)
        assert np.allclose(o, (q @ k.T) @ v)
        assert np.allclose(lse, 0.0)


class TestFunctorContract:
    """What a user-written functor is handed, whatever the kernel batches."""

    def test_transforms_see_one_2d_tile_and_logits_functors_broadcast(self, rng):
        seen = {"query": [], "key": [], "value": [], "logits": [], "mask": []}

        def record(kind, tile, *rest):
            seen[kind].append(rest)
            return tile

        variant = AttentionVariant(
            name="recording",
            params=(ParamDecl("rec", default=record),),
            query_transform="params.rec('query', q, q.ndim, q_pos, head)",
            key_transform="params.rec('key', k, k.ndim, kv_pos, head)",
            value_transform="params.rec('value', v, v.ndim, kv_pos, head)",
            logits_transform="params.rec('logits', logits, q_pos, kv_pos, q_head, kv_head)",
            logits_mask="params.rec('mask', q_pos >= kv_pos, q_pos, kv_pos, q_head, kv_head)",
        )
        heads = HeadConfig(4, 2, 8)
        mapping, slots = make_paged_mapping([40, 9], [1, 9], 4)
        w = BatchAttentionWrapper(variant, heads, WorkspaceBuffer(1 << 24), avg_qo_len=4)
        w.plan(mapping)
        w.run(rng.standard_normal((10, 4, 8)), rng.standard_normal((slots, 2, 8)),
              rng.standard_normal((slots, 2, 8)))

        assert all(seen.values())
        for ndim, kv_pos, head in seen["key"] + seen["value"]:
            assert ndim == 2 and kv_pos.ndim == 1 and type(head) is int and head in (0, 1)
        for ndim, q_pos, head in seen["query"]:
            # Fused GQA rows: one position and one query head per row.
            assert ndim == 2 and q_pos.ndim == 1 and head.shape == q_pos.shape
            assert set((head // 2).tolist()) in ({0}, {1})
        for q_pos, kv_pos, q_head, kv_head in seen["logits"] + seen["mask"]:
            n_heads, rows = q_head.shape[:2]
            assert q_pos.shape == (rows, 1) and kv_pos.shape == (1, kv_pos.size)
            assert q_head.shape == (n_heads, rows, 1) and kv_head.shape == (n_heads, 1, 1)
            assert n_heads == 2 and np.array_equal(q_head // 2, kv_head + 0 * q_head)


    def test_logits_mask_sees_exactly_the_tiles_at_or_below_the_diagonal(self, rng):
        """One mask call per swept KV tile of a (query tile, KV chunk): their
        number is the cost model's ``Σ ⌈processed / kv_tile⌉`` and no call sees
        a tile that every row of the query tile is ahead of."""

        seen = []

        def record(keep, q_pos, kv_pos):
            seen.append((int(q_pos.max()), int(kv_pos.min()), kv_pos.size))
            return keep

        variant = AttentionVariant(
            name="recording_mask",
            params=(ParamDecl("rec", default=record),),
            logits_mask="params.rec(q_pos >= kv_pos, q_pos, kv_pos)",
        )
        mapping, slots = make_paged_mapping([300, 40, 7], [200, 40, 14], 4)
        w = BatchAttentionWrapper(variant, HeadConfig(4, 2, 8), WorkspaceBuffer(1 << 26),
                                  avg_qo_len=64)
        w.plan(mapping)
        # The split plan, whatever `_choose` picks: its chunks are
        # what puts hidden KV and many query tiles under the mask.
        args, kwargs = w._schedule_inputs(mapping)
        plan = plan_schedule(*args, **kwargs)
        w._write_plan(plan)
        w.run(rng.standard_normal((254, 4, 8)), rng.standard_normal((slots, 2, 8)),
              rng.standard_normal((slots, 2, 8)))

        one_head = plan.items[plan.items[:, COL_KVHEAD] == 0]
        processed = priced_kv_columns(mapping, one_head, w.kv_tile)
        # Hidden chunks and many query tiles, or the count proves nothing.
        assert (processed == 0).any() and len(np.unique(one_head[:, COL_QSTART])) > 3
        assert len(seen) == int(np.ceil(processed / w.kv_tile).sum())
        assert sum(n for _, _, n in seen) == int(processed.sum())
        assert all(kv_lo <= q_hi for q_hi, kv_lo, _ in seen)


class TestHiddenTilesAreSkipped:
    """A kernel with a ``logits_mask`` functor evaluates the mask before it
    loads a KV tile and skips the tile when no row can see a column of it.
    The skip is exact: ``out``, ``lse`` and both partial buffers equal the
    oracle's (``tests/reference_kernels.py`` sweeps every tile and masks),
    and the key transform runs on the tiles with a visible column only."""

    H_QO, H_KV, D, Q_TILE, KV_TILE = 4, 2, 8, 4, 8

    @staticmethod
    def _counting(mask_variant):
        """``mask_variant`` with a key transform that reports each tile."""

        counter = AttentionVariant(
            name="counting",
            params=(ParamDecl("seen"),),
            key_transform="params.seen(k, kv_pos, head)",
            use_softmax=mask_variant.use_softmax,
        )
        return compose_variants(f"counted_{mask_variant.name}", mask_variant, counter)

    def _run_both(self, mask_variant, groups, visible, causal=True, num_ctas=64):
        """Run the plan through ``run_mapping`` and through the oracle;
        ``visible(q_pos, kv_pos)`` is the dense mask the variant declares.
        Returns ``(plan, buffers, number of tiles with a visible column)``."""

        heads = HeadConfig(self.H_QO, self.H_KV, self.D)
        qo, kv = (list(col) for col in zip(*groups))
        mapping, slots = make_paged_mapping(kv, qo, page_size=4, causal=causal)
        plan = plan_schedule(
            qo, kv, self.Q_TILE, num_ctas, num_kv_heads=self.H_KV, min_kv_chunk=8,
            chunk_granularity=self.KV_TILE, causal=causal,
        )
        rng = np.random.default_rng(5)
        q = rng.standard_normal((sum(qo), self.H_QO, self.D))
        k_pool, v_pool = rng.standard_normal((2, slots, self.H_KV, self.D)).astype(np.float32)
        variant = self._counting(mask_variant)
        n_slots, rows_eff = max(plan.num_partial_slots, 1), self.Q_TILE * heads.group_size

        def run(execute, kernel):
            # Stale partials: a hidden split chunk must still write its slot.
            bufs = (
                np.zeros((sum(qo), self.H_QO, self.D)), np.full((sum(qo), self.H_QO), -np.inf),
                np.full((n_slots, rows_eff, self.D), 7.0, dtype=np.float32),
                np.full((n_slots, rows_eff), 3.0, dtype=np.float32),
            )
            tiles = []
            params = variant.bind_params({"seen": lambda k, kv_pos, head: tiles.append(1) or k})
            execute(q, k_pool, v_pool, mapping, plan, kernel, heads, params, 0.3,
                    self.KV_TILE, *bufs)
            return bufs, len(tiles)

        kernel = get_kernel(variant, KernelTraits(head_dim=self.D, q_tile=4, kv_tile=self.KV_TILE))
        new, transformed = run(run_mapping, kernel)
        old, swept = run(ref.reference_run_mapping, variant)
        for name, a, b in zip(("out", "lse", "partial_o", "partial_lse"), new, old):
            assert np.array_equal(a, b), name

        with_a_visible_column = tiles_visited = 0
        for row in plan.items:
            first = mapping.qo_indptr[row[COL_GROUP]] + row[COL_QSTART]
            q_pos = mapping.q_pos[first : first + row[COL_QROWS]][:, None]
            for t0 in range(row[COL_KVSTART], row[COL_KVSTOP], self.KV_TILE):
                kv_pos = np.arange(t0, min(t0 + self.KV_TILE, row[COL_KVSTOP]))[None, :]
                seen = visible(q_pos, kv_pos)
                if causal:
                    seen = seen & (q_pos >= kv_pos)
                with_a_visible_column += bool(seen.any())
                tiles_visited += 1
        assert transformed == with_a_visible_column
        assert swept == tiles_visited
        return plan, new, with_a_visible_column, tiles_visited

    @pytest.mark.parametrize("times_the_window", [4, 16])
    def test_sliding_window_over_a_multiple_of_the_window(self, times_the_window):
        window = 8
        plan, (out, lse, _, _), seen, visited = self._run_both(
            make_sliding_window(window),
            [(1, window * times_the_window), (6, window * times_the_window), (1, 5)],
            lambda q_pos, kv_pos: (q_pos - kv_pos) < window,
        )
        assert len(plan.merge_meta)  # the long KVs split: whole chunks are hidden
        assert seen < visited / 2
        assert np.isfinite(lse).all() and np.abs(out).min() > 0

    def test_attention_sinks_keep_the_first_and_the_last_tiles(self):
        _, (out, lse, _, _), seen, visited = self._run_both(
            make_attention_sink(2, 6), [(1, 96), (3, 64)],
            lambda q_pos, kv_pos: (kv_pos < 2) | ((q_pos - kv_pos) < 6),
        )
        assert seen < visited / 2
        assert np.isfinite(lse).all()

    def test_tree_mask_hides_the_other_branch(self):
        # Two chains of 12 draft tokens over a 16-token context: branch B
        # (nodes 12-23) sees the context and itself, never branch A's tiles.
        parents = [-1, *range(11), -1, *range(12, 23)]
        mask = tree_attention_mask(parents, 16)
        _, (_, lse, _, _), seen, visited = self._run_both(
            make_tree_attention(parents, 16), [(24, 40)],
            lambda q_pos, kv_pos: mask[q_pos - 16, kv_pos], causal=False,
        )
        assert seen < visited
        assert np.isfinite(lse).all()

    @pytest.mark.parametrize("use_softmax", [True, False])
    def test_a_mask_that_hides_everything(self, use_softmax):
        variant = AttentionVariant(
            name="blind", logits_mask="(q_pos < 0) & (kv_pos < 0)", use_softmax=use_softmax
        )
        plan, (out, lse, _, partial_lse), seen, _ = self._run_both(
            variant, [(1, 64), (5, 20)], lambda q_pos, kv_pos: (q_pos < 0) & (kv_pos < 0),
        )
        assert seen == 0 and len(plan.merge_meta)
        assert np.array_equal(out, np.zeros_like(out))
        assert np.array_equal(lse, np.full_like(lse, -np.inf if use_softmax else 0.0))
        written = partial_lse[: plan.num_partial_slots, : self.H_QO // self.H_KV]
        assert np.array_equal(written, np.full_like(written, -np.inf if use_softmax else 0.0))

    def test_sum_variant_under_a_window(self):
        variant = AttentionVariant(
            name="linear_window", logits_mask="(q_pos - kv_pos) < 8", use_softmax=False
        )
        _, (out, _, _, _), seen, visited = self._run_both(
            variant, [(1, 96), (6, 40)], lambda q_pos, kv_pos: (q_pos - kv_pos) < 8,
        )
        assert seen < visited / 2 and np.abs(out).min() > 0

    def test_the_test_is_rendered_only_with_a_mask_functor(self):
        traits = KernelTraits(head_dim=16)
        assert "keep.any()" in get_kernel(make_sliding_window(4), traits).source
        for unmasked in (VANILLA, make_logits_softcap(3.0)):
            assert "keep.any()" not in get_kernel(unmasked, traits).source


class TestComposeVariants:
    def test_masks_and_together(self, rng):
        a = make_sliding_window(8)
        b = AttentionVariant(name="even_only", logits_mask="(kv_pos % 2) == 0")
        c = compose_variants("win_even", a, b)
        kern = get_kernel(c, KernelTraits(head_dim=8))
        q = rng.standard_normal((1, 8))
        k = rng.standard_normal((16, 8))
        v = rng.standard_normal((16, 8))
        o, _ = kern.fn(
            q[None], k[None], v[None], np.array([15]), np.arange(16),
            np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64),
            c.bind_params(), 1.0, True, 16,
        )
        o = o[0]
        # Reference: window of 8 AND even positions.
        keep = ((15 - np.arange(16)) < 8) & (np.arange(16) % 2 == 0)
        s = np.where(keep, q @ k.T, -np.inf)[0]
        p = np.exp(s - s.max())
        ref = (p / p.sum()) @ v
        np.testing.assert_allclose(o[0], ref, atol=1e-10)

    def test_transform_plus_mask(self, rng):
        c = compose_variants("cap_win", make_logits_softcap(5.0), make_sliding_window(4))
        assert c.logits_transform is not None
        assert c.logits_mask is not None
        assert len(c.params) == 2

    def test_functor_collision_rejected(self):
        with pytest.raises(ValueError, match="use_softmax"):
            compose_variants("x", make_logits_softcap(5.0), make_flash_sigmoid())
        a = AttentionVariant(name="a", logits_transform="logits * 2")
        b = AttentionVariant(name="b", logits_transform="logits + 1")
        with pytest.raises(ValueError, match="logits_transform"):
            compose_variants("x", a, b)

    def test_param_collision_rejected(self):
        a = AttentionVariant(name="a", params=(ParamDecl("w", 1.0),))
        b = AttentionVariant(name="b", params=(ParamDecl("w", 2.0),))
        with pytest.raises(ValueError, match="collision"):
            compose_variants("x", a, b)

    def test_gemma2_style_combo(self, rng):
        """Gemma-2 layers use soft-cap together with sliding windows."""

        c = compose_variants("gemma2", make_logits_softcap(30.0), make_sliding_window(16))
        heads = HeadConfig(4, 2, 16)
        mapping, slots = make_paged_mapping([48], [48], 8)
        q = rng.standard_normal((48, 4, 16))
        kp = rng.standard_normal((slots, 2, 16))
        vp = rng.standard_normal((slots, 2, 16))
        w = BatchAttentionWrapper(c, heads, WorkspaceBuffer(1 << 26), avg_qo_len=48)
        w.plan(mapping)
        out, _, _ = w.run(q, kp, vp)

        k, v = fp16(kp[:48]), fp16(vp[:48])
        pos = np.arange(48)
        sm = 1 / np.sqrt(16)
        ref = np.zeros_like(q)
        for h in range(4):
            s = 30 * np.tanh((q[:, h] @ k[:, h // 2].T) * sm / 30)
            keep = (pos[:, None] >= pos[None, :]) & ((pos[:, None] - pos[None, :]) < 16)
            s = np.where(keep, s, -np.inf)
            m = s.max(axis=1, keepdims=True)
            p = np.exp(s - m)
            ref[:, h] = (p / p.sum(axis=1, keepdims=True)) @ v[:, h // 2]
        np.testing.assert_allclose(out, ref, atol=1e-8)


class TestTheKernelWritesOnlyItsOwnArrays:
    """The sweep updates its running state in place: nothing a functor
    returns — its own input, a read-only view — nor any bound parameter or
    operand is written."""

    @pytest.mark.parametrize("expr", ["logits", "np.broadcast_to(logits, logits.shape)"])
    def test_a_logits_functor_returning_its_input_or_a_read_only_view(self, rng, expr):
        variant = AttentionVariant(name="identity_logits", logits_transform=expr)
        heads = HeadConfig(4, 2, 16)
        mapping, slots = make_paged_mapping([40, 12], [9, 1], 4)
        q = rng.standard_normal((10, 4, 16))
        kp, vp = rng.standard_normal((2, slots, 2, 16))
        w = BatchAttentionWrapper(variant, heads, WorkspaceBuffer(1 << 24), avg_qo_len=5)
        w.plan(mapping)
        out, _, _ = w.run(q, kp, vp)
        for rows, kv in ((slice(0, 9), slice(0, 40)), (slice(9, 10), slice(40, 52))):
            want = reference_attention(q[rows], fp16(kp[kv]), fp16(vp[kv]), causal=True)
            np.testing.assert_allclose(out[rows], want, atol=1e-6)

    def test_bound_parameters_and_operands_are_unchanged_by_a_run(self):
        """Every variant of the equivalence suite, over a float16 pool read
        at fp8, with a split chunk."""
        from test_kernels_equivalence import VARIANTS, _problem, _run_new

        for name, (variant, _) in sorted(VARIANTS.items()):
            p = _problem([(9, 40), (14, 75)], name, StorageDType.FP8_E4M3, True, True, 64, 0)
            for pool in ("k_pool", "v_pool"):
                p[pool] = p[pool].astype(np.float16)
            arrays = {k: a for k, a in vars(variant.bind_params()).items()
                      if isinstance(a, np.ndarray)}
            arrays.update(q=p["q"], k_pool=p["k_pool"], v_pool=p["v_pool"])
            before = {k: a.tobytes() for k, a in arrays.items()}
            _run_new(p)
            assert {k: a.tobytes() for k, a in arrays.items()} == before, name


class TestJITThreadSafety:
    def test_concurrent_compilation_single_kernel(self):
        """Racing get_kernel calls must all return the same cached object."""
        import threading

        clear_cache()
        v = AttentionVariant(name="race", logits_transform="logits * 1.5")
        traits = KernelTraits(head_dim=16)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(get_kernel(v, traits))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        assert cache_info()["cached"] == 1
