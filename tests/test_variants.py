"""Tests for the variants library against independent references (§3.2.3)."""

import numpy as np
import pytest

from conftest import fp16, make_paged_mapping, make_shared_prefix_mapping
from repro import BatchAttentionWrapper, ComposableAttentionWrapper, WorkspaceBuffer
from repro.core import AttentionVariant, HeadConfig, ParamDecl, compose_variants
from repro.baselines import unfused_rope_attention
from repro.gpu import H100_80G
from repro.sparse import PrefixCluster, decompose_multi_level
from repro.variants import (
    alibi_slopes,
    apply_rope,
    FUSED_ROPE,
    make_alibi,
    make_attention_sink,
    make_custom_mask,
    make_flash_sigmoid,
    make_fused_rope,
    make_logits_softcap,
    make_sliding_window,
)

HEADS = HeadConfig(4, 4, 16)


def run_variant(variant, rng, kv_len=48, qo_len=48, params=None, heads=HEADS,
                causal=True, page_size=8):
    mapping, slots = make_paged_mapping([kv_len], [qo_len], page_size, causal)
    q = rng.standard_normal((qo_len, heads.num_qo_heads, heads.head_dim))
    kp = rng.standard_normal((slots, heads.num_kv_heads, heads.head_dim))
    vp = rng.standard_normal((slots, heads.num_kv_heads, heads.head_dim))
    ws = WorkspaceBuffer(1 << 26)
    w = BatchAttentionWrapper(variant, heads, ws, avg_qo_len=qo_len)
    w.plan(mapping, params=params)
    out, _, _ = w.run(q, kp, vp)
    return q, fp16(kp[:kv_len]), fp16(vp[:kv_len]), out


def dense_reference(q, k, v, transform=None, mask_fn=None, qx=None, kx=None,
                    softmax=True, causal=True):
    n_q, H, d = q.shape
    n_kv = k.shape[0]
    sm = 1 / np.sqrt(d)
    q_pos = np.arange(n_kv - n_q, n_kv)
    kv_pos = np.arange(n_kv)
    out = np.zeros_like(q)
    for h in range(H):
        qq = q[:, h] if qx is None else qx(q[:, h], q_pos)
        kk = k[:, h] if kx is None else kx(k[:, h], kv_pos)
        s = (qq @ kk.T) * sm
        if transform is not None:
            s = transform(s, h, q_pos, kv_pos)
        keep = np.ones((n_q, n_kv), dtype=bool)
        if causal:
            keep &= q_pos[:, None] >= kv_pos[None, :]
        if mask_fn is not None:
            keep &= mask_fn(q_pos[:, None], kv_pos[None, :])
        if softmax:
            s = np.where(keep, s, -np.inf)
            m = np.max(s, axis=1, keepdims=True)
            m = np.where(np.isneginf(m), 0.0, m)
            p = np.exp(s - m)
            denom = p.sum(axis=1, keepdims=True)
            denom = np.where(denom == 0, 1.0, denom)
            out[:, h] = (p / denom) @ v[:, h]
        else:
            out[:, h] = np.where(keep, s, 0.0) @ v[:, h]
    return out


def window(w):  # a w-token sliding window and its dense reference's keyword arguments
    return make_sliding_window(w), dict(mask_fn=lambda qp, kp: (qp - kp) < w)


class TestSlidingWindow:
    def test_matches_reference(self, rng):
        q, k, v, out = run_variant(make_sliding_window(12), rng)
        ref = dense_reference(q, k, v, mask_fn=lambda qp, kp: (qp - kp) < 12)
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_window_1_is_self_attention(self, rng):
        q, k, v, out = run_variant(make_sliding_window(1), rng, kv_len=16, qo_len=16)
        np.testing.assert_allclose(out, v, atol=1e-8)

    def test_survives_kv_chunking(self, rng):
        # Long KV forces split chunks; window mask must stay consistent.
        q, k, v, out = run_variant(make_sliding_window(64), rng, kv_len=3000, qo_len=1,
                                   heads=HeadConfig(2, 2, 16))
        ref = dense_reference(q, k, v, mask_fn=lambda qp, kp: (qp - kp) < 64)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            make_sliding_window(0)


class TestWindowPlansOnlyVisibleKV:
    """The window is the variant's ``look_back`` bound: the wrapper drops the
    leading KV pages no query row can see before Algorithm 1, the cost model
    and the gather see them."""

    def _swa_softcap_rope(self):  # the benchmark's ``decode_jit`` variant
        return compose_variants(
            "swa_softcap_rope",
            compose_variants("swa_softcap", make_sliding_window(512), make_logits_softcap(30.0)),
            make_fused_rope(),
        )

    def _planned(self, variant, kv_len, params=None):
        mapping, _ = make_paged_mapping([kv_len], [1], page_size=16)
        w = BatchAttentionWrapper(variant, HeadConfig(32, 8, 128), WorkspaceBuffer(1 << 27),
                                  H100_80G, avg_qo_len=1.0)
        w.plan(mapping, params=params)
        return w

    def test_decode_cost_is_flat_past_the_window(self):
        makespans = []
        for kv_len in (512, 2048, 8192):
            w = self._planned(self._swa_softcap_rope(), kv_len)
            assert w._mapping.kv.kv_lens.tolist() == [512]
            makespans.append(w.run(None, compute=False)[2].makespan)
        assert makespans[0] == makespans[1] == makespans[2]

    @pytest.mark.parametrize("kv_len", [512, 2048, 8192])
    def test_matches_the_dense_oracle(self, rng, kv_len):
        q, k, v, out = run_variant(self._swa_softcap_rope(), rng, kv_len=kv_len, qo_len=1,
                                   page_size=16)
        ref = dense_reference(
            q, k, v, transform=lambda s, h, qp, kp: 30.0 * np.tanh(s / 30.0),
            mask_fn=lambda qp, kp: (qp - kp) < 512, qx=apply_rope, kx=apply_rope,
        )
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_the_bound_is_the_planned_value(self):
        w = self._planned(self._swa_softcap_rope(), 2048, params={"window": 256})
        assert w._mapping.kv.kv_lens.tolist() == [256]
        assert w._mapping.block_pos.tolist() == list(range(1792, 2048, 16))
        # Whole pages only: the page holding the window's first position stays.
        partial = self._planned(self._swa_softcap_rope(), 2050)
        assert partial._mapping.kv.kv_lens.tolist() == [514]

    def test_attention_sink_declares_no_bound(self, rng):
        sink = make_attention_sink(4, 64)
        assert sink.look_back is None
        q, k, v, out = run_variant(sink, rng, kv_len=1000, qo_len=1,
                                   heads=HeadConfig(2, 2, 16), page_size=16)
        ref = dense_reference(q, k, v, mask_fn=lambda qp, kp: (kp < 4) | ((qp - kp) < 64))
        np.testing.assert_allclose(out, ref, atol=1e-6)
        windowed = dense_reference(q, k, v, mask_fn=lambda qp, kp: (qp - kp) < 64)
        assert np.abs(out - windowed).max() > 1e-3  # the sinks are attended

    def test_composing_a_window_keeps_its_bound(self, rng):
        even = AttentionVariant(name="even_only", logits_mask="(kv_pos % 2) == 0")
        for composed in (compose_variants("win_even", make_sliding_window(64), even),
                         compose_variants("even_win", even, make_sliding_window(64))):
            assert composed.look_back == "window"
            q, k, v, out = run_variant(composed, rng, kv_len=1000, qo_len=1,
                                       heads=HeadConfig(2, 2, 16), page_size=16)
            ref = dense_reference(
                q, k, v, mask_fn=lambda qp, kp: ((qp - kp) < 64) & ((kp % 2) == 0)
            )
            np.testing.assert_allclose(out, ref, atol=1e-6)
        other = AttentionVariant(name="other", params=(ParamDecl("w", 4),),
                                 logits_mask="(q_pos - kv_pos) < params.w", look_back="w")
        with pytest.raises(ValueError, match="look_back"):
            compose_variants("two_windows", make_sliding_window(8), other)
        with pytest.raises(ValueError, match="look_back"):
            AttentionVariant(name="unbound", look_back="window")

    @pytest.mark.parametrize("variant, ref, qo_per_stream, suffixes, prefixes, kept", [
        (*window(128), 1, 200, [256], [0, 0]),
        (*window(300), 1, 200, [256], [112, 112]),
        (make_fused_rope(), dict(qx=apply_rope, kx=apply_rope), 1, 200, [256], None),
        (make_alibi(alibi_slopes(4)), dict(transform=lambda s, h, qp, kp: s + alibi_slopes(4)[h]
                                           * (kp[None, :] - qp[:, None])), 1, 200, [256], None),
        (*window(300), 3, [200, 150, 100], [256], [208, 208]),
        (*window(300), 1, 200, [128, 256], [0, 0]),
    ], ids=["window-128", "window-300", "rope", "alibi", "window-300-chunk-rows",
            "window-300-two-levels"])
    def test_cascade_against_dense(self, rng, variant, ref, qo_per_stream, suffixes, prefixes,
                                   kept):
        """A position-dependent variant run as a cascade over two clusters
        of three members sharing a 256-token prefix, peeled in one level or
        two, equals the dense reference: each row of a prefix format carries
        its own position.  A window trims the pages hidden from a prefix
        group's lowest row, the last member's when the suffixes shrink
        (``kept``, the first format's KV: a 128-token window leaves none)."""
        mapping, slots, clusters = make_shared_prefix_mapping(2, 3, 256, suffixes, qo_per_stream)
        stack = decompose_multi_level(
            mapping, [[PrefixCluster(c.requests, n) for c in clusters] for n in prefixes])
        assert len(stack) == len(prefixes) + 1
        q = rng.standard_normal((mapping.total_qo, 4, 16))
        kp = rng.standard_normal((slots, 4, 16))
        vp = rng.standard_normal((slots, 4, 16))
        cw = ComposableAttentionWrapper(variant, HEADS, WorkspaceBuffer(1 << 27))
        cw.plan(stack)
        out, _ = cw.run(q, kp, vp)
        for r in range(mapping.num_groups):
            at, rows = mapping.kv.slot_indices(r), slice(*mapping.qo_indptr[r:r + 2])
            np.testing.assert_allclose(
                out[rows], dense_reference(q[rows], fp16(kp[at]), fp16(vp[at]), **ref), atol=1e-6)
        if kept is not None:
            assert cw.wrappers[0]._mapping.kv.kv_lens.tolist() == kept


class TestSoftcap:
    def test_matches_reference(self, rng):
        q, k, v, out = run_variant(make_logits_softcap(5.0), rng)
        ref = dense_reference(q, k, v, transform=lambda s, h, qp, kp: 5 * np.tanh(s / 5))
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            make_logits_softcap(-1.0)


class TestALiBi:
    def test_matches_reference(self, rng):
        slopes = alibi_slopes(4)
        q, k, v, out = run_variant(make_alibi(slopes), rng)
        ref = dense_reference(
            q, k, v,
            transform=lambda s, h, qp, kp: s + slopes[h] * (kp[None, :] - qp[:, None]),
        )
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_slope_schedule(self):
        s = alibi_slopes(8)
        assert s[0] == pytest.approx(2.0 ** -1)
        assert s[-1] == pytest.approx(2.0 ** -8)


class TestFlashSigmoid:
    def test_matches_reference(self, rng):
        q, k, v, out = run_variant(make_flash_sigmoid(scale=0.5, bias=-1.0), rng)
        ref = dense_reference(
            q, k, v,
            transform=lambda s, h, qp, kp: 1 / (1 + np.exp(-(s * 0.5 - 1.0))),
            softmax=False,
        )
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_sum_composition_across_chunks(self, rng):
        q, k, v, out = run_variant(make_flash_sigmoid(), rng, kv_len=3000, qo_len=1,
                                   heads=HeadConfig(2, 2, 16))
        ref = dense_reference(
            q, k, v,
            transform=lambda s, h, qp, kp: 1 / (1 + np.exp(-s)),
            softmax=False,
        )
        np.testing.assert_allclose(out, ref, atol=1e-3, rtol=1e-4)


class TestCustomMask:
    def test_matches_reference(self, rng):
        mask = rng.random((48, 48)) > 0.4
        q, k, v, out = run_variant(make_custom_mask(mask), rng)
        ref = dense_reference(q, k, v, mask_fn=lambda qp, kp: mask[qp, kp])
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_tree_attention_mask(self, rng):
        """Speculative tree decoding: each node attends its ancestors."""
        # Chain 0-1-2 and a branch 0-3: node 3 must not see 1 or 2.
        n = 4
        mask = np.zeros((n, n), dtype=bool)
        parents = {1: 0, 2: 1, 3: 0}
        for i in range(n):
            mask[i, i] = True
            p = parents.get(i)
            while p is not None:
                mask[i, p] = True
                p = parents.get(p)
        q, k, v, out = run_variant(
            make_custom_mask(mask), rng, kv_len=n, qo_len=n, causal=False, page_size=2
        )
        ref = dense_reference(q, k, v, mask_fn=lambda qp, kp: mask[qp, kp], causal=False)
        np.testing.assert_allclose(out, ref, atol=1e-8)


class TestAttentionSink:
    def test_matches_reference(self, rng):
        q, k, v, out = run_variant(make_attention_sink(4, 8), rng)
        ref = dense_reference(
            q, k, v, mask_fn=lambda qp, kp: (kp < 4) | ((qp - kp) < 8)
        )
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_attention_sink(-1, 8)
        with pytest.raises(ValueError):
            make_attention_sink(2, 0)


class TestFusedRoPE:
    def test_rope_rotation_properties(self, rng):
        x = rng.standard_normal((5, 16))
        r = apply_rope(x, np.arange(5))
        # Rotation preserves norms.
        np.testing.assert_allclose(
            np.linalg.norm(r, axis=1), np.linalg.norm(x, axis=1)
        )
        # Position 0 is the identity.
        np.testing.assert_allclose(apply_rope(x, np.zeros(5)), x)

    def test_rope_relative_property(self, rng):
        """⟨rope(q,m), rope(k,n)⟩ depends only on m−n."""
        q = rng.standard_normal((1, 16))
        k = rng.standard_normal((1, 16))
        a = apply_rope(q, np.array([7]))[0] @ apply_rope(k, np.array([3]))[0]
        b = apply_rope(q, np.array([14]))[0] @ apply_rope(k, np.array([10]))[0]
        assert a == pytest.approx(b)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            apply_rope(np.zeros((1, 5)), np.zeros(1))

    @pytest.mark.parametrize("theta", [10000.0, 500.0], ids=["default-theta", "custom-theta"])
    def test_fused_matches_unfused_oracle(self, rng, theta):
        variant = FUSED_ROPE if theta == 10000.0 else make_fused_rope(theta=theta)
        q, k, v, out = run_variant(variant, rng)
        ref = unfused_rope_attention(
            q, k, v, np.arange(48), np.arange(48), causal=True, rope_theta=theta
        )
        np.testing.assert_allclose(out, ref, atol=1e-8)

    def test_fused_rope_decode_with_chunking(self, rng):
        q, k, v, out = run_variant(FUSED_ROPE, rng, kv_len=2500, qo_len=1,
                                   heads=HeadConfig(2, 2, 16))
        ref = unfused_rope_attention(
            q, k, v, np.array([2499]), np.arange(2500), causal=True
        )
        np.testing.assert_allclose(out, ref, atol=1e-5)


def _rope_inline(x, pos, theta):
    """``apply_rope`` as it was before the angle table was memoised."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    half = d // 2
    freqs = theta ** (-np.arange(half, dtype=np.float64) * 2.0 / d)
    ang = np.asarray(pos, dtype=np.float64)[:, None] * freqs[None, :]
    cos, sin = np.cos(ang), np.sin(ang)
    xr = x.reshape(n, half, 2)
    out = np.empty_like(xr)
    out[..., 0] = xr[..., 0] * cos - xr[..., 1] * sin
    out[..., 1] = xr[..., 0] * sin + xr[..., 1] * cos
    return out.reshape(n, d)


class TestRoPEAngleMemo:
    """The ``(cos, sin)`` table is memoised per position vector — the heads of
    a KV tile share it — and every value is the inline formula's bit for bit."""

    POSITIONS = {
        "int64": np.arange(40, 104),
        "float64": np.arange(64, dtype=np.float64),
        "negative": np.arange(-70, -6),
        "non_integer": np.linspace(0.25, 97.5, 64),
        "large": (1 << 20) + np.arange(64),
        "non_contiguous": np.arange(128)[::2],
        "int32": np.arange(64, dtype=np.int32),
    }

    @pytest.mark.parametrize("theta", [10000.0, 500.0])
    @pytest.mark.parametrize("d", [2, 64, 128])
    @pytest.mark.parametrize("kind", sorted(POSITIONS))
    def test_bitwise_equal_to_the_inline_formula(self, rng, kind, d, theta):
        pos = self.POSITIONS[kind]
        x = rng.standard_normal((pos.size, d))
        for _ in range(2):  # the miss, then the hit
            assert np.array_equal(apply_rope(x, pos, theta), _rope_inline(x, pos, theta))

    def test_heads_of_a_tile_share_one_table(self, rng):
        from repro.variants.rope import _angle_table

        _angle_table.cache_clear()
        pos = np.arange(300, 364)
        for _ in range(8):
            apply_rope(rng.standard_normal((64, 16)), pos)
        info = _angle_table.cache_info()
        assert (info.misses, info.hits) == (1, 7)

    def test_cached_tables_are_read_only(self):
        from repro.variants.rope import _angle_table

        for table in _angle_table(np.arange(4.0).tobytes(), 8, 10000.0):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 2.0

    def test_cache_is_bounded(self, rng):
        from repro.variants.rope import _angle_table

        x = rng.standard_normal((3, 4))
        for start in range(1000):
            apply_rope(x, np.arange(start, start + 3))
        assert _angle_table.cache_info().currsize <= 64

    def test_thetas_and_head_dims_do_not_collide(self, rng):
        pos = np.arange(16)
        x = rng.standard_normal((16, 8))
        a, b = apply_rope(x, pos, 10000.0), apply_rope(x, pos, 500.0)
        assert not np.array_equal(a, b)
        assert np.array_equal(apply_rope(x, pos, 10000.0), a)
        wide = rng.standard_normal((16, 16))
        assert np.array_equal(apply_rope(wide, pos), _rope_inline(wide, pos, 10000.0))
