"""The tile-batched numerics must reproduce the per-work-item path bit for bit.

``tests/reference_kernels.py`` holds the numeric path as it was before
``run_mapping`` executed by tile: the 2-D kernel template, one gather, one
storage rounding and one JIT call per ``(tile, chunk, KV head)``, CTA queue by
CTA queue, every KV tile of a chunk swept and the hidden ones masked, the
``log2``/``floor`` fp8 quantiser and ``astype`` as the fp16 rounding.  ``out``,
``lse`` and both workspace partials must be identical — not close: nothing in
the batched path (the head axis of the GEMMs, the stacked ``⊕`` fold, executing
KV-chunk-major instead of by CTA, ending the causal sweep at the last tile a
row can see, rounding fp16 on the bit view) is allowed to change an
operation's operands or order.  Hypothesis runs derandomized, so tier-1 sees a
fixed sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from conftest import make_paged_mapping
from repro import BatchAttentionWrapper, WorkspaceBuffer
from repro.core import (
    VANILLA,
    HeadConfig,
    KernelTraits,
    MergeEntry,
    SchedulePlan,
    WorkItem,
    compose_variants,
    get_kernel,
    plan_schedule,
    run_mapping,
)
from repro.utils.dtypes import StorageDType, quantize_fp8, round_to_storage
from repro.variants import (
    alibi_slopes,
    make_alibi,
    make_attention_sink,
    make_flash_sigmoid,
    make_fp8_variant,
    make_fused_kv_projection,
    make_fused_rope,
    make_logits_softcap,
    make_qk_norm,
    make_sliding_window,
)

FIXED = settings(max_examples=60, deadline=None, derandomize=True)

H_QO, H_KV, D, D_LATENT = 4, 2, 8, 6
HEADS = HeadConfig(H_QO, H_KV, D)
KV_TILE = 8
_W = np.random.default_rng(7).standard_normal((2, H_KV, D_LATENT, D))

#: name -> (variant, last dim of the KV pools)
VARIANTS = {
    "vanilla": (VANILLA, D),
    "alibi": (make_alibi(alibi_slopes(H_QO)), D),
    "sliding_window": (make_sliding_window(9), D),
    "attention_sink": (make_attention_sink(2, 6), D),
    "softcap": (make_logits_softcap(3.0), D),
    "fused_rope": (make_fused_rope(), D),
    "fp8_scales": (make_fp8_variant(np.array([0.5, 1.75]), np.array([1.25, 0.75])), D),
    "mla_up_projection": (make_fused_kv_projection(_W[0], _W[1]), D_LATENT),
    "qk_norm": (make_qk_norm(), D),
    "sigmoid": (make_flash_sigmoid(0.5, -0.25), D),
    "window_softcap_rope": (
        compose_variants(
            "swa_cap_rope",
            compose_variants("swa_cap", make_sliding_window(9), make_logits_softcap(3.0)),
            make_fused_rope(),
        ),
        D,
    ),
}

#: Ragged groups ``(qo_len, kv_len)``: zero-length groups, decode rows,
#: prefill long enough for several query tiles of 4 rows and groups with more
#: queries than KV (their first rows see nothing) — and in every example one
#: group of four query tiles over a KV long enough to split, so that several
#: query tiles share one gathered chunk and, under ``causal``, the early ones
#: end their sweep before it does.
GROUPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([0, 1, 1, 3, 9, 14]), st.sampled_from([0, 1, 7, 23, 40, 75])),
        st.sampled_from([(14, 7), (9, 3), (3, 1), (14, 9)]),
    ),
    min_size=1, max_size=4,
).map(lambda groups: groups + [(14, 75)])


def _problem(groups, variant_name, kv_dtype, causal, fuse, num_ctas, seed):
    """A mapping, its plan, tensors and kernel arguments for one example."""
    variant, d_kv = VARIANTS[variant_name]
    qo, kv = (list(col) for col in zip(*groups))
    mapping, slots = make_paged_mapping(kv, qo, page_size=4, causal=causal)
    g_eff = HEADS.group_size if fuse else 1
    sched_q_tile = 4
    # Many CTAs and an 8-token minimum chunk: long KVs split and merge.
    plan = plan_schedule(
        qo, kv, sched_q_tile, num_ctas,
        num_kv_heads=H_KV if fuse else H_QO, min_kv_chunk=8,
        chunk_granularity=KV_TILE, causal=causal,
    )
    rng = np.random.default_rng(seed)
    return dict(
        variant=variant, mapping=mapping, plan=plan, fuse=fuse, kv_dtype=kv_dtype,
        q=rng.standard_normal((sum(qo), H_QO, D)),
        k_pool=(3.0 * rng.standard_normal((slots, H_KV, d_kv))).astype(np.float32),
        v_pool=(3.0 * rng.standard_normal((slots, H_KV, d_kv))).astype(np.float32),
        rows_eff=sched_q_tile * g_eff,
    )


def _buffers(p, out_dtype=np.float64):
    n, slots = p["q"].shape[0], max(p["plan"].num_partial_slots, 1)
    return (
        np.zeros((n, H_QO, D), dtype=out_dtype),
        np.full((n, H_QO), -np.inf),
        np.zeros((slots, p["rows_eff"], D), dtype=np.float32),
        np.full((slots, p["rows_eff"]), -np.inf, dtype=np.float32),
    )


def _run_new(p, plan=None, out_dtype=np.float64):
    bufs = _buffers(p, out_dtype)
    variant = p["variant"]
    kernel = get_kernel(variant, KernelTraits(head_dim=D, q_tile=4, kv_tile=KV_TILE))
    run_mapping(
        p["q"], p["k_pool"], p["v_pool"], p["mapping"], plan or p["plan"], kernel, HEADS,
        variant.bind_params(), 0.3, KV_TILE, *bufs,
        kv_dtype=p["kv_dtype"], fuse_head_groups=p["fuse"],
    )
    return bufs


def _run_reference(p, plan=None):
    bufs = _buffers(p)
    variant = p["variant"]
    ref.reference_run_mapping(
        p["q"], p["k_pool"], p["v_pool"], p["mapping"], plan or p["plan"], variant, HEADS,
        variant.bind_params(), 0.3, KV_TILE, *bufs,
        kv_dtype=p["kv_dtype"], fuse_head_groups=p["fuse"],
    )
    return bufs


def assert_identical(new, old) -> None:
    for name, a, b in zip(("out", "lse", "partial_o", "partial_lse"), new, old):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name


PROBLEM = dict(
    groups=GROUPS,
    variant_name=st.sampled_from(sorted(VARIANTS)),
    kv_dtype=st.sampled_from(list(StorageDType)),
    causal=st.booleans(),
    fuse=st.booleans(),
    num_ctas=st.sampled_from([1, 5, 64]),
    seed=st.integers(0, 2**16),
)


class TestRunMappingBitIdentical:
    @given(**PROBLEM)
    @FIXED
    def test_out_lse_and_partials(self, **example):
        p = _problem(**example)
        assert_identical(_run_new(p), _run_reference(p))

    @pytest.mark.parametrize("variant_name", sorted(VARIANTS))
    @pytest.mark.parametrize("fuse", [True, False])
    def test_every_variant_with_multi_tile_prefill_and_merges(self, variant_name, fuse):
        """One fixed shape per variant that provably takes every branch."""
        p = _problem([(14, 75), (0, 23), (1, 40), (3, 0), (9, 9), (14, 7)], variant_name,
                     StorageDType.FP16, True, fuse, 64, seed=3)
        plan = p["plan"]
        assert len(plan.merge_meta) and (plan.items[:, 8] < 0).any()  # split and writethrough
        assert (np.bincount(plan.items[:, 1]) > (H_KV if fuse else H_QO)).any()  # several tiles
        new, old = _run_new(p), _run_reference(p)
        assert_identical(new, old)
        assert np.isfinite(new[0]).all() and np.abs(new[0]).max() > 0

    @given(drop=st.sets(st.tuples(st.integers(0, 4), st.integers(0, H_QO - 1)), min_size=1),
           **PROBLEM)
    @FIXED
    def test_plan_scheduling_only_some_heads_of_a_tile(self, drop, **example):
        """Drop whole (group, head) columns from the plan: the surviving
        heads of a tile are computed alone and the rest of ``out`` stays put."""
        p = _problem(**example)
        full = p["plan"]
        keep = lambda x: (x.group, x.kv_head) not in drop  # noqa: E731
        plan = SchedulePlan.from_queues(
            [[w for w in queue if keep(w)] for queue in full.cta_queues],
            [m for m in full.merges if keep(m)],
            full.num_partial_slots, full.q_tile_size, full.kv_chunk_size,
        )
        assert_identical(_run_new(p, plan), _run_reference(p, plan))

    def test_hand_built_plan_mixing_split_and_writethrough_on_one_chunk(self):
        """KV head 0 reads ``[0, 8)`` as a writethrough item, head 1 the same
        chunk as the first half of a split tile."""
        p = _problem([(3, 16)], "vanilla", StorageDType.FP16, False, True, 4, seed=5)
        plan = SchedulePlan.from_queues(
            [[WorkItem(0, 0, 0, 0, 3, 0, 8, 0, -1), WorkItem(0, 0, 0, 0, 3, 8, 16, 1, 1)],
             [WorkItem(0, 0, 0, 0, 3, 0, 8, 1, 0)]],
            [MergeEntry(0, 0, 0, 3, 1, (0, 1))], 2, 4, 8,
        )
        new, old = _run_new(p, plan), _run_reference(p, plan)
        assert_identical(new, old)
        assert np.abs(new[0]).min() > 0  # every head of every row was written

    @given(**PROBLEM)
    @FIXED
    def test_float32_out_is_the_reference_rounded_once(self, **example):
        p = _problem(**example)
        new, old = _run_new(p, out_dtype=np.float32), _run_reference(p)
        assert new[0].dtype == np.float32
        assert np.array_equal(new[0], old[0].astype(np.float32), equal_nan=True)
        assert_identical(new[1:], old[1:])


class TestWrapperDefaultOutput:
    @pytest.mark.parametrize("kv_dtype", list(StorageDType))
    def test_default_out_is_float32_and_supplied_out_keeps_its_dtype(self, rng, kv_dtype):
        mapping, slots = make_paged_mapping([70, 9, 33], [1, 9, 1], page_size=4)
        q = rng.standard_normal((11, H_QO, D))
        kp = rng.standard_normal((slots, H_KV, D)).astype(np.float32)
        vp = rng.standard_normal((slots, H_KV, D)).astype(np.float32)
        w = BatchAttentionWrapper(VANILLA, HEADS, WorkspaceBuffer(1 << 24), kv_dtype=kv_dtype,
                                  avg_qo_len=4)
        plan = w.plan(mapping)
        out32, lse32, _ = w.run(q, kp, vp)
        out64, lse64, _ = w.run(q, kp, vp, out=np.zeros((11, H_QO, D)))
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert lse32.dtype == lse64.dtype == np.float64
        assert np.array_equal(out32, out64.astype(np.float32))
        assert np.array_equal(lse32, lse64)

        bufs = _buffers(dict(q=q, plan=plan, rows_eff=plan.q_tile_size * HEADS.group_size))
        ref.reference_run_mapping(
            q, kp, vp, mapping, plan, VANILLA, HEADS, VANILLA.bind_params(),
            1.0 / np.sqrt(D), w.kv_tile, *bufs, kv_dtype=kv_dtype,
        )
        assert np.array_equal(out64, bufs[0]) and np.array_equal(lse64, bufs[1])


class TestRoundToStorageFP16Equivalence:
    """The bit-view rounding against ``astype`` itself (the oracle's)."""

    @staticmethod
    def assert_bitwise(x):
        new = round_to_storage(x, StorageDType.FP16)
        old = ref.round_to_storage(x, StorageDType.FP16)
        assert new.dtype == old.dtype == np.float32 and new.shape == old.shape
        nan = np.isnan(old)
        assert np.array_equal(np.isnan(new), nan)
        assert np.array_equal(new.view(np.uint32)[~nan], old.view(np.uint32)[~nan])  # ±0 apart

    def test_every_251st_float32_bit_pattern(self):
        bits = np.arange(0, 2**32, 251, dtype=np.uint64).astype(np.uint32)
        x = np.concatenate([bits.view(np.float32), np.float32([np.inf, -np.inf, 0.0, -0.0])])
        assert x.size > 17_000_000 and np.isnan(x).any()
        self.assert_bitwise(x)

    def test_every_fp16_value_its_float32_neighbours_and_both_ties(self):
        h = np.arange(2**16, dtype=np.uint16).view(np.float16)
        h = h[np.isfinite(h)]
        assert h.size == 63_488
        f = h.astype(np.float32)
        # Midpoints to the fp16 neighbours; ±65504's outer one is ±65520 (to 2^16), not inf.
        ties = []
        for toward in (np.inf, -np.inf):
            with np.errstate(over="ignore"):
                near = np.nextafter(h, np.float16(toward)).astype(np.float32)
            ties.append((f + np.where(np.isinf(near), np.sign(f) * 65536, near)) / 2)
        assert 65520.0 in ties[0] and -65520.0 in ties[1] and np.float32(2.0**-25) in ties[0]
        x = np.concatenate([f, np.nextafter(f, np.float32(np.inf)),
                            np.nextafter(f, np.float32(-np.inf)), *ties])
        assert np.array_equal(round_to_storage(f, StorageDType.FP16), f)  # the grid is fixed
        self.assert_bitwise(x)
        self.assert_bitwise(x.reshape(5, -1, 4)[:, ::3, 1:])  # a strided view


class TestQuantizeFP8Equivalence:
    def test_every_4099th_float32_bit_pattern(self):
        bits = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        x = x[np.isfinite(x)]
        assert x.size > 1_000_000
        new, old = quantize_fp8(x), ref.reference_quantize_fp8(x)
        assert new.dtype == old.dtype == np.float32
        assert np.array_equal(new, old)  # -0.0 == 0.0: only the zero's sign may differ

    def test_float64_near_ties_stay_float64_arithmetic(self):
        """Midpoints of the e4m3 grid ± one float64 ulp: rounding the input to
        float32 first would land every one of them on the tie."""
        grid = np.unique(ref.reference_quantize_fp8(np.linspace(0.0, 448.0, 200_001)))
        ties = (grid[1:].astype(np.float64) + grid[:-1]) / 2
        x = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
        x = np.concatenate([x, -x])
        assert not np.array_equal(quantize_fp8(x), quantize_fp8(x.astype(np.float32)))
        assert np.array_equal(quantize_fp8(x), ref.reference_quantize_fp8(x))

    def test_differs_from_the_old_formula_only_at_infinity(self):
        x = np.array([np.inf, -np.inf, np.nan, 448.0, 464.0, 1e30, 2.0**-10, -(2.0**-9), 0.0])
        with np.errstate(all="ignore"):
            new, old = quantize_fp8(x), ref.reference_quantize_fp8(x)
        assert np.array_equal(new[2:], old[2:], equal_nan=True)
        assert np.isnan(old[:2]).all() and np.array_equal(new[:2], [448.0, -448.0])
