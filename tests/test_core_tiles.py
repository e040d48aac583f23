"""Tests for tile-size heuristics and occupancy (paper §3.2.2)."""


from repro.core import VANILLA, BatchAttentionWrapper, HeadConfig, select_kv_tile, select_q_tile
from repro.core.tiles import ctas_per_sm, regs_per_thread, smem_bytes
from repro.gpu import A100_40G, H100_80G, WorkspaceBuffer
from repro.utils.dtypes import StorageDType


def wrapper(heads, avg_qo_len, **kw):
    """The §3.2.2 heuristic as the wrapper applies it at construction."""
    return BatchAttentionWrapper(
        VANILLA, heads, WorkspaceBuffer(1 << 20), A100_40G, avg_qo_len=avg_qo_len, **kw
    )


class TestQTileSelection:
    def test_decode_mha_picks_cuda_core_tile(self):
        # Decode, no GQA: average fused length 1 → tile 1 (CUDA cores).
        assert select_q_tile(1.0) == 1

    def test_minimal_tile_meeting_average(self):
        assert select_q_tile(2.0) == 16
        assert select_q_tile(16.0) == 16
        assert select_q_tile(17.0) == 32
        assert select_q_tile(100.0) == 128

    def test_caps_at_largest(self):
        assert select_q_tile(100000.0) == 128

    def test_fa3_multiples_of_64(self):
        assert select_q_tile(2.0, backend="fa3") == 64
        assert select_q_tile(1.0, backend="fa3") == 1
        assert select_q_tile(65.0, backend="fa3") == 128

    def test_gqa_fusion_lifts_decode_tile(self):
        # Paper Appendix A: group size fuses into the row dimension.
        assert wrapper(HeadConfig(32, 4, 128), 1.0).q_tile == 16

    def test_fusion_disabled(self):
        assert wrapper(HeadConfig(32, 4, 128), 1.0, fuse_head_groups=False).q_tile == 1


class TestOccupancy:
    def test_smem_grows_with_tiles(self):
        a = smem_bytes(64, 64, 128, StorageDType.FP16)
        b = smem_bytes(128, 64, 128, StorageDType.FP16)
        c = smem_bytes(64, 128, 128, StorageDType.FP16)
        assert b > a and c > a

    def test_fp8_kv_halves_kv_smem(self):
        f16 = smem_bytes(64, 64, 128, StorageDType.FP16)
        f8 = smem_bytes(64, 64, 128, StorageDType.FP8_E4M3)
        assert f8 < f16

    def test_regs_grow_with_tiles(self):
        assert regs_per_thread(128, 128, 128) > regs_per_thread(16, 32, 128)

    def test_occupancy_monotone_in_tile_size(self):
        small = ctas_per_sm(16, 32, 128, StorageDType.FP16, A100_40G)
        large = ctas_per_sm(128, 128, 128, StorageDType.FP16, A100_40G)
        assert small >= large

    def test_occupancy_at_least_resident_for_defaults(self):
        assert ctas_per_sm(64, 64, 128, StorageDType.FP16, A100_40G) >= 1
        assert ctas_per_sm(64, 64, 128, StorageDType.FP16, H100_80G) >= 1


class TestKVTileSelection:
    def test_prefers_occupancy(self):
        kv_tile = select_kv_tile(64, 128, StorageDType.FP16, A100_40G)
        assert kv_tile in (32, 64, 128)
        # The choice must keep at least one CTA resident.
        assert ctas_per_sm(64, kv_tile, 128, StorageDType.FP16, A100_40G) >= 1

    def test_full_heuristic(self):
        w = wrapper(HeadConfig(16, 4, 128), 1.0)
        assert w.q_tile == 16  # fused decode length 4 → tile 16
        assert w.kv_tile == select_kv_tile(16, 128, StorageDType.FP16, A100_40G)

    def test_prefill_heuristic_picks_large_tile(self):
        assert wrapper(HeadConfig(16, 16, 128), 1024.0).q_tile == 128
