"""Tests for the workspace buffer (paper Appendix D)."""

import numpy as np
import pytest

from repro.gpu import WorkspaceBuffer


class TestSections:
    def test_fixed_offsets(self):
        ws = WorkspaceBuffer(4096)
        a = ws.allocate_section("a", 100)
        b = ws.allocate_section("b", 100)
        assert a.offset == 0
        assert b.offset == 256  # 256B-aligned
        # Idempotent re-allocation keeps the address.
        assert ws.allocate_section("a", 50).offset == 0

    def test_growth_raises(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("a", 100)
        with pytest.raises(ValueError, match="upper bound"):
            ws.allocate_section("a", 200)

    def test_exhaustion(self):
        ws = WorkspaceBuffer(1024)
        with pytest.raises(MemoryError):
            ws.allocate_section("big", 2048)

    def test_addresses_distinguish_buffers(self):
        a = WorkspaceBuffer(1024).allocate_section("x", 8)
        b = WorkspaceBuffer(1024).allocate_section("x", 8)
        assert a.address != b.address

    def test_exhaustion_counts_alignment_padding(self):
        # 100 + 300 bytes fit 512, but the second section starts at 256.
        ws = WorkspaceBuffer(512)
        ws.allocate_section("a", 100)
        with pytest.raises(MemoryError, match="256 available"):
            ws.allocate_section("b", 300)
        assert ws.allocate_section("b", 256).offset == 256

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            WorkspaceBuffer(0)


class TestDataPath:
    def test_write_read_round_trip(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("plan", 256)
        data = np.arange(10, dtype=np.int64)
        ws.write("plan", data)
        assert np.array_equal(ws.read("plan", np.int64, 10), data)

    def test_partial_fill_allowed(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("plan", 256)
        ws.write("plan", np.arange(2, dtype=np.int64))
        assert np.array_equal(ws.read("plan", np.int64, 2), [0, 1])

    def test_overflow_write_rejected(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("plan", 16)
        with pytest.raises(ValueError, match="exceeds"):
            ws.write("plan", np.arange(10, dtype=np.int64))

    def test_overflow_read_rejected(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("plan", 16)
        with pytest.raises(ValueError, match="exceeds"):
            ws.read("plan", np.int64, 10)

    def test_view_is_live(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("buf", 64)
        v = ws.view("buf", np.float32)
        v[0] = 7.0
        assert ws.read("buf", np.float32, 1)[0] == 7.0

    def test_sections_do_not_alias(self):
        ws = WorkspaceBuffer(4096)
        ws.allocate_section("a", 64)
        ws.allocate_section("b", 64)
        ws.write("a", np.full(8, 1.0))
        ws.write("b", np.full(8, 2.0))
        assert np.all(ws.read("a", np.float64, 8) == 1.0)
        assert np.all(ws.read("b", np.float64, 8) == 2.0)
