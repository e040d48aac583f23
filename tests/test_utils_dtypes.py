"""Tests for storage dtype emulation (fp16 / fp8 e4m3)."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import sweep
from repro.utils.dtypes import (
    FP8_E4M3_MAX,
    StorageDType,
    dequantize_fp8,
    quantize_fp8,
    round_to_storage,
)


class TestQuantizeFP8:
    def test_exact_values_preserved(self):
        # Powers of two and small integers are exactly representable.
        for v in [0.0, 1.0, -1.0, 2.0, 0.5, 0.25, 448.0, -448.0, 1.5, 3.5]:
            assert quantize_fp8(np.array(v)) == pytest.approx(v)

    def test_saturation(self):
        assert quantize_fp8(np.array(1e6)) == FP8_E4M3_MAX
        assert quantize_fp8(np.array(-1e6)) == -FP8_E4M3_MAX

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinity_saturates(self, dtype):
        """``log2(inf)`` used to turn ±inf into ``inf / inf`` = NaN."""
        q = quantize_fp8(np.array([np.inf, -np.inf], dtype=dtype))
        assert np.array_equal(q, [FP8_E4M3_MAX, -FP8_E4M3_MAX])

    def test_nan_stays_nan(self):
        q = quantize_fp8(np.array([np.nan, 1.0], dtype=np.float32))
        assert np.isnan(q[0]) and q[1] == 1.0

    def test_flushed_negative_is_a_zero_with_the_inputs_sign(self):
        """``copysign``: every negative input that flushes — ``-0.0`` too —
        gives ``-0.0``, which compares equal to 0."""
        q = quantize_fp8(np.array([-1e-9, -0.0, 1e-9, 0.0]))
        assert np.array_equal(q, np.zeros(4))
        assert np.array_equal(np.signbit(q), [True, True, False, False])

    def test_flush_to_zero_below_subnormal(self):
        tiny = 2.0**-12
        assert quantize_fp8(np.array(tiny)) == 0.0

    def test_subnormal_grid(self):
        # Smallest subnormal is 2^-9; multiples are representable.
        v = 3 * 2.0**-9
        assert quantize_fp8(np.array(v)) == pytest.approx(v)

    def test_relative_error_bound_normals(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.02, 400.0, size=1000)
        q = quantize_fp8(x)
        # 3 mantissa bits → relative error ≤ 2^-4.
        assert np.all(np.abs(q - x) <= np.abs(x) * 2.0**-4 + 1e-12)

    @given(st.floats(-448, 448, allow_nan=False))
    @sweep(50, 200)
    def test_idempotent(self, v):
        q = quantize_fp8(np.array(v))
        assert quantize_fp8(q) == pytest.approx(float(q), rel=0, abs=0)

    @given(
        st.floats(-400, 400, allow_nan=False),
        st.floats(-400, 400, allow_nan=False),
    )
    @sweep(50, 200)
    def test_monotone(self, a, b):
        qa = float(quantize_fp8(np.array(a)))
        qb = float(quantize_fp8(np.array(b)))
        if a <= b:
            assert qa <= qb

    def test_sign_symmetry(self):
        x = np.linspace(0.01, 440, 97)
        assert np.allclose(quantize_fp8(-x), -quantize_fp8(x))

    def test_preserves_shape_and_dtype(self):
        x = np.ones((3, 4, 5))
        q = quantize_fp8(x)
        assert q.shape == (3, 4, 5)
        assert q.dtype == np.float32


class TestDequantize:
    def test_scale(self):
        x = np.array([1.0, 2.0], dtype=np.float32)
        assert np.allclose(dequantize_fp8(x, scale=2.5), [2.5, 5.0])


class TestRoundToStorage:
    def test_fp32_passthrough(self):
        x = np.array([1.23456789], dtype=np.float64)
        assert round_to_storage(x, StorageDType.FP32)[0] == np.float32(1.23456789)

    def test_fp16_rounds(self):
        x = np.array([1.0 + 2.0**-12])
        r = round_to_storage(x, StorageDType.FP16)
        assert r[0] == np.float16(x[0])

    def test_fp16_overflow_is_inf_without_a_warning(self):
        """``|x| ≥ 65520 → ±inf`` is fp16's defined result; ``astype`` used to
        raise ``RuntimeWarning: overflow encountered in cast`` from in here."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dtype in (np.float32, np.float64):
                x = np.array([1e6, -65520.0, 65519.0, -1e30, np.inf, 3.0], dtype=dtype)
                r = round_to_storage(x, StorageDType.FP16)
                assert np.array_equal(r, [np.inf, -np.inf, 65504.0, -np.inf, np.inf, 3.0])
            assert np.isnan(round_to_storage(np.float32([np.nan, 1.0]), StorageDType.FP16)[0])

    def test_fp16_of_float64_rounds_once(self):
        """Through float32 first, ``1 + 2^-11 + 2^-30`` lands on the tie and
        goes to even (1.0); rounded once it is above the tie."""
        x = np.array([1.0 + 2.0**-11 + 2.0**-30])
        assert x.astype(np.float32).astype(np.float16)[0] == 1.0
        r = round_to_storage(x, StorageDType.FP16)
        assert r.dtype == np.float32 and r[0] == np.float32(1.0 + 2.0**-10)

    def test_fp16_does_not_write_its_input(self):
        x = np.random.default_rng(0).standard_normal((4, 6)).astype(np.float32) * 1e-4
        x[0, 0], x[1, 1] = 1e9, np.nan
        before = x.copy()
        r = round_to_storage(x, StorageDType.FP16)
        assert np.array_equal(x, before, equal_nan=True) and not np.shares_memory(r, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_fp16_keeps_shape_for_views_scalars_and_empty_arrays(self, dtype):
        base = (np.arange(60).reshape(3, 4, 5) * 1.001 + 2.0**-20).astype(dtype)
        for x in (base[:, ::2, 1:4], base.T, base[1, 2, 3], dtype(70000), base[:0], base[..., 4:4]):
            r = round_to_storage(x, StorageDType.FP16)
            assert isinstance(r, np.ndarray) and r.dtype == np.float32
            assert r.shape == np.shape(x)
            with np.errstate(over="ignore"):
                assert np.array_equal(r, np.asarray(x).astype(np.float16).astype(np.float32))

    def test_fp8_matches_quantize(self):
        x = np.linspace(-10, 10, 31)
        assert np.allclose(round_to_storage(x, StorageDType.FP8_E4M3), quantize_fp8(x))

    def test_unknown_dtype_raises(self):
        with pytest.raises(ValueError):
            round_to_storage(np.ones(2), "fp4")  # type: ignore[arg-type]


class TestItemsize:
    def test_itemsizes(self):
        assert StorageDType.FP32.itemsize == 4
        assert StorageDType.FP16.itemsize == 2
        assert StorageDType.FP8_E4M3.itemsize == 1
