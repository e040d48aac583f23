"""Storage dtype emulation.

FlashInfer computes in fp32 accumulators while storing Q/K/V in fp16 or fp8
(e4m3) to cut memory traffic (paper Appendix F).  We mirror that split: all
arithmetic here is float32/float64 NumPy, and a paged KV pool holds its
storage precision in a real container (:attr:`StorageDType.container`):
fp16 values in ``float16``, rounded once when they are written.  fp8 has no
NumPy container, so e4m3 is emulated: its grid is exact in ``float16``, and
:func:`quantize_fp8` rounds a tensor onto it — a float16 one (a chunk gathered
from a ``float16`` pool) by one lookup in a table of every fp16 bit pattern's
e4m3 value, any other by arithmetic.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

# Largest finite value representable in fp8 e4m3 (per the OCP / NVIDIA spec).
FP8_E4M3_MAX = 448.0

_E4M3_MANTISSA_BITS = 3
_E4M3_MIN_NORMAL_EXP = -6  # smallest normal exponent


class StorageDType(enum.Enum):
    """Precision used for *stored* tensors (compute is always fp32)."""

    FP32 = "fp32"
    FP16 = "fp16"
    FP8_E4M3 = "fp8_e4m3"

    @property
    def itemsize(self) -> int:
        """Bytes per element, used by the memory-traffic model."""
        return {"fp32": 4, "fp16": 2, "fp8_e4m3": 1}[self.value]

    @property
    def container(self) -> np.dtype:
        """The NumPy dtype that holds values of this precision exactly:
        ``float32`` for fp32, ``float16`` for fp16 and e4m3 (every e4m3
        value, subnormals and ±448 included, is an fp16 value)."""
        return np.dtype(np.float32 if self is StorageDType.FP32 else np.float16)


def quantize_fp8(x: np.ndarray) -> np.ndarray:
    """Round ``x`` to the nearest fp8 e4m3 value (returned as float32).

    Saturates to ±``FP8_E4M3_MAX`` (±inf included; NaN stays NaN); flushes
    values below the smallest subnormal to a zero that keeps the input's
    sign (``copysign``: ``-1e-9`` and ``-0.0`` both give ``-0.0``, which
    compares equal to 0).  This emulates storing a tensor in fp8 without an
    actual 8-bit container: the value grid is exact, the bytes are not.

    float16 input is one lookup per value in a table of all 65 536 fp16 bit
    patterns, built once, on first use, by the float32 arithmetic below on
    every pattern widened (exactly) to float32 — so it gives that
    arithmetic's bits by construction.  Any other input is computed: every
    step — a power-of-two ulp, ``rint`` of an exactly scaled value — is
    exact in the input's own float dtype, so float32 is not widened;
    anything else is computed in float64 (rounding float64 to float32
    first would double-round near ties).
    """
    x = np.asarray(x)
    if x.dtype == np.float16:
        # Every uint16 is an index of the table: "clip" never clips, it only
        # skips the bounds check (and lets ``out`` keep a 0-d result an array).
        out = np.empty(x.shape, np.float32)
        return np.take(_fp8_of_every_fp16(), x.view(np.uint16), mode="clip", out=out)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    mag = np.abs(x, out=np.empty_like(x))
    np.minimum(mag, FP8_E4M3_MAX, out=mag)  # the maximum is on the grid
    # |x| = m·2^e with m in [0.5, 1): the binade's ulp is 2^(e-1-3), and
    # below the smallest normal exponent the subnormal grid's 2^(-6-3).
    exp = np.maximum(np.frexp(mag)[1] - 1, _E4M3_MIN_NORMAL_EXP) - _E4M3_MANTISSA_BITS
    ulp = np.ldexp(x.dtype.type(1), exp)
    mag /= ulp
    np.rint(mag, out=mag)
    mag *= ulp
    return np.copysign(mag, x, out=mag).astype(np.float32, copy=False)


@functools.cache
def _fp8_of_every_fp16() -> np.ndarray:
    """The e4m3 value (float32) of every fp16 bit pattern, by index; read-only."""
    every = np.arange(2**16, dtype=np.uint16).view(np.float16).astype(np.float32)  # exact
    with np.errstate(invalid="ignore"):  # the NaN patterns
        table = quantize_fp8(every)
    table.flags.writeable = False
    return table


def dequantize_fp8(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Inverse of :func:`quantize_fp8` under a per-tensor scale factor."""
    return np.asarray(x, dtype=np.float32) * np.float32(scale)


def round_to_storage(x: np.ndarray, dtype: StorageDType) -> np.ndarray:
    """Round ``x`` through storage precision ``dtype``, returning float32 —
    or ``x`` itself when it is float16 and ``dtype`` is fp16: a pool held in
    its storage container is already on the grid, and its reads skip this.

    fp16 is IEEE round-to-nearest-even with ``|x| ≥ 65520 → ±inf``, silently
    (as e4m3 saturates silently).  NumPy's half conversion is scalar code, so
    float32 input is rounded on its bit view — add ``0xFFF`` plus bit 13, clear
    the low 13 bits; ``x`` is not written — and only the lanes with magnitude
    bits outside ``[2^-14, 2^15)`` (fp16 subnormals and zero, the binade that
    may round to inf, inf, NaN) go through ``astype``, as does any other input
    dtype (float64 → float32 → fp16 would round twice).
    """
    x = np.asarray(x)
    if dtype is StorageDType.FP32:
        return x.astype(np.float32)
    if dtype is StorageDType.FP16:
        if x.dtype == np.float16:
            return x
        with np.errstate(over="ignore"):
            if x.dtype != np.float32:
                return x.astype(np.float16).astype(np.float32)
            bits = x.view(np.uint32)
            mag = bits & np.uint32(0x7FFFFFFF)
            mag -= np.uint32(0x38800000)
            exceptional = mag >= np.uint32(0x47000000 - 0x38800000)
            rounded = np.right_shift(bits, np.uint32(13), out=np.empty(x.shape, np.uint32))
            rounded &= np.uint32(1)
            rounded += np.uint32(0xFFF)
            rounded += bits
            rounded &= np.uint32(0xFFFFE000)
            out = rounded.view(np.float32)
            if exceptional.any():
                out[exceptional] = x[exceptional].astype(np.float16)
            return out
    if dtype is StorageDType.FP8_E4M3:
        return quantize_fp8(x)
    raise ValueError(f"unknown storage dtype: {dtype!r}")
