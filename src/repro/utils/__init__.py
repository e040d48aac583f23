"""Shared utilities: storage dtypes, RNG helpers, validation."""

from repro.utils.dtypes import (
    FP8_E4M3_MAX,
    StorageDType,
    dequantize_fp8,
    quantize_fp8,
    round_to_storage,
)
from repro.utils.rng import new_rng
from repro.utils.validation import check_positive

__all__ = [
    "FP8_E4M3_MAX",
    "StorageDType",
    "dequantize_fp8",
    "quantize_fp8",
    "round_to_storage",
    "new_rng",
    "check_positive",
]
