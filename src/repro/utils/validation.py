"""Small argument-validation helpers with consistent error messages."""

from __future__ import annotations

import numpy as np


def check_positive(value: int, name: str) -> int:
    """Require a strictly positive integer."""
    if not isinstance(value, (int, np.integer)) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
