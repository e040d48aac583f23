"""Tests for the small utility helpers (validation, RNG plumbing)."""

import numpy as np
import pytest

from repro.utils import check_positive, new_rng


class TestValidation:
    def test_check_positive(self):
        assert check_positive(5, "n") == 5
        with pytest.raises(ValueError):
            check_positive(0, "n")
        with pytest.raises(ValueError):
            check_positive(-1, "n")
        with pytest.raises(ValueError):
            check_positive(2.5, "n")  # floats rejected

    def test_error_message_names_argument(self):
        with pytest.raises(ValueError, match="my_arg"):
            check_positive(0, "my_arg")


class TestRng:
    def test_int_seed_deterministic(self):
        assert new_rng(7).integers(0, 1 << 30) == new_rng(7).integers(0, 1 << 30)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert new_rng(g) is g

    def test_none_gives_entropy(self):
        # Two entropy-seeded generators should (overwhelmingly) differ.
        a = new_rng(None).integers(0, 1 << 62)
        b = new_rng(None).integers(0, 1 << 62)
        assert isinstance(int(a), int) and isinstance(int(b), int)
