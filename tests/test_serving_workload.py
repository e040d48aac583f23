"""Tests for workload generators and the Request type."""

import numpy as np
import pytest

from repro.serving import (
    Request,
    constant_lengths,
    poisson_arrivals,
    sharegpt_workload,
    uniform_lengths,
    variable_workload,
    zipf_lengths,
)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request(0.0, 0, 10)
        with pytest.raises(ValueError):
            Request(0.0, 10, 0)
        with pytest.raises(ValueError):
            Request(0.0, 10, 10, n=0)

    @pytest.mark.parametrize("kw, message", [
        (dict(prefix_len=11, prefix_group=0), "prefix_len must be in"),
        (dict(prefix_len=4), "requires a prefix_group"),
        (dict(deadline=0.0), "deadline"),
        (dict(tenant=-1), "tenant"),
    ])
    def test_prefix_deadline_and_tenant_validation(self, kw, message):
        with pytest.raises(ValueError, match=message):
            Request(0.0, 10, 10, **kw)


class TestArrivals:
    def test_monotone(self):
        rng = np.random.default_rng(0)
        t = poisson_arrivals(100, 5.0, rng)
        assert np.all(np.diff(t) >= 0)

    def test_rate(self):
        rng = np.random.default_rng(0)
        t = poisson_arrivals(5000, 10.0, rng)
        assert t[-1] == pytest.approx(500.0, rel=0.1)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(10, 0.0, np.random.default_rng(0))


class TestShareGPT:
    def test_length_statistics(self):
        reqs = sharegpt_workload(3000, rate=1.0, seed=0)
        prompts = np.array([r.prompt_len for r in reqs])
        outputs = np.array([r.output_len for r in reqs])
        # Means in the ballpark of the reported ShareGPT statistics.
        assert 100 < prompts.mean() < 300
        assert 200 < outputs.mean() < 450
        assert prompts.max() <= 4096
        assert prompts.min() >= 4

    def test_deterministic_by_seed(self):
        a = sharegpt_workload(10, 1.0, seed=42)
        b = sharegpt_workload(10, 1.0, seed=42)
        assert [(r.arrival, r.prompt_len) for r in a] == [
            (r.arrival, r.prompt_len) for r in b
        ]

    def test_n_parameter(self):
        reqs = sharegpt_workload(5, 1.0, seed=0, n=4)
        assert all(r.n == 4 for r in reqs)


class TestVariable:
    def test_range(self):
        reqs = variable_workload(500, 1.0, seed=0)
        prompts = np.array([r.prompt_len for r in reqs])
        assert prompts.min() >= 512 and prompts.max() <= 2048


class TestKernelDistributions:
    def test_constant(self):
        assert np.all(constant_lengths(4, 1024) == 1024)

    def test_uniform_bounds(self):
        lens = uniform_lengths(1000, 512, 1024, seed=0)
        assert lens.min() >= 512 and lens.max() <= 1024

    def test_zipf_mean(self):
        lens = zipf_lengths(2000, mean=1024, seed=0)
        assert lens.mean() == pytest.approx(1024, rel=0.25)
        assert lens.min() >= 16

    def test_zipf_is_skewed(self):
        lens = zipf_lengths(2000, mean=1024, seed=0)
        assert np.median(lens) < lens.mean()  # heavy right tail
