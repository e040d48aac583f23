"""Tests for radix-style cross-request prefix caching in the engine."""

import pytest

from repro.serving import EngineConfig, Request, ServingEngine


def engine(prefix_caching, chunked=False):
    return ServingEngine.from_config(EngineConfig(
        num_pool_pages=1 << 14, prefix_cache=prefix_caching,
        chunked_prefill=chunked, prefill_chunk_size=2048,
    ))


class TestRequestValidation:
    def test_prefix_len_bounds(self):
        with pytest.raises(ValueError, match="prefix_len"):
            Request(0.0, 100, 4, prefix_len=200, prefix_group=1)

    def test_prefix_len_requires_group(self):
        with pytest.raises(ValueError, match="prefix_group"):
            Request(0.0, 100, 4, prefix_len=50)


def shared_prefix_requests(n=6, prefix=4096, suffix=64, gap=0.4):
    return [
        Request(i * gap, prefix + suffix, 4, prefix_group=7, prefix_len=prefix)
        for i in range(n)
    ]


class TestPrefixReuse:
    @pytest.fixture(scope="class")
    def runs(self):
        """The shared-prefix trace with and without the prefix cache."""
        reqs = shared_prefix_requests()
        return engine(True).run(reqs), engine(False).run(reqs)

    def test_all_complete_with_caching(self, runs):
        cached, _ = runs
        assert len(cached.traces) == 6
        assert cached.total_output_tokens == 24

    def test_later_requests_prefill_faster(self, runs):
        """After the first request caches the prefix, followers prefill only
        their suffix: much lower TTFT."""
        cached, plain = runs
        # First request pays full prefill either way.
        assert cached.traces[0].ttft == pytest.approx(plain.traces[0].ttft, rel=0.05)
        # Followers are dominated by the 64-token suffix, not the 4k prefix.
        for trace in cached.traces[1:]:
            assert trace.ttft < 0.35 * plain.traces[1].ttft

    def test_disjoint_groups_not_shared(self):
        reqs = [
            Request(0.0, 2048, 4, prefix_group=1, prefix_len=2048 - 64),
            Request(0.5, 2048, 4, prefix_group=2, prefix_len=2048 - 64),
        ]
        m = engine(True).run(reqs)
        # Different groups: the second pays its own full prefill.
        assert m.traces[1].ttft > 0.8 * m.traces[0].ttft

    def test_fully_cached_prompt_still_computes_last_token(self):
        """prefix_len == prompt_len: at least the final position must be
        prefilled to produce logits."""
        reqs = [
            Request(0.0, 512, 3, prefix_group=1, prefix_len=512),
            Request(0.5, 512, 3, prefix_group=1, prefix_len=512),
        ]
        m = engine(True).run(reqs)
        assert len(m.traces) == 2
        assert m.traces[1].ttft > 0

    def test_works_with_chunked_prefill(self):
        reqs = shared_prefix_requests(n=4)
        m = engine(True, chunked=True).run(reqs)
        assert len(m.traces) == 4

    def test_caching_off_by_default(self):
        cfg = EngineConfig()
        assert cfg.prefix_cache is False

    def test_the_prefix_group_registry_flag_is_gone(self):
        """One prefix-reuse mechanism: the radix tree (``prefix_cache``)."""
        with pytest.raises(TypeError, match="prefix_caching"):
            EngineConfig(prefix_caching=True)
