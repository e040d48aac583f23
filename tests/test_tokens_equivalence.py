"""The array token model must name every prompt position as the scalar did.

``tests/reference_tokens.py`` holds ``prompt_token_id``, one Python call
per position on unbounded integers.  ``prompt_token_ids`` is the same hash
on ``np.arange(length)`` in int64, so "same" is exact equality at every
position — up to the largest ``rid`` of its stated domain (``2**31 - 1``),
where a wrapped intermediate would show.
"""

import numpy as np
import pytest

from reference_tokens import prompt_token_id
from repro.serving.batching import TOKEN_VOCAB, prompt_token_ids

GROUPS = (None, 0, 3, 2**30)
RIDS = (0, 63, 2**31 - 1)
LENGTHS = (0, 1, 15, 16, 17, 4096)


def prefix_lens(group, n):
    """``plen`` corners, clipped to what ``Request`` accepts: ``[0, n]``,
    and 0 without a group."""
    if group is None:
        return [0]
    return sorted({min(max(plen, 0), n) for plen in (0, 1, n - 1, n, n + 5)})


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("rid", RIDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_every_position_equals_the_scalar(group, rid, n):
    for plen in prefix_lens(group, n):
        got = prompt_token_ids(group, plen, rid, n)
        assert got.dtype == np.int64 and got.shape == (n,)  # n = 0: empty int64
        assert got.tolist() == [prompt_token_id(group, plen, rid, pos) for pos in range(n)]


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("rid", RIDS)
def test_a_million_positions_sampled(group, rid):
    """``n = 2**20``: every 4099th position, both sides of the prefix
    boundary and the last position, against the scalar."""
    n = 2**20
    for plen in prefix_lens(group, n):
        got = prompt_token_ids(group, plen, rid, n)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert 0 <= int(got.min()) and int(got.max()) < TOKEN_VOCAB
        sample = set(range(0, n, 4099)) | {n - 1}
        sample |= {p for p in (plen - 1, plen) if 0 <= p < n}
        for pos in sample:
            assert int(got[pos]) == prompt_token_id(group, plen, rid, pos), pos

