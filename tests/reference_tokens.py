"""The per-token prompt hash, kept as the test oracle.

``prompt_token_id`` is ``repro.serving.batching``'s scalar token model as
it shipped before prompts became one int64 array per request
(``prompt_token_ids``): one Python call and unbounded Python integers per
position.  ``tests/test_tokens_equivalence.py`` requires the array form to
name every position the same.
"""

from __future__ import annotations

from typing import Optional

from repro.serving.batching import TOKEN_VOCAB


def prompt_token_id(
    prefix_group: Optional[int], prefix_len: int, rid: int, pos: int
) -> int:
    """Deterministic stand-in for a *prompt* token id.

    Positions inside a request's declared shared prefix hash on the
    ``prefix_group`` alone, so every member of a group (on any replica)
    carries byte-identical prefix tokens — the structure the radix tree
    discovers.  Suffix positions hash on the request's cluster-global id,
    so no two requests ever alias beyond their declared shared prefix.
    """
    if prefix_group is not None and pos < prefix_len:
        h = prefix_group * 7878787 + pos * 2654435761 + 970181
    else:
        h = rid * 1000003 + pos * 2654435761 + 615241
    return (h & 0x7FFFFFFF) % TOKEN_VOCAB
