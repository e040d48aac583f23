"""The attention-composition (contraction) kernel.

Split-KV tiles produce partial attention states in the workspace; this
kernel contracts each tile's states with ``⊕`` in the planned order —
variable-length aggregation, deterministic for identical sequence lengths
(§3.3.1).  Like the attention kernel it is persistent on the same fixed CTA
grid, but its unit of work is a (query row, query head) pair, not a merge
entry: the launch's pairs are cut into contiguous blocks of ``⌈P/#CTA⌉``, one
per CTA, so one long split tile is contracted by many CTAs
(``core/simulate.merge_cost_arrays`` prices it).  Each pair's fold is
independent of the others', so the blocking changes no output bit.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.scheduler import MergeEntry
from repro.core.state import merge_states, merge_states_sum


def contract_entry(
    entry: MergeEntry,
    partial_o: np.ndarray,
    partial_lse: np.ndarray,
    use_softmax: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Contract one merge entry's slots into a final ``(o, lse)`` tile."""
    return contract_slots(entry.slots, partial_o, partial_lse, use_softmax)


def contract_slots(
    slots: Sequence,
    partial_o: np.ndarray,
    partial_lse: np.ndarray,
    use_softmax: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Contract the states held in ``slots`` into a final ``(o, lse)`` tile.

    ``partial_o``: ``(slots, rows, head_dim)``; ``partial_lse``:
    ``(slots, rows)``.  Slots are merged left-to-right in the planned
    (ascending ``kv_start``) order — ``⊕`` is associative so the result is
    exact, and the fixed order makes it bit-deterministic.  Each element of
    ``slots`` is one slot index, or an index array holding that step's slot
    of several tiles (the heads of one query tile) folded as a stack.
    """
    if not len(slots):
        raise ValueError("merge entry with no slots")
    o = partial_o[slots[0]]
    lse = partial_lse[slots[0]]
    for s in slots[1:]:
        if use_softmax:
            o, lse = merge_states(o, lse, partial_o[s], partial_lse[s])
        else:
            o = merge_states_sum(o, partial_o[s])
    return o, lse
