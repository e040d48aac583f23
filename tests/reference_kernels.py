"""The per-work-item attention numerics, kept as the test oracle.

Everything here is ``repro.core.kernels`` / ``repro.core.template`` /
``repro.utils.dtypes`` as they shipped before the numerics became
tile-batched, moved here verbatim: the 2-D kernel template (one query tile
× one KV chunk × **one** KV head per call), ``_item_rows`` /
``_execute_item`` / ``_execute_merge`` / ``_scatter_output`` — one strided
per-head gather, one storage rounding and one JIT call per work item, drained
CTA queue by CTA queue — and the ``log2``/``floor`` ``quantize_fp8``.  Only
the glue is new: ``ReferenceKernel`` compiles the old template for a
variant, ``reference_run_mapping`` is the numeric half of the old
``run_mapping`` loop, and ``round_to_storage`` is the old one — fp16 is
NumPy's own ``astype`` — with nothing imported from the library's routine.
The kernel sweeps every KV tile of a chunk and masks the hidden ones.
``tests/test_kernels_equivalence.py`` requires the tile-batched path to
reproduce it bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.composition import contract_entry
from repro.core.kernels import HeadConfig
from repro.core.scheduler import WorkItem
from repro.sparse.layout import AttentionMapping
from repro.utils.dtypes import FP8_E4M3_MAX, StorageDType

_E4M3_MANTISSA_BITS = 3
_E4M3_MIN_NORMAL_EXP = -6  # smallest normal exponent
_E4M3_MIN_SUBNORMAL = 2.0**-9  # 2^-6 * 2^-3


def reference_quantize_fp8(x: np.ndarray) -> np.ndarray:
    """Round ``x`` to the nearest fp8 e4m3 value (returned as float32).

    Saturates to ±``FP8_E4M3_MAX``; flushes values below the smallest
    subnormal to zero.  This emulates storing a tensor in fp8 without an
    actual 8-bit container: the value grid is exact, the bytes are not.
    """
    x = np.asarray(x, dtype=np.float64)
    sign = np.sign(x)
    mag = np.abs(x)
    out = np.zeros_like(mag)

    normal = mag >= 2.0**_E4M3_MIN_NORMAL_EXP
    if np.any(normal):
        m = mag[normal]
        exp = np.floor(np.log2(m))
        scale = 2.0 ** (exp - _E4M3_MANTISSA_BITS)
        out_n = np.rint(m / scale) * scale
        out[normal] = out_n
    subnormal = (~normal) & (mag > 0)
    if np.any(subnormal):
        out[subnormal] = np.rint(mag[subnormal] / _E4M3_MIN_SUBNORMAL) * _E4M3_MIN_SUBNORMAL

    out = np.minimum(out, FP8_E4M3_MAX)
    return (sign * out).astype(np.float32)


def round_to_storage(x: np.ndarray, dtype: StorageDType) -> np.ndarray:
    """The old ``repro.utils.dtypes.round_to_storage``: the rounding oracle
    is ``astype`` itself (±inf on fp16 overflow is the defined result)."""
    if dtype is StorageDType.FP8_E4M3:
        return reference_quantize_fp8(x)
    x = np.asarray(x)
    if dtype is StorageDType.FP16:
        with np.errstate(over="ignore"):
            return x.astype(np.float16).astype(np.float32)
    return x.astype(np.float32)


# -- the 2-D kernel template (core/template.py) ----------------------------------

MODULE_TEMPLATE = '''\
"""JIT-generated attention kernel for variant {variant_name!r}."""
{helpers}

def {kernel_name}(q, k, v, q_pos, kv_pos, q_head, kv_head, params,
                  sm_scale, causal, kv_tile):
    """Attention work-item kernel specialized for variant {variant_name!r}.

    Processes one query tile against one gathered KV chunk for one KV head
    and returns the partial attention state ``(o, lse)``.

    q : (rows, head_dim) float — query tile (may fuse GQA head groups)
    k, v : (kv_len, head_dim) float — gathered KV chunk (contiguous)
    q_pos / kv_pos : int64 absolute positions; q_head : (rows,) int64;
    kv_head : int; params : bound variant parameters; sm_scale : float;
    causal : bool; kv_tile : int — inner tile size of the online sweep.
    """
    rows, head_dim = q.shape
    kv_len = k.shape[0]
    q = np.asarray(q, dtype=np.float64)
{apply_query_transform}
    m = np.full(rows, -np.inf)
    d = np.zeros(rows)
    acc = np.zeros((rows, head_dim))
    q_pos_col = q_pos[:, None]
    q_head_col = q_head[:, None]
    for t0 in range(0, kv_len, kv_tile):
        t1 = min(t0 + kv_tile, kv_len)
        kt = np.asarray(k[t0:t1], dtype=np.float64)
        vt = np.asarray(v[t0:t1], dtype=np.float64)
        kv_pos_t = kv_pos[t0:t1]
{apply_key_transform}
{apply_value_transform}
        logits = (q @ kt.T) * sm_scale
        kv_pos_row = kv_pos_t[None, :]
{apply_logits_transform}
        keep = np.ones((rows, t1 - t0), dtype=bool)
        if causal:
            keep &= q_pos_col >= kv_pos_row
{apply_logits_mask}
{accumulate}
{finalize}
'''

SOFTMAX_ACCUMULATE = '''\
        logits = np.where(keep, logits, -np.inf)
        m_new = np.maximum(m, logits.max(axis=1) if logits.size else -np.inf)
        m_safe = np.where(np.isneginf(m_new), 0.0, m_new)
        p = np.exp(logits - m_safe[:, None])
        rescale = np.exp(np.where(np.isneginf(m), -np.inf, m - m_safe))
        d = d * rescale + p.sum(axis=1)
        acc = acc * rescale[:, None] + p @ vt
        m = m_new
'''

SOFTMAX_FINALIZE = '''\
    denom = np.where(d == 0.0, 1.0, d)
    o = acc / denom[:, None]
    with np.errstate(divide="ignore"):
        lse = np.where(d == 0.0, -np.inf, m + np.log(denom))
    return o, lse
'''

SUM_ACCUMULATE = '''\
        weights = np.where(keep, logits, 0.0)
        acc = acc + weights @ vt
'''

SUM_FINALIZE = '''\
    return acc, np.zeros(rows)
'''

_HELPER_TEMPLATES = {
    "query_transform": (
        "def _query_transform(q, q_pos, head, params):\n    return ({expr})\n",
        "    q = np.asarray(_query_transform(q, q_pos, q_head, params), dtype=np.float64)",
    ),
    "key_transform": (
        "def _key_transform(k, kv_pos, head, params):\n    return ({expr})\n",
        "        kt = np.asarray(_key_transform(kt, kv_pos_t, kv_head, params), dtype=np.float64)",
    ),
    "value_transform": (
        "def _value_transform(v, kv_pos, head, params):\n    return ({expr})\n",
        "        vt = np.asarray(_value_transform(vt, kv_pos_t, kv_head, params), dtype=np.float64)",
    ),
    "logits_transform": (
        "def _logits_transform(logits, q_pos, kv_pos, q_head, kv_head, params):\n"
        "    return ({expr})\n",
        "        logits = _logits_transform(logits, q_pos_col, kv_pos_row, "
        "q_head_col, kv_head, params)",
    ),
    "logits_mask": (
        "def _logits_mask(q_pos, kv_pos, q_head, kv_head, params):\n    return ({expr})\n",
        "        keep &= _logits_mask(q_pos_col, kv_pos_row, q_head_col, kv_head, params)",
    ),
}


def render_kernel_source(
    kernel_name: str,
    variant_name: str,
    query_transform: Optional[str],
    key_transform: Optional[str],
    value_transform: Optional[str],
    logits_transform: Optional[str],
    logits_mask: Optional[str],
    use_softmax: bool,
) -> str:
    """Render a specialized kernel module source from functor expressions."""
    exprs = {
        "query_transform": query_transform,
        "key_transform": key_transform,
        "value_transform": value_transform,
        "logits_transform": logits_transform,
        "logits_mask": logits_mask,
    }
    helpers = []
    applies = {}
    for functor, expr in exprs.items():
        helper_tpl, apply_line = _HELPER_TEMPLATES[functor]
        if expr is None:
            applies[functor] = ""
        else:
            helpers.append(helper_tpl.format(expr=expr))
            applies[functor] = apply_line
    return MODULE_TEMPLATE.format(
        kernel_name=kernel_name,
        variant_name=variant_name,
        helpers="\n".join(helpers),
        apply_query_transform=applies["query_transform"],
        apply_key_transform=applies["key_transform"],
        apply_value_transform=applies["value_transform"],
        apply_logits_transform=applies["logits_transform"],
        apply_logits_mask=applies["logits_mask"],
        accumulate=SOFTMAX_ACCUMULATE if use_softmax else SUM_ACCUMULATE,
        finalize=SOFTMAX_FINALIZE if use_softmax else SUM_FINALIZE,
    )


class ReferenceKernel:
    """The old template compiled for ``variant`` (``fn`` takes 2-D tiles)."""

    def __init__(self, variant):
        name = f"attention_kernel_{variant.name}"
        source = render_kernel_source(
            name, variant.name, variant.query_transform, variant.key_transform,
            variant.value_transform, variant.logits_transform, variant.logits_mask,
            variant.use_softmax,
        )
        namespace = {"np": np}
        exec(compile(source, f"<reference:{variant.name}>", "exec"), namespace)
        self.fn, self.source, self.variant = namespace[name], source, variant


def reference_run_mapping(
    q, k_pool, v_pool, mapping, plan, variant, heads, params, sm_scale, kv_tile,
    out, lse, partial_o, partial_lse, kv_dtype=StorageDType.FP16, fuse_head_groups=True,
) -> None:
    """The numeric half of the old ``run_mapping``: items in CTA-queue
    order, then the merge entries."""
    kernel = ReferenceKernel(variant)
    for queue in plan.cta_queues:
        for item in queue:
            _execute_item(
                item, q, k_pool, v_pool, mapping, kernel, heads, params,
                sm_scale, kv_tile, out, lse, partial_o, partial_lse,
                kv_dtype, fuse_head_groups,
            )
    for entry in plan.merges:
        _execute_merge(
            entry, mapping, heads, out, lse, partial_o, partial_lse,
            fuse_head_groups, kernel.variant.use_softmax,
        )


# -- the per-item loop (core/kernels.py) -----------------------------------------

def _item_rows(
    item: WorkItem,
    mapping: AttentionMapping,
    heads: HeadConfig,
    fuse_head_groups: bool,
) -> Tuple[int, int, np.ndarray, np.ndarray, int]:
    """Resolve a work item's absolute query rows, head set and positions.

    Returns ``(abs_row_start, n_heads, q_pos, q_head_ids, kv_head)`` where
    the item covers query heads ``q_head_ids`` (fused GQA group or a single
    head) of rows ``[abs_row_start, abs_row_start + q_rows)``.
    """
    g = heads.group_size
    abs_start = int(mapping.q_row_starts[item.group]) + item.q_start
    q_pos = int(mapping.q_pos_offset[item.group]) + item.q_start + np.arange(item.q_rows)
    if fuse_head_groups:
        kv_head = item.kv_head
        head_ids = np.arange(kv_head * g, (kv_head + 1) * g)
    else:
        qh = item.kv_head  # scheduling dimension enumerates query heads
        kv_head = qh // g
        head_ids = np.asarray([qh])
    return abs_start, len(head_ids), q_pos, head_ids, kv_head


def _execute_item(
    item, q, k_pool, v_pool, mapping, kernel, heads, params, sm_scale,
    kv_tile, out, lse, partial_o, partial_lse, kv_dtype, fuse_head_groups,
) -> None:
    abs_start, n_heads, q_pos, head_ids, kv_head = _item_rows(
        item, mapping, heads, fuse_head_groups
    )
    d = heads.head_dim
    rows_eff = item.q_rows * n_heads

    # Query tile with GQA head-group fusion: (query, head) row-major.
    q_tile = q[abs_start : abs_start + item.q_rows][:, head_ids, :].reshape(rows_eff, d)
    q_pos_rows = np.repeat(q_pos, n_heads)
    q_head_rows = np.tile(head_ids, item.q_rows)

    # Gather the KV chunk (scattered global → contiguous "shared" memory).
    slots = mapping.kv.slot_indices(item.group, item.kv_start, item.kv_stop)
    k_chunk = round_to_storage(k_pool[slots, kv_head, :], kv_dtype)
    v_chunk = round_to_storage(v_pool[slots, kv_head, :], kv_dtype)
    kv_pos = int(mapping.kv_pos_offset[item.group]) + np.arange(item.kv_start, item.kv_stop)

    o_tile, lse_tile = kernel.fn(
        q_tile, k_chunk, v_chunk, q_pos_rows, kv_pos, q_head_rows, kv_head,
        params, sm_scale, mapping.causal, kv_tile,
    )

    if item.partial_slot >= 0:
        partial_o[item.partial_slot, :rows_eff, :] = o_tile
        partial_lse[item.partial_slot, :rows_eff] = lse_tile
    else:
        _scatter_output(out, lse, o_tile, lse_tile, abs_start, item.q_rows, head_ids)


def _execute_merge(
    entry, mapping, heads, out, lse, partial_o, partial_lse,
    fuse_head_groups, use_softmax,
) -> None:
    g = heads.group_size
    d = heads.head_dim
    abs_start = int(mapping.q_row_starts[entry.group]) + entry.q_start
    if fuse_head_groups:
        head_ids = np.arange(entry.kv_head * g, (entry.kv_head + 1) * g)
    else:
        head_ids = np.asarray([entry.kv_head])
    rows_eff = entry.q_rows * len(head_ids)
    o_tile, lse_tile = contract_entry(
        entry,
        partial_o[:, :rows_eff, :],
        partial_lse[:, :rows_eff],
        use_softmax,
    )
    _scatter_output(out, lse, o_tile, lse_tile, abs_start, entry.q_rows, head_ids)


def _scatter_output(
    out: np.ndarray,
    lse: np.ndarray,
    o_tile: np.ndarray,
    lse_tile: np.ndarray,
    abs_start: int,
    q_rows: int,
    head_ids: np.ndarray,
) -> None:
    """Unfuse a (query, head)-row-major tile back into packed layout."""
    d = out.shape[-1]
    n_heads = len(head_ids)
    o = o_tile.reshape(q_rows, n_heads, d)
    s = lse_tile.reshape(q_rows, n_heads)
    idx = slice(abs_start, abs_start + q_rows)
    out[idx, head_ids, :] = o
    lse[idx, head_ids] = s
