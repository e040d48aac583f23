"""The attention kernel template the JIT compiler specializes.

This is the Python analog of FlashInfer's CUDA/CUTLASS ``KernelTemplate``
(paper Figure 5): a source-code *string* with placeholders for the variant
functors, kernel name and traits.  The JIT compiler renders the variant's
functor expressions into the template (hooks for undeclared functors are
removed entirely — specialization, not branching), compiles the result with
``compile()``/``exec`` and caches it.

The generated function processes one query tile against one KV chunk for
**every head scheduled on it at once** — the head is the leading (batch)
axis of each operand, as it is a grid dimension in FlashInfer (§3.2.3) —
using the FlashAttention-2 loop structure: an online-softmax sweep over KV
tiles with running ``(m, d, acc)`` renormalization, returning the partial
attention state ``(O, LSE)`` for the chunk (§2.2: the canonical kernel
output).  For ``use_softmax=False`` variants the sweep degenerates to masked
weighted accumulation and states compose by addition.  Q/K/V transform
functors keep their 2-D tile contract: when one is declared it is applied
head by head, otherwise no per-head code is rendered at all.

A KV tile that the mask hides from every row leaves the running state as it
was (``p = 0``, ``rescale`` is 1, or 0 while ``d`` and ``acc`` are still
zero; the sum form adds ``0 @ vt``), so a kernel with a ``logits_mask``
functor tests for it as soon as the mask is known and moves on — what
skipping an empty block of the sparse format is in FlashInfer (§3.1).
"""

from __future__ import annotations

from typing import Optional

MODULE_TEMPLATE = '''\
"""JIT-generated attention kernel for variant {variant_name!r}."""
{helpers}

def {kernel_name}(q, k, v, q_pos, kv_pos, q_head, kv_head, params,
                  sm_scale, causal, kv_tile):
    """Attention tile kernel specialized for variant {variant_name!r}.

    Processes one query tile against one gathered KV chunk for a stack of
    heads and returns their partial attention states ``(o, lse)``.

    q : (heads, rows, head_dim) float — query tile (rows may fuse GQA groups)
    k, v : (heads, kv_len, head_dim) float — gathered KV chunk per head
    q_pos : (rows,) / kv_pos : (kv_len,) int64 absolute positions, kv_pos
    ascending; q_head : (heads, rows) int64; kv_head : (heads,) int64;
    params : bound variant parameters; sm_scale : float; causal : bool;
    kv_tile : int — inner tile size of the online sweep.  Under ``causal``
    the sweep ends with the last KV tile some row can see: whole tiles only,
    so every tile it does visit keeps its length and its operands.  The mask
    never sees ``k``, so it is evaluated first; a variant with a mask functor
    skips — before any load, transform or product — each tile it hides whole.
    """
    heads, rows, head_dim = q.shape
    kv_len = k.shape[1]
    if causal and rows:
        visible = int(np.count_nonzero(kv_pos <= q_pos.max()))
        kv_len = min(kv_len, -(-visible // kv_tile) * kv_tile)
    q = np.asarray(q, dtype=np.float64)
{apply_query_transform}
    m = np.full((heads, rows), -np.inf)
    d = np.zeros((heads, rows))
    acc = np.zeros((heads, rows, head_dim))
    q_pos_col = q_pos[:, None]
    q_head_col = q_head[:, :, None]
    kv_head_col = kv_head[:, None, None]
    for t0 in range(0, kv_len, kv_tile):
        t1 = min(t0 + kv_tile, kv_len)
        kv_pos_t = kv_pos[t0:t1]
        kv_pos_row = kv_pos_t[None, :]
        keep = np.ones((heads, rows, t1 - t0), dtype=bool)
        if causal:
            keep &= q_pos_col >= kv_pos_row
{apply_logits_mask}
        kt = np.asarray(k[:, t0:t1], dtype=np.float64, order="C")
        vt = np.asarray(v[:, t0:t1], dtype=np.float64, order="C")
{apply_key_transform}
{apply_value_transform}
        logits = (q @ kt.transpose(0, 2, 1)) * sm_scale
{apply_logits_transform}
{accumulate}
{finalize}
'''

SOFTMAX_ACCUMULATE = '''\
        logits = np.where(keep, logits, -np.inf)
        m_new = np.maximum(m, logits.max(axis=-1) if logits.size else -np.inf)
        m_safe = np.where(np.isneginf(m_new), 0.0, m_new)
        p = np.exp(logits - m_safe[..., None])
        rescale = np.exp(np.where(np.isneginf(m), -np.inf, m - m_safe))
        d = d * rescale + p.sum(axis=-1)
        acc = acc * rescale[..., None] + p @ vt
        m = m_new
'''

SOFTMAX_FINALIZE = '''\
    denom = np.where(d == 0.0, 1.0, d)
    o = acc / denom[..., None]
    with np.errstate(divide="ignore"):
        lse = np.where(d == 0.0, -np.inf, m + np.log(denom))
    return o, lse
'''

SUM_ACCUMULATE = '''\
        weights = np.where(keep, logits, 0.0)
        acc = acc + weights @ vt
'''

SUM_FINALIZE = '''\
    return acc, np.zeros((heads, rows))
'''

#: ``functor -> (helper definition, line applying it in the kernel body)``.
#: Q/K/V transforms see one head's 2-D tile and that head's index — per-row
#: query heads, one ``int`` KV head — so they loop over the head axis; the
#: logits functors broadcast over it.
_HELPER_TEMPLATES = {
    "query_transform": (
        "def _query_transform(q, q_pos, head, params):\n    return ({expr})\n",
        "    q = np.stack([np.asarray(_query_transform(q[h], q_pos, q_head[h], params),"
        " dtype=np.float64) for h in range(heads)])",
    ),
    "key_transform": (
        "def _key_transform(k, kv_pos, head, params):\n    return ({expr})\n",
        "        kt = np.stack([np.asarray(_key_transform(kt[h], kv_pos_t, kh, params),"
        " dtype=np.float64) for h, kh in enumerate(kv_head.tolist())])",
    ),
    "value_transform": (
        "def _value_transform(v, kv_pos, head, params):\n    return ({expr})\n",
        "        vt = np.stack([np.asarray(_value_transform(vt[h], kv_pos_t, kh, params),"
        " dtype=np.float64) for h, kh in enumerate(kv_head.tolist())])",
    ),
    "logits_transform": (
        "def _logits_transform(logits, q_pos, kv_pos, q_head, kv_head, params):\n"
        "    return ({expr})\n",
        "        logits = _logits_transform(logits, q_pos_col, kv_pos_row, "
        "q_head_col, kv_head_col, params)",
    ),
    "logits_mask": (
        "def _logits_mask(q_pos, kv_pos, q_head, kv_head, params):\n    return ({expr})\n",
        "        keep &= _logits_mask(q_pos_col, kv_pos_row, q_head_col, kv_head_col, params)\n"
        "        if not keep.any():\n"
        "            continue",
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
