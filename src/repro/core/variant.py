"""Attention variant specification (paper §3.2.3, Figure 5).

A variant is declared as a set of *functor expressions* plus extra
parameters, mirroring FlashInfer's CUDA variant classes: the JIT compiler
inlines each functor into the kernel template and compiles a specialized
kernel, so undeclared functors cost nothing (identity transforms are
compiled out, exactly like the CUDA specialization story).

Functors are Python expression strings evaluated over *tiles* (the
vectorized analog of FlashInfer's per-element CUDA functors — same
semantics, array-at-a-time for NumPy efficiency).  Bound names:

========================  =====================================================
``q``, ``k``, ``v``       the tile being transformed, always 2-D
                          ``(rows, head_dim)``: one head's tile at a time
``logits``                score tiles ``(heads, q_rows, kv_len)`` (after
                          ``sm_scale``) — every head of the tile at once
``o``                     output tile ``(q_rows, head_dim)``
``q_pos`` / ``kv_pos``    absolute positions, ``(q_rows, 1)`` / ``(1, kv_len)``
                          in logits functors, 1-D in q/k/v/o transforms
``head``                  q/k/v/o transforms: the tile's head — an ``int`` for
                          ``k``/``v``/``o``, a ``(rows,)`` array for ``q``
                          (a fused GQA tile carries one query head per row)
``q_head`` / ``kv_head``  logits functors: ``(heads, q_rows, 1)`` /
                          ``(heads, 1, 1)`` index arrays that broadcast
                          against ``logits`` (``params.slopes[q_head]``)
``params``                namespace of declared parameters
``np``                    NumPy
========================  =====================================================

``q_rows`` counts the rows of a fused tile (``rows · g`` under GQA head-group
fusion).  A mask that does not depend on the head may return ``(q_rows,
kv_len)``; it broadcasts over the head axis.

``logits_mask`` returns a boolean tile (``True`` = keep) combined with the
structural causal mask; masked scores become ``-inf`` before softmax (or 0
weight for non-softmax variants).  Setting ``use_softmax=False`` switches
the whole pipeline — including partial-state composition — to plain
summation (FlashSigmoid support).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, Mapping, Optional, Tuple

_FUNCTOR_VARS = {
    "query_transform": ("q", "q_pos", "head", "params", "np"),
    "key_transform": ("k", "kv_pos", "head", "params", "np"),
    "value_transform": ("v", "kv_pos", "head", "params", "np"),
    "logits_transform": ("logits", "q_pos", "kv_pos", "q_head", "kv_head", "params", "np"),
    "logits_mask": ("q_pos", "kv_pos", "q_head", "kv_head", "params", "np"),
    "output_transform": ("o", "q_pos", "head", "params", "np"),
}


@dataclass(frozen=True)
class ParamDecl:
    """An additional variant parameter (the "additional vars" of Figure 5)."""

    name: str
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"parameter name {self.name!r} is not an identifier")


@dataclass(frozen=True)
class AttentionVariant:
    """Declarative attention-variant specification.

    Any functor left ``None`` is compiled out of the kernel.  The spec is
    hashable; the JIT cache is keyed on it together with the kernel traits.
    """

    name: str
    params: Tuple[ParamDecl, ...] = ()
    query_transform: Optional[str] = None
    key_transform: Optional[str] = None
    value_transform: Optional[str] = None
    logits_transform: Optional[str] = None
    logits_mask: Optional[str] = None
    output_transform: Optional[str] = None
    use_softmax: bool = True

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"variant name {self.name!r} is not an identifier")
        seen = set()
        for p in self.params:
            if p.name in seen:
                raise ValueError(f"duplicate parameter {p.name!r}")
            seen.add(p.name)
        for functor, allowed in _FUNCTOR_VARS.items():
            src = getattr(self, functor)
            if src is None:
                continue
            try:
                compile(src, f"<{self.name}.{functor}>", "eval")
            except SyntaxError as e:
                raise ValueError(
                    f"variant {self.name!r}: {functor} is not a valid expression: {e}"
                ) from e

    def bind_params(self, values: Optional[Mapping[str, Any]] = None) -> SimpleNamespace:
        """Resolve parameter values against declarations.

        Unknown names raise; undeclared-but-required (no default, no value)
        raise — the same contract a CUDA kernel's typed parameter struct
        enforces at compile time.
        """
        values = dict(values or {})
        ns: Dict[str, Any] = {}
        for p in self.params:
            if p.name in values:
                ns[p.name] = values.pop(p.name)
            elif p.default is not None:
                ns[p.name] = p.default
            else:
                raise ValueError(f"variant {self.name!r}: parameter {p.name!r} not provided")
        if values:
            raise ValueError(
                f"variant {self.name!r}: unknown parameters {sorted(values)}"
            )
        return SimpleNamespace(**ns)

    def cache_key(self) -> Tuple:
        """Stable identity for the JIT kernel cache."""
        return (
            self.name,
            tuple(p.name for p in self.params),
            self.query_transform,
            self.key_transform,
            self.value_transform,
            self.logits_transform,
            self.logits_mask,
            self.output_transform,
            self.use_softmax,
        )


#: The vanilla softmax attention variant: everything compiled out.
VANILLA = AttentionVariant(name="vanilla")


def compose_variants(name: str, a: AttentionVariant, b: AttentionVariant) -> AttentionVariant:
    """Combine two variants into one kernel (e.g. soft-cap + sliding window).

    Rules: parameters merge (names must not collide); ``logits_mask``
    expressions AND together; every other functor may be supplied by at
    most one side; ``use_softmax`` must agree.
    """
    if a.use_softmax != b.use_softmax:
        raise ValueError("cannot compose variants with different use_softmax")
    names_a = {p.name for p in a.params}
    clash = names_a & {p.name for p in b.params}
    if clash:
        raise ValueError(f"parameter name collision: {sorted(clash)}")

    def pick(functor: str) -> Optional[str]:
        fa, fb = getattr(a, functor), getattr(b, functor)
        if fa is not None and fb is not None:
            raise ValueError(f"both variants define {functor}; compose manually")
        return fa if fa is not None else fb

    mask_a, mask_b = a.logits_mask, b.logits_mask
    if mask_a is not None and mask_b is not None:
        mask = f"(({mask_a}) & ({mask_b}))"
    else:
        mask = mask_a if mask_a is not None else mask_b

    return AttentionVariant(
        name=name,
        params=a.params + b.params,
        query_transform=pick("query_transform"),
        key_transform=pick("key_transform"),
        value_transform=pick("value_transform"),
        logits_transform=pick("logits_transform"),
        logits_mask=mask,
        output_transform=pick("output_transform"),
        use_softmax=a.use_softmax,
    )
