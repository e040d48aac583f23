"""Disaggregated prefill/decode serving: role pools + live KV handoff.

DistServe/Mooncake-style disaggregation for the cluster engine: the dp
replicas are partitioned into a *prefill pool* and a *decode pool*
(:func:`parse_roles` / :attr:`ClusterConfig.roles`).  Prefill replicas
run (chunked) prefill only — the moment a prompt finishes and would
spawn a decode stream, the :class:`HandoffSink` intercepts the spawn,
exports the sequence's live KV pages
(:meth:`~repro.kvcache.paged.PagedKVCache.export_pages`) and records a
:class:`KVHandoff` instead of decoding locally.  The
:class:`DisaggCoordinator` then ships every handoff to its paired decode
replica as checksummed chunks over priced topology links
(``p2p_send(kind="handoff")`` through the
:class:`~repro.cluster.failover.KVMigrator` chunk protocol: bounded
retry + exponential backoff on injected link faults, outright refusal on
checksum tamper), and the decode replica imports the pages — a
zero-compute context allocation — and resumes the stream.

Token-exactness is by construction: token ids are a pure function of
``(rid, generation, position)``, the handoff carries the first token the
prefill replica emitted, and the decode replica continues from position
1 — so the disaggregated cluster emits the workload's closed-form
tokens bit for bit (``token_divergence=0``), whatever the pools,
topology or link faults.  The win is interference isolation: long
prompts never share a step with chatty decode streams, so decode-pool
ITL stays flat while the prefill pool absorbs the TTFT work.

Prefix-cache composition: when prefix caching is on, the coordinator
remembers which ``(decode replica, prefix_group)`` prefix pages have
already been shipped and skips re-shipping them on later handoffs of the
same group (``handoff_pages_skipped``) — the radix tree on the decode
side already holds those pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.failover import FailoverConfig, KVMigrator

__all__ = [
    "DisaggCoordinator",
    "DisaggReport",
    "HandoffImport",
    "HandoffSink",
    "KVHandoff",
    "parse_roles",
]


def parse_roles(
    roles, dp: Optional[int] = None
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Normalize a role spec into ``(prefill_ids, decode_ids)``.

    Accepted spellings::

        "prefill=2,decode=2"                  # pool sizes (CLI form)
        {"prefill": 2, "decode": 2}           # pool sizes
        {"prefill": [0, 1], "decode": [2, 3]} # explicit replica ids

    Size counts assign the first ``n_prefill`` replicas to the prefill
    pool and the rest to decode.  The pools must be disjoint, non-empty,
    and together cover exactly ``range(dp)``; ``dp=None`` takes the
    cluster size from the pools themselves.
    """
    if isinstance(roles, str):
        spec: Dict[str, object] = {}
        for part in roles.split(","):
            key, sep, val = part.strip().partition("=")
            try:
                if not sep or key.strip() not in ("prefill", "decode"):
                    raise ValueError
                spec[key.strip()] = int(val)
            except ValueError:
                raise ValueError(
                    f"bad roles spec {roles!r}; expected "
                    f"'prefill=N,decode=M'"
                ) from None
        roles = spec
    if not isinstance(roles, dict) or set(roles) != {"prefill", "decode"}:
        raise ValueError(
            f"roles must name exactly the 'prefill' and 'decode' pools, "
            f"got {roles!r}"
        )
    pf, dc = roles["prefill"], roles["decode"]
    if isinstance(pf, int) and isinstance(dc, int):
        if pf < 1 or dc < 1:
            raise ValueError("each role pool needs at least one replica")
        if dp is None:
            dp = pf + dc
        if pf + dc != dp:
            raise ValueError(
                f"roles assign {pf}+{dc} replicas but the cluster has dp={dp}"
            )
        prefill = tuple(range(pf))
        decode = tuple(range(pf, dp))
    else:
        prefill = tuple(int(r) for r in pf)
        decode = tuple(int(r) for r in dc)
        if not prefill or not decode:
            raise ValueError("each role pool needs at least one replica")
        if set(prefill) & set(decode):
            raise ValueError(
                f"roles overlap: {sorted(set(prefill) & set(decode))}"
            )
        if dp is None:
            dp = len(prefill) + len(decode)
        if set(prefill) | set(decode) != set(range(dp)):
            raise ValueError(
                f"roles must cover every replica in range({dp}) exactly"
            )
    return prefill, decode


@dataclass
class KVHandoff:
    """One finished prefill leaving its replica for a decode replica."""

    rid: int
    gen: int
    source: int
    target: int
    #: Simulated time the prefill replica emitted the first token (the
    #: handoff leaves the wire no earlier than this).
    t_ready: float
    #: The original request arrival (TTFT stays measured from here).
    arrival: float
    #: First token id, emitted by the prefill replica at ``t_ready``.
    tok0: int
    #: KV length of the handed-off sequence (the full prompt).
    context_len: int
    #: Remaining output tokens the decode replica must produce.
    remaining: int
    #: The sequence's page ids (:meth:`PagedKVCache.export_pages`).
    pages: List[int]
    #: Modeled fp16 K+V bytes per page on the source cache.
    page_kv_bytes: float
    #: Declared shared-prefix group (prefix-skip dedup key), or ``None``.
    prefix_group: Optional[int] = None
    #: Whole pages of the declared shared prefix at the head of
    #: ``pages`` — the slice a prefix-cache hit lets us skip.
    prefix_pages: int = 0


@dataclass
class HandoffImport:
    """A shipped handoff, as the decode replica sees it."""

    rid: int
    gen: int
    #: Original request arrival (carried through so TTFT/SLO accounting
    #: never resets at the handoff boundary).
    arrival: float
    #: When the prefill replica emitted the first token.
    first_token_time: float
    #: When the last handoff chunk cleared the wire — the decode replica
    #: cannot resume the stream before this.
    t_available: float
    tok0: int
    context_len: int
    remaining: int


class HandoffSink:
    """Per-prefill-replica spawn interceptor.

    Installed as ``engine.handoff_sink``; the postprocessor calls it
    instead of spawning a local decode stream.  Re-runs of the same
    replica (crash-harness restores, failover takeovers) re-fire spawns
    for the steps lost since the last snapshot — the ``(rid, gen)`` key
    dedups those, keeping the last (re-executed) firing.
    """

    def __init__(
        self,
        replica: int,
        decode_assignments: Dict[int, int],
        prefix_caching: bool = False,
    ):
        self.replica = replica
        self.decode_assignments = decode_assignments
        self.prefix_caching = prefix_caching
        #: ``(rid, gen) -> KVHandoff``, insertion-ordered.
        self.handoffs: Dict[Tuple[int, int], KVHandoff] = {}

    def __call__(self, req, idx, gen, seq_id, t, stream, cache) -> None:
        from repro.serving.batching import token_id

        rid = idx if req.rid is None else req.rid
        pages = cache.export_pages(cache.seq_pages(seq_id))
        trace = stream.trace
        tok0 = (
            trace.tokens[0] if trace.tokens else token_id(rid, gen, 0)
        )
        prefix_pages = 0
        if self.prefix_caching and req.prefix_group is not None:
            prefix_pages = min(len(pages), req.prefix_len // cache.page_size)
        self.handoffs[(rid, gen)] = KVHandoff(
            rid=rid, gen=gen, source=self.replica,
            target=self.decode_assignments[rid],
            t_ready=t, arrival=req.arrival, tok0=tok0,
            context_len=cache.seq_len(seq_id),
            # Carries any brownout clamp the prefill replica applied.
            remaining=stream.remaining,
            pages=pages, page_kv_bytes=float(cache.page_kv_bytes),
            prefix_group=req.prefix_group, prefix_pages=prefix_pages,
        )


@dataclass
class DisaggReport:
    """Counters for one disaggregated run (``handoff_*`` summary keys)."""

    requests: int = 0
    pages: int = 0
    wire_bytes: float = 0.0
    chunks: int = 0
    retries: int = 0
    pages_skipped: int = 0
    seconds: float = 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "handoff_requests": float(self.requests),
            "handoff_pages": float(self.pages),
            "handoff_bytes": float(self.wire_bytes),
            "handoff_chunks": float(self.chunks),
            "handoff_retries": float(self.retries),
            "handoff_pages_skipped": float(self.pages_skipped),
            "handoff_transfer_s": float(self.seconds),
        }


class DisaggCoordinator:
    """Ship every recorded handoff and build the decode-side imports.

    One instance per cluster run.  :meth:`ship` walks the handoffs in
    deterministic ``(t_ready, rid, gen)`` order and sends each through
    :meth:`KVMigrator.transfer <repro.cluster.failover.KVMigrator.transfer>`
    with ``kind="handoff"``: the handoff descriptor is the control chunk,
    the exported page ids (minus any prefix the decode replica already
    holds) are the page chunks, and link faults, backoff and checksum
    refusal behave exactly as they do for a snapshot migration.
    """

    def __init__(
        self,
        topology,
        config: Optional[FailoverConfig] = None,
        fault_plan=None,
        prefix_caching: bool = False,
    ):
        self.prefix_caching = prefix_caching
        self._migrator = KVMigrator(topology, config, fault_plan)
        #: ``(target, prefix_group)`` pairs whose prefix pages already
        #: shipped — later handoffs of the group skip that head slice.
        self._shipped_prefixes: set = set()

    def ship(
        self,
        handoffs: Sequence[KVHandoff],
        report: DisaggReport,
        corrupt_handoffs: Sequence[int] = (),
    ) -> Dict[int, List[HandoffImport]]:
        """Transfer ``handoffs`` in deterministic order; returns the
        imports grouped by decode replica.  ``corrupt_handoffs`` is a
        test hook tampering the named handoff indices in flight."""
        corrupt = frozenset(int(i) for i in corrupt_handoffs)
        ordered = sorted(handoffs, key=lambda h: (h.t_ready, h.rid, h.gen))
        imports: Dict[int, List[HandoffImport]] = {}
        for hi, h in enumerate(ordered):
            pages = h.pages
            skipped = 0
            if (
                self.prefix_caching
                and h.prefix_group is not None
                and h.prefix_pages > 0
            ):
                key = (h.target, h.prefix_group)
                if key in self._shipped_prefixes:
                    # The decode replica's radix tree already holds the
                    # group's prefix pages: ship only the suffix.
                    skipped = h.prefix_pages
                    pages = pages[skipped:]
                else:
                    self._shipped_prefixes.add(key)
            descriptor = {
                "rid": h.rid, "gen": h.gen,
                "source": h.source, "target": h.target,
                "tok0": h.tok0, "context_len": h.context_len,
                "remaining": h.remaining, "arrival": h.arrival,
                "first_token_time": h.t_ready,
                "pages": pages, "pages_skipped": skipped,
            }
            _, _, sent = self._migrator.transfer(
                descriptor, pages, h.page_kv_bytes, h.t_ready, "handoff",
                h.source, h.target, corrupt_control=hi in corrupt,
            )
            report.requests += 1
            report.pages += sent.pages
            report.wire_bytes += sent.wire_bytes
            report.chunks += sent.chunks
            report.retries += sent.retries
            report.pages_skipped += skipped
            report.seconds += sent.seconds
            imports.setdefault(h.target, []).append(
                HandoffImport(
                    rid=h.rid, gen=h.gen, arrival=h.arrival,
                    first_token_time=h.t_ready, t_available=sent.t_end,
                    tok0=h.tok0, context_len=h.context_len,
                    remaining=h.remaining,
                )
            )
        return imports
