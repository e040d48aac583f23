"""Workload generators for the evaluation.

The paper's end-to-end experiments use the ShareGPT dataset and a synthetic
"Variable" workload (§4.1); kernel experiments use constant / uniform /
Zipf-skewed length distributions (§4.2).  The real datasets only
contribute *length distributions* to the experiments, so we substitute
synthetic marginals (documented in DESIGN.md):

* ShareGPT-like — log-normal prompt and output lengths fit to the commonly
  reported ShareGPT statistics (mean prompt ≈ 160, mean output ≈ 330).
* Variable — prompt lengths uniform in [512, 2048] as stated in §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class Request:
    """One inference request.

    ``prefix_group``/``prefix_len`` declare that the first ``prefix_len``
    prompt tokens are identical across every request with the same group id
    (a shared system prompt) — the structure a radix-tree prefix cache
    exploits (§5.4, RadixAttention).
    """

    arrival: float
    prompt_len: int
    output_len: int
    n: int = 1  # parallel generations (the OpenAI "n" parameter, §4.4)
    prefix_group: Optional[int] = None
    prefix_len: int = 0
    #: Relative deadline (seconds after arrival) after which the engine may
    #: shed this request; ``None`` falls back to the engine-wide
    #: ``ResilienceConfig.deadline`` (which may also be ``None``: no limit).
    deadline: Optional[float] = None
    #: Scheduling weight consumed by the ``priority`` policy (higher runs
    #: first); ignored by ``fcfs``.
    priority: int = 0
    #: Cluster-global request id, assigned by the data-parallel router
    #: before requests are split across replicas.  When set, token ids are
    #: keyed by ``rid`` instead of the replica-local request index, so a
    #: replica serving any subset of the workload emits exactly the tokens
    #: the single-engine run would.  ``None`` (the default) preserves the
    #: single-engine behavior bit for bit.
    rid: Optional[int] = None
    #: Tenant id consumed by the overload front door's per-tenant rate
    #: limiting (:mod:`repro.serving.overload`); untagged requests
    #: (``None``) hash deterministically to ``rid % tenants`` at the door.
    tenant: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prompt_len <= 0 or self.output_len <= 0 or self.n <= 0:
            raise ValueError("prompt_len, output_len and n must be positive")
        if self.prefix_len < 0 or self.prefix_len > self.prompt_len:
            raise ValueError("prefix_len must be in [0, prompt_len]")
        if self.prefix_len and self.prefix_group is None:
            raise ValueError("prefix_len requires a prefix_group")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.tenant is not None and self.tenant < 0:
            raise ValueError("tenant must be >= 0")


def poisson_arrivals(num_requests: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival times for a Poisson process at ``rate`` requests/second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    return np.cumsum(gaps)


def _lognormal_lengths(
    rng: np.random.Generator, n: int, mu: float, sigma: float, lo: int, hi: int
) -> np.ndarray:
    x = rng.lognormal(mu, sigma, size=n)
    return np.clip(np.rint(x), lo, hi).astype(np.int64)


def sharegpt_workload(
    num_requests: int,
    rate: float,
    seed: SeedLike = 0,
    n: int = 1,
) -> List[Request]:
    """ShareGPT-like conversation lengths with Poisson arrivals."""
    rng = new_rng(seed)
    arrivals = poisson_arrivals(num_requests, rate, rng)
    prompts = _lognormal_lengths(rng, num_requests, mu=4.6, sigma=1.0, lo=4, hi=4096)
    outputs = _lognormal_lengths(rng, num_requests, mu=5.3, sigma=0.8, lo=4, hi=2048)
    return [
        Request(float(a), int(p), int(o), n=n)
        for a, p, o in zip(arrivals, prompts, outputs)
    ]


def variable_workload(num_requests: int, rate: float, seed: SeedLike = 0) -> List[Request]:
    """The §4.1 synthetic workload: prompt lengths uniform in [512, 2048],
    outputs a quarter of that range."""
    rng = new_rng(seed)
    arrivals = poisson_arrivals(num_requests, rate, rng)
    prompts = rng.integers(512, 2049, size=num_requests)
    outputs = rng.integers(128, 513, size=num_requests)
    return [Request(float(a), int(p), int(o)) for a, p, o in zip(arrivals, prompts, outputs)]


def shared_prefix_workload(
    num_requests: int,
    rate: float,
    seed: SeedLike = 0,
    num_groups: int = 3,
    prefix_len: int = 2048,
) -> List[Request]:
    """Many-users-few-system-prompts workload (the radix-cache target).

    Every request draws one of ``num_groups`` shared system prompts of
    ``prefix_len`` tokens, followed by a per-user suffix of 32-256 tokens,
    and decodes 8-64 tokens — with the defaults well over 70% of all
    prompt tokens are shared-prefix tokens,
    the regime where prefix caching plus cascade attention pays off.
    """
    if num_groups <= 0 or prefix_len <= 0:
        raise ValueError("num_groups and prefix_len must be positive")
    rng = new_rng(seed)
    arrivals = poisson_arrivals(num_requests, rate, rng)
    groups = rng.integers(0, num_groups, size=num_requests)
    suffixes = rng.integers(32, 257, size=num_requests)
    outputs = rng.integers(8, 65, size=num_requests)
    return [
        Request(
            float(a), prefix_len + int(s), int(o),
            prefix_group=int(g), prefix_len=prefix_len,
        )
        for a, g, s, o in zip(arrivals, groups, suffixes, outputs)
    ]


def bursty_workload(
    num_requests: int,
    rate: float,
    seed: SeedLike = 0,
    tenants: int = 4,
    burst: float = 3.0,
    burst_len: float = 0.25,
    burst_every: float = 1.5,
    premium_tenants: int = 1,
) -> List[Request]:
    """Bursty/diurnal tenant-tagged arrivals (the overload substrate).

    An inhomogeneous Poisson process generated by thinning: the base
    ``rate`` is modulated by a sinusoidal "diurnal" factor
    ``1 + 0.4 * sin(2*pi*t / 2 s)`` and multiplied by ``burst``
    inside seeded burst windows (gaps between windows ~ Exp(burst_every),
    each ``burst_len`` seconds long) — sustained saturation with quiet
    lulls in between, exactly the shape breakers and brownout need to
    both trip *and* recover.  Lengths follow the ShareGPT-like
    marginals; every request carries a seeded ``tenant`` tag, and the
    first ``premium_tenants`` tenants get ``priority=1`` (the tier the
    brownout shed rung protects).
    """
    if not (0 < rate < np.inf):
        raise ValueError("rate must be positive and finite")
    if tenants < 1 or not 0 <= premium_tenants <= tenants:
        raise ValueError("need tenants >= 1 and 0 <= premium_tenants <= tenants")
    if not (1.0 <= burst < np.inf):
        raise ValueError("need a finite burst >= 1")
    if burst_len <= 0 or burst_every <= 0:
        raise ValueError("burst_len and burst_every must be positive")
    rng = new_rng(seed)
    amplitude, period = 0.4, 2.0
    lam_max = rate * (1.0 + amplitude) * burst
    out: List[Request] = []
    t = 0.0
    burst_t = float(rng.exponential(burst_every))  # next burst-window start
    while len(out) < num_requests:
        t += float(rng.exponential(1.0 / lam_max))
        while t >= burst_t + burst_len:
            burst_t += burst_len + float(rng.exponential(burst_every))
        lam = rate * (1.0 + amplitude * float(np.sin(2.0 * np.pi * t / period)))
        if burst_t <= t:
            lam *= burst
        if rng.random() * lam_max > lam:
            continue  # thinned candidate
        prompt = _lognormal_lengths(rng, 1, mu=4.6, sigma=1.0, lo=4, hi=4096)[0]
        output = _lognormal_lengths(rng, 1, mu=5.3, sigma=0.8, lo=4, hi=2048)[0]
        tenant = int(rng.integers(tenants))
        out.append(
            Request(
                float(t), int(prompt), int(output),
                priority=1 if tenant < premium_tenants else 0,
                tenant=tenant,
            )
        )
    return out


#: Prompt length at/above which :func:`mixed_disagg_workload` requests
#: count as "long" (the chatty class is everything below it).
MIXED_LONG_PROMPT_THRESHOLD = 512


def mixed_disagg_workload(
    num_requests: int,
    rate: float,
    seed: SeedLike = 0,
    chatty_prompt_hi: int = 128,
) -> List[Request]:
    """Mixed long-prompt + chatty workload (the disaggregation target).

    Two interleaved request classes on one Poisson arrival process: rare
    long-prompt summarization jobs (2048-4096 prompt tokens, 8-32 output
    tokens) and a 75% majority of chatty sessions (32-``chatty_prompt_hi``
    prompt tokens, 32-128 output tokens).  Colocated,
    each long prefill step blocks every chatty stream sharing its replica
    — the ITL spikes DistServe-style prefill/decode disaggregation
    removes.  Class membership is recoverable from the lengths alone: a
    prompt at or above :data:`MIXED_LONG_PROMPT_THRESHOLD` tokens is
    "long", anything below is "chatty" (the generators' ranges keep a
    wide gap around the threshold).
    """
    if not chatty_prompt_hi < MIXED_LONG_PROMPT_THRESHOLD:
        raise ValueError(
            "class prompt ranges must straddle MIXED_LONG_PROMPT_THRESHOLD "
            "so per-class metrics stay recoverable from the lengths"
        )
    rng = new_rng(seed)
    arrivals = poisson_arrivals(num_requests, rate, rng)
    chatty = rng.random(num_requests) < 0.75
    out: List[Request] = []
    for a, is_chatty in zip(arrivals, chatty):
        if is_chatty:
            prompt = int(rng.integers(32, chatty_prompt_hi + 1))
            output = int(rng.integers(32, 129))
        else:
            prompt = int(rng.integers(2048, 4097))
            output = int(rng.integers(8, 33))
        out.append(Request(float(a), prompt, output))
    return out


# -- kernel-benchmark length distributions (§4.2) -----------------------------


def constant_lengths(batch_size: int, length: int) -> np.ndarray:
    return np.full(batch_size, length, dtype=np.int64)


def uniform_lengths(
    batch_size: int, lo: int, hi: int, seed: SeedLike = 0
) -> np.ndarray:
    return new_rng(seed).integers(lo, hi + 1, size=batch_size).astype(np.int64)


def zipf_lengths(
    batch_size: int, mean: int, seed: SeedLike = 0, a: float = 2.0
) -> np.ndarray:
    """Zipf-distributed lengths rescaled to the requested mean, at least 16
    (§4.2: "skewed (Zipf distribution with average length 1024)")."""
    rng = new_rng(seed)
    x = rng.zipf(a, size=batch_size).astype(np.float64)
    x = x / x.mean() * mean
    return np.maximum(np.rint(x), 16).astype(np.int64)
