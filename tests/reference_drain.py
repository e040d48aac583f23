"""The event-driven shared-bandwidth drain, kept as the test oracle.

``reference_drain`` is ``PersistentKernelExecutor._drain`` as
``repro.gpu.executor`` shipped it before the drain became a closed form,
moved here verbatim (only ``self`` is renamed): advance to the next stream
completion, re-split the bandwidth among the jobs that still hold bytes,
repeat.  ``tests/test_drain_equivalence.py`` requires the closed form to
agree with it to 1e-9 relative and on every discrete outcome; it can be
monkeypatched over ``PersistentKernelExecutor._drain`` as is.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.executor import _EPS


def reference_drain(executor, serial: np.ndarray, mem: np.ndarray, resident: int) -> np.ndarray:
    """All jobs start at t=0; return per-job finish times.

    Serial streams progress at rate 1; memory streams share the device
    bandwidth (equal split among jobs with bytes remaining, capped per
    CTA).  A job finishes when both streams drain.
    """
    n = serial.size
    rem_s = serial.astype(np.float64).copy()
    rem_m = mem.astype(np.float64).copy()
    finish = np.zeros(n)
    cap = executor._cta_bw_cap(resident)
    peak = executor.spec.peak_bandwidth_bytes
    t = 0.0
    active = (rem_s > _EPS) | (rem_m > _EPS)
    while active.any():
        mem_active = active & (rem_m > _EPS)
        n_mem = int(mem_active.sum())
        bw = min(cap, peak / n_mem) if n_mem else 0.0
        # Next stream completion.
        dt = np.inf
        s_live = active & (rem_s > _EPS)
        if s_live.any():
            dt = min(dt, float(rem_s[s_live].min()))
        if n_mem and bw > 0:
            dt = min(dt, float(rem_m[mem_active].min()) / bw)
        if not np.isfinite(dt):
            break
        dt = max(dt, _EPS)
        t += dt
        rem_s[s_live] -= dt
        if n_mem:
            rem_m[mem_active] -= bw * dt
        np.clip(rem_s, 0.0, None, out=rem_s)
        np.clip(rem_m, 0.0, None, out=rem_m)
        done = active & (rem_s <= _EPS) & (rem_m <= _EPS)
        finish[done] = t
        active &= ~done
    return finish
