"""Machine-speed probe: fixed benchmark-side work, timed between operations.

On a shared host the same code runs up to about twice as slow for seconds to
minutes at a time, as neighbours load the cores, caches and memory. The probe
times the same fixed work each time it is called (an interpreter loop, tiny
numpy slices and a small matrix product, the three kinds of work tdcnet's
layers do), so its time tracks how fast the machine currently runs that mix.
An operation timed between two probes is scaled by REF_MS over their mean:
its time at the probe's reference speed. The probe does not touch tdcnet, so
a change to the library moves the scaled time by the same share as the
measured one.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REF_MS = 1.8                # probe time the scaled figures refer to, about
                            # its median on the 2-vCPU VM of baseline.json

_rng = np.random.default_rng(0)
_SLICES = _rng.normal(size=(8, 16, 16))
_LHS = _rng.normal(size=(64, 64))
_RHS = _rng.normal(size=(64, 2048))


def _work() -> None:
    s = 0
    for i in range(10_000):
        s += i * i
    acc = np.zeros((8, 8))
    for k in range(150):
        acc += 0.5 * _SLICES[k % 8, k % 5:k % 5 + 8, k % 7:k % 7 + 8]
    _LHS @ _RHS


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two probes."""
    return REF_MS * 2e-3 / (before + after)
