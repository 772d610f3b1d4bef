"""How fast the host runs right now, from a fixed reference computation.

The benchmark's host shares its cores with other tenants, and its speed
changes by up to 1.7x in spells of seconds to minutes. The client times the
reference below between requests, and divides each request's time by the
reference time around it, so the end-to-end timings no longer depend on
which spell a run fell into. The reference touches nothing of the package:
small numpy linear algebra and a Python loop over a dict, the same kind of
work as the package's.

Import this module only after ``checkout.pin_blas_threads``: it imports numpy.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# What the reference takes on an uncontended core of the Intel Xeon host this
# benchmark was tuned on. A normalised time is the time the request would take
# on a host where the reference takes exactly this long.
REFERENCE_S = 0.5e-3
# Reference times on each side of a request that set its speed: a median over
# a few of them is not moved by one probe that an interrupt slowed.
WINDOW = 3

_SYMMETRIC = np.random.default_rng(0).standard_normal((5, 5))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def _reference() -> float:
    total = 0.0
    for _ in range(25):
        total += float(np.linalg.eigvalsh(_SYMMETRIC)[0])
    buckets: dict[int, int] = {}
    for i in range(2500):
        buckets[i & 63] = buckets.get(i & 63, 0) + i * i
    return total + buckets[0]


def reference_seconds() -> float:
    """One timing of the reference, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalised(latencies: list[float], references: list[float]) -> list[float]:
    """Each latency scaled to the reference host.

    ``references[i]`` was timed just before request ``i`` and
    ``references[i + 1]`` just after it, so there is one more reference than
    latencies.
    """
    if len(references) != len(latencies) + 1:
        raise ValueError("need one reference before each request and one after the last")
    out = []
    for i, latency in enumerate(latencies):
        around = references[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(latency * REFERENCE_S / statistics.median(around))
    return out
