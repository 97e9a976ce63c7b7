"""Scaling measured times to a nominal machine speed.

On a shared host the same Python code runs up to twice as fast in one
minute as in the next, because of other tenants, so raw wall times of two
runs differ more than any change under test would move them. The benchmark
therefore times a fixed pure-Python kernel (dict, tuple, list and sort work,
like the engine's) just before every timed call, and scales each call's
time by REFERENCE_S over the median kernel time of the calls around it. The
result is in seconds on a machine where the kernel takes REFERENCE_S; it
moves with the program's speed and not with the host's. The kernel uses no
package code, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.0003  # kernel time that scaled seconds are expressed against
NEIGHBOURS = 4  # kernel samples taken on each side of a call


def _kernel() -> int:
    table = {}
    for i in range(1000):
        table[i] = (i, -i)
    total = 0
    for _, pair in table.items():
        total += abs(pair[1])
    ordered = sorted(table.values(), key=lambda pair: pair[1])
    return total + ordered[0][0]


def kernel_seconds() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """times[i] scaled by the kernel samples kernel[i-K .. i+K]; kernel[i] is
    the sample taken just before times[i] was measured."""
    out = []
    for i, t in enumerate(times):
        near = kernel[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
