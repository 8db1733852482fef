"""Host-speed calibration.

On a shared host the CPU speed a process gets drifts by tens of percent
over seconds; the drift shows equally in thread CPU time and does not go
away when the process is pinned to one CPU. Raw wall times of two runs of
the same code then differ by more than any useful regression bound. The
benchmark therefore times a fixed kernel, which uses no schemegrad code,
between ops and reports each op's time scaled by NOMINAL_S / kernel time.
A change to schemegrad moves the scaled times as much as the raw ones;
host drift moves both the ops and the kernel and cancels. NOMINAL_S is the
kernel's median between ops on the host the baseline in NOTES.md was
measured on, so there scaled times read as that host's seconds.

The kernel is interpreter-bound, like the workloads, whose time goes to
dispatch, tape recording, compiling and numpy calls on small batches.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3
NOMINAL_S = 1.3e-3


class _Rec:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


_SMALL = np.linspace(0.5, 2.0, 16)


def kernel() -> float:
    """Interpreter-bound work like the library's dispatch on small batches:
    an integer loop, objects, tuples and dicts, and numpy calls on tiny
    arrays."""
    acc = 0.0
    for i in range(10_000):
        acc += i
    table = {}
    for i in range(400):
        rec = _Rec(i, i * 0.5)
        table[i & 255] = (rec, i)
        acc += table[i & 255][0].b + rec.a
    for _ in range(60):
        b = np.multiply(np.asarray(_SMALL, dtype=np.float64), 1.5)
        if np.all(np.isfinite(b)):
            acc += b[3]
    return acc


def scale() -> float:
    """NOMINAL_S / the kernel's median time over REPEATS calls: the factor
    that turns a time measured now into a nominal-host time."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return NOMINAL_S / statistics.median(times)
