"""The reference kernel that end-to-end times are scaled by.

The benchmark's host is a VM on a shared machine whose speed changes by
up to a factor of two from one few-second stretch to the next, in CPU
time as well as in wall time, while the time of a fixed piece of work
relative to another, measured next to it on the same CPU, stays within
about 5 %. So a run times this kernel between short stretches of the
workload and reports each operation's time scaled to the kernel's
nominal speed: an operation that takes 4 kernel-times reads
4 x NOMINAL_MS, whichever way the host's speed has moved.

The kernel is fixed work owned by the benchmark, mixing the two kinds of
code the workloads run: pure-Python exact arithmetic, dict and JSON work,
and numpy (seeded normal draws, a batched 3x3 SVD, small-array calls). It
never calls gkpforge, so a change to the program moves the scaled times
and leaves the kernel alone. `svd` is bound here at import, before a
traced run wraps numpy.linalg.svd, so the kernel adds no spans.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

import numpy as np
from numpy.linalg import svd

#: fixed scale: scaled times are milliseconds at a speed where the kernel
#: takes this long (on a 2-core Intel Xeon VM with Python 3.11, numpy 2.4
#: and OpenBLAS on one thread it takes 40-100 ms, as the host's speed moves)
NOMINAL_MS = 100.0

_MATRICES = np.random.default_rng(20250809).normal(size=(2000, 3, 3))


def kernel() -> float:
    """Fixed work; returns a value that depends on all of it."""
    total = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 2500):
        total += Fraction((-1) ** i, i)
        table[i % 97] = table.get(i % 97, 0) + i
    text = json.dumps({"total": float(total), "table": table}, sort_keys=True)
    rng = np.random.default_rng(7)
    acc = float(len(text))
    for _ in range(8):
        batch = _MATRICES + 1e-3 * rng.normal(size=_MATRICES.shape)
        acc += float(svd(batch, compute_uv=False).sum())
    for i in range(400):
        acc += float(np.dot(_MATRICES[i, 0], _MATRICES[i, 1]))
    return acc


def time_kernel() -> float:
    """Wall time of one kernel run, in ms."""
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3
