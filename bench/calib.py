"""Calibration kernel: scales timings to a fixed nominal machine speed.

On a shared machine the speed of a pure-Python loop swings by up to 2x in
phases of seconds.  Every timed interval is therefore divided by the time
of this kernel, run right beside it, and multiplied by ``NOMINAL_S``, the
kernel's time on the reference machine (see README.md).

The kernel has two halves of about equal time.  In slow phases a
dict-and-tuple loop that stays in the first level cache slows down like
nbrv's fixpoint and parsers, and less than its searches; a breadth-first
search over count vectors slows down more than either.  Their sum tracks
both kinds of work within about 5%.
"""

from __future__ import annotations

import time

NOMINAL_S = 700e-6


def kernel() -> int:
    """Fixed dict, tuple and set work, the kind nbrv's searches do."""
    counts: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(400):
        key = (i & 15, i >> 4, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += len(key)
    for key, count in sorted(counts.items()):
        acc += key[0] * count
    # Every way of placing four processes on six states, moving one process
    # one or two states forward at a time.
    start = (4, 0, 0, 0, 0, 0)
    parent = {start: start}
    frontier = [start]
    while frontier:
        fresh = []
        for c in frontier:
            for i in range(6):
                if c[i]:
                    for j in ((i + 1) % 6, (i + 2) % 6):
                        d = list(c)
                        d[i] -= 1
                        d[j] += 1
                        t = tuple(d)
                        if t not in parent:
                            parent[t] = c
                            fresh.append(t)
        frontier = sorted(fresh)
    return acc + len(parent)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(kernels: list[float]) -> float:
    """Scale factor from the kernel times measured around one interval."""
    import statistics  # not at module level: coldstart.py must import no more than it times

    return NOMINAL_S / statistics.median(kernels)


def window_factors(kernels: list[float]) -> list[float]:
    """Per-interval factors when interval i ran between kernels i and i+1.

    Each factor uses the median of kernels i-3 .. i+4, which keeps one
    interrupted kernel from skewing it.
    """
    return [factor(kernels[max(0, i - 3):i + 5]) for i in range(len(kernels) - 1)]
