"""Machine-speed calibration for the end-to-end benchmark.

The sandbox this benchmark was defined on shares its host with other
tenants, and its speed switches between a fast and a slow state (35-70%
apart) every few seconds to minutes, which spread raw wall-clock medians
of the same code by up to a third.  A short fixed kernel, timed
right before and after each measured interval, slows down with the
program; scaling an interval by ``REFERENCE_S / kernel time`` cancels
most of the host's swing (see the README).  The kernel calls only numpy,
scipy and the interpreter, never the program, so no change to the
program can move it.
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Kernel seconds (the ``sample`` minimum) on the defining machine in
#: its fast state; scaled times read as seconds on that machine.
REFERENCE_S = 0.0095


@functools.lru_cache(maxsize=None)
def _inputs():
    """Fixed kernel inputs: points, index pairs and a sparse graph."""
    rng = np.random.default_rng(5)
    points = rng.normal(size=(20_000, 3)) * 7000.0
    pairs = rng.integers(0, 20_000, size=(2, 30_000))
    nodes = 3000
    rows, cols = rng.integers(0, nodes, size=(2, 12_000))
    graph = csr_matrix((rng.random(12_000), (rows, cols)),
                       shape=(nodes, nodes))
    return points, pairs, graph


def kernel() -> float:
    """Fixed work shaped like the workloads: vector geometry over point
    pairs, a few sparse single-source Dijkstra runs, and dict churn."""
    points, (first, second), graph = _inputs()
    a, b = points[first], points[second]
    delta = a - b
    ranges = np.sqrt((delta * delta).sum(axis=-1))
    cosines = np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1)
                                             * np.linalg.norm(b, axis=1))
    total = float(np.sort(ranges)[100]
                  + np.arccos(np.clip(cosines, -1.0, 1.0)).sum())
    total += float(dijkstra(graph, directed=True, indices=np.arange(6))[0, 5])
    table = {}
    for value in range(15_000):
        table[value % 997] = table.get(value % 997, 0) + value
    return total + len(table)


def sample(repeats: int = 3) -> float:
    """Fastest of ``repeats`` kernel runs, in seconds; the minimum drops
    one-off interruptions but follows the host's sustained speed."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before_s: float, after_s: float) -> float:
    """``seconds`` at reference speed, from kernel samples taken right
    before and right after the interval."""
    return seconds * REFERENCE_S / (0.5 * (before_s + after_s))
