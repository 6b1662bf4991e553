"""Machine-speed reference for timings taken on a shared machine.

On a machine shared with other tenants each CPU's speed can drift by
10-30% within seconds, more than a useful regression bound.  Slowdowns
hit code of the same kind in much the same way, so the benchmark times a
fixed reference task interleaved with what it measures, on the same CPU,
and scales each timing by ``factor = nominal time / reference time``: a
timing is reported as the time it would take at nominal speed.  This
removes most, not all, of the drift.  Raw timings are kept in each run's
summary.

The reference task is breadth-first sweeps, in pure Python, over a fixed
random graph the size of the workload's graph: the kind of work the
oracles do, on a working set of the same size.  Its nominal time is
``NS_PER_SCAN`` per adjacency entry scanned plus ``NS_PER_VERTEX`` per
vertex reached, about its time on a quiet 2-CPU x86-64 VM with Python 3.11.
"""
from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter_ns

NS_PER_SCAN = 25
NS_PER_VERTEX = 150
SCANS_PER_SAMPLE = 30_000   # about 1 ms of work per sweep


def _reference_graph(n, m):
    rng = random.Random(20210707)
    adj = [[] for _ in range(n)]
    edges = 0
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
        edges += 1
    while edges < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
            edges += 1
    return adj


class Speed:
    """Samples the speed of the CPU it runs on; ``factor()`` scales a raw
    timing taken around the same moment to nominal speed."""

    def __init__(self, n, m):
        self._adj = _reference_graph(n, m)
        self._sources = [s % n for s in range(-(-SCANS_PER_SAMPLE // (2 * m)))]
        self._nominal = len(self._sources) * (2 * m * NS_PER_SCAN
                                              + n * NS_PER_VERTEX)
        self.samples = []       # factors

    def _sweep(self):
        adj = self._adj
        t0 = perf_counter_ns()
        for source in self._sources:
            dist = [-1] * len(adj)
            dist[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                du = dist[u] + 1
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = du
                        queue.append(v)
        return perf_counter_ns() - t0

    def factor(self, reps=3):
        """Nominal over measured time, from the median of ``reps`` sweeps."""
        f = self._nominal / statistics.median(self._sweep() for _ in range(reps))
        self.samples.append(f)
        return f
