"""Sampled distance sensitivity oracle backing the ``lowdiam`` builder.

A randomized multi-failure oracle built from sampled spanning subgraphs
that reports genuine paths (never underestimating).  It holds its k
subgraphs as k-bit ints (see SampledFDSO), filled by one
:func:`graph.lane_bfs` per source with subgraph i as lane i, in
O(n * D * m) big-int operations, D the largest subgraph eccentricity, and
keeps each source's levels; :func:`graph.lane_path` walks its paths.
"""
from __future__ import annotations

import math
import random

from .graph import (Graph, GraphError, INF, lane_bfs, lane_path,
                    require_positive)


class SampledFDSO:
    """Path-reporting f-DSO over k sampled spanning subgraphs; bit i of a
    mask stands for subgraph i.  ``alive[eid]`` marks the subgraphs with
    edge eid; ``levels[s]`` are the :func:`graph.lane_bfs` levels of source
    s, so ``levels[s][d][t]`` marks the subgraphs where t is exactly d hops
    from s.  A query ANDs the complements of the failed edges' alive masks
    into the survivor mask, answers with the first level whose mask at t
    meets it, and walks the lowest such subgraph's path back with
    :func:`graph.lane_path`.  Every reported distance is the length of a
    genuine path avoiding the failures, so never below the true one, and
    matches it with high probability over the build seed.  Nothing changes
    after the build, so concurrent queries are safe.
    """

    def __init__(self, g, f, k, alive, levels):
        self.g = g
        self.f = f
        self.k = k
        self.alive = alive
        self.levels = levels

    def query(self, s, t, failed_eids):
        """``(dist, path)`` of :meth:`query_details`."""
        got = self.query_details(s, t, failed_eids)
        return got["dist"], got["path"]

    def query_details(self, s, t, failed_eids):
        """``{"dist", "path", "survivors"}``: the minimum s-t distance over
        the subgraphs avoiding the failed edges with a realizing vertex path
        (inf and None when none connects), and how many subgraphs avoid
        them.  Among subgraphs at the minimum the smallest index reports."""
        surv = self.survivors(failed_eids)
        dist, path = INF, None
        levels = self.levels[s]
        for d, level in enumerate(levels):
            hit = level.get(t, 0) & surv
            if hit:
                dist = d
                path = lane_path(levels, self.g._out_nbrs, self.alive, t, d,
                                 hit & -hit)[0][::-1]
                break
        return {"dist": dist, "path": path, "survivors": surv.bit_count()}

    def survivors(self, failed_eids):
        """Mask of the subgraphs that lack every failed edge."""
        failed = set(failed_eids)
        if len(failed) > self.f:
            raise GraphError(f"failure set of size {len(failed)} exceeds f={self.f}")
        surv = (1 << self.k) - 1
        for eid in failed:
            surv &= ~self.alive[eid]
        return surv


def build_sampled_fdso(g: Graph, f, delta=1.0, C=3.0, seed=0,
                       max_subgraphs=50_000) -> SampledFDSO:
    """Sample k = ceil(C * f * n^delta * ln n) spanning subgraphs, each edge
    dropped independently with probability n^(-delta/f); subgraph i draws
    from its own stream derived from (seed, i), in edge-id order.

    One :func:`graph.lane_bfs` per source serves all k subgraphs, lane i
    keeping the edges subgraph i keeps: crossing an edge keeps the frontier
    bits of the subgraphs that contain it and have not reached its far end
    yet, O(D * m) big-int operations instead of k scalar runs.
    """
    if g.directed or g.weighted:
        raise GraphError("sampled f-DSO requires an undirected unweighted graph")
    if f < 1:
        raise GraphError(f"need f >= 1, got f={f}")
    require_positive(delta=delta, C=C)
    n, m = g.n, g.m
    try:
        k = math.ceil(C * f * (n ** delta) * math.log(n))
    except OverflowError:
        k = INF     # over every budget
    if k > max_subgraphs:
        raise GraphError(f"subgraph count k={k} exceeds budget {max_subgraphs}")
    drop_p = n ** (-delta / f)
    full = (1 << k) - 1
    alive = [full] * m
    for i in range(k):
        rng = random.Random(seed * 2654435761 + i)
        bit = 1 << i
        for eid in range(m):
            if rng.random() < drop_p:
                alive[eid] ^= bit
    levels = [lane_bfs(g._out_nbrs, alive, {s: full}, full)[0]
              for s in range(n)]
    return SampledFDSO(g, f, k, alive, levels)

