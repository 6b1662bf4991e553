"""Sampled distance sensitivity oracle backing the ``lowdiam`` builder.

A randomized multi-failure oracle built from sampled spanning subgraphs
(Weimann & Yuster, FOCS 2010).  It holds its k subgraphs as k-bit ints
(see SampledFDSO), filled by one :func:`graph.lane_bfs` per source with
subgraph i as lane i, in O(n * D * m) big-int operations, D the largest
subgraph eccentricity, and keeps each source's levels, which the
``lowdiam`` builder reads and walks with :func:`graph.lane_path`.
"""
from __future__ import annotations

import math
import random

from .graph import Graph, GraphError, INF, lane_bfs, require_positive


class SampledFDSO:
    """f-DSO over k sampled spanning subgraphs; bit i of a mask stands for
    subgraph i.  ``alive[eid]`` marks the subgraphs with edge eid;
    ``levels[s]`` are the :func:`graph.lane_bfs` levels of source s, so
    ``levels[s][d][t]`` marks the subgraphs where t is exactly d hops from
    s.  :meth:`survivors` ANDs the complements of the failed edges' alive
    masks; the first level whose mask at t meets it is the s-t distance
    over the surviving subgraphs, the length of a genuine path avoiding the
    failures, so never below the true one, and equal to it with high
    probability over the build seed.  Nothing changes after the build, so
    concurrent reads are safe.
    """

    def __init__(self, f, k, alive, levels):
        self.f = f
        self.k = k
        self.alive = alive
        self.levels = levels

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
    if type(f) is not int or f < 1:
        raise GraphError(f"failure budget must be an int >= 1, got {f!r}")
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
    return SampledFDSO(f, k, alive, levels)

