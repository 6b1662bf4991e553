"""Sampled distance sensitivity oracle backing the ``lowdiam`` builder.

A randomized multi-failure oracle built from sampled spanning subgraphs
(Weimann & Yuster, FOCS 2010), held as one k-bit mask per edge (see
SampledFDSO).  The ``lowdiam`` builder walks them: one
:func:`graph.lane_bfs` per source with subgraph i as lane i, in
O(n * D * m) big-int operations over a build, D the largest subgraph
eccentricity.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .graph import Graph, GraphError, INF, require_positive


class SampledFDSO(NamedTuple):
    """k sampled spanning subgraphs; bit i of a mask stands for subgraph i,
    and ``alive[eid]`` marks the subgraphs with edge eid.  The subgraphs
    that lack every failed edge are ``(1 << k) - 1`` minus the OR of the
    failed edges' masks; over them, the first level of a lane BFS from s
    whose mask at t meets that set is the s-t distance avoiding the
    failures, the length of a genuine path, so never below the true one,
    and equal to it with high probability over the build seed.  Nothing
    changes the masks after the build, so concurrent reads are safe.
    """
    k: int
    alive: list


def build_sampled_fdso(g: Graph, f, delta=1.0, C=3.0, seed=0,
                       max_subgraphs=50_000) -> SampledFDSO:
    """Sample k = ceil(C * f * n^delta * ln n) spanning subgraphs, each edge
    dropped independently with probability n^(-delta/f); subgraph i draws
    from its own stream derived from (seed, i), in edge-id order.  Only the
    masks are built: a reader runs its own lane BFS over them.
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
    alive = [(1 << k) - 1] * m
    for i in range(k):
        rng = random.Random(seed * 2654435761 + i)
        bit = 1 << i
        for eid in range(m):
            if rng.random() < drop_p:
                alive[eid] ^= bit
    return SampledFDSO(k, alive)
