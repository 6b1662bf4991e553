"""Exact multi-failure diameter oracle for low-diameter graphs.

For every vertex pair a tree of failure subsets is explored: each node
takes the pair's distance avoiding its subset and, below depth f, branches
on the edges of a shortest path avoiding it.  All distances are maxed per
subset into one table keyed by canonical sorted edge-id tuples; a query
takes the max over the table entries of all subsets of the queried
failures (at most 2^f probes).

The build grows the trees of all pairs (s, t > s) together, per source and
per depth d = 0..f.  The distinct subsets pending at depth d are a batch
that the backend answers with the levels of a :func:`graph.lane_bfs` from
s, one lane mask per subset and the edges' alive masks.  A node's distance
is the first level whose mask at t meets its mask, and its path the lowest
lane of that hit, walked back from t (:func:`graph.lane_path`).  Exact
backend: lane i keeps every edge outside the batch's i-th subset, so one
lane BFS per (source, depth) replaces one BFS per (source, subset).
Sampled backend (Weimann-Yuster): the lanes are the subgraphs of the
sampled f-DSO (:mod:`fdo.dso`, which holds only their edge masks), walked
by one lane BFS per source that the table loop runs before the source's
first depth and reads at every depth; a subset's mask is the subgraphs
that lack all its edges.  A node then costs a level scan and a walk back,
O(D) and O(D * degree).

With the exact backend the answer equals the true diameter of G-F; with
the sampled backend it never undershoots and matches with high probability
over the build seed.

The oracle keeps only the undominated entries (:func:`undominated`): those
whose value is strictly above the answer of every proper subset of their
key, the answer of a key being the maximum over the entries at its
subsets.  A dropped entry is no larger than a proper subset's answer, so
removing it changes no answer: by induction on the key size, every key's
answer over the kept entries equals its answer over the whole table.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

from .graph import (Graph, GraphError, INF, diameter, lane_bfs, lane_path,
                    require_positive, resolve_pairs)


class LowDiamFDO:
    """Subset-keyed max-distance table plus the edge dictionary of g.

    ``build_stats`` holds a build's counters, ``nodes`` (failure-subset
    tree nodes) and ``max_fanout`` (longest path branched on); a loaded
    oracle has None.  ``query`` returns the answer of the core,
    ``_solve``, and ``query_details`` adds its probe and hit counts.
    """

    kind = "lowdiam"
    directed = False

    def __init__(self, g: Graph, f, delta, base_diam, table,
                 backend="exact", subgraph_count=None, build_stats=None):
        self.n = g.n
        self.m = g.m
        self.edges = g.edges
        self.edge_lookup = g.edge_lookup    # (u, v) with u < v -> edge id
        self.f = f
        self.delta = delta
        self.base_diam = base_diam
        self.table = table          # sorted edge-id tuple -> distance
        self.backend = backend
        self.subgraph_count = subgraph_count    # k of the sampled backend
        self.build_stats = build_stats

    def query(self, pairs):
        eids, _ = resolve_pairs(pairs, self.n, False, self.edge_lookup, self.f)
        return self._solve(eids)[0]

    def query_details(self, pairs):
        """Answer plus its cost: ``probes`` table lookups, one per subset of
        the failed edges (2^|F| after non-edges are dropped), of which
        ``hits`` found a stored entry (the empty subset's always does)."""
        eids, _ = resolve_pairs(pairs, self.n, False, self.edge_lookup, self.f)
        answer, hits = self._solve(eids)
        return {"answer": answer, "probes": 1 << len(eids), "hits": hits}

    def _solve(self, eids):
        """``(answer, hits)``: the max over the entries stored at subsets
        of the sorted edge ids, and how many such entries there are."""
        get = self.table.get
        best = self.table[()]
        hits = 1
        for size in range(1, len(eids) + 1):
            for key in combinations(eids, size):
                val = get(key)
                if val is not None:
                    hits += 1
                    if val > best:
                        best = val
        return best, hits


def undominated(table):
    """The entries of a subset table (which holds the empty key) whose value
    is strictly above the answer of every proper subset of their key.

    One pass by key size: a key's answer is its value if kept, else the
    largest answer of its one-smaller subsets, which a subset the table
    lacks also takes, computed on demand (see the module docstring).
    """
    answer = {(): table[()]}

    def below(key):     # the largest answer among key's one-smaller subsets
        best = -1
        for sub in combinations(key, len(key) - 1):
            val = answer.get(sub)
            if val is None:
                val = answer[sub] = below(sub)
            if val > best:
                best = val
        return best

    kept = {(): table[()]}
    for key in sorted(table, key=len)[1:]:
        val, floor = table[key], below(key)
        if val > floor:
            kept[key] = answer[key] = val
        else:
            answer[key] = floor
    return kept


def build_lowdiam_fdo(g: Graph, f: int, delta: float, backend="exact",
                      seed=None, dso_delta=None, dso_C=3.0):
    """Build the oracle; f=1 falls back to the exact single-failure oracle
    (no subset machinery needed there).

    ``backend`` is ``"exact"`` or ``"sampled"``, which needs a ``seed`` when
    f > 1; an unknown backend is refused at f=1 too.
    ``delta`` gates the admissible diameter, n^(delta/f)/(f+1).  The
    sampled backend may run at its own exponent ``dso_delta`` (defaults to
    delta): it trades the per-subgraph edge-drop rate against the subgraph
    count and is deliberately independent of the gate.  Disconnected
    graphs are refused, and so are float parameters that are not finite
    and above 0.

    The sampled backend never undershoots, but small graphs leave it few
    subgraphs: at ``dso_C=3``, ``dso_delta=1`` on hub graphs with n <= 12
    and f = 2, 3, 1-2% of random failure sets got a larger answer than the
    truth, ``inf`` on a connected G-F included.  Raise ``dso_C`` or
    ``dso_delta`` to sample such graphs.
    """
    if g.directed or g.weighted:
        raise GraphError("low-diameter FDO requires an undirected unweighted graph")
    if type(f) is not int or f < 1:
        raise GraphError(f"failure budget must be an int >= 1, got {f!r}")
    if backend not in ("exact", "sampled"):
        raise GraphError(f"unknown backend {backend!r}")
    dso_delta = delta if dso_delta is None else dso_delta
    require_positive(delta=delta, dso_delta=dso_delta, dso_C=dso_C)
    if f == 1:
        from .single import build_exact_fdo
        return build_exact_fdo(g)
    if backend == "sampled" and seed is None:
        raise GraphError("sampled backend requires a seed")

    base = diameter(g)
    if base == INF:
        raise GraphError("low-diameter FDO needs a connected graph")
    try:
        bound = g.n ** (delta / f) / (f + 1)
    except OverflowError:
        raise GraphError(f"n^(delta/f) overflows: n={g.n}, delta={delta}, "
                         f"f={f}") from None
    if base > bound:
        raise GraphError(
            f"diameter {base} exceeds the admissible bound "
            f"n^(delta/f)/(f+1) = {bound:.3f}")

    if backend == "sampled":
        from .dso import build_sampled_fdso
        dso = build_sampled_fdso(g, f, delta=dso_delta, C=dso_C, seed=seed)
        every, alive = (1 << dso.k) - 1, dso.alive

    table = {(): base}     # diam(G), also when n=1 leaves no pair
    nodes = max_fanout = 0
    for s in range(g.n - 1):
        if backend == "sampled":    # one lane BFS serves every depth
            levels = lane_bfs(g._out_nbrs, alive, {s: every}, every)[0]
        # subset -> the targets t whose pair (s, t) has a tree node for it
        pending = {(): dict.fromkeys(range(s + 1, g.n))}
        for depth in range(f + 1):
            keys = list(pending)
            if backend == "exact":
                # lane i keeps every edge outside keys[i]
                every = (1 << len(keys)) - 1
                alive = [every] * g.m
                for i, key in enumerate(keys):
                    for eid in key:
                        alive[eid] ^= 1 << i
                levels = lane_bfs(g._out_nbrs, alive, {s: every}, every)[0]
                masks = [1 << i for i in range(len(keys))]
            else:       # the subgraphs that lack every edge of the subset
                masks = [every ^ reduce(or_, [alive[eid] for eid in key], 0)
                         for key in keys]
            children = {}
            for (key, targets), mask in zip(pending.items(), masks):
                worst = table.get(key, -1)
                nodes += len(targets)
                for t in targets:
                    for dist, level in enumerate(levels):
                        hit = level.get(t, 0) & mask
                        if hit:
                            break
                    else:       # t unreachable: no path to branch on
                        worst = INF
                        continue
                    if dist > worst:
                        worst = dist
                    if depth == f:
                        continue
                    if dist > max_fanout:
                        max_fanout = dist
                    for eid in lane_path(levels, g._out_nbrs, alive, t, dist,
                                         hit & -hit)[1]:
                        children.setdefault(tuple(sorted(key + (eid,))),
                                            {})[t] = None
                table[key] = worst
            pending = children
    return LowDiamFDO(g, f, delta, base, undominated(table),
                      backend=backend,
                      subgraph_count=dso.k if backend == "sampled" else None,
                      build_stats={"nodes": nodes, "max_fanout": max_fanout})
