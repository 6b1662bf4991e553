"""Exact multi-failure diameter oracle for low-diameter graphs.

For every vertex pair a tree of failure subsets is explored: each node asks
a path-reporting distance oracle for the pair's distance avoiding its
subset, then branches on the edges of the reported path; a node whose
subset already has f edges asks for the distance alone.  All distances are
aggregated, maxed per subset, into one table keyed by canonical sorted
edge-id tuples; a query takes the max over the table entries of all subsets
of the queried failures (at most 2^f probes).

With the exact enumeration backend the answer equals the true diameter of
G-F; with the sampled-subgraph backend it never undershoots and matches
with high probability over the build seed.
"""
from __future__ import annotations

from itertools import combinations

from .dso import build_sampled_fdso
from .graph import (Graph, GraphError, INF, diameter, distances, index_edges,
                    resolve_pairs)
from .single import build_exact_fdo

# ``backend="auto"`` enumerates failure subsets exactly up to this many
# vertices and samples subgraphs above it.
EXACT_THRESHOLD = 64


class ExactPathDSO:
    """Enumeration fallback: deterministic, exact, path-reporting.

    Keeps one BFS distance row per (source, failure subset) until a query
    names another source; the subset-table build finishes each source
    before the next.  A path is walked back from t one level at a time
    through the smallest-id neighbour one level closer over a surviving
    edge.  On unit weights every such neighbour is settled before the
    vertex, so this is the parent ``graph.sssp`` picks.
    """

    def __init__(self, g: Graph, f: int):
        self.g = g
        self.f = f
        self._nbrs = [sorted((u, eid) for u, eid, _ in g._out_nbrs[v])
                      for v in range(g.n)]
        self._source = None
        self._rows = {}

    def _row(self, s, key):
        if s != self._source:
            self._source, self._rows = s, {}
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = distances(self.g, s, frozenset(key))
        return row

    def distance(self, s, t, failed_eids):
        return self._row(s, tuple(sorted(failed_eids)))[t]

    def query(self, s, t, failed_eids):
        key = tuple(sorted(failed_eids))
        dist = self._row(s, key)
        d = dist[t]
        if d == INF:
            return INF, None
        path = [t]
        v = t
        for level in range(d - 1, -1, -1):
            v = next(u for u, eid in self._nbrs[v]
                     if dist[u] == level and eid not in key)
            path.append(v)
        path.reverse()
        return d, path


class LowDiamFDO:
    """Subset-keyed max-distance table plus the usual edge dictionary."""

    kind = "lowdiam"
    directed = False

    def __init__(self, n, edges, f, delta, base_diam, table, backend="exact",
                 subgraph_count=None):
        self.n = n
        self.edges = edges
        self.f = f
        self.delta = delta
        self.base_diam = base_diam
        self.table = table          # sorted edge-id tuple -> distance
        self.backend = backend
        self.subgraph_count = subgraph_count    # k of the sampled backend
        self.edge_lookup = index_edges(edges, False)

    @property
    def m(self):
        return len(self.edges)

    def query(self, pairs):
        return self.query_details(pairs)["answer"]

    def query_details(self, pairs):
        """Answer plus its cost: ``probes`` table lookups, one per subset of
        the failed edges (2^|F| after non-edges are dropped)."""
        pairs = list(pairs)
        if len(pairs) > self.f:
            raise GraphError(
                f"too many failures: {len(pairs)} pairs, oracle has f={self.f}")
        eids, _ = resolve_pairs(pairs, self.n, False, self.edge_lookup)
        best = None
        probes = 0
        for size in range(len(eids) + 1):
            for key in combinations(eids, size):
                probes += 1
                val = self.table.get(key)
                if val is not None and (best is None or val > best):
                    best = val
        return {"answer": best, "probes": probes}


def build_lowdiam_fdo(g: Graph, f: int, delta: float, backend="auto",
                      seed=None, dso_delta=None, dso_C=3.0,
                      exact_threshold=EXACT_THRESHOLD, dedupe=True,
                      max_subgraphs=50_000):
    """Build the oracle; f=1 falls back to the exact single-failure oracle
    (no subset machinery needed there).

    ``delta`` gates the admissible diameter, n^(delta/f)/(f+1).  The sampled
    backend may run at its own exponent ``dso_delta`` (defaults to delta):
    it trades the per-subgraph edge-drop rate against the subgraph count and
    is deliberately independent of the gate.  Disconnected graphs are refused.

    The sampled backend never undershoots, but small graphs leave it few
    subgraphs: at ``dso_C=3``, ``dso_delta=1`` on hub graphs with n <= 12
    and f = 2, 3, 1-2% of random failure sets got a larger answer than the
    truth, ``inf`` on a connected G-F included.  Use the exact backend
    there (``auto`` does up to ``exact_threshold`` vertices) or raise
    ``dso_C`` or ``dso_delta``.
    """
    if g.directed or g.weighted:
        raise GraphError("low-diameter FDO requires an undirected unweighted graph")
    if f < 1:
        raise GraphError(f"failure budget must be >= 1, got {f}")
    if delta <= 0:
        raise GraphError(f"delta must be positive, got {delta}")
    if f == 1:
        return build_exact_fdo(g)

    base = diameter(g)
    if base == INF:
        raise GraphError("low-diameter FDO needs a connected graph")
    bound = g.n ** (delta / f) / (f + 1)
    if base > bound:
        raise GraphError(
            f"diameter {base} exceeds the admissible bound "
            f"n^(delta/f)/(f+1) = {bound:.3f}")

    if backend == "auto":
        backend = "exact" if g.n <= exact_threshold else "sampled"
    if backend == "exact":
        dso = ExactPathDSO(g, f)
    elif backend == "sampled":
        if seed is None:
            raise GraphError("sampled backend requires a seed")
        dso = build_sampled_fdso(g, f, delta=dso_delta or delta, C=dso_C,
                                 seed=seed, max_subgraphs=max_subgraphs)
    else:
        raise GraphError(f"unknown backend {backend!r}")

    table = {}
    stats = {"nodes": 0, "max_fanout": 0}
    lookup = g.edge_lookup
    for s in range(g.n):
        for t in range(s + 1, g.n):
            stack = [()]
            visited = {()} if dedupe else None
            while stack:
                key = stack.pop()
                stats["nodes"] += 1
                if len(key) == f:   # a leaf: only its distance is needed
                    dist, path = dso.distance(s, t, key), None
                else:
                    dist, path = dso.query(s, t, key)
                old = table.get(key)
                if old is None or dist > old:
                    table[key] = dist
                if path is None:    # a leaf, or t unreachable
                    continue
                path_eids = [lookup[(a, b) if a < b else (b, a)]
                             for a, b in zip(path, path[1:])]
                if len(path_eids) > stats["max_fanout"]:
                    stats["max_fanout"] = len(path_eids)
                for eid in path_eids:
                    child = tuple(sorted(key + (eid,)))
                    if dedupe:
                        if child in visited:
                            continue
                        visited.add(child)
                    stack.append(child)
    oracle = LowDiamFDO(g.n, list(g.edges), f, delta, base, table,
                        backend=backend,
                        subgraph_count=dso.k if backend == "sampled" else None)
    oracle.build_stats = stats
    return oracle


def query_lowdiam(oracle, pairs):
    return oracle.query(pairs)
