"""Single-failure diameter oracles.

One class, SingleFDO, of four kinds.  Each finds an answer per failed edge
and keeps, by vertex pair, those that differ from its fallback, which
every other pair gets: O(m) entries only in the worst case, such as the
gadgets of instances.gen_dense_lb.

* exact    -- diam(G-e) for all m edges; fallback diam(G).
* ecc      -- 2-approximate: 2*ecc_{G-e}(source) for the n-1 edges of the
              source's tree; fallback 2*ecc_G(source).
* spanner  -- diam(G-e) on the edges of a greedy (2k-1)-spanner; fallback
              diam(G) + 2(k-1).
* approx   -- (1+eps)-approximate for all m edges, from an exact scan or a
              pivot scan plus additive slack; fallback diam(G).

All four builds get their per-edge values as replacement eccentricities
ecc_{G-e}(s), raised into entries that already hold ecc_G(s).  On unit
weights the kernel raise_by_replacement_ecc runs a few wide bit-lane BFS
runs (graph.lane_bfs), each for a batch of sources with a lane per source
and entry, at O(m) big-int operations per distinct distance a vertex
takes over the batch's lanes; diam(G) is one more lane BFS, from all n
sources at once.  While the finite entries outnumber the vertices by at
most SHARED_LANE_SURPLUS, each entry gets a lane per source and no
shortest-path tree is built: a lane whose edge is off a shortest-path
tree of s reaches every vertex at its base distance, so its eccentricity
is ecc_G(s), which its entry already holds, and such lanes cost bits but
never raise an entry.  On denser inputs those bits would make every mask
m bits wide and the alive table m^2 bits, so each source gets its own
lane BFS with n-1 lanes, one per edge of its own BFS tree.  With every
vertex a source on an undirected graph (exact, spanner, exact-scan
approx) the lanes run one way: if diam(G-e) > diam(G), e lies on every
shortest path between a farthest pair of G-e, so exactly one of the two
is nearer e's smaller endpoint, and only that source's lane must see e
cut.  A cut then blocks only the crossing from the smaller endpoint to
the larger; every other lane keeps its base tree and adds no level
entries.  The deterministic pivots take their detour paths from one lane
BFS too, and pick them by a lazy greedy hitting set.  On
other weights, zero included (exact and ecc only), each source's
graph.sssp tree is repaired below every tree edge with a Dijkstra run
confined to that subtree, at the subtree's edge volume times a log
factor.
All oracles are immutable after build; concurrent queries are safe.
"""
from __future__ import annotations

import math
import random
from heapq import heapify, heappop, heappush

from .graph import (Graph, GraphError, INF, bfs_tree_eids, diameter,
                    lane_bfs, lane_path, pair_key, preorder, reject_pair,
                    require_positive, sssp, strong_bridges)


def _single_failure_key(oracle, pairs):
    # resolve_pairs for exactly one pair, inline: its key in oracle.values
    if not isinstance(pairs, (tuple, list)):
        pairs = list(pairs)
    if len(pairs) != 1:
        raise GraphError(f"single-failure oracle queried with {len(pairs)} pairs")
    entry = pairs[0]
    n = oracle.n
    try:
        u, v = entry
    except (TypeError, ValueError):
        reject_pair(entry, n)
    if (not (type(u) is int and type(v) is int
             and 0 <= u < n and 0 <= v < n) or u == v):
        reject_pair(entry, n)
    return (v, u) if v < u and not oracle.directed else (u, v)


class SingleFDO:
    """``values`` maps vertex pairs, (min, max) when undirected, to the
    answers that differ from ``fallback``, the answer of every other pair.
    ``params`` maps the header keys of the oracle file to their values;
    ``pivots`` are the approx pivots."""

    def __init__(self, kind, n, m, directed, values, params, pivots=()):
        self.kind = kind
        self.n = n
        self.m = m
        self.directed = directed
        self.values = values
        self.params = params
        # ecc stores it; else diam(G), plus 2(k-1) on a spanner
        self.fallback = (params["fallback"] if "fallback" in params
                         else params["base"] + 2 * (params.get("k", 1) - 1))
        self.pivots = list(pivots)

    @classmethod
    def from_edge_values(cls, kind, g, values, params, pivots=()):
        """The oracle of ``g`` whose answers are ``values`` (edge id ->
        answer): it keeps those that differ from the fallback, by pair."""
        o = cls(kind, g.n, g.m, g.directed, {}, params, pivots)
        o.values = {pair_key(*g.edges[eid][:2], g.directed): val
                    for eid, val in values.items() if val != o.fallback}
        return o

    def query(self, pairs):
        return self.values.get(_single_failure_key(self, pairs), self.fallback)

    def query_details(self, pairs):
        """Answer plus ``stored``: whether it differs from the fallback."""
        key = _single_failure_key(self, pairs)
        return {"answer": self.values.get(key, self.fallback),
                "stored": key in self.values}


def build_exact_fdo(g: Graph) -> SingleFDO:
    """Folklore exact oracle: initialize every entry to diam(G), then raise
    it with the replacement eccentricities of every source.

    On unit weights they come from :func:`raise_by_replacement_ecc` over
    all n sources, a few sources per bit-lane BFS; on other weights from a
    repair of the subtree below each edge of every source's
    :func:`graph.sssp` tree (:func:`_raise_by_subtree_repair`), whose
    distances give diam(G) too.  Either replaces one full shortest-path
    run (O(m) and more) per source and edge.  A bridge lies on some
    source's tree and that source's replacement eccentricity is infinite,
    so bridges need no pass of their own; an infinite distance in them
    shows a graph that is not (strongly) connected.
    """
    trees = [sssp(g, s) for s in range(g.n)] if g.weighted else None
    base = diameter(g) if trees is None else max(max(t.dist) for t in trees)
    if base == INF:
        raise GraphError("exact FDO needs a (strongly) connected graph")
    values = dict.fromkeys(range(g.m), base)
    if trees is None:
        raise_by_replacement_ecc(g, range(g.n), values)
    else:
        _raise_by_subtree_repair(g, trees, values)
    return SingleFDO.from_edge_values("exact", g, values, {"base": base})


# raise_by_replacement_ecc shares one lane per finite entry across all
# sources while the entries outnumber the vertices by at most this many;
# beyond it each source gets n-1 lanes, one per edge of its own BFS tree.
SHARED_LANE_SURPLUS = 2048

# Each lane BFS of raise_by_replacement_ecc runs as many sources as fit
# masks of this many bits, one bit per entry and source, and at least one.
# Building the single-failure benchmark's oracles took 31% and 11% longer
# with 256 and 512 bits.  With one-way lanes, 2048 bits cut the benchmark's
# median setup_s by 4.4% (10 of 10 pairs) but raised its median peak RSS
# by 2.1% (0.55 MB); 4096 bits raised the peak RSS by 2 MB before.
LANE_BATCH_BITS = 1024


def raise_by_replacement_ecc(g: Graph, sources, values):
    """Raise every finite entry of the dict ``values`` (edge id -> entry)
    to ecc_{G-e}(s) for every source s, on unit weights.

    Entries must already hold at least ecc_G(s) for every source (diam(G)
    for a per-edge diameter, ecc(s) for a one-source oracle).  Each
    :func:`graph.lane_bfs` runs a batch of sources, as many as fit
    ``LANE_BATCH_BITS`` with one lane per source and entry, and at least
    one; lane (b, i) starts at source b of the batch and keeps every edge
    but entry i.  A run costs O(m) big-int operations per distinct
    distance a vertex takes over its lanes.  Cutting an edge
    off any one shortest-path tree of s leaves every distance from s
    intact, so that lane's eccentricity is ecc_G(s), no more than its
    entry: only the edges of the tree can raise their entries.  Hence the
    lanes may be either

    * one per finite entry and source, with no tree built, while there
      are at most n + ``SHARED_LANE_SURPLUS`` entries;
    * else the n-1 edges of a BFS tree of each source, one lane BFS and
      alive table per source: n-bit masks, so dense graphs do not pay
      m-bit masks and an alive table of m^2 bits.

    When the graph is undirected and the sources are all n vertices, in
    any order and with repeats, the entries end at diam(G-e), and half
    the lanes suffice.  If diam(G-e) > diam(G), let (s, t) be a farthest
    pair of G-e: d_G(s, t) < d_{G-e}(s, t), so e = (a, b) lies on every
    shortest s-t path of G, and exactly one of s and t is nearer
    c = min(a, b) than the other endpoint C.  The lanes then run on a copy
    of the adjacency whose half-edges C -> c read ``alive[m]``, always
    full, so a cut blocks only c -> C.  A lane whose source is nearer c
    still gets ecc_{G-e}(s), since no shortest walk from s enters c from
    C; any other lane never crosses c -> C on a shortest path, keeps the
    base levels of its source and raises nothing.  In the tree-lane branch
    a tree edge whose parent is the larger endpoint reads as m, holds no
    entry and gets no lane, which halves the mask width.

    Weighted graphs, zero weights included, raise :class:`GraphError`;
    they take :func:`_raise_by_subtree_repair` on the sources'
    :func:`graph.sssp` trees.
    """
    if g.weighted:
        raise GraphError("the lane kernel needs unit weights")
    cut = [eid for eid, val in values.items() if val != INF]
    nbrs = g._out_nbrs
    if not g.directed and set(sources) == set(range(g.n)):
        # one way: the half-edge from the larger endpoint reads alive[m]
        nbrs = [[(v, eid if u < v else g.m, w) for v, eid, w in row]
                for u, row in enumerate(nbrs)]
    if len(cut) - g.n <= SHARED_LANE_SURPLUS:
        _raise_by_lanes(g, sources, cut, values, nbrs)
        return
    for s in sources:  # a tree edge read as m holds no entry: no lane
        _raise_by_lanes(g, [s], [eid for eid in bfs_tree_eids(nbrs, s)
                                 if values.get(eid, INF) != INF],
                        values, nbrs)


def _raise_by_lanes(g, sources, cut, values, nbrs):
    # Sources run in batches, K = len(cut) lanes each: lane b*K + i starts
    # at the batch's source b and keeps every edge but cut[i].  A lane's
    # eccentricity is the last level that reaches any vertex in it, so
    # scanning the levels from the top down settles each lane once.  The
    # scan stops at the lowest entry, which no lane at or below it can
    # raise.  A lane that leaves a vertex unreached is infinite.  nbrs is
    # g._out_nbrs or its one-way copy, whose extra edge id m is never cut.
    if not cut:
        return
    k = len(cut)
    # each source once: a repeat in one batch would overwrite its lanes
    sources = list(dict.fromkeys(sources))
    size = max(1, LANE_BATCH_BITS // k)
    floor = min(values[eid] for eid in cut)
    block = (1 << k) - 1
    for lo in range(0, len(sources), size):
        batch = sources[lo:lo + size]
        full = (1 << (len(batch) * k)) - 1
        rep = full // block  # bit b*K for each source b of the batch
        alive = [full] * (g.m + 1)   # alive[m]: the one-way copy's arcs
        for i, eid in enumerate(cut):
            alive[eid] = full ^ (rep << i)
        levels, missed = lane_bfs(
            nbrs, alive, {s: block << (b * k) for b, s in enumerate(batch)},
            full)
        for j in _bits(missed):
            values[cut[j % k]] = INF
        pending = full ^ missed
        d = len(levels)
        while pending and d - 1 > floor:
            d -= 1
            reached = 0
            for mask in levels[d].values():
                reached |= mask
            hit = reached & pending
            pending ^= hit
            for j in _bits(hit):
                eid = cut[j % k]
                if d > values[eid]:
                    values[eid] = d


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _raise_by_subtree_repair(g, trees, values):
    # Only the subtree below v can change distance when e = (p -> v) fails.
    # Each of its vertices is seeded with its cheapest in-edge from outside
    # the subtree (e excluded), whose tail keeps its tree distance, and a
    # Dijkstra run confined to the subtree settles the rest; a vertex left
    # unreached makes the value infinite.  Distances outside the subtree
    # stay within ecc_G(s), which the entries already hold.
    n = g.n
    in_nbrs, out_nbrs = g._in_nbrs, g._out_nbrs
    for tree in trees:
        # (v, eid) for every tree edge p -> v whose entry may still rise
        cut = [(v, entry[1]) for v, entry in enumerate(tree.parent)
               if entry is not None and values.get(entry[1], INF) != INF]
        if not cut:
            continue
        dist = tree.dist
        pre, tin, tout = preorder(tree.parent, tree.source)
        new = [INF] * n
        inside = [-1] * n       # tin of the subtree root whose run marked it
        for v, eid in cut:
            lo = tin[v]
            sub = pre[lo:tout[v]]
            for x in sub:
                inside[x] = lo
            heap = []
            for x in sub:
                best = INF
                for y, yeid, w in in_nbrs[x]:
                    if inside[y] != lo and yeid != eid:
                        d = dist[y] + w
                        if d < best:
                            best = d
                new[x] = best
                if best < INF:
                    heap.append((best, x))
            heapify(heap)
            # the last vertex settled is the farthest; any left unsettled
            # were cut off
            left = len(sub)
            while heap:
                dx, x = heappop(heap)
                if dx > new[x]:
                    continue
                left -= 1
                far = dx
                for z, _, w in out_nbrs[x]:
                    if inside[z] == lo:
                        dz = dx + w
                        if dz < new[z]:
                            new[z] = dz
                            heappush(heap, (dz, z))
            ecc = INF if left else far
            if ecc > values[eid]:
                values[eid] = ecc


def build_ecc_fdo(g: Graph, source=0) -> SingleFDO:
    if g.directed:
        raise GraphError("eccentricity FDO requires an undirected graph")
    if type(source) is not int or not 0 <= source < g.n:
        raise GraphError(f"source must be a vertex in 0..{g.n - 1}, "
                         f"got {source!r}")
    tree = sssp(g, source)
    ecc = max(tree.dist)
    if ecc == INF:
        raise GraphError("eccentricity FDO needs a connected graph")
    tree_eids = sorted(entry[1] for entry in tree.parent if entry is not None)
    values = dict.fromkeys(tree_eids, ecc)
    if g.weighted:
        _raise_by_subtree_repair(g, [tree], values)
    else:
        raise_by_replacement_ecc(g, [source], values)
    return SingleFDO.from_edge_values(
        "ecc", g, {eid: 2 * val for eid, val in values.items()},
        {"source": source, "fallback": 2 * ecc})


def _limited_bfs_dist(adj, s, t, limit):
    # distance from s to t != s in the adjacency dict, capped at limit+1
    seen = {s: 0}
    frontier = [s]
    d = 0
    while frontier and d < limit:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    if v == t:
                        return d
                    seen[v] = d
                    nxt.append(v)
        frontier = nxt
    return limit + 1


def greedy_spanner(g: Graph, k: int):
    """Edge ids of the greedy (2k-1)-spanner, in id order: keep an edge iff
    the spanner built so far connects its endpoints only with more than
    2k-1 hops."""
    limit = 2 * k - 1
    adj = {}
    spanner = []
    for eid, (u, v, _) in enumerate(g.edges):
        if _limited_bfs_dist(adj, u, v, limit) > limit:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
            spanner.append(eid)
    return spanner


def build_spanner_fdo(g: Graph, k: int) -> SingleFDO:
    """diam(G-e) on the edges of :func:`greedy_spanner`; fallback diam(G) +
    2(k-1).

    diam(G-e) for the spanner edges comes from
    :func:`raise_by_replacement_ecc` over all n sources with an entry per
    spanner edge: a lane per source and spanner edge (per edge of the
    source's BFS tree on a dense spanner), a few sources per bit-lane BFS,
    instead of a full diameter computation (n BFS runs, O(n*m)) per
    spanner edge."""
    if type(k) is not int or k < 1:
        raise GraphError(f"spanner parameter must be an int >= 1, got {k!r}")
    if g.directed or g.weighted:
        raise GraphError("spanner FDO requires an undirected unweighted graph")
    base = diameter(g)
    if base == INF:
        raise GraphError("spanner FDO needs a connected graph")
    values = dict.fromkeys(greedy_spanner(g, k), base)
    raise_by_replacement_ecc(g, range(g.n), values)
    return SingleFDO.from_edge_values("spanner", g, values,
                                      {"k": k, "base": base})


def default_scan_threshold(n: int) -> int:
    """Additive budgets up to this bound are cheap enough to scan exactly."""
    return 4 * math.ceil(math.log2(max(n, 2)))


def build_approx_fdo(g: Graph, epsilon, pivot_mode="deterministic", seed=None,
                     C=3.0, scan_threshold=None) -> SingleFDO:
    """(1+eps)-approximate oracle on an unweighted graph.

    With the additive slack floor(eps * diam(G)) at most ``scan_threshold``
    the entries are exact: :func:`raise_by_replacement_ecc` over all n
    sources, as in :func:`build_exact_fdo`.  Otherwise only the pivots are
    scanned, each entry gets the slack added, and bridges answer infinity.
    The kernel runs a few scanned sources per bit-lane BFS, instead of n*m
    per source.

    ``pivot_mode`` is ``"deterministic"`` or ``"random"``, which needs a
    ``seed``; both are checked before the mode is chosen, so a seedless
    random build is refused on a graph that would take the exact scan.
    """
    require_positive(epsilon=epsilon, C=C)
    if pivot_mode not in ("deterministic", "random"):
        raise GraphError(f"unknown pivot mode {pivot_mode!r}")
    if pivot_mode == "random" and seed is None:
        raise GraphError("random pivot mode requires a seed")
    if g.weighted:
        raise GraphError("approximate FDO requires an unweighted graph")
    base = diameter(g)
    if base == INF:
        raise GraphError("approximate FDO needs a strongly connected graph")
    if epsilon * base == INF:
        raise GraphError(f"epsilon * diam(G) overflows: {epsilon} * {base}")
    slack = math.floor(epsilon * base)
    if scan_threshold is None:
        scan_threshold = default_scan_threshold(g.n)

    values = dict.fromkeys(range(g.m), base)
    mode = "exact-scan" if slack <= scan_threshold else "pivot"
    pivots = []
    if mode == "exact-scan":
        raise_by_replacement_ecc(g, range(g.n), values)
    else:
        bridges = strong_bridges(g)
        if pivot_mode == "random":
            pivots = random_pivots(g, slack, C=C, seed=seed)
        else:
            pivots = deterministic_pivots(g, slack, bridges=bridges)
        raise_by_replacement_ecc(g, pivots, values)
        values = {eid: INF if eid in bridges else val + slack
                  for eid, val in values.items()}
    params = {"base": base, "eps": epsilon, "slack": slack, "mode": mode}
    return SingleFDO.from_edge_values("approx", g, values, params, pivots)


# ---------------------------------------------------------------------------
# pivot selection


def random_pivots(g: Graph, theta: int, C=3.0, seed=0):
    """Each vertex kept independently with probability min(1, C*ln(n)/theta),
    for an int theta >= 1, a finite C > 0 and a seed that is not None (a
    draw from OS entropy would not repeat)."""
    if type(theta) is not int or theta < 1:
        raise GraphError(f"theta must be an int >= 1, got {theta!r}")
    require_positive(C=C)
    if seed is None:
        raise GraphError("random pivots require a seed")
    p = min(1.0, C * math.log(max(g.n, 2)) / theta)
    rng = random.Random(seed)
    return sorted(v for v in range(g.n) if rng.random() < p)


def deterministic_pivots(g: Graph, theta: int, bridges=None):
    """Pivot set covering every surviving single-failure graph: for each
    vertex s and non-bridge edge e there is a pivot within distance theta,
    an int >= 1, of s in G-e.

    Built by hitting short prefixes of the paths toward a fixed root, both
    in the base graph and in each G-e for the edges e on the base
    prefixes; the root itself covers everything that stays close to it.
    Sources already within the prefix length of the root still get their
    per-edge prefixes collected: cutting their tree edge can push them
    arbitrarily far from the root, so skipping them (tempting, since the
    base prefix is trivial) breaks the covering guarantee.

    The prefixes in every G-e come from one :func:`graph.lane_bfs` toward
    the root with a lane per non-bridge edge e on the base prefixes, not
    from one :func:`graph.sssp` tree to the root per e: each is lane e's
    :func:`graph.lane_path` from s, whose parents ``sssp(g, root, {e},
    reverse=True)`` picks too, so the pivots are the same.
    Unit weights only: weighted graphs raise :class:`GraphError`, and so do
    graphs that are not strongly connected, which ``strong_bridges(g)``
    refuses.  A given ``bridges`` must be ``strong_bridges(g)``: it saves
    that call.
    """
    if type(theta) is not int or theta < 1:
        raise GraphError(f"theta must be an int >= 1, got {theta!r}")
    if g.weighted:
        raise GraphError("deterministic pivots need an unweighted graph")
    prefix_len = min(theta, math.isqrt(g.n)) or 1
    if bridges is None:
        bridges = strong_bridges(g)
    pivots = set(greedy_hitting_set(_pivot_paths(g, 0, prefix_len, bridges)))
    pivots.add(0)
    return sorted(pivots)


def _pivot_paths(g, root, length, bridges):
    # The paths the pivots must hit: for each s other than the root, its
    # first ``length`` hops toward the root in G, and in G-e for each
    # non-bridge edge e of that base prefix, where s is farther than that.
    # Lane e of one lane BFS toward the root keeps every edge but e, and a
    # detour prefix is lane e's lane_path from s, ``length`` steps over
    # out-edges: the parents sssp(g, root, {e}, reverse=True) picks.
    base = sssp(g, root, reverse=True)
    prefixes = [_prefix_toward_root(base, s, length) for s in range(g.n)]
    lane = {}
    for _, eids in prefixes:
        for eid in eids:
            if eid not in bridges and eid not in lane:
                lane[eid] = 1 << len(lane)
    full = (1 << len(lane)) - 1
    alive = [full] * g.m
    for eid, bit in lane.items():
        alive[eid] ^= bit
    levels = lane_bfs(g._in_nbrs, alive, {root: full}, full)[0]
    reach = [[] for _ in range(g.n)]    # (d, the lanes first reaching v at d)
    for d, level in enumerate(levels):
        for v, mask in level.items():
            reach[v].append((d, mask))
    paths = []
    for s in range(g.n):
        if s == root:
            continue
        verts, eids = prefixes[s]
        if base.dist[s] > length:
            paths.append(verts)
        for eid in eids:
            bit = lane.get(eid)
            if bit is None:
                continue
            d = next((d for d, mask in reach[s] if mask & bit), INF)
            if d == INF:    # e is a bridge that ``bridges`` lacks
                paths.append([s])
            elif d > length:
                paths.append(lane_path(levels, g._out_nbrs, alive, s, d, bit,
                                       length)[0])
    return paths


def _prefix_toward_root(tree, s, length):
    verts = [s]
    eids = []
    v = s
    while len(eids) < length and tree.parent[v] is not None:
        v, eid = tree.parent[v]
        verts.append(v)
        eids.append(eid)
    return verts, eids


def greedy_hitting_set(paths):
    """Repeatedly pick the vertex lying on the most unhit paths (smallest id
    on ties) until every path is hit.  A heap holds one ``(-count, v)``
    entry per vertex, refreshed lazily: counts only fall, so an entry whose
    count is current when popped is the pick, and a hit only decrements
    counts."""
    incidence = {}
    for idx, verts in enumerate(paths):
        for v in verts:
            incidence.setdefault(v, []).append(idx)
    count = {v: len(ids) for v, ids in incidence.items()}
    heap = [(-c, v) for v, c in count.items()]
    heapify(heap)
    hit = [False] * len(paths)
    remaining = len(paths)
    picked = []
    while remaining:
        c, v = heappop(heap)
        if -c != count[v]:  # stale: back in with its current count
            if count[v]:
                heappush(heap, (-count[v], v))
            continue
        picked.append(v)
        for idx in incidence[v]:
            if not hit[idx]:
                hit[idx] = True
                remaining -= 1
                for u in paths[idx]:
                    count[u] -= 1
    return picked
