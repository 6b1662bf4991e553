"""Graph core: immutable graphs, shortest-path trees, diameters, bridges.

Distances are plain numbers (exact ints on unit/integer weights, floats
otherwise) with ``math.inf`` for unreachable; addition saturates and
comparisons treat infinity as maximal, so no wrapper type is needed.
"""
from __future__ import annotations

import math
from heapq import heappush, heappop

INF = math.inf

# Absolute tolerance for float distance comparisons; integer-weighted
# graphs keep exact integer arithmetic and never hit this.
DIST_EPS = 1e-9


class GraphError(ValueError):
    """Malformed graph data, failure set, or violated oracle precondition."""


def require_positive(**params):
    """Refuse a float build parameter that is not finite and above 0."""
    for name, x in params.items():
        if not 0 < x < INF:     # nan fails too
            raise GraphError(f"{name} must be positive and finite, got {x}")


def dist_eq(a, b) -> bool:
    """Distance equality, tolerant for floats, with inf == inf."""
    if a == b:
        return True
    if a == INF or b == INF:
        return False
    return abs(a - b) <= DIST_EPS


def fmt_dist(x) -> str:
    """Render a distance; 'inf' for unreachable, repr-roundtrip for floats.

    An integral float is written as ``<int>.0`` (``7.0``, and 1e16 as
    ``10000000000000000.0``), so ``parse_dist`` reads every float back as a
    float, a loader that adds them rounds as the build did, and no '+' of
    repr's exponent appears.
    """
    if x == INF:
        return "inf"
    if isinstance(x, float):
        return f"{int(x)}.0" if x.is_integer() else repr(x)
    return str(x)


def _unwritten(text) -> bool:
    # int() takes '+1', '1_0' and other scripts' digits, which no file
    # this package writes holds (fmt_dist writes an integral float as
    # digits and '.0'): the parsers refuse them.
    return not text.isascii() or "_" in text or "+" in text


def parse_dist(tok: str):
    if tok == "inf":
        return INF
    try:
        return int(tok)
    except ValueError:
        return float(tok)


class Graph:
    """Immutable vertex/edge structure with indexed adjacency.

    Vertices are 0..n-1, edges are 0..m-1 in construction order.  Each
    ``_out_nbrs[v]`` and ``_in_nbrs[v]`` row lists ``(u, eid, w)`` sorted by
    neighbour id u, so a walk that takes the first qualifying neighbour
    takes the smallest-id one.  Safe for concurrent reads once built.  Use
    :func:`build_graph` to construct with validation.
    """

    __slots__ = ("n", "directed", "weighted", "edges", "edge_lookup",
                 "_out_nbrs", "_in_nbrs")

    def __init__(self, n, directed, edges):
        self.n = n
        self.directed = directed
        self.edges = edges  # list of (u, v, w)
        self.weighted = any(w != 1 for _, _, w in edges)
        # pair -> edge id; (u, v) with u < v when undirected
        self.edge_lookup = {(v, u) if v < u and not directed else (u, v): eid
                            for eid, (u, v, _) in enumerate(edges)}
        out_nbrs = [[] for _ in range(n)]
        # undirected: one row per vertex holds both ends' entries
        in_nbrs = [[] for _ in range(n)] if directed else out_nbrs
        for eid, (u, v, w) in enumerate(edges):
            out_nbrs[u].append((v, eid, w))
            in_nbrs[v].append((u, eid, w))
        for row in out_nbrs + in_nbrs if directed else out_nbrs:
            row.sort()  # pairs are unique: no two entries share u
        self._out_nbrs = out_nbrs
        self._in_nbrs = in_nbrs

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_id(self, u, v):
        """Edge id for the pair, or None if the pair is a non-edge."""
        return self.edge_lookup.get(pair_key(u, v, self.directed))

    def __repr__(self):
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind}, n={self.n}, m={self.m})"


def pair_key(u, v, directed):
    if directed or u < v:
        return (u, v)
    return (v, u)


def build_graph(n, directed, edge_list) -> Graph:
    """Validate an edge list and build the graph.

    Entries are (u, v) or (u, v, w); missing weights default to 1.  Rejects
    entries of another shape, self-loops, duplicate pairs, negative or
    non-finite weights, weights that are not an ``int`` or ``float``
    (``bool`` included), and ids that are not an ``int`` (``bool``
    included) in 0..n-1, naming the offending entry.  A repeated pair is found in ``Graph.edge_lookup``, the one pair
    dictionary, and an entry that is a (u, v, w) tuple is kept as the edge.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    edges = []
    for item in edge_list:
        try:
            u, v, w = item if len(item) == 3 else (*item, 1)
        except (TypeError, ValueError):
            raise GraphError(f"edge entry {item!r} is not (u, v) or "
                             f"(u, v, w)") from None
        if not (type(u) is int and type(v) is int):
            raise GraphError(f"edge ({u!r},{v!r}) has an endpoint that is "
                             f"not an int")
        if type(w) is not int and type(w) is not float:
            raise GraphError(f"edge ({u},{v}) has weight {w!r}, not an int "
                             f"or float")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has out-of-range endpoint (n={n})")
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed")
        if w < 0:
            raise GraphError(f"edge ({u},{v}) has negative weight {w}")
        if not w < INF:  # inf, and nan, which compares false to everything
            raise GraphError(f"edge ({u},{v}) has non-finite weight {w}")
        edges.append(item if type(item) is tuple and len(item) == 3
                     else (u, v, w))
    g = Graph(n, directed, edges)
    lookup = g.edge_lookup
    if len(lookup) < len(edges):    # a later edge took the pair's entry
        for eid, (u, v, _) in enumerate(edges):
            later = lookup[pair_key(u, v, directed)]
            if later != eid:
                raise GraphError(f"duplicate edge pair ({u},{v}): edges "
                                 f"{eid} and {later}")
    return g


# ---------------------------------------------------------------------------
# shortest paths


class ShortestPathTree:
    """Parent/distance structure from a source (sssp) or to a root (in_tree).

    parent[v] is (next_vertex, edge_id) toward the source/root, None at the
    source and at unreachable vertices.
    """
    __slots__ = ("source", "dist", "parent")

    def __init__(self, source: int, dist: list, parent: list):
        self.source = source
        self.dist = dist
        self.parent = parent


def distances(g: Graph, source, excluded=frozenset(), reverse=False):
    """Distance row from (or, with reverse=True, to) ``source`` in g minus
    the excluded edge ids.  BFS on unit weights, Dijkstra otherwise."""
    return _search(g, source, excluded, reverse)[0]


def _search(g, source, excluded, reverse):
    # (dist, order): the distance row plus the reachable vertices in the
    # order the search settled them, which the parent rows need.
    nbrs = g._in_nbrs if reverse else g._out_nbrs
    dist = [INF] * g.n
    dist[source] = 0
    if not g.weighted:
        order = [source]
        for u in order:  # the list grows while it is walked: a FIFO queue
            dv = dist[u] + 1
            for v, eid, _ in nbrs[u]:
                if dist[v] == INF and eid not in excluded:
                    dist[v] = dv
                    order.append(v)
        return dist, order
    order = []
    heap = [(0, source)]
    while heap:
        du, u = heappop(heap)
        if du > dist[u]:
            continue
        order.append(u)
        for v, eid, w in nbrs[u]:
            if eid in excluded:
                continue
            dv = du + w
            if dv < dist[v]:
                dist[v] = dv
                heappush(heap, (dv, v))
    return dist, order


def _parents(g, root, dist, order, excluded, reverse):
    # Among equal-distance predecessors pick the smallest vertex id, which
    # makes every tree (and everything built on top) deterministic: the rows
    # are sorted by neighbour id, so that is the first that qualifies.  A
    # predecessor qualifies only if the search settled it earlier.  Across a
    # positive weight that always holds; across a zero weight it keeps
    # equal-distance vertices from choosing each other and closing a cycle.
    nbrs = g._out_nbrs if reverse else g._in_nbrs
    parent = [None] * g.n
    if not g.weighted:  # BFS: one level closer is settled earlier
        for v in order[1:]:
            up = dist[v] - 1
            for u, eid, _ in nbrs[v]:
                if dist[u] == up and eid not in excluded:
                    parent[v] = (u, eid)
                    break
        return parent
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    for v in order[1:]:
        dv = dist[v]
        rv = rank[v]
        for u, eid, w in nbrs[v]:
            if (rank[u] < rv and eid not in excluded
                    and dist_eq(dist[u] + w, dv)):
                parent[v] = (u, eid)
                break
    return parent


def sssp(g: Graph, source, excluded=frozenset()) -> ShortestPathTree:
    """Shortest-path tree from ``source`` in g minus the excluded edge ids."""
    dist, order = _search(g, source, excluded, False)
    return ShortestPathTree(source, dist,
                            _parents(g, source, dist, order, excluded, False))


def in_tree(g: Graph, root, excluded=frozenset()) -> ShortestPathTree:
    """Tree of shortest paths TO ``root`` (edge-reversed search).  Identical
    to sssp on undirected graphs."""
    dist, order = _search(g, root, excluded, True)
    return ShortestPathTree(root, dist,
                            _parents(g, root, dist, order, excluded, True))


def preorder(parent, root):
    """Preorder of the tree at ``root`` given by a parent row as
    :class:`ShortestPathTree` holds it (``(parent vertex, eid)`` or None),
    children visited in ascending id.  Returns ``(order, tin, size)``: the
    subtree of v is ``order[tin[v]:tin[v] + size[v]]``, and the vertices not
    reached are left out of ``order``."""
    children = [[] for _ in parent]
    for v, entry in enumerate(parent):
        if entry is not None:
            children[entry[0]].append(v)
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += reversed(children[v])
    tin = [0] * len(parent)
    size = [1] * len(parent)
    for i, v in enumerate(order):
        tin[v] = i
    for v in reversed(order):
        for c in children[v]:
            size[v] += size[c]
    return order, tin, size


def lane_bfs(nbrs, alive, start, full):
    """One BFS over many (source, edge subset) lanes at once: bit i of a
    mask is lane i, and lane i keeps edge eid iff bit i of ``alive[eid]``
    is set (multi-source bitset BFS, Then et al., VLDB 2014).  ``start``
    maps each source vertex to the lanes that start there, a lane at one
    source only; ``nbrs`` is an adjacency as ``Graph._out_nbrs`` holds it
    and ``full`` has every lane's bit.

    Returns ``(levels, missed)``: ``levels[d]`` maps each vertex to the
    lanes that reach it first at d hops (``levels[0]`` is ``start``), and
    ``missed`` holds the lanes that leave some vertex unreached.  A vertex
    enters a level once per level that newly reaches it, so the cost is
    O(m) big-int operations per distinct level of each vertex, not per
    lane.
    """
    unreached = [full] * len(nbrs)
    levels = list(_lane_levels(nbrs, alive, start, unreached))
    missed = 0
    for mask in unreached:
        missed |= mask
    return levels, missed


def lane_path(levels, nbrs, alive, t, d, bit, hops=None):
    """Lane ``bit``'s path to t, first reached at d hops in the
    :func:`lane_bfs` ``levels``, walked back ``hops`` steps (all d by
    default) through the first, so smallest-id, neighbour one level closer
    over an edge the lane keeps: the parent ``sssp`` picks on unit weights.
    ``nbrs[v]`` lists the edges into v.  Returns ``(vertices, eids)``, both
    from t back toward the source."""
    verts, eids = [t], []
    v = t
    for level in range(d - 1, d - 1 - (d if hops is None else hops), -1):
        at = levels[level]
        for u, eid, _ in nbrs[v]:
            if at.get(u, 0) & bit and alive[eid] & bit:
                break
        v = u
        verts.append(v)
        eids.append(eid)
    return verts, eids


def _lane_levels(nbrs, alive, start, unreached):
    # The levels of lane_bfs, one at a time, so a caller that needs only
    # their count holds two of them, not D.  unreached[v] starts with
    # every lane's bit and loses each lane's bit as the lane reaches v.
    for v, mask in start.items():
        unreached[v] ^= mask
    frontier = start
    while frontier:
        yield frontier
        level = {}
        for v, mask in frontier.items():
            for u, eid, _ in nbrs[v]:
                # unreached[u] shrinks as lanes arrive: AND it in first
                new = mask & unreached[u]
                if new:
                    new &= alive[eid]
                    if new:
                        unreached[u] ^= new
                        level[u] = level.get(u, 0) | new
        frontier = level


def eccentricity(g: Graph, v, excluded=frozenset()):
    """max_t d(v,t) in g minus excluded; inf when some vertex is unreachable."""
    return max(distances(g, v, excluded))


def diameter(g: Graph, excluded=frozenset()):
    """Exact diameter of g minus excluded edge ids (inf if disconnected).

    On unit weights one bit-lane BFS (the kernel of :func:`lane_bfs`, one
    level held at a time) from all n sources at once, lane v being source
    v: the diameter is its last level, and any missed lane makes it
    infinite.  Other weights take one Dijkstra row per source.
    """
    if g.weighted:
        return max(eccentricity(g, v, excluded) for v in range(g.n))
    full = (1 << g.n) - 1
    alive = [full] * g.m
    for eid in excluded:
        alive[eid] = 0
    unreached = [full] * g.n
    depth = -1
    for _ in _lane_levels(g._out_nbrs, alive, {v: 1 << v for v in range(g.n)},
                          unreached):
        depth += 1
    return INF if any(unreached) else depth


def is_connected(g: Graph, excluded=frozenset()) -> bool:
    """Connectivity (strong connectivity for digraphs) of g minus excluded."""
    if all(d < INF for d in distances(g, 0, excluded)):
        if not g.directed:
            return True
        return all(d < INF for d in distances(g, 0, excluded, reverse=True))
    return False


def strong_bridges(g: Graph) -> set:
    """Edges whose removal disconnects (strongly, if directed) the graph.

    An edge in neither the out-tree from 0 nor the in-tree to 0 leaves both
    trees whole, so it cannot be a strong bridge.  One :func:`lane_bfs` per
    tree, from 0 in its direction, gives each tree edge a lane without it;
    the bridges are the lanes that miss a vertex.  Weights play no part.
    """
    trees = [(sssp(g, 0), g._out_nbrs)]
    if g.directed:
        trees.append((in_tree(g, 0), g._in_nbrs))
    bridges = set()
    for tree, nbrs in trees:
        if INF in tree.dist:
            raise GraphError("graph must be (strongly) connected")
        eids = [p[1] for p in tree.parent if p is not None]
        full = (1 << len(eids)) - 1
        alive = [full] * g.m
        for i, eid in enumerate(eids):
            alive[eid] ^= 1 << i
        missed = lane_bfs(nbrs, alive, {0: full}, full)[1]
        bridges.update(eid for i, eid in enumerate(eids) if missed >> i & 1)
    return bridges


# ---------------------------------------------------------------------------
# failure sets

def resolve_pairs(pairs, n, directed, edge_lookup, f=None):
    """Validate a failure set of vertex pairs and split it against the edge
    dictionary.  Returns (sorted edge ids, non-edge pair count); removing a
    non-edge leaves the graph unchanged, so callers just drop them.  With
    ``f``, an oracle's failure budget, a set of more than f entries (any
    iterable, counted before its entries are checked) is refused first.

    Every key of ``edge_lookup`` must be a valid pair (ids in 0..n-1, not
    a self pair, (u, v) with u < v unless ``directed``): an entry of two
    exact ints is looked up first, and a hit needs no range or self-pair
    check and is a duplicate only if its edge id was seen before.  Only a
    miss gets those checks, and its key is compared with the other
    non-edge keys."""
    if f is not None:
        if not isinstance(pairs, (tuple, list)):
            pairs = list(pairs)
        if len(pairs) > f:
            raise GraphError(
                f"too many failures: {len(pairs)} pairs, oracle has f={f}")
    eids = []
    nonedges = []
    for entry in pairs:
        try:
            u, v = entry
        except (TypeError, ValueError):
            reject_pair(entry, n)
        if type(u) is not int or type(v) is not int:
            reject_pair(entry, n)
        key = (v, u) if v < u and not directed else (u, v)
        eid = edge_lookup.get(key)
        if eid is not None:
            if eid in eids:     # distinct keys have distinct edge ids
                reject_pair(entry, n, duplicate=True)
            eids.append(eid)
        else:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                reject_pair(entry, n)
            if key in nonedges:
                reject_pair(entry, n, duplicate=True)
            nonedges.append(key)
    eids.sort()
    return eids, len(nonedges)


def reject_pair(entry, n, duplicate=False):
    """Raise the GraphError for a failure-set entry that is not a pair, has
    an id outside 0..n-1, a self pair, or (``duplicate``) a repeated pair."""
    try:
        u, v = entry
    except (TypeError, ValueError):
        raise GraphError(f"failure-set entry {entry!r} is not a vertex pair") from None
    if duplicate:
        raise GraphError(f"duplicate pair ({u},{v}) in failure set")
    if not (type(u) is int and type(v) is int
            and 0 <= u < n and 0 <= v < n):
        raise GraphError(f"pair ({u},{v}) has invalid vertex id (n={n})")
    raise GraphError(f"pair ({u},{v}) is not a vertex pair")


# ---------------------------------------------------------------------------
# edge-list text format
#
# First line "n m D|U W|UW" (directed/undirected, weighted/unweighted), then
# m lines "u v" or "u v w"; '#' starts a comment.  A file must have
# n <= m + 1: every oracle needs a connected graph, which fewer edges cannot
# give, and the bound keeps a header from allocating adjacency lists for
# more vertices than the file has lines.

def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    bad = _unwritten(text) and next(filter(_unwritten, lines), None)
    if bad:
        raise GraphError(f"malformed graph line {bad!r}")
    head = lines[0].split()
    if len(head) != 4 or head[2] not in ("D", "U") or head[3] not in ("W", "UW"):
        raise GraphError(f"bad header {lines[0]!r}, want 'n m D|U W|UW'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"bad header {lines[0]!r}, want 'n m D|U W|UW'") from None
    directed = head[2] == "D"
    weighted = head[3] == "W"
    if len(lines) - 1 != m:
        raise GraphError(f"header says m={m} but {len(lines) - 1} edge lines found")
    if n > m + 1:
        raise GraphError(f"header says n={n} but m={m} edges connect at most "
                         f"{m + 1} vertices")
    edge_list = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != (3 if weighted else 2):
            raise GraphError(f"bad {'weighted ' if weighted else ''}edge line {ln!r}")
        try:
            edge_list.append((int(toks[0]), int(toks[1]),
                              parse_dist(toks[2]) if weighted else 1))
        except ValueError:
            raise GraphError(f"bad number in edge line {ln!r}") from None
    return build_graph(n, directed, edge_list)


def format_graph(g: Graph) -> str:
    head = f"{g.n} {g.m} {'D' if g.directed else 'U'} {'W' if g.weighted else 'UW'}"
    out = [head]
    for u, v, w in g.edges:
        out.append(f"{u} {v} {fmt_dist(w)}" if g.weighted else f"{u} {v}")
    return "\n".join(out) + "\n"


def read_text(path) -> str:
    """The text of a UTF-8 file, line ends as they are in the file (the
    parsers split with ``splitlines``); other bytes raise GraphError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def load_graph(path) -> Graph:
    return parse_graph(read_text(path))


def save_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
