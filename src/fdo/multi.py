"""(f+2)-approximate diameter oracle for multiple edge failures.

Undirected, non-negative weights.  The oracle is one shortest-path tree
from a fixed source (per vertex: its distance and parent edge) and the
edge list.  The constructor derives the rest from them, on a build and on
a load alike: a swap weight per edge (zero on tree edges, the tree-distance
detour dist[u] + w + dist[v] elsewhere), maxdist = max(dist) and the
preorder index of the tree.  A query reconnects the tree around
the failed tree edges with minimum-swap-weight edges, derives a certified
lower bound on the new diameter from the most expensive reconnection, and
answers f*gap + 2*maxdist.  Infinity is returned exactly when the failures
disconnect the graph.

Query cost: after k tree-edge cuts every component but the source's lies
in the preorder slice of a cut subtree, and only non-tree edges cross
components (cf. Duan & Pettie, "Connectivity oracles for failure prone
graphs", STOC 2010).  A query labels those slices and scans their vertices'
non-tree half-edges, ``nontree[v]``, sorted by ``(swap weight, eid)``.
Each vertex of a component c stops at its first edge into the source's
component 0 or at the first key at or above b0(c), the cheapest such edge
seen so far: O(k + sum of the cut-subtree sizes) plus the half-edges below
b0(c), and at most the slices' whole non-tree degree.  The spanning step
runs inline on the at most k+1 components: one Prim pass from component 0
over the cheapest edge per component pair, O(k*p) for p <= k(k+1)/2
pairs, joins each other component by the swap edge to its parent.  With
f=1 a query is one lookup in a precomputed swap table.
"""
from __future__ import annotations

from .graph import (Graph, GraphError, INF, dist_eq, fmt_dist, index_edges,
                    preorder, resolve_pairs, sssp)


class MultiFDO:
    """Built once, queried with failure sets of up to f vertex pairs.

    mode 'paper' answers f*gap + 2*maxdist; mode 'tight' uses the number of
    actually failed tree edges instead of f.  Both sit within the same
    [truth, (f+2)*truth] window.  Queries allocate only transient state, so
    concurrent querying is safe.

    The constructor takes the tree rows ``dist`` and ``parent_eid``, checks
    that they are a shortest-path tree at ``source`` (under ``dist_eq``)
    and derives ``swap_weight``, ``maxdist``, ``cut_root``, the sorted
    ``nontree`` rows and ``f1_swap``.
    """

    kind = "multi"
    directed = False

    def __init__(self, n, edges, f, mode, source, dist, parent_eid):
        if f < 1:
            raise GraphError(f"failure budget must be >= 1, got {f}")
        if mode not in ("paper", "tight"):
            raise GraphError(f"unknown output mode {mode!r}")
        self.n = n
        self.edges = edges
        self.f = f
        self.mode = mode
        self.source = source
        self.dist = dist
        self.parent_eid = parent_eid        # per vertex, None at the source
        self.m = len(edges)
        self.edge_lookup = index_edges(edges, False)
        self.maxdist = max(dist)
        self._index_tree()
        cut_root = self.cut_root
        # Per vertex, its non-tree half-edges as (swap weight, eid, other
        # end), sorted by the distinct (swap weight, eid) keys, so a query
        # stops each row at its component's cheapest edge to the source's
        # component (query_details says why).  Tree edges keep swap weight 0.
        self.swap_weight = swap_weight = [0] * len(edges)
        self.nontree = nontree = [[] for _ in range(n)]
        for eid, (u, v, w) in enumerate(edges):
            if eid not in cut_root:
                sw = swap_weight[eid] = dist[u] + w + dist[v]
                nontree[u].append((sw, eid, v))
                nontree[v].append((sw, eid, u))
        for row in nontree:
            row.sort()
        self.f1_swap = self._cover_tree_edges() if f == 1 else None

    def _index_tree(self):
        # Preorder intervals: nested, so the deepest failed tree edge
        # enclosing a vertex identifies its component after the cut.  The
        # subtree of v is the slice euler[tin[v]:tout[v]].  Loaded rows are
        # checked to form a spanning tree at the source on the way, or the
        # walk could loop forever or skip vertices, and to hold the distances
        # of that tree, which the swap weights are made of.
        n, m, edges, dist = self.n, self.m, self.edges, self.dist
        parent_eid, source = self.parent_eid, self.source
        if (not 0 <= source < n or parent_eid[source] is not None
                or dist[source] != 0):
            raise GraphError(f"tree rows do not root at source {source} "
                             f"at distance 0")
        children = [[] for _ in range(n)]     # ascending, as v ascends
        parent_vert = [None] * n
        # child endpoint of each tree edge (the component root once it
        # fails); its keys are the tree edges
        self.cut_root = cut_root = {}
        for v, eid in enumerate(parent_eid):
            if eid is None:
                continue
            if not 0 <= eid < m:
                raise GraphError(f"tree row of vertex {v} names edge {eid} (m={m})")
            eu, ev, _ = edges[eid]
            if v != eu and v != ev:
                raise GraphError(f"parent edge {eid} of vertex {v} does not touch it")
            pv = ev if eu == v else eu
            parent_vert[v] = pv
            children[pv].append(v)
            cut_root[eid] = v
        # every vertex but the source has one parent, so none is visited twice
        euler, tin, size = preorder(children, source)
        if len(euler) != n:
            raise GraphError(f"tree rows reach {len(euler)} of {n} vertices "
                             f"from source {source}")
        depth = [0] * n
        for v in euler[1:]:
            pv = parent_vert[v]
            depth[v] = depth[pv] + 1
            w = edges[parent_eid[v]][2]
            d = dist[pv] + w
            if d != dist[v] and not dist_eq(d, dist[v]):
                raise GraphError(f"tree row of vertex {v} has distance "
                                 f"{fmt_dist(dist[v])}, not {fmt_dist(dist[pv])}"
                                 f" + {fmt_dist(w)} along edge {parent_eid[v]}")
        self.tin, self.depth, self.euler = tin, depth, euler
        self.tout = [t + s for t, s in zip(tin, size)]
        self.parent_vert = parent_vert

    def _tree_path_eids(self, x, y):
        eids = []
        while x != y:
            if self.depth[x] < self.depth[y]:
                x, y = y, x
            eids.append(self.parent_eid[x])
            x = self.parent_vert[x]
        return eids

    def _cover_tree_edges(self):
        # Single-failure fast path: cheapest swap edge per tree edge, found
        # by marking every tree edge on each non-tree edge's endpoint path.
        best = {}
        for eid, (u, v, _) in enumerate(self.edges):
            if eid in self.cut_root:
                continue
            cand = (self.swap_weight[eid], eid)
            for teid in self._tree_path_eids(u, v):
                if teid not in best or cand < best[teid]:
                    best[teid] = cand
        return {teid: eid for teid, (_, eid) in best.items()}

    # ------------------------------------------------------------------ query

    def query(self, pairs):
        return self.query_details(pairs)["answer"]

    def query_details(self, pairs, force_general=False):
        """Full query transcript: answer, lower-bound gap, swap edges picked,
        and the failed-tree-edge count (used by the stretch audits).

        The general path labels the k failed tree edges' subtrees and walks
        their vertices' sorted ``nontree`` rows, skipping internal and
        failed half-edges.  It keeps b0(c), the cheapest non-failed edge
        from component c to the source's component 0, and each vertex of c
        stops at its first edge into component 0 or at the first key at or
        above b0(c); edges to other cut components are kept per component
        pair on the way.  One Prim pass over the b0 edges and the pair
        minima, p <= k(k+1)/2 edges, then joins the components in O(k*p).

        Why stopping is exact: the minimum spanning tree over the
        components is unique, as the (swap weight, eid) keys are distinct.
        A vertex stops before its cheapest edge to component 0 only at a
        cheaper one, so each b0(c) is exact.  If both endpoints of an edge
        e between components c and c', neither of them 0, stop before e,
        then b0(c) and b0(c') are both cheaper than e: e is the heaviest
        edge of the cycle c-0-c' and in no minimum spanning tree.  So every
        tree edge is kept, Prim finds the same tree, and ``swap_eids``,
        ``gap``, ``k``, ``finite`` and ``answer`` equal a full scan's.  A
        component with no edge to component 0 never stops early.

        With f=1 (unless ``force_general``) the query is one lookup in the
        precomputed swap table.
        """
        if not isinstance(pairs, (tuple, list)):
            pairs = list(pairs)
        if len(pairs) > self.f:
            raise GraphError(
                f"too many failures: {len(pairs)} pairs, oracle has f={self.f}")
        eids, _ = resolve_pairs(pairs, self.n, False, self.edge_lookup)
        cut_root = self.cut_root
        failed_tree = [e for e in eids if e in cut_root]    # sorted, as eids
        k = len(failed_tree)
        if k == 0:
            return {"k": 0, "gap": 0, "swap_eids": [], "finite": True,
                    "answer": 2 * self.maxdist}
        swap_weight, dist = self.swap_weight, self.dist
        if self.f == 1 and not force_general:
            swap = self.f1_swap.get(failed_tree[0])
            if swap is None:
                return {"k": k, "gap": 0, "swap_eids": [], "finite": False,
                        "answer": INF}
            gap = swap_weight[swap] - dist[cut_root[failed_tree[0]]]
            if not gap >= 0:  # nor nan: never below 0, as on the general path
                gap = 0
            return {"k": k, "gap": gap, "swap_eids": [swap], "finite": True,
                    "answer": gap + 2 * self.maxdist}

        # Component c = i+1 is the subtree of roots[i] minus deeper cut
        # subtrees: roots sorted by tin, so the slices are labelled
        # outermost first and nested ones overwrite.  Vertices left
        # unlabelled are in the source's component 0.
        tin, tout, euler = self.tin, self.tout, self.euler
        roots = sorted([cut_root[e] for e in failed_tree], key=tin.__getitem__)
        comp = {}
        for c, r in enumerate(roots, 1):
            comp.update(dict.fromkeys(euler[tin[r]:tout[r]], c))
        # cheapest (swap weight, eid, c, c') per component pair, keyed by
        # c*(k+1) + c' with c < c', so key c holds b0(c)
        nontree = self.nontree
        crossing = {}
        k1 = k + 1
        top = (INF, self.m)         # above every (swap weight, eid) key
        for v, cv in comp.items():
            stop = crossing.get(cv, top)
            for half in nontree[v]:
                if half >= stop:
                    break
                sw, eid, u = half
                cu = comp.get(u, 0)
                if cu == cv or eid in eids:
                    continue
                if not cu:
                    crossing[cv] = (sw, eid, 0, cv)
                    break
                key = cu * k1 + cv if cu < cv else cv * k1 + cu
                old = crossing.get(key)
                # decided by eid, unless old is this edge from its other end
                if old is None or half < old:
                    crossing[key] = (sw, eid, cu, cv)
        # Prim from component 0: each step joins the cheapest pair edge with
        # one end joined, the new component's parent edge in the minimum
        # spanning tree (unique: the (swap weight, eid) keys are distinct).
        # No such edge left: the failures disconnect G.
        pair_edges = sorted(crossing.values())
        joined = [True] + [False] * k
        gap = 0
        swap_eids = []
        for _ in range(k):
            for sw, eid, a, b in pair_edges:
                if joined[a] != joined[b]:
                    break
            else:
                return {"k": k, "gap": 0, "swap_eids": [], "finite": False,
                        "answer": INF}
            c = b if joined[a] else a
            joined[c] = True
            swap_eids.append(eid)
            g = sw - dist[roots[c - 1]]
            if g > gap:
                gap = g
        swap_eids.sort()
        mult = self.f if self.mode == "paper" else k
        return {"k": k, "gap": gap, "swap_eids": swap_eids, "finite": True,
                "answer": mult * gap + 2 * self.maxdist}


def build_multi_fdo(g: Graph, f: int, mode="paper") -> MultiFDO:
    if g.directed:
        raise GraphError("multi-failure FDO requires an undirected graph")
    tree = sssp(g, 0)
    if INF in tree.dist:
        raise GraphError("multi-failure FDO needs a connected graph")
    parent_eid = [entry[1] if entry is not None else None for entry in tree.parent]
    return MultiFDO(g.n, list(g.edges), f, mode, 0, tree.dist, parent_eid)
