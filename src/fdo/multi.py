"""(f+2)-approximate diameter oracle for multiple edge failures.

Undirected, non-negative weights.  The oracle is a function of the graph
alone, and its file holds the edges and nothing derived.  On a build and
on a load alike the constructor runs ``sssp(g, 0)``, the shortest-path
tree from source 0, and derives the rest from it: a swap weight per edge
(zero on tree edges, the tree-distance detour dist[u] + w + dist[v]
elsewhere), maxdist = max(dist), the preorder index of the tree and the
cover table.  A query reconnects the tree around the failed tree edges
with minimum-swap-weight edges, derives a certified lower bound on the
new diameter from the most expensive reconnection, and answers f*gap +
2*maxdist.  Infinity is returned exactly when the failures disconnect the
graph.

Query cost: after k tree-edge cuts every component but the source's lies
in the preorder slice of a cut subtree, and only non-tree edges cross
components (cf. Duan & Pettie, "Connectivity oracles for failure prone
graphs", STOC 2010).  ``cover[v]``, the cheapest non-tree edge by
``(swap weight, eid)`` with exactly one end in subtree(v), comes from one
union-find pass over the non-tree edges in key order (Tarjan's path
painting, "Sensitivity analysis of minimum spanning trees and shortest
path trees", IPL 1982), which stores each cut root's cover gap as it
paints.  One pass over the cut roots in preorder tells the cases apart.
Cuts with k distinct, unfailed cover edges reconnect from the table,
nested or not: by the cut property those edges are the minimum spanning
tree over the components, as each cut subtree is a union of components.
Disjoint cuts pair each cover edge with its own cut in that pass; nested
ones label the edges' ends with their components in O(k^2), as an outer
cut's cover edge may leave from an inner component.  A cut with no cover
edge is inf.  Other queries (a failed or shared cover edge) label the cut
slices and read every half-edge of their vertices in the graph's own
adjacency rows, keeping the cheapest non-failed edge per component pair:
O(k + sum of the cut-subtree sizes and their degrees).  The spanning step
runs inline on the at most k+1 components: one Prim pass from component 0
over those edges, O(k*p) for p <= k(k+1)/2 pairs, joins each other
component by the swap edge to its parent.
"""
from __future__ import annotations

from .graph import Graph, GraphError, INF, preorder, resolve_pairs, sssp


class MultiFDO:
    """Built once, queried with failure sets of up to f vertex pairs.

    mode 'paper' answers f*gap + 2*maxdist; mode 'tight' uses the number of
    actually failed tree edges instead of f.  Both sit within the same
    [truth, (f+2)*truth] window.  Queries allocate only transient state, so
    concurrent querying is safe.  ``query`` returns the answer of the core,
    ``_solve``, and ``query_details`` builds its transcript from the same
    core.

    The constructor is the one way to make the oracle, for a build and a
    load alike: it runs ``sssp(g, 0)`` on the connected, undirected graph
    g and derives ``dist``, ``maxdist``, ``swap_weight``, ``cut_root``,
    ``cover`` and ``cover_gap`` from that tree and g's edges; the scan
    reads g's adjacency rows, ``nbrs``.
    """

    kind = "multi"
    directed = False

    def __init__(self, g: Graph, f: int, mode="paper"):
        if g.directed:
            raise GraphError("multi-failure FDO requires an undirected graph")
        if type(f) is not int or f < 1:
            raise GraphError(f"failure budget must be an int >= 1, got {f!r}")
        if mode not in ("paper", "tight"):
            raise GraphError(f"unknown output mode {mode!r}")
        tree = sssp(g, 0)
        if INF in tree.dist:
            raise GraphError("multi-failure FDO needs a connected graph")
        self.n = n = g.n
        self.m = g.m
        self.edges = edges = g.edges
        self.nbrs = g._out_nbrs             # (u, eid, w) rows, for the scan
        self.edge_lookup = g.edge_lookup    # (u, v) with u < v -> edge id
        self.f = f
        self.mode = mode
        self.dist = dist = tree.dist
        self.maxdist = max(dist)
        # Preorder intervals: nested, so the deepest failed tree edge
        # enclosing a vertex identifies its component after the cut.  The
        # subtree of v is the slice euler[tin[v]:tout[v]].  cut_root maps
        # each tree edge to its child endpoint, the component root once it
        # fails.
        parent = tree.parent
        self.cut_root = cut_root = {entry[1]: v for v, entry
                                    in enumerate(parent) if entry is not None}
        self.euler, self.tin, self.tout = preorder(parent, 0)
        tin = self.tin
        # Tree edges keep swap weight 0; the non-tree edges are walked once
        # in (swap weight, eid) order, a stable sort of ascending eids.
        self.swap_weight = swap_weight = [0] * len(edges)
        off_tree = []
        for eid, (u, v, w) in enumerate(edges):
            if eid not in cut_root:
                swap_weight[eid] = dist[u] + w + dist[v]
                off_tree.append(eid)
        off_tree.sort(key=swap_weight.__getitem__)
        # cover[v] is the first edge in key order whose tree path holds
        # v's parent edge: the cheapest with exactly one end in subtree(v),
        # or None.  Each edge paints the unpainted edges of its path
        # (Tarjan's path painting); find[x] leads through painted vertices
        # to x's nearest unpainted ancestor (path halving).  Of two
        # distinct such ancestors, the one with the larger tin is no
        # ancestor of the other, so its parent edge is on the path.
        self.cover = cover = [None] * n
        # cover_gap[v]: the gap of cut root v joined by its cover edge,
        # swap_weight[cover[v]] - dist[v] if above 0, else (nan and no
        # cover too) the int 0, as _solve's gap loop would give it
        self.cover_gap = cover_gap = [0] * n
        find = list(range(n))
        for eid in off_tree:
            x, y, _ = edges[eid]
            sw = swap_weight[eid]
            while True:
                while find[x] != x:
                    find[x] = x = find[find[x]]
                while find[y] != y:
                    find[y] = y = find[find[y]]
                if x == y:
                    break
                if tin[x] < tin[y]:
                    x, y = y, x
                cover[x] = eid
                gap = sw - dist[x]
                if gap > 0:
                    cover_gap[x] = gap
                find[x] = parent[x][0]

    # ------------------------------------------------------------------ query

    def query(self, pairs):
        eids, _ = resolve_pairs(pairs, self.n, False, self.edge_lookup, self.f)
        return self._solve(eids, False)[3]

    def query_details(self, pairs, force_general=False):
        """Full query transcript: answer, lower-bound gap, swap edges picked
        (sorted), and the failed-tree-edge count (used by the stretch
        audits), built from the same core as :meth:`query`."""
        eids, _ = resolve_pairs(pairs, self.n, False, self.edge_lookup, self.f)
        k, gap, swaps, answer = self._solve(eids, force_general)
        return {"k": k, "gap": gap,
                "swap_eids": [] if swaps is None else sorted(swaps),
                "finite": swaps is not None, "answer": answer}

    def _solve(self, eids, force_general):
        """``(k, gap, swaps, answer)`` for the sorted failed edge ids:
        ``swaps`` is the swap edge of each cut root in tin order, [] when
        no tree edge failed and None when the failures disconnect G.

        Cover table: if no cut root's ``cover`` is None, no cover edge
        failed and the k cover edges are distinct, they are the k edges of
        the minimum spanning tree over the components, which is unique as
        the (swap weight, eid) keys are distinct.  The cut subtrees are
        laminar (nested or disjoint), so each subtree(r_i) is a union of
        components.  In G-F only non-tree edges cross its boundary, since
        r_i's tree edge failed, and cover[r_i], unfailed, is the cheapest
        of them; by the cut property it is in the minimum spanning tree,
        and k distinct such edges are all k of its edges.  If the cuts are
        disjoint (consecutive roots in tin order do not nest), component i
        is subtree(r_i) and cover[r_i] leaves it.  Directed away from the
        component it leaves, each edge leaves one of the k components
        other than 0, one edge each, so in the tree they all point toward
        component 0: cover[r_i] is the swap edge from component i to its
        parent, and gap is the first largest ``cover_gap[r_i]``.  If
        they nest, cover[r_i] may leave subtree(r_i) from a deeper cut
        component, so ``_orient`` labels both ends of each edge and roots
        the tree at component 0 by the Prim pass of the scan.  A cut root
        whose cover is None has only its failed tree edge out of its
        subtree: the answer is inf.

        One loop over the roots in tin order (sorted only when k > 1)
        ends at inf on a None cover, marks "scan" for a failed cover edge
        or one an earlier root took and "nested" for a root inside the
        slice of the last root that did not nest, and keeps the first
        largest ``cover_gap``.  Neither mark: the disjoint answer.  Nested
        only: ``_orient``; scan, or ``force_general`` (which skips the
        loop): ``_reconnect``; both then take one gap loop.

        The scan labels the k failed tree edges' subtrees and reads every
        half-edge of their vertices, skipping internal and failed ones, to
        keep the cheapest edge per component pair.  One Prim pass over
        those p <= k(k+1)/2 edges then joins the components in O(k*p):
        each edge of the (unique) minimum spanning tree over the
        components is the cheapest edge between its two components.
        """
        cut_root = self.cut_root
        roots = []
        for e in eids:      # not a comprehension: its call costs f=1 queries
            if e in cut_root:
                roots.append(cut_root[e])
        k = len(roots)
        if not k:
            return 0, 0, [], 2 * self.maxdist
        tin = self.tin
        if k > 1:
            roots.sort(key=tin.__getitem__)
        tout, cover, cover_gap = self.tout, self.cover, self.cover_gap
        swaps = []
        scan, nested = force_general, False
        end = gap = 0
        for r in () if force_general else roots:
            swap = cover[r]
            if swap is None:
                return k, 0, None, INF
            if swap in eids or swap in swaps:
                scan = True     # a failed cover edge, or one of two cuts
            if tin[r] < end:
                nested = True   # in the last root that did not nest
            else:
                end = tout[r]
            g = cover_gap[r]
            if g > gap:
                gap = g
            swaps.append(swap)
        mult = self.f if self.mode == "paper" else k
        if scan:
            swaps = self._reconnect(roots, eids)
            if swaps is None:
                return k, 0, None, INF
        elif nested:
            swaps = self._orient(roots, swaps)
        else:
            return k, gap, swaps, mult * gap + 2 * self.maxdist
        swap_weight, dist = self.swap_weight, self.dist
        gap = 0
        for r, eid in zip(roots, swaps):
            g = swap_weight[eid] - dist[r]
            if g > gap:     # nor nan: never below 0
                gap = g
        return k, gap, swaps, mult * gap + 2 * self.maxdist

    def _reconnect(self, roots, eids):
        """The swap edge joining each cut root's component to its parent in
        the minimum spanning tree over the components, by a scan of the cut
        subtrees' adjacency rows and a Prim pass; None when the failures
        disconnect G."""
        # Component c = i+1 is the subtree of roots[i] minus deeper cut
        # subtrees: roots sorted by tin, so the slices are labelled
        # outermost first and nested ones overwrite.  Vertices left
        # unlabelled are in the source's component 0.  An unfailed tree
        # edge has both ends in one component, so no tree-edge test is
        # needed.
        tin, tout, euler = self.tin, self.tout, self.euler
        comp = {}
        for c, r in enumerate(roots, 1):
            comp.update(dict.fromkeys(euler[tin[r]:tout[r]], c))
        # cheapest (swap weight, eid, a, b) per component pair a < b, keyed
        # by a*(k+1) + b
        nbrs, swap_weight = self.nbrs, self.swap_weight
        crossing = {}
        k = len(roots)
        k1 = k + 1
        for v, cv in comp.items():
            for u, eid, _ in nbrs[v]:
                cu = comp.get(u, 0)
                if cu == cv or eid in eids:
                    continue
                a, b = (cu, cv) if cu < cv else (cv, cu)
                key = a * k1 + b
                sw = swap_weight[eid]
                old = crossing.get(key)
                if old is None or sw < old[0] or sw == old[0] and eid < old[1]:
                    crossing[key] = (sw, eid, a, b)
        return _prim(crossing.values(), k)

    def _orient(self, roots, covers):
        """The swap edge of each cut root's component, from the k distinct,
        unfailed cover edges of nested cuts: each end of each edge is
        labelled with its component, the deepest cut root whose preorder
        slice holds it (roots sorted by tin, so the last that does)."""
        tin, tout, edges = self.tin, self.tout, self.edges
        pair_edges = []
        for eid in covers:
            u, v, _ = edges[eid]
            tu, tv = tin[u], tin[v]
            a = b = 0
            for c, r in enumerate(roots, 1):
                if tin[r] <= tu < tout[r]:
                    a = c
                if tin[r] <= tv < tout[r]:
                    b = c
            pair_edges.append((self.swap_weight[eid], eid, a, b))
        return _prim(pair_edges, len(roots))


def _prim(pair_edges, k):
    """The swap edge of components 1..k by Prim from component 0 over
    ``(swap weight, eid, a, b)`` edges: each step joins the cheapest edge
    with one end joined, the new component's parent edge in the minimum
    spanning tree (unique: the keys are distinct).  None when no edge is
    left: the failures disconnect G."""
    pair_edges = sorted(pair_edges)
    joined = [True] + [False] * k
    swaps = [None] * k
    for _ in range(k):
        for sw, eid, a, b in pair_edges:
            if joined[a] != joined[b]:
                break
        else:
            return None
        c = b if joined[a] else a
        joined[c] = True
        swaps[c - 1] = eid
    return swaps


def build_multi_fdo(g: Graph, f: int, mode="paper") -> MultiFDO:
    return MultiFDO(g, f, mode)
