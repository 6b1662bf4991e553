"""Differential test of the multi-failure oracle.

Hypothesis draws connected undirected graphs with unit, integer (0..3) and
float weights, and failure sets of up to f pairs (f = 1..8) that mix tree
edges, non-tree edges and non-edges.  The general query path must give the
same transcript, field by field and in the same key order, as a reference
copy of the plain O(m + n*k) reconnection (label every vertex, scan every
edge, then a Kruskal of its own over the components), and every answer must
meet the oracle's contract against ``fdo.verify.brute_diam``; ``query``,
which builds no transcript, must give its answer, of the same type.  A fixed
n=300 graph, cut at four of its largest subtrees at a time, checks the same
transcripts where components are large and nested.

The query scan stops each component's walk at its cheapest edge to the
source's component, b0.  Fixed graphs check the transcripts where that
pruning could go wrong: failure sets that also fail the cheapest crossing
edges (a b0 candidate and a pair candidate), nested cuts whose inner
component reaches only the outer one (a pair edge between two cut
components joins the spanning tree), and a unit-weight grid full of
swap-weight ties.  Built and loaded oracles keep each ``nontree`` row
sorted by (swap weight, eid), holding exactly the vertex's non-tree
half-edges.

Queries answered from the cover table (disjoint and nested cuts, and cuts
with no cover edge) and each trigger of its fallback to the scan (a failed
cover edge, a cover edge shared by two cuts) are drawn on fixed graphs,
with a count of the scans each runs, and a fixed gadget nests two cuts so
that the outer cut's cover edge starts in the inner cut's subtree.  An
exhaustive sweep of small graphs cuts every nested set of two or three
tree edges.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fdo import (INF, brute_diam, build_graph, build_multi_fdo, dumps_oracle,
                 gen_random, loads_oracle)
from fdo.graph import DIST_EPS, resolve_pairs, sssp
from fdo.multi import MultiFDO

WEIGHTS = {
    "unit": None,
    "int": st.integers(0, 3),
    "float": st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
}


@st.composite
def graphs(draw, kind):
    """Connected undirected graph with 2..10 vertices: a random spanning
    tree plus random extra pairs, in random edge order."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    pairs = [(order[draw(st.integers(0, i - 1))], order[i])
             for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    seen = {frozenset(p) for p in pairs}
    for u, v in extra:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v))
    # edge ids in random order, so they say nothing about tree depth
    pairs = draw(st.permutations(pairs))
    if WEIGHTS[kind] is None:
        return build_graph(n, False, pairs)
    return build_graph(n, False, [(u, v, draw(WEIGHTS[kind]))
                                  for u, v in pairs])


def tree_edges(o):
    """The edge ids of the shortest-path tree from 0 on the oracle's edges,
    found without the oracle's own tree index."""
    tree = sssp(build_graph(o.n, False, o.edges), 0)
    return {p[1] for p in tree.parent if p is not None}


def failure_sets(o, f):
    """Sets of at most f distinct vertex pairs, each drawn from the tree
    edges, the non-tree edges or the non-edges of the oracle's graph."""
    tree_eids = tree_edges(o)
    tree = [o.edges[e][:2] for e in sorted(tree_eids)]
    nontree = [(u, v) for e, (u, v, _) in enumerate(o.edges)
               if e not in tree_eids]
    nonedges = [(u, v) for u in range(o.n) for v in range(u + 1, o.n)
                if (u, v) not in o.edge_lookup]
    pair = st.one_of([st.sampled_from(c) for c in (tree, nontree, nonedges)
                      if c])
    flipped = st.tuples(pair, st.booleans()).map(
        lambda pf: pf[0][::-1] if pf[1] else pf[0])
    return st.lists(flipped, max_size=f, unique_by=frozenset)


def forest_completion(num_comps, crossing):
    """Kruskal over the per-component-pair minima; None when the auxiliary
    graph cannot be connected (the failures disconnect the graph)."""
    parent = list(range(num_comps))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = {}
    joined = 0
    for (ci, cj), (_, eid) in sorted(crossing.items(), key=lambda kv: kv[1]):
        ri, rj = find(ci), find(cj)
        if ri == rj:
            continue
        parent[ri] = rj
        chosen[(ci, cj)] = eid
        joined += 1
        if joined == num_comps - 1:
            break
    return chosen if joined == num_comps - 1 else None


def rooted_parent_edges(num_comps, chosen):
    """Root the auxiliary tree at component 0; map each other component to
    the swap edge joining it with its parent."""
    adj = {i: [] for i in range(num_comps)}
    for (ci, cj), eid in chosen.items():
        adj[ci].append((cj, eid))
        adj[cj].append((ci, eid))
    parent_edge = {}
    seen = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for nxt, eid in adj[c]:
            if nxt not in seen:
                seen.add(nxt)
                parent_edge[nxt] = eid
                stack.append(nxt)
    return parent_edge


def reference_components(o, failed_tree):
    """Per vertex, 1 + the index in ``failed_tree`` of its deepest enclosing
    cut edge, or 0 in the source's component."""
    roots = [o.cut_root[e] for e in failed_tree]
    comp = [0] * o.n
    for v in range(o.n):
        best_tin = -1
        for i, r in enumerate(roots):
            if o.tin[r] <= o.tin[v] < o.tout[r] and o.tin[r] > best_tin:
                best_tin = o.tin[r]
                comp[v] = i + 1
    return comp


def assert_sorted_rows(o):
    """Each ``nontree[v]`` is v's non-tree half-edges (swap weight, eid,
    other end), sorted by (swap weight, eid)."""
    want = [[] for _ in range(o.n)]
    for eid, (u, v, w) in enumerate(o.edges):
        if eid not in o.cut_root:
            sw = o.dist[u] + w + o.dist[v]
            want[u].append((sw, eid, v))
            want[v].append((sw, eid, u))
    for v, row in enumerate(o.nontree):
        assert row == sorted(want[v], key=lambda h: h[:2]), v


def reference_details(o, pairs):
    """The general query path as a plain O(m + n*k) pass: every vertex gets
    its deepest enclosing cut root, then every edge is scanned."""
    eids, _ = resolve_pairs(pairs, o.n, False, o.edge_lookup)
    failed = set(eids)
    tree_eids = tree_edges(o)
    failed_tree = sorted(e for e in eids if e in tree_eids)
    k = len(failed_tree)
    detail = {"k": k, "gap": 0, "swap_eids": [], "finite": True}
    if k == 0:
        detail["answer"] = 2 * o.maxdist
        return detail
    roots = [o.cut_root[e] for e in failed_tree]
    comp = reference_components(o, failed_tree)
    crossing = {}
    for eid, (u, v, _) in enumerate(o.edges):
        if eid in failed or comp[u] == comp[v]:
            continue
        key = tuple(sorted((comp[u], comp[v])))
        cand = (o.swap_weight[eid], eid)
        if key not in crossing or cand < crossing[key]:
            crossing[key] = cand
    chosen = forest_completion(k + 1, crossing)
    if chosen is None:
        detail.update(answer=INF, finite=False)
        return detail
    parent_edges = rooted_parent_edges(k + 1, chosen)
    gap = max([0] + [o.swap_weight[eid] - o.dist[roots[c - 1]]
                     for c, eid in parent_edges.items()])
    mult = o.f if o.mode == "paper" else k
    detail.update(answer=mult * gap + 2 * o.maxdist, gap=gap,
                  swap_eids=sorted(parent_edges.values()))
    return detail


def meets_contract(detail, truth, f):
    answer = detail["answer"]
    if truth == INF or answer == INF:
        return answer == truth and not detail["finite"]
    return (detail["finite"]
            and truth - DIST_EPS <= answer <= (f + 2) * truth + DIST_EPS
            and detail["gap"] <= truth + DIST_EPS)


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_multi_matches_reference_and_brute(kind, data):
    g = data.draw(graphs(kind))
    for f in range(1, 9):
        o = build_multi_fdo(g, f, mode=data.draw(st.sampled_from(
            ["paper", "tight"])))
        assert_sorted_rows(o)
        assert_sorted_rows(loads_oracle(dumps_oracle(o)))
        for pairs in data.draw(st.lists(failure_sets(o, f), min_size=1,
                                        max_size=4)):
            truth = brute_diam(g, pairs)
            general = o.query_details(pairs, force_general=True)
            default = o.query_details(pairs)
            # equal transcripts, keys in the same order
            want = list(reference_details(o, pairs).items())
            assert list(general.items()) == want, (f, pairs)
            assert list(default.items()) == want, (f, pairs)
            for detail in (general, default):
                assert meets_contract(detail, truth, f), (f, pairs, detail,
                                                          truth)



@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_query_answers_as_query_details(kind, data):
    # query answers from the core without building a transcript: the same
    # answer as query_details, of the same type (repr tells 7 from 7.0),
    # with and without force_general
    g = data.draw(graphs(kind))
    for f in range(1, 9):
        for mode in ("paper", "tight"):
            o = build_multi_fdo(g, f, mode=mode)
            for pairs in data.draw(st.lists(failure_sets(o, f), min_size=1,
                                            max_size=4)):
                got = repr(o.query(pairs))
                for general in (False, True):
                    detail = o.query_details(pairs, force_general=general)
                    assert got == repr(detail["answer"]), (f, mode, pairs)

def test_largest_subtree_cuts_match_reference():
    # Cuts near the root label most of the graph and nest: the Hypothesis
    # graphs (n <= 10) never make subtrees, component pairs or ties this big.
    g = gen_random("er-undirected", 7, n=300, p=6 / 299)
    o = build_multi_fdo(g, 4)
    by_size = sorted(o.cut_root, key=lambda e: (o.tin[o.cut_root[e]]
                                                - o.tout[o.cut_root[e]], e))
    largest = [o.edges[e][:2] for e in by_size[:30]]
    rng = random.Random(7)
    for _ in range(300):
        pairs = rng.sample(largest, 4)
        assert (list(o.query_details(pairs).items())
                == list(reference_details(o, pairs).items())), pairs


def oriented(rng, o, eids):
    """The vertex pairs of ``eids``, each either way round, shuffled."""
    pairs = [o.edges[e][:2][::rng.choice((1, -1))] for e in eids]
    rng.shuffle(pairs)
    return pairs


def float_graph(seed, n, p):
    g = gen_random("er-weighted", seed, n=n, p=p)
    rng = random.Random(seed)
    return build_graph(n, False, [(u, v, rng.choice((0.0, w / 3)))
                                  for u, v, w in g.edges])


PRUNING_GRAPHS = {
    "unit": lambda seed: gen_random("er-undirected", seed, n=40, p=0.12),
    "int": lambda seed: gen_random("er-weighted", seed, n=40, p=0.12,
                                   weight_max=3),
    "float": lambda seed: float_graph(seed, 40, 0.12),
}


@pytest.mark.parametrize("kind", sorted(PRUNING_GRAPHS))
def test_failed_cheapest_crossing_edges_match_reference(kind):
    # Two cuts, plus the failure of the cheapest edge from each cut
    # component to the source's component (its b0 candidate) and of the
    # cheapest edge between the two cut components: the scan must skip
    # failed edges, not stop at them.
    o = build_multi_fdo(PRUNING_GRAPHS[kind](11), 5)
    loaded = loads_oracle(dumps_oracle(o))
    assert_sorted_rows(o)
    assert_sorted_rows(loaded)
    rng = random.Random(11)
    tree = sorted(o.cut_root)
    failed_pair_edges = 0
    for _ in range(300):
        cuts = sorted(rng.sample(tree, 2))
        comp = reference_components(o, cuts)
        crossing = sorted((o.swap_weight[e], e)
                          for e, (u, v, _) in enumerate(o.edges)
                          if e not in o.cut_root and comp[u] != comp[v])
        extra = []
        for c in (1, 2):
            extra += [e for _, e in crossing
                      if {comp[o.edges[e][0]], comp[o.edges[e][1]]} == {0, c}
                      ][:1]
        pair = [e for _, e in crossing
                if {comp[o.edges[e][0]], comp[o.edges[e][1]]} == {1, 2}][:1]
        failed_pair_edges += len(pair)
        pairs = oriented(rng, o, cuts + extra + pair)
        want = list(reference_details(o, pairs).items())
        assert list(o.query_details(pairs).items()) == want, pairs
        assert list(loaded.query_details(pairs).items()) == want, pairs
    assert failed_pair_edges >= 30


@pytest.mark.parametrize("kind", sorted(PRUNING_GRAPHS))
def test_inner_component_reaching_only_outer_matches_reference(kind):
    # Nested cuts, with every edge from the inner component to the
    # source's component failed as well: the inner component never stops
    # early, and it joins the spanning tree by a pair edge to the outer one.
    o = build_multi_fdo(PRUNING_GRAPHS[kind](12), 8)
    rng = random.Random(12)
    nested = [(a, b) for a in o.cut_root for b in o.cut_root
              if a != b and o.tin[o.cut_root[a]] < o.tin[o.cut_root[b]]
              < o.tout[o.cut_root[a]]]
    pair_joins = 0
    for outer, inner in rng.sample(nested, min(len(nested), 400)):
        cuts = sorted((outer, inner))
        comp = reference_components(o, cuts)
        c_in, c_out = comp[o.cut_root[inner]], comp[o.cut_root[outer]]
        to_source = [e for e, (u, v, _) in enumerate(o.edges)
                     if e not in o.cut_root and {comp[u], comp[v]} == {0, c_in}]
        if len(to_source) > 6:
            continue
        pairs = oriented(rng, o, cuts + to_source)
        detail = o.query_details(pairs)
        assert list(detail.items()) == list(
            reference_details(o, pairs).items()), pairs
        pair_joins += any({comp[o.edges[e][0]], comp[o.edges[e][1]]}
                          == {c_in, c_out} for e in detail["swap_eids"])
    assert pair_joins >= 10


def test_unit_weight_grid_ties_match_reference():
    # On a 12x12 grid every swap weight is dist[u] + 1 + dist[v], so
    # hundreds of non-tree edges share a few dozen swap weights and the
    # (swap weight, eid) order decides the stops and the picked edges.
    side = 12
    g = build_graph(side * side, False,
                    [(r * side + c, r * side + c + 1)
                     for r in range(side) for c in range(side - 1)]
                    + [(r * side + c, (r + 1) * side + c)
                       for r in range(side - 1) for c in range(side)])
    o = build_multi_fdo(g, 4)
    loaded = loads_oracle(dumps_oracle(o))
    assert_sorted_rows(o)
    assert_sorted_rows(loaded)
    nontree = [e for e in range(o.m) if e not in o.cut_root]
    assert len({o.swap_weight[e] for e in nontree}) * 4 < len(nontree)
    rng = random.Random(13)
    tree = sorted(o.cut_root)
    for _ in range(300):
        k = rng.randint(1, 4)
        eids = rng.sample(tree, k) + rng.sample(nontree, 4 - k)
        pairs = oriented(rng, o, eids)
        want = list(reference_details(o, pairs).items())
        assert list(o.query_details(pairs).items()) == want, pairs
        assert list(loaded.query_details(pairs).items()) == want, pairs


def cover_case(o, eids):
    """The cover table's outcome for failing the edges ``eids``: "no-cover"
    if a cut subtree has no edge out but its tree edge, else the one case
    that holds ("nested" cut subtrees, a "failed-cover" edge, a
    "shared-cover" edge of two cuts), "disjoint" if none does, or None if
    several do."""
    roots = sorted((o.cut_root[e] for e in eids if e in o.cut_root),
                   key=o.tin.__getitem__)
    covers = [o.cover[r] for r in roots]
    if None in covers:
        return "no-cover"
    triggers = [name for name, hit in (
        ("nested", any(o.tin[a] < o.tin[b] < o.tout[a]
                       for a in roots for b in roots)),
        ("failed-cover", bool(set(covers) & set(eids))),
        ("shared-cover", len(set(covers)) < len(covers))) if hit]
    return triggers[0] if len(triggers) == 1 else (
        None if triggers else "disjoint")


def with_tail(g):
    """g plus a two-edge path hanging off vertex 1: two tree edges that no
    non-tree edge covers."""
    n = g.n
    return build_graph(n + 2, False, list(g.edges) + [(1, n, 1), (n, n + 1, 1)])


def scan_spy(monkeypatch):
    """A list that gets one entry per ``MultiFDO._reconnect`` call."""
    scans = []
    reconnect = MultiFDO._reconnect

    def spy(self, roots, eids):
        scans.append(roots)
        return reconnect(self, roots, eids)
    monkeypatch.setattr(MultiFDO, "_reconnect", spy)
    return scans


@pytest.mark.parametrize("kind", sorted(PRUNING_GRAPHS))
def test_cover_table_cases_match_reference(kind, monkeypatch):
    # Failure sets of each cover-table outcome (disjoint and nested cuts
    # answered from the table, a cut that nothing covers answered inf) and
    # of each fallback trigger alone (a failed cover edge, two cuts sharing
    # a cover edge), built and loaded, against the reference.  Only the
    # triggers run the subtree scan.
    scans = scan_spy(monkeypatch)
    o = build_multi_fdo(with_tail(PRUNING_GRAPHS[kind](14)), 6)
    loaded = loads_oracle(dumps_oracle(o))
    assert loaded.cover == o.cover
    rng = random.Random(14)
    tree = sorted(o.cut_root)
    nested = [(a, b) for a in tree for b in tree
              if o.tin[o.cut_root[a]] < o.tin[o.cut_root[b]]
              < o.tout[o.cut_root[a]]]
    by_cover = {}
    for e in tree:
        by_cover.setdefault(o.cover[o.cut_root[e]], []).append(e)
    shared = [(a, b) for c, es in by_cover.items() if c is not None
              for a in es for b in es
              if a < b and cover_case(o, [a, b]) == "shared-cover"]

    def failed_cover():
        cuts = rng.sample(tree, rng.randint(1, 3))
        return cuts + [o.cover[o.cut_root[rng.choice(cuts)]]]

    draws = [lambda: rng.sample(tree, rng.randint(1, 4)),
             lambda: list(rng.choice(nested)), failed_cover,
             lambda: list(rng.choice(shared))]
    counts = dict.fromkeys(["disjoint", "nested", "failed-cover",
                            "shared-cover", "no-cover"], 0)
    for _ in range(250):
        for draw in draws:
            eids = [e for e in draw() if e is not None]    # None: no cover
            case = cover_case(o, eids)
            if case is not None:
                counts[case] += 1
            pairs = oriented(rng, o, eids)
            want = list(reference_details(o, pairs).items())
            for oracle in (o, loaded):
                scans.clear()
                assert list(oracle.query_details(pairs).items()) == want, (
                    case, pairs)
                if case in ("failed-cover", "shared-cover"):
                    assert scans, (case, pairs)
                elif case is not None:
                    assert not scans, (case, pairs)
            if case == "no-cover":
                assert o.query(pairs) == INF
    assert min(counts.values()) >= 20, counts


@pytest.mark.parametrize("w", [1, 2, 0.5], ids=["unit", "int", "float"])
def test_nested_cuts_outer_cover_inside_inner_subtree(w):
    # Cut r1 = 1 and its child r2 = 2.  Vertex 4, below r2, has the cheapest
    # edge out of subtree(r1), 4-7, and out of subtree(r2), 4-3 into the
    # outer component.  The cover edges are distinct and none failed, but
    # 4-7 joins the inner component to the source's, and 4-3 the outer one
    # to the inner: read as the cuts' own edges, the gap would be
    # sw(4-7) - dist[1] = 6w where the reconnection gives 5w.
    g = build_graph(8, False, [(u, v, w) for u, v in [
        (0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (0, 5), (5, 6), (6, 7),
        (4, 7)]])
    o = build_multi_fdo(g, 2)
    assert o.parent_vert == [None, 0, 1, 1, 2, 0, 5, 6]
    assert o.cover[1] == g.edge_id(4, 7) and o.cover[2] == g.edge_id(3, 4)
    assert o.swap_weight[o.cover[1]] - o.dist[1] == 6 * w
    for oracle in (o, loads_oracle(dumps_oracle(o))):
        for pairs in ([(0, 1), (1, 2)], [(2, 1), (1, 0)]):
            detail = oracle.query_details(pairs)
            assert list(detail.items()) == list(
                reference_details(oracle, pairs).items())
            assert detail["gap"] == 5 * w


def connected_graphs(n, weights=None):
    """Every connected labelled graph on n vertices, edges in lexicographic
    order, with unit weights or with each weight drawn from ``weights``."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        comp = list(range(n))
        for u, v in chosen:
            while comp[u] != u:
                u = comp[u]
            while comp[v] != v:
                v = comp[v]
            comp[u] = v
        if sum(comp[v] == v for v in range(n)) != 1:
            continue
        if weights is None:
            yield build_graph(n, False, chosen)
            continue
        for ws in itertools.product(weights, repeat=len(chosen)):
            yield build_graph(n, False, [(u, v, w)
                                         for (u, v), w in zip(chosen, ws)])


def test_small_scope_nested_cuts_match_reference(monkeypatch):
    # Every connected graph with n <= 5 on unit weights and with n = 4 on
    # weights {0, 1, 2}, as multi f=3 in both modes, built and loaded: each
    # set of two or three tree edges in which one cut root nests in another
    # is answered from the cover table or the scan, and must match both the
    # scan alone (force_general) and the reference.  Counted: graphs,
    # nested sets, and those of the built oracles answered without a scan.
    scans = scan_spy(monkeypatch)
    graphs = itertools.chain(
        *(connected_graphs(n) for n in range(1, 6)),
        connected_graphs(4, (0, 1, 2)))
    counts = [0, 0, 0]
    for g in graphs:
        counts[0] += 1
        for mode in ("paper", "tight"):
            o = build_multi_fdo(g, 3, mode)
            loaded = loads_oracle(dumps_oracle(o))
            tin, tout = o.tin, o.tout
            for k in (2, 3):
                for cuts in itertools.combinations(sorted(o.cut_root), k):
                    roots = [o.cut_root[e] for e in cuts]
                    if not any(tin[a] < tin[b] < tout[a]
                               for a in roots for b in roots):
                        continue
                    counts[1] += 1
                    pairs = [o.edges[e][:2] for e in cuts]
                    scans.clear()
                    o.query(pairs)
                    counts[2] += not scans
                    want = list(reference_details(o, pairs).items())
                    for oracle in (o, loaded):
                        for general in (False, True):
                            assert list(oracle.query_details(
                                pairs, force_general=general).items()
                                        ) == want, (g.edges, mode, pairs)
    assert counts == [772 + 3834, 22986, 14242], counts


@pytest.mark.parametrize("weights", [(0, 1, 2), (0.1, 0.2, 0.3), (0.0, 1)],
                         ids=["int", "float", "mixed"])
def test_cover_gap_answers_keep_their_type(weights, monkeypatch):
    # Every connected graph with n = 4 on these weights, as multi f=2 in
    # both modes, built and loaded: each cut of one tree edge and each
    # disjoint cut of two is answered from cover_gap, and the answer's
    # repr (7 or 7.0) must be the scan's.  That includes cover gaps of
    # exactly 0 (int weights) and 0.0 (a float 0.0 weight among int
    # ones, where 2*maxdist is an int), which cover_gap holds as the int 0
    # as the scan's gap loop does.  Counted: the zero gaps of each type,
    # and the cuts answered without a scan.
    scans = scan_spy(monkeypatch)
    counts = dict.fromkeys(["0", "0.0", "table"], 0)
    for g in connected_graphs(4, weights):
        for mode in ("paper", "tight"):
            o = build_multi_fdo(g, 2, mode)
            loaded = loads_oracle(dumps_oracle(o))
            tin, tout = o.tin, o.tout
            for cuts in itertools.chain(
                    itertools.combinations(sorted(o.cut_root), 1),
                    itertools.combinations(sorted(o.cut_root), 2)):
                roots = [o.cut_root[e] for e in cuts]
                if any(tin[a] < tin[b] < tout[a]
                       for a in roots for b in roots):
                    continue
                for r in roots:
                    if o.cover[r] is not None:
                        gap = o.swap_weight[o.cover[r]] - o.dist[r]
                        if gap == 0:
                            counts[repr(gap)] += 1
                pairs = [o.edges[e][:2] for e in cuts]
                for oracle in (o, loaded):
                    scans.clear()
                    got = repr(oracle.query(pairs))
                    counts["table"] += not scans
                    assert got == repr(oracle.query_details(
                        pairs, force_general=True)["answer"]), (
                            g.edges, mode, pairs)
    assert counts["table"] >= 1000, counts
    if weights == (0, 1, 2):
        assert counts["0"] >= 100, counts
    if weights == (0.0, 1):
        assert counts["0.0"] >= 100, counts
