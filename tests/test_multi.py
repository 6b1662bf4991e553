import random
from itertools import combinations

import pytest

from fdo import (GraphError, INF, MultiFDO, brute_diam, build_graph,
                 build_multi_fdo, distances, enumerate_failures, gen_random,
                 is_connected)

from conftest import small_graph_corpus, zero_weight_graphs


def kruskal_msf_weight(g, failed_eids, swap_weight):
    """Independent minimum-spanning-forest weight of G-F under the detour
    re-weighting (test-side reference for the oracle's reconnection)."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    order = sorted((swap_weight[e], e) for e in range(g.m)
                   if e not in failed_eids)
    for w, eid in order:
        u, v, _ = g.edges[eid]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def reference_swap_weights(g):
    dist = distances(g, 0)
    from fdo import sssp
    tree = sssp(g, 0)
    tree_eids = {e[1] for e in tree.parent if e is not None}
    return [0 if eid in tree_eids else dist[u] + w + dist[v]
            for eid, (u, v, w) in enumerate(g.edges)], tree_eids


# ---------------------------------------------------------------------- build

def test_build_triangle(tri):
    o = build_multi_fdo(tri, 1)
    assert sorted(o.cut_root) == [0, 2]   # the tree edges
    assert o.swap_weight == [0, 3, 0]   # d(0,1) + 1 + d(0,2) for edge {1,2}
    assert o.maxdist == 1
    assert o.cover == [None, 1, 1]      # the only non-tree edge covers both


def test_build_path(tri):
    p3 = build_graph(3, False, [(0, 1), (1, 2)])
    o = build_multi_fdo(p3, 2)
    assert o.swap_weight == [0, 0] and o.maxdist == 2
    assert o.cover == [None, None, None]   # both edges are bridges


def test_build_rejects_directed(dicycle3):
    with pytest.raises(GraphError, match="undirected"):
        build_multi_fdo(dicycle3, 2)


def test_build_rejects_unknown_mode(tri):
    with pytest.raises(GraphError, match="^unknown output mode 'bogus'$"):
        MultiFDO(tri, 2, mode="bogus")


def test_build_rejects_disconnected():
    two_edges = build_graph(4, False, [(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="connected graph"):
        build_multi_fdo(two_edges, 2)
    isolated = build_graph(3, False, [(1, 2)])   # the source is cut off
    with pytest.raises(GraphError, match="connected graph"):
        build_multi_fdo(isolated, 1)


# ---------------------------------------------------------------------- query

def test_query_tree_untouched(tri):
    o = build_multi_fdo(tri, 1)
    assert o.query([(1, 2)]) == 2      # non-tree failure: 2 * maxdist


def test_query_triangle_failure(tri):
    o = build_multi_fdo(tri, 1)
    d = o.query_details([(0, 1)])
    assert d["gap"] == 2 and d["answer"] == 4
    truth = brute_diam(tri, [(0, 1)])
    assert truth == 2 and truth <= d["answer"] <= 3 * truth


def test_query_disconnects():
    p3 = build_graph(3, False, [(0, 1), (1, 2)])
    o = build_multi_fdo(p3, 1)
    assert o.query([(0, 1)]) == INF


def test_query_too_many(tri):
    o = build_multi_fdo(tri, 1)
    with pytest.raises(GraphError, match="too many"):
        o.query([(0, 1), (1, 2)])


def test_query_discards_nonedges(c4):
    o = build_multi_fdo(c4, 2)
    assert o.query([(0, 2)]) == o.query([])  # non-edge changes nothing


def test_fast_path_equals_general():
    # the cover table's transcripts, or the scan's where the table falls
    # back, equal the scan's, keys in the same order
    for seed in range(4):
        g = gen_random("er-weighted", seed=seed + 50, n=18, p=0.25)
        pairs_all = [(u, v) for u, v, _ in g.edges]
        rng = random.Random(seed)
        for f in (1, 2, 3, 4):
            o = build_multi_fdo(g, f)
            cases = [[p] for p in pairs_all]
            if f > 1:
                cases += [rng.sample(pairs_all, rng.randint(2, f))
                          for _ in range(100)]
            for pairs in cases:
                fast = o.query_details(pairs)
                slow = o.query_details(pairs, force_general=True)
                assert list(fast.items()) == list(slow.items()), (f, pairs)


def stretch_case(g, o, pairs, f):
    truth = brute_diam(g, pairs)
    detail = o.query_details(pairs)
    ans = detail["answer"]
    if truth == INF:
        assert ans == INF
        return
    assert detail["finite"]
    assert truth <= ans <= (f + 2) * truth
    # certified lower bound on the new diameter
    assert detail["gap"] <= truth
    # reconnection is really a minimum spanning forest under the re-weighting
    eids = {g.edge_id(u, v) for u, v in pairs if g.edge_id(u, v) is not None}
    surviving_tree = set(o.cut_root) - eids
    ours = sum(o.swap_weight[e] for e in surviving_tree) \
        + sum(o.swap_weight[e] for e in detail["swap_eids"])
    assert ours == kruskal_msf_weight(g, eids, o.swap_weight)


def test_stretch_and_msf_small_random():
    for seed in (1, 2, 3):
        g = gen_random("er-weighted", seed=seed, n=14, p=0.3)
        pairs_all = [(u, v) for u, v, _ in g.edges]
        for f in (1, 2, 3):
            o = build_multi_fdo(g, f)
            rng = random.Random(seed * 7 + f)
            if f == 1:
                cases = [(p,) for p in pairs_all]
            else:
                cases = [tuple(rng.sample(pairs_all, f)) for _ in range(60)]
            for pairs in cases:
                stretch_case(g, o, pairs, f)


def test_tight_mode_within_contract():
    g = gen_random("er-weighted", seed=9, n=14, p=0.3)
    pairs_all = [(u, v) for u, v, _ in g.edges]
    o = build_multi_fdo(g, 3, mode="tight")
    rng = random.Random(17)
    for _ in range(50):
        pairs = tuple(rng.sample(pairs_all, 3))
        truth = brute_diam(g, pairs)
        ans = o.query(pairs)
        if truth == INF:
            assert ans == INF
        else:
            assert truth <= ans <= 5 * truth


def test_infinite_iff_disconnected():
    g = gen_random("er-undirected", seed=31, n=12, p=0.2)
    pairs_all = [(u, v) for u, v, _ in g.edges]
    o = build_multi_fdo(g, 2)
    for pairs in combinations(pairs_all, 2):
        eids = [g.edge_id(u, v) for u, v in pairs]
        assert (o.query(pairs) == INF) == (not is_connected(g, set(eids)))


def test_swap_weights_match_reference():
    for g in small_graph_corpus():
        if g.directed:
            continue
        o = build_multi_fdo(g, 2)
        ref, tree_eids = reference_swap_weights(g)
        assert o.swap_weight == ref
        assert set(o.cut_root) == tree_eids
        assert all(o.swap_weight[e] == 0 for e in o.cut_root)


def test_zero_weight_within_contract():
    for g in zero_weight_graphs():
        if g.directed:
            continue
        for f in (1, 2):
            o = build_multi_fdo(g, f)
            for pairs in enumerate_failures(g, f):
                truth = brute_diam(g, pairs)
                ans = o.query(pairs)
                assert ans == truth == INF or truth <= ans <= (f + 2) * truth
