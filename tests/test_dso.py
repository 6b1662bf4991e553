import random

import pytest

from fdo import (GraphError, INF, build_graph, build_sampled_fdso,
                 brute_replacement, sssp)

from conftest import (endpoints, extract_path, sampled_query,
                      small_graph_corpus)


# --------------------------------------- single-failure replacement distances
# d(s,t,{e}) from brute_replacement, read against the trees of graph.sssp:
# an edge off the stored s-t path leaves d(s,t) as it is, and a tree that
# excludes the edge holds the replacement distance.

def test_single_dso_off_path_no_recompute(c4):
    tree = sssp(c4, 0)
    # stored P(0,2) is 0-1-2; edge 3-0 (id 3) is off it
    assert extract_path(tree, 2) == ([0, 1, 2], [0, 1])
    assert brute_replacement(c4, 0, 2, [(3, 0)]) == tree.dist[2] == 2


def test_single_dso_on_path(c4):
    assert brute_replacement(c4, 0, 2, [(0, 1)]) == 2  # reroute 0-3-2
    assert extract_path(sssp(c4, 0, {0}), 2) == ([0, 3, 2], [3, 2])


def test_single_dso_bridge(p4):
    assert brute_replacement(p4, 0, 3, [(1, 2)]) == INF
    assert extract_path(sssp(p4, 0, {1}), 3) is None


def test_single_dso_exhaustive_vs_brute():
    for g in small_graph_corpus():
        for s in range(g.n):
            for eid, (u, v, _) in enumerate(g.edges):
                row = sssp(g, s, {eid}).dist
                for t in range(g.n):
                    assert row[t] == brute_replacement(g, s, t, [(u, v)])


# ---------------------------------------------------------------- SampledFDSO

def cycle(n):
    return build_graph(n, False, [(i, (i + 1) % n) for i in range(n)])


def drop_mask(d, eid):
    # the subgraphs without edge eid: the complement of alive[eid]
    return ~d.alive[eid] & (1 << d.k) - 1


def test_sampled_subgraph_count_formula():
    # ceil(3 * 1 * 8 * ln 8) = 50
    d = build_sampled_fdso(cycle(8), f=1, delta=1.0, C=3.0, seed=3)
    assert d.k == 50


def test_sampled_build_deterministic():
    g = cycle(8)
    d1 = build_sampled_fdso(g, f=2, delta=1.0, C=2.0, seed=9)
    d2 = build_sampled_fdso(g, f=2, delta=1.0, C=2.0, seed=9)
    assert d1.alive == d2.alive
    assert any(drop_mask(d1, eid) for eid in range(g.m))


def test_sampled_drop_lists_match_subgraphs():
    # bit i of drop_mask(d, eid) is subgraph i's draw for edge eid: replay
    # the per-subgraph streams, in edge-id order, one subgraph after another
    d = build_sampled_fdso(cycle(8), f=1, delta=1.0, C=1.0, seed=5)
    for i in range(d.k):
        rng = random.Random(5 * 2654435761 + i)
        dropped = {eid for eid in range(8) if rng.random() < 8 ** -1.0}
        for eid in range(8):
            assert bool(drop_mask(d, eid) >> i & 1) == (eid in dropped)
    assert all(0 <= mask < 1 << d.k for mask in d.alive)


def test_sampled_budget_rejected():
    with pytest.raises(GraphError, match="k="):
        build_sampled_fdso(cycle(8), f=1, delta=1.0, C=3.0, seed=1,
                           max_subgraphs=10)


def test_sampled_query_c4(c4):
    from fdo import brute_replacement as brute
    d = build_sampled_fdso(c4, f=1, delta=1.0, C=3.0, seed=7)
    got = sampled_query(c4, d, 0, 2, [0])
    assert got["dist"] == 2 and got["path"] == [0, 3, 2]
    # no failures: min over subgraphs never undershoots, and with this many
    # subgraphs it matches the true distance under the committed seed
    for s in range(4):
        for t in range(4):
            got = sampled_query(c4, d, s, t, [])
            assert got["dist"] == brute(c4, s, t, [])


def test_sampled_query_bridge(p4):
    d = build_sampled_fdso(p4, f=1, delta=1.0, C=3.0, seed=7)
    got = sampled_query(p4, d, 0, 3, [1])
    assert (got["dist"], got["path"]) == (INF, None)


def test_sampled_query_details_counts_survivors(c4):
    d = build_sampled_fdso(c4, f=2, delta=1.0, C=3.0, seed=7)
    assert sampled_query(c4, d, 0, 2, [])["survivors"] == d.k
    got = sampled_query(c4, d, 0, 2, [0, 3])
    both = sum(1 for i in range(d.k)
               if drop_mask(d, 0) >> i & 1 and drop_mask(d, 3) >> i & 1)
    assert got["survivors"] == both


def test_sampled_query_leaves_dso_unchanged(c4):
    d = build_sampled_fdso(c4, f=2, delta=1.0, C=3.0, seed=7)
    before = {name: repr(value) for name, value in vars(d).items()}
    for s in range(4):
        for t in range(4):
            for eids in ([], [0], [1, 2]):
                sampled_query(c4, d, s, t, eids)
    assert {name: repr(value) for name, value in vars(d).items()} == before


def test_sampled_query_too_many_failures(c4):
    d = build_sampled_fdso(c4, f=1, delta=1.0, C=1.0, seed=7)
    with pytest.raises(GraphError, match="exceeds f"):
        sampled_query(c4, d, 0, 2, [0, 1])


def test_sampled_one_sided_and_paths_genuine():
    g = build_graph(10, False, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                (5, 6), (6, 7), (7, 8), (8, 9), (9, 0),
                                (0, 5), (2, 7), (1, 6)])
    d = build_sampled_fdso(g, f=2, delta=1.0, C=3.0, seed=21)
    rng = random.Random(99)
    for _ in range(300):
        s, t = rng.sample(range(g.n), 2)
        eids = rng.sample(range(g.m), rng.randint(0, 2))
        pairs = [endpoints(g, e) for e in eids]
        got = sampled_query(g, d, s, t, eids)
        val, path = got["dist"], got["path"]
        truth = brute_replacement(g, s, t, pairs)
        assert val >= truth
        if val < INF:
            assert path[0] == s and path[-1] == t
            assert len(path) - 1 == val
            for a, b in zip(path, path[1:]):
                eid = g.edge_id(a, b)
                assert eid is not None and eid not in eids
