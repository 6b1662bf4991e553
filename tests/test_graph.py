import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fdo import (GraphError, INF, brute_diam, build_graph, diameter, distances,
                 eccentricity, gen_random, in_tree,
                 is_connected, parse_graph, save_graph, load_graph, sssp,
                 strong_bridges)
from fdo.graph import DIST_EPS, dist_eq, format_graph, lane_bfs, lane_path

from conftest import (NOT_STRONGLY_CONNECTED, connected_graphs, endpoints,
                      extract_path, parse_capped, small_graph_corpus, weight,
                      zero_weight_graphs)


# ---------------------------------------------------------------- build_graph

def test_build_c4(c4):
    assert c4.n == 4 and c4.m == 4
    assert not c4.directed and not c4.weighted
    assert c4.edge_id(1, 0) == 0
    assert c4.edge_id(0, 2) is None


def test_build_directed_cycle(dicycle3):
    assert dicycle3.m == 3
    assert all(len(dicycle3._out_nbrs[v]) == 1 for v in range(3))
    assert all(len(dicycle3._in_nbrs[v]) == 1 for v in range(3))
    assert dicycle3.edge_id(0, 1) == 0
    assert dicycle3.edge_id(1, 0) is None


def test_adjacency_rows_are_id_sorted():
    g = build_graph(4, False, [(0, 3), (0, 1), (0, 2)])
    assert g._out_nbrs[0] == [(1, 1, 1), (2, 2, 1), (3, 0, 1)]
    dg = build_graph(4, True, [(3, 0), (0, 3), (2, 0), (1, 0), (0, 2)])
    assert [u for u, _, _ in dg._in_nbrs[0]] == [1, 2, 3]
    assert [u for u, _, _ in dg._out_nbrs[0]] == [2, 3]


@pytest.mark.parametrize("bad, msg", [
    ([(2, 2)], "self-loop"),
    ([(0, 1), (1, 0)], "duplicate"),
    ([(0, 1, -2)], "negative"),
    ([(0, 9)], "out-of-range"),
    ([(0, 1, math.nan)], "non-finite"),
    ([(0, 1, math.inf)], "non-finite"),
])
def test_build_rejects(bad, msg):
    with pytest.raises(GraphError, match=msg):
        build_graph(3, False, bad)


@pytest.mark.parametrize("bad, entry", [
    ((0, True), "edge (0,True)"),
    ((0, 1.0), "edge (0,1.0)"),
    ((0, 1, True), "edge (0,1) has weight True"),
    ((0, 1, "1"), "edge (0,1) has weight '1'"),
    ((0, 1, 1, 1), "edge entry (0, 1, 1, 1) is not (u, v) or (u, v, w)"),
    ((0,), "edge entry (0,) is not"),
    (5, "edge entry 5 is not"),
    (None, "edge entry None is not"),
])
def test_build_rejects_non_int_ids_and_weights(bad, entry):
    # the bools used to build edge rows that oracle files cannot hold, the
    # weight '1' and the entries 5 and None raised TypeError, and the
    # entries of one and of four values a bare ValueError
    with pytest.raises(GraphError, match=re.escape(entry)):
        build_graph(3, False, [bad])


# ----------------------------------------------------------------------- sssp

def test_dist_eq():
    assert dist_eq(INF, INF) and dist_eq(1.0, 1.0 + DIST_EPS / 2)
    assert not dist_eq(INF, 1.0) and not dist_eq(1.0, INF)
    assert not dist_eq(1.0, 1.0 + 2 * DIST_EPS)


def test_sssp_c4(c4):
    assert sssp(c4, 0).dist == [0, 1, 2, 1]


def test_sssp_c4_excluded(c4):
    assert sssp(c4, 0, {0}).dist == [0, 3, 2, 1]


def test_sssp_directed_excluded(dicycle3):
    assert sssp(dicycle3, 0, {0}).dist[1] == INF


def test_sssp_parent_tiebreak():
    # two equal-length routes to vertex 3; parent must be the smaller id
    g = build_graph(4, False, [(0, 1), (0, 2), (1, 3), (2, 3)])
    tree = sssp(g, 0)
    assert tree.parent[3][0] == 1


def test_sssp_zero_weight_parent():
    g = zero_weight_graphs()[0]
    # vertex 1 sits at distance 0 from the source but is not the source
    assert sssp(g, 0).parent == [None, (0, 0), (1, 1)]
    # the only zero-weight predecessor of 1 has the larger id
    g = zero_weight_graphs()[1]
    assert sssp(g, 0).parent[1] == (2, 1)
    assert sssp(g, 1).parent == [(2, 0), None, (1, 1)]


def zero_weight_sweep():
    rng = random.Random(7)
    graphs = zero_weight_graphs()
    for seed in range(20):
        directed = seed % 2 == 1
        kind = "er-strongly-connected-digraph" if directed else "er-undirected"
        g = gen_random(kind, seed, n=8, p=0.35)
        graphs.append(build_graph(g.n, directed, [(u, v, rng.choice((0, 0, 1, 2)))
                                                  for u, v, _ in g.edges]))
    return graphs


def test_zero_weight_parents_form_trees():
    # every reachable vertex reaches the root within n parent steps, along
    # edges whose weights add up to its distance
    for g in zero_weight_sweep():
        for root in range(g.n):
            for tree in (sssp(g, root), in_tree(g, root)):
                for v in range(g.n):
                    if tree.dist[v] == INF:
                        assert tree.parent[v] is None
                        continue
                    total, x = 0, v
                    for _ in range(g.n):
                        if tree.parent[x] is None:
                            break
                        x, eid = tree.parent[x]
                        total += weight(g, eid)
                    assert x == root and total == tree.dist[v]


def test_in_tree_directed(dicycle3):
    assert in_tree(dicycle3, 0).dist == [0, 2, 1]
    assert in_tree(dicycle3, 0, {2}).dist == [0, INF, INF]


def test_in_tree_undirected_matches_sssp(c4):
    assert in_tree(c4, 2).dist == sssp(c4, 2).dist


# ----------------------------------------------------------- ecc and diameter

def test_diameter_examples(c4, star5):
    assert diameter(c4) == 2
    assert diameter(c4, {0}) == 3
    assert diameter(star5, {0}) == INF


def test_eccentricity(c4):
    assert eccentricity(c4, 0) == 2
    assert eccentricity(c4, 0, {0}) == 3


@st.composite
def lane_diameter_cases(draw, kind):
    """(graph, excluded edge ids): a connected undirected graph, a strongly
    connected digraph (a Hamiltonian cycle plus random arcs) or two
    disjoint connected parts, and a random set of edges to exclude."""
    if kind == "digraph":
        n = draw(st.integers(2, 10))
        order = draw(st.permutations(range(n)))
        arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
        arcs |= {(u, v) for u, v in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n)) if u != v}
        g = build_graph(n, True, sorted(arcs))
    else:
        g = draw(connected_graphs(max_n=10))
        if kind == "disconnected":
            h = draw(connected_graphs(max_n=6))
            g = build_graph(g.n + h.n, False, [e[:2] for e in g.edges] + [
                (u + g.n, v + g.n) for u, v, _ in h.edges])
    return g, draw(st.sets(st.integers(0, g.m - 1), max_size=4))


@pytest.mark.parametrize("kind", ["undirected", "digraph", "disconnected"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lane_diameter_matches_brute(kind, data):
    # the all-sources lane BFS of diameter against n scalar BFS rows
    g, excluded = data.draw(lane_diameter_cases(kind))
    pairs = [endpoints(g, eid) for eid in excluded]
    assert diameter(g, excluded) == brute_diam(g, pairs)


def test_diameter_equals_max_over_trees():
    for g in small_graph_corpus():
        for excl in (frozenset(), frozenset({0})):
            expect = max(max(sssp(g, s, excl).dist) for s in range(g.n))
            assert diameter(g, excl) == expect


# -------------------------------------------------------------------- bridges

def test_strong_bridges_examples(c4, p4, dicycle3):
    assert strong_bridges(dicycle3) == {0, 1, 2}
    assert strong_bridges(c4) == set()
    assert strong_bridges(p4) == {0, 1, 2}


@pytest.mark.parametrize("g", NOT_STRONGLY_CONNECTED, ids=repr)
def test_strong_bridges_refuses_not_strongly_connected(g):
    with pytest.raises(GraphError, match=re.escape(
            "graph must be (strongly) connected")):
        strong_bridges(g)


def test_strong_bridges_equals_infinite_diameter():
    for g in small_graph_corpus():
        if not is_connected(g):
            continue
        expect = {eid for eid in range(g.m) if diameter(g, {eid}) == INF}
        assert strong_bridges(g) == expect


# ----------------------------------------------------------------------- path

def test_extract_path(c4):
    verts, eids = extract_path(sssp(c4, 0), 2)
    assert len(eids) == 2 and verts[0] == 0 and verts[-1] == 2

    verts, eids = extract_path(sssp(c4, 0, {0}), 1)
    assert verts == [0, 3, 2, 1] and len(eids) == 3

    assert extract_path(sssp(c4, 0), 0) == ([0], [])


def test_extract_path_unreachable(p4):
    assert extract_path(sssp(p4, 0, {1}), 3) is None


def test_path_length_matches_dist():
    for g in small_graph_corpus():
        tree = sssp(g, 0)
        for t in range(g.n):
            got = extract_path(tree, t)
            if tree.dist[t] == INF:
                assert got is None
                continue
            verts, eids = got
            assert sum(weight(g, e) for e in eids) == tree.dist[t]
            # consecutive vertices really joined by the listed edges
            for (a, b), e in zip(zip(verts, verts[1:]), eids):
                assert set(endpoints(g, e)) >= ({a, b} if not g.directed
                                                else set())
                if g.directed:
                    assert endpoints(g, e) == (a, b)


@pytest.mark.parametrize("kind", ["undirected", "digraph"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lane_path_matches_sssp_path(kind, data):
    # a one-lane lane_bfs from s keeping every edge, then one with edge e
    # cut, walked back from each t against the sssp tree path
    g, _ = data.draw(lane_diameter_cases(kind))
    s = data.draw(st.integers(0, g.n - 1))
    e = data.draw(st.integers(0, g.m - 1))
    for excluded in (frozenset(), frozenset({e})):
        alive = [0 if eid in excluded else 1 for eid in range(g.m)]
        levels = lane_bfs(g._out_nbrs, alive, {s: 1}, 1)[0]
        tree = sssp(g, s, excluded)
        for t in range(g.n):
            d = next((d for d, level in enumerate(levels) if t in level), INF)
            assert d == tree.dist[t]
            if d == INF:
                continue
            verts, eids = lane_path(levels, g._in_nbrs, alive, t, d, 1)
            assert (verts[::-1], eids[::-1]) == extract_path(tree, t)
            hops = d // 2
            assert lane_path(levels, g._in_nbrs, alive, t, d, 1, hops) == (
                verts[:hops + 1], eids[:hops])


# ---------------------------------------------- reference-oracle equivalence

def floyd_warshall(g, excluded=frozenset()):
    d = [[INF] * g.n for _ in range(g.n)]
    for v in range(g.n):
        d[v][v] = 0
    for eid, (u, v, w) in enumerate(g.edges):
        if eid in excluded:
            continue
        d[u][v] = min(d[u][v], w)
        if not g.directed:
            d[v][u] = min(d[v][u], w)
    for k in range(g.n):
        for i in range(g.n):
            dik = d[i][k]
            if dik == INF:
                continue
            for j in range(g.n):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    return d


def test_sssp_matches_independent_reference():
    for g in small_graph_corpus():
        for excl in (frozenset(), frozenset({0}), frozenset({0, g.m - 1})):
            ref = floyd_warshall(g, excl)
            for s in range(g.n):
                row = distances(g, s, excl)
                assert all(math.isclose(a, b) or a == b
                           for a, b in zip(row, ref[s]))


# ------------------------------------------------------------- file format

def test_edge_list_roundtrip(tmp_path, c4):
    path = tmp_path / "g.txt"
    save_graph(c4, path)
    g2 = load_graph(path)
    assert g2.edges == c4.edges and g2.directed == c4.directed


def test_edge_list_weighted_and_comments():
    text = "# weighted triangle\n3 3 U W\n0 1 2\n1 2 0.5\n0 2 1\n"
    g = parse_graph(text)
    assert g.weighted and weight(g, 1) == 0.5
    again = parse_graph(format_graph(g))
    assert again.edges == g.edges


@pytest.mark.parametrize("text", [
    "", "3 2 X UW\n0 1\n1 2", "3 2 U UW\n0 1", "2 1 U W\n0 1",
    "2 1 U UW\n0 x", "2 1 U W\n0 1 w", "x 1 U UW\n0 1",
    # non-finite weights: nan compares false to everything, so a plain
    # negativity check lets it through
    "3 3 U W\n0 1 nan\n1 2 1\n0 2 1", "2 1 U W\n0 1 1e999",
    "2 1 U W\n0 1 inf",
    "4 2 U UW\n0 1\n1 2",  # two edges connect at most three vertices
    # int() and float() take other scripts' digits, '+' and '_', which
    # format_graph never writes: the first loaded as the edge (0, 1, 5),
    # and in the second '1_0' named vertex 10
    "2 1 U W\n0 \u0661 +5",
    "11 10 U UW\n" + "".join(f"{i} {i + 1}\n" for i in range(9)) + "0 1_0",
    "3 2 U W\n0 1 1\n1 2 1e+2", "+2 1 U UW\n0 1",
])
def test_edge_list_rejects(text):
    with pytest.raises(GraphError):
        parse_graph(text)
    # a comment may hold any character
    assert parse_graph("# \u00e9 + _\n2 1 U UW\n0 1\n").edges == [(0, 1, 1)]


def test_parse_graph_rejects_huge_vertex_count():
    # more vertices than the edges can connect is rejected before the
    # adjacency lists for n are allocated
    got = parse_capped("parse_graph", "10000000000 0 U UW\n")
    assert got.startswith("GraphError:") and "connect at most 1" in got, got
    assert parse_capped("parse_graph", "3 2 U UW\n0 1\n1 2\n") == "loaded"
