"""Differential test: every single-failure oracle kind against brute force.

Random small graphs of four types (unit undirected, unit strongly connected
digraphs, integer weights including 0, float weights) are built into every
single-failure kind that accepts them, and every edge's answer is checked
against ``fdo.verify.brute_diam`` at that kind's contract.  The same graphs
check ``strong_bridges``, which tests only tree edges, against a
connectivity test of every edge.  On unit weights the bit-lane path of
``raise_by_replacement_ecc`` is pinned to the Dijkstra subtree repair, run
directly on the same sources' ``sssp`` trees and entries, with the sources
in lane BFS batches of every size, and with every vertex a source, which
runs the lanes one way on undirected graphs.
"""
import pytest
from hypothesis import given, settings, strategies as st

from fdo import (INF, brute_diam, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_graph, build_spanner_fdo, is_connected,
                 sssp, strong_bridges)
from fdo import single
from fdo.graph import DIST_EPS, dist_eq
from fdo.single import (_raise_by_subtree_repair, greedy_spanner,
                        raise_by_replacement_ecc)

WEIGHTS = {
    "int": st.integers(0, 3),
    # positive float weights stay well above the comparison tolerance
    "float": st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
}


@st.composite
def graphs(draw, kind):
    """Connected (strongly, if directed) graph with 2..10 vertices: a
    spanning tree or a directed Hamiltonian cycle plus random extra pairs."""
    n = draw(st.integers(2, 10))
    directed = kind == "digraph" or (kind in WEIGHTS and draw(st.booleans()))
    order = draw(st.permutations(range(n)))
    if directed:
        pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    else:
        pairs = [(order[draw(st.integers(0, i - 1))], order[i])
                 for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    seen = {p if directed else frozenset(p) for p in pairs}
    for u, v in extra:
        key = (u, v) if directed else frozenset((u, v))
        if u != v and key not in seen:
            seen.add(key)
            pairs.append((u, v))
    if kind in WEIGHTS:
        return build_graph(n, directed, [(u, v, draw(WEIGHTS[kind]))
                                         for u, v in pairs])
    return build_graph(n, directed, pairs)


def oracles(g):
    """(name, oracle, check(answer, truth, eid)) for every kind g admits."""
    out = [("exact", build_exact_fdo(g), lambda a, t, e: dist_eq(a, t))]
    if not g.directed:
        out.append(("ecc", build_ecc_fdo(g), lambda a, t, e: within(a, t, 2)))
    if not g.weighted:
        if not g.directed:
            for k in (1, 2):
                keep = set(greedy_spanner(g, k))
                out.append((f"spanner{k}", build_spanner_fdo(g, k),
                            lambda a, t, e, keep=keep, k=k:
                            a == t if e in keep
                            else a == t == INF or t <= a <= t + 2 * (k - 1)))
        for eps in (0.5, 1.0):
            for threshold in (None, 0):
                o = build_approx_fdo(g, eps, scan_threshold=threshold)
                out.append((f"approx{eps}/{o.params['mode']}", o,
                            lambda a, t, e, eps=eps: within(a, t, 1 + eps)))
    return out


def within(answer, truth, stretch):
    if answer == INF or truth == INF:
        return answer == truth
    return truth - DIST_EPS <= answer <= stretch * truth + DIST_EPS


@pytest.mark.parametrize("kind", ["undirected", "digraph", "int", "float"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_single_failure_kinds_match_brute(kind, data):
    g = data.draw(graphs(kind))
    built = oracles(g)
    for eid, (u, v, _) in enumerate(g.edges):
        truth = brute_diam(g, [(u, v)])
        for name, oracle, check in built:
            answer = oracle.query([(u, v)])
            assert check(answer, truth, eid), (name, (u, v), answer, truth)


@pytest.mark.parametrize("kind", ["undirected", "digraph", "int", "float"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_strong_bridges_match_per_edge_check(kind, data):
    g = data.draw(graphs(kind))
    expect = {eid for eid in range(g.m) if not is_connected(g, {eid})}
    assert strong_bridges(g) == expect


@pytest.mark.parametrize("kind", ["undirected", "digraph", "bridged"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lane_ecc_matches_subtree_repair(kind, data):
    # small graphs: one lane per finite entry, shared by all sources
    _check_lanes_against_subtree_repair(kind, data, INF)


@pytest.mark.parametrize("kind", ["undirected", "digraph", "bridged"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tree_lanes_match_subtree_repair(kind, data):
    # every source on its own lanes, one per edge of its BFS tree
    _check_lanes_against_subtree_repair(kind, data, -INF)


@pytest.mark.parametrize("kind", ["undirected", "digraph", "bridged"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_all_source_lanes_match_subtree_repair(kind, data):
    # every vertex a source, permuted and some repeated: on undirected
    # graphs the lanes run one way (shared or per-source tree lanes), on
    # digraphs both ways
    surplus = data.draw(st.sampled_from([INF, -INF]))
    _check_lanes_against_subtree_repair(kind, data, surplus, every=True)


def _check_lanes_against_subtree_repair(kind, data, surplus, every=False):
    g = data.draw(graphs("undirected" if kind == "bridged" else kind))
    if kind == "bridged":  # a pendant vertex hangs on a bridge
        hub = data.draw(st.integers(0, g.n - 1))
        g = build_graph(g.n + 1, False, [(u, v) for u, v, _ in g.edges]
                        + [(hub, g.n)])
    assert not g.weighted
    if every:
        sources = (data.draw(st.permutations(range(g.n)))
                   + data.draw(st.lists(st.integers(0, g.n - 1),
                                        max_size=3)))
    else:
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                     max_size=g.n, unique=True))
    trees = [sssp(g, s) for s in sources]
    # every entry must start at least at ecc_G(s) of each source
    start = max(max(t.dist) for t in trees)
    shape = data.draw(st.sampled_from(["every", "tree", "any"]))
    if shape == "every":      # exact / approx: one entry per edge
        values = dict.fromkeys(range(g.m), start)
    elif shape == "tree":     # ecc: the sources' tree edges only
        values = dict.fromkeys((p[1] for t in trees for p in t.parent
                                if p is not None), start)
    else:                     # spanner: any edges, on or off the trees
        values = dict.fromkeys(data.draw(st.sets(st.integers(0, g.m - 1))),
                               start)
    keys = list(values)
    for eid in data.draw(st.sets(st.sampled_from(keys))) if keys else ():
        values[eid] = INF
    expect = values.copy()
    _raise_by_subtree_repair(g, trees, expect)
    # 1 bit: one source per lane BFS; 2**20: all sources in one; between:
    # batches of a few sources and a short last batch
    budget = data.draw(st.one_of(st.just(1), st.integers(2, 64),
                                 st.just(1 << 20)))
    saved = single.SHARED_LANE_SURPLUS, single.LANE_BATCH_BITS
    single.SHARED_LANE_SURPLUS, single.LANE_BATCH_BITS = surplus, budget
    try:
        raise_by_replacement_ecc(g, sources, values)
    finally:
        single.SHARED_LANE_SURPLUS, single.LANE_BATCH_BITS = saved
    assert values == expect
