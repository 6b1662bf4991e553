from itertools import combinations

import pytest

from fdo import (GraphError, INF, SingleFDO, brute_diam, build_exact_fdo,
                 build_graph, build_lowdiam_fdo, dumps_oracle, gen_random,
                 loads_oracle)


def chorded_c4():
    return build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def hub_graph(seed, n=16, p=0.12):
    return gen_random("low-diam-hub", seed=seed, n=n, p=p)


def all_failure_sets(g, f):
    pairs = [(u, v) for u, v, _ in g.edges]
    for size in range(f + 1):
        yield from combinations(pairs, size)


# ---------------------------------------------------------------------- build

def test_empty_key_holds_base_diameter():
    g = chorded_c4()
    o = build_lowdiam_fdo(g, 2, delta=3.0)
    assert o.table[()] == 2


def test_single_vertex_holds_the_empty_key():
    # no vertex pair sets the empty subset's entry, which every query reads
    o = build_lowdiam_fdo(build_graph(1, False, []), 2, delta=3.0)
    assert o.query([]) == 0
    assert loads_oracle(dumps_oracle(o)).query([]) == 0


def test_build_stats_from_the_constructor():
    # a build passes its counters to the constructor; a file holds none
    o = build_lowdiam_fdo(chorded_c4(), 2, delta=3.0)
    assert o.build_stats["nodes"] >= len(o.table)
    assert o.build_stats["max_fanout"] == 2
    assert loads_oracle(dumps_oracle(o)).build_stats is None


def test_keys_capped_at_f():
    o = build_lowdiam_fdo(chorded_c4(), 2, delta=3.0)
    assert max(len(k) for k in o.table) <= 2


def test_single_edge_key_covers_its_diameter():
    # the edge's own entry may be dropped as dominated; its answer stays
    g = chorded_c4()
    o = build_lowdiam_fdo(g, 2, delta=3.0)
    assert o.query([(0, 1)]) >= brute_diam(g, [(0, 1)])


def test_diameter_gate_rejected():
    g = build_graph(6, False, [(i, i + 1) for i in range(5)])
    with pytest.raises(GraphError, match="diameter 5 exceeds"):
        build_lowdiam_fdo(g, 2, delta=1.0)


def test_f1_delegates_to_exact():
    g = chorded_c4()
    o = build_lowdiam_fdo(g, 1, delta=3.0)
    assert isinstance(o, SingleFDO) and o.kind == "exact"
    assert o.query([(0, 1)]) == brute_diam(g, [(0, 1)])


@pytest.mark.parametrize("f, backend, message", [
    (1, "auto", "exact FDO needs a (strongly) connected graph"),
    (2, "exact", "low-diameter FDO needs a connected graph"),
    (2, "sampled", "low-diameter FDO needs a connected graph"),
])
def test_build_rejects_disconnected(f, backend, message):
    # refused as disconnected, not by the diameter gate on an inf diameter
    g = build_graph(6, False, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(GraphError) as err:
        build_lowdiam_fdo(g, f, delta=3.0, backend=backend, seed=1)
    assert str(err.value) == message


def test_sampled_backend_needs_seed():
    with pytest.raises(GraphError, match="seed"):
        build_lowdiam_fdo(chorded_c4(), 2, delta=3.0, backend="sampled")


# ---------------------------------------------------------------------- query

def test_query_matches_brute_exhaustively():
    for seed in (2, 4):
        g = hub_graph(seed, n=12, p=0.08)
        assert g.m <= 20
        o = build_lowdiam_fdo(g, 2, delta=2.0)
        for pairs in all_failure_sets(g, 2):
            assert o.query(pairs) == brute_diam(g, pairs)


def test_query_single_edge_equals_exact_oracle():
    g = hub_graph(3)
    o = build_lowdiam_fdo(g, 2, delta=2.0)
    ex = build_exact_fdo(g)
    for u, v, _ in g.edges:
        assert o.query([(u, v)]) == ex.query([(u, v)])


def test_query_monotone_in_failures():
    g = hub_graph(4, n=12)
    o = build_lowdiam_fdo(g, 2, delta=2.0)
    pairs = [(u, v) for u, v, _ in g.edges]
    for two in combinations(pairs, 2):
        q2 = o.query(two)
        assert o.query(two[:1]) <= q2
        assert o.query([]) <= q2


def test_query_probe_budget():
    g = hub_graph(6, n=12)
    o = build_lowdiam_fdo(g, 2, delta=2.0)
    pairs = [(g.edges[0][0], g.edges[0][1]), (g.edges[1][0], g.edges[1][1])]
    d = o.query_details(pairs)
    assert d["probes"] <= 4 and d["answer"] == o.query(pairs)
    # the probes that found an entry: the empty key's always does
    assert d["hits"] == sum(key in o.table
                            for key in [(), (0,), (1,), (0, 1)])
    assert o.query_details([]) == {"answer": o.base_diam, "probes": 1,
                                   "hits": 1}


def test_query_leaves_oracle_unchanged():
    g = hub_graph(6, n=12)
    o = build_lowdiam_fdo(g, 2, delta=2.0)
    before = {name: repr(value) for name, value in vars(o).items()}
    for key in o.table:
        o.query([(g.edges[e][0], g.edges[e][1]) for e in key])
    assert {name: repr(value) for name, value in vars(o).items()} == before


def test_query_too_many(c4):
    o = build_lowdiam_fdo(c4, 2, delta=3.0)
    with pytest.raises(GraphError, match="too many"):
        o.query([(0, 1), (1, 2), (2, 3)])


def test_disconnecting_failures_answer_infinite():
    g = build_graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (1, 3), (0, 2), (2, 4), (1, 4), (0, 3)])
    o = build_lowdiam_fdo(g, 2, delta=3.0)
    for pairs in all_failure_sets(g, 2):
        truth = brute_diam(g, pairs)
        assert o.query(pairs) == truth


def test_sampled_backend_one_sided():
    g = hub_graph(7, n=20)
    o = build_lowdiam_fdo(g, 2, delta=2.0, backend="sampled", seed=1,
                          dso_delta=1.0)
    mismatches = 0
    total = 0
    for pairs in all_failure_sets(g, 2):
        truth = brute_diam(g, pairs)
        ans = o.query(pairs)
        assert ans >= truth
        total += 1
        mismatches += ans != truth
    assert mismatches / total <= 0.001
