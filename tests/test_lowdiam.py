from itertools import combinations

import pytest

from fdo import (GraphError, INF, SingleFDO, brute_diam, build_approx_fdo,
                 build_ecc_fdo, build_exact_fdo, build_graph,
                 build_lowdiam_fdo, build_multi_fdo, build_sampled_fdso,
                 build_spanner_fdo, dumps_oracle, gen_random, loads_oracle)


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
    (1, "exact", "exact FDO needs a (strongly) connected graph"),
    (2, "exact", "low-diameter FDO needs a connected graph"),
    (2, "sampled", "low-diameter FDO needs a connected graph"),
])
def test_build_rejects_disconnected(f, backend, message):
    # refused as disconnected, not by the diameter gate on an inf diameter
    g = build_graph(6, False, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(GraphError) as err:
        build_lowdiam_fdo(g, f, delta=3.0, backend=backend, seed=1)
    assert str(err.value) == message


def _sampled(g, **kw):
    return build_lowdiam_fdo(g, 2, 2.0, backend="sampled", seed=1, **kw)


@pytest.mark.parametrize("build, message", [
    # approx: eps and C, and eps * diam(G)
    *[pytest.param(lambda g, x=x: build_approx_fdo(g, x),
                   f"epsilon must be positive and finite, got {x}",
                   id=f"approx-eps-{x}") for x in (INF, float("nan"), 0, -1)],
    pytest.param(lambda g: build_approx_fdo(g, 1e308),
                 "epsilon * diam(G) overflows", id="approx-eps-1e308"),
    pytest.param(lambda g: build_approx_fdo(g, 0.5, C=float("nan")),
                 "C must be positive and finite, got nan", id="approx-C-nan"),
    # lowdiam: delta and n^(delta/f); dso_delta and dso_C
    *[pytest.param(lambda g, x=x: build_lowdiam_fdo(g, 2, x),
                   f"delta must be positive and finite, got {x}",
                   id=f"lowdiam-delta-{x}") for x in (INF, float("nan"))],
    pytest.param(lambda g: build_lowdiam_fdo(g, 2, 1e308),
                 "n^(delta/f) overflows", id="lowdiam-delta-1e308"),
    pytest.param(lambda g: _sampled(g, dso_delta=float("nan")),
                 "dso_delta must be positive and finite, got nan",
                 id="sampled-dso-delta-nan"),
    pytest.param(lambda g: _sampled(g, dso_delta=1e308),
                 "subgraph count k=inf exceeds", id="sampled-dso-delta-1e308"),
    *[pytest.param(lambda g, x=x: _sampled(g, dso_C=x),
                   f"dso_C must be positive and finite, got {x}",
                   id=f"sampled-C-{x}")
      for x in (float("nan"), INF, -1.0, 0.0)],
    # the sampled f-DSO: delta, C and the subgraph count k
    *[pytest.param(lambda g, kw=kw: build_sampled_fdso(g, 2, seed=1, **kw),
                   message, id=f"dso-{name}")
      for name, kw, message in [
          ("delta-nan", {"delta": float("nan")}, "delta must be positive"),
          ("C-zero", {"C": 0.0}, "C must be positive and finite, got 0.0"),
          ("C-negative", {"C": -1.0}, "C must be positive and finite"),
          ("C-inf", {"C": INF}, "C must be positive and finite, got inf"),
          ("C-1e308", {"C": 1e308}, "subgraph count k=inf exceeds"),
          ("delta-1e308", {"delta": 1e308}, "subgraph count k=inf exceeds")]],
])
def test_builders_refuse_floats_not_finite_and_positive(build, message):
    # each once ended in OverflowError, ValueError, a negative shift count,
    # a k=0 oracle or a file with delta=nan that no loader reads
    with pytest.raises(GraphError) as err:
        build(hub_graph(3, n=12, p=0.1))
    assert message in str(err.value)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda g: build_multi_fdo(g, 2.0),
                 "failure budget must be an int >= 1, got 2.0", id="multi-2.0"),
    pytest.param(lambda g: build_multi_fdo(g, 2.5),
                 "failure budget must be an int >= 1, got 2.5", id="multi-2.5"),
    pytest.param(lambda g: build_multi_fdo(g, True),
                 "failure budget must be an int >= 1, got True",
                 id="multi-True"),
    pytest.param(lambda g: build_spanner_fdo(g, 2.0),
                 "spanner parameter must be an int >= 1, got 2.0",
                 id="spanner-2.0"),
    pytest.param(lambda g: build_lowdiam_fdo(g, 2.0, 2.0),
                 "failure budget must be an int >= 1, got 2.0",
                 id="lowdiam-2.0"),
    pytest.param(lambda g: build_ecc_fdo(g, 1.0),
                 "source must be a vertex in 0..11, got 1.0", id="ecc-1.0"),
    pytest.param(lambda g: build_ecc_fdo(g, 99),
                 "source must be a vertex in 0..11, got 99", id="ecc-99"),
])
def test_builders_refuse_counts_not_ints(build, message):
    # the multi and spanner builds wrote files that loads_oracle refuses
    # ("bad header value f=2.0"); the lowdiam and ecc builds ended in a
    # TypeError, and source 99 in an IndexError
    with pytest.raises(GraphError) as err:
        build(hub_graph(3, n=12, p=0.1))
    assert str(err.value) == message


@pytest.mark.parametrize("g", [
    build_graph(3, True, [(0, 1), (1, 2), (2, 0)]),
    build_graph(3, False, [(0, 1, 2), (1, 2, 1), (2, 0, 1)]),
], ids=["digraph", "weighted"])
@pytest.mark.parametrize("build, message", [
    (lambda g: build_lowdiam_fdo(g, 2, 3.0),
     "low-diameter FDO requires an undirected unweighted graph"),
    (lambda g: build_sampled_fdso(g, 2, seed=1),
     "sampled f-DSO requires an undirected unweighted graph"),
], ids=["lowdiam", "dso"])
def test_builders_refuse_digraphs_and_weights(g, build, message):
    with pytest.raises(GraphError) as err:
        build(g)
    assert str(err.value) == message


@pytest.mark.parametrize("f", [1, 2])
def test_unknown_backend_refused(f):
    # f=1 returns the exact single-failure oracle, after the check
    with pytest.raises(GraphError, match="unknown backend 'bogus'"):
        build_lowdiam_fdo(chorded_c4(), f, 2.0, backend="bogus")


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


def test_sampled_build_walks_each_source_once(monkeypatch):
    # one lane BFS over the sampled masks per source s < n - 1, read at
    # every depth; none for the last source, which has no pair (s, t > s)
    import fdo.lowdiam
    g = hub_graph(3, n=14)
    dso = build_sampled_fdso(g, 2, delta=1.0, seed=1)
    lane_bfs = fdo.lowdiam.lane_bfs
    sources = []

    def spy(nbrs, alive, frontier, full):
        assert alive == dso.alive and full == (1 << dso.k) - 1
        sources.extend(frontier)
        return lane_bfs(nbrs, alive, frontier, full)

    monkeypatch.setattr(fdo.lowdiam, "lane_bfs", spy)
    build_lowdiam_fdo(g, 2, delta=2.0, backend="sampled", seed=1,
                      dso_delta=1.0)
    assert sources == list(range(g.n - 1))
