"""Differential test of the low-diameter multi-failure oracle.

Hypothesis draws low-diameter graphs (a hub adjacent to every vertex plus
random extra pairs, n <= 12, random vertex labels and edge order) and
failure sets of at most f vertex pairs (f = 2, 3), mixing edges and
non-edges.  With the enumeration backend every answer must equal
``fdo.verify.brute_diam``.  With the sampled backend an answer must never
be below it, and must be ``inf`` exactly when G-F is disconnected.  On
both, ``query`` gives the answer of ``query_details``, of the same type.

"Never below" is deterministic; an ``inf`` answer on a connected G-F is an
overestimate that the sampling only makes unlikely.  On graphs this small
the default sampling (C=3, exponent 1) gave it for 12 of 1800 random
queries, so the sampled backend runs at C=10, exponent 2 here (0 of 1800),
and the derandomized examples pin the build seeds that are checked.

The enumeration backend's bit-lane table build is also pinned to the
per-pair construction driven by a tree-memo DSO: the same ``build_stats``,
and the undominated entries of its table.  On fixed hub graphs at f = 2, 3
the oracle, built and loaded, answers every failure set of at most f edges
as that unpruned table does.
"""
import pytest
from hypothesis import given, settings, strategies as st

from fdo import (INF, brute_diam, build_graph, build_lowdiam_fdo, gen_random,
                 sssp)
from fdo.lowdiam import undominated

from conftest import (check_pruned_oracle, connected_graphs, extract_path,
                      reference_lowdiam_table)


class TreeMemoExactDSO:
    """The tree-memo construction: one ``sssp`` tree per (source, failure
    subset), kept for the whole build, and its tree path."""

    def __init__(self, g, f):
        self.g = g
        self._memo = {}

    def query(self, s, t, failed_eids):
        key = (s, tuple(sorted(failed_eids)))
        tree = self._memo.get(key)
        if tree is None:
            tree = self._memo[key] = sssp(self.g, s, frozenset(key[1]))
        got = extract_path(tree, t)
        if got is None:
            return INF, None
        return tree.dist[t], got[0]

    def distance(self, s, t, failed_eids):
        return self.query(s, t, failed_eids)[0]


@st.composite
def hub_graphs(draw):
    n = draw(st.integers(3, 12))
    label = draw(st.permutations(range(n)))
    pairs = {frozenset((label[0], label[v])) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(1, n - 1),
                                    st.integers(1, n - 1)), max_size=n))
    pairs |= {frozenset((label[u], label[v])) for u, v in extra if u != v}
    edges = draw(st.permutations(sorted(tuple(sorted(p)) for p in pairs)))
    return build_graph(n, False, edges)


def failure_sets(g, f):
    pair = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)).filter(
        lambda p: p[0] != p[1])
    edge = st.sampled_from([(u, v) for u, v, _ in g.edges])
    return st.lists(st.one_of(edge, edge, pair), max_size=f,
                    unique_by=frozenset)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lowdiam_backends_match_brute(data):
    g = data.draw(hub_graphs())
    f = data.draw(st.integers(2, 3))
    # gate exponent 2f: the admissible diameter n^2/(f+1) >= 2 covers the hub
    exact = build_lowdiam_fdo(g, f, 2.0 * f, backend="exact")
    sampled = build_lowdiam_fdo(g, f, 2.0 * f, backend="sampled",
                                seed=data.draw(st.integers(0, 10_000)),
                                dso_delta=2.0, dso_C=10.0)
    for pairs in data.draw(st.lists(failure_sets(g, f), min_size=1,
                                    max_size=12)):
        truth = brute_diam(g, pairs)
        assert exact.query(pairs) == truth, pairs
        answer = sampled.query(pairs)
        assert answer >= truth, (pairs, answer, truth)
        assert (answer == INF) == (truth == INF), (pairs, answer, truth)



@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_query_answers_as_query_details(data):
    # query answers from the core without building a transcript: the same
    # answer as query_details, of the same type, on both backends
    g = data.draw(hub_graphs())
    f = data.draw(st.integers(2, 3))
    oracles = [build_lowdiam_fdo(g, f, 2.0 * f, backend="exact"),
               build_lowdiam_fdo(g, f, 2.0 * f, backend="sampled",
                                 seed=data.draw(st.integers(0, 10_000)),
                                 dso_delta=2.0)]
    for pairs in data.draw(st.lists(failure_sets(g, f), min_size=1,
                                    max_size=12)):
        for o in oracles:
            assert (repr(o.query(pairs))
                    == repr(o.query_details(pairs)["answer"])), (o.backend,
                                                                 pairs)

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exact_dso_matches_tree_memo(data):
    g = data.draw(st.one_of(hub_graphs(), connected_graphs(max_n=10)))
    f = data.draw(st.integers(2, 3))
    # gate exponent 3f admits any connected graph of this size
    got = build_lowdiam_fdo(g, f, 3.0 * f, backend="exact")
    table, stats = reference_lowdiam_table(g, f, TreeMemoExactDSO(g, f))
    assert got.table == undominated(table)
    assert got.build_stats == stats


@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_answers_match_the_unpruned_table(f, seed):
    g = gen_random("low-diam-hub", seed, n=10, p=0.2)
    o = build_lowdiam_fdo(g, f, 3.0 * f, backend="exact")
    table, _ = reference_lowdiam_table(g, f, TreeMemoExactDSO(g, f))
    check_pruned_oracle(g, f, o, table)
