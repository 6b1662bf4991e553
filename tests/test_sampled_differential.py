"""Differential test of the bit-parallel sampled f-DSO.

Hypothesis draws connected unit undirected graphs (n <= 12), a failure
budget f in {1, 2, 3}, a build seed and sampling constants, and failure
sets of 0..f edges.  ``build_sampled_fdso`` must give the same
``(dist, path)`` on every (s, t, F) as a reference copy of the scalar
construction it replaces: per subgraph, one ``distances`` row and one
smallest-id parent row per source, and per edge the ascending list of
subgraphs that drop it, intersected over the failed edges.  A sampled
``lowdiam`` build must give the same ``build_stats`` as the per-pair
construction driven by the reference, and the undominated entries of its
table; on fixed hub graphs at f = 2, 3 it must, built and loaded, answer
every failure set of at most f edges as that unpruned table does.
"""
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from fdo import GraphError, INF, build_lowdiam_fdo, distances, gen_random
from fdo.dso import build_sampled_fdso
from fdo.lowdiam import undominated

from conftest import (check_pruned_oracle, connected_graphs,
                      reference_lowdiam_table)


class ScalarSampledDSO:
    """The scalar construction: k * n BFS rows and parent rows."""

    def __init__(self, g, f, delta=1.0, C=3.0, seed=0, max_subgraphs=50_000):
        n, m = g.n, g.m
        k = math.ceil(C * f * (n ** delta) * math.log(n))
        if k > max_subgraphs:
            raise GraphError(f"subgraph count k={k} exceeds budget {max_subgraphs}")
        drop_p = n ** (-delta / f)
        self.f, self.k = f, k
        self.subgraphs = []
        self.dropped_in = [[] for _ in range(m)]
        for i in range(k):
            rng = random.Random(seed * 2654435761 + i)
            dropped = frozenset(eid for eid in range(m) if rng.random() < drop_p)
            for eid in sorted(dropped):
                self.dropped_in[eid].append(i)
            dist_rows = [distances(g, s, dropped) for s in range(n)]
            parent_rows = [parent_row(g, row, dropped) for row in dist_rows]
            self.subgraphs.append((dist_rows, parent_rows))

    def surviving(self, failed):
        if not failed:
            return list(range(self.k))
        lists = sorted((self.dropped_in[e] for e in failed), key=len)
        result = lists[0]
        for other in lists[1:]:
            result = [i for i in result if contains(other, i)]
        return result

    def query(self, s, t, failed_eids):
        failed = sorted(set(failed_eids))
        if len(failed) > self.f:
            raise GraphError(f"failure set of size {len(failed)} exceeds f={self.f}")
        best, best_i = INF, -1
        for i in self.surviving(failed):
            di = self.subgraphs[i][0][s][t]
            if di < best:
                best, best_i = di, i
        if best == INF:
            return INF, None
        parent = self.subgraphs[best_i][1][s]
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        return best, path[::-1]

    def distance(self, s, t, failed_eids):
        return self.query(s, t, failed_eids)[0]


def parent_row(g, dist, dropped):
    parent = [-1] * g.n
    for v in range(g.n):
        dv = dist[v]
        if dv == 0 or dv == INF:
            continue
        best = -1
        for u, eid, _ in g._out_nbrs[v]:
            if eid not in dropped and dist[u] + 1 == dv and (best < 0 or u < best):
                best = u
        parent[v] = best
    return parent


def contains(sorted_list, x):
    j = bisect_left(sorted_list, x)
    return j < len(sorted_list) and sorted_list[j] == x


SAMPLING = dict(seed=st.integers(0, 10_000),
                C=st.sampled_from([0.2, 0.5, 1.0, 3.0]),
                delta=st.sampled_from([0.5, 1.0, 2.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_masks_match_scalar_construction(data):
    g = data.draw(connected_graphs())
    f = data.draw(st.integers(1, 3))
    params = {name: data.draw(s) for name, s in SAMPLING.items()}
    new = build_sampled_fdso(g, f, **params)
    ref = ScalarSampledDSO(g, f, **params)
    assert new.k == ref.k
    sets = data.draw(st.lists(
        st.lists(st.integers(0, g.m - 1), max_size=min(f, g.m), unique=True),
        min_size=1, max_size=6))
    for failed in [[]] + sets:
        for s in range(g.n):
            for t in range(g.n):
                got = new.query_details(s, t, failed)
                assert (got["dist"], got["path"]) == ref.query(s, t, failed), \
                    (s, t, failed)
                assert got["survivors"] == len(ref.surviving(sorted(failed)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lowdiam_tables_match_scalar_construction(data):
    g = data.draw(connected_graphs(max_n=10))
    f = data.draw(st.integers(2, 3))
    seed = data.draw(SAMPLING["seed"])
    dso_C = data.draw(SAMPLING["C"])
    dso_delta = data.draw(SAMPLING["delta"])

    # gate exponent 3f: the admissible diameter n^3/(f+1) admits any
    # connected graph here, so the draw is never refused
    new = build_lowdiam_fdo(g, f, 3.0 * f, backend="sampled", seed=seed,
                            dso_delta=dso_delta, dso_C=dso_C)
    ref = ScalarSampledDSO(g, f, delta=dso_delta, C=dso_C, seed=seed)
    table, stats = reference_lowdiam_table(g, f, ref)
    assert new.table == undominated(table)
    assert new.build_stats == stats
    assert new.subgraph_count == ref.k


@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_answers_match_the_unpruned_table(f, seed):
    g = gen_random("low-diam-hub", seed, n=10, p=0.2)
    o = build_lowdiam_fdo(g, f, 3.0 * f, backend="sampled", seed=seed,
                          dso_delta=1.0, dso_C=1.0)
    table, _ = reference_lowdiam_table(
        g, f, ScalarSampledDSO(g, f, delta=1.0, C=1.0, seed=seed))
    check_pruned_oracle(g, f, o, table)
