import math
import random
import re

import pytest

from fdo import (GraphError, INF, SingleFDO, brute_diam, build_approx_fdo,
                 build_ecc_fdo, build_exact_fdo, build_graph,
                 build_spanner_fdo, deterministic_pivots,
                 diameter, distances, dumps_oracle, gen_random,
                 greedy_hitting_set, in_tree, random_pivots, sssp,
                 strong_bridges)

from fdo import single
from fdo.single import greedy_spanner, raise_by_replacement_ecc

from conftest import (NOT_STRONGLY_CONNECTED, extract_path,
                      small_graph_corpus, zero_weight_graphs)


def dicycle_with_chord(n, chords=((0, None),)):
    edges = [(i, (i + 1) % n) for i in range(n)]
    for u, v in chords:
        v = n // 2 if v is None else v
        edges.append((u, v))
    return build_graph(n, True, edges)


# ---------------------------------------------------------------------- exact

def test_exact_c4(c4):
    o = build_exact_fdo(c4)
    assert o.values == {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}
    assert o.query([(0, 1)]) == 3
    assert o.query([(0, 2)]) == 2  # non-edge: unchanged graph


def test_exact_k4(k4):
    o = build_exact_fdo(k4)
    # frozen: brute diameter of K4 minus any edge
    assert o.values == dict.fromkeys(
        [(u, v) for u in range(4) for v in range(u + 1, 4)], 2)


def test_exact_p4(p4):
    o = build_exact_fdo(p4)
    assert o.values == {(0, 1): INF, (1, 2): INF, (2, 3): INF}
    assert o.query([(1, 2)]) == INF


def test_exact_rejects(p4):
    with pytest.raises(GraphError, match="pairs"):
        build_exact_fdo(p4).query([(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="connected"):
        build_exact_fdo(build_graph(4, False, [(0, 1), (2, 3)]))


# weakly but not strongly connected: 3 reaches the cycle, nothing reaches 3
ONE_WAY = build_graph(4, True, [(0, 1), (1, 2), (2, 0), (3, 0)])
TWO_PARTS = build_graph(4, False, [(0, 1), (2, 3)])


@pytest.mark.parametrize("g", [TWO_PARTS, ONE_WAY], ids=["undirected", "digraph"])
@pytest.mark.parametrize("build, message", [
    (build_exact_fdo, "exact FDO needs a (strongly) connected graph"),
    (lambda g: build_approx_fdo(g, 0.5),
     "approximate FDO needs a strongly connected graph"),
    # these two take undirected graphs only and say so first on a digraph
    (build_ecc_fdo, {False: "eccentricity FDO needs a connected graph",
                     True: "eccentricity FDO requires an undirected graph"}),
    (lambda g: build_spanner_fdo(g, 2),
     {False: "spanner FDO needs a connected graph",
      True: "spanner FDO requires an undirected unweighted graph"}),
], ids=["exact", "approx", "ecc", "spanner"])
def test_builders_reject_disconnected(g, build, message):
    if isinstance(message, dict):
        message = message[g.directed]
    with pytest.raises(GraphError, match=re.escape(message)):
        build(g)


def test_exact_matches_brute_exhaustively():
    for g in small_graph_corpus():
        if g.weighted:
            continue
        o = build_exact_fdo(g)
        base = diameter(g)
        lifted = 0
        for u, v, _ in g.edges:
            truth = brute_diam(g, [(u, v)])
            assert o.query([(u, v)]) == truth
            lifted += truth != base
        # space accounting: one entry per edge whose answer is not diam(G)
        assert len(o.values) == lifted


def test_files_match_per_edge_diameters():
    # the replacement-eccentricity kernel against its definition,
    # diam(G-e) from n fresh shortest-path runs per edge, byte for byte
    graphs = small_graph_corpus()
    for seed in (21, 22):
        graphs += [gen_random("er-undirected", seed, n=14, p=0.25),
                   gen_random("er-weighted", seed, n=12, p=0.3),
                   gen_random("er-strongly-connected-digraph", seed, n=10,
                              p=0.3)]
    for g in graphs:
        base = diameter(g)
        per_edge = [diameter(g, {eid}) for eid in range(g.m)]
        ref = SingleFDO.from_edge_values("exact", g, dict(enumerate(per_edge)),
                                         {"base": base})
        assert dumps_oracle(build_exact_fdo(g)) == dumps_oracle(ref)
        if g.directed or g.weighted:
            continue
        for k in (1, 2):
            o = build_spanner_fdo(g, k)
            ref = SingleFDO.from_edge_values(
                "spanner", g, {eid: per_edge[eid]
                               for eid in greedy_spanner(g, k)},
                {"k": k, "base": base})
            assert dumps_oracle(o) == dumps_oracle(ref)


def test_zero_weight_exact_and_ecc_match_brute():
    for g in zero_weight_graphs():
        exact = build_exact_fdo(g)
        ecc = None if g.directed else build_ecc_fdo(g)
        for u, v, _ in g.edges:
            truth = brute_diam(g, [(u, v)])
            assert exact.query([(u, v)]) == truth
            if ecc is not None:
                ans = ecc.query([(u, v)])
                assert ans == truth == INF or truth <= ans <= 2 * truth


def test_dense_graph_builds_on_tree_lanes(monkeypatch):
    # more finite entries than n + SHARED_LANE_SURPLUS: each source gets
    # the n-1 edges of its own BFS tree as lanes, and the files equal the
    # ones built on one lane per entry shared by all sources
    g = gen_random("er-undirected", 1, n=96, p=0.5)
    assert g.m - g.n > single.SHARED_LANE_SURPLUS
    builds = (build_exact_fdo, lambda g: build_spanner_fdo(g, 1),
              lambda g: build_approx_fdo(g, 0.5))
    files = [dumps_oracle(build(g)) for build in builds]
    monkeypatch.setattr(single, "SHARED_LANE_SURPLUS", INF)
    assert files == [dumps_oracle(build(g)) for build in builds]
    exact = build_exact_fdo(g)
    for u, v, _ in random.Random(5).sample(g.edges, 12):
        assert exact.query([(u, v)]) == brute_diam(g, [(u, v)])


def test_lane_batches_build_the_same_files(monkeypatch):
    # one source per lane BFS, or every source in one: the same files
    cycle = build_graph(40, False, [(i, (i + 1) % 40) for i in range(40)]
                        + [(i, i + 2) for i in range(0, 36, 5)])
    er = gen_random("er-undirected", 3, n=30, p=0.15)
    digraph = gen_random("er-strongly-connected-digraph", 4, n=14, p=0.2)
    pivot = lambda g: build_approx_fdo(g, 1.0, scan_threshold=0)
    spanner = lambda g: build_spanner_fdo(g, 2)
    builds = [(g, build) for g in (cycle, er, digraph)
              for build in (build_exact_fdo, spanner, pivot)
              if not (g.directed and build is spanner)]
    assert all(pivot(g).params["mode"] == "pivot"
               for g in (cycle, er, digraph))
    files = []
    for budget in (1, 1 << 20):
        monkeypatch.setattr(single, "LANE_BATCH_BITS", budget)
        files.append([dumps_oracle(build(g)) for g, build in builds])
    assert files[0] == files[1]


@pytest.mark.parametrize("surplus", [INF, -INF])
def test_one_way_lanes_carry_the_smaller_endpoints_side(monkeypatch,
                                                        surplus):
    # With every vertex a source, a cut edge blocks only the crossing from
    # its smaller endpoint to its larger one.  The lanes of the sources
    # nearer the smaller endpoint carry diam(G-e) alone; the other side's
    # lanes keep their base trees and alone would answer diam(G).
    path = build_graph(7, False, [(i, i + 1) for i in range(6)])
    cycle = build_graph(12, False, [(i, (i + 1) % 12) for i in range(12)]
                        + [(0, 2), (5, 7)])
    kernel = single._raise_by_lanes
    monkeypatch.setattr(single, "SHARED_LANE_SURPLUS", surplus)
    for g in (path, cycle):
        base = diameter(g)
        rows = [distances(g, s) for s in range(g.n)]
        raised = 0
        for eid, (a, b, _) in enumerate(g.edges):
            truth = brute_diam(g, [(a, b)])
            lo, hi = sorted((a, b))
            near = {s for s in range(g.n) if rows[s][lo] < rows[s][hi]}
            got = []
            for side in (near, set(range(g.n)) - near, set(range(g.n))):
                monkeypatch.setattr(
                    single, "_raise_by_lanes",
                    lambda g, sources, *rest, side=side:
                    kernel(g, [s for s in sources if s in side], *rest))
                values = {eid: base}
                raise_by_replacement_ecc(g, range(g.n), values)
                got.append(values[eid])
            assert got == [truth, base, truth], (g, (a, b))
            raised += truth > base
        assert raised  # some edge where the other side alone is wrong


def test_lane_kernel_rejects_weighted():
    g = gen_random("er-weighted", 1, n=8, p=0.5)
    with pytest.raises(GraphError, match="unit weights"):
        raise_by_replacement_ecc(g, range(g.n), dict.fromkeys(range(g.m), 0))


def test_query_details_says_whether_the_answer_is_stored(c4):
    spanner = build_spanner_fdo(c4, 2)     # stores 0-1, 1-2 and 2-3
    assert spanner.query_details([(1, 0)]) == {"answer": 3, "stored": True}
    assert spanner.query_details([(3, 0)]) == {"answer": 4, "stored": False}
    assert spanner.query_details([(0, 2)]) == {"answer": 4, "stored": False}
    for o in (build_exact_fdo(c4), build_ecc_fdo(c4), spanner,
              build_approx_fdo(c4, 1.0, scan_threshold=0)):
        for pair in [(0, 1), (2, 3), (3, 0), (0, 2), (3, 1)]:
            details = o.query_details([pair])
            assert details["answer"] == o.query([pair]), (o.kind, pair)
            assert details["stored"] == (tuple(sorted(pair)) in o.values)
            assert details["stored"] == (details["answer"] != o.fallback)


# ------------------------------------------------------------------------ ecc

def test_ecc_c4(c4):
    o = build_ecc_fdo(c4)
    # frozen: ecc(0, C4) = 2 so the fallback is 4; cutting a tree edge at 0
    # turns C4 into a path with ecc(0) = 3, stored as 6
    assert o.fallback == 4
    assert o.query([(2, 3)]) == 4   # non-tree edge under smallest-id parents
    assert o.query([(0, 1)]) == 6
    # of the n-1 tree edges, 1-2 leaves ecc(0) at 2 and keeps no entry
    assert o.values == {(0, 1): 6, (0, 3): 6}


def test_ecc_star_detach(star5):
    o = build_ecc_fdo(star5)
    assert o.query([(0, 1)]) == INF


def test_ecc_rejects_directed(dicycle3):
    with pytest.raises(GraphError, match="undirected"):
        build_ecc_fdo(dicycle3)


def test_ecc_sandwich():
    for g in small_graph_corpus():
        if g.directed:
            continue
        o = build_ecc_fdo(g)
        for u, v, _ in g.edges:
            truth = brute_diam(g, [(u, v)])
            ans = o.query([(u, v)])
            if truth == INF:
                assert ans == INF
            else:
                assert truth <= ans <= 2 * truth


# -------------------------------------------------------------------- spanner

def test_spanner_k1_is_whole_graph(c4):
    o1 = build_spanner_fdo(c4, 1)
    ex = build_exact_fdo(c4)
    assert greedy_spanner(c4, 1) == list(range(c4.m))
    assert o1.values == ex.values
    for u, v, _ in c4.edges:
        assert o1.query([(u, v)]) == ex.query([(u, v)])


def test_spanner_c4_k2(c4):
    o = build_spanner_fdo(c4, 2)
    # greedy in id order keeps 0,1,2 and skips 3-0 (three hops suffice)
    assert greedy_spanner(c4, 2) == [0, 1, 2]
    assert o.values == {(0, 1): 3, (1, 2): 3, (2, 3): 3}
    assert o.query([(3, 0)]) == 4   # fallback diam+2 over true value 3
    assert o.query([(0, 2)]) == 4   # non-edge treated the same way


def test_spanner_rejects(c4):
    with pytest.raises(GraphError, match=">= 1"):
        build_spanner_fdo(c4, 0)


def test_spanner_stretch_property():
    for g in small_graph_corpus():
        if g.directed or g.weighted:
            continue
        for k in (1, 2, 3):
            o = build_spanner_fdo(g, k)
            keep = set(greedy_spanner(g, k))
            h = build_graph(g.n, False, [(u, v) for eid, (u, v, _)
                                         in enumerate(g.edges) if eid in keep])
            for s in range(g.n):
                dg = distances(g, s)
                dh = distances(h, s)
                assert all(dh[t] <= (2 * k - 1) * dg[t] for t in range(g.n))
            base = diameter(g)
            for u, v, _ in g.edges:
                truth = brute_diam(g, [(u, v)])
                ans = o.query([(u, v)])
                if truth == INF:
                    assert ans == INF
                else:
                    assert truth <= ans <= (1 + 2 * (k - 1) / base) * truth + 1e-9


# --------------------------------------------------------------------- approx

def test_approx_tiny_eps_is_exact(c4):
    o = build_approx_fdo(c4, 0.1)
    assert o.params["mode"] == "exact-scan" and o.params["slack"] == 0
    assert o.values == build_exact_fdo(c4).values


def test_approx_non_edge(c4):
    o = build_approx_fdo(c4, 0.5)
    assert o.query([(0, 2)]) == o.params["base"] == 2


def test_approx_strong_bridge_infinite():
    g = dicycle_with_chord(12)
    o = build_approx_fdo(g, 1.0, scan_threshold=0)
    assert o.params["mode"] == "pivot"
    bridges = strong_bridges(g)
    assert bridges
    for eid in bridges:
        u, v, _ = g.edges[eid]
        assert o.query([(u, v)]) == INF


def test_approx_deterministic_sandwich_forced_pivot():
    graphs = [dicycle_with_chord(14), dicycle_with_chord(20, ((0, 10), (5, 15)))]
    graphs += [g for g in small_graph_corpus() if g.directed]
    for g in graphs:
        for eps in (0.5, 1.0):
            o = build_approx_fdo(g, eps, scan_threshold=0)
            for u, v, _ in g.edges:
                truth = brute_diam(g, [(u, v)])
                ans = o.query([(u, v)])
                if truth == INF:
                    assert ans == INF
                else:
                    assert truth <= ans <= (1 + eps) * truth
        assert len(o.values) == g.m


def test_approx_random_mode_needs_seed(c4):
    with pytest.raises(GraphError, match="seed"):
        build_approx_fdo(c4, 1.0, pivot_mode="random", scan_threshold=0)


@pytest.mark.parametrize("kw, message", [
    ({"pivot_mode": "bogus"}, "unknown pivot mode 'bogus'"),
    ({"pivot_mode": "random"}, "random pivot mode requires a seed"),
])
def test_approx_checks_pivot_mode_before_the_exact_scan(c4, kw, message):
    # C4's slack of 1 takes the exact scan, which reads no pivot mode
    assert build_approx_fdo(c4, 0.5).params["mode"] == "exact-scan"
    with pytest.raises(GraphError, match=message):
        build_approx_fdo(c4, 0.5, **kw)


def test_approx_rejects_weighted():
    g = build_graph(3, False, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    with pytest.raises(GraphError, match="unweighted"):
        build_approx_fdo(g, 0.5)


def test_off_path_stability():
    # removing an edge off the stored s-t path never changes d(s,t)
    for g in small_graph_corpus():
        for s in range(g.n):
            tree = sssp(g, s)
            for t in range(g.n):
                if s == t or tree.dist[t] == INF:
                    continue
                on_path = set(extract_path(tree, t)[1])
                for eid in range(g.m):
                    if eid in on_path:
                        continue
                    assert distances(g, s, {eid})[t] == tree.dist[t]


# --------------------------------------------------------------------- pivots

@pytest.mark.parametrize("pick", [random_pivots, deterministic_pivots])
def test_pivots_refuse_theta_below_one(c4, pick):
    with pytest.raises(GraphError) as err:
        pick(c4, 0)
    assert str(err.value) == "theta must be an int >= 1, got 0"


@pytest.mark.parametrize("pick", [random_pivots, deterministic_pivots])
@pytest.mark.parametrize("theta", [2.5, math.nan, True],
                         ids=["2.5", "nan", "True"])
def test_pivots_refuse_non_int_theta(c4, pick, theta):
    # 2.5 would end in range()'s TypeError, nan in the pivot set [0] with
    # no covering guarantee
    with pytest.raises(GraphError) as err:
        pick(c4, theta)
    assert str(err.value) == f"theta must be an int >= 1, got {theta!r}"


def test_random_pivots_clamped(c4):
    # theta below C*ln(n) clamps the probability at one: everything sampled
    assert random_pivots(c4, 1, C=3.0, seed=5) == [0, 1, 2, 3]


def test_random_pivots_deterministic():
    g = gen_random("er-undirected", seed=3, n=30, p=0.2)
    assert random_pivots(g, 10, seed=42) == random_pivots(g, 10, seed=42)


def test_random_pivots_expected_size():
    # n=100, theta=20, C=3: inclusion probability 3*ln(100)/20 = 0.6908,
    # expected size 69.08
    g = build_graph(100, False, [(i, i + 1) for i in range(99)])
    sizes = [len(random_pivots(g, 20, C=3.0, seed=s)) for s in range(300)]
    assert 64 <= sum(sizes) / len(sizes) <= 74


def test_deterministic_pivots_trivial_on_small_world(k4):
    # every vertex within reach of the root even after one failure
    assert deterministic_pivots(k4, 2) == [0]


def test_deterministic_pivots_cover_property():
    graphs = [g for g in small_graph_corpus() if not g.weighted]
    graphs.append(dicycle_with_chord(10))
    graphs.append(build_graph(7, False, [(i, (i + 1) % 7) for i in range(7)]))
    for g in graphs:
        bridges = strong_bridges(g)
        for theta in (1, 2):
            pivots = deterministic_pivots(g, theta, bridges=bridges)
            for eid in range(g.m):
                if eid in bridges:
                    continue
                for s in range(g.n):
                    row = distances(g, s, {eid})
                    assert min(row[x] for x in pivots) <= theta, (
                        f"{g!r} theta={theta} e={eid} s={s} B={pivots}")


def reference_pivot_paths(g, root, length, bridges):
    # the paths as one in_tree per cut edge gave them: base prefixes, and
    # the prefix toward the root in G-e for each non-bridge edge e on them
    base = in_tree(g, root)
    detour_trees = {}
    paths = []
    for s in range(g.n):
        if s == root:
            continue
        verts, eids = extract_path(base, s, toward_root=True)
        if base.dist[s] > length:
            paths.append(verts[:length + 1])
        for eid in eids[:length]:
            if eid in bridges:
                continue
            if eid not in detour_trees:
                detour_trees[eid] = in_tree(g, root, {eid})
            te = detour_trees[eid]
            if te.dist[s] > length:
                got = extract_path(te, s, toward_root=True)
                paths.append([s] if got is None else got[0][:length + 1])
    return paths


def test_pivot_paths_match_in_tree_walk():
    graphs = []
    for seed in range(6):
        graphs.append(gen_random("er-undirected", seed, n=8 + 4 * seed,
                                 p=0.25))
        graphs.append(gen_random("er-strongly-connected-digraph", seed,
                                 n=6 + 2 * seed, p=0.3))
        g = graphs[-2]   # a pendant path on two bridges
        graphs.append(build_graph(g.n + 2, False, [e[:2] for e in g.edges]
                                  + [(seed, g.n), (g.n, g.n + 1)]))
    graphs += [dicycle_with_chord(14), dicycle_with_chord(20, ((0, 10), (5, 15))),
               build_graph(30, False, [(i, (i + 1) % 30) for i in range(30)]
                           + [(0, 2), (7, 9), (16, 18)])]
    for g in graphs:
        bridges = strong_bridges(g)
        for length in range(1, 7):
            for known in (bridges, set()) if bridges else (bridges,):
                assert (single._pivot_paths(g, 0, length, known)
                        == reference_pivot_paths(g, 0, length, known)), (
                    g, length, known)


def test_deterministic_pivots_rejects_weighted():
    g = gen_random("er-weighted", 1, n=8, p=0.5)
    with pytest.raises(GraphError, match="unweighted"):
        deterministic_pivots(g, 2)


@pytest.mark.parametrize("g", NOT_STRONGLY_CONNECTED, ids=repr)
def test_deterministic_pivots_rejects_not_strongly_connected(g):
    # no bridges given: deterministic_pivots finds them itself
    with pytest.raises(GraphError,
                       match=r"^graph must be \(strongly\) connected$"):
        deterministic_pivots(g, 2)


def test_pivot_build_checks_connectivity_once(monkeypatch):
    # build_approx_fdo refuses an infinite diam(G) and passes the bridges:
    # deterministic_pivots runs no strong_bridges pass of its own then
    calls = []

    def spy(g):
        calls.append(g)
        return strong_bridges(g)

    monkeypatch.setattr(single, "strong_bridges", spy)
    g = gen_random("er-undirected", seed=1, n=40, p=0.08)
    o = build_approx_fdo(g, 1.0, scan_threshold=0)
    assert o.params["mode"] == "pivot" and len(o.pivots) > 1
    assert calls == [g]


def reference_greedy_hitting_set(paths):
    # the greedy pick over a bucket queue of unhit-path counts
    incidence = {}
    for idx, verts in enumerate(paths):
        for v in verts:
            incidence.setdefault(v, []).append(idx)
    count = {v: len(ids) for v, ids in incidence.items()}
    buckets = {}
    for v, c in count.items():
        buckets.setdefault(c, set()).add(v)
    cur_max = max(buckets) if buckets else 0
    hit = [False] * len(paths)
    remaining = len(paths)
    picked = []

    def move(v, old, new):
        buckets[old].discard(v)
        if new > 0:
            buckets.setdefault(new, set()).add(v)

    while remaining:
        while cur_max > 0 and not buckets.get(cur_max):
            cur_max -= 1
        v = min(buckets[cur_max])
        picked.append(v)
        for idx in incidence[v]:
            if hit[idx]:
                continue
            hit[idx] = True
            remaining -= 1
            for u in paths[idx]:
                c = count[u]
                count[u] = c - 1
                move(u, c, c - 1)
    return picked


def test_hitting_set_matches_bucket_queue():
    rng = random.Random(15)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 30)
        cases.append([rng.sample(range(n), rng.randint(1, min(n, 6)))
                      for _ in range(rng.randint(0, 40))])
    for n in (96, 400):   # the pivot paths of chorded cycles, θ = 40
        g = build_graph(n, False, [(i, (i + 1) % n) for i in range(n)]
                        + [(i, i + 2) for i in range(0, n - 2, 8)])
        length = min(40, math.isqrt(n))
        cases.append(single._pivot_paths(g, 0, length, strong_bridges(g)))
    assert len(cases[-1]) > 1000
    for paths in cases:
        assert greedy_hitting_set(paths) == reference_greedy_hitting_set(
            paths), paths


def test_hitting_set_greedy_tiebreak():
    paths = [[1, 2], [2, 3], [4, 5]]
    # vertex 2 hits the first two, then smallest-id pick among {4,5}
    assert greedy_hitting_set(paths) == [2, 4]
    assert greedy_hitting_set([]) == []
