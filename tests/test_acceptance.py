"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime (run with `pytest -s` to see them).

Every expected value is checked against the brute-force reference from
fdo.verify at the tolerance stated in the criterion; runtime budgets are
asserted as part of the criterion.
"""
import hashlib
import math
import random
import time
from fractions import Fraction
from itertools import combinations

from fdo import (INF, brute_diam, brute_replacement,
                 build_approx_fdo, build_ecc_fdo, build_exact_fdo,
                 build_graph, build_lowdiam_fdo, build_multi_fdo,
                 build_sampled_fdso, build_spanner_fdo, deterministic_pivots,
                 diameter, distances, dumps_oracle, gen_dense_lb,
                 gen_multi_lb, gen_multi_lb_f1, gen_random, gen_sparse_lb,
                 gen_weighted_lb, loads_oracle, random_payload,
                 strong_bridges)
from fdo.single import greedy_spanner
from fdo.verify import enumerate_failures

from conftest import endpoints, sampled_query

EPS = 1e-9
DEFAULT_SEED = 0xFD0    # the seed of the randomized builds below


def report(name, violations, elapsed, budget, detail=""):
    ok = not violations
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    line += f" ({elapsed:.1f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, f"{name}: {violations[:10]}"
    assert elapsed < budget, f"{name} over runtime budget: {elapsed:.1f}s"


def er_undirected(seed, n, p=0.25):
    return gen_random("er-undirected", seed=seed, n=n, p=p)


def er_digraph(seed, n, p=0.3):
    return gen_random("er-strongly-connected-digraph", seed=seed, n=n, p=p)


def chorded_dicycle(n, chords):
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return build_graph(n, True, edges)


# -------------------------------------------------------------- criterion 1

def test_c1_exact_oracle_equivalence():
    t0 = time.perf_counter()
    graphs = [er_undirected(100 + i, n, p)
              for i, (n, p) in enumerate([(16, 0.25), (20, 0.2), (24, 0.18),
                                          (28, 0.15), (32, 0.14), (36, 0.12),
                                          (40, 0.1), (18, 0.3), (22, 0.25),
                                          (26, 0.2), (30, 0.25), (40, 0.15)])]
    graphs += [er_digraph(200 + i, n)
               for i, n in enumerate([10, 12, 14, 16, 18, 20, 22, 24])]
    assert len(graphs) == 20
    bad = []
    edges_checked = 0
    for g in graphs:
        oracle = build_exact_fdo(g)
        for u, v, _ in g.edges:
            edges_checked += 1
            if oracle.query([(u, v)]) != brute_diam(g, [(u, v)]):
                bad.append((g, u, v))
    report("C1 exact oracle equals brute force", bad,
           time.perf_counter() - t0, 30,
           f"20 graphs, {edges_checked} edges exact")


# -------------------------------------------------------------- criterion 2

def c2_graphs():
    gs = [er_digraph(300 + i, n) for i, n in enumerate([15, 18, 22, 26, 30])]
    gs += [chorded_dicycle(40, [(0, 20)]),
           chorded_dicycle(48, [(0, 24), (12, 36)]),
           chorded_dicycle(54, [(5, 32)]),
           chorded_dicycle(60, [(0, 30), (15, 45)]),
           chorded_dicycle(60, [(7, 40), (25, 3), (50, 20)])]
    return gs


def test_c2_approx_sandwich():
    t0 = time.perf_counter()
    graphs = c2_graphs()
    truths = []
    for g in graphs:
        truths.append([brute_diam(g, [(u, v)]) for u, v, _ in g.edges])

    bad = []
    for g, truth in zip(graphs, truths):
        for eps in (0.25, 0.5, 1.0):
            o = build_approx_fdo(g, eps)
            for eid, (u, v, _) in enumerate(g.edges):
                ans = o.query([(u, v)])
                t = truth[eid]
                lo_ok = ans >= t if t != INF else ans == INF
                hi_ok = ans <= (1 + eps) * t + EPS if t != INF else ans == INF
                if not (lo_ok and hi_ok):
                    bad.append((eps, eid, ans, t))

    # randomized pivots: one-sided slack allowed on at most 1% of pairs
    seen = 0
    low_failures = []
    pivot_builds = 0
    for g, truth in zip(graphs, truths):
        for seed in range(20):
            o = build_approx_fdo(g, 1.0, pivot_mode="random", seed=seed)
            pivot_builds += o.params["mode"] == "pivot"
            for eid, (u, v, _) in enumerate(g.edges):
                ans = o.query([(u, v)])
                t = truth[eid]
                seen += 1
                if (ans < t) if t != INF else (ans != INF):
                    low_failures.append((seed, eid, ans, t))
                if t != INF and ans != INF and ans > 2 * t + EPS:
                    bad.append(("upper", seed, eid, ans, t))
    for rec in low_failures:
        print(f"    random-mode undershoot: seed={rec[0]} edge={rec[1]} "
              f"answer={rec[2]} truth={rec[3]}")
    if len(low_failures) > 0.01 * seen:
        bad.append(("rate", len(low_failures), seen))
    report("C2 (1+eps) sandwich", bad, time.perf_counter() - t0, 120,
           f"{seen} randomized pairs, {len(low_failures)} undershoots, "
           f"{pivot_builds}/200 randomized builds in pivot mode")


# -------------------------------------------------------------- criterion 3

def test_c3_pivot_cover_radius():
    t0 = time.perf_counter()
    graphs = [er_undirected(400, 12, 0.3), er_undirected(401, 18, 0.2),
              er_undirected(402, 24, 0.15), er_undirected(403, 30, 0.12),
              build_graph(7, False, [(i, (i + 1) % 7) for i in range(7)]),
              chorded_dicycle(16, [(3, 11)]), er_digraph(404, 12)]
    bad = []
    for g in graphs:
        bridges = strong_bridges(g)
        diam = diameter(g)
        thetas = sorted({1, 2, max(1, diam // 2)})
        pivot_sets = [(th, deterministic_pivots(g, th, bridges=bridges))
                      for th in thetas]
        for eid in range(g.m):
            if eid in bridges:
                continue
            for s in range(g.n):
                row = distances(g, s, {eid})
                for th, pivots in pivot_sets:
                    if min(row[x] for x in pivots) > th:
                        bad.append((g, th, eid, s))
    report("C3 pivot set covers every surviving graph", bad,
           time.perf_counter() - t0, 60, f"{len(graphs)} graphs exhaustive")


# -------------------------------------------------------------- criterion 4

def c4_msf_weight(g, failed, swap_weight):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    for w, eid in sorted((swap_weight[e], e) for e in range(g.m)
                         if e not in failed):
        u, v, _ = g.edges[eid]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def test_c4_multi_failure_stretch():
    t0 = time.perf_counter()
    graphs = [gen_random("er-weighted", seed=500 + i, n=n, p=p)
              for i, (n, p) in enumerate([(12, 0.3), (18, 0.22), (24, 0.18),
                                          (32, 0.14), (40, 0.11)])]
    bad = []
    checked = 0
    for g in graphs:
        pairs_all = [(u, v) for u, v, _ in g.edges]
        for f in (1, 2, 3):
            o = build_multi_fdo(g, f)
            if f == 1:
                cases = [(p,) for p in pairs_all]
            else:
                rng = random.Random(1000 * f + g.n)
                cases = [tuple(rng.sample(pairs_all, f)) for _ in range(200)]
            for case in cases:
                checked += 1
                truth = brute_diam(g, case)
                detail = o.query_details(case)
                ans = detail["answer"]
                if truth == INF or ans == INF:
                    if truth != ans:
                        bad.append(("finiteness", f, case, ans, truth))
                    continue
                if not (truth <= ans <= (f + 2) * truth):
                    bad.append(("sandwich", f, case, ans, truth))
                if detail["gap"] > truth:
                    bad.append(("gap-bound", f, case, detail["gap"], truth))
                failed = {g.edge_id(u, v) for u, v in case}
                ours = sum(o.swap_weight[e] for e in detail["swap_eids"])
                if ours != c4_msf_weight(g, failed, o.swap_weight):
                    bad.append(("msf-weight", f, case))
    report("C4 multi-failure (f+2) stretch", bad, time.perf_counter() - t0,
           120, f"{checked} queries incl. per-query forest and gap checks")


# -------------------------------------------------------------- criterion 5

def c5_graphs():
    specs = [(16, 0.1, 600), (18, 0.09, 601), (20, 0.08, 602), (22, 0.07, 603),
             (24, 0.07, 604), (26, 0.06, 605), (28, 0.05, 606), (30, 0.05, 607),
             (18, 0.12, 608), (22, 0.1, 609)]
    graphs = []
    for n, p, seed in specs:
        g = gen_random("low-diam-hub", seed=seed, n=n, p=p)
        assert g.m <= 60, (n, p, g.m)
        graphs.append(g)
    return graphs


def test_c5_lowdiam_exactness():
    t0 = time.perf_counter()
    bad = []
    mismatches = 0
    total = 0
    for g in c5_graphs():
        pairs_all = [(u, v) for u, v, _ in g.edges]
        cases = [()] + [(p,) for p in pairs_all] \
            + list(combinations(pairs_all, 2))
        truths = [brute_diam(g, c) for c in cases]

        exact = build_lowdiam_fdo(g, 2, delta=2.0, backend="exact")
        for case, truth in zip(cases, truths):
            detail = exact.query_details(case)
            if detail["answer"] != truth:
                bad.append(("exact-backend", case))
            if detail["probes"] > 4:
                bad.append(("probe-budget", case, detail["probes"]))

        nodes = exact.build_stats["nodes"]
        print(f"    size audit n={g.n} m={g.m}: |table|={len(exact.table)} "
              f"<= nodes={nodes}, n^(2+delta)={g.n ** 4:.0f}")
        assert len(exact.table) <= nodes

        sampled = build_lowdiam_fdo(g, 2, delta=2.0, backend="sampled",
                                    seed=DEFAULT_SEED, dso_delta=1.0, dso_C=3.0)
        for case, truth in zip(cases, truths):
            ans = sampled.query(case)
            total += 1
            if ans < truth:
                bad.append(("one-sided", case, ans, truth))
            elif ans != truth:
                mismatches += 1
                print(f"    sampled overestimate: F={case} answer={ans} "
                      f"truth={truth}")
    if mismatches > 0.001 * total:
        bad.append(("equality-rate", mismatches, total))
    report("C5 low-diameter oracle exact per backend contract", bad,
           time.perf_counter() - t0, 180,
           f"{total} sampled-backend queries, {mismatches} overestimates")


# -------------------------------------------------------------- criterion 6

def test_c6_gadget_roundtrips():
    t0 = time.perf_counter()
    bad = []

    def check(inst, oracle_decode):
        got = inst.decode(lambda F: brute_diam(inst.graph, F))
        if got != inst.payload:
            bad.append((inst.kind, "brute", got))
        got = inst.decode(oracle_decode)
        if got != inst.payload:
            bad.append((inst.kind, "oracle", got))

    for i in range(20):
        r = 2 + i % 3
        inst = gen_dense_lb(random_payload(r, seed=700 + i))
        ex = build_exact_fdo(inst.graph)
        check(inst, ex.query)

        inst = gen_sparse_lb(random_payload(3, seed=720 + i), 14 + i % 5)
        ex = build_exact_fdo(inst.graph)
        check(inst, ex.query)

        eps = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))[i % 3]
        inst = gen_weighted_lb(random_payload(2 + i % 2, seed=740 + i), eps)
        ex = build_exact_fdo(inst.graph)
        check(inst, ex.query)
        for q in inst.queries:
            if brute_diam(inst.graph, q.pairs) not in (q.one_answer,
                                                       q.zero_answer):
                bad.append(("weighted-lb", "value-pair", q.index))

        f, k = (2, 3) if i % 2 else (4, 2)
        rng = random.Random(760 + i)
        span = f // 2
        cand = [(a, b) for a in range(f * k)
                for b in range(a + 1, min(a + span + 1, f * k))]
        kept = {c for c in cand if rng.random() < 0.5}
        inst = gen_multi_lb(f, k, f * k + 3, kept)
        mo = build_multi_fdo(inst.graph, f)
        check(inst, mo.query)

        n = 6 + 2 * (i % 5)
        rng = random.Random(780 + i)
        inst = gen_multi_lb_f1(n, {j for j in range(n // 2 - 1)
                                   if rng.random() < 0.5})
        ex = build_exact_fdo(inst.graph)
        check(inst, ex.query)

    # every single-edge failure of the dense gadget keeps the diameter in {2,3}
    for r in (2, 3, 4):
        inst = gen_dense_lb(random_payload(r, seed=799))
        for u, v, _ in inst.graph.edges:
            if brute_diam(inst.graph, [(u, v)]) not in (2, 3):
                bad.append(("dense-lb", "2-or-3", (u, v)))

    report("C6 gadget payload round-trips", bad, time.perf_counter() - t0, 60,
           "20 payloads x 5 generators, brute and oracle decode")


# -------------------------------------------------------------- criterion 7

def test_c7_spanner_oracle():
    t0 = time.perf_counter()
    graphs = [er_undirected(800 + i, n, p)
              for i, (n, p) in enumerate([(14, 0.3), (20, 0.2), (26, 0.16),
                                          (32, 0.13), (40, 0.1), (36, 0.12)])]
    bad = []
    for g in graphs:
        base = diameter(g)
        truth = {eid: brute_diam(g, [(u, v)])
                 for eid, (u, v, _) in enumerate(g.edges)}
        exact = build_exact_fdo(g)
        for k in (1, 2, 3):
            o = build_spanner_fdo(g, k)
            keep = set(greedy_spanner(g, k))
            h = build_graph(g.n, False, [(u, v) for eid, (u, v, _)
                                         in enumerate(g.edges) if eid in keep])
            for s in range(g.n):
                dg = distances(g, s)
                dh = distances(h, s)
                if any(dh[t] > (2 * k - 1) * dg[t] for t in range(g.n)):
                    bad.append(("spanner-stretch", k, s))
            window = 1 + 2 * (k - 1) / base
            for eid, (u, v, _) in enumerate(g.edges):
                ans = o.query([(u, v)])
                t = truth[eid]
                if t == INF:
                    if ans != INF:
                        bad.append(("window", k, eid))
                elif not (t <= ans <= window * t + EPS):
                    bad.append(("window", k, eid, ans, t))
                if k == 1 and ans != exact.query([(u, v)]):
                    bad.append(("k1-equality", eid))
    report("C7 spanner-backed oracle", bad, time.perf_counter() - t0, 60,
           f"{len(graphs)} graphs, k in 1..3")


# -------------------------------------------------------------- criterion 8

def test_c8_sampled_distance_oracle():
    t0 = time.perf_counter()
    graphs = [er_undirected(900 + i, n, p)
              for i, (n, p) in enumerate([(12, 0.3), (14, 0.28), (16, 0.25),
                                          (18, 0.22), (20, 0.2), (22, 0.18),
                                          (24, 0.17), (26, 0.16), (28, 0.15),
                                          (30, 0.14)])]
    bad = []
    mism = 0
    total = 0
    surv_avg = []
    for gi, g in enumerate(graphs):
        d = build_sampled_fdso(g, f=2, delta=1.0, C=3.0, seed=DEFAULT_SEED)
        rng = random.Random(9000 + gi)
        survivors = 0
        for _ in range(500):
            s, t = rng.sample(range(g.n), 2)
            eids = rng.sample(range(g.m), rng.randint(0, 2))
            pairs = [endpoints(g, e) for e in eids]
            got = sampled_query(g, d, s, t, eids)
            val, path = got["dist"], got["path"]
            survivors += got["survivors"]
            truth = brute_replacement(g, s, t, pairs)
            total += 1
            if val < truth:
                bad.append(("undershoot", gi, s, t, eids))
                continue
            if val != truth:
                mism += 1
            if val != INF:
                if path[0] != s or path[-1] != t or len(path) - 1 != val:
                    bad.append(("path-shape", gi, s, t, eids))
                for a, b in zip(path, path[1:]):
                    eid = g.edge_id(a, b)
                    if eid is None or eid in eids:
                        bad.append(("path-edges", gi, s, t, eids))
        surv_avg.append(round(survivors / 500, 1))
    print(f"    survivor-set sizes per query (avg per graph): {surv_avg}")
    if mism > 0.01 * total:
        bad.append(("equality-rate", mism, total))
    report("C8 sampled distance oracle", bad, time.perf_counter() - t0, 120,
           f"{total} queries, {mism} overestimates, paths verified")


# -------------------------------------------------------------- criterion 9

def c9_builders():
    """(name, graph, build, failure budget) for the C9 oracles."""
    c4 = build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
    wg = gen_random("er-weighted", seed=501, n=18, p=0.22)
    dg = c2_graphs()[5]
    hub = c5_graphs()[0]
    yield "exact", c4, lambda: build_exact_fdo(c4), 1
    yield "ecc", wg, lambda: build_ecc_fdo(wg), 1
    yield "spanner", c4, lambda: build_spanner_fdo(c4, 2), 1
    yield "approx-det", dg, lambda: build_approx_fdo(dg, 1.0), 1
    yield ("approx-rand", dg,
           lambda: build_approx_fdo(dg, 1.0, pivot_mode="random", seed=11), 1)
    yield "multi", wg, lambda: build_multi_fdo(wg, 2), 2
    yield "lowdiam-exact", hub, lambda: build_lowdiam_fdo(hub, 2, delta=2.0), 2
    yield ("lowdiam-sampled", hub,
           lambda: build_lowdiam_fdo(hub, 2, delta=2.0, backend="sampled",
                                     seed=3, dso_delta=1.0), 2)


def test_c9_determinism_and_serialization():
    t0 = time.perf_counter()
    bad = []
    for name, g, make, f in c9_builders():
        first = dumps_oracle(make())
        second = dumps_oracle(make())
        if first != second:
            bad.append((name, "rebuild-bytes"))
        loaded = loads_oracle(first)
        if dumps_oracle(loaded) != first:
            bad.append((name, "roundtrip-bytes"))
        built = make()
        for pairs in enumerate_failures(g, f, cap=400, samples=60, seed=2):
            if built.query(pairs) != loaded.query(pairs):
                bad.append((name, "query-equivalence", pairs))
                break
    report("C9 determinism and serialization", bad, time.perf_counter() - t0,
           60, "8 oracle builds byte-stable, loaded == built")


# sha256 of each C9 oracle file: any later change to the file bytes shows
# here.  lowdiam was recorded when the four single-failure classes became
# one; the single-failure files when they became fmt=2, after the answer
# of every ordered vertex pair on each C9 graph, built and loaded, was
# checked equal to that of the fmt=1 files before; multi when it became
# fmt=2, after the query_details transcript of every failure set of C9's
# enumeration (and of every set of one or two edges) on its graph, built
# and loaded, was checked equal to that of the fmt=1 file; lowdiam when it
# became fmt=2 without dominated entries, after the answer of every set of
# at most two edges, built and loaded, was checked equal to that of the
# fmt=1 files.  Pruned, both lowdiam builds keep the same 44 entries.
# multi and lowdiam again when they became fmt=3 (E lines without ids, no
# tree rows), and approx when integral floats became '<int>.0' (its eps=1
# header is now eps=1.0), after the query_details transcript of every
# failure set of C9's enumeration and of every set of one or two edges,
# built and loaded, was checked equal by repr to that of the build before.
C9_DIGESTS = {
    "exact":
        "2346d4b0dc7dc1d451bab7a7ada4aa532b779a121cec96760f20daafb0615610",
    "ecc": "bd566eccc7cfeba45b465d2eee18fe175cf134e1577e3c2a285619865962af87",
    "spanner":
        "1c530adf38f98bdeecbe487f706eef215844facf0b31bfa475032fc934e2fae6",
    "approx-det":
        "55527878061f1ace24bd228205ede19f13da9a3c072a2d345c2231ac96b8bd50",
    "approx-rand":
        "5f84c3eaaaccb880ef0a87c8468162b3b0b42caa3f917ee5e1f8ae2a1a650bd3",
    "multi":
        "4f5e8c259c9bd09ac7af522d72a360b3125f0554b93763e87b4832aeb808111e",
    "lowdiam-exact":
        "95c0d713c2d22d4e0878ff39895aa5d05e89fd6b378f80921995e0e92ac01674",
    "lowdiam-sampled":
        "95c0d713c2d22d4e0878ff39895aa5d05e89fd6b378f80921995e0e92ac01674",
}


def test_c9_oracle_file_digests():
    got = {name: hashlib.sha256(dumps_oracle(make()).encode()).hexdigest()
           for name, _, make, _ in c9_builders()}
    assert got == C9_DIGESTS
