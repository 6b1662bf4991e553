"""Small-scope sweep of every oracle kind against brute force.

Every connected graph with n <= 4 on unit weights, every connected graph
with n = 3 on weights {0, 1, 2} and every strongly connected digraph with
n = 3 is built into each kind that admits it.  For every failure set of
at most f edges (exactly one for the single-failure kinds) the answer must
lie in [truth, w * truth], truth from ``brute_diam``: w = 1 for ``exact``,
exact-scan ``approx`` and exact ``lowdiam``, 2 for ``ecc``, 1 + 2/diam(G)
for ``spanner`` k=2, 1 + eps for pivot-mode ``approx`` (eps=1) and f + 2
for ``multi`` (f=2 and f=3); sampled ``lowdiam`` must never answer below
the truth.  Infinity must match infinity, except that sampled ``lowdiam``
may answer inf above a finite truth.  The loaded oracle must give the
built one's answer, by ``repr``.

On every connected graph with n = 5, ``multi`` f=3 in both modes must give
the same transcript from its cover table as from the scan alone.
"""
import itertools

from fdo import (INF, brute_diam, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_lowdiam_fdo, build_multi_fdo,
                 build_spanner_fdo, diameter, dumps_oracle, loads_oracle)
from fdo.graph import DIST_EPS

from conftest import every_connected_graph


def _approx(mode, eps, **kw):
    def build(g):
        o = build_approx_fdo(g, eps, **kw)
        assert o.params["mode"] == mode
        return o
    return build


# kind -> (builder, f, stretch w of a graph)
KINDS = {
    "exact": (build_exact_fdo, 1, lambda g: 1),
    "ecc": (build_ecc_fdo, 1, lambda g: 2),
    "spanner": (lambda g: build_spanner_fdo(g, 2), 1,
                lambda g: 1 + 2 / diameter(g)),
    "approx-scan": (_approx("exact-scan", 0.5), 1, lambda g: 1),
    # eps * diam(G) >= 1, so the slack is above the threshold 0
    "approx-pivot": (_approx("pivot", 1.0, scan_threshold=0), 1,
                     lambda g: 2),
    "multi-paper": (lambda g: build_multi_fdo(g, 2, "paper"), 2,
                    lambda g: 4),
    "multi-tight": (lambda g: build_multi_fdo(g, 2, "tight"), 2,
                    lambda g: 4),
    "multi3-paper": (lambda g: build_multi_fdo(g, 3, "paper"), 3,
                     lambda g: 5),
    "multi3-tight": (lambda g: build_multi_fdo(g, 3, "tight"), 3,
                     lambda g: 5),
    "lowdiam": (lambda g: build_lowdiam_fdo(g, 2, 6.0), 2, lambda g: 1),
    "lowdiam-sampled": (lambda g: build_lowdiam_fdo(
        g, 2, 6.0, backend="sampled", seed=1, dso_delta=1.0), 2,
        lambda g: INF),
}

UNIT = ["exact", "ecc", "spanner", "approx-scan", "approx-pivot",
        "multi-paper", "multi-tight", "multi3-paper", "multi3-tight",
        "lowdiam", "lowdiam-sampled"]
WEIGHTED = ["exact", "ecc", "multi-paper", "multi-tight", "multi3-paper",
            "multi3-tight"]
DIGRAPH = ["exact", "approx-scan", "approx-pivot"]


def in_window(answer, truth, w):
    if truth == INF:
        return answer == INF
    if w == INF:        # never below, inf included
        return answer >= truth - DIST_EPS
    return truth - DIST_EPS <= answer <= w * truth + DIST_EPS


def test_every_small_graph_every_kind():
    corpus = itertools.chain(
        ((g, UNIT) for n in range(1, 5) for g in every_connected_graph(n)),
        ((g, WEIGHTED) for g in every_connected_graph(3, (0, 1, 2))),
        ((g, DIGRAPH) for g in every_connected_graph(3, directed=True)))
    graphs = 0
    checks = dict.fromkeys(KINDS, 0)
    truths = {}
    for g, kinds in corpus:
        graphs += 1
        truths.clear()
        for kind in kinds:
            build, f, stretch = KINDS[kind]
            if f == 1 and g.m == 0:
                continue    # no edge to fail
            o = build(g)
            loaded = loads_oracle(dumps_oracle(o))
            w = stretch(g)
            sizes = [1] if f == 1 else range(f + 1)
            for size in sizes:
                for eids in itertools.combinations(range(g.m), size):
                    pairs = [g.edges[e][:2] for e in eids]
                    if eids not in truths:
                        truths[eids] = brute_diam(g, pairs)
                    answer = o.query(pairs)
                    assert repr(loaded.query(pairs)) == repr(answer)
                    assert in_window(answer, truths[eids], w), (
                        kind, g.edges, pairs, answer, truths[eids])
                    checks[kind] += 1
    # 44 unit graphs, 54 weighted and 18 digraphs, with 154, 135 and 78
    # edges to fail one at a time
    assert graphs == 116
    assert checks == {"exact": 367, "ecc": 289, "spanner": 154,
                      "approx-scan": 232, "approx-pivot": 232,
                      "multi-paper": 714, "multi-tight": 714,
                      "multi3-paper": 898, "multi3-tight": 898,
                      "lowdiam": 417, "lowdiam-sampled": 417}


def test_multi_cover_table_is_the_scan_on_every_n5_graph():
    # every failure set of at most three edges in both modes, whichever of
    # the table's outcomes (disjoint, nested, inf) or the scan answers it,
    # against force_general, key order included
    graphs = checks = 0
    for g in every_connected_graph(5):
        graphs += 1
        for mode in ("paper", "tight"):
            o = build_multi_fdo(g, 3, mode)
            for size in range(4):
                for eids in itertools.combinations(range(g.m), size):
                    pairs = [g.edges[e][:2] for e in eids]
                    assert (list(o.query_details(pairs).items())
                            == list(o.query_details(
                                pairs, force_general=True).items())), (
                                    mode, g.edges, pairs)
                    checks += 1
    assert (graphs, checks) == (728, 2 * 29598)
