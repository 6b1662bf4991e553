import os
import subprocess
import sys
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

import fdo
from fdo import build_graph
from fdo.graph import lane_bfs, lane_path


@pytest.fixture
def c4():
    return build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def p4():
    return build_graph(4, False, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def k4():
    return build_graph(4, False, [(u, v) for u in range(4)
                                  for v in range(u + 1, 4)])


@pytest.fixture
def tri():
    return build_graph(3, False, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def star5():
    # center 0, leaves 1..4
    return build_graph(5, False, [(0, i) for i in range(1, 5)])


@pytest.fixture
def dicycle3():
    return build_graph(3, True, [(0, 1), (1, 2), (2, 0)])


# a graph in two parts, and a digraph whose vertex 0 reaches every vertex
# but is reached by none: the out-tree from 0 misses a vertex in the first,
# the in-tree to 0 in the second
NOT_STRONGLY_CONNECTED = [
    build_graph(4, False, [(0, 1), (2, 3)]),
    build_graph(3, True, [(0, 1), (1, 2), (0, 2)]),
]


def extract_path(tree, endpoint, toward_root=False):
    """Tree path between source/root and ``endpoint`` as (vertices,
    edge_ids), or None when the endpoint is unreachable: the reference for
    the lane walk ``graph.lane_path``.  An ``sssp`` tree gives the
    source->endpoint order, an ``in_tree`` tree (``toward_root``) the
    endpoint->root order."""
    if tree.dist[endpoint] == fdo.INF:
        return None
    verts = [endpoint]
    eids = []
    v = endpoint
    while tree.parent[v] is not None:
        v, eid = tree.parent[v]
        verts.append(v)
        eids.append(eid)
    if not toward_root:
        verts.reverse()
        eids.reverse()
    return verts, eids


def endpoints(g, eid):
    """The (u, v) of edge ``eid``, as the graph stores it."""
    u, v, _ = g.edges[eid]
    return u, v


def weight(g, eid):
    return g.edges[eid][2]


# Runs one fdo parser in a child capped at 512 MiB of address space, so a
# parser that loops or allocates without bound fails the test instead of
# exhausting the machine.
CAPPED_PARSE = """
import resource, sys
cap = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import fdo
try:
    getattr(fdo, sys.argv[1])(sys.stdin.read())
except fdo.GraphError as exc:
    print("GraphError:", exc)
else:
    print("loaded")
"""


def parse_capped(parser, text):
    """``fdo.<parser>(text)`` in a capped child: "loaded" or the
    "GraphError: ..." line it raised."""
    src = os.path.dirname(os.path.dirname(fdo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CAPPED_PARSE, parser],
                          input=text, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def small_graph_corpus():
    """Connected graphs with n <= 12 for exhaustive sweeps."""
    from fdo import gen_random
    graphs = [
        build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        build_graph(4, False, [(0, 1), (1, 2), (2, 3)]),
        build_graph(5, False, [(0, i) for i in range(1, 5)]),
        build_graph(6, False, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                               (5, 0), (0, 3)]),
        build_graph(3, True, [(0, 1), (1, 2), (2, 0)]),
        build_graph(5, True, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                              (4, 2), (4, 0)]),
        gen_random("er-undirected", seed=11, n=10, p=0.35),
        gen_random("er-undirected", seed=12, n=12, p=0.3),
        gen_random("er-strongly-connected-digraph", seed=13, n=9, p=0.3),
        gen_random("er-weighted", seed=14, n=10, p=0.35),
    ]
    return graphs


def zero_weight_graphs():
    """Graphs whose zero-weight edges put vertices at equal distance."""
    return [
        build_graph(3, False, [(0, 1, 0), (1, 2, 1), (0, 2, 5)]),
        # from 0, vertex 1 has a single predecessor: 2, over a zero weight
        build_graph(3, False, [(0, 2, 1), (2, 1, 0), (0, 1, 5)]),
        build_graph(5, False, [(0, 1, 1), (1, 2, 0), (2, 3, 0), (3, 4, 1),
                               (4, 0, 2), (1, 3, 0)]),
        build_graph(4, True, [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 1),
                              (3, 0, 0)]),
    ]


@st.composite
def connected_graphs(draw, max_n=12):
    """Connected unit undirected graph: a random spanning tree plus random
    extra pairs, in random edge order."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    pairs = [(order[draw(st.integers(0, i - 1))], order[i])
             for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    seen = {frozenset(p) for p in pairs}
    for u, v in extra:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v))
    return build_graph(n, False, draw(st.permutations(pairs)))


def every_connected_graph(n, weights=None, directed=False):
    """Every connected (strongly connected, if ``directed``) labelled graph
    on n vertices, edges in lexicographic order, with unit weights or with
    each weight drawn from ``weights``."""
    pairs = list((permutations if directed else combinations)(range(n), 2))
    for mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = build_graph(n, directed, chosen)
        if not fdo.is_connected(g):
            continue
        if weights is None:
            yield g
            continue
        for ws in product(weights, repeat=len(chosen)):
            yield build_graph(n, directed, [(u, v, w) for (u, v), w
                                            in zip(chosen, ws)])


# (g, dso, {source: lane_bfs levels}) of the last pair sampled_query read,
# matched by identity; holding g and dso keeps a new object from taking
# over the identity of a freed one
_sampled_levels = (None, None, {})


def sampled_query(g, dso, s, t, failed_eids):
    """``{"dist", "path", "survivors"}`` read from the sampled f-DSO
    ``dso`` built on g: the minimum s-t distance over the subgraphs
    avoiding the failed edges with a realizing vertex path (inf and None
    when none connects), and how many subgraphs avoid them.  Among
    subgraphs at the minimum the smallest index reports.  The lane BFS
    from s is run once per source for the last (g, dso) pair asked."""
    global _sampled_levels
    every = (1 << dso.k) - 1
    surv = every
    for eid in failed_eids:
        surv &= ~dso.alive[eid]
    dist, path = fdo.INF, None
    cached_g, cached_dso, by_source = _sampled_levels
    if cached_g is not g or cached_dso is not dso:
        by_source = {}
        _sampled_levels = (g, dso, by_source)
    levels = by_source.get(s)
    if levels is None:
        levels = by_source[s] = lane_bfs(g._out_nbrs, dso.alive,
                                         {s: every}, every)[0]
    for d, level in enumerate(levels):
        hit = level.get(t, 0) & surv
        if hit:
            dist = d
            path = lane_path(levels, g._out_nbrs, dso.alive, t, d,
                             hit & -hit)[0][::-1]
            break
    return {"dist": dist, "path": path, "survivors": surv.bit_count()}


def reference_lowdiam_table(g, f, dso):
    """The per-pair construction of the lowdiam subset table: for each pair
    s < t a depth-first walk of its subset tree, one DSO call per node.
    ``dso.query(s, t, F)`` gives (dist, vertex path or None) and
    ``dso.distance(s, t, F)`` the distance alone, asked at depth f.
    Returns (table, build_stats)."""
    table = {}
    stats = {"nodes": 0, "max_fanout": 0}
    for s in range(g.n):
        for t in range(s + 1, g.n):
            stack = [()]
            visited = {()}
            while stack:
                key = stack.pop()
                stats["nodes"] += 1
                if len(key) == f:
                    dist, path = dso.distance(s, t, key), None
                else:
                    dist, path = dso.query(s, t, key)
                if key not in table or dist > table[key]:
                    table[key] = dist
                if path is None:
                    continue
                path_eids = [g.edge_id(a, b) for a, b in zip(path, path[1:])]
                stats["max_fanout"] = max(stats["max_fanout"], len(path_eids))
                for eid in path_eids:
                    child = tuple(sorted(key + (eid,)))
                    if child not in visited:
                        visited.add(child)
                        stack.append(child)
    return table, stats


def check_pruned_oracle(g, f, oracle, table):
    """Check a lowdiam oracle against ``table``, the unpruned subset table of
    its build (see reference_lowdiam_table).  Built and loaded, the oracle
    answers every failure set of at most f edges with the maximum over the
    entries of ``table`` at the subsets of its key, and it keeps exactly the
    entries strictly above the largest entry at a proper subset of their
    key, which is the largest answer of a proper subset.  From f=3 on, the
    table must lack a one-smaller subset of some key, the case that the
    pruning pass computes on demand."""
    def top(key, sizes):
        return max((table[sub] for size in sizes
                    for sub in combinations(key, size) if sub in table),
                   default=-1)

    loaded = fdo.loads_oracle(fdo.dumps_oracle(oracle))
    for size in range(f + 1):
        for key in combinations(range(g.m), size):
            pairs = [g.edges[eid][:2] for eid in key]
            want = top(key, range(size + 1))
            assert oracle.query(pairs) == loaded.query(pairs) == want, key
    kept = {key: val for key, val in table.items()
            if val > top(key, range(len(key)))}
    assert oracle.table == kept
    assert f < 3 or any(sub not in table for key in table if key
                        for sub in combinations(key, len(key) - 1))
