"""Seeded inputs and oracle plans for the three benchmark workloads.

Everything here is generated by the benchmark itself from ``--seed``; the
program under test only ever sees the finished graphs and failure sets.
Graph sizes (n and m) are fixed per workload so that runs with different
seeds do the same amount of work; only the placement of edges varies.

* ``single-failure``: build-heavy.  Five single-failure oracle kinds on a
  small-diameter random graph (``approx`` takes its exact-scan path) and on
  a long-diameter chorded cycle (``approx`` takes its pivot path).  Queries
  are O(1) table lookups, so the build dominates.
* ``multi-stream``: query-heavy.  One ``multi`` f=4 oracle, whose build is
  trivial, answers failure sets that each cut a tree edge, so every query
  runs the reconnection path rather than the O(1) early exit.
* ``lowdiam-subsets``: the subset-table build of ``lowdiam`` f=2 with the
  exact enumeration backend and with the sampled-subgraph backend, queried
  with every failure set of size at most two.

A zero-weight probe graph is attached to ``single-failure``.  It exercises
the known zero-weight defect of ``exact``/``ecc``/``multi``; it is built and
audited in every run, but it is kept out of the timed work and out of the
workload's failure count (see ``perfbench/README.md``).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

import fdo

WORKLOADS = ("single-failure", "multi-stream", "lowdiam-subsets")

# Minimum length of each workload's query stream; the timed loop cycles it.
# 10k samples leave at least 100 beyond the 99th percentile.
STREAM_MIN = 10_000


@dataclass
class OracleSpec:
    label: str          # unique within the workload, e.g. "er/exact"
    graph: str          # key into Workload.graphs
    kind: str           # fdo oracle kind; selects the audit contract
    build: object       # zero-argument callable returning the oracle
    stretch: float      # contract: truth <= answer <= stretch * truth
    never_below: bool = False   # sampled backend: only answer >= truth
    cli_args: list | None = None  # `fdo build` arguments that rebuild it


@dataclass
class Workload:
    name: str
    graphs: dict                    # name -> fdo.Graph
    oracles: list                   # OracleSpec, in build order
    stream: list                    # (oracle index, tuple of vertex pairs)
    audit_idx: list                 # stream indices audited against brute force
    roundtrip_len: int              # stream prefix replayed on loaded oracles
    cli_oracle: int                 # oracle index replayed through the CLI
    cli_lines: int                  # lines fed to `fdo query`: the CLI
                                    # oracle's queries, cycled
    speed_graph: str                # graph whose size the speed reference takes
    probe: dict = field(default_factory=dict)  # name -> (graph, [OracleSpec])


# ---------------------------------------------------------------------------
# graph generators (benchmark-owned, so a change to fdo.instances cannot
# silently change the inputs)


def _gnm(n, m, rng):
    """Connected graph with exactly m edges: a random spanning tree (each
    vertex attaches to a random earlier one in a shuffled order) plus
    uniform extra pairs."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _chorded_cycle(n, chords, rng):
    """Road-network-like: a cycle plus span-2 chords, so the diameter stays
    long (about n/3)."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        i = rng.randrange(n)
        a, b = sorted((i, (i + 2) % n))
        edges.add((a, b))
    return sorted(edges)


def _hub(n, extra, rng):
    """Vertex 0 adjacent to all others (diameter <= 2) plus random pairs."""
    edges = {(0, v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(1, n), 2))
        edges.add((u, v))
    return sorted(edges)


def _nonedges(g, count, rng):
    out = set()
    while len(out) < count:
        u, v = rng.sample(range(g.n), 2)
        if g.edge_id(u, v) is None:
            out.add((min(u, v), max(u, v)))
    return sorted(out)


def _single_stream(g, rng):
    """Every edge as a one-pair failure set plus about 10% non-edge pairs."""
    sets = [((u, v),) for u, v, _ in g.edges]
    sets += [(p,) for p in _nonedges(g, max(1, g.m // 10), rng)]
    return sets


def _cycle_to(stream, length):
    """The stream repeated until it has at least ``length`` entries."""
    reps = max(1, -(-length // len(stream)))
    return (stream * reps)[:max(length, len(stream))]


# ---------------------------------------------------------------------------
# workloads

SIZES = {
    # name: sizes at full scale, then at the tiny scale used by the smoke test
    "single-failure": ({"er": (48, 180), "cycle": (96, 48), "zero": (40, 100)},
                       {"er": (10, 18), "cycle": (16, 6), "zero": (9, 16)}),
    "multi-stream": ({"n": 1000, "m": 3000, "sets": STREAM_MIN},
                     {"n": 30, "m": 80, "sets": 200}),
    "lowdiam-subsets": ({"n": 36, "extra": 60}, {"n": 10, "extra": 8}),
}


def make(name, seed, tiny=False):
    sizes = SIZES[name][1 if tiny else 0]
    return {"single-failure": _single_failure,
            "multi-stream": _multi_stream,
            "lowdiam-subsets": _lowdiam_subsets}[name](seed, sizes, tiny)


def _single_failure(seed, sizes, tiny):
    rng = random.Random(f"single-failure/{seed}")
    er = fdo.build_graph(sizes["er"][0], False, _gnm(*sizes["er"], rng))
    cyc = fdo.build_graph(sizes["cycle"][0], False,
                          _chorded_cycle(*sizes["cycle"], rng))
    graphs = {"er": er, "cycle": cyc}
    oracles = []
    for gname, g, eps in (("er", er, 0.5), ("cycle", cyc, 1.0)):
        base = fdo.brute_diam(g, [])
        oracles += [
            OracleSpec(f"{gname}/exact", gname, "exact",
                       lambda g=g: fdo.build_exact_fdo(g), 1.0,
                       cli_args=["--kind", "exact"]),
            OracleSpec(f"{gname}/ecc", gname, "ecc",
                       lambda g=g: fdo.build_ecc_fdo(g), 2.0),
            OracleSpec(f"{gname}/spanner", gname, "spanner",
                       lambda g=g: fdo.build_spanner_fdo(g, 2),
                       1.0 + 2 * (2 - 1) / base),
            OracleSpec(f"{gname}/approx", gname, "approx",
                       lambda g=g, eps=eps: fdo.build_approx_fdo(
                           g, eps, pivot_mode="deterministic"), 1.0 + eps),
            OracleSpec(f"{gname}/multi", gname, "multi",
                       lambda g=g: fdo.build_multi_fdo(g, 1), 3.0),
        ]
    sets = {name: _single_stream(g, rng) for name, g in graphs.items()}
    base_stream = [(i, s) for i, spec in enumerate(oracles)
                   for s in sets[spec.graph]]
    rng.shuffle(base_stream)
    stream = _cycle_to(base_stream, 0 if tiny else STREAM_MIN)

    zero = fdo.build_graph(sizes["zero"][0], False,
                           [(u, v, rng.randint(0, 5))
                            for u, v in _gnm(*sizes["zero"], rng)])
    probe = [
        OracleSpec("zero/exact", "zero", "exact",
                   lambda: fdo.build_exact_fdo(zero), 1.0),
        OracleSpec("zero/ecc", "zero", "ecc",
                   lambda: fdo.build_ecc_fdo(zero), 2.0),
        OracleSpec("zero/multi", "zero", "multi",
                   lambda: fdo.build_multi_fdo(zero, 1), 3.0),
    ]
    # Auditing one whole pass costs one brute force per distinct failure
    # set, because the five oracles of a graph share their truths.
    return Workload("single-failure", graphs, oracles, stream,
                    audit_idx=list(range(len(base_stream))),
                    roundtrip_len=len(base_stream),
                    cli_oracle=0, cli_lines=200 if tiny else STREAM_MIN,
                    speed_graph="cycle", probe={"zero_weight": (zero, probe)})


def _multi_stream(seed, sizes, tiny):
    rng = random.Random(f"multi-stream/{seed}")
    n, m = sizes["n"], sizes["m"]
    edges = _gnm(n, m, rng)
    g = fdo.build_graph(n, False, edges)
    spec = OracleSpec("er/multi4", "er", "multi",
                      lambda: fdo.build_multi_fdo(g, 4), 6.0,
                      cli_args=["--kind", "multi", "--f", "4"])
    tree = _bfs_tree_edges(n, edges, 0)
    stream = []
    for _ in range(sizes["sets"]):
        first = rng.choice(tree)
        others = set()
        while len(others) < 3:
            e = rng.randrange(m)
            if e != first:
                others.add(e)
        stream.append((0, tuple(edges[e] for e in [first, *sorted(others)])))
    return Workload("multi-stream", {"er": g}, [spec], stream,
                    audit_idx=list(range(2 if tiny else 4)),
                    roundtrip_len=min(len(stream), 1000),
                    cli_oracle=0, cli_lines=min(len(stream), 1000),
                    speed_graph="er")


def _bfs_tree_edges(n, edges, source):
    """Indices into ``edges`` of the BFS tree from source that takes the
    smallest-id parent: the tree the multi oracle stores on unweighted
    graphs.  Computed here so the inputs do not depend on the program."""
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    dist = [math.inf] * n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in adj[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return sorted(min((u, eid) for u, eid in adj[v] if dist[u] == dist[v] - 1)[1]
                  for v in range(n) if v != source)


def _lowdiam_subsets(seed, sizes, tiny):
    rng = random.Random(f"lowdiam-subsets/{seed}")
    n = sizes["n"]
    g = fdo.build_graph(n, False, _hub(n, sizes["extra"], rng))
    oracles = [
        OracleSpec("hub/lowdiam-exact", "hub", "lowdiam",
                   lambda: fdo.build_lowdiam_fdo(g, 2, 2.0, backend="exact"),
                   1.0, cli_args=["--kind", "lowdiam", "--f", "2",
                                  "--delta", "2", "--backend", "exact"]),
        OracleSpec("hub/lowdiam-sampled", "hub", "lowdiam",
                   lambda: fdo.build_lowdiam_fdo(g, 2, 2.0, backend="sampled",
                                                 seed=seed, dso_delta=1.0),
                   math.inf, never_below=True),
    ]
    pairs = [(u, v) for u, v, _ in g.edges]
    sets = [(p,) for p in pairs] + list(combinations(pairs, 2))
    base_stream = [(i, s) for i in range(len(oracles)) for s in sets]
    stream = _cycle_to(base_stream, 0 if tiny else STREAM_MIN)
    step = 1 if tiny else 10
    return Workload("lowdiam-subsets", {"hub": g}, oracles, stream,
                    audit_idx=list(range(0, len(base_stream), step)),
                    roundtrip_len=len(base_stream),
                    cli_oracle=0, cli_lines=200 if tiny else STREAM_MIN,
                    speed_graph="hub")
