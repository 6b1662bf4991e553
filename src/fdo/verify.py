"""Ground-truth brute force and the stretch-audit harness.

The brute-force routines recompute everything from scratch per query and
are the measurement instrument for every oracle test: an audit replays a
stream of failure sets against an oracle and checks each answer against
truth <= answer <= stretch * truth (infinity must match infinity exactly).
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

from .graph import DIST_EPS, Graph, GraphError, INF, distances, resolve_pairs


def brute_diam(g: Graph, pairs):
    """Exact diameter of g minus the given vertex pairs (non-edges ignored),
    via n fresh shortest-path runs: a scalar BFS or Dijkstra row per
    source, sharing no code with the bit-lane ``graph.diameter``."""
    eids, _ = resolve_pairs(pairs, g.n, g.directed, g.edge_lookup)
    excluded = frozenset(eids)
    best = 0
    for s in range(g.n):
        best = max(best, max(distances(g, s, excluded)))
        if best == INF:
            break
    return best


def brute_replacement(g: Graph, s, t, pairs):
    """Exact replacement distance d(s,t,F) via one shortest-path run."""
    eids, _ = resolve_pairs(pairs, g.n, g.directed, g.edge_lookup)
    return distances(g, s, frozenset(eids))[t]


@dataclass
class AuditRecord:
    failures: tuple
    answer: float
    truth: float
    ratio: float
    ok: bool


@dataclass
class AuditReport:
    oracle_kind: str
    stretch: float
    queries: int = 0
    violations: int = 0
    max_ratio: float = 0.0
    wall_s: float = 0.0
    records: list = field(default_factory=list)


def audit(oracle, g: Graph, failure_sets, stretch=1.0) -> AuditReport:
    """Compare the oracle against brute force on every failure set.

    A query is a violation when answer < truth, answer > stretch * truth,
    or exactly one side is infinite.  Refused with :class:`GraphError`: a
    stretch that is not finite or is below 1, and an oracle whose n, m or
    direction differs from g's, or whose edges do (``multi`` and
    ``lowdiam``, which keep them; a single-failure oracle keeps no edges,
    so a graph of equal n, m and direction passes).
    """
    if not 1 <= stretch < INF:      # nan fails too
        raise GraphError(f"stretch must be finite and >= 1, got {stretch}")
    shape = (oracle.n, oracle.m, oracle.directed)
    if shape != (g.n, g.m, g.directed):
        raise GraphError(f"the oracle was built on another graph: n, m, "
                         f"directed = {shape}, the graph's "
                         f"{(g.n, g.m, g.directed)}")
    if getattr(oracle, "edges", g.edges) != g.edges:
        raise GraphError("the oracle was built on another graph: its edges "
                         "differ from the graph's")
    report = AuditReport(getattr(oracle, "kind", "?"), stretch)
    t0 = time.perf_counter()
    for pairs in failure_sets:
        answer = oracle.query(pairs)
        truth = brute_diam(g, pairs)
        if truth == INF or answer == INF:
            ok = truth == answer
            ratio = 1.0 if ok else INF
        elif truth == 0:
            ok = answer == 0
            ratio = 1.0 if ok else INF
        else:
            ok = (truth - DIST_EPS <= answer <= stretch * truth + DIST_EPS)
            ratio = answer / truth
        report.queries += 1
        if not ok:
            report.violations += 1
        if ratio > report.max_ratio:
            report.max_ratio = ratio
        report.records.append(AuditRecord(tuple(pairs), answer, truth, ratio,
                                          ok))
    report.wall_s = time.perf_counter() - t0
    return report


def enumerate_failures(g: Graph, f: int, cap=100_000, samples=2000, seed=0):
    """Deterministic failure-set stream over the graph's real edges.

    Exhaustive over all subsets of size 1..f while C(m,f) stays within
    ``cap``; otherwise ``samples`` seeded uniform draws (size uniform in
    1..f, then a uniform edge subset of that size).  ``f`` or ``samples``
    below 1, which would check nothing, raises :class:`GraphError` at the
    call, not when the stream is read.
    """
    if f < 1:
        raise GraphError(f"failure budget must be >= 1, got {f}")
    if samples < 1:
        raise GraphError(f"sample count must be >= 1, got {samples}")
    pairs = [(u, v) for u, v, _ in g.edges]
    m = len(pairs)
    if comb(m, f) <= cap:
        return chain.from_iterable(combinations(pairs, size)
                                   for size in range(1, f + 1))
    rng = random.Random(seed)
    sizes = (rng.randint(1, f) for _ in range(samples))
    return (tuple(pairs[i] for i in sorted(rng.sample(range(m), size)))
            for size in sizes)
