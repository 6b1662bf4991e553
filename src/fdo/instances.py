"""Instance generators: payload-carrying gadget graphs and random corpora.

Each gadget encodes a binary payload into fault-tolerant diameters and
carries the decode queries that read it back: failing one specific pair
makes the diameter land on one of two values (or lose finiteness) depending
on the payload bit.  Decoding through an oracle instead of brute force is
exactly the round-trip the space arguments rest on, so the tests drive
both.  The random generators are pure functions of (params, seed).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import (Graph, GraphError, INF, build_graph, dist_eq, fmt_dist,
                    is_connected)


@dataclass(frozen=True)
class DecodeQuery:
    """One payload bit: fail ``pairs``; the answer equals ``one_answer``
    when the bit is 1 and ``zero_answer`` when it is 0.  one_answer None
    means 'any finite value'."""
    index: tuple
    pairs: tuple
    one_answer: object
    zero_answer: object

    def read_bit(self, answer) -> int:
        if self.zero_answer == INF:
            return 0 if answer == INF else 1
        if dist_eq(answer, self.zero_answer):
            return 0
        if self.one_answer is None or dist_eq(answer, self.one_answer):
            return 1
        raise GraphError(
            f"decode answer {answer} matches neither "
            f"{self.one_answer} nor {self.zero_answer} at {self.index}")


@dataclass
class GadgetInstance:
    kind: str
    graph: Graph
    payload: object
    queries: list
    params: dict

    def decode(self, answer_fn):
        """Recover the payload by running every decode query through
        ``answer_fn`` (a callable from failure pairs to a distance)."""
        bits = {q.index: q.read_bit(answer_fn(q.pairs)) for q in self.queries}
        if isinstance(self.payload, frozenset):
            return frozenset(idx for idx, b in bits.items() if b)
        r = len(self.payload)
        c = len(self.payload[0])
        return tuple(tuple(bits[(i, j)] for j in range(c)) for i in range(r))


def random_payload(r, seed, c=None):
    rng = random.Random(seed)
    c = r if c is None else c
    return tuple(tuple(rng.randint(0, 1) for _ in range(c)) for _ in range(r))


# ---------------------------------------------------------------------------
# single-failure gadgets: four vertex blocks A, B, C, D (layout A first,
# then B, C, D, then any extra block), bit (i,j) probed by failing {b_i,d_j}.


def _core_edges(r, X):
    edges = []
    a = lambda i: i
    b = lambda i: r + i
    c = lambda i: 2 * r + i
    d = lambda i: 3 * r + i
    for off in (0, r, 2 * r, 3 * r):          # cliques on each block
        for i in range(r):
            for j in range(i + 1, r):
                edges.append((off + i, off + j, "clique"))
    for i in range(r):                        # triangles a_i, b_i, c_i
        edges.append((a(i), b(i), "match"))
        edges.append((b(i), c(i), "match"))
        edges.append((a(i), c(i), "match"))
    for i in range(r):                        # biclique between B and D
        for j in range(r):
            edges.append((b(i), d(j), "clique"))
    for i in range(r):                        # payload edges C -> D
        for j in range(r):
            if X[i][j]:
                edges.append((c(i), d(j), "clique"))
    return edges


def _bit_queries(r, one, zero):
    qs = []
    for i in range(r):
        for j in range(r):
            qs.append(DecodeQuery((i, j), (((r + i), (3 * r + j)),), one, zero))
    return qs


def gen_dense_lb(X) -> GadgetInstance:
    """Dense gadget on 4r vertices; diameter 2 always, and failing
    {b_i, d_j} lifts it to 3 exactly when bit (i,j) is 0."""
    r = len(X)
    if r < 2:
        raise GraphError(f"payload side must be >= 2, got {r}")
    edges = [(u, v) for u, v, _ in _core_edges(r, X)]
    g = build_graph(4 * r, False, edges)
    return GadgetInstance("dense-lb", g, _as_matrix(X), _bit_queries(r, 2, 3),
                          {"r": r})


def gen_sparse_lb(X, n) -> GadgetInstance:
    """Sparse variant: same four blocks plus n-4r degree-3 vertices hanging
    off a_1, b_1, c_1.  Same decode values."""
    r = len(X)
    if r < 2:
        raise GraphError(f"payload side must be >= 2, got {r}")
    if n < 4 * r + 1:
        raise GraphError(f"need n >= 4r+1 = {4 * r + 1}, got {n}")
    edges = [(u, v) for u, v, _ in _core_edges(r, X)]
    for extra in range(4 * r, n):
        edges += [(extra, 0), (extra, r), (extra, 2 * r)]
    g = build_graph(n, False, edges)
    return GadgetInstance("sparse-lb", g, _as_matrix(X), _bit_queries(r, 2, 3),
                          {"r": r, "n": n})


def gen_weighted_lb(X, eps: Fraction, n=None) -> GadgetInstance:
    """Weighted sparse variant: matching edges and extra-vertex edges weigh
    eps, everything else 2; failing {b_i, d_j} keeps the diameter at 2+eps
    when bit (i,j) is 1 and lifts it to 4+eps otherwise.

    Weights are scaled by eps's denominator so the instance stays integral.
    """
    eps = Fraction(eps)
    if not 0 < eps < 2:
        raise GraphError(f"need 0 < eps < 2, got {eps}")
    r = len(X)
    if r < 2:
        raise GraphError(f"payload side must be >= 2, got {r}")
    if n is None:
        n = 4 * r + 2
    if n < 4 * r:
        raise GraphError(f"need n >= 4r = {4 * r}, got {n}")
    den, num = eps.denominator, eps.numerator
    edges = [(u, v, num if tag == "match" else 2 * den)
             for u, v, tag in _core_edges(r, X)]
    for extra in range(4 * r, n):
        edges += [(extra, 0, num), (extra, r, num), (extra, 2 * r, num)]
    g = build_graph(n, False, edges)
    one = 2 * den + num
    zero = 4 * den + num
    return GadgetInstance("weighted-lb", g, _as_matrix(X),
                          _bit_queries(r, one, zero),
                          {"r": r, "n": n, "eps": eps, "scale": den})


def _as_matrix(X):
    return tuple(tuple(int(b) for b in row) for row in X)


# ---------------------------------------------------------------------------
# multi-failure gadgets


def gen_multi_lb(f: int, k: int, n: int, kept) -> GadgetInstance:
    """Star centered at the last vertex over v_0..v_{fk-1} plus auxiliaries,
    with an optional edge between v_i and v_j whenever |i-j| <= f/2.
    ``kept`` is the retained subset of those index pairs, or a
    ``random.Random`` that keeps each on a fair coin, in (i, j) order,
    drawn after the parameters are checked.

    The decode query for pair (i,j) fails every other near edge at v_i plus
    v_i's star edge (padded with guaranteed non-edges to exactly f pairs);
    the graph stays connected iff the probed edge is present.
    """
    if f < 2 or f % 2:
        raise GraphError(f"failure budget must be even and >= 2, got {f}")
    if k < 1 or f * k + 1 > n:
        raise GraphError(f"need f*k+1 <= n, got f={f}, k={k}, n={n}")
    span = f // 2
    count = f * k
    center = n - 1
    candidates = [(i, j) for i in range(count)
                  for j in range(i + 1, min(i + span + 1, count))]
    if isinstance(kept, random.Random):
        kept = [pair for pair in candidates if kept.random() < 0.5]
    kept = frozenset((min(i, j), max(i, j)) for i, j in kept)
    candidate_set = set(candidates)
    for pair in kept:
        if pair not in candidate_set:
            raise GraphError(f"kept pair {pair} is not a candidate edge")
    edges = [(i, center) for i in range(n - 1)]
    edges += sorted(kept)
    g = build_graph(n, False, edges)
    queries = []
    for i, j in candidates:
        near = [(i, x) for x in range(max(0, i - span), min(count, i + span + 1))
                if x != i and x != j]
        pairs = near + [(i, center)]
        pairs += _pad_nonedges(f - len(pairs), i, j, span, count, n, pairs)
        queries.append(DecodeQuery((i, j), tuple(pairs), None, INF))
    return GadgetInstance("multi-lb", g, kept, queries,
                          {"f": f, "k": k, "n": n})


def _pad_nonedges(need, i, j, span, count, n, used):
    """Guaranteed non-edges of the gadget: far v-pairs, then pairs among the
    star leaves beyond the v range (auxiliaries are only adjacent to the
    center)."""
    if need <= 0:
        return []
    used = set(used)
    pad = []
    for x in range(count):
        if need == len(pad):
            return pad
        if abs(x - i) > span and (min(i, x), max(i, x)) not in used:
            pad.append((min(i, x), max(i, x)))
            used.add(pad[-1])
    for a in range(count, n - 1):
        for bvert in range(a + 1, n - 1):
            if need == len(pad):
                return pad
            pad.append((a, bvert))
    if len(pad) < need:
        raise GraphError("instance too small to pad decode queries to size f")
    return pad


def gen_multi_lb_f1(n: int, kept_idx) -> GadgetInstance:
    """Two parallel paths on n/2 vertices each, rung-matched; the first path
    and the matching are always present, the second path keeps only the
    chosen edges.  Failing the i-th first-path edge disconnects the graph
    iff the i-th second-path edge is absent."""
    if n < 4 or n % 2:
        raise GraphError(f"need an even n >= 4, got {n}")
    half = n // 2
    kept_idx = frozenset(kept_idx)
    for i in kept_idx:
        if not 0 <= i < half - 1:
            raise GraphError(f"kept index {i} out of range 0..{half - 2}")
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(i, half + i) for i in range(half)]
    edges += [(half + i, half + i + 1) for i in sorted(kept_idx)]
    g = build_graph(n, False, edges)
    queries = [DecodeQuery(i, ((i, i + 1),), None, INF)
               for i in range(half - 1)]
    return GadgetInstance("multi-lb-f1", g, kept_idx, queries, {"n": n})


# ---------------------------------------------------------------------------
# random corpora


def gen_random(kind: str, seed: int, n=16, p=0.25, weight_max=10,
               retry_cap=200) -> Graph:
    """Seeded random graphs; connectivity enforced by rejection sampling.

    Kinds: er-undirected, er-strongly-connected-digraph, er-weighted,
    low-diam-hub (an all-adjacent hub caps the diameter).
    """
    for attempt in range(retry_cap):
        rng = random.Random(seed * 1_000_003 + attempt)
        if kind == "er-undirected":
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            directed = False
        elif kind == "er-strongly-connected-digraph":
            edges = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < p]
            directed = True
        elif kind == "er-weighted":
            edges = [(u, v, rng.randint(1, weight_max))
                     for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            directed = False
        elif kind == "low-diam-hub":
            edges = [(0, v) for v in range(1, n)]
            edges += [(u, v) for u in range(1, n) for v in range(u + 1, n)
                      if rng.random() < p]
            directed = False
        else:
            raise GraphError(f"unknown random kind {kind!r}")
        g = build_graph(n, directed, edges)
        if is_connected(g):
            return g
    raise GraphError(f"no connected {kind} sample within {retry_cap} retries "
                     f"(n={n}, p={p}, seed={seed})")


# ---------------------------------------------------------------------------
# sidecar manifest


def format_manifest(inst: GadgetInstance) -> str:
    """Payload and decode queries as line-delimited text (see README)."""
    params = " ".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
    lines = [f"GADGET {inst.kind} {params}".rstrip()]
    if isinstance(inst.payload, frozenset):
        body = " ".join(",".join(map(str, idx)) if isinstance(idx, tuple)
                        else str(idx) for idx in sorted(inst.payload))
        lines.append(f"PAYLOAD set {body}".rstrip())
    else:
        bits = "".join(str(b) for row in inst.payload for b in row)
        lines.append(f"PAYLOAD matrix {bits}")
    for q in inst.queries:
        idx = (",".join(map(str, q.index)) if isinstance(q.index, tuple)
               else str(q.index))
        pairs = " ".join(f"{u}-{v}" for u, v in q.pairs)
        one = "finite" if q.one_answer is None else fmt_dist(q.one_answer)
        zero = fmt_dist(q.zero_answer)
        lines.append(f"Q {idx} {pairs} one={one} zero={zero}")
    return "\n".join(lines) + "\n"
