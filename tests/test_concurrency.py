"""Concurrent queries against one oracle.

Every oracle kind documents itself as immutable after the build and safe
for concurrent queries, and the sampled distance oracle behind
``lowdiam`` as safe for concurrent reads.  Four threads run one shuffled
query stream, error queries included, on one oracle, built or loaded
from its file.  Each thread's transcript must equal a serial run's, and
a deep snapshot of the oracle (its slots, its ``__dict__`` and every
container they hold) must be equal before and after.
"""
import random
import sys
import threading
from array import array

import pytest

from fdo import (GraphError, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_lowdiam_fdo, build_multi_fdo,
                 build_sampled_fdso, build_spanner_fdo, dumps_oracle,
                 gen_random, loads_oracle)

from conftest import sampled_query

THREADS = 4

GRAPH = gen_random("low-diam-hub", 2, n=16, p=0.15)

BUILDS = {
    "exact": lambda g: build_exact_fdo(g),
    "ecc": lambda g: build_ecc_fdo(g),
    "spanner": lambda g: build_spanner_fdo(g, 2),
    "approx": lambda g: build_approx_fdo(g, 1.0, scan_threshold=0),
    "multi": lambda g: build_multi_fdo(g, 2),
    "lowdiam": lambda g: build_lowdiam_fdo(g, 2, 2.0),
}


def snapshot(x, seen=None):
    """Plain nested values that are equal for two objects iff they hold
    equal state, down through attributes and containers; an object met
    again is recorded by the order in which it was first met."""
    if x is None or isinstance(x, (bool, int, float, str, bytes)):
        return x
    seen = {} if seen is None else seen
    if id(x) in seen:
        return ("seen", seen[id(x)])
    seen[id(x)] = len(seen)
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [snapshot(v, seen) for v in x])
    if isinstance(x, (set, frozenset)):
        return (type(x).__name__, sorted((snapshot(v, seen) for v in x),
                                         key=repr))
    if isinstance(x, dict):
        return ("dict", [(snapshot(k, seen), snapshot(v, seen))
                         for k, v in x.items()])
    if isinstance(x, array):
        return ("array", x.typecode, x.tobytes())
    state = {}
    for cls in type(x).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(x, name):
                state[name] = snapshot(getattr(x, name), seen)
    if hasattr(x, "__dict__"):
        for name, value in vars(x).items():
            state[name] = snapshot(value, seen)
    return (type(x).__name__, state) if state else ("repr", repr(x))


def failure_stream(g, f, rng):
    """Failure sets of 0..f pairs (edges both ways, non-edges) and sets
    every kind refuses: too many pairs, malformed entries."""
    edges = [(u, v) for u, v, _ in g.edges]
    nonedges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if g.edge_id(u, v) is None][:10]
    one = [[e] for e in edges] + [[e[::-1]] for e in edges]
    one += [[p] for p in nonedges]
    stream = list(one)
    if f >= 2:
        stream += [rng.sample(edges, 2) for _ in range(60)]
        stream += [[rng.choice(edges), rng.choice(nonedges)]
                   for _ in range(20)]
    stream += [[], rng.sample(edges, f + 1), [(0, g.n)], [(2, 2)], [None],
               [(0.0, 1)], [(1, 2, 3)], [edges[0], edges[0][::-1]]]
    stream *= 8
    rng.shuffle(stream)
    return stream


def sampled_stream(g, f, rng):
    """(s, t, failed edge ids) triples, some with more than f edges."""
    stream = []
    for _ in range(1000):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        stream.append((s, t, rng.sample(range(g.m), rng.randint(0, f + 1))))
    return stream


def transcript(ask, stream):
    out = []
    for item in stream:
        try:
            out.append(("ok", ask(item)))
        except GraphError as exc:
            out.append(("error", str(exc)))
    return out


def run_concurrently(ask, stream):
    serial = transcript(ask, stream)
    barrier = threading.Barrier(THREADS)
    results = [None] * THREADS

    def worker(i):
        barrier.wait(timeout=60)
        results[i] = transcript(ask, stream)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return serial, results


@pytest.mark.parametrize("origin", ["built", "loaded"])
@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_concurrent_queries_match_serial_and_mutate_nothing(kind, origin):
    oracle = BUILDS[kind](GRAPH)
    if origin == "loaded":
        oracle = loads_oracle(dumps_oracle(oracle))
    stream = failure_stream(GRAPH, getattr(oracle, "f", 1), random.Random(7))
    before = snapshot(oracle)
    serial, results = run_concurrently(oracle.query, stream)
    assert any(tag == "ok" for tag, _ in serial)
    assert any(tag == "error" for tag, _ in serial)
    assert all(r == serial for r in results)
    assert snapshot(oracle) == before


def test_sampled_fdso_concurrent_queries():
    d = build_sampled_fdso(GRAPH, f=2, delta=1.0, C=3.0, seed=1)
    stream = sampled_stream(GRAPH, 2, random.Random(8))
    before = snapshot(d)
    serial, results = run_concurrently(
        lambda item: sampled_query(GRAPH, d, *item), stream)
    assert all(r == serial for r in results)
    assert snapshot(d) == before


def test_snapshot_sees_nested_changes():
    # the check above would miss nothing a query could change in place
    o = build_multi_fdo(GRAPH, 2)
    before = snapshot(o)
    o.nbrs[0].append((0, 0, 0))
    assert snapshot(o) != before
    o.nbrs[0].pop()
    assert snapshot(o) == before
    s = build_exact_fdo(GRAPH)
    before = snapshot(s)
    s.values[(0, 1)] = -1
    assert snapshot(s) != before
