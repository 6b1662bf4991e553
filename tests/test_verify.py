from math import comb

import pytest

from fdo import (INF, GraphError, audit, brute_diam, brute_replacement,
                 build_ecc_fdo, build_exact_fdo, build_graph,
                 build_lowdiam_fdo, build_multi_fdo, dumps_oracle,
                 enumerate_failures, gen_random, loads_oracle)


def test_brute_diam_examples(c4):
    assert brute_diam(c4, [(0, 1)]) == 3
    assert brute_diam(c4, [(0, 2)]) == 2          # non-edge discarded
    assert brute_diam(c4, [(0, 1), (2, 3)]) == INF


def test_brute_replacement_examples(c4, p4, k4):
    assert brute_replacement(c4, 0, 2, [(0, 1)]) == 2
    assert brute_replacement(p4, 0, 3, [(1, 2)]) == INF
    assert brute_replacement(k4, 0, 1, [(0, 1)]) == 2


def test_brute_diam_consistent_with_diameter(c4):
    from fdo import diameter
    assert brute_diam(c4, []) == diameter(c4)


def test_audit_exact_zero_violations(c4):
    o = build_exact_fdo(c4)
    rep = audit(o, c4, enumerate_failures(c4, 1), stretch=1.0)
    assert rep.queries == 4 and rep.violations == 0
    assert rep.max_ratio == 1.0


def test_audit_ecc_within_stretch_two(c4):
    o = build_ecc_fdo(c4)
    rep = audit(o, c4, enumerate_failures(c4, 1), stretch=2.0)
    assert rep.violations == 0


def test_audit_flags_corrupted_oracle(c4):
    o = build_exact_fdo(c4)
    o.values[(0, 1)] = 1   # below the true value: must be caught
    rep = audit(o, c4, enumerate_failures(c4, 1), stretch=1.0)
    assert rep.violations >= 1
    bad = [r for r in rep.records if not r.ok]
    assert bad and bad[0].answer < bad[0].truth


class Constant:
    """A stub oracle that gives one answer to every query."""
    kind = "stub"

    def __init__(self, answer):
        self.answer = answer

    def query(self, pairs):
        return self.answer


# (graph, failure set, oracle, truth, ok): the infinite and zero truths
@pytest.mark.parametrize("g, pairs, oracle, truth, ok", [
    # a bridge of P4: both sides inf, which matches
    pytest.param(build_graph(4, False, [(0, 1), (1, 2), (2, 3)]), [(1, 2)],
                 None, INF, True, id="bridge-inf-inf"),
    pytest.param(build_graph(4, False, [(0, 1), (1, 2), (2, 3)]), [(1, 2)],
                 Constant(5), INF, False, id="finite-against-inf"),
    pytest.param(build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                 [(1, 2)], Constant(INF), 3, False, id="inf-against-finite"),
    # zero weights: G - F has diameter 0, matched only by 0
    pytest.param(build_graph(3, False, [(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
                 [(0, 1)], Constant(0), 0, True, id="zero-zero"),
    pytest.param(build_graph(3, False, [(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
                 [(0, 1)], Constant(1e-12), 0, False, id="above-zero"),
])
def test_audit_infinite_and_zero_truth(g, pairs, oracle, truth, ok):
    if oracle is None:
        oracle = build_exact_fdo(g)
    else:   # the stub claims g's shape, which audit checks
        oracle.n, oracle.m, oracle.directed = g.n, g.m, g.directed
    rep = audit(oracle, g, [pairs], stretch=2.0)
    (rec,) = rep.records
    assert rec.truth == truth and rec.ok is ok
    assert rec.ratio == rep.max_ratio == (1.0 if ok else INF)
    assert rep.violations == (not ok)


def test_audit_rejects_bad_stretch(c4):
    with pytest.raises(ValueError):
        audit(build_exact_fdo(c4), c4, [], stretch=0.5)


@pytest.mark.parametrize("stretch", [0.5, 0.0, -1.0, float("nan"), INF])
def test_audit_refuses_stretch_not_finite_and_at_least_one(c4, stretch):
    with pytest.raises(GraphError, match="stretch must be finite and >= 1"):
        audit(build_exact_fdo(c4), c4, [], stretch=stretch)


G14 = gen_random("er-undirected", seed=1, n=14, p=0.25)
C6 = build_graph(6, False, [(i, (i + 1) % 6) for i in range(6)])
# C6's n, m and direction, other edges: a triangle with a tail
TAILED = build_graph(6, False, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                (4, 5)])


@pytest.mark.parametrize("g, build, other", [
    # another er graph of the same n (m=26 against 29)
    pytest.param(G14, build_exact_fdo,
                 gen_random("er-undirected", seed=2, n=14, p=0.25), id="m"),
    pytest.param(G14, build_exact_fdo, C6, id="n"),
    pytest.param(G14, build_exact_fdo,
                 build_graph(14, True, [e[:2] for e in G14.edges]),
                 id="directed"),
    pytest.param(C6, lambda g: build_multi_fdo(g, 2), TAILED,
                 id="multi-edges"),
    pytest.param(C6, lambda g: build_lowdiam_fdo(g, 2, 3.0), TAILED,
                 id="lowdiam-edges"),
])
def test_audit_refuses_another_graph(g, build, other):
    built, sets = build(g), [[g.edges[0][:2]]]
    for oracle in (built, loads_oracle(dumps_oracle(built))):
        assert audit(oracle, g, sets, stretch=4.0).violations == 0
        with pytest.raises(GraphError, match="built on another graph"):
            audit(oracle, other, sets, stretch=4.0)


def test_enumerate_exhaustive_counts():
    g = gen_random("er-undirected", seed=2, n=10, p=0.3)
    sets = list(enumerate_failures(g, 2))
    assert len(sets) == comb(g.m, 1) + comb(g.m, 2)
    assert all(1 <= len(fs) <= 2 for fs in sets)


def test_enumerate_sampling_deterministic():
    g = gen_random("er-undirected", seed=3, n=20, p=0.4)
    a = list(enumerate_failures(g, 3, cap=10, samples=25, seed=5))
    b = list(enumerate_failures(g, 3, cap=10, samples=25, seed=5))
    assert a == b and len(a) == 25
    c = list(enumerate_failures(g, 3, cap=10, samples=25, seed=6))
    assert a != c


@pytest.mark.parametrize("f, samples, message", [
    (0, 2000, "failure budget must be >= 1, got 0"),
    (-1, 2000, "failure budget must be >= 1, got -1"),
    (1, 0, "sample count must be >= 1, got 0"),
])
def test_enumerate_refuses_streams_that_check_nothing(c4, f, samples,
                                                      message):
    # refused at the call, before the stream is read, and also where the
    # stream would be exhaustive and not read samples at all
    with pytest.raises(GraphError, match=message):
        enumerate_failures(c4, f, samples=samples)
