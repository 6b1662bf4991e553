import random
from fractions import Fraction

import pytest

from fdo import (GraphError, INF, brute_diam, build_exact_fdo,
                 build_multi_fdo, diameter, gen_dense_lb, gen_multi_lb,
                 gen_multi_lb_f1, gen_random, gen_sparse_lb, gen_weighted_lb,
                 is_connected, random_payload)
from fdo.instances import DecodeQuery, format_manifest


def brute_answerer(g):
    return lambda pairs: brute_diam(g, pairs)


# ----------------------------------------------------------------- dense kind

def test_dense_all_zero_has_diameter_two():
    X = ((0, 0), (0, 0))
    inst = gen_dense_lb(X)
    assert inst.graph.n == 8
    assert diameter(inst.graph) == 2


def test_dense_bit_semantics():
    X = ((1, 0), (0, 0))
    inst = gen_dense_lb(X)
    g = inst.graph
    assert brute_diam(g, [(2, 6)]) == 2   # b_0=2, d_0=6, bit (0,0)=1
    assert brute_diam(g, [(2, 7)]) == 3   # bit (0,1)=0


def test_dense_every_single_failure_diameter_two_or_three():
    for r in (2, 3, 4):
        inst = gen_dense_lb(random_payload(r, seed=r))
        g = inst.graph
        for u, v, _ in g.edges:
            assert brute_diam(g, [(u, v)]) in (2, 3)


def test_dense_rejects_tiny():
    with pytest.raises(GraphError):
        gen_dense_lb(((1,),))


# ---------------------------------------------------------------- sparse kind

def test_sparse_diameter_two_any_payload():
    for seed in (0, 1):
        inst = gen_sparse_lb(random_payload(3, seed=seed), 16)
        assert diameter(inst.graph) == 2


def test_sparse_first_row_special_case():
    # failing {b_1, d_j} also stresses the extra vertices' reach
    X = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    inst = gen_sparse_lb(X, 15)
    g = inst.graph
    b1, d1, d2 = 3, 9, 10
    assert brute_diam(g, [(b1, d1)]) == 2
    assert brute_diam(g, [(b1, d2)]) == 3


def test_sparse_rejects_size():
    with pytest.raises(GraphError, match="4r"):
        gen_sparse_lb(random_payload(3, 0), 12)


# -------------------------------------------------------------- weighted kind

def test_weighted_values():
    eps = Fraction(1, 3)
    inst = gen_weighted_lb(random_payload(2, seed=4), eps)
    scale = inst.params["scale"]
    assert diameter(inst.graph) == 2 * scale + 1     # (2 + eps) scaled by 3
    for q in inst.queries:
        assert brute_diam(inst.graph, q.pairs) in (q.one_answer, q.zero_answer)


def test_weighted_rejects_eps():
    with pytest.raises(GraphError):
        gen_weighted_lb(random_payload(2, 0), Fraction(5, 2))


# ------------------------------------------------------------ multi-lb kinds

def test_multi_lb_all_kept_always_finite():
    span_pairs = {(i, j) for i in range(6) for j in (i + 1,) if j < 6}
    inst = gen_multi_lb(2, 3, 9, span_pairs)
    for q in inst.queries:
        assert brute_diam(inst.graph, q.pairs) < INF


def test_multi_lb_missing_edge_disconnects():
    inst = gen_multi_lb(2, 3, 9, set())
    for q in inst.queries:
        assert brute_diam(inst.graph, q.pairs) == INF


def test_multi_lb_query_sizes_exactly_f():
    for f, k, n in ((2, 3, 9), (4, 2, 12), (2, 2, 7)):
        payload = {c for i, c in enumerate(
            [(i, j) for i in range(f * k)
             for j in range(i + 1, min(i + f // 2 + 1, f * k))]) if i % 2 == 0}
        inst = gen_multi_lb(f, k, n, payload)
        assert all(len(q.pairs) == f for q in inst.queries)


def test_multi_lb_rejects_odd_f():
    with pytest.raises(GraphError, match="even"):
        gen_multi_lb(3, 2, 8, set())


def test_multi_lb_pads_with_auxiliary_pairs():
    # f=2, k=1: v_0, v_1, auxiliaries 2 and 3, center 4.  The query for
    # (0, 1) fails only the star edge 0-4 and has no far v-pair, so the
    # auxiliary pair 2-3 pads it; with n=4 there is no such pair.
    inst = gen_multi_lb(2, 1, 5, set())
    assert [q.pairs for q in inst.queries] == [((0, 4), (2, 3))]
    assert brute_diam(inst.graph, inst.queries[0].pairs) == INF
    with pytest.raises(GraphError, match="^instance too small to pad decode "
                                         "queries to size f$"):
        gen_multi_lb(2, 1, 4, set())


@pytest.mark.parametrize("f, k, n", [(2, 1, 4), (4, 1, 6)])
def test_multi_lb_refuses_to_pad_before_drawing(f, k, n):
    # the decode queries depend on f, k and n alone: an instance too small
    # to pad them is refused before the first of its coins
    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("a multi-lb candidate pair was drawn")

    with pytest.raises(GraphError) as err:
        gen_multi_lb(f, k, n, NoDraws(1))
    assert str(err.value) == ("instance too small to pad decode queries "
                              "to size f")


def test_multi_lb_pads_inside_the_auxiliary_pairs():
    # n=6: auxiliaries 2, 3 and 4; the first pair 2-3 fills the query
    inst = gen_multi_lb(2, 1, 6, set())
    assert [q.pairs for q in inst.queries] == [((0, 5), (2, 3))]


@pytest.mark.parametrize("build, message", [
    (lambda: gen_sparse_lb(((1,),), 5), "payload side must be >= 2, got 1"),
    (lambda: gen_weighted_lb(((1,),), Fraction(1, 2)),
     "payload side must be >= 2, got 1"),
    (lambda: gen_weighted_lb(random_payload(2, 0), Fraction(1, 2), n=7),
     "need n >= 4r = 8, got 7"),
    (lambda: gen_multi_lb(2, 1, 5, {(0, 2)}),
     "kept pair (0, 2) is not a candidate edge"),
    (lambda: gen_multi_lb_f1(7, set()), "need an even n >= 4, got 7"),
    (lambda: gen_multi_lb_f1(2, set()), "need an even n >= 4, got 2"),
    (lambda: gen_multi_lb_f1(6, {2}), "kept index 2 out of range 0..1"),
    (lambda: gen_multi_lb_f1(6, {-1}), "kept index -1 out of range 0..1"),
], ids=["sparse-r1", "weighted-r1", "weighted-n7", "multi-lb-kept",
        "multi-lb-f1-odd", "multi-lb-f1-small", "multi-lb-f1-index-2",
        "multi-lb-f1-index--1"])
def test_gadgets_refuse_bad_parameters(build, message):
    with pytest.raises(GraphError) as err:
        build()
    assert str(err.value) == message


def test_read_bit_refuses_an_answer_off_both_values():
    q = DecodeQuery((0, 1), ((2, 3),), 2, 3)
    assert (q.read_bit(2), q.read_bit(3)) == (1, 0)
    with pytest.raises(GraphError) as err:
        q.read_bit(5)
    assert str(err.value) == "decode answer 5 matches neither 2 nor 3 at (0, 1)"


def test_multi_lb_f1_semantics():
    inst = gen_multi_lb_f1(6, {0, 1})
    assert inst.decode(brute_answerer(inst.graph)) == frozenset({0, 1})
    inst2 = gen_multi_lb_f1(6, {1})
    g = inst2.graph
    assert brute_diam(g, [(0, 1)]) == INF
    assert brute_diam(g, [(1, 2)]) < INF


# ------------------------------------------------------------------ roundtrip

def test_roundtrip_via_brute_and_oracles():
    X = random_payload(3, seed=8)
    for inst in (gen_dense_lb(X), gen_sparse_lb(X, 15),
                 gen_weighted_lb(X, Fraction(1, 2))):
        assert inst.decode(brute_answerer(inst.graph)) == inst.payload
        ex = build_exact_fdo(inst.graph)
        assert inst.decode(lambda F: ex.query(F)) == inst.payload

    kept = {(0, 1), (2, 3), (3, 4)}
    inst = gen_multi_lb(2, 3, 10, kept)
    assert inst.decode(brute_answerer(inst.graph)) == frozenset(kept)
    mo = build_multi_fdo(inst.graph, 2)
    assert inst.decode(lambda F: mo.query(F)) == frozenset(kept)

    inst = gen_multi_lb_f1(10, {0, 3})
    ex = build_exact_fdo(inst.graph)
    assert inst.decode(lambda F: ex.query(F)) == frozenset({0, 3})


# ------------------------------------------------------------------- manifest

def test_manifest_layout():
    inst = gen_dense_lb(((1, 0), (0, 1)))
    text = format_manifest(inst)
    lines = text.splitlines()
    assert lines[0] == "GADGET dense-lb r=2"
    assert lines[1] == "PAYLOAD matrix 1001"
    assert lines[2].startswith("Q 0,0 ") and "one=2 zero=3" in lines[2]
    assert len(lines) == 2 + 4


# ------------------------------------------------------------- random corpora

def test_random_deterministic():
    a = gen_random("er-undirected", seed=7, n=20, p=0.3)
    b = gen_random("er-undirected", seed=7, n=20, p=0.3)
    assert a.edges == b.edges


def test_random_kinds_connected():
    assert is_connected(gen_random("er-undirected", seed=1, n=15, p=0.25))
    assert is_connected(gen_random("er-strongly-connected-digraph",
                                   seed=1, n=10, p=0.3))
    g = gen_random("er-weighted", seed=1, n=15, p=0.25)
    assert g.weighted and is_connected(g)


def test_hub_caps_diameter():
    g = gen_random("low-diam-hub", seed=2, n=24, p=0.1)
    assert diameter(g) <= 4


def test_random_rejects_unknown_kind():
    with pytest.raises(GraphError, match="unknown"):
        gen_random("small-world", seed=0)


def test_random_retry_cap():
    with pytest.raises(GraphError, match="retries"):
        gen_random("er-undirected", seed=0, n=40, p=0.01, retry_cap=3)
