"""The failure-set contract shared by every oracle kind.

A malformed failure set raises ``GraphError`` with the message that
``graph.resolve_pairs`` gives for it, whichever kind is queried; the
single-failure kinds also reject a set that is not exactly one pair.  The
single-failure lookup validates its one pair inline, so a Hypothesis test
pins it to ``resolve_pairs`` on random pairs of undirected graphs and
digraphs.
"""
import pytest
from hypothesis import given, settings, strategies as st

from fdo import (GraphError, SingleFDO, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_graph, build_lowdiam_fdo,
                 build_multi_fdo, build_spanner_fdo)
from fdo.graph import resolve_pairs

# 5-cycle with the chord 0-2: connected, diameter 2, one non-edge per vertex
GRAPH = build_graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])

KINDS = {
    "exact": lambda: build_exact_fdo(GRAPH),
    "ecc": lambda: build_ecc_fdo(GRAPH),
    "spanner": lambda: build_spanner_fdo(GRAPH, 2),
    "approx": lambda: build_approx_fdo(GRAPH, 0.5),
    "multi": lambda: build_multi_fdo(GRAPH, 2),
    "lowdiam": lambda: build_lowdiam_fdo(GRAPH, 2, 4.0),
}
SINGLE = {"exact", "ecc", "spanner", "approx"}

MALFORMED = {
    "out-of-range id": [(0, 5)],
    "negative id": [(-1, 2)],
    "float id": [(0.0, 1)],
    # bool is a subclass of int, but True and False are not vertex ids
    "True id": [(True, 2)],
    "False id": [(False, 1)],
    "self pair": [(2, 2)],
    "triple": [(1, 2, 3)],
    "one vertex": [(1,)],
    "int entry": [5],
    "None entry": [None],
}
MULTI_PAIR = {
    "duplicate pair": [(0, 1), (1, 0)],
    "bad second entry": [(0, 1), (1, 2, 3)],
}


def resolve_message(o, pairs):
    with pytest.raises(GraphError) as err:
        resolve_pairs(pairs, o.n, o.directed, GRAPH.edge_lookup)
    return str(err.value)


@pytest.fixture(scope="module", params=sorted(KINDS))
def oracle(request):
    return request.param, KINDS[request.param]()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_entry_raises_resolve_message(oracle, case):
    kind, o = oracle
    pairs = MALFORMED[case]
    message = resolve_message(o, pairs)
    for given_as in (pairs, tuple(pairs), iter(pairs)):
        with pytest.raises(GraphError) as err:
            o.query(given_as)
        assert str(err.value) == message, (kind, case)


@pytest.mark.parametrize("case", sorted(MULTI_PAIR))
def test_multi_pair_sets(oracle, case):
    kind, o = oracle
    pairs = MULTI_PAIR[case]
    if kind in SINGLE:
        message = "single-failure oracle queried with 2 pairs"
    else:
        message = resolve_message(o, pairs)
    with pytest.raises(GraphError) as err:
        o.query(pairs)
    assert str(err.value) == message, (kind, case)


@pytest.mark.parametrize("kind", ["lowdiam", "multi"])
@pytest.mark.parametrize("pairs", [[(0, 1), (1, 2), (2, 3)],
                                   [(0, 1), (1, 2), (9, 9)]],
                         ids=["three", "three-one-malformed"])
def test_too_many_failures(kind, pairs):
    # f=2: the count is refused before the entries are checked
    o = KINDS[kind]()
    for given_as in (pairs, tuple(pairs), iter(pairs)):
        with pytest.raises(GraphError) as err:
            o.query(given_as)
        assert str(err.value) == "too many failures: 3 pairs, oracle has f=2"


@pytest.mark.parametrize("kind", sorted(SINGLE))
@pytest.mark.parametrize("pairs", [[], [(0, 1), (1, 2)], [(0, 1)] * 3],
                         ids=["none", "two", "three"])
def test_single_failure_pair_count(kind, pairs):
    o = KINDS[kind]()
    with pytest.raises(GraphError) as err:
        o.query(pairs)
    assert str(err.value) == (
        f"single-failure oracle queried with {len(pairs)} pairs")


def test_messages_name_the_entry():
    cases = [
        ((1, 2, 3), "failure-set entry (1, 2, 3) is not a vertex pair"),
        (5, "failure-set entry 5 is not a vertex pair"),
        ((0, 5), "pair (0,5) has invalid vertex id (n=5)"),
        ((0.0, 1), "pair (0.0,1) has invalid vertex id (n=5)"),
        ((True, 2), "pair (True,2) has invalid vertex id (n=5)"),
        ((False, 1), "pair (False,1) has invalid vertex id (n=5)"),
        ((2, 2), "pair (2,2) is not a vertex pair"),
    ]
    lookup = {}
    for entry, message in cases:
        with pytest.raises(GraphError) as err:
            resolve_pairs([entry], 5, False, lookup)
        assert str(err.value) == message
    with pytest.raises(GraphError) as err:
        resolve_pairs([(0, 1), (1, 0)], 5, False, lookup)
    assert str(err.value) == "duplicate pair (1,0) in failure set"
    # on a digraph the two directions are different pairs
    assert resolve_pairs([(0, 1), (1, 0)], 5, True, lookup) == ([], 2)


@st.composite
def lookups(draw):
    """An exact SingleFDO on a random graph or digraph, n <= 8, that
    answers 1 on its edges and 0 elsewhere, its graph and a failure-set
    entry: an edge, a reversed edge, or any pair of ids
    in -1..n or bools, so non-edges, self pairs and invalid ids too."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 8))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1)), max_size=3 * n))
    edges, seen = [], set()
    for u, v in raw:
        key = (u, v) if directed else frozenset((u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v))
    g = build_graph(n, directed, edges)
    o = SingleFDO.from_edge_values("exact", g, dict.fromkeys(range(g.m), 1),
                                   {"base": 0})
    ids = st.integers(-1, n) | st.booleans()
    pair = st.tuples(ids, ids)
    if edges:
        pair = st.one_of(pair, st.sampled_from(edges),
                         st.sampled_from(edges).map(lambda e: e[::-1]))
    return o, g, draw(pair)


def outcome(fn):
    try:
        return "ok", fn()
    except GraphError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lookups())
def test_single_failure_lookup_matches_resolve_pairs(case):
    o, g, pair = case

    def reference():
        eids, _ = resolve_pairs([pair], g.n, g.directed, g.edge_lookup)
        return len(eids)

    want = outcome(reference)
    assert outcome(lambda: o.query([pair])) == want
    assert outcome(lambda: o.query((list(pair),))) == want
