import pytest

from fdo import (GraphError, brute_diam, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_graph, build_lowdiam_fdo,
                 build_multi_fdo, build_spanner_fdo, dumps_oracle, gen_random,
                 loads_oracle)
from fdo.verify import enumerate_failures

from conftest import parse_capped


def oracle_suite():
    c4 = build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
    wg = gen_random("er-weighted", seed=5, n=10, p=0.35)
    dg = build_graph(12, True, [(i, (i + 1) % 12) for i in range(12)]
                     + [(0, 6), (3, 9)])
    hub = gen_random("low-diam-hub", seed=3, n=12, p=0.1)
    return [
        (c4, build_exact_fdo(c4)),
        (wg, build_ecc_fdo(wg)),
        (c4, build_spanner_fdo(c4, 2)),
        (dg, build_approx_fdo(dg, 1.0, scan_threshold=0)),
        (wg, build_multi_fdo(wg, 2)),
        (hub, build_lowdiam_fdo(hub, 2, delta=2.0)),
    ]


def test_bit_exact_roundtrip():
    for _, oracle in oracle_suite():
        text = dumps_oracle(oracle)
        again = dumps_oracle(loads_oracle(text))
        assert text == again, oracle.kind


def test_rebuild_is_byte_identical():
    g = gen_random("er-undirected", seed=8, n=14, p=0.3)
    a = dumps_oracle(build_exact_fdo(g))
    b = dumps_oracle(build_exact_fdo(g))
    assert a == b
    hub = gen_random("low-diam-hub", seed=4, n=14, p=0.1)
    a = dumps_oracle(build_lowdiam_fdo(hub, 2, delta=2.0, backend="sampled",
                                       seed=6, dso_delta=1.0))
    b = dumps_oracle(build_lowdiam_fdo(hub, 2, delta=2.0, backend="sampled",
                                       seed=6, dso_delta=1.0))
    assert a == b


def test_loaded_oracle_answers_identically():
    for g, oracle in oracle_suite():
        loaded = loads_oracle(dumps_oracle(oracle))
        budget = getattr(oracle, "f", 1)
        for pairs in enumerate_failures(g, budget, cap=300, samples=40, seed=1):
            assert oracle.query(pairs) == loaded.query(pairs), oracle.kind
        # non-edge handling survives the roundtrip too
        nonedge = next(((u, v) for u in range(g.n) for v in range(g.n)
                        if u != v and g.edge_id(u, v) is None), None)
        if nonedge and not g.directed:
            assert oracle.query([nonedge]) == loaded.query([nonedge])


@pytest.mark.parametrize("text, msg", [
    ("garbage\n", "FDO header"),
    ("FDO exact 2 1 fmt=9 dir=0 base=1\nE 0 0 1 1\nD 0 1\n", "version"),
    ("FDO exact 2 1 fmt=1 dir=0 base=1\nD 0 1\n", "edge dictionary"),
    ("FDO exact 2 1 fmt=1 dir=0 base=1\nE 0 0 1 1\n", "missing stored"),
    ("FDO wat 2 1 fmt=1 dir=0\nE 0 0 1 1\nD 0 1\n", "unknown oracle kind"),
    ("FDO exact 2 1 fmt=1 dir=0 base=1\nE 1 0 1 1\nD 0 1\n", "malformed"),
    ("FDO exact 2 1 fmt=1 dir=0 base=1\nE\nD 0 1\n", "malformed"),
])
def test_loader_rejects(text, msg):
    with pytest.raises(GraphError, match=msg):
        loads_oracle(text)


MULTI_TEXT = """FDO multi 6 7 fmt=1 dir=0 f=2 mode=paper source=0 maxdist=12
E 0 0 1 10
E 1 0 5 5
E 2 1 2 1
E 3 1 3 6
E 4 1 5 2
E 5 2 4 4
E 6 3 5 2
V 0 0 -
V 1 7 4
V 2 8 2
V 3 7 6
V 4 12 5
V 5 5 1
D 0 17
D 1 0
D 2 0
D 3 20
D 4 0
D 5 0
D 6 0
"""

def test_multi_text_loads():
    assert parse_capped("loads_oracle", MULTI_TEXT) == "loaded"
    assert dumps_oracle(loads_oracle(MULTI_TEXT)) == MULTI_TEXT


@pytest.mark.parametrize("old, new, msg", [
    ("V 0 0 -", "V 0 0 5", "do not root at source 0"),     # source with a parent
    ("source=0", "source=6", "do not root at source 6"),
    ("source=0", "source=-1", "do not root at source -1"),
    ("V 2 8 2", "V 2 8 0", "edge 0 of vertex 2 does not touch it"),
    ("V 2 8 2", "V 2 8 -1", "names edge -1"),
    ("V 2 8 2", "V 2 8 7", "names edge 7"),
    ("V 2 8 2", "V 2 8 -", "reach 4 of 6 vertices"),       # second root
    ("V 5 5 1", "V 5 5 4", "reach 1 of 6 vertices"),       # cycle 1-5 off the tree
    ("FDO multi 6 7", "FDO multi 6 10000000000", "do not fit"),
    ("FDO multi 6 7", "FDO multi 10000000000 7", "do not fit"),
    ("FDO multi 6 7", "FDO multi 6 -1", "do not fit"),
    ("FDO multi 6 7", "FDO multi 0 7", "do not fit"),
])
def test_loader_rejects_bad_multi_tree(old, new, msg):
    assert old in MULTI_TEXT
    got = parse_capped("loads_oracle", MULTI_TEXT.replace(old, new, 1))
    assert got.startswith("GraphError:") and msg in got, got


def test_loader_rejects_huge_edge_count():
    text = "FDO exact 2 10000000000 fmt=1 dir=0 base=1\nE 0 0 1 1\nD 0 1\n"
    got = parse_capped("loads_oracle", text)
    assert got.startswith("GraphError:") and "do not fit" in got, got
