import random
import re
from itertools import combinations

import pytest

from fdo import (INF, GraphError, brute_diam, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_graph, build_lowdiam_fdo,
                 build_multi_fdo, build_spanner_fdo, dumps_oracle,
                 gen_dense_lb, gen_random, loads_oracle, random_payload)
from fdo.graph import format_graph, parse_graph
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


def _was(case, *was):
    """``case`` with the id it had before multi and lowdiam files became
    fmt=3: ``was`` is the parameters its id was made of then.  The files
    broken are the same in structure, so the test's name does not change
    with the version."""
    return pytest.param(*case, id="-".join(was))


def _lowdiam_case(counts, body, msg, was=None, was_msg=None):
    """A loader case on a lowdiam file with these vertex and edge counts,
    whose id keeps the fmt=1 header (and ``was``, the body, and
    ``was_msg``, the message) it had."""
    head = f"FDO lowdiam {counts} fmt={{}} dir=0 f=2 delta=1 base=1\n"
    return _was((head.format(3) + body, msg), head.format(1) + (was or body),
                was_msg or msg)


# the header and edge lines of a lowdiam file on the 4-cycle, and as they
# were in fmt=2
LOWDIAM_C4 = ("FDO lowdiam 4 4 fmt=3 dir=0 f=2 delta=3 base=2\n"
              "E 0 1 1\nE 1 2 1\nE 2 3 1\nE 3 0 1\n")
LOWDIAM_C4_FMT2 = ("FDO lowdiam 4 4 fmt=2 dir=0 f=2 delta=3 base=2\n"
                   "E 0 0 1 1\nE 1 1 2 1\nE 2 2 3 1\nE 3 3 0 1\n")


@pytest.mark.parametrize("text, msg", [
    ("garbage\n", "FDO header"),
    # a header without its fmt= and dir= tokens, and one without base=
    ("FDO exact 4 5\n", "^truncated oracle header 'FDO exact 4 5'$"),
    ("FDO exact 4 5 fmt=2 dir=0\n", "^oracle header lacks base=$"),
    ("FDO exact 2 1 fmt=9 dir=0 base=1\nE 0 0 1 1\nD 0 1\n", "version"),
    # single-failure files of format 1, with their edge dictionary
    ("FDO exact 2 1 fmt=1 dir=0 base=1\nE 0 0 1 1\nD 0 1\n",
     "unsupported format version fmt='1' for kind exact, which is read as "
     "fmt=2: rebuild the oracle file"),
    _lowdiam_case("2 1", "D - 1\n", "edge dictionary"),
    _lowdiam_case("2 1", "E 0 1 1\n", "missing stored", was="E 0 0 1 1\n"),
    ("FDO wat 2 1 fmt=1 dir=0\nE 0 0 1 1\nD 0 1\n", "unknown oracle kind"),
    # an E line with an edge id, as fmt=2 wrote them, and a bare tag
    _lowdiam_case("2 1", "E 1 0 1 1\nD - 1\n", "malformed"),
    _lowdiam_case("2 1", "E\nD - 1\n", "malformed"),
    # integer tokens int() takes but no build writes
    ("FDO exact 1_2 1 fmt=2 dir=0 base=1\nD 0-1 2\n", "line 'FDO exact 1_2 1"),
    ("FDO exact 12 1 fmt=2 dir=0 base=1\nD 1_0-11 3\n", "line 'D 1_0-11 3'"),
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nD +0-1 3\n", r"line 'D \+0-1 3'"),
    ("FDO exact 2 1 fmt=2 dir=0 base=1\nD 0-\u0661 3\n", "line 'D 0-\u0661 3'"),
    _lowdiam_case("2 1", "E 0 \u0661 1\nD - 1\n", "malformed",
                  was="E 0 0 \u0661 1\nD - 1\n"),
    # build_graph's message, which the id keeps from the loader's own check
    _lowdiam_case("3 2", "E 0 1 1\nE 1 0 1\nD - 1\n",
                  re.escape("duplicate edge pair (0,1): edges 0 and 1"),
                  was="E 0 0 1 1\nE 1 1 0 1\nD - 1\n",
                  was_msg="E lines 0 and 1 repeat the vertex pair 0-1"),
    # lowdiam files of format 1, which also held the dominated entries, and
    # of format 2, whose E lines held edge ids
    _was(("FDO lowdiam 2 1 fmt=1 dir=0 f=2 delta=1 base=1\nE 0 0 1 1\nD - 1\n",
          "unsupported format version fmt='1' for kind lowdiam, which is read "
          "as fmt=3: rebuild the oracle file"),
         "FDO lowdiam 2 1 fmt=1 dir=0 f=2 delta=1 base=1\nE 0 0 1 1\nD - 1\n",
         "unsupported format version fmt='1' for kind lowdiam, which is read as "
         "fmt=2: rebuild the oracle file"),
    ("FDO lowdiam 2 1 fmt=2 dir=0 f=2 delta=1 base=1\nE 0 0 1 1\nD - 1\n",
     "unsupported format version fmt='2' for kind lowdiam, which is read as "
     "fmt=3: rebuild the oracle file"),
    # a lowdiam entry no larger than the answer of a proper subset of its
    # key, which no build keeps: a single edge's entry equal to base, a pair
    # entry equal to one of its singles (written after it), a pair entry
    # equal to base where both singles are absent, and inf under an inf
    # single
    *[_was((LOWDIAM_C4 + entries, f"stores the dominated entry {dominated!r}"),
           LOWDIAM_C4_FMT2 + entries, f"stores the dominated entry {dominated!r}")
      for entries, dominated in [
          ("D - 2\nD 1 2\n", "D 1 2"),
          ("D - 2\nD 0 3\nD 0-1 4\nD 1 4\n", "D 0-1 4"),
          ("D - 2\nD 1-3 2\n", "D 1-3 2"),
          ("D - 2\nD 2 inf\nD 2-3 inf\n", "D 2-3 inf")]],
])
def test_loader_rejects(text, msg):
    with pytest.raises(GraphError, match=msg):
        loads_oracle(text)


C4 = build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
C4_BUILDS = {
    "exact": build_exact_fdo,
    "ecc": build_ecc_fdo,
    "spanner": lambda g: build_spanner_fdo(g, 2),
    "approx": lambda g: build_approx_fdo(g, 1.0, scan_threshold=0),
    "multi": lambda g: build_multi_fdo(g, 2),
    "lowdiam": lambda g: build_lowdiam_fdo(g, 2, delta=3.0),
}


# (id, kind, the text edited, its replacement, a part of the message)
BAD_VALUES = [
    # the empty subset's entry, which every lowdiam query reads
    ("no-empty-key", "lowdiam", "D - 2\n", "", "missing stored entries"),
    # header values and stored entries no build writes
    # a V line, a tree row of fmt=2 files: the loader makes the tree
    ("v-dist-nan", "multi", "E 3 0 1\n", "E 3 0 1\nV 2 nan 1\n",
     "no 'V' lines in multi oracle files"),
    ("v-line-multi", "multi", "E 3 0 1\n", "E 3 0 1\nV 0 0 -\n",
     "no 'V' lines in multi oracle files"),
    # and the source= key of fmt=2 multi headers, or any key not the kind's
    ("source-key-multi", "multi", "mode=paper", "mode=paper source=0",
     "no source= key in multi oracle headers"),
    ("eps-key-exact", "exact", "base=2", "base=2 eps=1", "no eps= key"),
    ("entry-nan", "exact", "D 0-1 3", "D 0-1 nan", "line 'D 0-1 nan'"),
    ("entry-negative", "exact", "D 0-1 3", "D 0-1 -1", "line 'D 0-1 -1'"),
    ("base-negative", "exact", "base=2", "base=-1", "base=-1"),
    # an infinite diameter or fallback, which no build of a connected graph
    # writes: an exact file with base=inf answered inf for every pair it
    # did not store; and an eps or delta that is not finite and above 0
    *[(f"base-inf-{kind}", kind, "base=2", "base=inf", "value base=inf")
      for kind in ("exact", "spanner", "approx", "lowdiam")],
    ("fallback-inf", "ecc", "fallback=4", "fallback=inf", "fallback=inf"),
    *[(f"{key}-{name}", kind, f"{key}={old}", f"{key}={new}",
       f"value {key}={new}")
      for kind, key, old in [("approx", "eps", "1.0"), ("lowdiam", "delta", "3.0")]
      for name, new in [("zero", "0"), ("zero-float", "0.0"), ("inf", "inf")]],
    ("k-negative", "spanner", "k=2", "k=-3", "k=-3"),
    ("k-zero", "spanner", "k=2", "k=0", "k=0"),
    ("f-negative", "lowdiam", "f=2", "f=-1", "f=-1"),
    ("mode-bogus", "approx", "mode=pivot", "mode=bogus", "mode=bogus"),
    ("slack-negative", "approx", "slack=2", "slack=-1", "slack=-1"),
    ("source-n", "ecc", "source=0", "source=4", "source=4"),
    ("source-negative", "ecc", "source=0", "source=-1", "source=-1"),
    ("dir-7", "exact", "dir=0", "dir=7", "dir='7'"),
    # these builds refuse digraphs: dir=1 loaded an ecc or spanner file as
    # directed (wrong answers) and was ignored in multi and lowdiam files
    *[(f"dir-1-{kind}", kind, "dir=0", "dir=1", f"dir='1' in a {kind}")
      for kind in ("ecc", "spanner", "multi", "lowdiam")],
    # D and P lines checked against the file
    ("repeated-key", "exact", "D 0-1 3\n", "D 0-1 3\nD 0-1 2\n",
     "repeated stored entry 'D 0-1 2'"),
    # one E line per edge, m in all: more or fewer are refused
    ("repeated-edge", "multi", "E 1 2 1\n", "E 1 2 1\nE 0 2 1\n",
     "oracle file holds 5 edge dictionary lines, not m=4"),
    ("missing-edge", "multi", "E 3 0 1\n", "",
     "oracle header counts n=4 m=4 do not fit its 3 body lines"),
    ("missing-edge-lowdiam", "lowdiam", "E 3 0 1\n", "",
     "oracle file holds 3 edge dictionary lines, not m=4"),
    # an E line with the edge id fmt=2 wrote
    ("e-line-id", "multi", "E 1 2 1", "E 1 1 2 1", "line 'E 1 1 2 1'"),
    # a vertex pair named by two E lines, either way round: the later line
    # took the pair's entry in the edge dictionary, so edge 0 could not fail
    *[(f"repeated-pair-{kind}-{way}", kind, "E 2 3 1", new,
       "duplicate edge pair (0,1): edges 0 and 2")
      for kind in ("multi", "lowdiam")
      for way, new in (("same", "E 0 1 1"), ("reversed", "E 1 0 1"))],
    ("d-line-multi", "multi", "E 3 0 1\n", "E 3 0 1\nD 0 0\n",
     "no 'D' lines in multi oracle files"),
    ("repeated-header-key", "exact", "base=2", "base=2 base=9",
     "bad header token 'base=9'"),
    ("ecc-key-m", "ecc", "D 0-1 6\n", "D 0-1 6\nD 0-4 6\n",
     "line 'D 0-4 6'"),
    ("ecc-key-negative", "ecc", "D 0-1 6\n", "D 0-1 6\nD -5-1 6\n",
     "line 'D -5-1 6'"),
    ("spanner-key-m", "spanner", "D 0-1 3\n", "D 0-1 3\nD 2-99 3\n",
     "line 'D 2-99 3'"),
    ("spanner-key-negative", "spanner", "D 0-1 3\n", "D 0-1 3\nD 1--5 3\n",
     "line 'D 1--5 3'"),
    ("subset-unsorted", "lowdiam", "D 1-2 inf", "D 2-1 inf",
     "line 'D 2-1 inf'"),
    ("subset-repeated", "lowdiam", "D 1-2 inf", "D 1-1 inf",
     "line 'D 1-1 inf'"),
    ("subset-m", "lowdiam", "D 1-2 inf", "D 1-4 inf", "line 'D 1-4 inf'"),
    ("ecc-pivot", "ecc", "D 0-1 6\n", "P 0\nD 0-1 6\n", "no 'P' lines in ecc"),
    ("pivot-n", "approx", "P 1\n", "P 77\n", "line 'P 77'"),
    # the vertex-pair keys of single-failure files
    ("pair-edge-id", "exact", "D 0-1 3", "D 0 3", "line 'D 0 3'"),
    ("pair-three-ids", "exact", "D 0-1 3", "D 0-1-2 3", "line 'D 0-1-2 3'"),
    ("pair-vertex-n", "exact", "D 0-1 3", "D 0-4 3", "line 'D 0-4 3'"),
    ("pair-self", "exact", "D 0-1 3", "D 1-1 3", "line 'D 1-1 3'"),
    ("pair-descending", "exact", "D 0-1 3", "D 1-0 3", "line 'D 1-0 3'"),
    ("pair-repeated", "spanner", "D 1-2 3", "D 0-1 3", "repeated stored"),
    ("entry-word", "exact", "D 0-1 3", "D 0-1 three", "line 'D 0-1 three'"),
    # an entry equal to the fallback, which no build keeps
    *[(f"entry-fallback-{kind}", kind, old, new, f"its fallback {fallback}")
      for kind, old, new, fallback in [
          ("exact", "D 0-1 3", "D 0-1 2", 2), ("ecc", "D 0-1 6", "D 0-1 4", 4),
          ("spanner", "D 0-1 3", "D 0-1 4", 4),
          ("approx", "D 0-1 5", "D 0-1 2", 2)]],
    *[(f"e-line-{kind}", kind, "\nD 0-1", "\nE 0 0 1 1\nD 0-1",
       f"no 'E' lines in {kind} oracle files")
      for kind in ("exact", "ecc", "spanner", "approx")],
    # each kind reads only its own format version
    *[(f"fmt-{kind}", kind, f"fmt={new}", f"fmt={old}",
       f"version fmt='{old}' for kind {kind}")
      for kind, old, new in [("exact", 1, 2), ("ecc", 1, 2), ("spanner", 1, 2),
                             ("approx", 1, 2), ("multi", 2, 3),
                             ("lowdiam", 2, 3)]],
    # header counts: more edges than vertex pairs
    ("m-over-pairs", "exact", "FDO exact 4 4", "FDO exact 4 7", "do not fit"),
    ("m-negative", "exact", "FDO exact 4 4", "FDO exact 4 -1", "do not fit"),
    # characters int() takes but no build writes: a sign, an underscore and
    # other scripts' digits, in every line that holds integers, and a sign
    # in a distance
    ("n-plus", "exact", "FDO exact 4 4", "FDO exact +4 4",
     "line 'FDO exact +4 4"),
    ("m-underscore", "exact", "FDO exact 4 4", "FDO exact 4 0_4",
     "line 'FDO exact 4 0_4"),
    ("k-plus", "spanner", "k=2", "k=+2", "k=+2"),
    ("source-arabic-indic", "ecc", "source=0", "source=\u0660",
     "source=\u0660"),
    ("slack-underscore", "approx", "slack=2", "slack=0_2", "slack=0_2"),
    ("multi-source-plus", "multi", "mode=paper", "mode=paper source=+0",
     "source=+0"),
    ("pair-plus", "exact", "D 0-1 3", "D +0-1 3", "line 'D +0-1 3'"),
    ("entry-plus", "exact", "D 0-1 3", "D 0-1 +3", "line 'D 0-1 +3'"),
    ("pair-underscore", "exact", "D 0-1 3", "D 0-0_1 3", "line 'D 0-0_1 3'"),
    ("pair-arabic-indic", "exact", "D 0-1 3", "D 0-\u0661 3",
     "line 'D 0-\u0661 3'"),
    ("subset-underscore", "lowdiam", "D 1-2 inf", "D 1-0_2 inf",
     "line 'D 1-0_2 inf'"),
    ("v-dist-plus", "multi", "E 3 0 1\n", "E 3 0 1\nV 2 +2 1\n",
     "line 'V 2 +2 1'"),
    ("e-line-plus", "multi", "E 1 2 1", "E +1 2 1", "line 'E +1 2 1'"),
    # the first integer of an E line, its edge id in fmt=2
    ("e-id-underscore", "multi", "E 1 2 1", "E 0_1 2 1", "line 'E 0_1 2 1'"),
    ("pivot-plus", "approx", "P 1\n", "P +1\n", "line 'P +1'"),
    ("v-vertex-arabic-indic", "multi", "E 3 0 1\n", "E 3 0 1\nV \u0662 2 1\n",
     "line 'V \u0662 2 1'"),
    ("v-parent-plus", "multi", "E 3 0 1\n", "E 3 0 1\nV 2 2 +1\n",
     "line 'V 2 2 +1'"),
]


@pytest.mark.parametrize("kind, old, new, msg",
                         [case[1:] for case in BAD_VALUES],
                         ids=[case[0] for case in BAD_VALUES])
def test_loader_rejects_values_no_build_writes(kind, old, new, msg):
    text = dumps_oracle(C4_BUILDS[kind](C4))
    assert old in text
    with pytest.raises(GraphError, match=re.escape(msg)) as info:
        loads_oracle(text.replace(old, new, 1))
    # a maker's own GraphError keeps its message
    assert "malformed oracle value" not in str(info.value)


def test_loader_refuses_lowdiam_key_wider_than_f():
    # no query of at most f failures reads such a key, and undominated
    # walks its 2^size subsets: the load cost doubled with each extra id
    k9 = build_graph(9, False, list(combinations(range(9), 2)))
    text = dumps_oracle(build_lowdiam_fdo(k9, 2, delta=3.0))
    wide = "-".join(map(str, range(30)))
    with pytest.raises(GraphError, match=f"stores the entry 'D {wide}' of 30 "
                       "edges, more than f=2"):
        loads_oracle(text + f"D {wide} 9\n")


def test_loader_keeps_lowdiam_empty_entry_above_base():
    # the sampled backend may write D - above base=, e.g. base=2 and D - inf
    # when no subgraph holds a shortest path
    text = dumps_oracle(C4_BUILDS["lowdiam"](C4))
    head = [ln for ln in text.splitlines() if not ln.startswith("D ")]
    o = loads_oracle("\n".join(head + ["D - inf"]) + "\n")
    assert o.base_diam == 2 and o.query([]) == INF


MULTI_TEXT = """FDO multi 6 7 fmt=3 dir=0 f=2 mode=paper
E 0 1 10
E 0 5 5
E 1 2 1
E 1 3 6
E 1 5 2
E 2 4 4
E 3 5 2
"""

# the same oracle in format 2, which also stored the tree as V rows
MULTI_TEXT_FMT2 = """FDO multi 6 7 fmt=2 dir=0 f=2 mode=paper source=0
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
"""


def test_multi_text_loads():
    assert parse_capped("loads_oracle", MULTI_TEXT) == "loaded"
    o = loads_oracle(MULTI_TEXT)
    assert dumps_oracle(o) == MULTI_TEXT
    # the tree that fmt=2 files stored as V rows, and the swap weights and
    # maxdist that fmt=1 files stored as D lines and maxdist=, made from
    # the edges
    assert o.dist == [0, 7, 8, 7, 12, 5]
    assert sorted(o.cut_root.items()) == [(1, 5), (2, 2), (4, 1), (5, 4),
                                          (6, 3)]
    assert o.swap_weight == [17, 0, 0, 20, 0, 0, 0] and o.maxdist == 12


def test_loader_refuses_multi_fmt1():
    # fmt=1 also stored the swap weights (D lines) and maxdist=, and both
    # older formats the tree
    fmt1 = (MULTI_TEXT_FMT2.replace("fmt=2", "fmt=1").replace(
        "source=0", "source=0 maxdist=12")
            + "".join(f"D {eid} {sw}\n"
                      for eid, sw in enumerate([17, 0, 0, 20, 0, 0, 0])))
    for old, text in (("1", fmt1), ("2", MULTI_TEXT_FMT2)):
        with pytest.raises(GraphError, match=f"unsupported format version "
                           f"fmt='{old}' for kind multi, which is read as "
                           "fmt=3: rebuild the oracle file"):
            loads_oracle(text)


@pytest.mark.parametrize("old, new, msg", [
    ("FDO multi 6 7", "FDO multi 6 10000000000", "do not fit"),
    ("FDO multi 6 7", "FDO multi 10000000000 7", "do not fit"),
    ("FDO multi 6 7", "FDO multi 6 -1", "do not fit"),
    ("FDO multi 6 7", "FDO multi 0 7", "do not fit"),
    # more vertices than the edges can connect
    ("FDO multi 6 7", "FDO multi 9 7", "do not fit"),
    # more or fewer E lines than m
    ("E 3 5 2\n", "E 3 5 2\nE 2 3 1\n",
     "oracle file holds 8 edge dictionary lines, not m=7"),
    ("E 3 5 2\n", "", "n=6 m=7 do not fit its 6 body lines"),
    # a disconnected graph: vertex 4 loses its one edge
    ("E 2 4 4", "E 0 2 4", "multi-failure FDO needs a connected graph"),
    # E lines: endpoints in 0..n-1 and distinct, a finite weight >= 0, in
    # build_graph's words.  Their ids name the fmt=2 line 'E 2 1 2 1', edge
    # id first, and the loader's message of then.
    *[_was(("E 1 2 1", new, msg), "E 2 1 2 1", f"E 2 {new[2:]}",
           f"line 'E 2 {new[2:]}'")
      for new, msg in [
          ("E 1 6 1", "edge (1,6) has out-of-range endpoint (n=6)"),
          ("E -1 2 1", "edge (-1,2) has out-of-range endpoint (n=6)"),
          ("E 2 2 1", "self-loop (2,2) not allowed"),
          ("E 1 2 -1", "edge (1,2) has negative weight -1"),
          ("E 1 2 nan", "edge (1,2) has non-finite weight nan"),
          ("E 1 2 inf", "edge (1,2) has non-finite weight inf")]],
])
def test_loader_rejects_bad_multi_tree(old, new, msg):
    assert old in MULTI_TEXT
    got = parse_capped("loads_oracle", MULTI_TEXT.replace(old, new, 1))
    assert got.startswith("GraphError:") and msg in got, got
    assert "malformed oracle value" not in got, got


def test_loaded_multi_f1_gap_is_never_negative():
    # fmt=1 files stored swap weights, and ones below the tree distance of
    # the cut vertex, which no build writes, made the f=1 lookup answer
    # below 2*maxdist; fmt=2 tree rows could sit just below their parent's
    # distance within the dist_eq tolerance.  Now every tree is a built
    # one: a vertex settles no earlier than its parent, so no vertex of a
    # cut subtree is nearer the source than the cut vertex, and no swap
    # weight is below its distance, on zero and near-tie float weights too.
    # The f=1 lookup still floors the gap at 0, as the general path does.
    rng = random.Random(3)
    graphs = [build_graph(3, False, [(0, 1, 1), (0, 2, 0), (1, 2, 0)]),
              build_graph(3, False, [(0, 1, 1.0), (0, 2, 0.9999999995),
                                     (1, 2, 0.0)])]
    for _ in range(20):
        g = gen_random("er-undirected", rng.randrange(10**6), n=9, p=0.4)
        graphs.append(build_graph(g.n, False, [
            (u, v, rng.choice((0, 0.0, 0.1, 0.2, 0.3, 1e-10, 1)))
            for u, v, _ in g.edges]))
    for g in graphs:
        built = build_multi_fdo(g, 1)
        for o in (built, loads_oracle(dumps_oracle(built))):
            for u, v, _ in o.edges:
                d = o.query_details([(u, v)])
                assert d["answer"] == INF or (
                    d["gap"] >= 0 and d["answer"] >= 2 * o.maxdist), (u, v)
                assert d == o.query_details([(u, v)], force_general=True)


def test_multi_float_distances_past_2_53_load():
    # Integral floats are written as digits and '.0', so the loader reads
    # floats and adds them as the build did.  Written as ints, dist[2] =
    # 1e16 + 3 (rounded to ...004) was once refused as "not 1e16 + 3".
    g = build_graph(3, False, [(0, 1, 1e16), (1, 2, 3.0), (0, 2, 3e16)])
    text = format_graph(g)
    assert "+" not in text
    again = parse_graph(text)
    assert again.edges == g.edges
    assert [type(w) for _, _, w in again.edges if w >= 2 ** 53] == [float] * 2
    built = build_multi_fdo(g, 2)
    assert dumps_oracle(build_multi_fdo(again, 2)) == dumps_oracle(built)
    loaded = loads_oracle(dumps_oracle(built))
    assert loaded.swap_weight == built.swap_weight
    pairs = [(u, v) for u, v, _ in g.edges]
    for size in range(3):
        for failed in combinations(pairs, size):
            for general in (False, True):
                assert (loaded.query_details(failed, force_general=general)
                        == built.query_details(failed, force_general=general))


P52 = 2 ** 52


def test_multi_float_weights_load_as_built():
    # A float weight written as an int loaded back as an int, so a loaded
    # multi oracle added exactly where the build rounded, and answered an
    # int where the build answered a float.  Both graphs of that defect.
    cases = [
        (build_graph(3, False, [(0, 1, P52 + 1.0), (0, 2, P52 + 2.0),
                                (1, 2, 2.0)]), 2, (0, 1), "1.801439850948199e+16"),
        (build_graph(4, False, [(0, 1, 0.5), (1, 2, 1.5), (2, 3, 1.0),
                                (3, 0, 2.0), (0, 2, 3.0)]), 1, (1, 2), "7.0"),
    ]
    for g, f, pair, answer in cases:
        built = build_multi_fdo(g, f)
        loaded = loads_oracle(dumps_oracle(built))
        assert repr(loaded.swap_weight) == repr(built.swap_weight)
        got = [repr(o.query_details([pair])) for o in (built, loaded)]
        assert got[0] == got[1] and f"'answer': {answer}" in got[0]


# Graphs of the repr round trip, each connected: unit, int, float, mixed
# int and float, and zero weights, and float sums that cross 2^53.
ROUNDTRIP_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 4),
                   (3, 5), (5, 1)]
ROUNDTRIP_WEIGHTS = {
    "unit": None,
    "int": [3, 1, 4, 1, 5, 9, 2, 6, 5],
    "float": [0.5, 1.5, 1.0, 2.0, 3.0, 0.25, 4.0, 1.0, 2.5],
    "mixed": [1, 2.0, 3, 0.5, 2, 7.0, 1.5, 4, 3.0],
    "zero": [0, 1, 0, 2, 0.0, 3, 1.0, 0, 2],
    "near-2^53": [P52 + 1.0, P52 + 2.0, 2.0, P52 - 1.0, 3.0, P52 + 0.0,
                  1.0, P52 + 4.0, 5.0],
}
ROUNDTRIP_BUILDS = {
    "exact": (build_exact_fdo, ROUNDTRIP_WEIGHTS),
    "ecc": (build_ecc_fdo, ROUNDTRIP_WEIGHTS),
    "spanner": (lambda g: build_spanner_fdo(g, 2), ["unit"]),
    "approx": (lambda g: build_approx_fdo(g, 0.5), ["unit"]),
    "approx-pivot": (lambda g: build_approx_fdo(g, 1.0, scan_threshold=0),
                     ["unit"]),
    "multi": (lambda g: build_multi_fdo(g, 2), ROUNDTRIP_WEIGHTS),
    "multi-tight": (lambda g: build_multi_fdo(g, 3, mode="tight"),
                    ROUNDTRIP_WEIGHTS),
    "lowdiam": (lambda g: build_lowdiam_fdo(g, 2, delta=3.0), ["unit"]),
}


@pytest.mark.parametrize("kind, weights", [
    (kind, weights) for kind, (_, accepted) in ROUNDTRIP_BUILDS.items()
    for weights in accepted])
def test_loaded_transcripts_equal_built_by_repr(kind, weights):
    # Every kind, loaded from its own file, gives the query_details
    # transcript of its build for every failure set of at most f vertex
    # pairs, non-edges included, equal under repr: 7.0 is not 7.
    ws = ROUNDTRIP_WEIGHTS[weights]
    g = build_graph(6, False, ROUNDTRIP_EDGES if ws is None else
                    [(u, v, w) for (u, v), w in zip(ROUNDTRIP_EDGES, ws)])
    built = ROUNDTRIP_BUILDS[kind][0](g)
    text = dumps_oracle(built)
    loaded = loads_oracle(text)
    assert dumps_oracle(loaded) == text
    pairs = list(combinations(range(g.n), 2))
    # a single-failure oracle takes exactly one pair
    for size in range(built.f + 1) if hasattr(built, "f") else [1]:
        for failed in combinations(pairs, size):
            assert (repr(loaded.query_details(failed))
                    == repr(built.query_details(failed))), failed


def test_loader_rejects_huge_edge_count():
    # a single-failure file has no line per edge: m must fit the pairs of
    # its n vertices, and nothing is allocated by it
    text = "FDO exact 2 10000000000 fmt=2 dir=0 base=1\nD 0-1 2\n"
    got = parse_capped("loads_oracle", text)
    assert got.startswith("GraphError:") and "do not fit" in got, got
    text = "FDO exact 200000 10000000000 fmt=2 dir=0 base=1\nD 0-1 2\n"
    assert parse_capped("loads_oracle", text) == "loaded"


@pytest.mark.parametrize("r, seed", [(3, 1), (4, 2), (5, 3)])
def test_dense_lb_file_size_follows_the_payload(r, seed):
    # The Omega(m)-bit bound of stretch below 3/2 in the file: diam(G) is 2
    # and failing {b_i, d_j} lifts it to 3 exactly when bit (i, j) is 0, so
    # the exact oracle keeps one D line per edge that lifts the diameter,
    # and the loaded file still decodes every payload bit.
    inst = gen_dense_lb(random_payload(r, seed))
    g = inst.graph
    text = dumps_oracle(build_exact_fdo(g))
    lifting = sum(brute_diam(g, [(u, v)]) != 2 for u, v, _ in g.edges)
    assert sum(ln.startswith("D ") for ln in text.splitlines()) == lifting
    assert lifting >= sum(row.count(0) for row in inst.payload) > 0
    loaded = loads_oracle(text)
    assert inst.decode(loaded.query) == inst.payload
