"""Fuzz tests of the three text parsers: ``parse_graph``, ``loads_oracle``
and the CLI's query-line parser.

Hypothesis mutates valid graph files and valid oracle files of every kind
(replaced tokens and header values, header counts included; dropped,
repeated, swapped and inserted lines) and draws free-form query lines.
Every input must either parse or raise ``GraphError``, which the CLI turns
into an ``error:`` line or exit code 2; any other exception is a traceback.

Graph files also get non-finite weight tokens and huge header counts, and
a graph that parses must have finite non-negative weights and no more than
m + 1 vertices.  An oracle that parses must answer ``inf`` or a number
>= 0 to every single-edge failure set, and to the empty set where the
kind takes it.
"""
from hypothesis import given, settings, strategies as st

from fdo import (INF, GraphError, build_approx_fdo, build_ecc_fdo,
                 build_exact_fdo, build_graph, build_lowdiam_fdo,
                 build_multi_fdo, build_spanner_fdo, dumps_oracle, gen_random,
                 loads_oracle, parse_graph)
from fdo.cli import _parse_query_line
from fdo.graph import format_graph

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None)

SMALL = st.integers(-3, 40).map(str)
HUGE = st.sampled_from(["10000000000", "99999999999999999999"])
NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                              "1e999", "-1e999"])
ODD = st.sampled_from(["", "x", "-", "--2", "+3", "1.5", "inf", "nan",
                       "1e999", "0x1", "1_0", "²", "١", "D", "U",
                       "W", "UW", "E", "V", "P", "FDO", "=", "fmt=1",
                       "fmt=2", "0-1", "1-0", "2-2", "0-99", "3-1-2", "-1-2",
                       "1-", "+0-1", "0-0_1", "1_0-11", "0-\u0661", "+0",
                       "\u0660"])


def _graph_texts():
    c4 = build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
    dg = build_graph(3, True, [(0, 1), (1, 2), (2, 0)])
    wg = build_graph(4, False, [(0, 1, 2), (1, 2, 0.5), (2, 3, 0), (0, 3, 7)])
    return [format_graph(g) for g in (c4, dg, wg)]


def _oracle_texts():
    c4 = build_graph(4, False, [(0, 1), (1, 2), (2, 3), (3, 0)])
    wg = gen_random("er-weighted", seed=5, n=6, p=0.5)
    dg = build_graph(8, True, [(i, (i + 1) % 8) for i in range(8)]
                     + [(0, 4)])
    hub = gen_random("low-diam-hub", seed=3, n=6, p=0.2)
    oracles = [build_exact_fdo(c4), build_ecc_fdo(wg),
               build_spanner_fdo(c4, 2),
               build_approx_fdo(dg, 1.0, scan_threshold=0),
               build_approx_fdo(c4, 0.5), build_multi_fdo(wg, 2),
               build_lowdiam_fdo(hub, 2, delta=2.0)]
    # and a single-failure file of format 1, which no longer loads
    old = ("FDO exact 4 4 fmt=1 dir=0 base=2\nE 0 0 1 1\nE 1 1 2 1\n"
           "E 2 2 3 1\nE 3 3 0 1\nD 0 3\nD 1 3\nD 2 3\nD 3 3\n")
    return [dumps_oracle(o) for o in oracles] + [old]


GRAPH_TEXTS = _graph_texts()
ORACLE_TEXTS = _oracle_texts()


@st.composite
def mutations(draw, text, huge):
    """``text`` with one to three random line or token edits.  ``huge``
    draws the numbers that may become the header's first count."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["token", "token", "value", "drop", "dup",
                                   "swap", "insert"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            number = huge if i == 0 else HUGE
            lines.insert(i, " ".join(draw(st.lists(
                st.one_of(SMALL, number, ODD), max_size=5))))
        elif op in ("token", "value"):
            toks = lines[i].split(" ")
            j = draw(st.integers(0, len(toks) - 1))
            number = huge if (i, j) == (0, 0) else HUGE
            new = draw(st.one_of(SMALL, number, ODD))
            key, eq, _ = toks[j].partition("=")
            toks[j] = f"{key}={new}" if op == "value" and eq else new
            lines[i] = " ".join(toks)
        elif op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def weight_edits(draw, text):
    """``text`` with the weight of one edge line replaced."""
    lines = text.splitlines()
    i = draw(st.integers(1, len(lines) - 1))
    lines[i] = " ".join(lines[i].split(" ")[:2] + [draw(NON_FINITE)])
    return "\n".join(lines) + "\n"


@FUZZ
@given(data=st.data())
def test_parse_graph_parses_or_raises_graph_error(data):
    text = data.draw(st.sampled_from(GRAPH_TEXTS).flatmap(
        lambda t: st.one_of(mutations(t, huge=HUGE), weight_edits(t))))
    try:
        g = parse_graph(text)
    except GraphError:
        return
    assert g.n <= g.m + 1
    assert all(0 <= w < INF for _, _, w in g.edges)


@FUZZ
@given(data=st.data())
def test_loads_oracle_parses_or_raises_graph_error(data):
    text = data.draw(st.sampled_from(ORACLE_TEXTS).flatmap(
        lambda t: mutations(t, huge=HUGE)))
    try:
        o = loads_oracle(text)
    except GraphError:
        return
    # what loads answers with distances: each single edge (a single-failure
    # oracle: each stored pair and the pairs of its first vertices), and the
    # empty set where the kind takes it
    if o.kind in ("lowdiam", "multi"):
        sets = [[(u, v)] for u, v, _ in o.edges] + [[]]
    else:
        first = range(min(o.n, 5))
        sets = [[pair] for pair in o.values] + [
            [(u, v)] for u in first for v in first if u != v]
    for pairs in sets:
        try:
            answer = o.query(pairs)
        except GraphError:      # an edited E line need not be a vertex pair
            continue
        assert answer == INF or 0 <= answer < INF, (pairs, answer)


@FUZZ
@given(line=st.one_of(
    st.text(max_size=24),
    st.text(alphabet="0123456789-+_ \t²١x", max_size=24)))
def test_query_line_parses_or_raises_graph_error(line):
    try:
        pairs = _parse_query_line(line)
    except GraphError:
        return
    assert all(type(u) is int and type(v) is int for u, v in pairs)
