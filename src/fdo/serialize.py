"""Versioned line-oriented text serialization shared by all oracles.

Layout (see README for the full grammar):

    FDO <kind> <n> <m> fmt=<2|3> dir=<0|1> <kind-specific key=value...>
    E <u> <v> <w>                edges in id order (multi, lowdiam)
    P <vertex>                   pivots (approx, pivot mode only)
    D <key> <value>              stored entries; 'inf' for infinity (not multi)

The single-failure kinds write fmt=2: ``D u-v value`` (u < v when
undirected) for each answer that differs from the fallback.  multi and
lowdiam write fmt=3, whose E lines are those of a graph file, the edge id
implied by the line order.  The loader builds one Graph from them and
passes it to the constructor a build uses: a multi file holds E lines
only, and MultiFDO derives its tree and the rest from the graph; a lowdiam
file adds the undominated subset entries (lowdiam.undominated), the ones
that can decide an answer.  Other versions are refused: rebuild.

Round trips are bit-exact: dumps(loads(text)) == text for anything dumps
produced, and rebuilding with the same seed yields identical bytes.
"""
from __future__ import annotations

from functools import partial
from operator import lt

from .graph import (GraphError, INF, _unwritten, build_graph, fmt_dist,
                    parse_dist, read_text)

# The oracle classes are imported by the makers below, so loading a file
# imports only the module of its kind.

# Header values: (parse, good), and good(value, n) holds for what builds
# write: a finite number >= 0 (a diameter, a fallback), or > 0 (eps,
# delta); inf and nan fail.
_FINITE = (parse_dist, lambda d, n: 0 <= d < INF)
_POSITIVE = (parse_dist, lambda d, n: 0 < d < INF)
_COUNT = (int, lambda v, n: v >= 1)


def _vertex(tok, n):
    v = int(tok)
    if not 0 <= v < n:
        raise ValueError(tok)
    return v


def _pair(tok, n, m, directed):
    # a single-failure D key: 'u-v', u < v when undirected
    u, v = map(int, tok.split("-"))
    if not (0 <= u < n and 0 <= v < n and u != v and (directed or u < v)):
        raise ValueError(tok)
    return u, v


def _subset(tok, n, m, directed):
    # a lowdiam D key: ascending edge ids joined by '-', or '-' if empty
    if tok == "-":
        return ()
    key = tuple(map(int, tok.split("-")))
    if not (0 <= key[0] and key[-1] < m and all(map(lt, key, key[1:]))):
        raise ValueError(tok)
    return key


def _multi_parts(o):
    # not vars(o): an instance's __dict__, once made, slows its queries
    return {"f": o.f, "mode": o.mode}, (), ()


def _make_multi(counts, g, entries, p, pivots):
    from .multi import MultiFDO
    return MultiFDO(g, p["f"], p["mode"])


def _subset_token(key):
    return "-".join(map(str, key)) or "-"


def _lowdiam_parts(o):
    entries = [(_subset_token(key), val)
               for key, val in sorted(o.table.items())]
    return {"f": o.f, "delta": o.delta, "base": o.base_diam}, [], entries


def _make_single(kind, counts, g, values, p, pivots):
    from .single import SingleFDO
    o = SingleFDO(kind, *counts, values, p, pivots)
    if o.fallback in values.values():   # no build keeps one
        raise GraphError(f"{kind} oracle file stores an entry equal to its "
                         f"fallback {fmt_dist(o.fallback)}")
    return o


def _make_lowdiam(counts, g, table, p, pivots):
    from .lowdiam import LowDiamFDO, undominated
    if () not in table:     # the empty subset's entry, which queries read
        raise GraphError("oracle file is missing stored entries")
    wide = next((key for key in table if len(key) > p["f"]), None)
    if wide:    # refused before undominated walks its 2^len subsets
        raise GraphError(f"lowdiam oracle file stores the entry 'D "
                         f"{_subset_token(wide)}' of {len(wide)} edges, "
                         f"more than f={p['f']}")
    kept = undominated(table)
    if len(kept) < len(table):      # no build keeps one
        key = next(key for key in table if key not in kept)
        raise GraphError(
            f"lowdiam oracle file stores the dominated entry 'D "
            f"{_subset_token(key)} {fmt_dist(table[key])}', not above the "
            "answer of every proper subset of its key")
    return LowDiamFDO(g, p["f"], p["delta"], p["base"], table,
                      backend="loaded")


def _single(kind, header, tags=("D",), dirs=("0",)):
    return ("2", tags, header, _pair,
            lambda o: (o.params, [f"P {v}" for v in o.pivots],
                       [(f"{u}-{v}", val)
                        for (u, v), val in sorted(o.values.items())]),
            partial(_make_single, kind), dirs)


# Per kind: its format version; the tags of the lines its files hold (E
# lines: one per edge); the header keys after dir=, in file order, with
# their checks; the parser of a D key, (token, n, m, directed) -> key;
# oracle -> (header values, P lines, sorted D entries); ((n, m, directed),
# the Graph of the E lines or None, D entries, header values, pivots) ->
# the oracle; and the dir= flags its builds write ("1" only where a build
# takes digraphs).
FORMATS = {
    "exact": _single("exact", {"base": _FINITE}, dirs=("0", "1")),
    "ecc": _single("ecc", {"source": (int, lambda v, n: 0 <= v < n),
                           "fallback": _FINITE}),
    "spanner": _single("spanner", {"k": _COUNT, "base": _FINITE}),
    "approx": _single("approx", {
        "base": _FINITE, "eps": _POSITIVE,
        "slack": (int, lambda v, n: v >= 0),
        "mode": (str, lambda v, n: v in ("exact-scan", "pivot"))},
        ("D", "P"), ("0", "1")),
    "multi": ("3", ("E",), {
        "f": _COUNT, "mode": (str, lambda v, n: v in ("paper", "tight"))},
        None, _multi_parts, _make_multi, ("0",)),
    "lowdiam": ("3", ("E", "D"), {
        "f": _COUNT, "delta": _POSITIVE, "base": _FINITE},
        _subset, _lowdiam_parts, _make_lowdiam, ("0",)),
}


def dumps_oracle(oracle) -> str:
    kind = oracle.kind
    if kind not in FORMATS:
        raise GraphError(f"cannot serialize oracle kind {kind!r}")
    version, tags, header, _, parts, _, _ = FORMATS[kind]
    params, rows, entries = parts(oracle)
    head = [f"FDO {kind} {oracle.n} {oracle.m} fmt={version}",
            f"dir={1 if oracle.directed else 0}"]
    head += [f"{key}={fmt_dist(params[key])}" for key in header]
    out = [" ".join(head)]
    if "E" in tags:
        out += [f"E {u} {v} {fmt_dist(w)}" for u, v, w in oracle.edges]
    out += rows
    out += [f"D {key} {fmt_dist(val)}" for key, val in entries]
    return "\n".join(out) + "\n"


def loads_oracle(text: str):
    """Parse an oracle file.  GraphError on malformed content and on what
    no build writes: a value out of range (an infinite base= or fallback=,
    an eps= or delta= not finite and above 0), a header key repeated or
    not of its kind, a repeated D key, E, P or D lines a kind lacks, more
    or fewer E lines than m, dir=1 in a kind that no digraph build writes,
    a format version other than its kind's, more edges than vertex pairs,
    fewer than n - 1 edges in a kind with E lines, a '+', '_' or non-ASCII
    character, an E line that is not two integers and a distance, in a
    single-failure file an undirected key u-v with u > v or a D value
    equal to the fallback, in a lowdiam file no empty subset's D line, a
    key of more than f edges or a dominated entry, one not above the
    answer of every proper subset of its key (lowdiam.undominated), and in
    a multi file a disconnected graph (MultiFDO refuses it, as on a build).

    The E lines of a multi or lowdiam file go to graph.build_graph, which
    refuses what it refuses in a graph file (an endpoint outside 0..n-1,
    u == v, a weight that is not finite and >= 0, a repeated vertex pair),
    and the Graph it makes to the constructor a build uses; so a loaded
    oracle is the built one."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("FDO "):
        raise GraphError("not an oracle file (missing FDO header)")
    bad = _unwritten(text) and next(filter(_unwritten, lines), None)
    if bad:
        raise GraphError(f"malformed oracle line {bad!r}")
    head = lines[0].split()
    if len(head) < 5:
        raise GraphError(f"truncated oracle header {lines[0]!r}")
    try:
        kind, n, m = head[1], int(head[2]), int(head[3])
    except ValueError:
        raise GraphError(f"bad oracle header {lines[0]!r}") from None
    if kind not in FORMATS:
        raise GraphError(f"unknown oracle kind {kind!r}")
    version, tags, header, parse_key, _, make, dirs = FORMATS[kind]
    raw = {}
    for tok in head[4:]:
        key, eq, val = tok.partition("=")
        if not eq or key in raw:
            raise GraphError(f"bad header token {tok!r}")
        raw[key] = val
    if raw.get("fmt") != version:
        raise GraphError(f"unsupported format version fmt={raw.get('fmt')!r} "
                         f"for kind {kind}, which is read as fmt={version}: "
                         "rebuild the oracle file")
    directed = raw.get("dir") == "1"
    if raw.get("dir") not in dirs:
        raise GraphError(f"bad direction flag dir={raw.get('dir')!r} in a "
                         f"{kind} oracle file")

    # Where a kind has E lines, each edge has one, and they must connect
    # the n vertices: check the counts before allocating by them.
    has_d, has_e, has_p = (t in tags for t in "DEP")
    edge_rows = m if has_e else 0
    if (n < 1 or not 0 <= m <= n * (n - 1) // (1 if directed else 2)
            or edge_rows > len(lines) - 1 or has_e and n > m + 1):
        raise GraphError(f"oracle header counts n={n} m={m} do not fit "
                         f"its {len(lines) - 1} body lines")
    params = {}
    for key, (parse, good) in header.items():
        if key not in raw:
            raise GraphError(f"oracle header lacks {key}=")
        try:
            params[key] = parse(raw[key])
            if not good(params[key], n):
                raise ValueError
        except ValueError:
            raise GraphError(f"bad header value {key}={raw[key]}") from None
    extra = raw.keys() - header.keys() - {"fmt", "dir"}
    if extra:
        raise GraphError(f"no {min(extra)}= key in {kind} oracle headers")
    edges = []
    entries = {}
    pivots = []
    for ln in lines[1:]:
        toks = ln.split()
        tag = toks[0]
        try:
            if tag == "E" and has_e:
                _, u, v, w = toks
                edges.append((int(u), int(v), parse_dist(w)))
            elif tag == "D" and has_d:
                key = parse_key(toks[1], n, m, directed)
                if key in entries:
                    raise GraphError(f"repeated stored entry {ln!r}")
                val = entries[key] = parse_dist(toks[2])
                if not val >= 0:
                    raise ValueError(val)
            elif tag == "P" and has_p:
                pivots.append(_vertex(toks[1], n))
            else:
                raise GraphError(f"no {tag!r} lines in {kind} oracle files")
        except GraphError:
            raise
        except (IndexError, ValueError):
            raise GraphError(f"malformed oracle line {ln!r}") from None
    if len(edges) != edge_rows:
        raise GraphError(f"oracle file holds {len(edges)} edge dictionary "
                         f"lines, not m={m}")
    g = build_graph(n, directed, edges) if has_e else None
    return make((n, m, directed), g, entries, params, pivots)


def save_oracle(oracle, path):
    """Write ``dumps_oracle(oracle)`` to ``path``; returns that text."""
    text = dumps_oracle(oracle)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def load_oracle(path):
    return loads_oracle(read_text(path))
