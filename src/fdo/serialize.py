"""Versioned line-oriented text serialization shared by all oracles.

Layout (see README for the full grammar):

    FDO <kind> <n> <m> fmt=1 dir=<0|1> <kind-specific key=value...>
    E <eid> <u> <v> <w>          edge dictionary, ascending ids
    P <vertex>                   pivots (approx, pivot mode only)
    V <vertex> <dist> <peid|->   tree rows (multi only)
    D <key> <value>              stored entries; 'inf' for infinity

Round trips are bit-exact: dumps(loads(text)) == text for anything dumps
produced, and rebuilding with the same seed yields identical bytes.
"""
from __future__ import annotations

from .graph import GraphError, fmt_dist, parse_dist, read_text
from .lowdiam import LowDiamFDO
from .multi import MultiFDO
from .single import ApproxFDO, EccFDO, ExactFDO, SpannerFDO


def dumps_oracle(oracle) -> str:
    kind = oracle.kind
    head = [f"FDO {kind} {oracle.n} {oracle.m} fmt=1",
            f"dir={1 if oracle.directed else 0}"]
    lines = []
    if kind == "exact":
        head.append(f"base={fmt_dist(oracle.base_diam)}")
        dlines = [(str(eid), fmt_dist(v)) for eid, v in enumerate(oracle.values)]
    elif kind == "ecc":
        head.append(f"source={oracle.source}")
        head.append(f"fallback={fmt_dist(oracle.fallback)}")
        dlines = [(str(eid), fmt_dist(oracle.values[eid]))
                  for eid in sorted(oracle.values)]
    elif kind == "spanner":
        head.append(f"k={oracle.k}")
        head.append(f"base={fmt_dist(oracle.base_diam)}")
        dlines = [(str(eid), fmt_dist(oracle.values[eid]))
                  for eid in sorted(oracle.values)]
    elif kind == "approx":
        head.append(f"base={fmt_dist(oracle.base_diam)}")
        head.append(f"eps={fmt_dist(oracle.epsilon)}")
        head.append(f"slack={oracle.slack}")
        head.append(f"mode={oracle.mode}")
        lines += [f"P {v}" for v in oracle.pivots]
        dlines = [(str(eid), fmt_dist(v)) for eid, v in enumerate(oracle.values)]
    elif kind == "multi":
        head.append(f"f={oracle.f}")
        head.append(f"mode={oracle.mode}")
        head.append(f"source={oracle.source}")
        head.append(f"maxdist={fmt_dist(oracle.maxdist)}")
        for v in range(oracle.n):
            peid = oracle.parent_eid[v]
            lines.append(f"V {v} {fmt_dist(oracle.dist[v])} "
                         f"{'-' if peid is None else peid}")
        dlines = [(str(eid), fmt_dist(v))
                  for eid, v in enumerate(oracle.swap_weight)]
    elif kind == "lowdiam":
        head.append(f"f={oracle.f}")
        head.append(f"delta={fmt_dist(oracle.delta)}")
        head.append(f"base={fmt_dist(oracle.base_diam)}")
        dlines = [("-" if not key else "-".join(map(str, key)), fmt_dist(val))
                  for key, val in sorted(oracle.table.items())]
    else:
        raise GraphError(f"cannot serialize oracle kind {kind!r}")

    out = [" ".join(head)]
    for eid, (u, v, w) in enumerate(oracle.edges):
        out.append(f"E {eid} {u} {v} {fmt_dist(w)}")
    out += lines
    out += [f"D {key} {val}" for key, val in dlines]
    return "\n".join(out) + "\n"


def loads_oracle(text: str):
    """Parse an oracle file; any malformed content raises GraphError."""
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("FDO "):
        raise GraphError("not an oracle file (missing FDO header)")
    head = lines[0].split()
    if len(head) < 5:
        raise GraphError(f"truncated oracle header {lines[0]!r}")
    try:
        kind, n, m = head[1], int(head[2]), int(head[3])
    except ValueError:
        raise GraphError(f"bad oracle header {lines[0]!r}") from None
    params = {}
    for tok in head[4:]:
        if "=" not in tok:
            raise GraphError(f"bad header token {tok!r}")
        key, val = tok.split("=", 1)
        params[key] = val
    if params.get("fmt") != "1":
        raise GraphError(f"unsupported format version {params.get('fmt')!r}")
    directed = params.get("dir") == "1"

    # Each edge has an E line and, in multi files, each vertex a V line:
    # check the counts before allocating by them.
    tree_rows = n if kind == "multi" else 0
    if n < 1 or m < 0 or m + tree_rows > len(lines) - 1:
        raise GraphError(f"oracle header counts n={n} m={m} do not fit "
                         f"its {len(lines) - 1} body lines")
    edges = [None] * m
    pivots = []
    vrows = [None] * tree_rows
    dlines = []
    for ln in lines[1:]:
        try:
            tag, rest = ln.split(" ", 1)
            toks = rest.split()
            if tag == "E":
                eid = int(toks[0])
                if eid < 0:
                    raise IndexError(eid)
                edges[eid] = (int(toks[1]), int(toks[2]), parse_dist(toks[3]))
            elif tag == "P":
                pivots.append(int(toks[0]))
            elif tag == "V":
                vid = int(toks[0])
                if vid < 0:
                    raise IndexError(vid)
                peid = None if toks[2] == "-" else int(toks[2])
                vrows[vid] = (parse_dist(toks[1]), peid)
            elif tag == "D":
                dlines.append(toks)
            else:
                raise GraphError(f"unknown oracle line tag {tag!r}")
        except GraphError:
            raise
        except (IndexError, ValueError):
            raise GraphError(f"malformed oracle line {ln!r}") from None
    if any(e is None for e in edges):
        raise GraphError("oracle file is missing edge dictionary lines")
    try:
        return _build(kind, n, m, directed, params, edges, pivots, vrows,
                      dlines)
    except KeyError as exc:
        raise GraphError(f"oracle header lacks {exc.args[0]}=") from None
    except GraphError:
        raise
    except (IndexError, ValueError) as exc:
        raise GraphError(f"malformed oracle value: {exc}") from None


def _build(kind, n, m, directed, params, edges, pivots, vrows, dlines):
    if kind == "exact":
        values = _dense_values(dlines, m)
        return ExactFDO(n, directed, edges, values, parse_dist(params["base"]))
    if kind == "ecc":
        values = {int(k): parse_dist(v) for k, v in dlines}
        return EccFDO(n, directed, edges, int(params["source"]), values,
                      parse_dist(params["fallback"]))
    if kind == "spanner":
        values = {int(k): parse_dist(v) for k, v in dlines}
        return SpannerFDO(n, directed, edges, int(params["k"]), values,
                          parse_dist(params["base"]))
    if kind == "approx":
        values = _dense_values(dlines, m)
        return ApproxFDO(n, directed, edges, values,
                         parse_dist(params["base"]), parse_dist(params["eps"]),
                         int(params["slack"]), params["mode"], pivots)
    if kind == "multi":
        if any(r is None for r in vrows):
            raise GraphError("multi oracle file is missing tree rows")
        swap = _dense_values(dlines, m)
        return MultiFDO(n, edges, int(params["f"]), params["mode"],
                        int(params["source"]), [r[0] for r in vrows],
                        [r[1] for r in vrows], swap_weight=swap,
                        maxdist=parse_dist(params["maxdist"]))
    if kind == "lowdiam":
        table = {}
        for k, v in dlines:
            key = () if k == "-" else tuple(int(x) for x in k.split("-"))
            table[key] = parse_dist(v)
        return LowDiamFDO(n, edges, int(params["f"]),
                          parse_dist(params["delta"]),
                          parse_dist(params["base"]), table, backend="loaded")
    raise GraphError(f"unknown oracle kind {kind!r}")


def _dense_values(dlines, m):
    values = [None] * m
    for k, v in dlines:
        eid = int(k)
        if eid < 0:
            raise IndexError(f"edge id {k} is negative")
        values[eid] = parse_dist(v)
    if any(v is None for v in values):
        raise GraphError("oracle file is missing stored entries")
    return values


def save_oracle(oracle, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_oracle(oracle))


def load_oracle(path):
    return loads_oracle(read_text(path))
