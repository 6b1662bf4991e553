"""Command-line surface: build oracles, answer streamed queries, generate
instances, and audit oracle files against brute force.

All data output is line-delimited: distances as plain numbers ('inf' when
infinite), records as one JSON object per line.  Every command is
deterministic given its arguments; wall-clock times live in a separate
"timing" field so the data portion is reproducible byte for byte.
Every generator refuses to run without --seed, and so do the builders of
randomized oracles: `build` hands --seed and --backend to them unchanged.
"""
from __future__ import annotations

import argparse
import sys
import time

from .graph import GraphError, INF, fmt_dist, load_graph, save_graph
from .serialize import FORMATS, load_oracle, save_oracle

# `query` runs none of json, random, fractions, fdo.verify, fdo.instances or
# the builders, so the commands that do import them themselves: a query
# starts faster, and loads only the oracle module of its file's kind.

# Bytes asked of the query source per read: bulk input is answered in few
# large writes, and a read returns early with what a pipe holds.
QUERY_CHUNK = 1 << 16


def _emit(record):
    import json
    print(json.dumps(record, sort_keys=True))


def _num(x):
    return "inf" if x == INF else x


def cmd_build(args):
    g = load_graph(args.graph)
    kind = args.kind
    info = {"kind": kind, "seed": args.seed}
    t0 = time.perf_counter()
    if kind in ("exact", "ecc", "spanner", "approx"):
        from . import single
    if kind == "exact":
        oracle = single.build_exact_fdo(g)
    elif kind == "ecc":
        oracle = single.build_ecc_fdo(g)
    elif kind == "spanner":
        oracle = single.build_spanner_fdo(g, args.k)
        info["k"] = args.k
    elif kind == "approx":
        oracle = single.build_approx_fdo(
            g, args.eps, pivot_mode=args.pivot_mode, seed=args.seed, C=args.C)
        info.update(eps=args.eps, mode=oracle.params["mode"],
                    pivot_count=len(oracle.pivots))
    elif kind == "multi":
        from .multi import build_multi_fdo
        oracle = build_multi_fdo(g, args.f, mode="tight" if args.tight else "paper")
        info.update(f=args.f, mode=oracle.mode)
    else:   # lowdiam
        from .lowdiam import build_lowdiam_fdo
        oracle = build_lowdiam_fdo(g, args.f, args.delta, backend=args.backend,
                                   seed=args.seed, dso_delta=args.dso_delta,
                                   dso_C=args.C)
        # f=1 builds the exact single-failure oracle, which has no backend
        backend = getattr(oracle, "backend", "exact")
        info.update(f=args.f, delta=args.delta, backend=backend)
        if backend == "sampled":
            info["subgraph_count"] = oracle.subgraph_count
    wall = time.perf_counter() - t0
    text = save_oracle(oracle, args.out)
    record = {"record": "build-stats", "graph": args.graph, "out": args.out,
              "n": g.n, "m": g.m, "entries": text.count("\nD "),
              "timing": {"wall_s": round(wall, 6)}}
    record.update(info)
    _emit(record)
    return 0


def _parse_query_line(line):
    pairs = []
    try:
        for tok in line.split():
            u, sep, v = tok.partition("-")
            if (not sep or not tok.isascii() or not u.lstrip("-").isdigit()
                    or not v.lstrip("-").isdigit()):
                raise ValueError(tok)
            pairs.append((int(u), int(v)))
    except ValueError:
        # isdigit() and int() take other scripts' digits, hence isascii();
        # int() also refuses tokens that pass isdigit(), e.g. '--2' or '²'
        raise GraphError(f"malformed pair {tok!r}, want 'u-v'") from None
    return pairs


def _line_batches(src, size):
    """Yield the complete lines of each read from the binary ``src`` as one
    list of bytes.  Lines end at \\n, \\r\\n or \\r, as in a file read
    with universal newlines; a partial last line waits for the next read
    (a \\r\\n split between two reads adds a blank line)."""
    pending = []
    while chunk := src.read1(size):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield b"".join(pending).splitlines()
        pending = [chunk[cut:]]
    yield b"".join(pending).splitlines()


def serve_queries(oracle, src, dst, size=QUERY_CHUNK):
    """Answer the query lines read from the binary stream ``src`` on the
    text stream ``dst``, one output line per query line.  Blank and '#'
    lines are skipped; a line that does not parse or is not UTF-8 gives an
    'error: ...' line and the stream goes on.  Each read's answers go out
    in one write and one flush, so a caller that sends one line and waits
    gets its answer however ``dst`` is buffered."""
    for batch in _line_batches(src, size):
        out = []
        try:
            for raw in batch:
                try:
                    line = raw.decode("utf-8").strip()
                    if not line or line.startswith("#"):
                        continue
                    out.append(fmt_dist(oracle.query(_parse_query_line(line))))
                except GraphError as exc:
                    out.append(f"error: {exc}")
                except UnicodeDecodeError as exc:
                    out.append(f"error: query line is not UTF-8 ({exc.reason}"
                               f" at byte {exc.start})")
        finally:
            if out:
                dst.write("\n".join(out) + "\n")
                dst.flush()


def cmd_query(args):
    oracle = load_oracle(args.oracle)
    if args.queries:
        with open(args.queries, "rb") as src:
            serve_queries(oracle, src, sys.stdout)
    else:
        serve_queries(oracle, sys.stdin.buffer, sys.stdout)
    return 0


def cmd_gen(args):
    import random

    from .instances import (format_manifest, gen_dense_lb, gen_multi_lb,
                            gen_multi_lb_f1, gen_random, gen_sparse_lb,
                            gen_weighted_lb, random_payload)
    random_kinds = {"er": "er-undirected",
                    "er-digraph": "er-strongly-connected-digraph",
                    "er-weighted": "er-weighted",
                    "low-diam-hub": "low-diam-hub"}
    inst = None
    seed = args.seed
    if args.kind in random_kinds:
        g = gen_random(random_kinds[args.kind], seed, n=args.n, p=args.p)
    else:
        if args.kind == "dense-lb":
            inst = gen_dense_lb(random_payload(args.r, seed))
        elif args.kind == "sparse-lb":
            inst = gen_sparse_lb(random_payload(args.r, seed), args.n)
        elif args.kind == "weighted-lb":
            inst = gen_weighted_lb(random_payload(args.r, seed), args.eps,
                                   n=args.n if args.n else None)
        elif args.kind == "multi-lb":
            inst = gen_multi_lb(args.f, args.k, args.n, random.Random(seed))
        else:   # multi-lb-f1
            inst = gen_multi_lb_f1(args.n, random.Random(seed))
        g = inst.graph
    save_graph(g, args.out)
    record = {"record": "gen", "kind": args.kind, "n": g.n, "m": g.m,
              "seed": seed, "out": args.out}
    if inst is not None:
        manifest = args.manifest or args.out + ".manifest"
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(format_manifest(inst))
        record["manifest"] = manifest
    _emit(record)
    return 0


def _default_stretch(oracle):
    kind = oracle.kind
    if kind in ("exact", "lowdiam"):
        return 1.0
    if kind == "ecc":
        return 2.0
    if kind == "spanner":
        base = oracle.params["base"]    # diam(G)
        return 1.0 + 2 * (oracle.params["k"] - 1) / base if base > 0 else 1.0
    if kind == "approx":
        return 1.0 + oracle.params["eps"]
    return oracle.f + 2.0   # multi


def cmd_audit(args):
    from .verify import audit, enumerate_failures

    g = load_graph(args.graph)
    oracle = load_oracle(args.oracle)
    stretch = _default_stretch(oracle) if args.stretch is None else args.stretch
    f = getattr(oracle, "f", 1)
    failures = f if args.failures is None else args.failures
    if failures > f:
        # refused before the brute force of every smaller set, not after
        raise GraphError(f"--failures {failures} exceeds the oracle's "
                         f"failure budget f={f}")
    sets = list(enumerate_failures(g, failures, samples=args.samples,
                                   seed=args.seed))
    report = audit(oracle, g, sets, stretch=stretch)
    for rec in report.records:
        _emit({"record": "audit",
               "F": " ".join(f"{u}-{v}" for u, v in rec.failures),
               "answer": _num(rec.answer), "truth": _num(rec.truth),
               "ratio": _num(rec.ratio), "ok": rec.ok})
    _emit({"record": "audit-summary", "stretch": stretch,
           "queries": report.queries, "violations": report.violations,
           "max_ratio": _num(report.max_ratio),
           "timing": {"wall_s": round(report.wall_s, 6)},
           "kind": oracle.kind, "oracle": args.oracle})
    return 1 if report.violations else 0


def make_parser():
    def fraction(text):     # argparse names the type in its messages
        from fractions import Fraction
        try:
            return Fraction(text)
        except ZeroDivisionError:   # which argparse would let through
            raise argparse.ArgumentTypeError(
                f"zero denominator in {text!r}") from None

    ap = argparse.ArgumentParser(
        prog="fdo",
        description="Fault-tolerant diameter oracles: build, query, gen, audit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build and serialize an oracle")
    b.add_argument("--graph", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--kind", required=True, choices=tuple(FORMATS))
    b.add_argument("--eps", type=float, default=0.5,
                   help="approx: approximation parameter")
    b.add_argument("--k", type=int, default=2, help="spanner parameter")
    b.add_argument("--f", type=int, default=2, help="failure budget")
    b.add_argument("--delta", type=float, default=2.0,
                   help="lowdiam: diameter-gate exponent")
    b.add_argument("--dso-delta", type=float, default=None,
                   help="lowdiam: sampled-backend exponent (default: delta)")
    b.add_argument("--C", type=float, default=3.0,
                   help="sampling constant for randomized parts")
    b.add_argument("--pivot-mode", choices=("deterministic", "random"),
                   default="deterministic")
    b.add_argument("--backend", choices=("exact", "sampled"), default="exact",
                   help="lowdiam distance backend")
    b.add_argument("--tight", action="store_true",
                   help="multi: multiply by failed tree edges, not f")
    b.add_argument("--seed", type=int, default=None,
                   help="required by random pivots and the sampled backend")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer failure-set queries from a stream")
    q.add_argument("--oracle", required=True)
    q.add_argument("--queries", default=None,
                   help="file of query lines (default: stdin)")
    q.set_defaults(func=cmd_query)

    gp = sub.add_parser("gen", help="generate graphs and gadget instances")
    gp.add_argument("--kind", required=True,
                    choices=("er", "er-digraph", "er-weighted", "low-diam-hub",
                             "dense-lb", "sparse-lb", "weighted-lb",
                             "multi-lb", "multi-lb-f1"))
    gp.add_argument("--out", required=True)
    gp.add_argument("--manifest", default=None)
    gp.add_argument("--n", type=int, default=16)
    gp.add_argument("--p", type=float, default=0.25)
    gp.add_argument("--r", type=int, default=3, help="gadget payload side")
    gp.add_argument("--f", type=int, default=2)
    gp.add_argument("--k", type=int, default=3)
    gp.add_argument("--eps", type=fraction, default="1/3",
                    help="weighted-lb: eps as a fraction, e.g. 1/4 or 0.25")
    gp.add_argument("--seed", type=int, required=True,
                    help="random graph or gadget payload seed")
    gp.set_defaults(func=cmd_gen)

    a = sub.add_parser("audit",
                       help="compare an oracle file against brute force")
    a.add_argument("--graph", required=True)
    a.add_argument("--oracle", required=True)
    a.add_argument("--stretch", type=float, default=None)
    a.add_argument("--failures", type=int, default=None)
    a.add_argument("--samples", type=int, default=2000)
    a.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled failure sets")
    a.set_defaults(func=cmd_audit)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"fdo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
