"""Command-line surface: build oracles, answer streamed queries, generate
instances, and audit oracles against brute force.

All data output is line-delimited: distances as plain numbers ('inf' when
infinite), records as one JSON object per line.  Every command is
deterministic given its arguments; wall-clock times live in a separate
"timing" field so the data portion is reproducible byte for byte.
Randomized builds refuse to run without an explicit --seed unless
--default-seed is passed.
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

DEFAULT_SEED = 0xFD0

# Bytes asked of the query source per read: bulk input is answered in few
# large writes, and a read returns early with what a pipe holds.
QUERY_CHUNK = 1 << 16


def _emit(record, stream=None):
    import json
    print(json.dumps(record, sort_keys=True), file=stream or sys.stdout)


def _num(x):
    return "inf" if x == INF else x


def _seed_for(args, needed: bool):
    if not needed:
        return args.seed
    if args.seed is not None:
        return args.seed
    if args.default_seed:
        return DEFAULT_SEED
    raise GraphError("this build is randomized: pass --seed N or --default-seed")


def _build_oracle(g, args):
    """Shared by `build` and `audit`; returns (oracle, info-dict)."""
    kind = args.kind
    info = {"kind": kind}
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
        seed = _seed_for(args, args.pivot_mode == "random")
        oracle = single.build_approx_fdo(
            g, args.eps, pivot_mode=args.pivot_mode, seed=seed, C=args.C,
            scan_threshold=args.scan_threshold)
        info.update(eps=args.eps, mode=oracle.params["mode"], seed=seed,
                    pivot_count=len(oracle.pivots))
    elif kind == "multi":
        from .multi import build_multi_fdo
        oracle = build_multi_fdo(g, args.f, mode="tight" if args.tight else "paper")
        info.update(f=args.f, mode=oracle.mode)
    else:   # lowdiam; f=1 builds the exact single-failure oracle
        sampled = args.backend == "sampled" and args.f > 1
        backend = "sampled" if sampled else "exact"
        seed = _seed_for(args, sampled)
        from .lowdiam import build_lowdiam_fdo
        oracle = build_lowdiam_fdo(g, args.f, args.delta, backend=backend,
                                   seed=seed, dso_delta=args.dso_delta,
                                   dso_C=args.C)
        info.update(f=args.f, delta=args.delta, backend=backend, seed=seed)
        if sampled:
            info["subgraph_count"] = oracle.subgraph_count
    return oracle, info


def cmd_build(args):
    g = load_graph(args.graph)
    t0 = time.perf_counter()
    oracle, info = _build_oracle(g, args)
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
    from fractions import Fraction

    from .instances import (format_manifest, gen_dense_lb, gen_multi_lb,
                            gen_multi_lb_f1, gen_random, gen_sparse_lb,
                            gen_weighted_lb, random_payload)
    random_kinds = {"er": "er-undirected",
                    "er-digraph": "er-strongly-connected-digraph",
                    "er-weighted": "er-weighted",
                    "low-diam-hub": "low-diam-hub"}
    inst = None
    if args.kind in random_kinds:
        seed = _seed_for(args, True)
        g = gen_random(random_kinds[args.kind], seed, n=args.n, p=args.p,
                       weight_max=args.weight_max)
    else:
        seed = args.payload_seed
        if seed is None:
            if not args.default_seed:
                raise GraphError("gadget payloads are randomized: pass "
                                 "--payload-seed N or --default-seed")
            seed = DEFAULT_SEED
        if args.kind == "dense-lb":
            inst = gen_dense_lb(random_payload(args.r, seed))
        elif args.kind == "sparse-lb":
            inst = gen_sparse_lb(random_payload(args.r, seed), args.n)
        elif args.kind == "weighted-lb":
            inst = gen_weighted_lb(random_payload(args.r, seed),
                                   Fraction(args.eps_num, args.eps_den),
                                   n=args.n if args.n else None)
        elif args.kind == "multi-lb":
            rng = random.Random(seed)
            span = args.f // 2
            count = args.f * args.k
            kept = {(i, j) for i in range(count)
                    for j in range(i + 1, min(i + span + 1, count))
                    if rng.random() < 0.5}
            inst = gen_multi_lb(args.f, args.k, args.n, kept)
        elif args.kind == "multi-lb-f1":
            rng = random.Random(seed)
            kept = {i for i in range(args.n // 2 - 1) if rng.random() < 0.5}
            inst = gen_multi_lb_f1(args.n, kept)
        else:
            raise GraphError(f"unknown generator {args.kind!r}")
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
    if args.oracle:
        oracle = load_oracle(args.oracle)
        info = {"kind": oracle.kind, "oracle": args.oracle}
    elif args.kind:
        oracle, info = _build_oracle(g, args)
    else:
        raise GraphError("audit needs --kind (to build) or --oracle (a file)")
    stretch = args.stretch if args.stretch else _default_stretch(oracle)
    failures = getattr(oracle, "f", 1) if args.failures is None else args.failures
    sets = list(enumerate_failures(g, failures, samples=args.samples,
                                   seed=args.enum_seed))
    report = audit(oracle, g, sets, stretch=stretch)
    out = open(args.records, "w", encoding="utf-8") if args.records else None
    for rec in report.records:
        _emit({"record": "audit",
               "F": " ".join(f"{u}-{v}" for u, v in rec.failures),
               "answer": _num(rec.answer), "truth": _num(rec.truth),
               "ratio": _num(rec.ratio), "ok": rec.ok}, out)
    summary = {"record": "audit-summary", "stretch": stretch,
               "queries": report.queries, "violations": report.violations,
               "max_ratio": _num(report.max_ratio),
               "timing": {"wall_s": round(report.wall_s, 6)}}
    summary.update(info)
    _emit(summary, out)
    if out:
        out.close()
        _emit(summary)  # keep the verdict visible on stdout as well
    return 1 if report.violations else 0


def make_parser():
    ap = argparse.ArgumentParser(
        prog="fdo",
        description="Fault-tolerant diameter oracles: build, query, gen, audit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_build_opts(p, kind_required=True):
        p.add_argument("--kind", required=kind_required, choices=tuple(FORMATS))
        p.add_argument("--eps", type=float, default=0.5,
                       help="approx: approximation parameter")
        p.add_argument("--k", type=int, default=2, help="spanner parameter")
        p.add_argument("--f", type=int, default=2, help="failure budget")
        p.add_argument("--delta", type=float, default=2.0,
                       help="lowdiam: diameter-gate exponent")
        p.add_argument("--dso-delta", type=float, default=None,
                       help="lowdiam: sampled-backend exponent (default: delta)")
        p.add_argument("--C", type=float, default=3.0,
                       help="sampling constant for randomized parts")
        p.add_argument("--pivot-mode", choices=("deterministic", "random"),
                       default="deterministic")
        p.add_argument("--scan-threshold", type=int, default=None,
                       help="approx: exact-scan cutoff for the additive slack")
        p.add_argument("--backend", choices=("auto", "exact", "sampled"),
                       default="auto",
                       help="lowdiam distance backend (auto: exact)")
        p.add_argument("--tight", action="store_true",
                       help="multi: multiply by failed tree edges, not f")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--default-seed", action="store_true",
                       help=f"allow the built-in seed {DEFAULT_SEED}")

    b = sub.add_parser("build", help="build and serialize an oracle")
    b.add_argument("--graph", required=True)
    b.add_argument("--out", required=True)
    add_build_opts(b)
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
    gp.add_argument("--weight-max", type=int, default=10)
    gp.add_argument("--r", type=int, default=3, help="gadget payload side")
    gp.add_argument("--f", type=int, default=2)
    gp.add_argument("--k", type=int, default=3)
    gp.add_argument("--eps-num", type=int, default=1)
    gp.add_argument("--eps-den", type=int, default=3)
    gp.add_argument("--seed", type=int, default=None)
    gp.add_argument("--payload-seed", type=int, default=None)
    gp.add_argument("--default-seed", action="store_true")
    gp.set_defaults(func=cmd_gen)

    a = sub.add_parser("audit", help="compare an oracle against brute force")
    a.add_argument("--graph", required=True)
    a.add_argument("--oracle", default=None,
                   help="audit a serialized oracle instead of building")
    a.add_argument("--stretch", type=float, default=None)
    a.add_argument("--failures", type=int, default=None)
    a.add_argument("--samples", type=int, default=2000)
    a.add_argument("--enum-seed", type=int, default=0)
    a.add_argument("--records", default=None,
                   help="write records to a file instead of stdout")
    add_build_opts(a, kind_required=False)
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
