"""Span tracing of the fdo layers, installed from outside the program.

``install`` replaces every public function of the traced fdo modules, at
every module that bound it (``from .graph import sssp`` makes a binding of
its own in ``fdo.dso``), and the public methods of their classes, with a
wrapper that records a span: name, start, end, parent span, run id (the
root span of the call tree) and the phase of the benchmark.  Spans stay in
memory; ``write_jsonl`` dumps them when the run ends.  While ``on`` is
false a wrapper only forwards the call, so the benchmark can switch
tracing off around its own brute-force audits.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics.  A metric whose spans name a function the program no longer has
is reported in ``absent`` instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter_ns

TRACED_MODULES = ("graph", "dso", "single", "multi", "lowdiam", "serialize",
                  "cli")

# Scalar helpers that run per edge or per line; a span costs more than they
# do and would only measure the tracer.
UNTRACED = {"dist_eq", "pair_key", "fmt_dist", "parse_dist"}
UNTRACED_CLASSES = {"Graph", "ShortestPathTree"}

# Values kept with a span, computed from (args, result) of the call.
NOTES = {
    "dso.build_sampled_fdso": lambda a, r: r.k,
    "dso.SampledFDSO.surviving_subgraphs": lambda a, r: len(r),
    "single.build_approx_fdo": lambda a, r: len(r.pivots),
    "multi.MultiFDO.query": lambda a, r: a[0].f,
    "multi.MultiFDO.query_details": lambda a, r: (a[0].f, r["k"]),
    "lowdiam.build_lowdiam_fdo": lambda a, r: (r.backend, len(r.table)),
    "serialize.dumps_oracle": lambda a, r: len(r.encode()),
}

# Span fields.  A finished span is a tuple of atoms, which the garbage
# collector stops tracking, so a long trace does not slow collections down
# for the program being measured.
SID, NAME, START, END, PARENT, RUN, PHASE, SELF, NOTE = range(9)


class Tracer:
    def __init__(self):
        self.on = False
        self.phase = None
        self.names = set()
        self._spans = []        # in order of completion
        self._stack = []        # open spans: [sid, start, children's total]
        self._next = 0
        self._wrappers = {}

    @property
    def spans(self):
        """Finished spans in start order, so ``spans[sid]`` is span sid."""
        self._spans.sort()
        return self._spans

    def wrap(self, name, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next
            tracer._next += 1
            parent, run = (stack[-1][0], stack[0][0]) if stack else (-1, sid)
            phase = tracer.phase
            frame = [sid, 0, 0]
            stack.append(frame)
            frame[1] = start = perf_counter_ns()
            value = None
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    try:
                        value = note(args, result)
                    except (AttributeError, KeyError, TypeError):
                        pass
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                tracer._spans.append((sid, name, start, end, parent, run,
                                      phase, dur - frame[2], value))

        self._wrappers[fn] = traced
        self.names.add(name)
        return traced

    def install(self):
        """Wrap the traced modules' public functions and methods in place."""
        pkg = importlib.import_module("fdo")
        modules = [importlib.import_module(f"fdo.{m}") for m in TRACED_MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj) and attr not in UNTRACED:
                    originals[obj] = f"{short}.{attr}"
                elif inspect.isclass(obj) and attr not in UNTRACED_CLASSES:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__"
                                                       or not meth.startswith("_")):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        for mod in [pkg, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, self.wrap(originals[obj], obj))

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[SID], "name": s[NAME], "start_ns": s[START],
                    "end_ns": s[END], "parent": s[PARENT], "run": s[RUN],
                    "phase": s[PHASE], "self_ns": s[SELF], "note": s[NOTE]},
                    separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _quantile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(tracer):
    """Per-layer metrics from one traced run: {name: (value, unit)} plus the
    sorted list of metrics whose traced functions the program lacks."""
    spans = tracer.spans
    by = {}
    for s in spans:
        by.setdefault((s[NAME], s[PHASE]), []).append(s)
    metrics, absent = {}, []

    def sel(name, phase="setup"):
        return by.get((name, phase), [])

    def put(metric, unit, needs, value):
        if not any(n in tracer.names for n in needs):
            absent.append(metric)
            value = 0
        metrics[metric] = (value, unit)

    def calls(name, phase="setup"):
        return len(sel(name, phase))

    def incl_s(name, phase="setup", keep=lambda s: True):
        return sum(s[END] - s[START] for s in sel(name, phase) if keep(s)) / 1e9

    def self_s(name):
        return sum(s[SELF] for s in sel(name)) / 1e9

    def under(child, parent, phase="setup"):
        return sum(1 for s in spans if s[PHASE] == phase and s[PARENT] >= 0
                   and spans[s[PARENT]][NAME] == parent
                   and (child(s[NAME]) if callable(child) else s[NAME] == child))

    def lat_us(spans_, q):
        return _quantile([(s[END] - s[START]) / 1e3 for s in spans_], q)

    def notes(name, phase="setup"):
        return [s[NOTE] for s in sel(name, phase) if s[NOTE] is not None]

    for fn in ("distances", "sssp"):
        name = f"graph.{fn}"
        put(f"{name}.calls", "count", [name], calls(name))
        put(f"{name}.self_s", "s", [name], self_s(name))
    for fn in ("in_tree", "is_connected", "diameter"):
        put(f"graph.{fn}.calls", "count", [f"graph.{fn}"], calls(f"graph.{fn}"))
    put("graph.strong_bridges.s", "s", ["graph.strong_bridges"],
        incl_s("graph.strong_bridges"))

    rt = "dso.SingleDSO.replacement_tree"
    put("dso.SingleDSO.init_s", "s", ["dso.SingleDSO.__init__"],
        incl_s("dso.SingleDSO.__init__"))
    rt_calls, rt_misses = calls(rt), under("graph.sssp", rt)
    put("dso.replacement_tree.calls", "count", [rt], rt_calls)
    put("dso.replacement_tree.misses", "count", [rt], rt_misses)
    put("dso.replacement_tree.hit_ratio", "ratio", [rt],
        1 - rt_misses / rt_calls if rt_calls else 0.0)
    put("dso.build_sampled_fdso.s", "s", ["dso.build_sampled_fdso"],
        incl_s("dso.build_sampled_fdso"))
    put("dso.sampled.subgraphs", "count", ["dso.build_sampled_fdso"],
        sum(notes("dso.build_sampled_fdso")))
    put("dso.sampled_fdso_query.calls", "count", ["dso.sampled_fdso_query"],
        calls("dso.sampled_fdso_query"))
    put("dso.sampled_fdso_query.s", "s", ["dso.sampled_fdso_query"],
        incl_s("dso.sampled_fdso_query"))
    surv = notes("dso.SampledFDSO.surviving_subgraphs")
    put("dso.sampled.survivors_mean", "count",
        ["dso.SampledFDSO.surviving_subgraphs"],
        statistics.fmean(surv) if surv else 0.0)

    for fn in ("build_exact_fdo", "build_approx_fdo", "build_spanner_fdo",
               "build_ecc_fdo", "deterministic_pivots", "greedy_hitting_set"):
        put(f"single.{fn}.s", "s", [f"single.{fn}"], incl_s(f"single.{fn}"))
    put("single.pivots", "count", ["single.build_approx_fdo"],
        sum(notes("single.build_approx_fdo")))
    single_q = [n for n in tracer.names
                if n.startswith("single.") and n.endswith(".query")]
    put("single.query.us", "us", single_q,
        lat_us([s for n in single_q for s in sel(n, "query")], 0.5))

    put("multi.build_multi_fdo.s", "s", ["multi.build_multi_fdo"],
        incl_s("multi.build_multi_fdo"))
    qd = [s for s in sel("multi.MultiFDO.query_details", "query")
          if s[NOTE] is not None and s[NOTE][0] > 1]
    for q, tag in ((0.5, "p50"), (0.99, "p99")):
        put(f"multi.query_details.{tag}_us", "us",
            ["multi.MultiFDO.query_details"], lat_us(qd, q))
    put("multi.failed_tree_edges_mean", "count",
        ["multi.MultiFDO.query_details"],
        statistics.fmean(s[NOTE][1] for s in qd) if qd else 0.0)
    put("multi.f1.query_us", "us", ["multi.MultiFDO.query"],
        lat_us([s for s in sel("multi.MultiFDO.query", "query")
                if s[NOTE] == 1], 0.5))

    ld = "lowdiam.build_lowdiam_fdo"
    for backend in ("exact", "sampled"):
        put(f"lowdiam.build_{backend}.s", "s", [ld],
            incl_s(ld, keep=lambda s, b=backend: s[NOTE] is not None
                   and s[NOTE][0] == b))
    put("lowdiam.dso_queries", "count", [ld],
        under(lambda n: n.endswith(".query"), ld))
    put("lowdiam.exact_dso.sssp_runs", "count", ["lowdiam.ExactPathDSO.query"],
        under("graph.sssp", "lowdiam.ExactPathDSO.query"))
    put("lowdiam.table_entries", "count", [ld], sum(n[1] for n in notes(ld)))
    put("lowdiam.query.us", "us", ["lowdiam.LowDiamFDO.query"],
        lat_us(sel("lowdiam.LowDiamFDO.query", "query"), 0.5))

    put("serialize.dumps.s", "s", ["serialize.dumps_oracle"],
        incl_s("serialize.dumps_oracle", "serialize"))
    put("serialize.loads.s", "s", ["serialize.loads_oracle"],
        incl_s("serialize.loads_oracle", "load"))
    put("serialize.bytes", "B", ["serialize.dumps_oracle"],
        sum(notes("serialize.dumps_oracle", "serialize")))
    return metrics, sorted(absent)
