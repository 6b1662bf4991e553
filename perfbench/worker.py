"""Run one workload in-process and write its measurements as JSON.

``run.py`` starts this file in a fresh process per workload, so peak memory
and interpreter state belong to that workload alone.  The phases, in order:

1. setup: build every oracle of the workload, several times; the median
   build time is ``setup_s``.  Only the last build's oracles are kept.
2. serialize and load: ``dumps_oracle`` and ``loads_oracle`` of every
   oracle.
3. query: a single-threaded closed loop (the next query is sent when the
   previous answer returns) cycles the workload's stream for ``--seconds``
   seconds, timing every ``oracle.query(pairs)`` call.  Every
   ``LOAD_EVERY_S`` seconds it loads all oracle files again, so the
   median load time (``load_s``) is taken over the same window as the
   query latencies rather than over one short burst.  Percentiles are
   medians over the LATENCY_WINDOWS parts of the window.
4. checks, untimed: loaded oracles must answer like the built ones, and a
   fixed sample of answers is audited against ``fdo.verify.brute_diam`` at
   each kind's contract.  The CLI files for ``run.py`` are written.

Timings are scaled to nominal machine speed with ``calibrate.Speed``,
sampled before and after every build and every ``CALIBRATE_EVERY_S``
seconds of the query loop; raw values are kept in the record.

With ``--trace 1`` the fdo modules are wrapped (see ``tracer.py``): two
untraced builds and one traced build give the tracing overhead, and the
first pass over the query stream is traced.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

from calibrate import Speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUP_REPS = 3          # minimum number of builds of the whole workload
SETUP_MIN_S = 2.0       # cheap builds repeat until this much time is spent...
SETUP_MAX_REPS = 50     # ...or this many builds were made
LOAD_EVERY_S = 0.25     # the query loop reloads all oracle files this often
CALIBRATE_EVERY_S = 0.1 # ...and samples the machine's speed this often
LATENCY_WINDOWS = 10    # the query window is cut into this many parts
WINDOW_CAP = 1 << 16    # latencies kept per part, so a faster program does
                        # not make the benchmark use more memory
PROBE_MEMORY = 1 << 29  # address-space limit of a probe process, bytes
DIST_EPS = 1e-9
_UNANSWERED = object()


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(sorted_values, q):
    """Nearest-rank quantile of a sorted sequence."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _fmt(x):
    """Answer rendering for digests; independent of the program's format."""
    if isinstance(x, BaseException):
        return f"!{type(x).__name__}"
    return "inf" if x == math.inf else repr(x)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _satisfies(answer, truth, spec):
    """The audit contract of one oracle kind (truth from brute force)."""
    if spec.never_below:
        return answer >= truth - DIST_EPS
    if truth == math.inf or answer == math.inf:
        return answer == truth
    return truth - DIST_EPS <= answer <= spec.stretch * truth + DIST_EPS


class Windows:
    """The query window, cut into LATENCY_WINDOWS parts.  Each part keeps a
    uniform subsample of at most WINDOW_CAP raw latencies (every stride-th
    call, the stride doubling whenever the part fills up), its busy time,
    its reload times and its speed samples.  When a part closes, its
    figures are scaled by the median of its speed samples; percentiles are
    then the median over the parts, so a burst of interference on the
    shared machine moves one part, not the result."""

    def __init__(self):
        self.p50, self.p99, self.calls, self.loads = [], [], [], []
        self.busy = self.scaled_busy = 0
        self._reset()

    def _reset(self):
        self._values = array("d")
        self._stride = 1
        self._seen = 0
        self._busy = 0
        self._factors = []
        self._loads = []

    def add(self, ns):
        if self._seen % self._stride == 0:
            if len(self._values) >= WINDOW_CAP:
                self._values = self._values[::2]
                self._stride *= 2
            if self._seen % self._stride == 0:
                self._values.append(ns)
        self._seen += 1
        self._busy += ns

    def speed(self, factor):
        self._factors.append(factor)

    def load(self, secs):
        self._loads.append(secs)

    def close(self):
        if self._seen:
            scale = statistics.median(self._factors)
            values = sorted(self._values)
            self.p50.append(_quantile(values, 0.5) * scale)
            self.p99.append(_quantile(values, 0.99) * scale)
            self.calls.append(self._seen)
            self.busy += self._busy
            self.scaled_busy += self._busy * scale
            self.loads += [secs * scale for secs in self._loads]
        self._reset()


class Ledger:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def ok(self):
        self.attempted += 1

    def fail(self, note, attempted=1):
        """A failed operation; ``attempted=0`` when a check fails on an
        operation that was already counted."""
        self.attempted += attempted
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def build_all(specs, ledger=None):
    """Build every oracle once; (oracles, seconds).  A build that raises
    leaves None in its slot."""
    oracles, total = [], 0
    for spec in specs:
        t0 = time.perf_counter_ns()
        try:
            oracle = spec.build()
        except Exception as exc:  # a failed build is a measured outcome
            oracle = None
            if ledger is not None:
                ledger.fail(f"build {spec.label}: {type(exc).__name__}: {exc}")
        else:
            if ledger is not None:
                ledger.ok()
        total += time.perf_counter_ns() - t0
        oracles.append(oracle)
    return oracles, total / 1e9


def _setup(wl, tracer, ledger, speed):
    """Repeated builds; (last build's oracles, raw seconds per build, scaled
    seconds per build).  With a tracer: two untraced builds (the first one
    warms up), then one traced build."""
    times, scaled = [], []
    before = speed.factor()
    while True:
        oracles = None
        gc.collect()
        if tracer and len(times) == 2:
            tracer.on, tracer.phase = True, "setup"
        # builds are deterministic: count their outcome on the first only
        oracles, secs = build_all(wl.oracles, None if times else ledger)
        if tracer:
            tracer.on = False
        after = speed.factor()
        times.append(secs)
        scaled.append(secs * (before + after) / 2)
        before = after
        if tracer:
            if len(times) == 3:
                return oracles, times, scaled
        elif len(times) >= SETUP_MAX_REPS or (
                len(times) >= SETUP_REPS and sum(times) >= SETUP_MIN_S):
            return oracles, times, scaled


def _serialize(fdo, wl, oracles, tracer, ledger):
    texts = []
    if tracer:
        tracer.on, tracer.phase = True, "serialize"
    for spec, oracle in zip(wl.oracles, oracles):
        text = None
        if oracle is not None:
            try:
                text = fdo.dumps_oracle(oracle)
            except Exception as exc:
                ledger.fail(f"dumps {spec.label}: {type(exc).__name__}: {exc}",
                            attempted=0)
        texts.append(text)
    if tracer:
        tracer.on = False
    return texts


def _load(fdo, wl, texts, ledger=None):
    """Load every serialized oracle once; (oracles, seconds).  A file that
    does not load leaves None in its slot."""
    loaded, total = [], 0
    for spec, text in zip(wl.oracles, texts):
        if text is None:
            loaded.append(None)
            continue
        t0 = time.perf_counter_ns()
        try:
            oracle = fdo.loads_oracle(text)
        except Exception as exc:
            oracle = None
            if ledger is not None:
                ledger.fail(f"loads {spec.label}: {type(exc).__name__}: {exc}")
        else:
            if ledger is not None:
                ledger.ok()
        total += time.perf_counter_ns() - t0
        loaded.append(oracle)
    return loaded, total / 1e9


def _query_loop(wl, oracles, seconds, tracer, ledger, reload, speed):
    """Closed loop over the stream for ``seconds``; the first pass's answers
    are kept for the checks.  Entries whose oracle failed to build are
    counted as failed once and skipped.  With a tracer, exactly the first
    pass is traced, so its counts repeat from run to run.  Every
    CALIBRATE_EVERY_S the loop samples the CPU's speed, and every
    LOAD_EVERY_S it times ``reload()``."""
    stream = wl.stream
    answers = [_UNANSWERED] * len(stream)
    work = []
    for k, (i, pairs) in enumerate(stream):
        if oracles[i] is None:
            ledger.fail(f"query {wl.oracles[i].label}: oracle not built")
        else:
            work.append((k, oracles[i], pairs))
    windows = Windows()
    count = errors = 0
    if work:
        if tracer:
            tracer.on, tracer.phase = True, "query"
        gc.collect()
        pc = time.perf_counter_ns
        windows.speed(speed.factor())
        window_ns = int(seconds * 1e9) // LATENCY_WINDOWS
        next_window = pc() + window_ns
        deadline = next_window + (LATENCY_WINDOWS - 1) * window_ns
        load_every = int(LOAD_EVERY_S * 1e9)
        next_load = pc() + load_every
        calibrate_every = int(CALIBRATE_EVERY_S * 1e9)
        next_calibration = pc() + calibrate_every
        j, n_work = 0, len(work)
        while True:
            k, oracle, pairs = work[j]
            t0 = pc()
            try:
                answer = oracle.query(pairs)
            except Exception as exc:  # counted, and the loop goes on
                answer = exc
                errors += 1
            t1 = pc()
            windows.add(t1 - t0)
            count += 1
            if answers[k] is _UNANSWERED:
                answers[k] = answer
            j += 1
            if j == n_work:
                j = 0
                if tracer:
                    tracer.on = False
            if t1 < next_calibration:
                continue
            windows.speed(speed.factor())
            if t1 >= next_load and not (tracer and tracer.on):
                windows.load(reload())
                next_load = pc() + load_every
            if t1 >= next_window:
                windows.close()
                windows.speed(speed.factor())
                next_window += window_ns
            if t1 >= deadline:
                break
            next_calibration = pc() + calibrate_every
        # finish the first pass untimed when the window was too short
        for k, oracle, pairs in work:
            if answers[k] is _UNANSWERED:
                try:
                    answers[k] = oracle.query(pairs)
                except Exception as exc:
                    answers[k] = exc
        if tracer:
            tracer.on = False
    ledger.attempted += count
    ledger.failed += errors
    if errors:
        ledger.notes.append(f"{errors} query calls raised")
    windows.close()
    busy = windows.busy
    return answers, {
        "count": count,
        "window_calls": windows.calls,
        "p50_us": _median(windows.p50) / 1e3,
        "p99_us": _median(windows.p99) / 1e3,
        "qps": sum(windows.calls) / (windows.scaled_busy / 1e9) if busy else 0.0,
        "raw_qps": sum(windows.calls) / (busy / 1e9) if busy else 0.0,
        "loads": windows.loads,
    }


def _roundtrip(wl, loaded, answers, ledger):
    """Loaded oracles must answer the stream prefix exactly like the built
    ones (inf included)."""
    for k in range(wl.roundtrip_len):
        i, pairs = wl.stream[k]
        expected = answers[k]
        if expected is _UNANSWERED or isinstance(expected, BaseException):
            continue
        if loaded[i] is None:
            continue  # the load failure is already counted
        try:
            got = loaded[i].query(pairs)
        except Exception as exc:
            got = exc
        ok = not isinstance(got, BaseException) and got == expected
        if not ok:
            ledger.fail(f"roundtrip {wl.oracles[i].label} {pairs}: "
                        f"{_fmt(got)} != {_fmt(expected)}", attempted=0)


def _audit(fdo, specs, graphs, items, ledger, truths):
    """Check (spec index, pairs, answer) triples against brute force; returns
    the number audited.  Violations count as failures."""
    audited = 0
    for i, pairs, answer in items:
        if answer is _UNANSWERED or isinstance(answer, BaseException):
            continue
        spec = specs[i]
        key = (spec.graph, frozenset(tuple(sorted(p)) for p in pairs))
        if key not in truths:
            truths[key] = fdo.brute_diam(graphs[spec.graph], list(pairs))
        truth = truths[key]
        audited += 1
        if not _satisfies(answer, truth, spec):
            ledger.fail(f"audit {spec.label} {pairs}: answer "
                        f"{_fmt(answer)}, truth {_fmt(truth)}", attempted=0)
    return audited


def _probe(fdo, graph, specs):
    """Known-defect probe: build each oracle and audit every edge query.
    Reported on its own; never part of the workload's ledger.  Runs in a
    process of its own (``--probe``), because the defect can make a build
    loop while its memory grows without bound."""
    ledger = Ledger()
    oracles, _ = build_all(specs, ledger)
    items = []
    for i, oracle in enumerate(oracles):
        for u, v, _ in graph.edges:
            if oracle is None:
                ledger.fail(f"query {specs[i].label}: oracle not built")
                continue
            try:
                answer = oracle.query([(u, v)])
            except Exception as exc:
                answer = exc
                ledger.fail(f"query {specs[i].label}: {type(exc).__name__}")
            else:
                ledger.ok()
            items.append((i, ((u, v),), answer))
    _audit(fdo, specs, {specs[0].graph: graph}, items, ledger, {})
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "notes": ledger.notes}


def _graph_text(g):
    """Edge-list file in the documented format, written by the benchmark."""
    weighted = any(w != 1 for _, _, w in g.edges)
    head = (f"{g.n} {len(g.edges)} {'D' if g.directed else 'U'} "
            f"{'W' if weighted else 'UW'}")
    rows = [f"{u} {v} {w}" if weighted else f"{u} {v}" for u, v, w in g.edges]
    return "\n".join([head, *rows]) + "\n"


def _write_cli_plan(fdo, wl, texts, answers, out):
    """Files for the CLI replay in run.py: graph, oracle text, query lines
    and the expected answer lines."""
    ci = wl.cli_oracle
    spec = wl.oracles[ci]
    mine = [k for k, (i, _) in enumerate(wl.stream) if i == ci
            and not isinstance(answers[k], BaseException)
            and answers[k] is not _UNANSWERED]
    if not mine or texts[ci] is None:
        return None
    picks = [mine[j % len(mine)] for j in range(wl.cli_lines)]
    paths = {p: os.path.join(out, f"cli.{p}")
             for p in ("graph", "oracle", "queries", "expected")}
    contents = {
        "graph": _graph_text(wl.graphs[spec.graph]),
        "oracle": texts[ci],
        "queries": "".join(" ".join(f"{u}-{v}" for u, v in wl.stream[k][1]) + "\n"
                           for k in picks),
        "expected": "".join(fdo.graph.fmt_dist(answers[k]) + "\n" for k in picks),
    }
    for key, path in paths.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(contents[key])
    return {**paths, "lines": len(picks), "build_args": spec.cli_args,
            "label": spec.label}


def run(wl, seconds, tracer=None, out=None):
    """Measure one workload; returns the result record (see run.py)."""
    import fdo
    import fdo.graph

    ledger = Ledger()
    speed_g = wl.graphs[wl.speed_graph]
    speed = Speed(speed_g.n, len(speed_g.edges))
    oracles, setup_raw, setup_times = _setup(wl, tracer, ledger, speed)
    texts = _serialize(fdo, wl, oracles, tracer, ledger)
    factor = speed.factor()
    if tracer:
        tracer.on, tracer.phase = True, "load"
    loaded, secs = _load(fdo, wl, texts, ledger)
    if tracer:
        tracer.on = False
    answers, q = _query_loop(wl, oracles, seconds, tracer, ledger,
                             lambda: _load(fdo, wl, texts)[1], speed)
    load_times = [secs * factor, *q["loads"]]

    _roundtrip(wl, loaded, answers, ledger)
    truths = {}
    audited = _audit(fdo, wl.oracles, wl.graphs,
                     [(wl.stream[k][0], wl.stream[k][1], answers[k])
                      for k in wl.audit_idx], ledger, truths)

    per_oracle = {spec.label: [] for spec in wl.oracles}
    for k, (i, _) in enumerate(wl.stream[:wl.roundtrip_len]):
        per_oracle[wl.oracles[i].label].append(_fmt(answers[k]))
    result = {
        "workload": wl.name,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.notes,
        "e2e": {
            "setup_s": (_median(setup_times), "s"),
            "query_p50_us": (q["p50_us"], "us"),
            "query_p99_us": (q["p99_us"], "us"),
            "query_qps": (q["qps"], "1/s"),
            "load_s": (_median(load_times), "s"),
            "oracle_bytes": (sum(len(t.encode()) for t in texts if t), "B"),
        },
        "raw": {"setup_s": _median(setup_raw),
                "query_qps": q["raw_qps"],
                "speed_factor_median": _median(speed.samples)},
        "samples": {"setup_reps": len(setup_times), "load_reps": len(load_times),
                    "queries": q["count"], "window_calls": q["window_calls"],
                    "audited": audited, "roundtrip": wl.roundtrip_len},
        "probes": sorted(wl.probe),
        "inputs": {
            "graphs": {name: {"n": g.n, "m": len(g.edges),
                              "diameter": _fmt(fdo.brute_diam(g, []))}
                       for name, g in wl.graphs.items()},
            "oracles": [spec.label for spec in wl.oracles],
            "stream_len": len(wl.stream),
            "modes": {spec.label: getattr(o, "mode", None)
                      for spec, o in zip(wl.oracles, oracles)
                      if getattr(o, "mode", None) is not None},
        },
        "digests": {
            "oracles": {spec.label: hashlib.sha256(t.encode()).hexdigest()
                        for spec, t in zip(wl.oracles, texts) if t},
            "answers": {label: _digest(lines) for label, lines in per_oracle.items()},
        },
        "cli": _write_cli_plan(fdo, wl, texts, answers, out) if out else None,
        "speed_size": [speed_g.n, len(speed_g.edges)],
    }
    if tracer:
        from tracer import layer_metrics
        layer, absent = layer_metrics(tracer)
        layer["trace.overhead_s"] = (setup_raw[2] - setup_raw[1], "s")
        result["layer"] = layer
        result["absent"] = absent
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for result files")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark's")
    ap.add_argument("--probe", default=None,
                    help="run only this known-defect probe of the workload")
    args = ap.parse_args(argv)
    if args.probe:
        # a runaway build must end in MemoryError, not exhaust the machine
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY, PROBE_MEMORY))

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import fdo
    if not os.path.abspath(fdo.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported fdo from {fdo.__file__}, not from {src}")
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    if args.probe:
        graph, specs = wl.probe[args.probe]
        with open(os.path.join(args.out, f"probe.{args.probe}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_probe(fdo, graph, specs), fh, indent=1)
        return 0
    result = run(wl, args.seconds, tracer, args.out)
    if tracer:
        tracer.write_jsonl(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
