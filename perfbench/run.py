"""fdo benchmark: build, load, query and CLI costs of the oracle family.

    python3 perfbench/run.py --workload single-failure --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that has ``src/fdo``; the program is
imported from that source tree, never from an installed copy.  Each
workload runs in a fresh worker process (``worker.py``), one after another
with ``--workload all``; this process then replays the workload's queries
through the ``fdo`` command line and prints one line per metric
(``name = value unit``), then the result as one JSON object on the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  Everything a run writes goes
to ``.perfbench/<workload>-s<seed>-t<trace>/`` in the checkout: the worker's
record, the CLI files, the span log and ``summary.json`` with environment,
inputs, metrics and sha256 digests of every answer stream and oracle file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from calibrate import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("single-failure", "multi-stream", "lowdiam-subsets")

WORKER_TIMEOUT_S = 170
CLI_TIMEOUT_S = 120
CLI_REPS = 7
PROBES = ("zero_weight",)   # known-defect probes, reported per layer
PROBE_TIMEOUT_S = 120


def _fdo_cmd():
    return [sys.executable, "-m", "fdo.cli"]


def _env():
    # A fixed string-hash seed: the hash seed sets the interpreter's memory
    # layout, which alone moves query latency by up to 20% from one process
    # to the next.
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def _run_worker(args, name, out):
    """Run worker.py in a fresh process; returns (exit code, peak RSS in MB)
    from that process's own rusage, so no other workload's peak leaks in."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out] + (["--tiny"] if args.tiny else [])
    # the worker's stdout goes to our stderr: our stdout carries the result
    pid = os.posix_spawn(sys.executable, argv, _env(),
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while time.monotonic() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                pid = None
                return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
            time.sleep(0.02)
        return -signal.SIGKILL, 0.0
    finally:
        if pid is not None:     # timed out or interrupted: stop the worker
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)


def _timed(cmd, speed=None):
    """Run cmd; (completed process or None on timeout, wall seconds, speed
    factor).  With ``speed``, the factor is the mean of speed samples taken
    right before and right after cmd, on the CPU cmd ran on (see ``_pin``)."""
    before = speed.factor() if speed else 1.0
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        proc = None
    secs = time.perf_counter() - t0
    after = speed.factor() if speed else 1.0
    return proc, secs, (before + after) / 2


def _cli(plan, out, speed_size):
    """`fdo build`, then `fdo query --queries` over the workload's lines.
    Returns (metrics, attempted, failed, notes, raw lines per second).  The
    query replays are scaled to nominal machine speed (see calibrate.py)."""
    speed = Speed(*speed_size)
    notes, failed = [], 0
    startup = []
    for _ in range(CLI_REPS):
        proc, secs, _ = _timed(_fdo_cmd() + ["--help"])
        startup.append(secs)
        if proc is None or proc.returncode != 0:
            failed += 1
            notes.append("fdo --help failed")
    attempted = CLI_REPS

    oracle_path = plan["oracle"]
    build_s = 0.0
    if plan["build_args"]:
        cli_file = os.path.join(out, "cli.built.fdo")
        proc, build_s, _ = _timed(_fdo_cmd() + [
            "build", "--graph", plan["graph"], "--out", cli_file,
            *plan["build_args"]])
        attempted += 1
        if proc is None or proc.returncode != 0:
            failed += 1
            notes.append(f"fdo build {plan['label']}: exit "
                         f"{None if proc is None else proc.returncode}")
        else:
            with open(cli_file, "rb") as a, open(plan["oracle"], "rb") as b:
                if a.read() != b.read():
                    failed += 1
                    notes.append(f"fdo build {plan['label']}: file differs "
                                 "from dumps_oracle")
            oracle_path = cli_file

    with open(plan["expected"], encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    query_s, scaled_s, error_lines = [], [], 0
    for _ in range(CLI_REPS):
        proc, secs, factor = _timed(_fdo_cmd() + [
            "query", "--oracle", oracle_path, "--queries", plan["queries"]],
            speed)
        query_s.append(secs)
        scaled_s.append(secs * factor)
        attempted += len(expected)
        if proc is None or proc.returncode != 0:
            failed += len(expected)
            notes.append("fdo query: exit "
                         f"{None if proc is None else proc.returncode}")
            continue
        got = proc.stdout.splitlines()
        error_lines += sum(1 for line in got if line.startswith("error:"))
        bad = sum(1 for a, b in zip(got, expected) if a != b)
        bad += abs(len(got) - len(expected))
        if bad:
            failed += bad
            notes.append(f"fdo query: {bad} lines differ from in-process answers")
    q_med = statistics.median(query_s)
    metrics = {
        "cli_query_lines_per_s": (len(expected) / statistics.median(scaled_s),
                                  "1/s"),
        "cli.startup.s": (statistics.median(startup), "s"),
        "cli.build.s": (build_s, "s"),
        "cli.query.s": (q_med, "s"),
        "cli.query.error_lines": (error_lines, "count"),
    }
    return metrics, attempted, failed, notes, len(expected) / q_med


def _pin():
    """Pin this process, and so every process it starts, to one CPU.  On a
    shared machine each CPU's speed drifts on its own; on one CPU the speed
    samples describe the same CPU as the timings they scale."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _probe(args, name, probe, out):
    """Run one known-defect probe of the workload in its own process, after
    the worker was reaped, so neither its memory nor a runaway build of the
    defect can touch the workload's figures."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           name, "--seed", str(args.seed), "--seconds", "0", "--out", out,
           "--probe", probe] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "notes": ["probe timed out"]}
    if proc.returncode != 0:
        return {"attempted": 1, "failed": 1,
                "notes": [f"probe exited with {proc.returncode}"]}
    with open(os.path.join(out, f"probe.{probe}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _environment(seed):
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    pkg = os.path.join(SRC, "fdo")
    lines = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "seed": seed, "src_fdo_lines": lines}


def run_workload(args, name, end_to_end, per_layer):
    """One workload: worker process, then CLI replay.  Returns the result
    object, or None when the harness itself broke."""
    out = os.path.join(ROOT, ".perfbench", f"{name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    code, peak_mb = _run_worker(args, name, out)
    if code != 0:
        print(f"perfbench: worker for {name} exited with {code}", file=sys.stderr)
        return None
    with open(os.path.join(out, "worker.json"), encoding="utf-8") as fh:
        rec = json.load(fh)
    metrics = dict(rec["e2e"], peak_rss_mb=(peak_mb, "MB"))
    attempted, failed, notes = rec["attempted"], rec["failed"], rec["failures"]
    if rec["cli"] is None:
        print(f"perfbench: {name} has no CLI oracle to replay", file=sys.stderr)
        return None
    cli_metrics, cli_att, cli_fail, cli_notes, cli_raw = _cli(
        rec["cli"], out, rec["speed_size"])
    metrics.update(cli_metrics)
    metrics.update(rec.get("layer", {}))
    probes = {p: _probe(args, name, p, out) for p in rec["probes"]}
    for p in PROBES:
        counts = probes.get(p, {"attempted": 0, "failed": 0})
        metrics[f"probe.{p}.attempted"] = (counts["attempted"], "count")
        metrics[f"probe.{p}.failed"] = (counts["failed"], "count")
    attempted += cli_att
    failed += cli_fail
    notes += cli_notes
    metrics["failed_share"] = (failed / attempted if attempted else 1.0, "ratio")

    wanted = per_layer if args.trace else end_to_end
    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"perfbench: {name} did not produce {missing}", file=sys.stderr)
        return None
    summary = {
        "workload": name, "trace": args.trace, "seconds": args.seconds,
        "environment": dict(_environment(args.seed), cpu=args.cpu),
        "inputs": rec["inputs"],
        "samples": rec["samples"], "digests": rec["digests"],
        "raw": dict(rec["raw"], cli_query_lines_per_s=cli_raw),
        "probes": probes, "absent": rec.get("absent", []),
        "attempted": attempted, "failed": failed, "failures": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    print("info " + json.dumps({k: summary[k] for k in (
        "environment", "inputs", "samples", "probes", "absent")}, sort_keys=True))
    for note in notes:
        print(f"failure {note}")
    shown = list(wanted) + ([] if args.trace else ["failed_share"])
    for key in shown:
        value, unit = metrics[key]
        print(f"{key} = {value} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                        for k in wanted}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (used by perfbench/tests)")
    args = ap.parse_args(argv)
    # so that a terminated run still stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "fdo", "__init__.py")):
        print(f"perfbench: no fdo sources at {SRC}/fdo", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]

    args.cpu = _pin()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(args, name, end_to_end, per_layer)
        if res is None:
            return 1
        results.append(res)
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}/{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
