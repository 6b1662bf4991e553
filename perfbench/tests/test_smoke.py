"""Smoke check of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload through ``run.py --tiny`` and checks the output
contract, the repeatability of the per-layer counts, that a broken oracle
raises the failure share, and that the harness refuses to run without the
program's sources.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

_results = {}


def _run(workload, trace, seed=3, cwd=ROOT, script=None):
    proc = subprocess.run(
        [sys.executable, script or os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def _result(workload, trace):
    if (workload, trace) not in _results:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _results[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return _results[workload, trace]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    res = _result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_counts_repeat_for_a_seed(workload):
    first = _result(workload, 1)["metrics"]
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    counts = [k for k, v in first.items()
              if v["unit"] == "count" and not k.startswith("cli.")]
    assert counts
    assert {k: first[k]["value"] for k in counts} == \
        {k: again[k]["value"] for k in counts}


def _share(res):
    return res["failed"] / res["attempted"]


def test_wrong_answers_raise_failed_share():
    wl = workloads.make("single-failure", 3, tiny=True)
    clean = worker.run(wl, 0.2)

    spec = wl.oracles[0]
    assert spec.kind == "exact"     # answers equal the truth
    build = spec.build

    def off_by_one():
        oracle = build()
        answer = oracle.query
        oracle.query = lambda pairs: answer(pairs) - 1
        return oracle

    spec.build = off_by_one
    broken = worker.run(wl, 0.2)
    assert clean["failed"] == 0
    assert _share(broken) > _share(clean)
    assert any(note.startswith("audit er/exact") for note in broken["failures"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("multi-stream", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
