"""Tiny-size runs of every workload through the benchmark's command.

Slow (a Ray session per run, about half a minute each):
``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpus

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    cmd = list(BENCH["command"]) + ["--workload", workload, "--seed", "5", "--seconds", "1",
                                    "--trace", str(trace), "--scale", "0.05"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def _result(p: subprocess.CompletedProcess) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    r = _result(_run(workload, 0))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 12
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    assert r["metrics"]["job_ok_share"]["value"] == 1.0
    assert all(r["metrics"][k]["value"] > 0 for k in want if k.endswith(("_per_s", "setup_s", "_mb")))


def test_traced_run_prints_every_per_layer_metric():
    p = _run("crawl_dup_heavy", 1)
    r = _result(p)
    assert r["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == want
    trace = os.path.join(ROOT, ".perfbench", "trace-crawl_dup_heavy-5.json")
    with open(trace) as f:
        spans = json.load(f)["spans"]
    assert {s["name"] for s in spans} == {n.rsplit(".", 1)[0] for n in want if n.endswith(".wall_s")}
    assert len({s["trace_id"] for s in spans}) == 1


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    p = _run("crawl_dup_heavy", 0, root=str(tmp_path))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
