"""Dedup benchmark: one run of one workload.

    python3 perfbench/run.py --workload crawl_dup_heavy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run starts ``worker.py`` in a
fresh process (its own Ray session), gives it a hard wall budget, and
turns the records it leaves into metrics. Prints one line per job with
its checks, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones (and the spans are written to ``.perfbench/trace-*.json``).

Exits 2 without a result when the engine (``dedup/``) is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from corpus import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 165.0  # the worker is killed past this; the run must end by 180 s
# AF_UNIX socket paths are limited to 107 bytes, and Ray puts its sockets
# up to 64 bytes below its temp dir
MAX_RAY_TEMP_LEN = 107 - 64

JOB_METRICS = {
    "exact": ("exact_docs_per_s", "docs/s"),
    "near_dup": ("near_dup_docs_per_s", "docs/s"),
    "simhash": ("simhash_docs_per_s", "docs/s"),
    "substr": ("substr_mb_per_s", "MB/s"),
    "index_build": ("index_build_docs_per_s", "docs/s"),
    "incremental": ("incr_docs_per_s", "docs/s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(recs: list[dict]) -> dict:
    calls = [r for r in recs if r["kind"] == "call"]
    setup = next((r for r in recs if r["kind"] == "setup"), None)
    m: dict[str, tuple[float, str]] = {}
    m["setup_s"] = (setup["setup_s"] if setup else 0.0, "s")
    for job, (name, unit) in JOB_METRICS.items():
        rates = [c["units"] / c["seconds"] for c in calls
                 if c["job"] == job and c["phase"] == "measure" and c["ok"]]
        m[name] = (statistics.median(rates) if rates else 0.0, unit)

    def total(job: str, key: str) -> int:
        return sum(c["counts"].get(key, 0) for c in calls if c["job"] == job)

    hit = total("near_dup", "pairs_hit") + total("incremental", "repeats_reported")
    planted = total("near_dup", "pairs") + total("incremental", "repeats")
    m["dup_pair_recall"] = (_ratio(hit, planted), "share")
    apart = total("near_dup", "neg_apart") + total("simhash", "neg_apart")
    neg = total("near_dup", "neg") + total("simhash", "neg")
    m["neg_pair_specificity"] = (_ratio(apart, neg), "share")
    m["span_token_recall"] = (_ratio(total("substr", "boiler_cut"), total("substr", "boiler_tokens")), "share")
    m["body_token_kept"] = (_ratio(total("substr", "body_kept"), total("substr", "body_tokens")), "share")
    m["driver_peak_rss_mb"] = (max((r["rss_mb"] for r in recs), default=0.0), "MB")
    m["job_ok_share"] = (_ratio(sum(c["ok"] for c in calls), len(calls)), "share")
    return m


def per_layer(recs: list[dict]) -> dict:
    """The traced run's metrics; any the worker did not get to read 0."""
    layer = next((r for r in recs if r["kind"] == "layers"), {"metrics": {}})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    return {k: tuple(layer["metrics"].get(k, (0.0, u))) for k, u in names}


def report_checks(recs: list[dict]) -> None:
    by_job: dict[str, list[dict]] = {}
    for r in recs:
        if r["kind"] == "call":
            by_job.setdefault(r["job"], []).append(r)
    for job, cs in by_job.items():
        bad = [c for c in cs if not c["ok"]]
        line = f"check {job}: {len(cs) - len(bad)}/{len(cs)} calls ok"
        if bad:
            line += f"; first failure ({bad[0]['phase']}): {bad[0]['error']}"
        print(line, flush=True)
    for r in recs:
        if r["kind"] == "note":
            print(f"note: {r['text']}", flush=True)


def _ray_temp(work: str) -> tuple[str, bool]:
    """Ray's temp dir: inside the checkout when its socket paths fit,
    else a short private dir under the system temp dir (removed at exit)."""
    inside = os.path.join(work, "ray")
    if len(inside) <= MAX_RAY_TEMP_LEN:
        return inside, False
    return tempfile.mkdtemp(prefix="pb-"), True


def _end_group(pgid: int) -> None:
    """Kills what is left of the worker's process group (its Ray
    processes share it) and waits, up to 10 s, until the group is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor (the smoke test uses a tiny one)")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dedup", "__init__.py")):
        print(f"dedup/ not found under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    ray_temp, ray_temp_outside = _ray_temp(work)
    records = os.path.join(work, "records.jsonl")
    trace_out = os.path.join(out_dir, f"trace-{a.workload}-{a.seed}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(RAY_USAGE_STATS_ENABLED="0", OMP_NUM_THREADS="1", POLARS_MAX_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--scale", str(a.scale),
           "--scratch", os.path.join(work, "data"), "--ray-temp", ray_temp,
           "--records", records, "--trace-out", trace_out]
    stalled = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        stalled = f"worker ended by the {RUN_BUDGET_S:.0f} s run budget"
    finally:
        _end_group(proc.pid)
    code = proc.wait()
    recs = []
    if os.path.exists(records):
        with open(records) as f:
            recs = [json.loads(line) for line in f if line.strip()]
    shutil.rmtree(work, ignore_errors=True)
    if ray_temp_outside:
        shutil.rmtree(ray_temp, ignore_errors=True)

    if not any(r["kind"] == "setup" for r in recs):
        print(f"setup did not finish (worker exit code {code}, {time.perf_counter() - t0:.1f} s)", file=sys.stderr)
        return 1
    report_checks(recs)
    if stalled:
        print(f"note: {stalled}", flush=True)
    calls = [r for r in recs if r["kind"] == "call"]
    metrics = per_layer(recs) if a.trace else end_to_end(recs)
    failed = sum(not c["ok"] for c in calls)
    incomplete = stalled is not None or code != 0 or not any(r["kind"] == "end" for r in recs)
    ctx = next((r for r in recs if r["kind"] == "context"), {})
    print("context: " + json.dumps({k: v for k, v in ctx.items() if k not in ("kind", "rss_mb")}), flush=True)
    print(json.dumps({
        "correct": failed == 0 and not incomplete,
        "attempted": max(1, len(calls)),
        "failed": failed if calls else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
