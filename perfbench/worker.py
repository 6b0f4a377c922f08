"""One benchmark run of one workload, in a process of its own.

Started by ``run.py``; appends one JSON record per line to ``--records``
as it goes (setup, every job call, the traced layers, the end), so the
parent can account for every call even if this process has to be killed.

Closed loop: the single-threaded driver submits one job at a time and
waits for its result. Ray gets a fixed 1 logical CPU and a fixed
object store.
"""

from __future__ import annotations

import _thread
import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

# one worker: on a few shared cores the runs of a 2-CPU session spread
# about twice as wide between runs, and took no less time
RAY_CPUS = 1
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SETUP_REPEATS = 3  # corpus generations per run; setup_s takes their median
# the warm-up runs on a tiny corpus of the same workload, and only the
# jobs whose first call pays one-off costs (Ray Data's stats and
# autoscaling actors, worker-side imports); those costs do not depend on
# the corpus size, and the other jobs' first calls measure no slower
WARMUP_SCALE = 0.05
WARMUP_JOBS = ("exact", "near_dup", "simhash")
MIN_CALLS = 5  # measured calls per job, even past --seconds
CALL_BUDGET_S = 60.0  # one job call longer than this counts as a stall
STOP_STARTING_AT_S = 120.0  # no new call starts this long after launch


class Records:
    def __init__(self, path: str):
        self._f = open(path, "a", buffering=1)
        self.last: dict = {}

    def write(self, **rec) -> None:
        rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self._f.write(json.dumps(rec) + "\n")
        self.last = rec


def _watchdog(budget_s: float) -> threading.Timer:
    """Interrupts the main thread (KeyboardInterrupt) after ``budget_s``."""
    t = threading.Timer(budget_s, _thread.interrupt_main)
    t.daemon = True
    t.start()
    return t


def call_job(job, inp, rec: Records, phase: str) -> bool:
    """Runs, times and checks one job call; records it. → False on a stall."""
    gc.collect()  # the previous call's garbage is not this call's cost
    t0 = time.perf_counter()
    dog = _watchdog(CALL_BUDGET_S)
    try:
        out = job.run(inp)
        dt = time.perf_counter() - t0
        dog.cancel()
        ok, counts = job.check(inp, out)
        rec.write(kind="call", job=job.name, phase=phase, seconds=dt,
                  units=job.units(inp), ok=bool(ok), counts=counts,
                  error=None if ok else "output failed its check")
        return True
    except KeyboardInterrupt:
        rec.write(kind="call", job=job.name, phase=phase, seconds=time.perf_counter() - t0,
                  units=job.units(inp), ok=False, counts={},
                  error=f"stalled: no result within {CALL_BUDGET_S:.0f} s")
        return False
    except Exception as e:  # a failed call is counted, the run goes on
        dog.cancel()
        traceback.print_exc()
        rec.write(kind="call", job=job.name, phase=phase, seconds=time.perf_counter() - t0,
                  units=job.units(inp), ok=False, counts={},
                  error=f"{type(e).__name__}: {e}"[:300])
        return True
    finally:
        dog.cancel()


def start_ray(temp_dir: str):
    import ray

    ray.init(
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=temp_dir,
    )

    @ray.remote
    def ping():
        import dedup  # noqa: F401  (workers import the engine once, here)

        return os.getpid()

    ray.get([ping.remote() for _ in range(RAY_CPUS)])
    import logging

    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def context() -> dict:
    import pyarrow
    import ray

    return {
        "cores_in_affinity_mask": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "nproc": subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "ray_cpus": RAY_CPUS,
        "object_store_mb": OBJECT_STORE_BYTES // (1024 * 1024),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--ray-temp", required=True)
    ap.add_argument("--records", required=True)
    ap.add_argument("--trace-out", default=None)
    a = ap.parse_args()
    launched = time.perf_counter()
    rec = Records(a.records)

    import corpus
    import jobs
    from dedup.config import DedupConfig

    t0 = time.perf_counter()
    start_ray(a.ray_temp)
    ray_start_s = time.perf_counter() - t0
    rec.write(kind="context", **context())

    cfg = DedupConfig()
    shape = corpus.SHAPES[a.workload]
    block_rows = max(1, -(-int(shape.n_pages * a.scale) // 8))
    gen_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        co = corpus.generate(a.workload, a.seed, block_rows=block_rows, scale=a.scale)
        shutil.rmtree(a.scratch, ignore_errors=True)
        inp = jobs.write_inputs(co, a.scratch, cfg)
        gen_s.append(time.perf_counter() - t0)
        digests.add(co.digest())
    if len(digests) != 1:
        raise RuntimeError("the corpus generator is not deterministic")

    t0 = time.perf_counter()
    warm = corpus.generate(a.workload, a.seed, block_rows=block_rows, scale=WARMUP_SCALE * a.scale)
    warm_inp = jobs.write_inputs(warm, os.path.join(a.scratch, "warmup"), cfg)
    for job in jobs.JOBS:
        if job.name in WARMUP_JOBS and not call_job(job, warm_inp, rec, "warmup"):
            break
    warmup_s = time.perf_counter() - t0
    rec.write(kind="setup", ray_start_s=ray_start_s, gen_s=gen_s, warmup_s=warmup_s,
              setup_s=ray_start_s + statistics.median(gen_s) + warmup_s,
              pages=co.n_pages, pages_b=co.n_pages_b, text_mb=co.text_mb(),
              digest=digests.pop())

    if a.trace:
        import layers

        layers.traced_run(inp, rec, a.trace_out, call_job)
    else:
        measure(inp, rec, a.seconds, launched)
    rec.write(kind="end")
    return 0


def measure(inp, rec: Records, seconds: float, launched: float) -> None:
    """Rounds of every job until ``seconds`` have passed: a round is not
    started when it would end more than half a round past them."""
    import jobs

    t0 = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for job in jobs.JOBS:
            if time.perf_counter() - launched > STOP_STARTING_AT_S:
                rec.write(kind="note", text=f"stopped starting calls {STOP_STARTING_AT_S:.0f} s after launch")
                return
            if not call_job(job, inp, rec, "measure"):
                rec.write(kind="note", text=f"stopped after {job.name} stalled")
                return
        rounds += 1
        last = time.perf_counter() - r0
        if rounds >= MIN_CALLS and time.perf_counter() - t0 + last / 2 >= seconds:
            return


if __name__ == "__main__":
    code = 1
    try:
        code = main()
    finally:
        try:
            import ray

            ray.shutdown()
        except Exception:
            traceback.print_exc()
    sys.exit(code)
