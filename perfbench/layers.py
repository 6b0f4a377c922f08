"""The traced run: per-layer numbers from spans around each layer's
public function, called from here rather than from inside ``dedup``.

After the warm-up, one untraced round of the six jobs gives the
untraced wall; then the same jobs run once more, layer by layer, each
call wrapped in a span. A span records its wall time, the CPU time of
its Ray tasks, and the rows and bytes its operators produced, summed
from ``Dataset._plan.stats().to_summary().operators_stats`` over the
lineage the span executed. Layers that return driver-side arrays rather
than a Dataset (``dup_key_counts``, ``dup_window_hashes``,
``components_np``) have no operator stats to read: their CPU time is
the CPU time the Ray session's processes and the driver spent during
the span, and their rows and bytes are those of the returned arrays.
Every span records which source it used.

Spans are kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import json
import os
import time
import traceback
import uuid

import numpy as np
import ray  # noqa: F401  (puts the psutil Ray bundles on sys.path)
import psutil  # noqa: E402

import jobs

SPANS = (
    "ingest", "exchange.dup_counts", "pipeline.reps", "minhash", "lsh",
    "candidates", "unionfind", "cascade", "simhash.fingerprints", "simhash",
    "substr.pass1", "substr.pass2", "incremental.build", "incremental.probe",
    "incremental.update",
)
# the flagship's stages, in order; whatever near_dup_pipeline spends
# outside them is pipeline.unattributed_s
FLAGSHIP = ("ingest", "exchange.dup_counts", "pipeline.reps", "minhash", "lsh", "candidates", "unionfind")
SPAN_UNITS = {"wall_s": "s", "task_cpu_s": "s", "out_mb": "MB", "rows_out": "count"}
EXTRA_UNITS = {
    "lsh.hot_buckets": "count", "candidates.edges": "count",
    "unionfind.components": "count", "unionfind.max_component": "count",
    "pipeline.unattributed_s": "s", "substr.dup_windows": "count",
    "incremental.index_mb": "MB", "tracing.overhead_s": "s",
}


def _session_cpu_s() -> float:
    """CPU seconds used so far by this driver and its Ray processes."""
    total = 0.0
    me = psutil.Process()
    for p in [me] + me.children(recursive=True):
        try:
            t = p.cpu_times()
            total += t.user + t.system
        except psutil.NoSuchProcess:
            pass
    return total


class Tracer:
    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._seen: set[tuple] = set()  # operator executions already summed

    def _op_stats(self, ds) -> dict | None:
        """cpu s, output bytes and rows over the operators in the lineage
        of ``ds`` that no earlier span summed. A materialized parent shows
        up again in every child's lineage; an operator execution is known
        by its name and its first and last task times."""
        try:
            summary = ds._plan.stats().to_summary()
        except AttributeError:
            return None
        cpu = out_b = rows = 0.0
        ops: list[str] = []
        stack = [summary]
        while stack:
            s = stack.pop()
            for op in s.operators_stats:
                key = (op.operator_name, op.earliest_start_time, op.latest_end_time)
                if key in self._seen:
                    continue
                self._seen.add(key)
                ops.append(op.operator_name)
                cpu += (op.cpu_time or {}).get("sum", 0.0)
                out_b += (op.output_size_bytes or {}).get("sum", 0)
                rows += (op.output_num_rows or {}).get("sum", 0)
            stack.extend(s.parents)
        return {"cpu_s": cpu, "out_bytes": out_b, "rows": rows, "ops": ops}

    def span(self, name: str, parent: str, fn, stats_of=None, size_of=None):
        """Runs ``fn()`` inside span ``name``. ``stats_of(result)`` gives
        the Dataset whose operator stats to sum; ``size_of(result)``
        gives (rows, bytes) for results that are driver-side arrays."""
        c0 = _session_cpu_s()
        t0 = time.perf_counter()
        start = time.time()
        result = fn()
        wall = time.perf_counter() - t0
        proc_cpu = _session_cpu_s() - c0
        rec = {"trace_id": self.trace_id, "name": name, "parent": parent,
               "start": start, "end": start + wall, "wall_s": wall, "proc_cpu_s": proc_cpu}
        st = self._op_stats(stats_of(result)) if stats_of else None
        if st is not None:
            rec.update(task_cpu_s=st["cpu_s"], out_mb=st["out_bytes"] / 1e6, rows_out=st["rows"],
                       cpu_source="operators_stats", ops=st["ops"])
        else:
            rows, nbytes = size_of(result) if size_of else (0, 0)
            rec.update(task_cpu_s=proc_cpu, out_mb=nbytes / 1e6, rows_out=rows,
                       cpu_source="session_processes", ops=[])
        self.spans.append(rec)
        return result

    def by_name(self) -> dict[str, dict]:
        return {s["name"]: s for s in self.spans}


def _arrays_size(arrays) -> tuple[int, int]:
    return len(arrays[0]), sum(a.nbytes for a in arrays)


def _dir_mb(path: str) -> float:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total / 1e6


def traced_round(inp: jobs.Inputs, tr: Tracer, extra: dict) -> None:
    """The six jobs, layer by layer; counts for the metrics go to ``extra``."""
    from dedup.candidates import component_verified_edges
    from dedup.cascade import exact_clusters
    from dedup.exchange import collect_table, dup_key_counts
    from dedup.incremental import build_index, incremental_dedup, update_index
    from dedup.ingest import ingest
    from dedup.lsh import band_rows
    from dedup.minhash import sign
    from dedup.pipeline import distinct_reps
    from dedup.simhash import simhash_clusters, simhash_fingerprints
    from dedup.substr import dup_window_hashes, strip_dup_spans
    from dedup.unionfind import components_np

    cfg = inp.cfg
    ident = lambda r: r  # noqa: E731

    def collected(make):
        """→ (the Dataset ``make`` returns, its rows collected); ``make``
        runs inside the span, since these entry points do eager work."""
        ds = make()
        return ds, collect_table(ds)

    first = lambda r: r[0]  # noqa: E731

    tr.span("cascade", "exact", lambda: collected(lambda: exact_clusters(inp.pages(), cfg)),
            stats_of=first)
    ing = tr.span("ingest", "near_dup", lambda: ingest(inp.pages(), cfg).materialize(), stats_of=ident)
    dup_h, _ = tr.span("exchange.dup_counts", "near_dup", lambda: dup_key_counts(ing, "doc_hash"),
                       size_of=_arrays_size)
    reps = tr.span("pipeline.reps", "near_dup",
                   lambda: distinct_reps(ing, dups=dup_h, n_buckets=cfg.join_buckets,
                                         max_broadcast_rows=cfg.broadcast_max_rows).materialize(),
                   stats_of=ident)
    sigs = tr.span("minhash", "near_dup", lambda: sign(reps, cfg).materialize(), stats_of=ident)
    bands = tr.span("lsh", "near_dup", lambda: band_rows(sigs, cfg).materialize(), stats_of=ident)
    bkey = collect_table(bands.select_columns(["bkey"])).column("bkey").to_numpy()
    _, occupancy = np.unique(bkey, return_counts=True)
    extra["lsh.hot_buckets"] = int((occupancy > cfg.allpairs_bucket_max).sum())
    extra["lsh.buckets"] = len(occupancy)
    _, edges = tr.span("candidates", "near_dup",
                       lambda: collected(lambda: component_verified_edges(sigs, cfg)), stats_of=first)
    extra["candidates.edges"] = len(edges)
    a = edges.column("a").to_numpy() if len(edges) else np.empty(0, np.int64)
    b = edges.column("b").to_numpy() if len(edges) else np.empty(0, np.int64)
    keys, cids = tr.span("unionfind", "near_dup", lambda: components_np(a, b), size_of=_arrays_size)
    _, sizes = np.unique(cids, return_counts=True)
    extra["unionfind.docs"] = len(keys)
    extra["unionfind.components"] = len(sizes)
    extra["unionfind.max_component"] = int(sizes.max()) if len(sizes) else 0

    tr.span("simhash.fingerprints", "simhash",
            lambda: simhash_fingerprints(distinct_reps(ingest(inp.pages(), cfg)), cfg).materialize(),
            stats_of=ident)
    tr.span("simhash", "simhash", lambda: collected(lambda: simhash_clusters(inp.pages(), cfg)),
            stats_of=first)

    docs = inp.pages().select_columns(["url", "text"]).materialize()
    dup = tr.span("substr.pass1", "substr",
                  lambda: dup_window_hashes(docs, k=jobs.SUBSTR_K, min_docs=jobs.SUBSTR_MIN_DOCS),
                  size_of=lambda d: (len(d), d.nbytes))
    extra["substr.dup_windows"] = len(dup)
    tr.span("substr.pass2", "substr",
            lambda: collected(lambda: strip_dup_spans(docs, dup, k=jobs.SUBSTR_K, id_col="url")),
            stats_of=first)

    tr.span("incremental.build", "index_build", lambda: build_index(inp.pages(), cfg, inp.index_dir),
            size_of=lambda m: (m["n_docs"], 0))
    extra["incremental.index_mb"] = _dir_mb(inp.index_dir)

    def probe():
        r = incremental_dedup(inp.pages_b(), inp.index_dir, cfg)
        return r, collect_table(r.kept)

    res, _ = tr.span("incremental.probe", "incremental", probe,
                     size_of=lambda r: (len(r[1]) + len(r[0].report), r[1].nbytes + r[0].report.nbytes))
    tr.span("incremental.update", "incremental", lambda: update_index(inp.index_dir, res.kept_sigs, cfg),
            size_of=lambda m: (m["n_docs"], 0))


def _ratio(name: str, num: float, base: float, base_is: str) -> dict:
    return {"name": name, "value": num / base if base else None, "num": num, "base": base, "base_is": base_is}


def traced_run(inp: jobs.Inputs, rec, trace_out: str | None, call_job) -> None:
    walls = {}
    for job in jobs.JOBS:
        call_job(job, inp, rec, "untraced")
        walls[job.name] = rec.last["seconds"]
    untraced = sum(walls.values())

    tr = Tracer()
    extra: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        traced_round(inp, tr, extra)
    except Exception as e:  # the spans that did finish are still reported
        traceback.print_exc()
        rec.write(kind="call", job="traced_round", phase="traced", seconds=time.perf_counter() - t0,
                  units=0, ok=False, counts={}, error=f"{type(e).__name__}: {e}"[:300])
    traced = time.perf_counter() - t0
    spans = tr.by_name()

    metrics: dict[str, list] = {}
    for name in SPANS:
        for k, unit in SPAN_UNITS.items():
            metrics[f"{name}.{k}"] = [float(spans.get(name, {}).get(k, 0.0)), unit]
    flagship_spans = sum(spans[n]["wall_s"] for n in FLAGSHIP if n in spans)
    extra["pipeline.unattributed_s"] = walls["near_dup"] - flagship_spans
    extra["tracing.overhead_s"] = traced - untraced
    for k, unit in EXTRA_UNITS.items():
        metrics[k] = [float(extra.get(k, 0.0)), unit]
    rec.write(kind="layers", metrics=metrics)

    if trace_out:
        g = extra.get
        ratios = [
            _ratio("lsh.hot_bucket_share", g("lsh.hot_buckets", 0), g("lsh.buckets", 0), "distinct band buckets"),
            _ratio("pipeline.unattributed_share", g("pipeline.unattributed_s"), walls["near_dup"],
                   "untraced near_dup_pipeline wall, s"),
            _ratio("tracing.overhead_share", g("tracing.overhead_s"), untraced,
                   "untraced round wall (sum of the six job calls), s"),
            _ratio("unionfind.max_component_share", g("unionfind.max_component", 0), g("unionfind.docs", 0),
                   "docs in any component"),
        ]
        with open(trace_out, "w") as f:
            json.dump({"workload": inp.corpus.workload, "seed": inp.corpus.seed,
                       "untraced_walls_s": walls, "untraced_round_s": untraced,
                       "traced_round_s": traced, "spans": tr.spans,
                       "counts": extra, "ratios": ratios}, f, indent=1)
