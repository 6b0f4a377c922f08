"""CLI entry point (≅ the reference's main.rs:83-166 lifecycle, with
--resume semantics per --resume-stage3/4, main.rs:114-119).

    python -m dedup.cli --input pages_dir_or_file.parquet --output out/ \
        [--checkpoint ckpt_dir] \
        [--mode near|exact|simhash|corpus|index-build|index-dedup] \
        [--index index_dir] [--update-index] \
        [--min-size N] [--max-size N] [--lang en de] \
        [--exclude-url REGEX]

Owns the Ray session (guarded — in a driver-managed context init is a
no-op). Output: partitioned parquet ``clusters/`` + ``summary.json``
(cluster/doc counts, redundant bytes, wall time, config fingerprint) —
the JSON-report sink analogue of PrintMatches (process_matches.rs:604-705).

With --checkpoint, stages P1 (ingest) and P3 (signatures) are persisted
with manifest lineage; a relaunch with the same config skips completed
stages (run with --print-lineage to see hits).
"""

from __future__ import annotations

import argparse
import json
import os
import time


def build_config(args) -> "DedupConfig":
    from .config import DedupConfig

    kw = {}
    if args.min_size is not None:
        kw["min_size"] = args.min_size
    if args.max_size is not None:
        kw["max_size"] = args.max_size
    if args.lang:
        kw["lang_filter"] = tuple(args.lang)
    if args.exclude_url:
        kw["exclude_url_regex"] = args.exclude_url
    return DedupConfig(**kw)


def _install_interrupt_progress(ckpt, t0) -> None:
    """Interrupt-time progress reporting (≅ reference ctrl-c handler,
    src/main.rs:54-80): the first SIGINT prints a JSON progress block —
    elapsed wall + per-stage rows/bytes/wall from the checkpoint
    manifests written so far — and the run CONTINUES; a second SIGINT
    within 1.5 s exits."""
    import signal
    import sys
    import time as _t

    state: dict = {"last": None}

    def handler(signum, frame):
        now = _t.monotonic()
        if state["last"] is not None and now - state["last"] < 1.5:
            sys.exit(1)
        state["last"] = now
        block: dict = {"elapsed_sec": round(now - t0, 3)}
        if ckpt is not None:
            try:
                block["stage_stats"] = ckpt.stage_stats()
            except Exception:  # progress must never crash the run
                pass
        print(json.dumps({"progress": block}), file=sys.stderr, flush=True)
        print(
            "Interrupt caught. Quickly press ctrl-c again to exit.",
            file=sys.stderr,
            flush=True,
        )

    signal.signal(signal.SIGINT, handler)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dedup", description=__doc__)
    ap.add_argument("--input", required=True, help="parquet file/dir of pages")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument(
        "--mode",
        choices=[
            "near", "exact", "simhash", "corpus", "substr",
            "consolidate", "index-build", "index-dedup",
        ],
        default="near",
        help="corpus = write the deduplicated pages (one representative "
             "per near-dup cluster) instead of the clusters table; "
             "index-build = persist a signature index of the input corpus "
             "at --index; index-dedup = dedup the input as a NEW batch "
             "against the --index corpus (kept pages + drop report)",
    )
    ap.add_argument(
        "--index", default=None,
        help="signature index dir (required for index-build / index-dedup)",
    )
    ap.add_argument(
        "--update-index", action="store_true",
        help="after index-dedup, append the kept docs' signatures to the index",
    )
    ap.add_argument("--checkpoint", default=None, help="checkpoint root dir")
    ap.add_argument("--min-size", type=int, default=None)
    ap.add_argument("--max-size", type=int, default=None)
    ap.add_argument("--lang", nargs="*", default=None)
    ap.add_argument("--exclude-url", default=None)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--print-lineage", action="store_true")
    ap.add_argument(
        "--timing", action="store_true",
        help="print per-stage wall-clock ticks (G7 progress-counter analogue)",
    )
    ap.add_argument(
        "--stats", action="store_true",
        help="print ray Dataset per-operator stats (G7 progress-metrics analogue)",
    )
    args = ap.parse_args(argv)
    if args.timing:
        os.environ["DEDUP_TIMING"] = "1"

    import ray

    if not ray.is_initialized():
        # inside `ray job submit` RAY_ADDRESS points at the cluster —
        # join it (per-node resources are the cluster's, so num_cpus is
        # only legal in local mode)
        addr = os.environ.get("RAY_ADDRESS", "local")
        if addr in ("local", ""):
            ray.init(
                address="local",
                num_cpus=args.num_cpus,
                include_dashboard=False,
                ignore_reinit_error=True,
            )
        else:
            ray.init(address=addr, ignore_reinit_error=True)
    import ray.data as rd

    from .cascade import exact_clusters, total_redundant_bytes
    from .checkpoint import CheckpointManager
    from .pipeline import near_dup_pipeline
    from .simhash import simhash_clusters

    cfg = build_config(args)
    t0 = time.monotonic()
    pages = rd.read_parquet(args.input)
    ckpt = CheckpointManager(args.checkpoint, cfg) if args.checkpoint else None
    _install_interrupt_progress(ckpt, t0)

    if args.mode in ("index-build", "index-dedup"):
        if not args.index:
            ap.error(f"--mode {args.mode} requires --index")
        os.makedirs(args.output, exist_ok=True)
        if args.mode == "index-build":
            from .incremental import build_index

            mf = build_index(pages, cfg, args.index)
            summary = {
                "mode": args.mode,
                "input": args.input,
                "index": args.index,
                "index_docs": mf["n_docs"],
                "wall_sec": round(time.monotonic() - t0, 3),
                "config_fingerprint": cfg.fingerprint(),
            }
        else:
            import collections

            import pyarrow.parquet as pq

            from .incremental import incremental_dedup, update_index

            res = incremental_dedup(pages, args.index, cfg)
            kept_dir = os.path.join(args.output, "kept")
            kept = res.kept.materialize()
            kept.write_parquet(kept_dir)
            pq.write_table(res.report, os.path.join(args.output, "report.parquet"))
            summary = {
                "mode": args.mode,
                "input": args.input,
                "index": args.index,
                "rows_kept": kept.count(),
                "rows_dropped": res.report.num_rows,
                "drop_reasons": dict(
                    collections.Counter(res.report.column("reason").to_pylist())
                ),
                "wall_sec": round(time.monotonic() - t0, 3),
                "config_fingerprint": cfg.fingerprint(),
            }
            if args.update_index:
                mf = update_index(args.index, res.kept_sigs, cfg)
                summary["index_docs"] = mf["n_docs"]
        with open(os.path.join(args.output, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2)
        print(json.dumps(summary))
        return 0

    if args.mode == "substr":
        # corpus-level exact-substring dedup: write the span-stripped
        # corpus + per-doc span stats (dedup/substr.py)
        from .substr import exact_substr_dedup

        stripped = exact_substr_dedup(
            pages.select_columns(["url", "text"]), id_col="url",
            max_broadcast_rows=cfg.broadcast_max_rows,
        ).materialize()
        out_dir = os.path.join(args.output, "substr")
        os.makedirs(args.output, exist_ok=True)
        stripped.write_parquet(out_dir)
        from ray.data.aggregate import Sum

        agg = stripped.aggregate(Sum("n_tokens"), Sum("dup_tokens"))
        summary = {
            "mode": args.mode,
            "input": args.input,
            "rows": stripped.count(),
            # empty corpus: Sum aggregates come back None (same guard
            # as the consolidate mode)
            "total_tokens": int(agg["sum(n_tokens)"] or 0),
            "dup_tokens_removed": int(agg["sum(dup_tokens)"] or 0),
            "wall_sec": round(time.monotonic() - t0, 3),
            "config_fingerprint": cfg.fingerprint(),
        }
        with open(os.path.join(args.output, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2)
        print(json.dumps(summary))
        return 0

    if args.mode == "consolidate":
        # crash-safe consolidation executor (≅ the reference's destructive
        # re-link run): plan + applied corpus live under --output, so an
        # interrupted run re-invoked with the same args resumes from the
        # finished url-hash partitions
        from .consolidate import apply_consolidation

        applied = apply_consolidation(pages, args.output, cfg).materialize()
        import pyarrow.compute as _pc

        links = applied.map_batches(
            lambda t: t.filter(_pc.equal(t.column("action"), "link")).select(
                ["size_bytes"]
            ),
            batch_format="pyarrow",
        ).materialize()
        linked = links.count()
        reclaimed = int(links.sum("size_bytes") or 0) if linked else 0
        summary = {
            "mode": args.mode,
            "input": args.input,
            "rows": applied.count(),
            "rows_linked": linked,
            "reclaimed_bytes": reclaimed,
            "wall_sec": round(time.monotonic() - t0, 3),
            "config_fingerprint": cfg.fingerprint(),
        }
        with open(os.path.join(args.output, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2)
        print(json.dumps(summary))
        return 0

    if args.mode == "corpus":
        from .pipeline import near_dup_corpus

        corpus = near_dup_corpus(pages, cfg, checkpoint=ckpt).materialize()
        out_dir = os.path.join(args.output, "corpus")
        os.makedirs(args.output, exist_ok=True)
        corpus.write_parquet(out_dir)
        summary = {
            "mode": args.mode,
            "input": args.input,
            "rows_in_corpus": corpus.count(),
            "wall_sec": round(time.monotonic() - t0, 3),
            "config_fingerprint": cfg.fingerprint(),
        }
        if ckpt is not None and args.print_lineage:
            summary["lineage"] = ckpt.events
        if args.stats and ckpt is not None:
            print(json.dumps({"stage_stats": ckpt.stage_stats()}))
        with open(os.path.join(args.output, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2)
        print(json.dumps(summary))
        return 0

    if args.mode == "exact":
        # materialize BEFORE the redundant-bytes aggregate: computed on
        # the lazy dataset it re-executed the whole cascade, and the
        # write below then ran it a second time
        clusters = exact_clusters(pages, cfg).materialize()
        extra = {"redundant_bytes": total_redundant_bytes(clusters)}
    elif args.mode == "simhash":
        clusters = simhash_clusters(pages, cfg)
        extra = {}
    else:
        res = near_dup_pipeline(pages, cfg, checkpoint=ckpt)
        clusters = res.clusters
        extra = {"verified_edges": res.n_edges()}

    out_dir = os.path.join(args.output, "clusters")
    os.makedirs(args.output, exist_ok=True)
    clusters = clusters.materialize()
    clusters.write_parquet(out_dir)
    n_rows = clusters.count()
    from .exchange import n_distinct

    summary = {
        "mode": args.mode,
        "input": args.input,
        "rows_in_clusters": n_rows,
        # narrow distinct count — cluster membership never reaches the driver
        "n_clusters": n_distinct(clusters, "cluster_id") if n_rows else 0,
        "wall_sec": round(time.monotonic() - t0, 3),
        "config_fingerprint": cfg.fingerprint(),
        **extra,
    }
    if ckpt is not None and args.print_lineage:
        summary["lineage"] = ckpt.events
    if args.stats:
        if ckpt is not None:
            # one JSON block of per-stage rows/bytes/wall from the
            # checkpoint manifests (G7 progress-counter analogue)
            print(json.dumps({"stage_stats": ckpt.stage_stats()}))
        print(clusters.stats())
    with open(os.path.join(args.output, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
