"""Consolidation planning: pick one representative per duplicate cluster
and emit an action table.

≅ the reference's consolidation sink (consolidate_groups /
choose_group_to_preserve, /root/reference/src/consolidation.rs:25-173):
it re-links duplicate files to one inode; the web-text analogue is a
keep/drop projection — which url survives, which urls point at it. The
destructive filesystem mutation has no web analogue (and the reference
itself gates it behind --dry-run); our plan table IS the dry-run output.

Policies (deterministic, ≅ choose_group_to_preserve's
largest-subgroup-else-first rule with our stable tie-breaks):
  - "min_url":  lexicographic-min url (stable, reproducible)
  - "max_size": largest text wins, ties → min url

The plan is computed in one vectorized pass per hash bucket over
already-pruned survivor rows (groups co-located by bucket; no per-group
Python).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .cascade import exact_survivors
from .config import DedupConfig
from .exchange import _add_bucket
from .ingest import ingest


def consolidation_plan(
    pages: Dataset, cfg: DedupConfig | None = None, policy: str = "min_url"
) -> Dataset:
    """pages → (url, action, target_url, reclaimed_bytes) for every member
    of an exact-duplicate cluster. Non-duplicates are absent (nothing to
    reclaim — the fully-hardlinked-group filter F5 analogue)."""
    cfg = cfg or DedupConfig()
    surv = exact_survivors(ingest(pages, cfg), cfg)

    def plan_bucket(batch: pa.Table) -> pa.Table:
        # one vectorized pass over co-located whole groups — never one
        # Python call per duplicate group (row-cardinality at web scale)
        if len(batch) == 0:
            return pa.table(
                {"url": pa.array([], pa.string()),
                 "action": pa.array([], pa.string()),
                 "target_url": pa.array([], pa.string()),
                 "reclaimed_bytes": pa.array([], pa.int64())}
            )
        if policy == "max_size":
            t = batch.sort_by(
                [("doc_hash", "ascending"), ("size_bytes", "descending"),
                 ("url", "ascending")]
            )
        else:
            t = batch.sort_by([("doc_hash", "ascending"), ("url", "ascending")])
        dh = t.column("doc_hash").to_numpy(zero_copy_only=False)
        sz = t.column("size_bytes").to_numpy(zero_copy_only=False)
        urls = t.column("url")
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        n = len(dh)
        first = np.ones(n, dtype=bool)
        first[1:] = dh[1:] != dh[:-1]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))
        seg_id = np.cumsum(first) - 1
        # group representative = its first row under the policy sort
        rep_urls = urls.take(pa.array(starts[seg_id], pa.int64()))
        is_rep = np.zeros(n, dtype=bool)
        is_rep[starts] = True
        keep = sizes[seg_id] > 1  # singletons emit nothing
        out = pa.table(
            {
                "url": urls,
                "action": pa.array(np.where(is_rep, "keep", "link"), pa.string()),
                "target_url": rep_urls,
                "reclaimed_bytes": pa.array(
                    np.where(is_rep, 0, sz).astype(np.int64), pa.int64()
                ),
            }
        )
        return out.filter(pa.array(keep))

    # scale-derived fan-out (one bucket / worker)
    return (
        _add_bucket(
            surv.select_columns(["url", "doc_hash", "size_bytes"]),
            "doc_hash", cfg.join_buckets,
        )
        .groupby("__bucket")
        .map_groups(plan_bucket, batch_format="pyarrow")
    )


def total_reclaimed(plan: Dataset) -> int:
    """Σ reclaimed_bytes (≅ the reference's end-of-run total,
    process_matches.rs:674-675)."""
    return int(plan.sum("reclaimed_bytes") or 0)


def apply_consolidation(
    pages: Dataset,
    out_root: str,
    cfg: DedupConfig | None = None,
    policy: str = "min_url",
    n_parts: int | None = None,
) -> Dataset:
    """Crash-safe consolidation EXECUTOR — the reference's destructive
    re-link step (consolidation.rs:79-173: hardlink over the duplicate,
    fsync, then record it) in the web data model.

    The web analogue of a hardlink is a corpus row whose text lives only
    at its target: output columns ``url, action, target_url, size_bytes,
    text`` where 'keep' rows retain their text, 'link' rows carry
    ``text = NULL`` and point at the keeper (their bytes leave the
    corpus — the reclaim), and rows in no duplicate group pass through
    as 'keep' targeting themselves.

    Crash safety mirrors the reference's link→fsync→db ordering:

    1. the plan is made durable FIRST (``c1_plan`` checkpoint stage) so
       a resumed run applies the identical plan even if the policy or
       corpus sampling would re-derive differently;
    2. each url-hash partition of the applied corpus is written
       atomically (tmp + rename) and recorded in the stage manifest only
       after it durably exists (CheckpointManager.load_or_run_parts) — a
       killed run resumes from the finished partitions, recomputing only
       the rest (pytest-pinned in tests/test_spans_consolidate.py).

    Scale: the plan is dup-bounded; while it fits
    ``cfg.broadcast_max_rows`` it ships once via ``ray.put`` and each
    batch left-joins locally, else both sides take the bucketed hash
    join. The corpus streams once per unfinished partition, column-
    pruned to (url, text).
    """
    import ray

    from .checkpoint import CheckpointManager
    from .exchange import bucketed_join, collect_table
    from .hashing import xxh64_arrow

    cfg = cfg or DedupConfig()
    P = cfg.sign_partitions if n_parts is None else n_parts
    ck = CheckpointManager(out_root, cfg)
    # policy is part of the plan's identity: a deliberate policy change
    # must recompute, not silently resume the previous policy's plan
    plan_stage = f"c1_plan.{policy}"
    plan = ck.load_or_run(
        plan_stage, lambda: consolidation_plan(pages, cfg, policy)
    ).select_columns(["url", "action", "target_url"])

    # The applied-parts stage is keyed by EVERYTHING its rows depend on:
    # the policy, the partition modulus P (parts filtered under a
    # different modulus would silently drop/duplicate rows on resume),
    # and a content hash of the durable plan itself — so stale parts
    # from an older plan can never be resumed, even across the crash
    # window between a plan rebuild and any explicit invalidation.
    def _plan_content_hash() -> str:
        h = np.uint64(0)
        with np.errstate(over="ignore"):
            for b in plan.iter_batches(batch_size=1 << 18, batch_format="pyarrow"):
                cols = [
                    xxh64_arrow(
                        b.column(c).combine_chunks()
                        if isinstance(b.column(c), pa.ChunkedArray)
                        else b.column(c)
                    )
                    for c in ("url", "action", "target_url")
                ]
                row = cols[0] * np.uint64(0x9E3779B97F4A7C15) ^ cols[1]
                row = row * np.uint64(0x9E3779B97F4A7C15) ^ cols[2]
                # XOR-reduce: order-insensitive across blocks/batches
                h ^= np.bitwise_xor.reduce(row, initial=np.uint64(0))
        return f"{int(h):016x}"

    apply_stage = f"c2_applied.{policy}.p{P}.{_plan_content_hash()}"
    corpus = pages.select_columns(["url", "text"])

    def _part_mask(urls: pa.Array, pid: int) -> np.ndarray:
        return (xxh64_arrow(urls) % np.uint64(P)) == np.uint64(pid)

    def _finish(batch: pa.Table) -> pa.Table:
        """Post-join projection shared by both join paths."""
        url = batch.column("url")
        text = batch.column("text")
        action = pc.fill_null(batch.column("action"), "keep")
        target = pc.coalesce(batch.column("target_url"), url)
        linked = pc.equal(action, "link")
        return pa.table(
            {
                "url": url,
                "action": action,
                "target_url": target,
                "size_bytes": pc.cast(pc.binary_length(text), pa.int64()),
                "text": pc.if_else(linked, pa.nulls(len(batch), pa.string()), text),
            }
        )

    plan_schema = pa.schema(
        [("url", pa.string()), ("action", pa.string()), ("target_url", pa.string())]
    )

    broadcast = plan.count() <= cfg.broadcast_max_rows
    if broadcast:
        # ship the plan pre-sliced by url-hash part: each batch joins
        # against its part's dup-bounded slice, not the whole plan
        ptbl = collect_table(plan)
        if ptbl.num_rows == 0:
            # an empty checkpointed plan round-trips without its schema
            ptbl = plan_schema.empty_table()
        purls = ptbl.column("url")
        if isinstance(purls, pa.ChunkedArray):
            purls = purls.combine_chunks()
        # ONE hash pass over the plan urls partitions it into P slices,
        # and each slice is its own object-store entry — a worker
        # processing part pid fetches only that part's dup-bounded
        # slice, never the whole plan
        ppart = xxh64_arrow(purls) % np.uint64(P)
        refs = [
            ray.put(ptbl.filter(pa.array(ppart == np.uint64(pid))))
            for pid in range(P)
        ]

        def apply_part(pid: int) -> Dataset:
            pref = refs[pid]

            def fn(batch: pa.Table) -> pa.Table:
                urls = batch.column("url")
                if isinstance(urls, pa.ChunkedArray):
                    urls = urls.combine_chunks()
                part = batch.filter(pa.array(_part_mask(urls, pid)))
                j = part.join(ray.get(pref), keys="url", join_type="left outer")
                return _finish(j)

            return corpus.map_batches(fn, batch_format="pyarrow")

    else:

        def apply_part(pid: int) -> Dataset:
            def fl(batch: pa.Table) -> pa.Table:
                urls = batch.column("url")
                if isinstance(urls, pa.ChunkedArray):
                    urls = urls.combine_chunks()
                return batch.filter(pa.array(_part_mask(urls, pid)))

            pp = corpus.map_batches(fl, batch_format="pyarrow")
            pl = plan.map_batches(
                lambda t: t.rename_columns(["__purl", "action", "target_url"]),
                batch_format="pyarrow",
            ).map_batches(
                lambda t: t.filter(
                    pa.array(_part_mask(t.column("__purl").combine_chunks(), pid))
                ),
                batch_format="pyarrow",
            )
            j = bucketed_join(
                pp, pl, "url", "__purl", n_buckets=cfg.join_buckets, how="left"
            )
            return j.map_batches(_finish, batch_format="pyarrow")

    return ck.load_or_run_parts(apply_stage, list(range(P)), apply_part)
