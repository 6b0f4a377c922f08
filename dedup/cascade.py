"""Reference-equivalent exact-duplicate cascade.

Stage semantics mirror the reference pipeline
(src/main.rs:122-130 → process_matches.rs):

  stage 1  group by size              (GetFiles,            :65-241)
  stage 2  refine by short checksum   (GroupByShortChecksum, :243-265)
  stage 3  refine by full checksum    (GroupByFullChecksum,  :267-288)
  stage 4  emit duplicate groups      (PrintMatches,         :604-705)

with singleton pruning between every stage (:51-61). Here each prune is a
narrow count-aggregate + broadcast semi-filter (see exchange.py) so the
text payload never enters a shuffle; the only row movement is the final
per-group emission, and even that is a broadcast count lookup.

Keys refine exactly as the reference's groups do:
  stage-2 key ``short_hash`` already mixes in size (ingest.py), so equal
  short keys imply equal sizes; stage-3 key ``doc_hash`` is the full
  content hash (equal content ⇒ equal size+prefix trivially).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from .config import DedupConfig
from .exchange import (
    _dups_np,
    dup_key_counts,
    dup_keys,
    ensure_schema,
    join_typed,
    pinned_table,
    semi_filter,
    small_join,
)
from .ingest import ingest
from .schema import CLUSTERS, INGESTED

_OUT = CLUSTERS.append(pa.field("redundant_bytes", pa.int64()))


def _dup_fulls(
    ingested: Dataset, cfg: DedupConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted dup doc_hashes, counts) after the three-stage cascade,
    computed entirely on NARROW projections of the pinned ingest.

    The stage chain (size → short → full, process_matches.rs:51-61) runs
    over (size_bytes, short_hash, doc_hash) columns only — zero-copy
    column reads of the materialized blocks; the text payload is never
    filtered or re-written between stages. Row-set equivalence with
    filtering the full rows per stage holds because equal doc_hash ⇒
    identical text ⇒ equal size and short_hash: every row of a
    globally-duplicated doc_hash survives stages 1-2 automatically, so
    stage-3 counts over narrow survivors equal counts over full-row
    survivors (pinned by the `cascade_stage_counts` oracle).

    Two tiers, same keys and counts: a pin that fits
    ``exchange.pinned_table``'s guard prunes in memory from ONE read of
    its blocks (no execution); otherwise each stage is a narrow count
    exchange + semi-filter.
    """
    cols = ["size_bytes", "short_hash", "doc_hash"]
    t = pinned_table(ingested, cols)
    if t is not None:
        size, short, full = (
            t.column(c).to_numpy(zero_copy_only=False) for c in cols
        )
        keep = np.isin(size, _dups_np(size)[0])
        keep[keep] = np.isin(short[keep], _dups_np(short[keep])[0])
        return _dups_np(full[keep])
    # the documented convention (config.py): every exchange helper gets
    # the caller's broadcast cap + bucket count, so tuning them actually
    # takes effect on this path
    cap = cfg.broadcast_max_rows if cfg is not None else None
    nb = cfg.join_buckets if cfg is not None else 32
    typed = pa.schema([INGESTED.field(c) for c in cols])
    narrow = ingested.select_columns(cols)
    sizes = dup_keys(narrow, "size_bytes")
    n1 = semi_filter(
        join_typed(narrow, typed, len(sizes), cap), "size_bytes", sizes,
        max_broadcast_rows=cap, n_buckets=nb,
    )
    shorts = dup_keys(n1, "short_hash")
    n2 = semi_filter(
        join_typed(n1, typed, len(shorts), cap), "short_hash", shorts,
        max_broadcast_rows=cap, n_buckets=nb,
    )
    return dup_key_counts(n2, "doc_hash")


def exact_survivors(ingested: Dataset, cfg: DedupConfig) -> Dataset:
    """Rows that survive all three pruning stages: their doc_hash occurs
    more than once. Returns the filtered ingested dataset (url, text, ...,
    doc_hash).

    One full-text object-store write (the ingest pin); the cascade's
    inter-stage pruning happens on narrow columns (`_dup_fulls`), then
    the text is filtered ONCE by the final key set.
    """
    ingested = ingested.materialize()
    fulls, _ = _dup_fulls(ingested, cfg)
    return semi_filter(
        ingested, "doc_hash", fulls,
        max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
    )


def exact_clusters(pages: Dataset, cfg: DedupConfig | None = None) -> Dataset:
    """Full cascade: pages → clusters table
    (url, doc_hash, cluster_id, cluster_size, size_bytes, redundant_bytes).

    ``cluster_id`` = doc_hash (content identity); ``redundant_bytes`` per
    member row is the group's reclaimable bytes (n-1)×size, matching
    DuplicateGroup::redundant_bytes (duplicate_group.rs:51-54) under the
    url≅hard-link mapping (every url beyond the first is redundant).
    """
    cfg = cfg or DedupConfig()
    # pin only the narrow columns the cascade and the emit read: the
    # text is consumed by ingest's hashing and never enters the store
    ing = ingest(pages, cfg).select_columns(
        ["url", "size_bytes", "short_hash", "doc_hash"]
    ).materialize()
    keys, cnts = _dup_fulls(ing, cfg)
    # the dup-bounded count map attaches through the guarded lookup; its
    # inner join keeps exactly the rows of duplicated hashes (count > 1)
    cols = ["url", "doc_hash", "size_bytes"]
    sized = small_join(
        join_typed(
            ing.select_columns(cols), pa.schema([INGESTED.field(c) for c in cols]),
            len(keys), cfg.broadcast_max_rows,
        ),
        "doc_hash",
        pa.table({"doc_hash": pa.array(keys, pa.int64()),
                  "cluster_size": pa.array(cnts, pa.int64())}),
        "doc_hash", how="inner",
        max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
    )

    def emit(batch: pa.Table) -> pa.Table:
        n = batch.column("cluster_size").to_numpy(zero_copy_only=False)
        sz = batch.column("size_bytes").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "url": batch.column("url"),
                "doc_hash": batch.column("doc_hash"),
                "cluster_id": batch.column("doc_hash"),
                "cluster_size": batch.column("cluster_size"),
                "size_bytes": batch.column("size_bytes"),
                "redundant_bytes": pa.array((n - 1) * sz, pa.int64()),
            }
        )

    # typed even when no block reaches the emit (an empty corpus)
    return ensure_schema(sized.map_batches(emit, batch_format="pyarrow"), _OUT)


def dedup_corpus(pages: Dataset, cfg: DedupConfig) -> Dataset:
    """The product artifact of exact dedup: the corpus with duplicates
    REMOVED — one representative (lexicographic-min url) per distinct
    text, unique pages passing through untouched. → (url, size_bytes).

    Unique rows (the overwhelming majority) never shuffle: the narrow
    dup-key pass splits them off via broadcast semi-filter; only rows of
    duplicated hashes enter the (tiny) representative-selection groupby.
    """
    from ray.data.aggregate import Min

    from .ingest import ingest as _ingest

    # pin the NARROW projection only: ingest (regex + full-text hashing)
    # runs once, the text payload never enters the object store at all —
    # the artifact is (url, size_bytes), derivable from narrow columns
    narrow = (
        _ingest(pages, cfg)
        .select_columns(["url", "doc_hash", "size_bytes"])
        .materialize()
    )
    dups = dup_keys(narrow, "doc_hash")
    uniq = semi_filter(
        narrow, "doc_hash", dups, keep=False,
        max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
    ).select_columns(["url", "size_bytes"])
    if len(dups) == 0:
        return uniq

    def local_first(batch: pa.Table) -> pa.Table:
        # per-batch combiner: min-url row per hash (Arrow multi-key sort)
        t = batch.sort_by([("doc_hash", "ascending"), ("url", "ascending")])
        dh = t.column("doc_hash").to_numpy(zero_copy_only=False)
        first = np.ones(len(dh), dtype=bool)
        first[1:] = dh[1:] != dh[:-1]
        return t.take(pa.array(np.flatnonzero(first), pa.int64()))

    reps = (
        semi_filter(
            narrow, "doc_hash", dups,
            max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
        )
        .map_batches(local_first, batch_format="pyarrow")
        .groupby("doc_hash")
        .aggregate(Min("url", alias_name="url"), Min("size_bytes", alias_name="size_bytes"))
        .select_columns(["url", "size_bytes"])
    )
    return uniq.union(reps)


def total_redundant_bytes(clusters: Dataset) -> int:
    """Global reclaimable bytes (≅ the reference's end-of-run sum,
    process_matches.rs:674-675,701): Σ over clusters of (total bytes −
    bytes of one representative). Streaming: a narrow per-cluster
    (sum, min) aggregate then one scalar sum — cluster membership never
    reaches the driver. Exact-dup members share one size, so "min" IS the
    representative's size."""
    from ray.data.aggregate import Min, Sum

    per = (
        clusters.select_columns(["cluster_id", "size_bytes"])
        .groupby("cluster_id")
        .aggregate(Sum("size_bytes", alias_name="tot"), Min("size_bytes", alias_name="one"))
    )

    def red(batch: pa.Table) -> pa.Table:
        t = batch.column("tot").to_numpy(zero_copy_only=False)
        o = batch.column("one").to_numpy(zero_copy_only=False)
        return pa.table({"red": pa.array(t - o, pa.int64())})

    out = per.map_batches(red, batch_format="pyarrow").sum("red")
    return int(out or 0)
