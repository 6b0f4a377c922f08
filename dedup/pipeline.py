"""Flagship near-duplicate pipeline (north rule end-to-end).

    pages ─ingest + sign in one scan (first row per doc_hash in each
             batch; MinHash)→ pin (url, lang, size_bytes, doc_hash,
             short_hash, signature columns — no text)
          ─one signature row per distinct doc_hash (driver, or a
             bucketed first-per-hash over signature rows)→ P3 signatures
          ─candidates (band keys → star components → per-group pairs
             checked by signature agreement and labeled with
             components_np in the same group, dedup/candidates.py)
             → P4 labels (node, label, deg)
          ─assign + count (broadcast lookups, or bucketed joins past the
             guard)→ clusters table

Stage boundaries are Dataset handoffs; ray-native restatement of the
reference lifecycle (src/main.rs:122-166 — walk → short-checksum →
full-checksum → print/consolidate) per SURVEY.md §3.4.

Exact duplicates are collapsed **before** MinHash (one signature per
distinct text ≅ the reference hashing each inode once no matter how many
hard links point at it, process_matches.rs:420-433) and fanned back out at
assignment time. The collapse rides the ingest scan (``scan_sign``): a
batch signs only its first row per hash, and ``signed_reps`` keeps one
signature per hash across batches, so no separate ingest pass runs.
SimHash, ``build_index`` and ``incremental_dedup`` sign through the same
two helpers. With a checkpoint the text-bearing ingest is pinned as P1
(the per-partition signing loop resumes from it) and signed from
``distinct_reps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data import Dataset

from .config import DedupConfig
from .exchange import (
    _add_bucket,
    _dups_np,
    dup_key_counts,
    dup_keys,
    ensure_schema,
    join_typed,
    pinned_table,
    semi_filter,
)
from .ingest import Ingester, ingest
from .minhash import MinHashSigner, sign
from .schema import CLUSTERS, INGESTED


def _local_first_idx(dh: np.ndarray) -> np.ndarray:
    """Row indices of the FIRST occurrence per hash, in original row
    order — the one first-per-doc_hash kernel: the scan's per-batch
    signing choice, the memory tier of ``signed_reps`` and the
    per-batch combiner of the bucketed exchange."""
    _, first_idx = np.unique(dh, return_index=True)
    return np.sort(first_idx)


def _bucket_first(g: pa.Table) -> pa.Table:
    """Arrow-native first-per-hash over one co-located bucket group →
    its columns but ``__bucket``: stable sort on the int64 key +
    boundary take — wide columns (text, signatures) never become Python
    objects (a pandas drop_duplicates here would objectify them)."""
    dh = g.column("doc_hash").to_numpy(zero_copy_only=False)
    order = np.argsort(dh, kind="stable")
    first = np.ones(len(dh), dtype=bool)
    first[1:] = dh[order][1:] != dh[order][:-1]
    keep = np.sort(order[first])  # preserve original row order
    return g.drop_columns(["__bucket"]).take(pa.array(keep, pa.int64()))


def _first_per_hash(
    rows: Dataset,
    dups: np.ndarray,
    n_buckets: int = 32,
    max_broadcast_rows: int | None = None,
) -> Dataset:
    """One row per distinct doc_hash of ``rows`` (typed by the caller
    with ``join_typed``), given the sorted duplicated hashes ``dups``.

    Rows whose hash is not duplicated (the overwhelming majority) pass
    through with **no shuffle**; only rows whose hash is duplicated
    (small set, found via the narrow combiner) shuffle — and by hash
    BUCKET, not by doc_hash: a ``groupby(doc_hash).map_groups(head)``
    pays per-group Python overhead once per duplicate group (seconds at
    10^4 groups); grouping ``n_buckets`` (cfg.join_buckets — sized so
    one bucket's duplicate rows fit a worker) keeps each call one
    vectorized Arrow first-per-key pass over co-located whole groups."""
    uniq = semi_filter(
        rows, "doc_hash", dups, keep=False,
        max_broadcast_rows=max_broadcast_rows, n_buckets=n_buckets,
    )
    if len(dups) == 0:
        return uniq

    def local_first(batch: pa.Table) -> pa.Table:
        dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)
        return batch.take(pa.array(_local_first_idx(dh)))

    dup_rows = semi_filter(
        rows, "doc_hash", dups,
        max_broadcast_rows=max_broadcast_rows, n_buckets=n_buckets,
    ).map_batches(local_first, batch_format="pyarrow")
    return uniq.union(
        _add_bucket(dup_rows, "doc_hash", n_buckets)
        .groupby("__bucket")
        .map_groups(_bucket_first, batch_format="pyarrow")
    )


def distinct_reps(
    ingested: Dataset,
    dups: np.ndarray | None = None,
    n_buckets: int = 32,
    max_broadcast_rows: int | None = None,
) -> Dataset:
    """One row per distinct doc_hash, keeping (doc_hash, text)
    (``_first_per_hash`` over the text-bearing ingest rows).

    ``dups``: precomputed sorted duplicated-key array (callers that
    already ran the narrow count pass supply it to avoid re-executing).
    ``max_broadcast_rows``: threaded into the size-guarded membership
    filters (cfg.broadcast_max_rows at call sites); None keeps the
    module default.
    """
    narrow = ingested.select_columns(["doc_hash", "text"])
    if dups is None:
        dups = dup_keys(ingested, "doc_hash")
    # one typing serves both membership filters: they take one tier
    narrow = join_typed(
        narrow, pa.schema([INGESTED.field("doc_hash"), INGESTED.field("text")]),
        len(dups), max_broadcast_rows,
    )
    return _first_per_hash(
        narrow, dups, n_buckets=n_buckets, max_broadcast_rows=max_broadcast_rows
    )


# the ingest columns of a scan pin (``scan_sign``): everything but text
_NARROW = ["url", "lang", "size_bytes", "doc_hash", "short_hash"]


def scan_sign(pages: Dataset, cfg: DedupConfig, signer) -> Dataset:
    """Ingest and sign in ONE ``map_batches`` over the raw pages → a
    materialized pin with no text column.

    Per batch: ``Ingester`` (gates + hashes), then the first row per
    doc_hash in the batch (``_local_first_idx``) goes through
    ``signer`` (``MinHashSigner`` or ``SimHasher``). Every ingested row
    keeps the narrow columns (``_NARROW``); the signer's columns are
    set on the signed rows and null on the rest. An exact copy whose
    first occurrence lies in another batch signs again, and
    ``signed_reps`` keeps one of them: equal hashes have equal text, so
    which copy signs does not change the signature. The corpus text
    never enters the object store (at 10^12 docs it could not fit and
    would spill; the scan reads the column-pruned source once). The
    pin's schema is recorded, so an empty corpus still types it."""
    ing_fn = Ingester(cfg)
    empty = signer(
        pa.table({"doc_hash": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    sig_cols = empty.column_names[1:]
    schema = pa.schema(
        [INGESTED.field(c) for c in _NARROW]
        + [empty.schema.field(c) for c in sig_cols]
    )

    def ingest_sign(batch: pa.Table) -> pa.Table:
        t = ing_fn(batch)
        first = _local_first_idx(t.column("doc_hash").to_numpy(zero_copy_only=False))
        if len(first) == len(t):
            s = signer(t.select(["doc_hash", "text"]))
        else:
            s = signer(t.take(pa.array(first)).select(["doc_hash", "text"]))
            # scatter the signed rows back; a null index is a null row
            idx = np.zeros(len(t), np.int64)
            idx[first] = np.arange(len(first))
            unsigned = np.ones(len(t), dtype=bool)
            unsigned[first] = False
            s = s.take(pa.array(idx, mask=unsigned))
        # cast: every block must carry the recorded schema (a source
        # may type url or lang differently, e.g. large_string)
        return pa.table(
            [t.column(c) for c in _NARROW] + [s.column(c) for c in sig_cols],
            names=schema.names,
        ).cast(schema)

    return ensure_schema(
        pages.map_batches(
            ingest_sign, batch_format="pyarrow",
            batch_size=cfg.batch_size, zero_copy_batch=True,
        ),
        schema,
    ).materialize()


def signed_reps(
    pin: Dataset, cfg: DedupConfig
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """A ``scan_sign`` pin → (one signature row per distinct doc_hash,
    pinned; the sorted duplicated hashes; their url counts).

    Memory tier: a pin within ``pinned_table``'s guard is read onto the
    driver — duplicate counts by ``_dups_np``, and the first signed row
    per hash — with no execution. Exchange tier: ``dup_key_counts`` over
    the pin, then ``_first_per_hash`` over the signed rows: rows of a
    non-duplicated hash pass through, duplicated hashes take the
    bucketed first-per-hash over signature rows (never text)."""
    schema = pa.schema(pin.schema(fetch_if_missing=False).base_schema)
    cols = ["doc_hash"] + [c for c in schema.names if c not in _NARROW]
    t = pinned_table(pin, cols)
    if t is not None:
        dup_hashes, dup_cnts = _dups_np(
            t.column("doc_hash").to_numpy(zero_copy_only=False)
        )
        # both signers emit n_shingles; it is null exactly on unsigned rows
        t = t.filter(pc.is_valid(t.column("n_shingles")))
        first = _local_first_idx(t.column("doc_hash").to_numpy(zero_copy_only=False))
        if len(first) < len(t):
            t = t.take(pa.array(first))
        return rd.from_arrow(t), dup_hashes, dup_cnts
    dup_hashes, dup_cnts = dup_key_counts(pin, "doc_hash")
    typed = pa.schema([schema.field(c) for c in cols])

    def signed(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch.column("n_shingles"))).select(cols)

    rows = join_typed(
        pin.map_batches(signed, batch_format="pyarrow"),
        typed, len(dup_hashes), cfg.broadcast_max_rows,
    )
    reps = _first_per_hash(
        rows, dup_hashes, n_buckets=cfg.join_buckets,
        max_broadcast_rows=cfg.broadcast_max_rows,
    )
    return ensure_schema(reps, typed).materialize(), dup_hashes, dup_cnts


@dataclass
class NearDupResult:
    clusters: Dataset  # CLUSTERS schema (+ redundant not included here)
    # components of the verified edges (node, label, deg) — see
    # candidates.component_labels: an Arrow table when they fit
    # cfg.broadcast_max_rows, otherwise a Dataset (they never transit
    # the driver)
    labels: "pa.Table | Dataset"
    # the ingest rows — downstream consumers (near_dup_corpus) reuse them
    # instead of re-running ingest. On the no-checkpoint path the narrow
    # projection (url, lang, size_bytes, doc_hash, short_hash) of the
    # ``scan_sign`` pin, which holds no text; text-bearing only when a
    # checkpoint pins the resume copy.
    ingested: Dataset | None = None

    def n_edges(self) -> int:
        """Verified edge count: Σdeg / 2."""
        if isinstance(self.labels, Dataset):
            return int(self.labels.sum("deg") or 0) // 2
        deg = self.labels.column("deg").to_numpy(zero_copy_only=False)
        return int(deg.sum()) // 2


def near_dup_pipeline(
    pages: Dataset, cfg: DedupConfig | None = None, checkpoint=None
) -> NearDupResult:
    """pages → clusters of exact+near duplicate urls.

    ``checkpoint``: optional checkpoint.CheckpointManager — stages
    P1/P3/P4 are written as partitioned parquet and reused on resume.
    """
    cfg = cfg or DedupConfig()
    import os as _os
    import time as _time

    _timing = bool(_os.environ.get("DEDUP_TIMING"))
    _t = _time.monotonic()

    def tick(name):
        nonlocal _t
        if _timing:
            now = _time.monotonic()
            print(f"[dedup-timing] {name}: {now - _t:.2f}s", flush=True)
            _t = now

    if checkpoint is not None:
        # resume contract: the P1 checkpoint keeps the text so the
        # per-partition signing loop can re-scan it across sessions
        ing = checkpoint.load_or_run("p1_ingested", lambda: ingest(pages, cfg))
        tick("ingest")
        # one narrow count pass serves exact-dup collapse AND final
        # cluster sizing (url count per duplicated doc_hash)
        dup_hashes, dup_cnts = dup_key_counts(ing, "doc_hash")
        # the per-partition signing loop below scans reps P times — pin it
        reps = distinct_reps(
            ing, dups=dup_hashes, n_buckets=cfg.join_buckets,
            max_broadcast_rows=cfg.broadcast_max_rows,
        ).materialize()
        tick("reps")
        # per-PARTITION signing checkpoint: reps hash-partition on
        # doc_hash (content-stable across sessions — block boundaries are
        # not); a killed run resumes from completed partitions
        # (≅ checksum memoization, process_matches.rs:435-452)
        from .hashing import fmix64 as _fmix

        P = cfg.sign_partitions

        def sign_part(pid: int):
            def fl(batch: pa.Table) -> pa.Table:
                dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)
                with np.errstate(over="ignore"):
                    m = (_fmix(dh.view(np.uint64)) % np.uint64(P)) == np.uint64(pid)
                return batch.filter(pa.array(m))

            return sign(reps.map_batches(fl, batch_format="pyarrow"), cfg)

        sigs = checkpoint.load_or_run_parts(
            "p3_signatures", list(range(P)), sign_part
        )
    else:
        # one scan ingests and signs (the text never enters the object
        # store); the pin's narrow columns serve cluster assignment and
        # near_dup_corpus, its duplicate counts come with the reps
        pin = scan_sign(pages, cfg, MinHashSigner(cfg))
        sigs, dup_hashes, dup_cnts = signed_reps(pin, cfg)
        ing = pin.select_columns(_NARROW)
    tick("sign")
    if checkpoint is not None and any(
        e.startswith("write:p3_signatures") for e in checkpoint.events
    ):
        # lineage: a rebuilt upstream invalidates derived stages
        checkpoint.invalidate("p4_labels")

    # components of the verified edges (dedup/candidates.py), labeled
    # inside the groups that verify them: an Arrow table while they fit
    # the broadcast guard, a Dataset past it
    from .candidates import component_labels, pinned_labels

    if checkpoint is not None:

        def labels_ds() -> Dataset:
            lab = component_labels(sigs, cfg)
            return rd.from_arrow(lab) if isinstance(lab, pa.Table) else lab

        labels = pinned_labels(checkpoint.load_or_run("p4_labels", labels_ds), cfg)
        # p4_labels replaced the p4_edges stage: a root written before the
        # rename keeps a p4_edges/ that nothing reads
        checkpoint.invalidate("p4_edges")
    else:
        labels = component_labels(sigs, cfg)
    tick("candidates+verify+components")
    clusters = assign_clusters(ing, labels, dup_hashes, dup_cnts, cfg)
    tick("assign")
    return NearDupResult(clusters=clusters, labels=labels, ingested=ing)


def assign_clusters(
    ing: Dataset,
    labels: "pa.Table | Dataset",
    dup_hashes: np.ndarray,
    dup_cnts: np.ndarray,
    cfg: DedupConfig,
    schema: pa.Schema = CLUSTERS,
) -> Dataset:
    """Cluster assignment shared by the flagship and SimHash: ingest
    rows + component labels + the url count per duplicated hash
    (``dup_key_counts(ing, "doc_hash")``) → clusters of ≥2 urls, with
    the columns of ``schema`` (CLUSTERS by default; SimHash drops
    ``size_bytes``). Typed even when no row survives (an empty or
    all-null corpus).

    ``labels`` holds ``(node, label)`` rows, as
    ``candidates.component_labels`` returns them: an Arrow table (driver
    tier) or a Dataset past the broadcast guard (exchange tier). Either
    tier builds a node → (cluster_id, cluster_size) map from state
    already in hand: url count per doc_hash is 1 unless the hash is in
    the (small) duplicated set, a cluster's url count is the sum over
    its member hashes, and exact-dup-only groups (hashes no edge
    touches) are their own clusters. The map holds only clusters of ≥2
    urls, so ONE inner join of the corpus onto it is also the singleton
    filter: a guarded small-side join (``exchange.small_join`` — a
    ray.put broadcast lookup while the dup-bounded map fits
    cfg.broadcast_max_rows, a bucketed hash join past it) on the driver
    tier, a bucketed join on the exchange tier."""
    from .exchange import bucketed_join, small_join

    carried = [c for c in schema.names if c not in ("cluster_id", "cluster_size")]
    narrow = ing.select_columns(carried)
    # a join reads this side's schema: typed, that costs no ``limit=1``
    # execution of the upstream plan (and an empty ingest pin has none)
    typed = pa.schema([schema.field(c) for c in carried])
    if isinstance(labels, Dataset):
        joined = bucketed_join(
            ensure_schema(narrow, typed),
            _node_map_exchange(labels, dup_hashes, dup_cnts, cfg),
            "doc_hash", "__node", n_buckets=cfg.join_buckets,
        )
    else:
        node_map = _node_map(labels, dup_hashes, dup_cnts)
        joined = small_join(
            join_typed(narrow, typed, len(node_map), cfg.broadcast_max_rows),
            "doc_hash", node_map, "__node", how="inner",
            max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
        )
    return ensure_schema(
        joined.map_batches(lambda t: t.select(schema.names), batch_format="pyarrow"),
        schema,
    )


def _node_map(
    labels: pa.Table, dup_hashes: np.ndarray, dup_cnts: np.ndarray
) -> pa.Table:
    """The driver tier's (__node, cluster_id, cluster_size) map."""
    keys, cids = (
        labels.column(c).to_numpy(zero_copy_only=False) for c in ("node", "label")
    )
    # url count per member hash: 1 unless the hash is exact-duplicated
    kc = np.ones(len(keys), np.int64)
    if len(dup_hashes) and len(keys):
        idx = np.minimum(np.searchsorted(dup_hashes, keys), len(dup_hashes) - 1)
        hit = dup_hashes[idx] == keys
        kc[hit] = dup_cnts[idx[hit]]
    # size = Σ url-counts of member hashes: factorize component ids,
    # bincount the per-member url counts
    _, inv = np.unique(cids, return_inverse=True)
    size = np.bincount(inv, weights=kc.astype(np.float64)).astype(np.int64)[inv]
    only = ~np.isin(dup_hashes, keys)
    return pa.table(
        {"__node": pa.array(np.concatenate([keys, dup_hashes[only]]), pa.int64()),
         "cluster_id": pa.array(np.concatenate([cids, dup_hashes[only]]), pa.int64()),
         "cluster_size": pa.array(np.concatenate([size, dup_cnts[only]]), pa.int64())}
    )


def _node_map_exchange(
    labels: Dataset, dup_hashes: np.ndarray, dup_cnts: np.ndarray, cfg: DedupConfig
) -> Dataset:
    """The exchange tier's (__node, cluster_id, cluster_size) map, from
    (node, label) rows: every step is bounded by duplicate-involved
    rows, so the corpus shuffles once, in the caller's join."""
    import pyarrow.compute as pc

    from .exchange import bucketed_join, bucketed_sum_by_key

    labels = labels.materialize()  # dup-bounded; consumed three times
    urlcnt_dup = rd.from_arrow(
        pa.table(
            {"doc_hash": pa.array(dup_hashes, pa.int64()),
             "cnt": pa.array(dup_cnts, pa.int64())}
        )
    ).materialize()

    # member url-counts onto component labels (absent → 1)
    lab_cnt = bucketed_join(
        labels, urlcnt_dup, "node", "doc_hash",
        n_buckets=cfg.join_buckets, how="left",
    )

    def member_cnt(batch: pa.Table) -> pa.Table:
        c = pc.fill_null(batch.column("cnt"), 1)
        return pa.table(
            {"label": batch.column("label"),
             "ucnt": c.cast(pa.int64()) if c.type != pa.int64() else c}
        )

    sizes = ensure_schema(
        bucketed_sum_by_key(
            lab_cnt.map_batches(member_cnt, batch_format="pyarrow"),
            "label", "ucnt", cnt_name="cluster_size",
            n_buckets=cfg.join_buckets,
        ),
        pa.schema([("label", pa.int64()), ("cluster_size", pa.int64())]),
    )

    # node → (cluster_id, cluster_size) for component members
    lab_sz = bucketed_join(
        labels, sizes, "label", "label", n_buckets=cfg.join_buckets
    ).map_batches(
        lambda t: pa.table(
            {"__node": t.column("node"), "cluster_id": t.column("label"),
             "cluster_size": t.column("cluster_size")}
        ),
        batch_format="pyarrow",
    )

    # exact-duplicated hashes with no near-dup component: identity clusters
    def only_missing(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_null(batch.column("__n2")))
        return pa.table(
            {"__node": t.column("doc_hash"), "cluster_id": t.column("doc_hash"),
             "cluster_size": t.column("cnt")}
        )

    exact_only = bucketed_join(
        urlcnt_dup,
        ensure_schema(
            labels.map_batches(
                lambda t: pa.table({"__n2": t.column("node")}),
                batch_format="pyarrow",
            ),
            pa.schema([("__n2", pa.int64())]),
        ),
        "doc_hash", "__n2", n_buckets=cfg.join_buckets, how="left",
    ).map_batches(only_missing, batch_format="pyarrow")

    return ensure_schema(
        lab_sz.union(exact_only),
        pa.schema(
            [("__node", pa.int64()), ("cluster_id", pa.int64()),
             ("cluster_size", pa.int64())]
        ),
    )


def near_dup_corpus(
    pages: Dataset, cfg: DedupConfig | None = None, checkpoint=None
) -> Dataset:
    """The product artifact of NEAR-dup dedup: the corpus with every
    cluster collapsed to its lexicographic-min-url representative;
    non-clustered pages pass through. → (url, size_bytes).

    The drop set (cluster members that are not representatives) is
    bounded by duplicate-involved pages — the same broadcast bound every
    assignment path here relies on — and is applied as a hashed
    semi-filter over the ingest stream, so the corpus itself never
    collects.
    """
    from .hashing import fmix64, xxh64_arrow

    cfg = cfg or DedupConfig()
    res = near_dup_pipeline(pages, cfg, checkpoint=checkpoint)

    def _row_key(urls: pa.Array, dh: np.ndarray) -> np.ndarray:
        # drop identity is (url, doc_hash), not url alone: urls can
        # repeat with DIFFERENT content (a re-crawl), and a url-only
        # drop set would silently remove the unrelated kept row too
        with np.errstate(over="ignore"):
            return (
                fmix64(xxh64_arrow(urls) ^ fmix64(dh.view(np.uint64)))
            ).view(np.int64)

    cl = res.clusters.select_columns(["url", "doc_hash", "cluster_id"])
    t = pa.concat_tables(
        list(cl.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        or [pa.table({"url": pa.array([], pa.string()),
                      "doc_hash": pa.array([], pa.int64()),
                      "cluster_id": pa.array([], pa.int64())})]
    )
    # rep = lexicographic-min url per cluster, found with an Arrow C++
    # sort + boundary mask — the url strings never materialize as Python
    # objects (the table is dup-bounded: only clusters of ≥2 urls).
    # doc_hash tiebreak keeps the surviving version deterministic when
    # the min url appears twice in one cluster with different content.
    if len(t):
        t = t.combine_chunks().sort_by(
            [("cluster_id", "ascending"), ("url", "ascending"),
             ("doc_hash", "ascending")]
        )
        c_s = t.column("cluster_id").to_numpy(zero_copy_only=False)
        is_rep = np.ones(len(c_s), dtype=bool)
        is_rep[1:] = c_s[1:] != c_s[:-1]
        urls_col = t.column("url")
        dh_col = t.column("doc_hash").to_numpy(zero_copy_only=False)
        keys = _row_key(urls_col, dh_col)
        # a (url, doc_hash) pair that is also some cluster's REP — a
        # bit-identical duplicate row of the representative — must not
        # poison the rep out of the corpus; identity collisions resolve
        # toward keeping (the exact-dup pipeline owns identical rows)
        drop_hashes = np.setdiff1d(keys[~is_rep], keys[is_rep])
    else:
        drop_hashes = np.empty(0, np.int64)

    # reuse the pipeline's pinned P1 ingest — re-running ingest here would
    # push the full corpus text through the object store a second time
    ing = res.ingested

    def add_row_key(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__rkey", pa.array(_row_key(urls, dh), pa.int64())
        )

    hashed = ing.select_columns(["url", "doc_hash", "size_bytes"]).map_batches(
        add_row_key, batch_format="pyarrow"
    )
    return semi_filter(
        hashed, "__rkey", drop_hashes, keep=False,
        max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
    ).select_columns(["url", "size_bytes"])


def cluster_partition(clusters: Dataset) -> list[list[str]]:
    """clusters table → sorted list of sorted url lists (order-insensitive
    golden compare; reference group order is HashMap-nondeterministic)."""
    df = clusters.to_pandas()
    if df.empty:
        return []
    return sorted(df.groupby("cluster_id")["url"].apply(lambda s: sorted(s)).tolist())
