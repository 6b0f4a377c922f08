"""Flagship near-duplicate pipeline (north rule end-to-end).

    pages ─ingest→ P1(url,text,identity cols)
          ─distinct-content reps→ sign (MinHash actor pool) → P3 signatures
          ─candidates (band keys → components → per-group pairs checked
             by signature agreement, dedup/candidates.py)→ P4 edges
          ─union-find→ cluster map (doc_hash → cluster_id)
          ─broadcast assign + count→ clusters table

Stage boundaries are Dataset handoffs; ray-native restatement of the
reference lifecycle (src/main.rs:122-166 — walk → short-checksum →
full-checksum → print/consolidate) per SURVEY.md §3.4.

Exact duplicates are collapsed **before** MinHash (one signature per
distinct text ≅ the reference hashing each inode once no matter how many
hard links point at it, process_matches.rs:420-433) and fanned back out at
assignment time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from .config import DedupConfig
from .exchange import dup_key_counts, dup_keys, semi_filter
from .ingest import ingest
from .minhash import sign
from .schema import CLUSTERS


def _local_first_idx(dh: np.ndarray) -> np.ndarray:
    """Row indices of the FIRST occurrence per hash, in original row
    order — the per-batch combiner every first-per-doc_hash site shares
    (one kernel: the fused and unfused signing paths are asserted
    output-identical, so their combiners must be the same code)."""
    _, first_idx = np.unique(dh, return_index=True)
    return np.sort(first_idx)


def _bucket_first(g: pa.Table) -> pa.Table:
    """Arrow-native first-per-hash over one co-located bucket group →
    (doc_hash, text): stable sort on the int64 key + boundary take —
    the text column never becomes Python objects (a pandas
    drop_duplicates here would objectify every string)."""
    dh = g.column("doc_hash").to_numpy(zero_copy_only=False)
    order = np.argsort(dh, kind="stable")
    first = np.ones(len(dh), dtype=bool)
    first[1:] = dh[order][1:] != dh[order][:-1]
    keep = np.sort(order[first])  # preserve original row order
    return g.select(["doc_hash", "text"]).take(pa.array(keep, pa.int64()))


def _dup_rep_rows(
    narrow: Dataset,
    dups: np.ndarray,
    n_buckets: int = 32,
    max_broadcast_rows: int | None = None,
) -> Dataset:
    """One (doc_hash, text) row per DUPLICATED hash — the small branch of
    ``distinct_reps``, factored out so the fused signing path can union
    it with its own uniq branch."""

    def local_first(batch: pa.Table) -> pa.Table:
        dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)
        return batch.take(pa.array(_local_first_idx(dh)))

    from .exchange import _add_bucket

    return (
        _add_bucket(
            semi_filter(
                narrow, "doc_hash", dups,
                max_broadcast_rows=max_broadcast_rows, n_buckets=n_buckets,
            ).map_batches(local_first, batch_format="pyarrow"),
            "doc_hash",
            n_buckets,
        )
        .groupby("__bucket")
        .map_groups(_bucket_first, batch_format="pyarrow")
    )


def distinct_reps(
    ingested: Dataset,
    dups: np.ndarray | None = None,
    n_buckets: int = 32,
    max_broadcast_rows: int | None = None,
) -> Dataset:
    """One row per distinct doc_hash, keeping (doc_hash, text).

    Unique-content rows (the overwhelming majority) pass through with **no
    shuffle**; only rows whose doc_hash is duplicated (small set, found via
    the narrow combiner) shuffle — and by hash BUCKET, not by doc_hash:
    a ``groupby(doc_hash).map_groups(head)`` pays per-group Python
    overhead once per duplicate group (seconds at 10^4 groups); grouping
    ``n_buckets`` (cfg.join_buckets — sized so one bucket's duplicate rows
    fit a worker) keeps each call one vectorized Arrow first-per-key pass
    over co-located whole groups (no pandas — text stays Arrow strings).

    ``dups``: precomputed sorted duplicated-key array (callers that
    already ran the narrow count pass supply it to avoid re-executing).
    ``max_broadcast_rows``: threaded into the size-guarded membership
    filters (cfg.broadcast_max_rows at call sites); None keeps the
    module default.
    """
    narrow = ingested.select_columns(["doc_hash", "text"])
    if dups is None:
        dups = dup_keys(ingested, "doc_hash")
    uniq = semi_filter(
        narrow, "doc_hash", dups, keep=False,
        max_broadcast_rows=max_broadcast_rows, n_buckets=n_buckets,
    )
    if len(dups) == 0:
        return uniq
    return uniq.union(
        _dup_rep_rows(
            narrow, dups, n_buckets=n_buckets,
            max_broadcast_rows=max_broadcast_rows,
        )
    )


def _sign_distinct_fused(
    pages: Dataset, dups: np.ndarray, cfg: DedupConfig
) -> Dataset:
    """Ingest → distinct-rep selection → signing FUSED into one
    ``map_batches`` over the raw pages, so the corpus TEXT never enters
    the object store at all: the unfused ``sign(distinct_reps(ingest))``
    shape materialized the full ingested text once and re-read it once
    (the union node in distinct_reps blocks Ray Data's operator fusion;
    measured ~240 + ~105 MB per 200k docs in tools/plasma_audit.py).
    At 10^12-doc scale the materialized text wouldn't fit the object
    store and would spill — re-reading the column-pruned source parquet
    (this pass + the narrow-ingest pass) is strictly cheaper than a
    corpus-sized spill write + read.

    Per batch: ingest (gates + hashes), drop exact-duplicated rows, sign
    the unique-content rows, and CARRY one (doc_hash, text) candidate
    row per duplicated hash seen in the batch (the per-batch combiner)
    out through a unified schema — sig columns null on carried rows,
    text null on signed rows. The carried rows (dup-bounded) then take
    the bucketed first-per-hash exchange and a second (tiny) signing
    pass; equal content hashes have equal text, so WHICH duplicate
    representative signs is immaterial to the signature.

    Falls back to the unfused path when the dup set exceeds
    ``cfg.broadcast_max_rows`` (the same guard ``semi_filter`` applies);
    output ≡ ``sign(distinct_reps(ingest(pages), dups), cfg)`` up to row
    order — MinHashSigner is row-wise deterministic."""
    import pyarrow.compute as pc

    from .minhash import MinHashSigner, sign as _sign

    if len(dups) > cfg.broadcast_max_rows:
        return _sign(
            distinct_reps(
                ingest(pages, cfg), dups=dups, n_buckets=cfg.join_buckets,
                max_broadcast_rows=cfg.broadcast_max_rows,
            ),
            cfg,
        ).materialize()
    import ray

    from .ingest import Ingester

    from .exchange import member_probe, member_table

    ing_fn = Ingester(cfg)
    signer = MinHashSigner(cfg)
    dups_sorted = np.sort(dups)
    ref = ray.put(dups_sorted)
    # occupancy prefilter built once driver-side and shipped with the
    # set — this membership test runs once per corpus row (the hottest
    # probe in the flagship), exactly the pattern member_table exists
    # for (2.5-3.8x over a bare per-probe binary search)
    tbl_ref = ray.put(member_table(dups_sorted))

    def ingest_filter_sign(batch: pa.Table) -> pa.Table:
        t = ing_fn(batch)
        ks = ray.get(ref)
        dh = t.column("doc_hash").to_numpy(zero_copy_only=False)
        isdup = member_probe(ks, ray.get(tbl_ref), dh)
        sig_tbl = signer(
            t.filter(pa.array(~isdup)).select(["doc_hash", "text"])
        )
        if not len(ks):
            # no duplicated hash anywhere: pass B's output IS the
            # signature table (no carried rows to split off later)
            return sig_tbl
        sig_type = sig_tbl.schema.field("sig").type
        out = sig_tbl.append_column(
            "text", pa.nulls(len(sig_tbl), pa.string())
        )
        if isdup.any():
            d = t.filter(pa.array(isdup)).select(["doc_hash", "text"])
            # per-batch combiner: first occurrence per duplicated hash
            ddh = d.column("doc_hash").to_numpy(zero_copy_only=False)
            d = d.take(pa.array(_local_first_idx(ddh)))
            n = len(d)
            carry = pa.table(
                {
                    "doc_hash": d.column("doc_hash"),
                    "sig": pa.nulls(n, sig_type),
                    "n_shingles": pa.nulls(n, pa.int64()),
                    "set_hash": pa.nulls(n, pa.int64()),
                    "text": d.column("text"),
                }
            )
            out = pa.concat_tables([out, carry])
        return out

    passb = pages.map_batches(
        ingest_filter_sign, batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    ).materialize()
    if len(dups) == 0:
        return passb

    def only_sigs(batch: pa.Table) -> pa.Table:
        m = pc.is_null(batch.column("text"))
        return batch.filter(m).select(
            ["doc_hash", "sig", "n_shingles", "set_hash"]
        )

    def only_texts(batch: pa.Table) -> pa.Table:
        m = pc.is_valid(batch.column("text"))
        return batch.filter(m).select(["doc_hash", "text"])

    # final pin: downstream consumes the signature table several times
    # (banding, verification tiers); materializing the narrow projection
    # lets the pass-B blocks (which still carry the dup-rep texts) be
    # released instead of being re-filtered per consumer
    uniq_sigs = passb.map_batches(only_sigs, batch_format="pyarrow")
    from .exchange import _add_bucket

    rep_texts = (
        _add_bucket(
            passb.map_batches(only_texts, batch_format="pyarrow"),
            "doc_hash",
            cfg.join_buckets,
        )
        .groupby("__bucket")
        .map_groups(_bucket_first, batch_format="pyarrow")
    )
    return uniq_sigs.union(_sign(rep_texts, cfg)).materialize()


@dataclass
class NearDupResult:
    clusters: Dataset  # CLUSTERS schema (+ redundant not included here)
    # verified pairs (a, b, sim): an Arrow table on the driver backend,
    # a Dataset on the fully-distributed backend (edges never
    # transit the driver there)
    edges: "pa.Table | Dataset"
    # the pinned P1 ingest Dataset — downstream consumers (near_dup_corpus)
    # reuse it instead of re-running ingest. NARROW on the no-checkpoint
    # path (url, lang, size_bytes, doc_hash, short_hash — no text; the
    # text never enters the object store there); text-bearing only when
    # a checkpoint pins the resume copy.
    ingested: Dataset | None = None
    n_candidate_docs: int = 0

    def n_edges(self) -> int:
        return self.edges.count() if isinstance(self.edges, Dataset) else len(self.edges)


def near_dup_pipeline(
    pages: Dataset, cfg: DedupConfig | None = None, checkpoint=None
) -> NearDupResult:
    """pages → clusters of exact+near duplicate urls.

    ``checkpoint``: optional checkpoint.CheckpointManager — stages P1/P3
    are written as partitioned parquet and reused on resume.
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

    def stage(name, fn):
        if checkpoint is not None:
            return checkpoint.load_or_run(name, fn)
        # no checkpoint → pin the stage in the object store: it is
        # consumed by several downstream passes and a lazy Dataset would
        # re-execute its whole upstream each time. At scale the object
        # store spills to disk, so this is the same durability tradeoff
        # as the parquet checkpoint, minus the lineage manifest.
        return fn().materialize()

    if checkpoint is not None:
        # resume contract: the P1 checkpoint keeps the text so the
        # per-partition signing loop can re-scan it across sessions
        ing = stage("p1_ingested", lambda: ingest(pages, cfg))
    else:
        # narrow pin: every post-signing consumer (dup counts, cluster
        # assignment, near_dup_corpus) needs only these columns, and the
        # signing pass below re-ingests the raw pages instead of reading
        # a materialized text copy — the corpus text never enters the
        # object store (at 10^12 docs it could not fit and would spill;
        # re-reading column-pruned source parquet is strictly cheaper)
        ing = ingest(pages, cfg).select_columns(
            ["url", "lang", "size_bytes", "doc_hash", "short_hash"]
        ).materialize()
    tick("ingest")
    # one narrow count pass serves exact-dup collapse AND final cluster
    # sizing (url count per duplicated doc_hash)
    dup_hashes, dup_cnts = dup_key_counts(ing, "doc_hash")
    tick("dup_counts")
    if checkpoint is not None:
        # the per-partition signing loop below scans reps P times — pin it
        reps = distinct_reps(
            ing, dups=dup_hashes, n_buckets=cfg.join_buckets,
            max_broadcast_rows=cfg.broadcast_max_rows,
        ).materialize()
    tick("reps")
    if checkpoint is not None:
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
        # no checkpoint: ingest + rep selection fuse into the signing
        # task over the raw pages (text never enters the object store);
        # materialization happens inside (pass-B blocks + tiny rep sigs)
        sigs = _sign_distinct_fused(pages, dup_hashes, cfg)
    tick("sign")
    _EDGES_EMPTY = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "sim": pa.array([], pa.float64())}
    )
    if checkpoint is not None and any(
        e.startswith("write:p3_signatures") for e in checkpoint.events
    ):
        # lineage: a rebuilt upstream invalidates derived stages
        checkpoint.invalidate("p4_edges")

    if cfg.cluster_backend == "distributed":
        return _near_dup_distributed(
            ing, sigs, cfg, checkpoint, tick,
            dup_hashes=dup_hashes, dup_cnts=dup_cnts,
        )

    if checkpoint is not None and checkpoint.is_valid("p4_edges"):
        # resume: skip banding, sort and verification entirely
        batches = list(
            checkpoint.load_or_run("p4_edges", None).iter_batches(
                batch_size=1 << 20, batch_format="pyarrow"
            )
        )
        edges = pa.concat_tables(batches) if batches else _EDGES_EMPTY
        tick("p4_edges (checkpoint hit)")
    else:
        # component-localized generation + in-group verification: small
        # pinned signatures verify as one group on the driver (memory
        # tier, no execution); otherwise star pass → components → exact
        # per-component regen + signature agreement (and exact-mode
        # set-hash equality) checked where the pairs are born — no pair
        # shuffle, no broadcast signature matrix (see
        # dedup/candidates.py). The verified edge set is dup-bounded, so
        # it is collected for the driver components below.
        from .candidates import (
            EDGES_SCHEMA,
            component_verified_edges,
            memory_verified_edges,
        )
        from .exchange import collect_table

        edges = memory_verified_edges(sigs, cfg)
        if edges is not None:
            tick("candidates (memory tier: one group)")
        else:
            edges = collect_table(
                component_verified_edges(sigs, cfg), schema=EDGES_SCHEMA
            )
            tick("candidates (exchange tier: stars+components+groups)")
        if checkpoint is not None and len(edges):
            checkpoint.load_or_run("p4_edges", lambda: rd.from_arrow(edges))
        tick("verify")

    # driver components over verified edges (vectorized; O(E log n))
    from .unionfind import components_np

    keys, cids = components_np(
        edges.column("a").to_numpy(zero_copy_only=False),
        edges.column("b").to_numpy(zero_copy_only=False),
    )

    clusters = assign_clusters(ing, keys, cids, dup_hashes, dup_cnts, cfg)
    tick("components+finish")
    return NearDupResult(clusters=clusters, edges=edges, ingested=ing)


def assign_clusters(
    ing: Dataset,
    keys: np.ndarray,
    cids: np.ndarray,
    dup_hashes: np.ndarray,
    dup_cnts: np.ndarray,
    cfg: DedupConfig,
    schema: pa.Schema = CLUSTERS,
) -> Dataset:
    """Driver-side cluster assignment shared by the flagship and SimHash:
    ingest rows + union-find components (``keys`` → ``cids``) + the url
    count per duplicated hash (``dup_key_counts(ing, "doc_hash")``) →
    clusters of ≥2 urls, with the columns of ``schema`` (CLUSTERS by
    default; SimHash drops ``size_bytes``). Typed even when no row
    survives (an empty or all-null corpus).

    Cluster sizes come from state already in hand — no extra shuffle or
    collect: url count per doc_hash is 1 unless the hash is in the
    (small) duplicated set; a cluster's url count is the sum over its
    member hashes. Exact-dup-only groups (hashes never touched by an
    edge) are their own clusters. The assignment is two guarded
    small-side joins (``exchange.small_join`` — a ray.put broadcast
    lookup while the dup-bounded maps fit cfg.broadcast_max_rows, a
    bucketed hash join past it)."""
    from .exchange import ensure_schema, small_join

    def _count_of(hashes: np.ndarray) -> np.ndarray:
        if not len(dup_hashes):
            return np.ones(len(hashes), np.int64)
        idx = np.minimum(np.searchsorted(dup_hashes, hashes), len(dup_hashes) - 1)
        hit = dup_hashes[idx] == hashes
        out = np.ones(len(hashes), np.int64)
        out[hit] = dup_cnts[idx[hit]]
        return out

    # components: size = Σ url-counts of member hashes — vectorized:
    # factorize component ids, bincount the per-member url counts
    if len(keys):
        kc = _count_of(keys)
        uniq_c, inv = np.unique(cids, return_inverse=True)
        sums = np.bincount(inv, weights=kc.astype(np.float64)).astype(np.int64)
        size_keys, size_vals = uniq_c, sums
    else:
        size_keys = np.empty(0, np.int64)
        size_vals = np.empty(0, np.int64)
    # exact-only dup hashes (not in any component) form identity clusters
    if len(dup_hashes):
        in_uf = (
            np.zeros(len(dup_hashes), bool)
            if not len(keys)
            else np.isin(dup_hashes, keys)
        )
        size_keys = np.concatenate([size_keys, dup_hashes[~in_uf]])
        size_vals = np.concatenate([size_vals, dup_cnts[~in_uf]])
    so = np.argsort(size_keys)
    size_keys, size_vals = size_keys[so], size_vals[so]

    lab_t = pa.table(
        {"__node": pa.array(keys, pa.int64()), "__cid": pa.array(cids, pa.int64())}
    )
    # size table holds only clusters of ≥2 urls, so the inner join below
    # IS the n>1 filter (identity singletons have no row to match)
    size_t = pa.table(
        {"__sk": pa.array(size_keys, pa.int64()),
         "cluster_size": pa.array(size_vals, pa.int64())}
    )
    carried = [c for c in schema.names if c not in ("cluster_id", "cluster_size")]
    withcid = small_join(
        ing.select_columns(carried), "doc_hash", lab_t, "__node", how="left",
        max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
    )

    def coalesce(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cid = pc.coalesce(batch.column("__cid"), batch.column("doc_hash"))
        return batch.drop_columns(["__cid"]).append_column(
            "cluster_id", cid.cast(pa.int64()) if cid.type != pa.int64() else cid
        )

    clusters = small_join(
        withcid.map_batches(coalesce, batch_format="pyarrow"),
        "cluster_id", size_t, "__sk", how="inner",
        max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
    ).map_batches(lambda t: t.select(schema.names), batch_format="pyarrow")
    return ensure_schema(clusters, schema)


def _near_dup_distributed(
    ing: Dataset, sigs: Dataset, cfg: DedupConfig, checkpoint, tick,
    dup_hashes: np.ndarray | None = None, dup_cnts: np.ndarray | None = None,
) -> NearDupResult:
    """Fully-Dataset flagship path (``cluster_backend="distributed"``):
    verified edges, propagated labels and the cluster assignment never
    transit the driver — every stage handoff is a Dataset, and ``p4_edges``
    is a partitioned-parquet checkpoint when a CheckpointManager is given.
    ≅ the reference's bounded-channel stage-to-stage handoff
    (src/main.rs:143-166), restated at cluster scale.

    Stages: ``component_verified_edges`` on its Dataset tiers (star pass →
    label_propagation → per-component regen + verify, exact-mode set-hash
    equality included) → label_propagation over the verified edges
    (min-label to fixpoint) → cluster assignment by a bucketed LEFT join
    of labels onto the corpus + a distributed url-count per cluster
    (combiner groupby), singleton clusters dropped by the final inner
    count join.
    """
    from .candidates import EDGES_SCHEMA, component_verified_edges
    from .exchange import bucketed_join, ensure_schema, key_counts
    from .unionfind import label_propagation

    def build_edges() -> Dataset:
        # pairs are generated, deduplicated and verified inside the
        # component groups, and nothing transits the driver
        return ensure_schema(
            component_verified_edges(sigs, cfg, dataset_labels=True),
            EDGES_SCHEMA,
        )

    if checkpoint is not None:
        edges = checkpoint.load_or_run("p4_edges", build_edges)
    else:
        # pinned once: consumed by label_propagation AND returned to the
        # caller; a lazy Dataset would re-run the verify joins per consumer
        edges = build_edges().materialize()
    tick("verify (dataset)")

    if edges.count() == 0:
        labels = rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64())})
        )
    else:
        labels = label_propagation(
            edges.map_batches(lambda t: t.select(["a", "b"]), batch_format="pyarrow"),
            n_buckets=cfg.join_buckets,
        )
    tick("label_propagation")

    # ---- fused assignment: the earlier design left-joined labels onto
    # the corpus, materialized that corpus-wide table, ran a corpus-wide
    # count over it and joined the counts back — two corpus joins + one
    # corpus-wide exchange. Cluster sizes are computable from DUP-BOUNDED
    # state alone (the driver assignment's trick, restated as Datasets):
    # url-count(node) = 1 unless the hash is exact-duplicated, and
    # cluster_size(label) = Σ url-counts of member nodes. So everything
    # below except the single final join is bounded by duplicate-involved
    # rows, and the corpus shuffles exactly once.
    import pyarrow.compute as pc

    from .exchange import bucketed_sum_by_key

    labels = labels.materialize()  # dup-bounded; consumed three times
    _MAP_SCHEMA = pa.schema(
        [("__node", pa.int64()), ("cluster_id", pa.int64()),
         ("cluster_size", pa.int64())]
    )

    # url count per exact-duplicated hash. The caller already collected
    # these dup-bounded arrays in its narrow count pass (dup_key_counts,
    # serving exact-dup collapse) — reuse them instead of paying a second
    # full-corpus doc_hash combiner scan + bucketed exchange here.
    # ensure_schema: a corpus with no exact dups leaves this empty, and
    # empty groupby/filter outputs report schema None, breaking the joins.
    if dup_hashes is not None and dup_cnts is not None:
        urlcnt_dup = rd.from_arrow(
            pa.table(
                {"doc_hash": pa.array(dup_hashes, pa.int64()),
                 "cnt": pa.array(dup_cnts, pa.int64())}
            )
        ).materialize()
    else:
        urlcnt_dup = ensure_schema(
            key_counts(ing.select_columns(["doc_hash"]), "doc_hash").filter(
                expr="cnt > 1"
            ),
            pa.schema([("doc_hash", pa.int64()), ("cnt", pa.int64())]),
        ).materialize()  # dup-bounded; consumed twice

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

    # the single corpus-wide exchange: inner join IS the singleton filter.
    # Typed: an ingest pin with no blocks reports no schema to join by.
    carried = ["url", "doc_hash", "size_bytes"]
    narrow = ensure_schema(
        ing.select_columns(carried),
        pa.schema([CLUSTERS.field(c) for c in carried]),
    )
    clusters = ensure_schema(
        bucketed_join(
            narrow, ensure_schema(lab_sz.union(exact_only), _MAP_SCHEMA),
            "doc_hash", "__node",
            n_buckets=cfg.join_buckets,
        ).map_batches(lambda t: t.select(CLUSTERS.names), batch_format="pyarrow"),
        CLUSTERS,
    )
    tick("assign (dataset)")
    return NearDupResult(clusters=clusters, edges=edges, ingested=ing)


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
    from .exchange import semi_filter_auto as _semi

    return _semi(
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
