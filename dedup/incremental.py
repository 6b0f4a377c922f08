"""Incremental dedup against a persisted corpus index.

The between-crawl-snapshots operator a training-data pipeline needs:
dedup a NEW batch of pages against an already-deduplicated corpus
WITHOUT re-processing the corpus. The index is partitioned parquet on
shared storage — the signature table (one row per distinct content
identity: doc_hash, MinHash sig, set_hash), stamped with the config
fingerprint — and a batch run streams the index exactly once with
size-guarded membership tests: nothing corpus-sized is ever collected
on the driver or re-signed.

Reference analogue: the SQLite checksum DB the reference resumes from
(``file_db.rs:353-454`` ``get_with_checksum`` — previously hashed files
are never re-hashed), generalized to near-dup signatures and a
multi-snapshot corpus lifecycle (build → dedup batch → append).

Semantics (append-only corpus — history is never rewritten):

- a new page whose ``doc_hash`` already exists in the index is an exact
  duplicate of the corpus → dropped (``exact_corpus``);
- a new page whose connected component (over verified near-dup edges,
  which may pass through other new docs) reaches ANY index doc →
  dropped (``near_corpus``) — the corpus representative stays even when
  the new url would sort lower, because append-only corpora do not
  replace already-published representatives;
- the remaining new pages dedup among themselves with the
  ``near_dup_corpus`` policy: each cluster (near-dup component ∪ exact
  doc_hash group) keeps its lexicographic-min-url page
  (``near_batch`` / ``exact_batch`` drops);
- ``update_index`` appends the kept pages' signature rows as NEW
  parquet files in the same directory (no rewrite of existing parts)
  and bumps the manifest.

Data movement at scale (new batch ≪ corpus, the normal regime): each
batch run scans only the index's NARROW tables — the 8 B/doc hash
column for exact membership and the persisted 16 B/row ``bands`` table
(precomputed at build/update time) for LSH probing; the 1 KB/doc
signature rows are fetched only for band-bucket-sharing candidates,
with the membership filter pushed into the parquet scan. Candidate
pairs, verified edges and the drop report are bounded by
duplicate-INVOLVED docs, not by the corpus or the batch. Two tiers,
chosen once per call:

- **memory tier**: the batch's ingest and signature pins fit
  ``exchange.pinned_table`` and the index has a band table of at most
  ``exchange._DRIVER_READ_MAX`` rows (manifest ``n_docs × bands``: the
  rows the band probe scans). Every probe, fetch and filter after the
  signing pass runs on the driver with pyarrow — the exact probe, the
  band-hit read and the candidate-signature fetch are pushed-down
  ``isin`` scans of the index files (``pyarrow.dataset``), and ``kept``
  / ``kept_sigs`` return as in-memory Datasets that ``update_index``
  writes with ``pyarrow.parquet``. No Ray Data execution runs past the
  two pins. ``build_index`` takes the same tier when its signature pin
  fits, and writes the index and its Bloom sidecar from memory.
- **exchange tier** (larger batches or indexes, and legacy indexes
  without ``bands/``): the same probes as Ray Data scans, membership
  size-guarded via ``semi_filter`` — broadcast while the key set
  fits ``cfg.broadcast_max_rows``, bucketed hash join past it.

Both tiers classify with one function (``_classify``), so they return
the same drop report, kept pages and kept signatures.

Verification is the flagship's: the batch signatures ∪ the signatures of
the index docs that share a band key with the batch go through
``candidates._verify_group`` as one driver group (the memory tier, and
the exchange tier while that union's pin fits
``exchange._DRIVER_READ_MAX``: ``memory_verified_edges``), else
``component_verified_edges`` (star pass → components → per-group
regen + verify), exact-mode set-hash equality included. Only edges
with an endpoint among the batch hashes are kept. A bucket that holds
a batch doc has exactly the members a per-band probe would give it —
every index doc with that band key is in the union — so those edges
are the probe's, up to the sorted-block fragment cases the
``candidates`` docstring lists. The group also re-derives the index
docs' other band keys: the old–old pairs that yields drop with the
touches-batch filter, except when one endpoint is a batch page that
exactly copies a corpus doc (its hash is a batch hash). Such an edge joins two corpus docs, so it changes no page's
classification; at most it names a different (verified) corpus member
as a ``near_corpus`` row's ``matched``.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data as rd
from ray.data import Dataset

from . import exchange
from .candidates import (
    EDGES_SCHEMA,
    _sig_cols,
    _verify_group,
    component_verified_edges,
    memory_verified_edges,
    minhash_kernel,
)
from .config import DedupConfig
from .exchange import (
    collect_table,
    dup_keys,
    member_probe,
    pinned_table,
    semi_filter,
)
from .hashing import xxh64_arrow
from .ingest import ingest
from .lsh import Bander, band_rows
from .minhash import MinHashSigner, sign
from .pipeline import distinct_reps
from .unionfind import components_np

INDEX_SCHEMA_VERSION = 1


def _paths(index_dir: str) -> tuple[str, str, str]:
    return (
        os.path.join(index_dir, "sigs"),
        os.path.join(index_dir, "bands"),
        os.path.join(index_dir, "manifest.json"),
    )


def _manifest(index_dir: str) -> dict | None:
    _, _, mpath = _paths(index_dir)
    if not os.path.exists(mpath):
        return None
    with open(mpath) as f:
        return json.load(f)


def _write_manifest(index_dir: str, cfg: DedupConfig, n_docs: int) -> None:
    _, _, mpath = _paths(index_dir)
    tmp = mpath + ".tmp"
    with open(tmp, "w") as f:
        json.dump(
            {
                "schema_version": INDEX_SCHEMA_VERSION,
                "config_fingerprint": cfg.fingerprint(),
                # persisted slot width: the fingerprint excludes sig_bytes
                # at its default, so the layout must be stamped explicitly
                # (an old 8-byte index probed under sig_bytes=4 would
                # otherwise fail deep inside a union with an opaque error)
                "sig_bytes": cfg.sig_bytes,
                "n_docs": int(n_docs),
            },
            f,
        )
    os.replace(tmp, mpath)  # atomic: a killed run leaves the old manifest


def _check_manifest(index_dir: str, cfg: DedupConfig) -> dict:
    mf = _manifest(index_dir)
    if mf is None:
        raise FileNotFoundError(f"no index manifest under {index_dir}")
    # sig_bytes is normalized out of the comparison: the explicit
    # ``sig_bytes`` manifest stamp below is the authority on slot-width
    # comparability, and a pre-v6 index's stored fingerprint was computed
    # by code with no sig_bytes field at all — so following the width
    # error's own advice ("set sig_bytes=8") must not then trip the
    # fingerprint gate (the normalized form, sig_bytes at default, is
    # byte-identical to the pre-v6 fingerprint).
    from dataclasses import replace

    from .config import DEFAULT

    # Width first: when the only disagreement is the slot width, the user
    # must see the actionable "set sig_bytes=N" message, not a generic
    # fingerprint error (a v6 8-byte index opened under the 4-byte default
    # would otherwise trip the fingerprint gate — sig_bytes=8 is
    # fingerprinted off-default — before ever reaching this check).
    stored_width = mf.get("sig_bytes", 8)  # pre-stamp indexes are 8-byte
    if stored_width != cfg.sig_bytes:
        raise ValueError(
            f"index stores {stored_width}-byte signature slots but the "
            f"config expects sig_bytes={cfg.sig_bytes}; rebuild the index "
            f"or set sig_bytes={stored_width}"
        )
    acceptable = {cfg.fingerprint(),
                  replace(cfg, sig_bytes=DEFAULT.sig_bytes).fingerprint()}
    if mf.get("config_fingerprint") not in acceptable:
        # ≅ the reference invalidating checksums when hash params change
        # (file_db.rs:311-342): signatures under a different shingle/perm
        # config are not comparable — refuse instead of silently missing dups
        raise ValueError(
            "index was built with a different config fingerprint; "
            "rebuild the index or use the original config"
        )
    return mf


def _no_sigs(cfg: DedupConfig) -> pa.Table:
    """The index's signature columns, typed, with no rows."""
    return MinHashSigner(cfg)(
        pa.table({"doc_hash": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )


def _pinned_sigs(sigs: Dataset) -> pa.Table | None:
    """The columns the index stores of a pinned ``sign`` output; ``None``
    over ``exchange.pinned_table``'s guard."""
    return pinned_table(sigs, ["doc_hash", "sig", "n_shingles", "set_hash"])


def _append(rows: pa.Table | Dataset, d: str) -> None:
    """Add ``rows`` to the index table in ``d`` as NEW parquet files. Ray
    Data writes a Dataset; an in-memory table lands as one file, written
    under a dot-prefixed name (which ``rd.read_parquet`` and
    ``pyarrow.dataset`` both skip) and then renamed into place, so a
    torn write is never read."""
    if isinstance(rows, Dataset):
        rows.write_parquet(d)
        return
    name = f"{uuid.uuid4().hex}.parquet"
    tmp = os.path.join(d, "." + name)
    pq.write_table(rows, tmp)
    os.replace(tmp, os.path.join(d, name))


def _isin(col: pa.ChunkedArray, keys: np.ndarray) -> pa.ChunkedArray:
    return pc.is_in(col, value_set=pa.array(keys, col.type))


def _read_isin(d: str, cols: list[str], key: str, keys: np.ndarray) -> pa.Table:
    """``cols`` of the index rows in ``d`` whose ``key`` is in ``keys``:
    a pushed-down ``isin`` scan of the files on the driver."""
    return pads.dataset(d, format="parquet").to_table(
        columns=cols, filter=pc.field(key).isin(pa.array(keys, pa.int64()))
    )


def build_index(pages: Dataset, cfg: DedupConfig, index_dir: str) -> dict:
    """Corpus pages → persisted signature index (the corpus is assumed
    already deduplicated; if not, run ``near_dup_corpus`` first).

    Two executions while the signatures fit the memory tier (module
    doc): the ingest pin (``dup_keys`` reads it with no execution) and
    the signature pin; the sig and band files and the Bloom sidecar are then
    written from memory. Past the guard Ray Data writes them, and the
    Bloom sidecar is built over the signature pin. A corpus
    with no rows still gives a typed, empty index.

    Writes to ``<index_dir>.tmp`` then renames, so a killed build never
    leaves a half-index behind a valid manifest."""
    tmp = index_dir.rstrip("/") + ".tmp"
    sigs_dir, bands_dir, _ = _paths(tmp)
    if os.path.exists(tmp):
        import shutil

        shutil.rmtree(tmp)
    os.makedirs(sigs_dir, exist_ok=True)
    os.makedirs(bands_dir, exist_ok=True)
    ing = ingest(pages, cfg).select_columns(["doc_hash", "text"]).materialize()
    reps = distinct_reps(
        ing, dups=dup_keys(ing, "doc_hash"), n_buckets=cfg.join_buckets,
        max_broadcast_rows=cfg.broadcast_max_rows,
    )
    sigs = sign(reps, cfg).materialize()
    n = sigs.count()
    # zero rows always take the driver writes: Ray writes no file for an
    # empty Dataset (whose pin is untyped), and the index readers need a
    # typed one
    st = _pinned_sigs(sigs) if n else _no_sigs(cfg)
    from .bloom import write_bloom_sidecar, write_bloom_sidecar_keys

    # precomputed band table: each batch run probes (doc_hash, bkey) rows
    # (16 B/row) instead of re-reading + re-banding every 1 KB signature —
    # the per-batch index scan a 100-TB corpus actually pays
    if st is None:
        _append(sigs, sigs_dir)
        _append(band_rows(sigs, cfg), bands_dir)
        write_bloom_sidecar(tmp, sigs)
    else:
        _append(st, sigs_dir)
        _append(Bander(cfg)(st), bands_dir)
        write_bloom_sidecar_keys(tmp, st.column("doc_hash").to_numpy())
    _write_manifest(tmp, cfg, n)
    if os.path.exists(index_dir):
        import shutil

        shutil.rmtree(index_dir)
    os.replace(tmp, index_dir)
    return _manifest(index_dir)  # type: ignore[return-value]


@dataclass
class IncrementalResult:
    kept: Dataset  # surviving batch pages (url, size_bytes) — streams
    # drop report (url, doc_hash, reason, matched): bounded by
    # duplicate-involved batch pages. reason ∈ {exact_corpus, near_corpus,
    # exact_batch, near_batch}; matched = corpus doc_hash / batch rep hash
    report: pa.Table
    # signature rows of the KEPT batch docs — feed to update_index
    kept_sigs: Dataset


_REPORT_EMPTY = pa.table(
    {
        "url": pa.array([], pa.string()),
        "doc_hash": pa.array([], pa.int64()),
        "reason": pa.array([], pa.string()),
        "matched": pa.array([], pa.int64()),
    }
)


def incremental_dedup(
    new_pages: Dataset, index_dir: str, cfg: DedupConfig | None = None
) -> IncrementalResult:
    """Dedup a new batch against the persisted index (see module doc)."""
    cfg = cfg or DedupConfig()
    mf = _check_manifest(index_dir, cfg)
    sigs_dir, bands_dir, _ = _paths(index_dir)

    ing = ingest(new_pages, cfg).materialize()
    if ing.count() == 0:
        empty_kept = pa.table(
            {
                "url": pa.array([], pa.string()),
                "size_bytes": pa.array([], pa.int64()),
                "doc_hash": pa.array([], pa.int64()),
            }
        )
        return IncrementalResult(
            kept=rd.from_arrow(empty_kept),
            report=_REPORT_EMPTY,
            kept_sigs=rd.from_arrow(_no_sigs(cfg)),
        )
    dups = dup_keys(ing, "doc_hash")  # batch-internal exact-dup hashes
    reps = distinct_reps(
        ing, dups=dups, n_buckets=cfg.join_buckets,
        max_broadcast_rows=cfg.broadcast_max_rows,
    )
    new_sigs = sign(reps, cfg).materialize()
    # the tier, decided once (module doc): both batch pins fit, and the
    # band rows the driver would scan fit the same guard
    pages = pinned_table(ing, ["url", "size_bytes", "doc_hash"])
    sigs = _pinned_sigs(new_sigs)
    if (
        pages is not None and sigs is not None and os.path.isdir(bands_dir)
        and mf["n_docs"] * cfg.bands <= exchange._DRIVER_READ_MAX
    ):
        return _dedup_on_driver(pages, sigs, dups, index_dir, cfg)
    # column-pruned index scans: membership needs doc_hash only; banding
    # needs (doc_hash, sig); verification adds set_hash in exact mode
    old_docs = rd.read_parquet(sigs_dir, columns=["doc_hash"])

    # ---- 1. exact vs corpus: index hashes that occur in the batch.
    # The batch's hash set is batch-bounded; the membership filter over
    # the corpus-sized index is size-guarded (broadcast | bucketed join).
    new_hashes = np.sort(
        collect_table(new_sigs.select_columns(["doc_hash"]))
        .column("doc_hash")
        .to_numpy(zero_copy_only=False)
    )
    probe_hashes = _maybe_in_corpus(index_dir, new_hashes)
    if len(probe_hashes) == 0:
        exact_old = np.empty(0, np.int64)
    else:
        exact_old = np.unique(
            collect_table(
                semi_filter(
                    old_docs, "doc_hash", probe_hashes,
                    max_broadcast_rows=cfg.broadcast_max_rows,
                    n_buckets=cfg.join_buckets,
                )
            )
            .column("doc_hash")
            .to_numpy(zero_copy_only=False)
        )

    # ---- 2. near-dup candidates: batch signatures ∪ the signatures of
    # the index docs that share a band key with the batch. The exact drop
    # removed old∩new hashes from the NEW side, but the index's band rows
    # still carry them — endpoint classification below treats any hash in
    # ``exact_old`` as corpus.
    active_sigs = semi_filter(new_sigs, "doc_hash", exact_old, keep=False)
    # typed collect: when every batch doc is a corpus copy, no band row
    # exists and Ray Data hands back column-less blocks
    nb_keys = np.unique(
        collect_table(
            band_rows(active_sigs, cfg),
            schema=pa.schema([("doc_hash", pa.int64()), ("bkey", pa.int64())]),
        )
        .column("bkey")
        .to_numpy(zero_copy_only=False)
    )
    sig_cols = _sig_cols(cfg)
    if os.path.isdir(bands_dir):
        bands_idx = rd.read_parquet(bands_dir, columns=["doc_hash", "bkey"])
    else:  # index built before band persistence: band the sig table once
        bands_idx = band_rows(
            rd.read_parquet(sigs_dir, columns=["doc_hash", "sig", "n_shingles"]), cfg
        )
    # the hit set is bounded by band-key collisions with the batch, not
    # by the corpus (typed collect: an empty index's band file yields no
    # block)
    old_cand = np.unique(
        collect_table(
            semi_filter(
                bands_idx.select_columns(["doc_hash", "bkey"]), "bkey", nb_keys,
                max_broadcast_rows=cfg.broadcast_max_rows,
                n_buckets=cfg.join_buckets,
            ).select_columns(["doc_hash"]),
            schema=pa.schema([("doc_hash", pa.int64())]),
        )
        .column("doc_hash")
        .to_numpy(zero_copy_only=False)
    )
    # fetch the candidate docs' signatures. When the candidate set is
    # modest, push the membership filter into the parquet scan itself so
    # non-candidate signature rows (the 1 KB/doc bulk of the index) never
    # enter the object store; past that, stream the scan through the
    # size-guarded membership filter.
    if len(old_cand) <= (1 << 17):
        old_sig_rows = rd.read_parquet(
            sigs_dir,
            columns=sig_cols,
            filter=pc.field("doc_hash").isin(pa.array(old_cand, pa.int64())),
        )
    else:
        old_sig_rows = semi_filter(
            rd.read_parquet(sigs_dir, columns=sig_cols), "doc_hash", old_cand,
            max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
        )
    sigs_union = active_sigs.select_columns(sig_cols).union(old_sig_rows).materialize()
    # the flagship's verifier: pairs are generated and checked inside
    # component groups (one driver group while the pin fits the memory
    # tier), exact-mode set-hash equality included
    edges = memory_verified_edges(sigs_union, cfg)
    if edges is None:
        edges = collect_table(
            component_verified_edges(sigs_union, cfg), schema=EDGES_SCHEMA
        )

    # ---- 3. classify batch pages (driver work bounded by dup-involved)
    report, drop_urls, kept_hash_drop = _classify(
        edges, new_hashes, exact_old, dups,
        lambda involved: collect_table(
            semi_filter(ing.select_columns(["url", "doc_hash"]), "doc_hash", involved)
        ),
    )

    # ---- 4. kept pages stream out via a hashed url anti-filter (the
    # same dup-bounded pattern as near_dup_corpus — the batch itself
    # never collects)
    drop_url_hashes = (
        np.sort(xxh64_arrow(pa.array(drop_urls.tolist(), pa.string())).view(np.int64))
        if len(drop_urls)
        else np.empty(0, np.int64)
    )

    def add_url_hash(batch: pa.Table) -> pa.Table:
        u = batch.column("url")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        h = xxh64_arrow(u)
        return batch.append_column("url_hash", pa.array(h.view(np.int64), pa.int64()))

    kept = (
        semi_filter(
            ing.select_columns(["url", "size_bytes", "doc_hash"]).map_batches(
                add_url_hash, batch_format="pyarrow"
            ),
            "url_hash",
            drop_url_hashes,
            keep=False,
            max_broadcast_rows=cfg.broadcast_max_rows,
            n_buckets=cfg.join_buckets,
        )
        .select_columns(["url", "size_bytes", "doc_hash"])
    )

    # kept signature rows = new sigs minus fully-dropped doc_hashes. The
    # drop set is derived from the involved arrays already in hand
    # (re-running the kept pipeline and collecting every kept hash would
    # re-execute the batch ingest and put a BATCH-sized array on the
    # driver; this stays bounded by duplicate-involved docs). A hash
    # outside `involved` always has a kept page, so only involved hashes
    # with zero kept rows drop.
    kept_sigs = semi_filter(new_sigs, "doc_hash", kept_hash_drop, keep=False)
    return IncrementalResult(kept=kept, report=report, kept_sigs=kept_sigs)


def _maybe_in_corpus(index_dir: str, new_hashes: np.ndarray) -> np.ndarray:
    """The batch hashes the exact probe must check. Bloom prescreen
    (sidecar written at build/update time): keys the filter rejects are
    DEFINITELY not in the corpus — no false negatives — so the probe
    only pays for the maybe-set (true dups + fpp·batch). Output is
    identical with or without the sidecar
    (tests/test_bloom.py::test_incremental_bloom_identical). An empty
    maybe-set proves no batch key is in the corpus, so callers skip the
    corpus-sized scan entirely — the all-new-content case the sidecar
    exists for pays zero corpus I/O."""
    from .bloom import has_bloom_sidecar, read_bloom_sidecar

    if not has_bloom_sidecar(index_dir):
        return new_hashes
    bf = read_bloom_sidecar(index_dir)
    return new_hashes[bf.contains_many(new_hashes.view(np.uint64))]


def _dedup_on_driver(
    pages: pa.Table, sigs: pa.Table, dups: np.ndarray, index_dir: str,
    cfg: DedupConfig,
) -> IncrementalResult:
    """The memory tier of ``incremental_dedup`` (module doc): the same
    steps as the exchange tier over the batch pins ``pages`` (url,
    size_bytes, doc_hash) and ``sigs``, with the index read by
    pushed-down ``isin`` scans — no Ray Data execution."""
    sigs_dir, bands_dir, _ = _paths(index_dir)
    empty = np.empty(0, np.int64)
    new_hashes = np.sort(sigs.column("doc_hash").to_numpy())
    probe_hashes = _maybe_in_corpus(index_dir, new_hashes)
    exact_old = np.unique(
        _read_isin(sigs_dir, ["doc_hash"], "doc_hash", probe_hashes)
        .column("doc_hash").to_numpy()
    ) if len(probe_hashes) else empty
    active = sigs.filter(pc.invert(_isin(sigs.column("doc_hash"), exact_old)))
    nb_keys = np.unique(Bander(cfg)(active).column("bkey").to_numpy())
    old_cand = np.unique(
        _read_isin(bands_dir, ["doc_hash"], "bkey", nb_keys)
        .column("doc_hash").to_numpy()
    ) if len(nb_keys) else empty
    sig_cols = _sig_cols(cfg)
    union = pa.concat_tables(
        [active.select(sig_cols), _read_isin(sigs_dir, sig_cols, "doc_hash", old_cand)],
        promote_options="default",
    ) if len(old_cand) else active.select(sig_cols)
    edges = _verify_group(union, cfg, minhash_kernel(cfg))
    report, drop_urls, kept_hash_drop = _classify(
        edges, new_hashes, exact_old, dups,
        lambda involved: pages.filter(_isin(pages.column("doc_hash"), involved)),
    )
    kept = pages.filter(pc.invert(_isin(pages.column("url"), drop_urls)))
    kept_sigs = sigs.filter(pc.invert(_isin(sigs.column("doc_hash"), kept_hash_drop)))
    return IncrementalResult(
        kept=rd.from_arrow(kept), report=report, kept_sigs=rd.from_arrow(kept_sigs)
    )


def _classify(
    edges: pa.Table,
    new_hashes: np.ndarray,
    exact_old: np.ndarray,
    dups: np.ndarray,
    pages_of: Callable[[np.ndarray], pa.Table],
) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """Classify the batch pages, for both tiers: the drop report, the
    dropped urls, and the batch hashes no kept page carries.

    ``edges``: verified (a, b) edges over the batch ∪ candidate index
    docs; ``new_hashes``: the sorted batch hashes; ``exact_old``: the
    sorted batch hashes already in the index; ``dups``: batch-internal
    exact-dup hashes; ``pages_of(hashes)``: the (url, doc_hash) batch
    pages carrying those hashes. Driver work is bounded by
    duplicate-involved docs."""
    # old–old edges carry nothing: the corpus is already deduplicated;
    # only edges touching the batch matter
    ea = edges.column("a").to_numpy(zero_copy_only=False)
    eb = edges.column("b").to_numpy(zero_copy_only=False)
    touches_new = member_probe(new_hashes, None, ea) | member_probe(new_hashes, None, eb)
    ea, eb = ea[touches_new], eb[touches_new]
    nodes, labels = components_np(ea, eb)

    # the shared sorted-membership kernel (exchange.member_probe without
    # a prefilter table) replaces two private copies of the clipped
    # searchsorted that had to track its semantics by hand
    def _member(sorted_keys: np.ndarray, x: np.ndarray) -> np.ndarray:
        return member_probe(sorted_keys, None, x)

    # a node is NEW only if it's a batch hash that is NOT also in the index:
    # exact-dropped hashes were removed from the new side before banding,
    # but the index's band rows still carry them — such an endpoint IS the
    # corpus, so its component must drop as near_corpus
    node_new = _member(new_hashes, nodes) & ~_member(exact_old, nodes)
    # component → contains-an-old-doc?  (old endpoints are bounded by
    # verified-edge-involved docs)
    old_labels = np.unique(labels[~node_new])
    # for near_corpus reporting: one old member per tainted component
    rep_old: dict[int, int] = {}
    for lab, nd in zip(labels[~node_new].tolist(), nodes[~node_new].tolist()):
        rep_old.setdefault(lab, nd)

    # involved batch hashes: in a component, exact-dup within batch, or
    # exact corpus dup — everything else streams through untouched
    involved = np.unique(
        np.concatenate([nodes[node_new], dups, exact_old])
    ) if (len(nodes) or len(dups) or len(exact_old)) else np.empty(0, np.int64)

    if len(involved):
        inv_pages = pages_of(involved)
        urls = np.asarray(inv_pages.column("url").to_pylist(), dtype=object)
        hashes = inv_pages.column("doc_hash").to_numpy(zero_copy_only=False)
        # group key: component label where the hash is a component member,
        # else the hash itself (pure exact-dup group)
        gk = hashes.copy()
        if len(nodes):
            i = np.minimum(np.searchsorted(nodes, hashes), len(nodes) - 1)
            hit = nodes[i] == hashes
            gk[hit] = labels[i[hit]]
        e_old = np.zeros(len(hashes), bool)
        if len(exact_old):
            j = np.minimum(np.searchsorted(exact_old, hashes), len(exact_old) - 1)
            e_old = exact_old[j] == hashes
        n_old_comp = np.zeros(len(hashes), bool)
        if len(old_labels):
            k = np.minimum(np.searchsorted(old_labels, gk), len(old_labels) - 1)
            n_old_comp = (old_labels[k] == gk) & ~e_old
        # min-url representative per surviving group
        free = ~(e_old | n_old_comp)
        keep_mask = np.zeros(len(hashes), bool)
        if free.any():
            order = np.lexsort((urls[free], gk[free]))
            gks, idxs = gk[free][order], np.flatnonzero(free)[order]
            first = np.ones(len(gks), bool)
            first[1:] = gks[1:] != gks[:-1]
            keep_mask[idxs[first]] = True
        reasons = np.empty(len(hashes), object)
        matched = np.zeros(len(hashes), np.int64)
        reasons[e_old] = "exact_corpus"
        matched[e_old] = hashes[e_old]  # the corpus holds this same hash
        reasons[n_old_comp] = "near_corpus"
        if len(old_labels):
            for t in np.flatnonzero(n_old_comp).tolist():
                matched[t] = rep_old.get(int(gk[t]), 0)
        batch_drop = free & ~keep_mask
        # exact_batch: dropped page whose doc_hash equals its group's kept
        # page's hash (same content); near_batch otherwise
        kept_hash_per_gk: dict[int, int] = {
            int(gk[t]): int(hashes[t]) for t in np.flatnonzero(keep_mask).tolist()
        }
        for t in np.flatnonzero(batch_drop).tolist():
            m = kept_hash_per_gk[int(gk[t])]
            matched[t] = m
            reasons[t] = "exact_batch" if m == int(hashes[t]) else "near_batch"
        drop_mask = ~keep_mask & ~free | batch_drop
        report = pa.table(
            {
                "url": pa.array(urls[drop_mask].tolist(), pa.string()),
                "doc_hash": pa.array(hashes[drop_mask], pa.int64()),
                "reason": pa.array(reasons[drop_mask].tolist(), pa.string()),
                "matched": pa.array(matched[drop_mask], pa.int64()),
            }
        )
        drop_urls = urls[drop_mask]
        kept_hash_drop = np.setdiff1d(
            np.unique(hashes), np.unique(hashes[keep_mask])
        )
    else:
        report = _REPORT_EMPTY
        drop_urls = np.empty(0, object)
        kept_hash_drop = np.empty(0, np.int64)
    return report, drop_urls, kept_hash_drop


def update_index(index_dir: str, kept_sigs: Dataset, cfg: DedupConfig) -> dict:
    """Append the kept batch docs' signature rows to the index (new
    parquet files only — existing parts are never rewritten) and bump
    the manifest.

    Tiers: a ``kept_sigs`` pin within ``exchange.pinned_table``'s guard
    (what ``incremental_dedup``'s memory tier returns) is ORed into the
    Bloom sidecar and written as one band file and one signature file
    with ``pyarrow.parquet``, no Ray Data execution; each file is
    written under a dot-prefixed name that both index readers skip,
    then renamed into place. Otherwise Ray Data materializes and writes
    it (the count then reads block metadata).

    Crash-ordering rule — every earlier artifact must be a SUPERSET of
    what later artifacts imply, so a crash between any two steps
    degrades toward extra work, never silent false negatives
    (tests/test_incremental.py::test_update_index_crash_ordering):

    1. Bloom sidecar first: extra bits for rows that never landed are a
       false "maybe" that just triggers the exact probe; the reverse
       order would leave false NEGATIVES and silently keep duplicates.
    2. Band rows BEFORE sig rows: orphaned band rows (bands written,
       crash before sigs) only generate candidates whose signatures are
       absent, so their pairs drop at verification, and the next batch
       re-adds the docs wholesale — self-healing. The reverse order
       left docs in sigs with no band rows: PERMANENTLY invisible to
       near-dup candidate generation (no later update repairs them).
    3. Crash between the sig write and the manifest bump leaves extra
       sig rows with a stale count — harmless for membership (the rows
       are genuine) and fixed by the next successful update."""
    mf = _check_manifest(index_dir, cfg)
    sigs_dir, bands_dir, _ = _paths(index_dir)
    from .bloom import _write_sidecar_obj, has_bloom_sidecar, read_bloom_sidecar

    st = _pinned_sigs(kept_sigs)
    if st is None:
        kept_sigs = kept_sigs.materialize()
    n_add = kept_sigs.count()
    if n_add:
        # sidecar FIRST (superset-safe ordering, see docstring): OR the
        # new keys into the existing filter — no rebuild, bits only ever
        # set. Capacity overrun past the built-for n only raises fpp,
        # never breaks correctness (the exact probe confirms every maybe).
        if has_bloom_sidecar(index_dir):
            bf = read_bloom_sidecar(index_dir)
            batches = [st] if st is not None else kept_sigs.select_columns(
                ["doc_hash"]
            ).iter_batches(batch_size=1 << 18, batch_format="pyarrow")
            for b in batches:
                bf.add_many(b.column("doc_hash").to_numpy())
            _write_sidecar_obj(index_dir, bf)
        if os.path.isdir(bands_dir):
            bands = band_rows(kept_sigs, cfg) if st is None else Bander(cfg)(st)
            _append(bands, bands_dir)
        _append(kept_sigs if st is None else st, sigs_dir)
    _write_manifest(index_dir, cfg, mf["n_docs"] + n_add)
    return _manifest(index_dir)  # type: ignore[return-value]
