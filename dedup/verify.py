"""Candidate-pair verification by signature agreement.

Fraction of agreeing MinHash slots is an unbiased estimator of Jaccard
similarity (E[agree] = J, Var = J(1-J)/num_perm → σ≈0.04 at 128 perms);
pairs below ``cfg.verify_threshold`` are dropped. This keeps the banding
config (b=32, r=4 — tuned for recall ≥0.99 at J ≥ 0.7) from admitting
low-similarity bucket collisions into components.

The agreement kernel (``_compare_slice`` over a ``_prep_sigs`` index)
is the check of the candidate engine's MinHash kernel
(``candidates.minhash_kernel``), which runs it inside each component
group. ``verify_pairs`` runs the same kernel serially on the driver over
a pair Dataset — the tests' reference for the engine. The pair canon
(``_canon_unique_np``) and ``dedup_pairs_sorted`` serve the engine's
per-group pair regeneration and its star pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from .config import DedupConfig
from .exchange import collect_table, semi_filter


def _adjacent_first_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-of-run mask over SORTED parallel key arrays — the shared
    tail of every lexsort-based pair dedup in this module."""
    first = np.ones(len(a), dtype=bool)
    if len(a) > 1:
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return first


def _canon_unique_np(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize pair arrays (lo<hi in uint64 order), drop self-pairs,
    and de-duplicate — lexsort+boundary mask beats np.unique(axis=0) ~3x
    (no void-dtype comparisons). → (a, b) int64 views, a<b uint64-order."""
    au, bu = a.view(np.uint64), b.view(np.uint64)
    lo, hi = np.minimum(au, bu), np.maximum(au, bu)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = _adjacent_first_mask(lo, hi)
    return lo[first].view(np.int64), hi[first].view(np.int64)


def _canon_unique_batch(batch: pa.Table) -> pa.Table:
    """Table form of ``_canon_unique_np`` — the per-batch combiner
    ``dedup_pairs_sorted`` runs before its sort."""
    a = batch.column("a").to_numpy(zero_copy_only=False)
    b = batch.column("b").to_numpy(zero_copy_only=False)
    a, b = _canon_unique_np(a, b)
    return pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})


def _pair_table_unique(batch: pa.Table) -> pa.Table:
    """Sort (signed order is fine — only run-grouping matters) and
    adjacent-dedup an already-canonical (a, b) batch."""
    a = batch.column("a").to_numpy(zero_copy_only=False)
    b = batch.column("b").to_numpy(zero_copy_only=False)
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = _adjacent_first_mask(a, b)
    return pa.table(
        {"a": pa.array(a[first], pa.int64()), "b": pa.array(b[first], pa.int64())}
    )


def _compare_slice(
    sig_index, a: np.ndarray, b: np.ndarray, num_perm: int
) -> np.ndarray:
    """Agreement fraction per (a,b) pair.

    ``sig_index`` = (ids_sorted, row_of_sorted, mat): ids sorted for
    searchsorted, an indirection into the UNSORTED matrix (pre-sorting a
    multi-hundred-MB matrix costs two full copies of page faults; one
    extra index gather per pair is free). Chunked gather+compare with
    reused scratch buffers. Pairs whose id is absent get sim 0.
    """
    from .hashing import _scratch

    ids_s, row_o, mat = sig_index
    n = len(ids_s)
    if n == 0:
        return np.zeros(len(a))
    ia = np.minimum(np.searchsorted(ids_s, a), n - 1)
    ib = np.minimum(np.searchsorted(ids_s, b), n - 1)
    ok = (ids_s[ia] == a) & (ids_s[ib] == b)
    sim = np.zeros(len(a))
    ia_ok, ib_ok = row_o[ia[ok]], row_o[ib[ok]]
    sim_ok = np.empty(len(ia_ok))
    CH = 16384
    # scratch dtype follows the stored slot width (cfg.sig_bytes)
    ga = _scratch("verify_ga", CH * num_perm, mat.dtype).reshape(CH, num_perm)
    gb = _scratch("verify_gb", CH * num_perm, mat.dtype).reshape(CH, num_perm)
    for s in range(0, len(ia_ok), CH):
        e = min(s + CH, len(ia_ok))
        np.take(mat, ia_ok[s:e], axis=0, out=ga[: e - s])
        np.take(mat, ib_ok[s:e], axis=0, out=gb[: e - s])
        sim_ok[s:e] = np.count_nonzero(ga[: e - s] == gb[: e - s], axis=1) / num_perm
    sim[ok] = sim_ok
    return sim


def _sig_matrix(sig_tbl: pa.Table, num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    ids = sig_tbl.column("doc_hash").to_numpy(zero_copy_only=False)
    col = sig_tbl.column("sig")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return ids, flat.reshape(len(ids), num_perm)


def _prep_sigs(st: pa.Table, num_perm: int):
    """(ids_sorted, row_of_sorted, mat) — no matrix copy."""
    ids, mat = _sig_matrix(st, num_perm)
    o = np.argsort(ids)
    return ids[o], o, mat


def verify_pairs(
    pairs: Dataset, sigs: Dataset, cfg: DedupConfig
) -> pa.Table:
    """→ Arrow table (a, b, sim) of pairs with sim ≥ threshold, verified
    serially on the driver (the tests' reference for the engine)."""
    pt = collect_table(pairs)
    if len(pt) == 0:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "sim": pa.array([], pa.float64())}
        )
    a = pt.column("a").to_numpy(zero_copy_only=False)
    b = pt.column("b").to_numpy(zero_copy_only=False)
    # canonicalize, drop self-pairs, global dedup — the same pair
    # arrives once per shared band
    a, b = _canon_unique_np(a, b)
    pt = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    if len(pt) == 0:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "sim": pa.array([], pa.float64())}
        )
    if cfg.verify_threshold <= 0:
        return pa.table({"a": pt.column("a"), "b": pt.column("b"),
                         "sim": pa.array(np.ones(len(a)), pa.float64())})
    cand = np.sort(np.unique(np.concatenate([a, b])))
    sub = semi_filter(sigs.select_columns(["doc_hash", "sig"]), "doc_hash", cand)
    st = collect_table(sub)
    sim = _compare_slice(_prep_sigs(st, cfg.num_perm), a, b, cfg.num_perm)
    keep = sim >= cfg.verify_threshold
    return pa.table(
        {
            "a": pa.array(a[keep], pa.int64()),
            "b": pa.array(b[keep], pa.int64()),
            "sim": pa.array(sim[keep], pa.float64()),
        }
    )


def dedup_pairs_sorted(pairs: Dataset) -> Dataset:
    """Near-exact pair dedup via range-partition sort instead of groupby.

    canon (per-batch combiner) → ``sort(a, b)`` → per-batch adjacent
    dedup. Measured 1.8× faster than a bucket-groupby dedup at 15M raw
    pairs (3.6 s vs 6.6 s at 4 CPUs), and both phases are plain
    shuffle/map stages that scale. CAVEAT: a duplicate pair can survive
    when a sorted block/batch boundary splits its run — at most one per
    boundary. Its caller, the star pass of ``candidates._tagged_sig_rows``,
    feeds connected components, where a repeated edge changes nothing;
    the exact pair set is regenerated per component group."""

    # the per-batch adjacent dedup after the sort is intentionally
    # _pair_table_unique (re-sorts defensively — cheap on already-sorted
    # data)
    return (
        pairs.map_batches(_canon_unique_batch, batch_format="pyarrow")
        .sort(["a", "b"])
        .map_batches(_pair_table_unique, batch_format="pyarrow")
    )
