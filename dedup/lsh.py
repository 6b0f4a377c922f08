"""LSH banding → candidate pairs (north rule: b×r band hashing shuffled to
emit candidate pairs, with explicit skew handling).

Band rows are the *only* thing that shuffles widely, and they're 16 bytes
each — (doc_hash, bkey). Signatures stay in the signature checkpoint and
are re-attached to candidate pairs for verification.

Pair emission is **sort-based, never per-group Python**: a range-
partitioning ``sort("bkey")`` makes every bucket contiguous in the sorted
stream; each batch then emits star edges (bucket-local min → member) with
pure numpy segment ops (``reduceat``). A bucket that straddles a batch
boundary yields one local representative per fragment; those boundary
records (≤2 per batch — only a batch's first and last bucket can straddle)
are chained on the driver so fragments stay connected. This also IS the
hot-band skew handling: a boilerplate bucket with 10^6 members just spans
more sorted batches — work stays linear, no O(g²) blowup, no salting
special case. (Earlier revision used ``groupby(bucket).map_groups``; with
~1 bucket per doc per band that is millions of tiny per-group Python calls
— unusable. Rule of thumb encoded here: map_groups only on low-cardinality
keys.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from .config import DedupConfig
from .hashing import U64, fmix64

_BANDC = np.uint64(0xC2B2AE3D27D4EB4F)


class Bander:
    """signatures → (doc_hash, bkey) band rows; one fused key per band."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        n = len(batch)
        empty = pa.table(
            {"doc_hash": pa.array([], pa.int64()), "bkey": pa.array([], pa.int64())}
        )
        if n == 0:
            return empty
        sig_col = batch.column("sig")
        if isinstance(sig_col, pa.ChunkedArray):
            sig_col = sig_col.combine_chunks()
        flat = sig_col.flatten().to_numpy(zero_copy_only=False)
        # slot width follows the stored column (cfg.sig_bytes): uint32
        # slots upcast to uint64 inside the band polynomial below
        flat = flat.view(np.uint32 if flat.dtype.itemsize == 4 else U64)
        sig = flat.reshape(n, cfg.num_perm)
        # docs with no shingles (all-sentinel signature) never band
        has = batch.column("n_shingles").to_numpy(zero_copy_only=False) > 0
        sig = sig[has]
        dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)[has]
        m = len(sig)
        if m == 0:
            return empty
        with np.errstate(over="ignore"):
            bands = sig.reshape(m, cfg.bands, cfg.rows_per_band)
            acc = np.zeros((m, cfg.bands), dtype=U64)
            for j in range(cfg.rows_per_band):
                acc = acc * _BANDC + bands[:, :, j]
            # mix the band index in so equal r-row slices in different bands
            # don't share a bucket
            acc ^= (np.arange(cfg.bands, dtype=U64) + np.uint64(1)) * _BANDC
            bkey = fmix64(acc.reshape(-1))
        return pa.table(
            {
                "doc_hash": pa.array(np.repeat(dh, cfg.bands), pa.int64()),
                "bkey": pa.array(bkey.view(np.int64), pa.int64()),
            }
        )


def band_rows(signatures: Dataset, cfg: DedupConfig) -> Dataset:
    return signatures.map_batches(
        Bander(cfg), batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    )


def _segment_emit(
    bk: np.ndarray, dh: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The skew-critical pair-emission kernel, shared by ``_emit_star``
    (sorted-stream batches) and ``segment_pairs`` (whole-component row
    sets) so the small/jumbo semantics can never diverge between them.

    Rows must be SORTED by ``bk`` (any within-segment order). Segments
    with ≤ ``cap`` rows emit ALL member–member pairs via one vectorized
    pass per offset d (O(cap) passes, each a boolean AND over the rows);
    jumbo segments emit bucket-min → member star edges (linear). Returns
    raw ``(a, b, rep_u)`` — NOT canonicalized/deduplicated; ``rep_u`` is
    each segment's uint64-min member, indexed by segment.
    """
    n = len(bk)
    du = dh.view(U64)
    seg_starts = np.concatenate([[0], np.flatnonzero(bk[1:] != bk[:-1]) + 1])
    seg_len = np.diff(np.append(seg_starts, n))
    seg_id = np.cumsum(np.concatenate([[0], (bk[1:] != bk[:-1]).astype(np.int8)]))
    rep_u = np.minimum.reduceat(du, seg_starts)
    small = seg_len <= cap
    small_row = small[seg_id]
    # star edges for jumbo segments only
    rep_per_row = rep_u[seg_id].view(np.int64)
    is_member = (dh != rep_per_row) & ~small_row
    parts_a = [rep_per_row[is_member]]
    parts_b = [dh[is_member]]
    # all-pairs for small segments: pair row k with row k+d when both
    # sit in the same small segment
    max_small = int(seg_len[small].max()) if small.any() else 0
    for d in range(1, max_small):
        ok = small_row[: n - d] & (seg_id[: n - d] == seg_id[d:])
        if not ok.any():
            continue
        parts_a.append(dh[: n - d][ok])
        parts_b.append(dh[d:][ok])
    return np.concatenate(parts_a), np.concatenate(parts_b), rep_u


def _emit_star(batch: pa.Table, allpairs_max: int) -> pa.Table:
    """One sorted batch → candidate edges + boundary records.

    Buckets with ≤ ``allpairs_max`` members emit ALL member–member pairs:
    the downstream per-pair verification filter is NOT connectivity-
    preserving (two members may pass the similarity threshold while both
    their edges to the bucket's min-hash representative fail), so star
    edges alone would silently lose such pairs. Buckets beyond the cap
    (boilerplate/hot bands — the skew case) fall back to star edges
    (bucket-min → member, linear in bucket size); their post-filter
    recall loss is the documented price of skew-proofness (COVERAGE.md).
    A small bucket split across two sorted blocks is chained for
    connectivity via the boundary records but its cross-fragment member
    pairs are not individually verified — same documented caveat.

    Output columns: a, b, boundary(int8). Boundary rows carry
    (a=bkey, b=local_rep) for the batch's first and last bucket.
    """
    bk = batch.column("bkey").to_numpy(zero_copy_only=False)
    dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)
    n = len(bk)
    if n == 0:
        return pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "boundary": pa.array([], pa.int8())}
        )
    order = np.argsort(bk, kind="stable")  # defensive; stream is sorted
    bk = bk[order]
    dh = dh[order]
    edges_a, edges_b, rep_u = _segment_emit(bk, dh, allpairs_max)
    # boundary records for first and last segment
    rep_i = rep_u.view(np.int64)
    brec_a = [int(bk[0]), int(bk[-1])]
    brec_b = [int(rep_i[0]), int(rep_i[-1])]
    return pa.table(
        {
            "a": pa.array(np.concatenate([edges_a, np.array(brec_a, np.int64)]), pa.int64()),
            "b": pa.array(np.concatenate([edges_b, np.array(brec_b, np.int64)]), pa.int64()),
            "boundary": pa.array(
                np.concatenate([np.zeros(len(edges_a), np.int8), np.ones(2, np.int8)]),
                pa.int8(),
            ),
        }
    )


def segment_pairs(
    bk: np.ndarray, dh: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact candidate pairs of one co-located row set: per-``bk``
    segment all-pairs (segments ≤ ``cap``) or bucket-min stars (jumbo),
    canonicalized (a = uint64-min) and exactly deduplicated.

    The vectorized core of the candidate engine's per-group regeneration
    (``candidates._verify_group``, every kernel): same per-bucket
    semantics as ``_emit_star``, but over a WHOLE component's band rows
    at once — no fragment boundaries, and the cross-band duplicates of a
    pair die in the in-memory unique instead of a corpus-wide shuffle.
    """
    empty = np.empty(0, np.int64)
    n = len(bk)
    if n == 0:
        return empty, empty
    order = np.argsort(bk, kind="stable")
    a, b, _ = _segment_emit(bk[order], dh[order], cap)
    if not len(a):
        return empty, empty
    from .verify import _canon_unique_np

    return _canon_unique_np(a, b)


def candidate_pairs(
    bands: Dataset, cfg: DedupConfig, star_only: bool = False
) -> tuple[Dataset, pa.Table]:
    """band rows → (candidate-edge Dataset(a,b), boundary-chain edges table).

    Buckets ≤ ``cfg.allpairs_bucket_max`` emit all member–member pairs
    (complete under the downstream per-pair verification filter); jumbo
    buckets emit star edges (linear — the skew guard). The returned
    boundary table (driver-side, ≤2 rows per sorted batch) is already
    chained into extra edges connecting straddled bucket fragments.

    ``star_only``: emit bucket-min → member star edges for EVERY
    multi-member bucket (``allpairs_max=0``) — the connectivity-only
    star pass of the candidate engine (``candidates._tagged_sig_rows``),
    which regenerates the exact pair set per component afterwards. A true duplicate pair
    collides in nearly every band, so the all-pairs stream repeats each
    pair ~``bands`` times; the star stream is linear in bucket size
    (measured at 500k pages / 50-member planted clusters: 51M raw pair
    rows vs ~2M star rows).
    """
    sorted_bands = bands.sort("bkey")
    cap = 0 if star_only else cfg.allpairs_bucket_max
    # materialize: both the edge filter and the boundary filter below
    # consume this stream — lazy, the whole sort would execute twice
    out = sorted_bands.map_batches(
        lambda t: _emit_star(t, allpairs_max=cap),
        batch_format="pyarrow", batch_size=None,
    ).materialize()
    edges = out.filter(expr="boundary == 0").select_columns(["a", "b"])

    btbl = pa.concat_tables(
        list(
            out.filter(expr="boundary == 1")
            .select_columns(["a", "b"])
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )
        or [pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})]
    )
    # chain local reps sharing a bkey (fragmented buckets only)
    bkeys = btbl.column("a").to_numpy(zero_copy_only=False)
    reps = btbl.column("b").to_numpy(zero_copy_only=False)
    chain_a, chain_b = [], []
    if len(bkeys):
        order = np.lexsort((reps.view(U64), bkeys))
        bks, rps = bkeys[order], reps[order]
        seg = np.concatenate([[0], np.flatnonzero(bks[1:] != bks[:-1]) + 1, [len(bks)]])
        for i in range(len(seg) - 1):
            s, e = seg[i], seg[i + 1]
            frag = np.unique(rps[s:e])
            if len(frag) > 1:
                chain_a.append(frag[:-1])
                chain_b.append(frag[1:])
    chain = pa.table(
        {
            "a": pa.array(np.concatenate(chain_a) if chain_a else np.array([], np.int64), pa.int64()),
            "b": pa.array(np.concatenate(chain_b) if chain_b else np.array([], np.int64), pa.int64()),
        }
    )
    return edges, chain
