"""Exact n-gram Jaccard similarity pairs.

The precise (non-sketch) counterpart of MinHash: for every document the
**distinct** set of k-gram token shingles; for every pair sharing ≥1
shingle the exact Jaccard = |∩| / |∪|. All arithmetic stays integral
(cross-multiplied threshold ``den·|∩| ≥ num·(n_a+n_b−|∩|)``) so the
DuckDB oracle matches bit-for-bit.

Distribution: shingle rows (shingle_hash, doc) are hash-bucketed; each
bucket holds complete shingle groups, so per-bucket pandas self-merge
yields *partial* pair-intersection counts which a second narrow groupby
sums globally. Set sizes join back via a broadcast (doc → n_shingles)
map. Only 16-byte rows shuffle.

Semantics (mirrored in queries.ORACLES['ngram_jaccard_pairs']): tokens =
textstats.TOKEN_SPLIT_RE on lowered text; docs with < k tokens have an
empty shingle set (no short-doc fallback — that's a MinHash-only
convention, minhash.py:58-102); shingles are de-duplicated per doc.

Skew note: a shingle shared by m docs costs O(m²) partial pairs — the
boilerplate problem. ``max_group`` caps it (dropping pairs from mega
groups, with a loud warning naming the dropped volume) exactly as hot LSH bands are
capped; at web scale stopword-like shingles are the hot keys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data import Dataset
from ray.data.aggregate import Sum

from .exchange import collect_table, join_typed, pinned_table, semi_filter, small_join
from .hashing import U64, fmix64
from .minhash import DEFAULT_TOKEN_HASH, _hash_tokens
from .textstats import _tokenize

_POLY = np.uint64(0x9E3779B185EBCA87)


def _shingle_doc_rows(batch: pa.Table, id_col: str, k: int) -> pa.Table:
    """One batch → distinct (doc, sh) rows + per-doc distinct counts.

    Documents never straddle batches (a doc is one row), so per-batch
    distinct == global distinct.
    """
    text = batch.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    flat, counts = _tokenize(text)
    th = _hash_tokens(flat, DEFAULT_TOKEN_HASH) if len(flat) else np.empty(0, U64)
    doc_start = np.cumsum(counts) - counts
    with np.errstate(over="ignore"):
        T = len(th)
        if T >= k:
            acc = np.zeros(T - k + 1, dtype=U64)
            for j in range(k):
                acc = acc * _POLY + th[j : T - k + 1 + j]
            acc = fmix64(acc)
        else:
            acc = np.empty(0, U64)
    big = counts >= k
    doc_col, sh_col = [], []
    if big.any():
        m = (counts - k + 1)[big]
        pos = np.arange(int(m.sum()), dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
        src = np.repeat(doc_start[big], m) + pos
        doc_all = np.repeat(ids[big], m)
        sh_all = acc[src].view(np.int64)
        # distinct (doc, sh)
        packed = np.stack([doc_all, sh_all], axis=1)
        packed = np.unique(packed, axis=0)
        doc_col, sh_col = packed[:, 0], packed[:, 1]
    else:
        doc_col = np.empty(0, np.int64)
        sh_col = np.empty(0, np.int64)
    return pa.table(
        {
            "doc": pa.array(doc_col, pa.int64()),
            "sh": pa.array(sh_col, pa.int64()),
        }
    )


def jaccard_pairs(
    ds: Dataset,
    id_col: str = "doc_id",
    k: int = 5,
    threshold_num: int = 1,
    threshold_den: int = 2,
    n_buckets: int = 64,
    max_group: int = 10_000,
) -> pa.Table:
    """→ Arrow table (a_id, b_id, n_common, n_a, n_b) with
    Jaccard ≥ threshold_num/threshold_den (exact integer test)."""
    rows = ds.map_batches(
        lambda b: _shingle_doc_rows(b, id_col, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    # per-doc distinct-shingle counts (narrow aggregate → broadcast map)
    def partial_counts(batch: pa.Table) -> pa.Table:
        d = batch.column("doc").to_numpy(zero_copy_only=False)
        u, c = np.unique(d, return_counts=True)
        return pa.table({"doc": pa.array(u, pa.int64()), "pc": pa.array(c, pa.int64())})

    cnt = (
        rows.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("doc")
        .aggregate(Sum("pc", alias_name="n"))
    )

    # bucket by shingle hash; each bucket holds whole shingle groups
    def bucketize(batch: pa.Table) -> pa.Table:
        sh = batch.column("sh").to_numpy(zero_copy_only=False)
        b = (fmix64(sh.view(np.uint64) ^ np.uint64(0xABCD)) % np.uint64(n_buckets)).astype(
            np.int32
        )
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    bucketed = rows.map_batches(bucketize, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # cap hot shingle groups (boilerplate guard) — LOUDLY: silent
        # truncation reads as full coverage when it is not
        sizes = g.groupby("sh")["doc"].transform("size")
        over = sizes > max_group
        if over.any():
            import logging

            logging.getLogger(__name__).warning(
                "ngram_jaccard: dropping %d rows of %d over-cap shingle "
                "groups (max_group=%d) — pairs sharing only these "
                "shingles are not emitted",
                int(over.sum()),
                int(g.loc[over, "sh"].nunique()),
                max_group,
            )
        g = g[~over]
        # join on the key + row ids only; carrying the bucket column
        # through the quadratic self-merge doubled the pair-frame width
        m = g[["doc", "sh"]].merge(g[["doc", "sh"]], on="sh")
        m = m[m["doc_x"] < m["doc_y"]]
        if m.empty:
            return pd.DataFrame({"pa": pd.Series([], dtype="int64"),
                                 "pb": pd.Series([], dtype="int64"),
                                 "pi": pd.Series([], dtype="int64")})
        # pairs stay as two full int64 columns — packing both ids into one
        # 64-bit scalar silently collides for ids ≥ 2³¹ (doc hashes would)
        pair = np.stack(
            [m["doc_x"].to_numpy(np.int64), m["doc_y"].to_numpy(np.int64)], axis=1
        )
        u, c = np.unique(pair, axis=0, return_counts=True)
        return pd.DataFrame({"pa": u[:, 0], "pb": u[:, 1], "pi": c.astype(np.int64)})

    partial_pairs = bucketed.groupby("bucket").map_groups(
        bucket_pairs, batch_format="pandas"
    )
    inter = (
        partial_pairs.map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["pa", "pb"])
        .aggregate(Sum("pi", alias_name="n_common"))
        .materialize()
    )

    # shingle counts are only needed for candidate-pair endpoints, a
    # dup-bounded set — never ship the corpus-cardinality count table.
    # the candidate pairs are read from the pin's blocks (no execution)
    pp = pinned_table(inter, ["pa", "pb"], max_rows=inter.count())
    if pp.num_rows:
        cand = np.unique(
            np.concatenate(
                [
                    pp.column("pa").to_numpy(zero_copy_only=False),
                    pp.column("pb").to_numpy(zero_copy_only=False),
                ]
            )
        )
    else:
        cand = np.empty(0, np.int64)
    i64 = pa.int64()
    counts = pa.schema([("doc", i64), ("n", i64)])
    if len(cand):
        sub = collect_table(
            semi_filter(join_typed(cnt, counts, len(cand)), "doc", cand)
        )
    else:
        sub = counts.empty_table()
    # attach n_a / n_b through the guarded lookup. Every candidate
    # endpoint has shingles, hence a count: the inner joins drop no pair.
    with_a = small_join(inter, "pa", sub.rename_columns(["pa", "n_a"]), "pa")
    with_a = join_typed(
        with_a,
        pa.schema([("pa", i64), ("pb", i64), ("n_common", i64), ("n_a", i64)]),
        len(sub),
    )
    withn = small_join(with_a, "pb", sub.rename_columns(["pb", "n_b"]), "pb")

    def finish(batch: pa.Table) -> pa.Table:
        a = batch.column("pa").to_numpy(zero_copy_only=False)
        b = batch.column("pb").to_numpy(zero_copy_only=False)
        i = batch.column("n_common").to_numpy(zero_copy_only=False)
        na = batch.column("n_a").to_numpy(zero_copy_only=False)
        nb = batch.column("n_b").to_numpy(zero_copy_only=False)
        keep = threshold_den * i >= threshold_num * (na + nb - i)
        return pa.table(
            {
                "a_id": pa.array(a[keep], pa.int64()),
                "b_id": pa.array(b[keep], pa.int64()),
                "n_common": pa.array(i[keep], pa.int64()),
                "n_a": pa.array(na[keep], pa.int64()),
                "n_b": pa.array(nb[keep], pa.int64()),
            }
        )

    out = withn.map_batches(finish, batch_format="pyarrow")
    return pa.concat_tables(
        list(out.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        or [
            pa.table(
                {
                    "a_id": pa.array([], pa.int64()),
                    "b_id": pa.array([], pa.int64()),
                    "n_common": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        ]
    )
