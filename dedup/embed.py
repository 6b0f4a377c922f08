"""Embedding-space operators: cosine KNN search and near-duplicate
clustering over a ``list<float>`` embedding column.

Patterns (per the build brief's similarity-search requirement):

- ``knn_cosine``: brute-force exact top-k. The (small) query matrix is
  broadcast once via ``ray.put``; every batch computes a float64 GEMM
  against it and emits its **local** top-k per query (the combiner);
  the driver merges the tiny per-batch candidate sets into the global
  top-k. Wall-clock is one streaming pass; nothing wide shuffles.

- ``cosine_near_dup_pairs``: all-pairs cosine ≥ threshold. Exact path
  tiles the corpus: batches stream against a broadcast normalized matrix
  (O(n·m) FLOPs but vectorized GEMM; right answer for verification and
  for corpora that fit a broadcast). The scale path is
  ``lsh_bucketed_pairs``: random-hyperplane sign buckets → pairs only
  within buckets (recall < 1, tunable by n_planes/n_tables).

- ``EmbeddingIndexer``: actor-pool stage holding the normalized matrix
  once per actor (build in ``__init__``, query per batch) — the
  stateful-stage shape for repeated query workloads.

Reference anchor: no embedding ops exist in the reference (it is a file
dedup CLI); this module is part of the training-data-pipeline surface
the brief requires beyond reference parity.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from .hashing import U64, fmix64


def _emb_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (copy; compute dtype)."""
    c = batch.column(col)
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    if len(batch) == 0:
        # reshape(0, -1) cannot infer d; zero-row blocks are real input
        # (checkpointed empty stages read back as a 0-row block)
        return np.empty((0, 0), np.float64)
    flat = c.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(batch), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def knn_cosine(
    embeddings: Dataset,
    query_ids: list[int],
    k: int = 5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """Exact cosine top-k: → DataFrame(query_id, neighbor_id, rank).

    Self-matches are excluded; ties break on ascending neighbor id
    (deterministic, matches the oracle's ORDER BY sim DESC, id ASC).
    """
    q = _query_rows(embeddings, query_ids, id_col, emb_col)
    if q is None:
        return _NO_NEIGHBORS.copy()
    return _topk_search(embeddings, q, k, id_col, emb_col)


def _query_rows(
    embeddings: Dataset, query_ids: list[int], id_col: str, emb_col: str
) -> "tuple[np.ndarray, np.ndarray] | None":
    """The query rows of ``embeddings`` → (ids ascending, int64; their
    normalized (m, d) matrix), or None when no query id is present."""
    qset = sorted(set(int(q) for q in query_ids))
    qb = []
    for b in embeddings.iter_batches(batch_size=1 << 16, batch_format="pyarrow"):
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        m = np.isin(ids, qset)
        if m.any():
            qb.append(b.filter(pa.array(m)))
    if not qb:
        return None
    qt = pa.concat_tables(qb)
    q_ids = qt.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(q_ids)
    return q_ids[order], _normalize(_emb_matrix(qt, emb_col))[order]


def _topk_search(
    embeddings: Dataset, q: tuple, k: int, id_col: str, emb_col: str,
    cells: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> pd.DataFrame:
    """Top-``k`` neighbors of the ``_query_rows`` queries ``q`` →
    DataFrame(query_id, neighbor_id, rank): each batch emits its local
    top-k per query (the combiner; a query never matches itself), the
    driver merges the tiny candidate sets under (sim DESC, neighbor id
    ASC). ``cells`` = (centroids, (m, n_probe) probe cells) restricts
    each query to the rows of its probe cells (IVF)."""
    ref = ray.put((q, cells))

    def local(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:  # zero-row blocks carry no inferable dim
            return _QNS_EMPTY
        (qids, Qm), cells = ray.get(ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        X = _normalize(_emb_matrix(batch, emb_col))
        sims = X @ Qm.T  # (n, m)
        if cells is not None:
            cell = np.argmax(X @ cells[0].T, axis=1)
        out = []
        for j in range(len(qids)):
            valid = ids != qids[j]
            if cells is not None:
                valid &= np.isin(cell, cells[1][j])
            cand = np.nonzero(valid)[0]
            if len(cand):
                top = _topk_idx_tiebreak(cand, sims[:, j], ids, min(k, len(cand)))
                out.append(pa.table(
                    [np.full(len(top), qids[j], np.int64), ids[top], sims[top, j]],
                    schema=_QNS_EMPTY.schema,
                ))
        return pa.concat_tables(out) if out else _QNS_EMPTY

    df = embeddings.map_batches(local, batch_format="pyarrow").to_pandas()
    if df.empty:
        return _NO_NEIGHBORS.copy()
    df = df.sort_values(
        ["query_id", "sim", "neighbor_id"], ascending=[True, False, True]
    )
    df["rank"] = df.groupby("query_id").cumcount() + 1
    out = df[df["rank"] <= k][["query_id", "neighbor_id", "rank"]].reset_index(drop=True)
    return out.astype({"query_id": "int64", "neighbor_id": "int64", "rank": "int64"})


def _topk_idx_tiebreak(
    cand: np.ndarray, s: np.ndarray, ids: np.ndarray, kk: int
) -> np.ndarray:
    """Batch-row indices of the top-``kk`` candidates under
    (sim DESC, id ASC) — argpartition for the O(n) cut plus boundary-tie
    resolution, so an exact similarity tie at the local cut never
    discards the lower-id neighbor (duplicate embeddings make exact
    ties common in a dedup corpus; the driver merge can only rank what
    the local pass kept).

    NaN similarities (a NaN embedding propagates through normalize +
    GEMM) are treated as -inf so the cut always returns exactly ``kk``
    indices — a NaN landing inside the partition cut would otherwise
    poison the boundary min and empty the tie mask."""
    s_c = s[cand]  # fancy indexing: a copy, safe to sanitize in place
    np.copyto(s_c, -np.inf, where=np.isnan(s_c))
    if kk < len(cand):
        part = np.argpartition(-s_c, kk - 1)[:kk]
        v = s_c[part].min()
        tie = np.nonzero(s_c >= v)[0]  # top-kk plus every boundary tie
    else:
        tie = np.arange(len(cand))
    o = np.lexsort((ids[cand[tie]], -s_c[tie]))[:kk]
    return cand[tie[o]]


class EmbeddingIndexer:
    """Actor-pool stage: holds the normalized reference matrix once per
    actor (``__init__``), answers batch queries in ``__call__``.

    ``index_ref`` is a ``ray.put`` handle to (ids, normalized matrix) —
    shipped to each actor once, not per batch.
    """

    def __init__(self, index_ref, k: int = 5):
        ids, M = ray.get(index_ref)
        # ascending-id column order: required by the searchsorted self-mask
        # AND makes a stable row sort break similarity ties by id asc
        o = np.argsort(ids)
        self.ids, self.M = np.ascontiguousarray(ids[o]), np.ascontiguousarray(M[o])
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _QNS_EMPTY
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        X = _normalize(_emb_matrix(batch))
        sims = X @ self.M.T
        # mask self ONLY where the query id actually exists in the index —
        # masking the raw clipped insertion point would erase an unrelated
        # neighbor's similarity for ids absent from the index
        pos = np.searchsorted(self.ids, ids).clip(0, len(self.ids) - 1)
        hit = self.ids[pos] == ids
        r = np.nonzero(hit)[0]
        sims[r, pos[r]] = -np.inf
        # sanitize NaN (zero-norm or corrupt vectors) to -inf ONCE so the
        # small-m argsort path and the large-m argpartition path rank the
        # degenerate entries identically (argsort ranks NaN last, AFTER
        # the -inf self-mask; the partition helper maps NaN to -inf where
        # it ties with the mask — without this the two paths disagree).
        # NOT nan_to_num: that would also flatten the -inf self-mask to
        # the finite float min, un-tying it from the NaN entries.
        sims[np.isnan(sims)] = -np.inf
        kk = min(self.k, sims.shape[1])
        m = sims.shape[1]
        if m <= 4096:
            # stable sort over ascending-id columns = (sim DESC, id ASC);
            # at small m the vectorized C sort beats a per-row Python loop
            top = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        else:
            # large index: O(m) argpartition cut per row with exact
            # boundary-tie discipline — same (sim DESC, id ASC) order
            cand = np.arange(m)
            top = np.empty((sims.shape[0], kk), np.int64)
            for i in range(sims.shape[0]):
                top[i] = _topk_idx_tiebreak(cand, sims[i], self.ids, kk)
        rows = np.repeat(ids, kk)
        cols = self.ids[top].reshape(-1)
        s = np.take_along_axis(sims, top, axis=1).reshape(-1)
        return pa.table(
            {
                "query_id": pa.array(rows, pa.int64()),
                "neighbor_id": pa.array(cols.astype(np.int64), pa.int64()),
                "sim": pa.array(s, pa.float64()),
            }
        )


_QNS_EMPTY = pa.table(
    {"query_id": pa.array([], pa.int64()),
     "neighbor_id": pa.array([], pa.int64()),
     "sim": pa.array([], pa.float64())}
)

_NO_NEIGHBORS = pd.DataFrame({"query_id": [], "neighbor_id": [], "rank": []})

_PAIRS_EMPTY = pa.table(
    {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
     "sim": pa.array([], pa.float64())}
)

def _exact_pair_sims(
    ids_sorted: np.ndarray, M_sorted: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Cosine of each (a, b) pair against the sorted normalized matrix;
    pairs with an id absent from the matrix get -inf."""
    n = len(ids_sorted)
    sim = np.full(len(a), -np.inf)
    if n == 0:
        return sim
    ia = np.minimum(np.searchsorted(ids_sorted, a), n - 1)
    ib = np.minimum(np.searchsorted(ids_sorted, b), n - 1)
    ok = (ids_sorted[ia] == a) & (ids_sorted[ib] == b)
    sim[ok] = np.einsum("ij,ij->i", M_sorted[ia[ok]], M_sorted[ib[ok]])
    return sim


def _prep_block(batch: pa.Table, id_col: str, emb_col: str) -> pa.Table:
    """(id, normalized embedding) block — the tiling unit for block-pair
    GEMM tasks. Normalization happens once here, not per pair task."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    M = _normalize(_emb_matrix(batch, emb_col))
    d = M.shape[1] if len(M) else 0
    flat = pa.array(M.reshape(-1), pa.float64())
    return pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "nemb": pa.FixedSizeListArray.from_arrays(flat, d) if d else
                    pa.array([[]] * len(ids), pa.list_(pa.float64())),
        }
    )


def _unpack_block(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    if len(ids) == 0:
        return ids, np.empty((0, 0), np.float64)
    c = t.column("nemb")
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    M = c.flatten().to_numpy(zero_copy_only=False).reshape(len(ids), -1)
    return ids, M


@ray.remote
def _block_pair_task(
    t1: pa.Table, t2: pa.Table, threshold: float, diagonal: bool
) -> pa.Table:
    """Pairs ≥ threshold between two normalized blocks, a < b canonical.

    Diagonal block (t1 is t2): each unordered pair shows up twice in the
    GEMM plus the self-diagonal, so keep only id1 < id2. Off-diagonal:
    each unordered pair shows up exactly once — REORIENT (ids are not
    range-partitioned across blocks), never drop."""
    ids1, M1 = _unpack_block(t1)
    ids2, M2 = _unpack_block(t2)
    if not len(ids1) or not len(ids2):
        return _PAIRS_EMPTY
    sims = M1 @ M2.T
    r, c = np.nonzero(sims >= threshold)
    x, y, s = ids1[r], ids2[c], sims[r, c]
    if diagonal:
        keep = x < y
        x, y, s = x[keep], y[keep], s[keep]
    else:
        a = np.minimum(x, y)
        y = np.maximum(x, y)
        x = a
    return pa.table(
        {
            "a": pa.array(x, pa.int64()),
            "b": pa.array(y, pa.int64()),
            "sim": pa.array(s, pa.float64()),
        }
    )


def cosine_near_dup_pairs(
    embeddings: Dataset,
    threshold: float = 0.9,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    block_rows: int = 1 << 14,
) -> pa.Table:
    """Exact all-pairs cosine ≥ threshold → Arrow table (a, b, sim), a<b.

    Block-tiled: the corpus is normalized into ``block_rows``-row blocks
    held in the object store; one Ray task per block pair (i ≤ j) runs a
    float64 GEMM between its two blocks. No task — and not the driver —
    ever holds more than two blocks, so memory is O(block²) per worker
    while compute stays the unavoidable O(n²) of an exact sweep; use
    ``lsh_bucketed_pairs`` for the sub-quadratic approximate path. The
    returned pair table is bounded by true near-dups (small by premise).
    """
    prepped = embeddings.map_batches(
        lambda b: _prep_block(b, id_col, emb_col),
        batch_format="pyarrow",
        batch_size=block_rows,
        zero_copy_batch=True,
    ).materialize()
    refs = [
        bref
        for bundle in prepped.iter_internal_ref_bundles()
        for bref in bundle.block_refs
    ]
    futs = [
        _block_pair_task.remote(refs[i], refs[j], threshold, i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    parts = [t for t in ray.get(futs) if len(t)]
    return pa.concat_tables(parts) if parts else _PAIRS_EMPTY


def _bottomk_sample(
    embeddings: Dataset, sample: int, id_col: str, emb_col: str
) -> pa.Table:
    """Deterministic uniform sample of ``sample`` rows: global bottom-k
    by ``fmix64(id)`` — hash-random (immune to corpus ordering, unlike a
    prefix sample, which over-represents whatever shard happens to come
    first), reproducible with no wall clock, and scale-safe: pass 1
    moves only per-batch bottom-k (id, hash) 16 B rows to the driver;
    pass 2 fetches just the ≤ ``sample`` chosen embedding rows."""
    from .hashing import fmix64, xxh64_arrow

    def local(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if pa.types.is_integer(ids.type):
            with np.errstate(over="ignore"):
                h = fmix64(ids.to_numpy(zero_copy_only=False).astype(np.uint64))
        else:
            h = xxh64_arrow(ids)
        keep = np.argsort(h)[:sample]
        return pa.table(
            {
                "__id": ids.take(pa.array(np.sort(keep), pa.int64())),
                "__h": pa.array(h[np.sort(keep)].view(np.int64), pa.int64()),
            }
        )

    part_batches = list(
        embeddings.select_columns([id_col])
        .map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
    )
    if not part_batches:
        return pa.table({})  # empty corpus → empty sample (len 0)
    parts = pa.concat_tables(part_batches)
    if len(parts) == 0:
        return parts
    hs = parts.column("__h").to_numpy(zero_copy_only=False).view(np.uint64)
    chosen = parts.column("__id").take(
        pa.array(np.argsort(hs)[:sample], pa.int64())
    )
    if isinstance(chosen, pa.ChunkedArray):
        chosen = chosen.combine_chunks()
    # ≤ `sample` ids — tiny; shipped once inside the filter closure

    def pick(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch.column(id_col), value_set=chosen))

    got_batches = list(
        embeddings.map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
    )
    return pa.concat_tables(got_batches) if got_batches else pa.table({})


def ivf_build(
    embeddings: Dataset,
    n_centroids: int = 16,
    iters: int = 5,
    sample: int = 4096,
    seed: int = 42,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Deterministic coarse quantizer: seeded k-means on a hash-uniform
    bottom-k sample (``_bottomk_sample`` — order-independent, unlike the
    earlier prefix sample, which was biased toward the first shard).

    Returns (n_centroids, d) float64 centroid matrix (normalized).
    """
    tbl = _bottomk_sample(embeddings, sample, id_col, emb_col)
    if len(tbl) == 0:
        # empty corpus: one dummy unit centroid (dimension unknowable, use 1)
        return np.ones((1, 1), dtype=np.float64)
    X = _normalize(_emb_matrix(tbl, emb_col))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(axis=0)
        C = _normalize(C)
    return C


def ivf_search(
    embeddings: Dataset,
    query_ids: list[int],
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """IVF approximate KNN: probe only the ``n_probe`` nearest coarse
    cells per query instead of the whole corpus — the scale path when
    the corpus outgrows a brute-force pass (recall < 1, tunable).

    → DataFrame(query_id, neighbor_id, rank), same shape as knn_cosine.
    """
    C = ivf_build(embeddings, n_centroids=n_centroids, emb_col=emb_col, id_col=id_col)
    q = _query_rows(embeddings, query_ids, id_col, emb_col)
    if q is None:
        return _NO_NEIGHBORS.copy()
    probes = np.argsort(-(q[1] @ C.T), axis=1)[:, :n_probe]  # (m, n_probe)
    return _topk_search(embeddings, q, k, id_col, emb_col, cells=(C, probes))


def lsh_bucketed_pairs(
    embeddings: Dataset,
    threshold: float = 0.9,
    n_planes: int = 12,
    n_tables: int = 4,
    seed: int = 42,
    id_col: str = "vec_id",
    cfg=None,
) -> pa.Table:
    """Approximate near-dup pairs via random-hyperplane LSH → Arrow
    table (a, b, sim), a < b.

    Each of ``n_tables`` tables hashes every vector to a ``n_planes``-bit
    sign bucket; candidate pairs share a bucket in ≥1 table; candidates
    are verified by exact cosine. Collision prob per table =
    (1 - θ/π)^planes — the scale path (no O(n·m) GEMM, only
    bucket-local work).

    Pairs are generated and checked by the candidate engine
    (``candidates.component_verified_edges``, cosine kernel): buckets up
    to ``cfg.allpairs_bucket_max`` emit ALL member-member pairs (the
    threshold check is not connectivity-preserving, so star edges alone
    would lose member pairs whose edges to a dissimilar bucket rep fail
    — tests/test_lsh_allpairs.py pins the scenario); a hot bucket
    (all-near-identical corpus) stays O(n) via the star fallback, whose
    residual recall loss is documented in COVERAGE.md. ``cfg`` carries
    the caller's tuning (join_buckets / allpairs_bucket_max /
    broadcast_max_rows).
    """
    from .candidates import EDGES_SCHEMA, Kernel, component_verified_edges
    from .config import DedupConfig
    from .exchange import collect_table

    def planes(d: int) -> np.ndarray:
        # seeded, so every batch and group derives the same planes
        return np.random.default_rng(seed).standard_normal((n_tables, n_planes, d))

    def keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = t.column("doc_hash").to_numpy(zero_copy_only=False)
        if not len(ids):
            return ids, ids
        X = _normalize(_emb_matrix(t))
        P = planes(X.shape[1])
        out_key = []
        for p in range(n_tables):
            bits = (X @ P[p].T) > 0  # (n, planes)
            key = np.zeros(len(ids), dtype=U64)
            for j in range(n_planes):
                key = (key << np.uint64(1)) | bits[:, j].astype(U64)
            with np.errstate(over="ignore"):
                key = fmix64(key ^ (U64(p) << np.uint64(56)))
            out_key.append(key.view(np.int64))
        return np.tile(ids, n_tables), np.concatenate(out_key)

    def check(g: pa.Table, a: np.ndarray, b: np.ndarray):
        ids = g.column("doc_hash").to_numpy(zero_copy_only=False)
        o = np.argsort(ids)
        sim = _exact_pair_sims(ids[o], _normalize(_emb_matrix(g))[o], a, b)
        return sim >= threshold, sim

    rows = embeddings.map_batches(
        lambda t: pa.table(
            {"doc_hash": pa.array(
                t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64()),
             "embedding": t.column("embedding")}
        ),
        batch_format="pyarrow",
    )
    edges = collect_table(
        component_verified_edges(
            rows, cfg or DedupConfig(),
            kernel=Kernel(["doc_hash", "embedding"], keys, check),
        ),
        schema=EDGES_SCHEMA,
    )
    # the engine canonicalizes in uint64 order; the contract is signed
    a = edges.column("a").to_numpy(zero_copy_only=False)
    b = edges.column("b").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "a": pa.array(np.minimum(a, b), pa.int64()),
            "b": pa.array(np.maximum(a, b), pa.int64()),
            "sim": edges.column("sim"),
        }
    )
