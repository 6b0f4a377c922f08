"""SimHash, n-gram Jaccard, and embedding similarity-search tests."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from dedup.config import DedupConfig
from dedup.embed import cosine_near_dup_pairs, knn_cosine, lsh_bucketed_pairs
from dedup.jaccard import jaccard_pairs
from dedup.simhash import SimHasher, _hamming, simhash_clusters
from dedup.synth import make_pages


def _emb_ds(M, ids=None):
    n, d = M.shape
    ids = ids if ids is not None else list(range(n))
    flat = pa.array(M.astype(np.float32).reshape(-1), pa.float32())
    col = pa.FixedSizeListArray.from_arrays(flat, d).cast(pa.list_(pa.float32()))
    return rd.from_arrow(
        pa.table({"vec_id": pa.array(ids, pa.int64()), "embedding": col})
    )


def test_knn_exact_matches_numpy():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((200, 16))
    ds = _emb_ds(M)
    out = knn_cosine(ds, query_ids=[0, 1, 2], k=4)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn @ Mn.T
    for q in [0, 1, 2]:
        s = S[q].copy()
        s[q] = -np.inf
        expect = np.argsort(-s, kind="stable")[:4].tolist()
        got = out[out.query_id == q].sort_values("rank")["neighbor_id"].tolist()
        assert got == expect


def test_knn_local_tie_at_cut_keeps_lower_id():
    """Two identical neighbor vectors tie exactly at the local top-k cut:
    the contract (and oracle ORDER BY sim DESC, id ASC) requires the
    LOWER id to survive — argpartition alone picks arbitrarily."""
    M = np.zeros((3, 2))
    M[0] = [1.0, 0.0]  # query, id 1
    M[1] = [1.0, 0.0]  # id 9 — identical
    M[2] = [1.0, 0.0]  # id 5 — identical
    out = knn_cosine(_emb_ds(M, ids=[1, 9, 5]), query_ids=[1], k=1)
    assert out["neighbor_id"].tolist() == [5]


def test_indexer_absent_query_id_masks_nothing():
    """A query id absent from the index must not erase an unrelated
    index column via the clipped searchsorted insertion point."""
    import ray

    from dedup.embed import EmbeddingIndexer, _emb_matrix, _normalize

    ids = np.array([10, 20, 30], np.int64)
    M = np.eye(3)
    ref = ray.put((ids, _normalize(M)))
    ix = EmbeddingIndexer(ref, k=1)
    # query id 25 (absent), identical to index vector 30
    q = pa.table(
        {
            "vec_id": pa.array([25], pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(M[2].astype(np.float32), pa.float32()), 3
            ).cast(pa.list_(pa.float32())),
        }
    )
    out = ix(q)
    assert out.column("neighbor_id").to_pylist() == [30]
    assert out.column("sim")[0].as_py() == pytest.approx(1.0)
    # and a PRESENT id still masks itself
    q2 = pa.table(
        {
            "vec_id": pa.array([30], pa.int64()),
            "embedding": q.column("embedding"),
        }
    )
    out2 = ix(q2)
    assert 30 not in out2.column("neighbor_id").to_pylist()


def test_lsh_bucketed_empty_corpus():
    out = lsh_bucketed_pairs(_emb_ds(np.zeros((0, 4))), threshold=0.9)
    assert len(out) == 0


def test_cosine_near_dup_planted():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((100, 32))
    M[7] = M[3] + 0.01 * rng.standard_normal(32)  # planted near-dup pair
    out = cosine_near_dup_pairs(_emb_ds(M), threshold=0.95)
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    assert (3, 7) in pairs


def test_lsh_bucketed_finds_planted_dup():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((300, 32))
    for i in range(0, 30, 3):
        M[i + 1] = M[i] + 0.005 * rng.standard_normal(32)
    out = lsh_bucketed_pairs(_emb_ds(M), threshold=0.99, n_planes=8, n_tables=8)
    pairs = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    found = sum((i, i + 1) in pairs for i in range(0, 30, 3))
    assert found >= 8  # near-identical vectors collide in ≥1 of 8 tables


def test_lsh_bucketed_tiers_and_block_splits_agree():
    """ANN pairs and sims do not depend on the engine's components tier
    (driver vs label propagation, ``broadcast_max_rows=0``) or on how
    the input is split into blocks. Over-cap buckets (cap 4, clusters of
    6) take the star path, whose anchor is the true bucket min."""
    import pandas as pd

    rng = np.random.default_rng(11)
    M = rng.standard_normal((240, 16))
    for i in range(0, 120, 6):  # 20 clusters of 6 near-identical vectors
        M[i + 1 : i + 6] = M[i] + 0.01 * rng.standard_normal((5, 16))
    ids = (np.arange(240) * 7919 - 900_000).tolist()  # signed ids
    ds = _emb_ds(M, ids)

    def run(d, **kw):
        t = lsh_bucketed_pairs(
            d, threshold=0.95, n_planes=6, n_tables=4,
            cfg=DedupConfig(allpairs_bucket_max=4, **kw),
        )
        return t.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)

    base = run(ds)
    assert len(base) and (base.a < base.b).all()
    pd.testing.assert_frame_equal(base, run(ds, broadcast_max_rows=0))
    for n_blocks in (1, 7):
        pd.testing.assert_frame_equal(base, run(ds.repartition(n_blocks)))


def test_jaccard_exact_small():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f g h",      # shingles: abcde..defgh (4)
                    "a b c d e f g x",      # shares 3 of its 4
                    "q r s t u v w z",      # disjoint
                ]
            ),
        }
    )
    out = jaccard_pairs(rd.from_arrow(t), k=5, threshold_num=1, threshold_den=2)
    assert out.column("a_id").to_pylist() == [1]
    assert out.column("b_id").to_pylist() == [2]
    # doc1: shingles {abcde,bcdef,cdefg,defgh}; doc2: {abcde,bcdef,cdefg,defgx}
    assert out.column("n_common").to_pylist() == [3]
    assert out.column("n_a").to_pylist() == [4]
    assert out.column("n_b").to_pylist() == [4]


def test_jaccard_short_docs_no_shingles():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["a b c", "a b c"]),  # < k tokens → empty sets
        }
    )
    out = jaccard_pairs(rd.from_arrow(t), k=5)
    assert len(out) == 0


def test_simhash_identical_and_perturbed():
    cfg = DedupConfig()
    hasher = SimHasher(cfg)
    base = " ".join(f"w{i}" for i in range(300))
    toks = base.split()
    toks[5] = "CHANGED"
    near = " ".join(toks)
    far = " ".join(f"z{i}" for i in range(300))
    batch = pa.table(
        {
            "doc_hash": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([base, near, far]),
        }
    )
    out = hasher(batch)
    h = out.column("simhash").to_numpy(zero_copy_only=False)
    d_near = _hamming(h[0:1], h[1:2])[0]
    d_far = _hamming(h[0:1], h[2:3])[0]
    assert d_near <= 6
    assert d_far >= 20


def test_simhash_clusters_on_fixture():
    pages_tbl, exp = make_pages(
        n_exact_groups=5, n_near_groups=8, n_singletons=40,
        n_negative_pairs=5, n_short_split_pairs=0,
        edit_rate_range=(0.005, 0.01),
    )
    clusters = simhash_clusters(rd.from_arrow(pages_tbl), DedupConfig(), hamming_max=3)
    df = clusters.to_pandas()
    part = {}
    for cid, grp in df.groupby("cluster_id"):
        for u in grp["url"]:
            part[u] = cid
    # exact groups must co-cluster (identical text → identical simhash)
    for g in exp.exact_groups:
        cids = {part.get(u) for u in g}
        assert len(cids) == 1 and None not in cids
    # negative pairs must not co-cluster
    for u1, u2 in exp.negative_pairs:
        assert part.get(u1) is None or part.get(u1) != part.get(u2)


def test_jaccard_large_ids_no_collision():
    """Pair keys survive doc ids ≥ 2³¹ (packed-scalar regression: two ids
    packed into 32-bit halves silently collide/corrupt for 64-bit ids)."""
    big = 1 << 33
    text_a = " ".join(f"tok{i}" for i in range(30))
    text_b = text_a + " tail1 tail2"
    text_c = " ".join(f"z{i}" for i in range(30))
    t = pa.table(
        {
            "doc_id": pa.array([big + 1, big + 2, (1 << 40) + 7], pa.int64()),
            "text": pa.array([text_a, text_b, text_c]),
        }
    )
    out = jaccard_pairs(rd.from_arrow(t), k=5, threshold_num=1, threshold_den=2)
    df = out.to_pandas().sort_values(["a_id", "b_id"]).reset_index(drop=True)
    assert df["a_id"].tolist() == [big + 1]
    assert df["b_id"].tolist() == [big + 2]
    # exact counts: a has 26 shingles, b has 28, 26 common
    assert df["n_common"].tolist() == [26]
    assert df["n_a"].tolist() == [26]
    assert df["n_b"].tolist() == [28]


def test_cosine_pairs_block_tiled_matches_bruteforce():
    """Block-tiled exact pair sweep ≡ single-matrix numpy, incl. pairs
    spanning block boundaries and ids out of block order."""
    rng = np.random.default_rng(7)
    M = rng.standard_normal((211, 24))
    M[200] = M[5] + 0.01 * rng.standard_normal(24)   # cross-block planted pair
    ids = rng.permutation(10_000)[:211].astype(np.int64).tolist()  # unordered ids
    out = cosine_near_dup_pairs(_emb_ds(M, ids=ids), threshold=0.6, block_rows=32)
    got = set(zip(out.column("a").to_pylist(), out.column("b").to_pylist()))
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn @ Mn.T
    iu, ju = np.triu_indices(len(M), k=1)
    keep = S[iu, ju] >= 0.6
    ida = np.asarray(ids)
    expect = {
        (min(a, b), max(a, b))
        for a, b in zip(ida[iu[keep]].tolist(), ida[ju[keep]].tolist())
    }
    assert got == expect


def test_lsh_bucketed_recall_vs_exact():
    """ANN recall against the exact sweep on a corpus with many planted
    near-dups: ≥ 0.9 at 8 planes × 8 tables, and no false positives
    (every emitted pair is verified exactly)."""
    rng = np.random.default_rng(9)
    M = rng.standard_normal((400, 32))
    for i in range(0, 120, 3):
        M[i + 1] = M[i] + 0.01 * rng.standard_normal(32)
    ds = _emb_ds(M)
    exact = cosine_near_dup_pairs(ds, threshold=0.95)
    ex = set(zip(exact.column("a").to_pylist(), exact.column("b").to_pylist()))
    approx = lsh_bucketed_pairs(ds, threshold=0.95, n_planes=8, n_tables=8)
    ap = set(zip(approx.column("a").to_pylist(), approx.column("b").to_pylist()))
    assert ap <= ex                      # exact verification → no false positives
    assert len(ap & ex) / len(ex) >= 0.9


def test_ann_lsh_planted_twins(sf_dir):
    """Exact twins must surface through hyperplane-LSH buckets in every
    table and verify at cosine ~1.0; at threshold 0.999 over a
    near-orthogonal corpus they are the entire output."""
    from dedup.queries import PLANT_OFFSET, q_ann_lsh_planted

    t = q_ann_lsh_planted(sf_dir).to_pandas()
    assert t.a.tolist() == list(range(10))
    assert t.b.tolist() == [i + PLANT_OFFSET for i in range(10)]


def test_knn_nan_embeddings_never_crash():
    """NaN embeddings propagate NaN similarities; the top-k cut must
    still return exactly k rows per query (NaN ranks last, as -inf) —
    regression: a NaN inside the partition cut emptied the tie mask and
    crashed the Arrow table build with unequal column lengths."""
    M = np.zeros((4, 2))
    M[0] = [1.0, 0.0]          # query
    M[1] = [np.nan, np.nan]    # NaN neighbor
    M[2] = [np.nan, 1.0]       # NaN neighbor
    M[3] = [0.6, 0.8]          # the one real neighbor
    out = knn_cosine(_emb_ds(M, ids=[0, 1, 2, 3]), query_ids=[0], k=2)
    got = out.sort_values("rank")["neighbor_id"].tolist()
    assert got[0] == 3          # real neighbor first
    assert len(got) == 2        # padded with a NaN-sim row, not a crash


def test_indexer_large_index_partition_path_matches_sort_path():
    """The >4096-column argpartition path must produce the identical
    (sim DESC, id ASC) ranking as the small-index stable-sort path."""
    import ray

    from dedup.embed import EmbeddingIndexer, _emb_matrix, _normalize

    rng = np.random.default_rng(3)
    m = 5000
    M = rng.standard_normal((m, 8))
    M[17] = M[4231]  # exact tie pair: lower id must win
    ids = np.arange(m, dtype=np.int64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    ref = ray.put((ids, Mn))
    q = pa.table({
        "vec_id": pa.array([4231], pa.int64()),
        "embedding": pa.array([M[4231].tolist()],
                              pa.list_(pa.float32(), 8)),
    })
    ix = EmbeddingIndexer(ref, k=3)
    out = ix(q)
    s = (Mn / np.linalg.norm(Mn, axis=1, keepdims=True)) @ Mn[4231]
    s[4231] = -np.inf
    order = np.lexsort((ids, -s))[:3]
    assert out["neighbor_id"].to_pylist() == ids[order].tolist()
    assert out["neighbor_id"].to_pylist()[0] == 17


def test_indexer_paths_agree_with_nan_entries():
    """NaN sims (zero-norm index vectors) must rank identically in the
    small-m argsort path and the large-m argpartition path: both sanitize
    NaN to -inf BEFORE ranking, so degenerate entries tie with the
    self-mask and break ties by id ASC (ADVICE r4)."""
    import ray

    from dedup.embed import EmbeddingIndexer

    rng = np.random.default_rng(9)

    def run(m):
        M = rng.standard_normal((m, 8))
        norms = np.linalg.norm(M, axis=1, keepdims=True)
        Mn = M / norms
        Mn[1] = np.nan  # a corrupt index vector → NaN sim for every query
        ids = np.arange(m, dtype=np.int64)
        ref = ray.put((ids, Mn))
        q = pa.table({
            "vec_id": pa.array([0], pa.int64()),
            "embedding": pa.array([M[0].tolist()], pa.list_(pa.float32(), 8)),
        })
        return EmbeddingIndexer(ref, k=m)(q)

    small, large = run(4096), run(4097)
    # in both paths: all real sims first (desc), then the NaN entry and the
    # self-masked query id tie at -inf and order by id ASC
    for out, m in ((small, 4096), (large, 4097)):
        nb = out["neighbor_id"].to_pylist()
        sims = out["sim"].to_pylist()
        assert nb[-2:] == [0, 1]          # -inf ties, id ASC
        assert sims[-2] == -np.inf and sims[-1] == -np.inf
        assert not any(np.isnan(sims))    # NaN never escapes
        assert sims[: m - 2] == sorted(sims[: m - 2], reverse=True)


def test_ivf_sample_is_order_independent():
    """The coarse-quantizer sample is bottom-k by id hash, so shuffling
    or repartitioning the corpus must yield the SAME sampled rows (the
    old prefix sample depended on block order — VERDICT r4)."""
    import ray.data as rd

    from dedup.embed import _bottomk_sample

    rng = np.random.default_rng(5)
    n, d = 500, 8
    M = rng.standard_normal((n, d)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([r.tolist() for r in M], pa.list_(pa.float32(), d)),
    })
    ds1 = rd.from_arrow(tbl)
    # reversed row order, different partitioning
    rev = tbl.take(pa.array(ids[::-1], pa.int64()))
    ds2 = rd.from_arrow(rev).repartition(7)
    s1 = _bottomk_sample(ds1, 64, "vec_id", "embedding")
    s2 = _bottomk_sample(ds2, 64, "vec_id", "embedding")
    assert len(s1) == 64 and len(s2) == 64
    a = sorted(s1.column("vec_id").to_pylist())
    b = sorted(s2.column("vec_id").to_pylist())
    assert a == b


def test_simhash_block_scheme_ladder():
    """The rung ladder picks the cheapest scheme whose expected bucket
    occupancy keeps the all-pairs guarantee effective — the classic
    4x16 trick only up to ~1M docs (its 16-bit key space collapses
    recall past that), wider combination keys beyond."""
    from dedup.simhash import _block_scheme

    assert _block_scheme(10_000, 3, 64) == (4, 1)
    assert _block_scheme(5_000_000, 3, 64) == (5, 2)
    assert _block_scheme(10**9, 3, 64) == (6, 3)
    assert _block_scheme(10**10, 3, 64) == (6, 3)


def test_simhash_combination_rows_share_key_within_ball():
    """Pigeonhole at every rung: two fingerprints within hamming_max
    share at least one combination bucket key."""
    import numpy as np

    from dedup.simhash import _block_keys

    rng = np.random.default_rng(3)
    for n_blocks, choose in ((4, 1), (5, 2), (6, 3)):
        for _ in range(20):
            f1 = np.uint64(rng.integers(0, 2**63, dtype=np.int64))
            bits = rng.choice(64, size=3, replace=False)
            f2 = f1
            for bit in bits:
                f2 = f2 ^ (np.uint64(1) << np.uint64(int(bit)))
            dh, bkey = _block_keys(
                np.array([1, 2], np.int64),
                np.array([f1, f2], np.uint64).view(np.int64),
                np.array([5, 5], np.int64),
                n_blocks, choose,
            )
            k1 = set(bkey[dh == 1].tolist())
            k2 = set(bkey[dh == 2].tolist())
            assert k1 & k2, (n_blocks, choose, bits)


def test_simhash_distributed_verify_matches_driver(monkeypatch):
    """The three SimHash tiers give one clusters table — partition,
    ``cluster_id`` and ``cluster_size``: the memory tier (small pinned
    fingerprints), the exchange tier with driver components (no pin
    fits the guard) and the exchange tier with label-propagation star
    components and the Dataset assignment (``broadcast_max_rows=0``) —
    in the default mode and in exact-multiset mode."""
    import dedup.exchange as ex

    pages_tbl, _ = make_pages(
        n_exact_groups=4, n_near_groups=6, n_singletons=30,
        n_negative_pairs=4, n_short_split_pairs=0,
        edit_rate_range=(0.005, 0.01),
    )

    def part_of(cfg, **kw):
        df = simhash_clusters(rd.from_arrow(pages_tbl), cfg, **kw).to_pandas()
        part = sorted(
            tuple(sorted(g["url"])) for _, g in df.groupby("cluster_id")
        )
        return part, df.sort_values("url").reset_index(drop=True)

    for kw in ({"hamming_max": 3}, {"hamming_max": 0, "exact_multiset": True}):
        parts = []
        for guard, cfg in (
            (None, DedupConfig()),  # memory tier
            (-1, DedupConfig()),  # exchange tier, driver components
            (-1, DedupConfig(broadcast_max_rows=0)),  # exchange tier, LP
        ):
            if guard is not None:
                monkeypatch.setattr(ex, "_DRIVER_READ_MAX", guard)
            parts.append(part_of(cfg, **kw))
            monkeypatch.undo()
        (p0, t0), (p1, t1), (p2, t2) = parts
        assert p0 == p1 == p2 and len(p0) > 0, kw
        # the whole table, cluster_id and cluster_size included
        assert t0.equals(t1) and t0.equals(t2[t0.columns.tolist()]), kw
