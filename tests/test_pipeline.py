"""End-to-end near-dup pipeline: planted recall + negative controls."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from dedup.config import DedupConfig
from dedup.pipeline import cluster_partition, near_dup_pipeline
from dedup.synth import make_pages
from dedup.unionfind import UnionFind, label_propagation


def _url_cluster_map(clusters_ds):
    df = clusters_ds.to_pandas()
    return dict(zip(df["url"], df["cluster_id"]))


def test_near_dup_recall_and_precision():
    table, exp = make_pages()
    ds = rd.from_arrow(table)
    res = near_dup_pipeline(ds, DedupConfig(min_size=1))
    cmap = _url_cluster_map(res.clusters)

    # recall over planted near-dup pairs (target ≥0.99 with margin here)
    pairs = exp.near_dup_pairs
    hits = sum(1 for u, v in pairs if u in cmap and v in cmap and cmap[u] == cmap[v])
    recall = hits / len(pairs)
    assert recall >= 0.99, f"near-dup pair recall {recall:.3f} < 0.99"

    # exact groups must also cluster
    for g in exp.exact_groups:
        ids = {cmap.get(u) for u in g}
        assert len(ids) == 1 and None not in ids, f"exact group split: {g}"

    # negative controls (J ≤ 0.3) must NOT cluster together
    for u, v in exp.negative_pairs:
        if u in cmap and v in cmap:
            assert cmap[u] != cmap[v], f"negatives clustered: {u} {v}"

    # singletons must not appear at all
    for u in exp.singleton_urls:
        assert u not in cmap


def test_pipeline_never_mutates_text():
    # per-row invariant: byte-identical extracted text per url
    table, _ = make_pages(n_exact_groups=3, n_near_groups=3, n_singletons=10)
    ds = rd.from_arrow(table)
    from dedup.ingest import ingest

    ing = ingest(ds, DedupConfig(min_size=0))
    got = ing.select_columns(["url", "text"]).to_pandas().set_index("url")["text"]
    want = dict(zip(table.column("url").to_pylist(), table.column("text").to_pylist()))
    for url, text in want.items():
        assert got[url] == text


def test_exact_dups_share_cluster_even_without_lsh_edges():
    # two identical docs under min token count for shingling (short text)
    t = pa.table(
        {
            "url": pa.array(["u1", "u2", "u3"]),
            "warc_ts": pa.array([0, 1, 2], pa.timestamp("us")),
            "html": pa.array([b""] * 3, pa.binary()),
            "text": pa.array(["tiny doc", "tiny doc", "other thing"]),
            "lang": pa.array(["en"] * 3),
        }
    )
    res = near_dup_pipeline(rd.from_arrow(t), DedupConfig(min_size=1))
    assert cluster_partition(res.clusters) == [["u1", "u2"]]


def test_unionfind_component_map():
    uf = UnionFind()
    uf.union(5, 3)
    uf.union(7, 9)
    uf.union(3, 9)
    uf.union(100, 200)
    keys, cids = uf.component_map()
    m = dict(zip(keys.tolist(), cids.tolist()))
    assert m[5] == m[3] == m[7] == m[9] == 3
    assert m[100] == m[200] == 100


def test_unionfind_uint64_min_rule():
    uf = UnionFind()
    # -1 as int64 is the LARGEST uint64 value; min must pick 1
    uf.union(-1, 1)
    keys, cids = uf.component_map()
    m = dict(zip(keys.tolist(), cids.tolist()))
    assert m[-1] == 1 and m[1] == 1


def test_label_propagation_matches_driver_unionfind():
    rng = np.random.default_rng(3)
    # random graph: 3 chains + isolated pairs
    edges = []
    base = 0
    for chain_len in (5, 8, 3):
        nodes = (rng.permutation(1000)[:chain_len] + base * 1000 + 1).tolist()
        edges += list(zip(nodes[:-1], nodes[1:]))
        base += 1
    edges += [(5001, 5002), (6001, 6002)]
    et = pa.table(
        {"a": pa.array([a for a, _ in edges], pa.int64()),
         "b": pa.array([b for _, b in edges], pa.int64())}
    )
    ds = rd.from_arrow(et)
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    keys, cids = uf.component_map()
    want = dict(zip(keys.tolist(), cids.tolist()))
    lp = label_propagation(ds, n_buckets=4).to_pandas()
    got = dict(zip(lp["node"], lp["label"]))
    assert got == want


def test_components_np_matches_unionfind():
    from dedup.unionfind import components_np

    rng = np.random.default_rng(11)
    a = rng.integers(-(2**62), 2**62, size=5000)
    b = a.copy()
    rng.shuffle(b)
    # random edges + chains
    uf = UnionFind()
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    k1, c1 = uf.component_map()
    k2, c2 = components_np(a, b)
    m1 = dict(zip(k1.tolist(), c1.tolist()))
    m2 = dict(zip(k2.tolist(), c2.tolist()))
    assert m1 == m2


# tier → (config overrides, exchange._DRIVER_READ_MAX or None to keep it)
_TIERS = {
    "memory": ({}, None),
    # no pin fits the driver: the engine's exchange tier; the star edges
    # and the component labels still fit the broadcast guard, so the star
    # components and the assignment run on the driver
    "exchange-driver": ({}, -1),
    # and nothing fits the guard: label propagation over the star edges,
    # the labels stay a Dataset for the bucketed-join assignment
    "label-propagation": ({"broadcast_max_rows": 0}, -1),
}

_NO_EDGES = pa.table(
    {
        "url": pa.array(["u1", "u2", "u3"]),
        "warc_ts": pa.array([0, 1, 2], pa.timestamp("us")),
        "html": pa.array([b""] * 3, pa.binary()),
        "text": pa.array(["tiny doc", "tiny doc", "other thing"]),
        "lang": pa.array(["en"] * 3),
    }
)


def _assert_tier_agrees(tier, monkeypatch, table, **kw):
    """Run ``tier`` on ``table`` and check it gives the bit-identical
    cluster table (ids, sizes and membership) and component labels
    (node, label, deg) as the memory tier; returns the tier's result."""
    import dedup.exchange as ex
    from ray.data import Dataset

    def sorted_labels(labels):
        t = labels.to_pandas()
        return t.sort_values("node").reset_index(drop=True)

    overrides, guard = _TIERS[tier]
    ds = rd.from_arrow(table)
    want = near_dup_pipeline(ds, DedupConfig(min_size=1, **kw))
    if guard is not None:
        monkeypatch.setattr(ex, "_DRIVER_READ_MAX", guard)
    got = near_dup_pipeline(ds, DedupConfig(min_size=1, **kw, **overrides))
    d1 = want.clusters.to_pandas().sort_values("url").reset_index(drop=True)
    d2 = (
        got.clusters.to_pandas()[d1.columns.tolist()]
        .sort_values("url")
        .reset_index(drop=True)
    )
    monkeypatch.undo()
    assert d1.equals(d2), kw
    assert sorted_labels(want.labels).equals(sorted_labels(got.labels)), kw
    assert got.n_edges() == want.n_edges(), kw
    lp = tier == "label-propagation" and got.n_edges() > 0
    assert isinstance(got.labels, Dataset) == lp, kw
    return got


@pytest.mark.parametrize("tier", ["memory", "exchange-driver"])
def test_pipeline_tiers_agree(tier, monkeypatch):
    """The driver-side components tiers agree with the memory tier, in
    default and exact-set mode, and on a corpus with no LSH edge at all
    (exact-dup identity clusters must still come out)."""
    _assert_tier_agrees(
        tier, monkeypatch,
        make_pages(n_exact_groups=4, n_near_groups=6, n_singletons=25)[0],
    )
    _assert_tier_agrees(
        tier, monkeypatch,
        make_pages(n_exact_groups=3, n_near_groups=3, n_singletons=10)[0],
        verify_threshold=1.0, exact_set_verify=True,
    )
    got = _assert_tier_agrees(tier, monkeypatch, _NO_EDGES)
    assert cluster_partition(got.clusters) == [["u1", "u2"]]


def test_pipeline_distributed_backend_matches_driver(monkeypatch):
    """The fully-Dataset path (star components by label_propagation →
    per-group verify + label → bucketed-join assignment) must produce
    the bit-identical cluster table — ids, sizes and membership — and
    component labels, while its labels handoff stays a Dataset (never a
    driver Arrow table)."""
    _assert_tier_agrees(
        "label-propagation", monkeypatch,
        make_pages(n_exact_groups=4, n_near_groups=6, n_singletons=25)[0],
    )


def test_pipeline_distributed_backend_exact_mode_and_empty_edges(monkeypatch):
    """The fully-Dataset path under exact-set verification, and with a
    corpus that yields no LSH edges at all (exact-dup identity clusters
    must still come out)."""
    _assert_tier_agrees(
        "label-propagation", monkeypatch,
        make_pages(n_exact_groups=3, n_near_groups=3, n_singletons=10)[0],
        verify_threshold=1.0, exact_set_verify=True,
    )
    got = _assert_tier_agrees("label-propagation", monkeypatch, _NO_EDGES)
    assert cluster_partition(got.clusters) == [["u1", "u2"]]


def test_pipeline_broadcast_guard_fallback_matches():
    """broadcast_max_rows=0 forces every dup-bounded map through the
    bucketed-join fallback; the cluster partition must not change."""
    table, _ = make_pages(n_exact_groups=3, n_near_groups=4, n_singletons=15)
    ds = rd.from_arrow(table)
    p1 = cluster_partition(near_dup_pipeline(ds, DedupConfig(min_size=1)).clusters)
    p2 = cluster_partition(
        near_dup_pipeline(ds, DedupConfig(min_size=1, broadcast_max_rows=0)).clusters
    )
    assert p1 == p2


def test_near_dup_corpus_keeps_one_rep_per_cluster():
    """The dedupped-corpus artifact: every cluster collapses to its min
    url; singletons pass through byte-identical."""
    from dedup.pipeline import near_dup_corpus, near_dup_pipeline

    table, exp = make_pages(n_exact_groups=4, n_near_groups=4, n_singletons=25)
    cfg = DedupConfig(min_size=1)
    corpus = near_dup_corpus(rd.from_arrow(table), cfg).to_pandas()
    kept = set(corpus["url"])
    clusters = near_dup_pipeline(rd.from_arrow(table), cfg).clusters.to_pandas()
    for cid, g in clusters.groupby("cluster_id"):
        urls = sorted(g["url"])
        assert urls[0] in kept                      # representative kept
        assert not (set(urls[1:]) & kept)           # other members dropped
    clustered = set(clusters["url"])
    from dedup.ingest import ingest as _ing

    all_urls = set(_ing(rd.from_arrow(table), cfg).to_pandas()["url"])
    assert (all_urls - clustered) <= kept           # non-clustered pass through
    assert len(corpus) == len(all_urls) - (len(clustered) - clusters["cluster_id"].nunique())


def test_label_propagation_pointer_jumping_logarithmic_rounds():
    """A 64-node PATH graph (worst case for plain min-label propagation:
    O(diameter)=63 rounds) must converge in ≤ 2·log2(n)+4 fused rounds —
    a jump request issued at round t is answered at t+1 and applied at
    t+2, so the fused single-exchange design pays two (half-cost) rounds
    per pointer doubling — and still produce the exact uint64-min
    component labels."""
    import math

    import ray.data as rd

    from dedup.unionfind import label_propagation

    n = 64
    ids = np.arange(100, 100 + n, dtype=np.int64)  # nonzero, ordered ids
    ds = rd.from_arrow(
        pa.table(
            {"a": pa.array(ids[:-1], pa.int64()), "b": pa.array(ids[1:], pa.int64())}
        )
    )
    stats: dict = {}
    out = label_propagation(ds, n_buckets=4, stats=stats).to_pandas()
    assert stats["rounds"] <= 2 * int(math.log2(n)) + 4, stats
    assert sorted(out["node"]) == ids.tolist()
    assert set(out["label"]) == {100}


def test_label_propagation_contraction_fallback_on_tiny_budget():
    """max_iter caps only the cheap delta phase; a graph unconverged
    there hands off to the min-star contraction finisher and still
    yields exact labels (the old contract raised RuntimeError — which
    made chain-shaped components a hard crash of the distributed
    backend)."""
    import ray.data as rd

    from dedup.unionfind import label_propagation

    ids = np.arange(1, 40, dtype=np.int64)
    ds = rd.from_arrow(
        pa.table(
            {"a": pa.array(ids[:-1], pa.int64()), "b": pa.array(ids[1:], pa.int64())}
        )
    )
    stats: dict = {}
    out = label_propagation(ds, n_buckets=2, max_iter=1, stats=stats).to_pandas()
    out = out.drop_duplicates().sort_values("node").reset_index(drop=True)
    assert stats.get("contraction_rounds", 0) >= 1  # the fallback ran
    assert sorted(out["node"]) == ids.tolist()
    assert set(out["label"]) == {1}


def test_label_propagation_random_id_chain_converges():
    """Regression: a PATH of RANDOM int64 ids (doc ids are hashes, so
    this is the production shape — fragment-rep chains from straddled
    lsh buckets). Pointer jumping compresses the label forest, not the
    graph, so the delta engine alone is Θ(n) rounds here and the old
    design crashed past ~150 nodes; the contraction fallback must
    converge in ≲ 2·log2(n) extra rounds with exact uint64-min labels."""
    import math

    import pandas as pd
    import ray.data as rd

    from dedup.unionfind import components_np, label_propagation

    rng = np.random.default_rng(7)
    n = 300
    ids = np.unique(rng.integers(-(1 << 62), 1 << 62, size=3 * n, dtype=np.int64))[:n]
    ids = ids[rng.permutation(n)]
    a, b = ids[:-1], ids[1:]
    ds = rd.from_arrow(
        pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
    )
    stats: dict = {}
    out = label_propagation(ds, n_buckets=4, stats=stats).to_pandas()
    out = out.drop_duplicates().sort_values("node").reset_index(drop=True)
    keys, cids = components_np(a, b)
    ref = (
        pd.DataFrame({"node": keys, "label": cids})
        .sort_values("node")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, ref)
    assert stats["contraction_rounds"] <= 2 * int(math.log2(n)) + 4, stats


def test_sig_bytes_4_and_8_same_clusters():
    """Stored slot width is an engineering knob: truncating the 64-bit
    mins to 32 bits (sig_bytes=4, the default) must recover the same
    planted clusters as the full-width layout (per-slot false-equal is
    2^-32 — invisible on any real corpus)."""
    table, exp = make_pages()
    ds = rd.from_arrow(table)
    c4 = _url_cluster_map(
        near_dup_pipeline(ds, DedupConfig(min_size=1, sig_bytes=4)).clusters
    )
    c8 = _url_cluster_map(
        near_dup_pipeline(ds, DedupConfig(min_size=1, sig_bytes=8)).clusters
    )
    # same membership partition (cluster ids are min doc_hash, which can
    # differ only if membership differs — compare the partitions)
    from collections import defaultdict

    def parts(cmap):
        g = defaultdict(set)
        for u, cid in cmap.items():
            g[cid].add(u)
        return {frozenset(v) for v in g.values()}

    assert parts(c4) == parts(c8)


def test_near_dup_corpus_revisited_url_not_poisoned():
    """Drop identity is (url, doc_hash), not url alone: a url that
    appears once as a dropped cluster member (content A) and once with
    unrelated unique content B (a re-crawl) must keep the B row.
    Regression: the url-only drop set silently removed it."""
    from dedup.pipeline import near_dup_corpus

    text_a = " ".join(f"tok{i}" for i in range(60))
    text_b = " ".join(f"other{i}" for i in range(60))
    singles = [" ".join(f"s{j}w{i}" for i in range(40)) for j in range(3)]
    urls = ["https://x/b", "https://x/c", "https://x/c"] + [
        f"https://x/s{j}" for j in range(3)
    ]
    texts = [text_a, text_a, text_b] + singles
    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([1000 + i for i in range(len(urls))], pa.int64()),
            "html": pa.array(
                [b"<html>" + t.encode() for t in texts], pa.binary()
            ),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
        }
    )
    corpus = near_dup_corpus(
        rd.from_arrow(table), DedupConfig(min_size=1)
    ).to_pandas()
    # cluster {b, c}(A): rep = b kept, (c, hash A) dropped;
    # the re-crawled (c, hash B) row and the singletons pass through
    assert sorted(corpus["url"]) == sorted(
        ["https://x/b", "https://x/c"] + [f"https://x/s{j}" for j in range(3)]
    )
    assert (corpus["url"] == "https://x/c").sum() == 1
