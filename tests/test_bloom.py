"""Bloom-filter membership screening (dedup/bloom.py)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from dedup.bloom import (
    BloomFilter,
    bloom_build,
    bloom_split,
    read_bloom_sidecar,
    write_bloom_sidecar,
)


def _keys(seed, n):
    return np.random.default_rng(seed).integers(0, 2**63, size=n, dtype=np.int64)


def test_no_false_negatives_and_fpp_bounded():
    added = _keys(0, 20_000)
    other = _keys(1, 20_000)
    other = other[~np.isin(other, added)]
    f = BloomFilter.for_capacity(len(added), fpp=0.01)
    f.add_many(added)
    assert f.contains_many(added).all()  # the Bloom guarantee
    fpp = f.contains_many(other).mean()
    assert fpp < 0.03  # target 1%, generous 3x bound


def test_serialize_roundtrip_and_union():
    a, b = _keys(2, 5_000), _keys(3, 5_000)
    f1 = BloomFilter.for_capacity(10_000, fpp=0.01)
    f2 = BloomFilter(f1.m_bits, f1.k)
    f1.add_many(a)
    f2.add_many(b)
    merged = BloomFilter.from_bytes(f1.to_bytes()).union_(f2)
    both = BloomFilter(f1.m_bits, f1.k)
    both.add_many(np.concatenate([a, b]))
    assert np.array_equal(merged.words, both.words)
    assert merged.contains_many(a).all() and merged.contains_many(b).all()


def test_bloom_build_matches_local_build():
    keys = _keys(4, 30_000)
    ds = rd.from_arrow(pa.table({"doc_hash": pa.array(keys, pa.int64())}))
    built = bloom_build(ds, "doc_hash", n_expected=len(keys), fpp=0.01)
    local = BloomFilter(built.m_bits, built.k)
    local.add_many(keys)
    assert np.array_equal(built.words, local.words)


def test_bloom_split_definitely_new_is_exact():
    corpus = _keys(5, 10_000)
    dups = corpus[:200]
    fresh = _keys(6, 2_000)
    fresh = fresh[~np.isin(fresh, corpus)]
    batch_keys = np.concatenate([dups, fresh])
    f = bloom_build(
        rd.from_arrow(pa.table({"doc_hash": pa.array(corpus, pa.int64())})),
        "doc_hash", n_expected=len(corpus), fpp=0.01,
    )
    tagged = bloom_split(
        rd.from_arrow(pa.table({"doc_hash": pa.array(batch_keys, pa.int64())})),
        "doc_hash", f,
    )
    t = pa.concat_tables(list(tagged.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
    maybe = t.column("__maybe").to_numpy(zero_copy_only=False)
    h = t.column("doc_hash").to_numpy(zero_copy_only=False)
    true_dup = np.isin(h, corpus)
    # every true duplicate must be flagged maybe (no false negatives)
    assert maybe[true_dup].all()
    # the screen is effective: few false positives among the fresh keys
    assert maybe[~true_dup].mean() < 0.05


def test_sidecar_roundtrip(tmp_path):
    idx = tmp_path / "index"
    (idx / "sigs").mkdir(parents=True)
    keys = _keys(7, 1_000)
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({"doc_hash": pa.array(keys, pa.int64())}), idx / "sigs" / "part0.parquet"
    )
    path = write_bloom_sidecar(str(idx), fpp=0.01)
    f = read_bloom_sidecar(str(idx))
    assert path.endswith("bloom.bin")
    assert f.contains_many(keys).all()


def test_sidecar_from_keys_matches_distributed_build(tmp_path, monkeypatch):
    """``write_bloom_sidecar_keys`` (the index's memory tier) sizes and
    fills the filter like ``write_bloom_sidecar``: the same sidecar
    bytes, single-file and (with ~1 KiB shards forced) sharded."""
    import os

    import pyarrow.parquet as pq

    import dedup.bloom as bl

    keys = _keys(11, 3_000)

    def sidecar_bytes(d):
        files = [os.path.join(d, "bloom.bin")] if os.path.exists(
            os.path.join(d, "bloom.bin")
        ) else sorted(
            os.path.join(d, "bloom.d", f) for f in os.listdir(os.path.join(d, "bloom.d"))
        )
        return [open(f, "rb").read() for f in files]

    for shards in (False, True):
        if shards:
            monkeypatch.setattr(bl, "_SHARD_TARGET_BYTES", 1 << 10)
        dist, mem = tmp_path / f"dist{shards}", tmp_path / f"mem{shards}"
        (dist / "sigs").mkdir(parents=True)
        mem.mkdir()
        pq.write_table(
            pa.table({"doc_hash": pa.array(keys, pa.int64())}),
            dist / "sigs" / "part0.parquet",
        )
        bl.write_bloom_sidecar(str(dist))
        bl.write_bloom_sidecar_keys(str(mem), keys)
        assert sidecar_bytes(str(dist)) == sidecar_bytes(str(mem)), shards
        assert (len(sidecar_bytes(str(mem))) > 1) == shards


def test_sidecar_rebuild_sharded_to_single_removes_stale_shards(tmp_path):
    """A single-file rebuild over an existing sharded sidecar must WIN:
    read_bloom_sidecar prefers bloom.d/, so leaving the stale sharded
    layout behind would silently shadow the fresh filter — and a filter
    missing later keys yields Bloom FALSE NEGATIVES (true duplicates
    reported definitely-new)."""
    import os

    import pyarrow.parquet as pq

    from dedup.bloom import BloomFilter, read_bloom_sidecar

    idx = tmp_path / "index"
    (idx / "sigs").mkdir(parents=True)
    keys = _keys(11, 1_000)
    pq.write_table(
        pa.table({"doc_hash": pa.array(keys, pa.int64())}),
        idx / "sigs" / "part0.parquet",
    )
    write_bloom_sidecar(str(idx), n_shards=4)
    assert os.path.exists(idx / "bloom.d" / "meta.json")
    # more sig rows arrive outside update_index; operator rebuilds single-file
    more = _keys(12, 1_000)
    pq.write_table(
        pa.table({"doc_hash": pa.array(more, pa.int64())}),
        idx / "sigs" / "part1.parquet",
    )
    path = write_bloom_sidecar(str(idx), n_shards=1)
    assert path.endswith("bloom.bin")
    assert not os.path.exists(idx / "bloom.d")
    f = read_bloom_sidecar(str(idx))
    assert isinstance(f, BloomFilter)
    # the fresh filter covers BOTH batches — no false negatives
    assert f.contains_many(keys).all() and f.contains_many(more).all()


def test_incremental_bloom_identical(tmp_path):
    """incremental_dedup output is identical with and without the Bloom
    sidecar (the filter is an I/O screen, never a correctness change),
    and build_index now writes the sidecar."""
    import os

    import ray.data as rd

    from dedup.config import DedupConfig
    from dedup.exchange import collect_table
    from dedup.incremental import build_index, incremental_dedup
    from dedup.synth import _doc, _vocab

    rng = np.random.default_rng(7)
    vocab = _vocab(rng)

    def pages(rows):
        urls, texts = zip(*rows)
        return rd.from_arrow(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * len(urls), pa.string()),
                }
            )
        )

    t0 = " ".join(_doc(rng, vocab, 250))
    corpus = [("c://a", t0), ("c://b", " ".join(_doc(rng, vocab, 280)))]
    batch = [
        ("b://dup", t0),  # exact corpus dup → dropped
        ("b://new", " ".join(_doc(rng, vocab, 260))),  # kept
    ]
    idx = str(tmp_path / "index")
    cfg = DedupConfig()
    build_index(pages(corpus), cfg, idx)
    assert os.path.exists(os.path.join(idx, "bloom.bin"))

    def run():
        r = incremental_dedup(pages(batch), idx, cfg)
        kept = sorted(collect_table(r.kept).column("url").to_pylist())
        rep = r.report.sort_by("url").to_pydict()
        return kept, rep

    with_bloom = run()
    os.rename(os.path.join(idx, "bloom.bin"), os.path.join(idx, "bloom.off"))
    without = run()
    assert with_bloom == without
    assert with_bloom[0] == ["b://new"]


# ------------------------------------------------------------- sharded
def test_sharded_no_false_negatives_and_fpp():
    from dedup.bloom import ShardedBloom

    added = _keys(10, 40_000)
    other = _keys(11, 20_000)
    other = other[~np.isin(other, added)]
    sb = ShardedBloom.for_capacity(len(added), fpp=0.01, n_shards=8)
    sb.add_many(added)
    assert sb.contains_many(added).all()  # per-shard Bloom guarantee
    assert sb.contains_many(other).mean() < 0.03


def test_sharded_distributed_build_matches_local():
    """bloom_build_sharded (groupby-shard, distributed) is word-identical
    per shard to a local ShardedBloom build over the same keys."""
    from dedup.bloom import ShardedBloom, bloom_build_sharded

    keys = _keys(12, 30_000)
    ds = rd.from_arrow(pa.table({"doc_hash": pa.array(keys, pa.int64())}))
    built = bloom_build_sharded(ds, "doc_hash", n_expected=len(keys), n_shards=4)
    local = ShardedBloom.for_capacity(len(keys), fpp=0.01, n_shards=4)
    local.add_many(keys)
    assert built.n_shards == 4
    for bs, ls in zip(built.shards, local.shards):
        assert np.array_equal(bs.words, ls.words)


def test_sharded_split_matches_single_filter_contract():
    from dedup.bloom import bloom_build_sharded

    corpus = _keys(13, 10_000)
    fresh = _keys(14, 2_000)
    fresh = fresh[~np.isin(fresh, corpus)]
    batch_keys = np.concatenate([corpus[:300], fresh])
    sb = bloom_build_sharded(
        rd.from_arrow(pa.table({"doc_hash": pa.array(corpus, pa.int64())})),
        "doc_hash", n_expected=len(corpus), n_shards=4,
    )
    tagged = bloom_split(
        rd.from_arrow(pa.table({"doc_hash": pa.array(batch_keys, pa.int64())})),
        "doc_hash", sb,
    )
    t = pa.concat_tables(
        list(tagged.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    )
    maybe = t.column("__maybe").to_numpy(zero_copy_only=False)
    h = t.column("doc_hash").to_numpy(zero_copy_only=False)
    true_dup = np.isin(h, corpus)
    assert maybe[true_dup].all()
    assert maybe[~true_dup].mean() < 0.05


def test_sharded_sidecar_roundtrip_and_update(tmp_path):
    """Sharded sidecar (bloom.d/) roundtrips, and incremental_dedup +
    update_index work against it — output identical with/without."""
    import os

    from dedup.bloom import ShardedBloom, has_bloom_sidecar
    from dedup.config import DedupConfig
    from dedup.exchange import collect_table
    from dedup.incremental import build_index, incremental_dedup, update_index
    from dedup.synth import _doc, _vocab

    rng = np.random.default_rng(21)
    vocab = _vocab(rng)

    def pages(rows):
        urls, texts = zip(*rows)
        return rd.from_arrow(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * len(urls), pa.string()),
                }
            )
        )

    t0 = " ".join(_doc(rng, vocab, 250))
    corpus = [("c://a", t0), ("c://b", " ".join(_doc(rng, vocab, 280)))]
    batch = [("b://dup", t0), ("b://new", " ".join(_doc(rng, vocab, 260)))]
    idx = str(tmp_path / "index")
    cfg = DedupConfig()
    build_index(pages(corpus), cfg, idx)
    # re-write the sidecar SHARDED and run against it
    from dedup.bloom import read_bloom_sidecar, write_bloom_sidecar

    write_bloom_sidecar(idx, n_shards=4)
    assert os.path.exists(os.path.join(idx, "bloom.d", "meta.json"))
    assert not os.path.exists(os.path.join(idx, "bloom.bin"))
    assert isinstance(read_bloom_sidecar(idx), ShardedBloom)

    r = incremental_dedup(pages(batch), idx, cfg)
    kept = sorted(collect_table(r.kept).column("url").to_pylist())
    assert kept == ["b://new"]
    # update appends into the SHARDED sidecar in place
    update_index(idx, r.kept_sigs, cfg)
    bf = read_bloom_sidecar(idx)
    assert isinstance(bf, ShardedBloom)
    new_hash = collect_table(r.kept_sigs).column("doc_hash").to_numpy(
        zero_copy_only=False
    )
    assert bf.contains_many(new_hash).all()
    assert has_bloom_sidecar(idx)
