"""The candidate engine (dedup/candidates.py) must produce the per-band
emission's pair set — exactly unique, canonical — on corpora without
fragment/jumbo corner cases, and identical results across its memory,
driver-components and label-propagation tiers."""

from dataclasses import replace

import numpy as np
import pyarrow as pa
import ray.data as rd

from dedup.candidates import component_verified_edges, memory_verified_edges
from dedup.config import DedupConfig
from dedup.exchange import collect_table
from dedup.ingest import ingest
from dedup.lsh import band_rows, candidate_pairs, segment_pairs
from dedup.minhash import sign
from dedup.pipeline import distinct_reps
from dedup.synth import make_pages
from dedup.verify import _canon_unique_np


def _sigs(cfg):
    table, _ = make_pages(n_exact_groups=4, n_near_groups=8, n_singletons=40,
                          n_negative_pairs=4)
    # an upper-cased copy: different bytes, identical shingle set, so
    # exact-set mode has an edge to keep
    i = table["url"].to_pylist().index("https://near0.example.com/v0")
    twin = table.slice(i, 1).to_pydict()
    twin["url"] = ["https://near0.example.com/upper"]
    twin["text"] = [twin["text"][0].upper()]
    table = pa.concat_tables([table, pa.table(twin, schema=table.schema)])
    pages = rd.from_arrow(table)
    ing = ingest(pages, cfg).materialize()
    reps = distinct_reps(ing).materialize()
    return sign(reps, cfg).materialize()


def _pair_set(t: pa.Table) -> set:
    return set(zip(t["a"].to_pylist(), t["b"].to_pylist()))


def _classic_pairs(sigs, cfg) -> set:
    """Per-band candidate pairs, canonicalized and exactly deduplicated."""
    pairs_c, chain = candidate_pairs(band_rows(sigs, cfg), cfg)
    t = collect_table(pairs_c.union(rd.from_arrow(chain)))
    a, b = _canon_unique_np(t["a"].to_numpy(zero_copy_only=False),
                            t["b"].to_numpy(zero_copy_only=False))
    return set(zip(a.tolist(), b.tolist()))


def test_component_pairs_equal_classic():
    # threshold 0 keeps every candidate pair, so the edges ARE the pairs
    cfg = DedupConfig(min_size=1, verify_threshold=0.0)
    sigs = _sigs(cfg)
    classic = _classic_pairs(sigs, cfg)
    comp_t = collect_table(component_verified_edges(sigs, cfg))
    comp = _pair_set(comp_t)
    assert comp and comp == classic
    # exactly unique — no cross-band or cross-block repeats survive
    assert len(comp_t) == len(comp)


def test_component_tiers_identical(monkeypatch):
    import dedup.exchange as ex
    from dedup.candidates import _tagged_sig_rows, minhash_kernel

    cfg = DedupConfig(min_size=1, verify_threshold=0.0)
    sigs = _sigs(cfg)
    lazy = sigs.map_batches(lambda t: t, batch_format="pyarrow")
    t1 = memory_verified_edges(sigs, cfg)
    t2 = collect_table(component_verified_edges(lazy, cfg))
    # no star-edge set fits broadcast_max_rows=0: label propagation
    t3 = collect_table(component_verified_edges(
        lazy, DedupConfig(min_size=1, verify_threshold=0.0, broadcast_max_rows=0)
    ))
    # the star edges fit the guard but their nodes do not: the driver
    # components attach through small_join's join tier
    _, n_stars = _tagged_sig_rows(lazy, cfg, minhash_kernel(cfg))
    joins = []
    join = ex.bucketed_join
    monkeypatch.setattr(
        ex, "bucketed_join", lambda *a, **k: joins.append(a[2]) or join(*a, **k)
    )
    t4 = collect_table(component_verified_edges(
        lazy, replace(cfg, broadcast_max_rows=n_stars)
    ))
    assert joins == ["doc_hash"]
    assert _pair_set(t1) == _pair_set(t2) == _pair_set(t3) == _pair_set(t4) and len(t1)


def test_segment_pairs_allpairs_and_star():
    # two buckets: size 3 (<= cap → all pairs), size 4 with cap 3 (→ star)
    bk = np.array([1, 1, 1, 2, 2, 2, 2], np.int64)
    dh = np.array([30, 10, 20, 8, 5, 7, 6], np.int64)
    a, b = segment_pairs(bk, dh, cap=3)
    got = set(zip(a.tolist(), b.tolist()))
    assert got == {(10, 20), (10, 30), (20, 30), (5, 8), (5, 7), (5, 6)}
    # cross-band duplicates of a pair collapse
    bk2 = np.concatenate([bk, bk + 100])
    dh2 = np.concatenate([dh, dh])
    a2, b2 = segment_pairs(bk2, dh2, cap=3)
    assert set(zip(a2.tolist(), b2.tolist())) == got
    # empty input
    e1, e2 = segment_pairs(np.empty(0, np.int64), np.empty(0, np.int64), 3)
    assert len(e1) == 0 and len(e2) == 0


def _edges_by_tier(sigs, cfg) -> dict:
    """Verified edges from each tier of ``component_verified_edges``:
    the memory tier (pinned signatures, one group), the exchange tier
    with driver components (a lazy input skips the memory tier) and the
    label-propagation tier (no star-edge set fits
    ``broadcast_max_rows=0``)."""
    mem = memory_verified_edges(sigs, cfg)
    assert mem is not None
    assert mem.equals(collect_table(component_verified_edges(sigs, cfg)))
    lazy = sigs.map_batches(lambda t: t, batch_format="pyarrow")
    assert memory_verified_edges(lazy, cfg) is None
    return {
        "memory": mem,
        "driver-components": collect_table(component_verified_edges(lazy, cfg)),
        "label-propagation": collect_table(
            component_verified_edges(lazy, replace(cfg, broadcast_max_rows=0))
        ),
    }


def test_component_verified_edges_match_classic_verify():
    """In-group verification must produce the edge set of driver
    verification over per-band candidate pairs (``verify_pairs``) WITH
    bit-identical sims, on every tier, in both threshold and exact-set
    modes (the reference applies the set-hash equality here)."""
    from dedup.verify import verify_pairs

    for kw in ({}, {"exact_set_verify": True, "verify_threshold": 1.0}):
        cfg = DedupConfig(min_size=1, **kw)
        sigs = _sigs(cfg)
        pairs_c, chain = candidate_pairs(band_rows(sigs, cfg), cfg)
        if len(chain):
            pairs_c = pairs_c.union(rd.from_arrow(chain))
        classic = verify_pairs(pairs_c, sigs, cfg)
        if cfg.exact_set_verify:
            st = collect_table(sigs.select_columns(["doc_hash", "set_hash"]))
            set_hash = dict(zip(st["doc_hash"].to_pylist(), st["set_hash"].to_pylist()))
            classic = classic.filter(pa.array([
                set_hash[a] == set_hash[b]
                for a, b in zip(classic["a"].to_pylist(), classic["b"].to_pylist())
            ]))
        want = {
            (a, b): s
            for a, b, s in zip(classic["a"].to_pylist(), classic["b"].to_pylist(),
                               classic["sim"].to_pylist())
        }
        assert want
        for tier, got_t in _edges_by_tier(sigs, cfg).items():
            got = {
                (a, b): s
                for a, b, s in zip(got_t["a"].to_pylist(), got_t["b"].to_pylist(),
                                   got_t["sim"].to_pylist())
            }
            assert got == want, (kw, tier)
            assert len(got_t) == len(got), (kw, tier)  # no repeated edge


def test_component_verified_edges_threshold_zero_keeps_all():
    cfg = DedupConfig(min_size=1, verify_threshold=0.0)
    sigs = _sigs(cfg)
    want = _classic_pairs(sigs, cfg)
    assert want
    for tier, edges in _edges_by_tier(sigs, cfg).items():
        assert _pair_set(edges) == want, tier
        assert set(edges["sim"].to_pylist()) == {1.0}, tier


def test_component_pairs_empty_corpus():
    cfg = DedupConfig(min_size=1)
    t = pa.table(
        {
            "url": pa.array(["u1", "u2"]),
            "warc_ts": pa.array([0, 1], pa.timestamp("us")),
            "html": pa.array([b"", b""], pa.binary()),
            "text": pa.array(["completely unique first text here",
                              "another entirely different document body"]),
            "lang": pa.array(["en", "en"]),
        }
    )
    ing = ingest(rd.from_arrow(t), cfg).materialize()
    sigs = sign(distinct_reps(ing).materialize(), cfg).materialize()
    for tier, edges in _edges_by_tier(sigs, cfg).items():
        assert edges.num_rows == 0, tier
        assert edges.schema.names == ["a", "b", "sim"], tier
