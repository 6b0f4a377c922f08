"""Component-localized candidate generation (dedup/candidates.py) must
produce the classic path's pair set — exactly unique, canonical — on
corpora without fragment/jumbo corner cases, and identical results
across its driver-components and Dataset-labels tiers."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from dedup.candidates import component_candidate_pairs
from dedup.config import DedupConfig
from dedup.exchange import collect_table
from dedup.ingest import ingest
from dedup.lsh import band_rows, candidate_pairs, segment_pairs
from dedup.minhash import sign
from dedup.pipeline import cluster_partition, distinct_reps, near_dup_pipeline
from dedup.synth import make_pages
from dedup.verify import dedup_pairs


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


def test_component_pairs_equal_classic():
    cfg = DedupConfig(min_size=1)
    sigs = _sigs(cfg)
    pairs_c, chain = candidate_pairs(band_rows(sigs, cfg), cfg)
    if len(chain):
        pairs_c = pairs_c.union(rd.from_arrow(chain))
    classic = _pair_set(collect_table(dedup_pairs(pairs_c)))
    comp_ds, cand = component_candidate_pairs(sigs, cfg)
    comp_t = collect_table(comp_ds)
    comp = _pair_set(comp_t)
    assert comp == classic
    # exactly unique — no cross-band or cross-block repeats survive
    assert len(comp_t) == len(comp)
    # the candidate array is the sorted node set of the pair graph
    nodes = np.unique(
        np.concatenate([comp_t["a"].to_numpy(zero_copy_only=False),
                        comp_t["b"].to_numpy(zero_copy_only=False)])
    )
    assert cand is not None and np.array_equal(cand, nodes)


def test_component_tiers_identical():
    cfg = DedupConfig(min_size=1)
    sigs = _sigs(cfg)
    t1, cand = component_candidate_pairs(sigs, cfg)
    t2, cand2 = component_candidate_pairs(sigs, cfg, dataset_labels=True)
    assert cand2 is None
    assert _pair_set(collect_table(t1)) == _pair_set(collect_table(t2))
    # guard fallback (broadcast_max_rows=0 forces the Dataset tier)
    t3, cand3 = component_candidate_pairs(
        sigs, DedupConfig(min_size=1, broadcast_max_rows=0)
    )
    assert cand3 is None
    assert _pair_set(collect_table(t3)) == _pair_set(collect_table(t1))


def test_pipeline_classic_vs_components_identical():
    table, _ = make_pages(n_exact_groups=4, n_near_groups=6, n_singletons=25)
    ds = rd.from_arrow(table)
    r1 = near_dup_pipeline(ds, DedupConfig(min_size=1, candidate_path="classic"))
    r2 = near_dup_pipeline(ds, DedupConfig(min_size=1, candidate_path="components"))
    assert _pair_set(r1.edges) == _pair_set(r2.edges)
    assert cluster_partition(r1.clusters) == cluster_partition(r2.clusters)


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
    label-propagation tier (``dataset_labels``)."""
    from dedup.candidates import component_verified_edges, memory_verified_edges

    mem = memory_verified_edges(sigs, cfg)
    assert mem is not None
    assert mem.equals(collect_table(component_verified_edges(sigs, cfg)))
    lazy = sigs.map_batches(lambda t: t, batch_format="pyarrow")
    assert memory_verified_edges(lazy, cfg) is None
    return {
        "memory": mem,
        "driver-components": collect_table(component_verified_edges(lazy, cfg)),
        "label-propagation": collect_table(
            component_verified_edges(sigs, cfg, dataset_labels=True)
        ),
    }


def test_component_verified_edges_match_classic_verify():
    """In-group verification must produce the classic broadcast path's
    exact edge set WITH bit-identical sims, on every tier, in both
    threshold and exact-set modes."""
    from dedup.verify import verify_broadcast

    for kw in ({}, {"exact_set_verify": True, "verify_threshold": 1.0}):
        cfg = DedupConfig(min_size=1, **kw)
        sigs = _sigs(cfg)
        pairs_c, chain = candidate_pairs(band_rows(sigs, cfg), cfg)
        if len(chain):
            pairs_c = pairs_c.union(rd.from_arrow(chain))
        classic = verify_broadcast(dedup_pairs(pairs_c), sigs, cfg)
        if cfg.exact_set_verify:
            from dedup.pipeline import _filter_edges_by_set_hash

            classic = _filter_edges_by_set_hash(classic, sigs, cfg)
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
    from dedup.candidates import component_candidate_pairs

    cfg = DedupConfig(min_size=1, verify_threshold=0.0)
    sigs = _sigs(cfg)
    pairs, _ = component_candidate_pairs(sigs, cfg)
    want = _pair_set(collect_table(pairs))
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
    pairs, cand = component_candidate_pairs(sigs, cfg)
    assert collect_table(pairs).num_rows == 0
    assert cand is not None and len(cand) == 0
