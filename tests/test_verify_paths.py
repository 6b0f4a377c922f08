"""Every MinHash verifier — driver ``verify_pairs`` over per-band
candidate pairs and the memory and exchange tiers of the component
verifier — must produce identical verified edge sets."""

from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from dedup.config import DedupConfig
from dedup.ingest import ingest
from dedup.lsh import band_rows, candidate_pairs
from dedup.minhash import sign
from dedup.pipeline import distinct_reps
from dedup.synth import make_pages
from dedup.verify import _canon_unique_np, dedup_pairs_sorted, verify_pairs
from dedup.exchange import collect_table


def _setup():
    table, _ = make_pages(n_exact_groups=5, n_near_groups=10, n_singletons=50,
                          n_negative_pairs=5, n_short_split_pairs=2)
    cfg = DedupConfig(min_size=1)
    pages = rd.from_arrow(table)
    ing = ingest(pages, cfg).materialize()
    reps = distinct_reps(ing).materialize()
    sigs = sign(reps, cfg).materialize()
    bands = band_rows(sigs, cfg)
    pairs, chain = candidate_pairs(bands, cfg)
    if len(chain):
        pairs = pairs.union(rd.from_arrow(chain))
    return pairs.materialize(), sigs, cfg


def _norm(t: pa.Table) -> pd.DataFrame:
    return t.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)


def test_three_verify_paths_agree(monkeypatch):
    import dedup.exchange as ex
    from dedup.candidates import component_verified_edges, memory_verified_edges

    pairs, sigs, cfg = _setup()
    d_driver = _norm(verify_pairs(pairs, sigs, cfg))
    assert len(d_driver) > 0
    d_memory = _norm(memory_verified_edges(sigs, cfg))
    # a guard of -1 rows sends the pinned signatures to the exchange tier
    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    assert memory_verified_edges(sigs, cfg) is None
    d_exchange = _norm(collect_table(component_verified_edges(sigs, cfg)))
    # no star-edge set fits broadcast_max_rows=0: label propagation
    lazy = sigs.map_batches(lambda t: t, batch_format="pyarrow")
    d_lp = _norm(collect_table(
        component_verified_edges(lazy, replace(cfg, broadcast_max_rows=0))
    ))
    pd.testing.assert_frame_equal(d_driver, d_memory)
    pd.testing.assert_frame_equal(d_driver, d_exchange)
    pd.testing.assert_frame_equal(d_driver, d_lp)


def test_dedup_pairs_unique_and_canonical():
    t = pa.table(
        {
            "a": pa.array([5, 3, 5, -1, 7, 7], pa.int64()),
            "b": pa.array([3, 5, 5, 1, 9, 9], pa.int64()),
        }
    )
    # one block, so no block boundary can split a run: exactly unique
    out = collect_table(dedup_pairs_sorted(rd.from_arrow(t))).to_pandas()
    got = list(zip(out["a"], out["b"]))
    # (5,3)/(3,5)/(5,5 self) collapse to (3,5); -1 is uint64-max → (1,-1)
    assert len(got) == len(set(got))
    assert set(got) == {(3, 5), (1, -1), (7, 9)}


def test_dedup_pairs_sorted_equals_groupby_after_edge_dedup():
    """The sorted dedup path may keep one duplicate per block boundary;
    its pair SET must equal the exact in-memory canon, on a stream
    engineered so every pair repeats across many blocks."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 500, 20000, dtype=np.int64)
    b = rng.integers(0, 500, 20000, dtype=np.int64)
    raw = pa.table({"a": pa.array(a), "b": pa.array(b)})
    ds = rd.from_arrow(raw).repartition(16)

    ea, eb = _canon_unique_np(a, b)
    g = list(zip(ea.tolist(), eb.tolist()))
    t = collect_table(dedup_pairs_sorted(ds))
    s = list(zip(t["a"].to_pylist(), t["b"].to_pylist()))
    assert len(g) == len(set(g)) > 0  # the reference is exact
    assert set(g) == set(s)
