"""Candidate completeness under per-pair verification (ADVICE round 2):
star edges alone are connectivity-equivalent only BEFORE the similarity
filter — two bucket members can pass the threshold while both their
edges to the bucket's min-hash rep fail, silently losing the pair.
Buckets ≤ allpairs_bucket_max therefore emit all member–member pairs;
jumbo buckets keep the linear star fallback (skew guard)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from dedup.config import DedupConfig
from dedup.exchange import collect_table
from dedup.lsh import candidate_pairs
from dedup.verify import _canon_unique_np


def _pairs(bands_tbl, cfg):
    ds = rd.from_arrow(bands_tbl)
    edges, chain = candidate_pairs(ds, cfg)
    pairs = edges
    if len(chain):
        pairs = pairs.union(rd.from_arrow(chain))
    t = collect_table(pairs)
    a, b = _canon_unique_np(t.column("a").to_numpy(zero_copy_only=False),
                            t.column("b").to_numpy(zero_copy_only=False))
    return set(zip(a.tolist(), b.tolist()))


def test_small_bucket_emits_all_member_pairs():
    t = pa.table(
        {
            "doc_hash": pa.array([10, 20, 30, 40, 50, 60], pa.int64()),
            "bkey": pa.array([7] * 4 + [9] * 2, pa.int64()),
        }
    )
    got = _pairs(t, DedupConfig())
    want = {(10, 20), (10, 30), (10, 40), (20, 30), (20, 40), (30, 40), (50, 60)}
    assert got == want


def test_jumbo_bucket_falls_back_to_linear_star():
    n = 200
    hashes = np.arange(1, n + 1, dtype=np.int64)
    t = pa.table(
        {"doc_hash": pa.array(hashes, pa.int64()),
         "bkey": pa.array(np.full(n, 3), pa.int64())}
    )
    got = _pairs(t, DedupConfig(allpairs_bucket_max=64))
    assert got == {(1, int(h)) for h in hashes[1:]}  # n-1 star edges, not n(n-1)/2


def test_ann_lsh_catches_member_member_pair_despite_dissimilar_rep():
    """The ADVICE scenario: x and y are near-dups of each other but both
    ~0.5 cosine to the bucket's min-id member r. Star-only candidates
    would drop both rep edges at threshold 0.9 and lose the x–y pair."""
    from dedup.embed import lsh_bucketed_pairs

    d = 16

    def rot(theta_deg, axis):
        v = np.zeros(d)
        v[0] = np.cos(np.deg2rad(theta_deg))
        v[axis] = np.sin(np.deg2rad(theta_deg))
        return v.tolist()

    tbl = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array([rot(0, 1), rot(60, 1), rot(63, 1)],
                                  pa.list_(pa.float64())),
        }
    )
    t = lsh_bucketed_pairs(
        rd.from_arrow(tbl), threshold=0.9, n_planes=2, n_tables=8
    )
    pairs = set(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))
    assert (1, 2) in pairs       # cos(60°,63°) ≈ 0.9986 — must survive
    assert (0, 1) not in pairs and (0, 2) not in pairs  # cos ≈ 0.5 — filtered
