"""Operator-level branch equivalence for the size-guarded exchanges.

Each operator that attaches a dup-bounded set or map does so through
``exchange.small_join`` or ``semi_filter``, whose broadcast branch flips
to a bucketed join past the guard. The guard comes from
``DedupConfig.broadcast_max_rows`` where the operator takes a config and
from ``exchange.BROADCAST_MAX_ROWS`` otherwise. These tests force both
to 0, check with a ``bucketed_join`` spy that the join branch really
ran, and assert the operator output is identical to the broadcast
branch — pinning that no call site depends on broadcast-only behavior.
"""

import pandas as pd
import pyarrow as pa
import ray.data as rd

import dedup.exchange as ex
from dedup.cascade import exact_clusters
from dedup.config import DedupConfig
from dedup.jaccard import jaccard_pairs
from dedup.simhash import simhash_clusters
from dedup.synth import make_pages
from dedup.urls import latest_snapshot


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _pages():
    tbl, _ = make_pages(
        n_exact_groups=4, n_near_groups=3, n_singletons=20,
        n_negative_pairs=2, n_short_split_pairs=0,
    )
    return tbl


def _both_branches(run, monkeypatch):
    """``run(cfg)`` with the default guards, then with both guards at 0:
    the first run takes no join, the forced one at least one."""
    joins = []
    join = ex.bucketed_join

    def spy(*args, **kwargs):
        joins.append(args[2:4])
        return join(*args, **kwargs)

    monkeypatch.setattr(ex, "bucketed_join", spy)
    a = _norm(run(DedupConfig(min_size=1)))
    assert not joins, joins
    monkeypatch.setattr(ex, "BROADCAST_MAX_ROWS", 0)
    b = _norm(run(DedupConfig(min_size=1, broadcast_max_rows=0)))
    assert joins, "the forced run took no join tier"
    return a, b


def test_exact_clusters_branches_identical(monkeypatch):
    tbl = _pages()
    run = lambda cfg: exact_clusters(rd.from_arrow(tbl), cfg).to_pandas()
    a, b = _both_branches(run, monkeypatch)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_simhash_clusters_branches_identical(monkeypatch):
    tbl = _pages()
    run = lambda cfg: simhash_clusters(
        rd.from_arrow(tbl), cfg, hamming_max=3
    ).to_pandas()
    a, b = _both_branches(run, monkeypatch)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_latest_snapshot_branches_identical(monkeypatch):
    t = pa.table(
        {
            "url": pa.array(["u1", "u1", "u1", "u2", "u3", "u3"]),
            "ts_us": pa.array([100, 300, 200, 50, 10, 20], pa.int64()),
            "text": pa.array(["a", "c", "b", "only", "x", "y"]),
        }
    )
    run = lambda cfg: latest_snapshot(rd.from_arrow(t), "url", "ts_us").to_pandas()
    a, b = _both_branches(run, monkeypatch)
    assert a["n_snapshots"].tolist() == b["n_snapshots"].tolist()
    pd.testing.assert_frame_equal(a, b)
    assert sorted(a["url"]) == ["u1", "u2", "u3"]
    assert _norm(a[a["url"] == "u1"])["n_snapshots"].tolist() == [3]


def test_jaccard_pairs_branches_identical(monkeypatch):
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f g h",
                    "a b c d e f g x",
                    "q r s t u v w z",
                    "q r s t u v w y",
                    "m n o p q r s t u v",
                ]
            ),
        }
    )
    run = lambda cfg: jaccard_pairs(
        rd.from_arrow(t), k=5, threshold_num=1, threshold_den=2
    ).to_pandas()
    a, b = _both_branches(run, monkeypatch)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)
