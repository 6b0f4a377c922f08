"""Size-guarded broadcast fallback: ``small_join`` / ``semi_filter``
must produce identical output whether the small side is broadcast
(``ray.put`` + ``member_probe`` lookup) or joined (bucketed hash join) —
the guard only changes the execution plan, never the rows."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from dedup.exchange import semi_filter, small_join


def _mk():
    rng = np.random.default_rng(7)
    keys = rng.integers(-(2**62), 2**62, size=500)
    ds = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(np.concatenate([keys, keys[:100]]), pa.int64()),
                "payload": pa.array(range(600), pa.int64()),
            }
        )
    )
    sub = np.sort(keys[::3])
    right = pa.table(
        {
            "rk": pa.array(sub, pa.int64()),
            "name": pa.array([f"n{i}" for i in range(len(sub))], pa.string()),
            "val": pa.array(np.arange(len(sub)), pa.int64()),
        }
    )
    return ds, right, sub


def _norm(ds):
    df = ds.to_pandas()
    if df.empty:  # an empty result converts without its columns
        return pd.DataFrame()
    df = df.sort_values(["k", "payload"]).reset_index(drop=True)
    return df[sorted(df.columns)]


def test_small_join_branches_identical_inner_and_left():
    ds, right, _ = _mk()
    assert (right["rk"].to_numpy() < 0).any()  # negative keys hit too
    # a left side none of whose keys is in ``right``, alone and appended
    miss = rd.from_arrow(
        pa.table({"k": pa.array([-3, 5, -(2**63)], pa.int64()),
                  "payload": pa.array([600, 601, 602], pa.int64())})
    )
    for left, n in ((ds, 600), (ds.union(miss), 603), (miss, 3)):
        for r in (right, right.slice(0, 0)):  # and an empty right side
            for how in ("inner", "left"):
                a = _norm(small_join(left, "k", r, "rk", how=how, max_broadcast_rows=10**9))
                b = _norm(small_join(left, "k", r, "rk", how=how, max_broadcast_rows=0))
                pd.testing.assert_frame_equal(a, b)
                if how == "left":
                    assert len(a) == n
                else:
                    assert (len(a) > 0) == (n > 3 and len(r) > 0)
    # left keeps every input row; inner only the matched ones
    n_left = len(_norm(small_join(ds, "k", right, "rk", how="left", max_broadcast_rows=1)))
    n_inner = len(_norm(small_join(ds, "k", right, "rk", how="inner", max_broadcast_rows=1)))
    assert n_left == 600 and 0 < n_inner < n_left


def test_small_join_same_key_name():
    ds, right, _ = _mk()
    right = right.rename_columns(["k", "name", "val"])
    a = _norm(small_join(ds, "k", right, "k", max_broadcast_rows=10**9))
    b = _norm(small_join(ds, "k", right, "k", max_broadcast_rows=1))
    pd.testing.assert_frame_equal(a, b)


def test_semi_filter_branches_identical():
    ds, _, sub = _mk()
    for keep in (True, False):
        a = _norm(semi_filter(ds, "k", sub, keep=keep, max_broadcast_rows=10**9))
        b = _norm(semi_filter(ds, "k", sub, keep=keep, max_broadcast_rows=0))
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0


def test_merged_threshold_keys_branches_identical(monkeypatch):
    """The driver-argsort merge and the groupby fallback of
    ``merged_threshold_keys`` must return identical keys/counts — the
    ``_DRIVER_AGG_MAX`` bound only changes the execution plan. The
    fallback consumes the partials Dataset twice (probe + groupby), so
    a plain in-memory Dataset is a valid input per the docstring."""
    import dedup.exchange as ex

    rng = np.random.default_rng(11)
    # keys with repeats spread across several combiner rows; counts 1..5
    keys = rng.integers(-(2**62), 2**62, size=200).repeat(rng.integers(1, 4, 200))
    rng.shuffle(keys)
    cnts = rng.integers(1, 6, size=len(keys))
    partials = rd.from_arrow(
        pa.table({"wh": pa.array(keys, pa.int64()), "pd": pa.array(cnts, pa.int64())})
    )
    for min_count in (2, 5, 10**9):
        k_drv, c_drv = ex.merged_threshold_keys(
            partials, "wh", "pd", min_count, return_counts=True
        )
        monkeypatch.setattr(ex, "_DRIVER_AGG_MAX", 10)  # force groupby path
        k_gb, c_gb = ex.merged_threshold_keys(
            partials, "wh", "pd", min_count, return_counts=True
        )
        monkeypatch.undo()
        assert np.array_equal(k_drv, k_gb)
        assert np.array_equal(c_drv, c_gb)
        # keys-only form agrees with the counted form
        assert np.array_equal(
            ex.merged_threshold_keys(partials, "wh", "pd", min_count), k_drv
        )
        # contract: sorted, all counts >= min_count
        assert np.all(np.diff(k_drv) > 0)
        assert np.all(c_drv >= min_count)


def test_dup_key_counts_both_branches(monkeypatch):
    """``dup_key_counts`` (>1 occurrences) via all three plans: the
    pinned read of a materialized Dataset, a lazy map merged on the
    driver, and the bucketed exchange merge."""
    import dedup.exchange as ex

    vals = np.array([5, 5, 5, -9, -9, 7, 0, 0], np.int64)
    ds = rd.from_arrow(pa.table({"k": pa.array(vals, pa.int64())}))
    assert ex.pinned_table(ds, ["k"]) is not None
    lazy = ds.map_batches(lambda t: t, batch_format="pyarrow")
    assert ex.pinned_table(lazy, ["k"]) is None
    got = [ex.dup_key_counts(ds, "k"), ex.dup_key_counts(lazy, "k")]
    monkeypatch.setattr(ex, "_DRIVER_AGG_MAX", 0)
    got.append(ex.dup_key_counts(lazy, "k"))
    exp = {-9: 2, 0: 2, 5: 3}
    for k, c in got:
        assert dict(zip(k.tolist(), c.tolist())) == exp
        assert np.array_equal(k, np.sort(k))
        assert k.dtype == np.int64 and c.dtype == np.int64


def test_pinned_table_guard_and_empty_blocks():
    """``pinned_table`` reads only materialized Datasets within its row
    guard, skips zero-row blocks, and types an all-empty pin from the
    Dataset's schema."""
    import dedup.exchange as ex

    t = pa.table({"k": pa.array([1, 2, 2], pa.int64()), "v": ["a", "b", "c"]})
    empty = t.slice(0, 0)
    ds = rd.from_arrow([empty, t, empty, t])
    got = ex.pinned_table(ds, ["k"])
    assert got.column_names == ["k"] and got["k"].to_pylist() == [1, 2, 2] * 2
    assert ex.pinned_table(ds, ["k"], max_rows=5) is None
    e = ex.pinned_table(rd.from_arrow(empty), ["v"])
    assert e.num_rows == 0 and e.schema.field("v").type == pa.string()


def test_small_join_rejects_duplicate_right_keys():
    """Duplicate right keys would make the broadcast branch (one match)
    and the bucketed branch (replicated rows) silently diverge as the
    right side grows past the cap — both must be rejected loudly."""
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    dup = pa.table({"k": pa.array([1, 1], pa.int64()),
                    "v": pa.array([10, 11], pa.int64())})
    with pytest.raises(ValueError, match="duplicate"):
        small_join(ds, "k", dup, "k")
    with pytest.raises(ValueError, match="duplicate"):
        small_join(ds, "k", dup, "k", max_broadcast_rows=1)


def test_bucketed_sum_by_key_matches_numpy_reference():
    """The bucketed-exchange merge (the over-driver-cap regime of every
    combiner merge, and n_distinct's engine) must reproduce a
    plain numpy groupby-sum exactly, with and without a threshold."""
    from dedup.exchange import bucketed_sum_by_key, n_distinct

    rng = np.random.default_rng(11)
    keys = rng.integers(-(2**62), 2**62, size=3000)
    keys[:900] = keys[900:1800]  # plant duplicates
    cnts = rng.integers(1, 5, size=3000)
    ds = rd.from_arrow(
        pa.table({"wh": pa.array(keys, pa.int64()),
                  "pd": pa.array(cnts, pa.int64())})
    )
    # numpy reference
    order = np.argsort(keys, kind="stable")
    k, c = keys[order], cnts[order]
    starts = np.concatenate([[0], np.flatnonzero(k[1:] != k[:-1]) + 1])
    uk, uc = k[starts], np.add.reduceat(c, starts)

    for min_count in (1, 3):
        got = (
            bucketed_sum_by_key(ds, "wh", "pd", min_count=min_count, n_buckets=7)
            .to_pandas()
            .sort_values("wh")
            .reset_index(drop=True)
        )
        m = uc >= min_count
        assert np.array_equal(got["wh"].to_numpy(), uk[m])
        assert np.array_equal(got["__n"].to_numpy(), uc[m])

    assert n_distinct(ds, "wh") == len(np.unique(keys))
