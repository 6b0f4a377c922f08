"""Shuffle-minimizing exchange primitives.

The reference prunes candidate groups between stages by dropping singleton
groups (process_matches.rs:51-61) — the whole cascade's performance model.
At Ray scale a naive ``groupby(key).map_groups(drop-singletons)`` shuffles
every row (text payloads included). These helpers keep the wide exchange on
**narrow columns only**:

- ``dup_keys``: per-batch partial counts (combiner) → tiny groupby over
  (key, partial_count) → keys whose global count > 1. Only 16-byte rows
  shuffle; the text never moves.
- ``semi_filter``: broadcast the (small) surviving key set once via
  ``ray.put`` and filter inside ``map_batches`` with a sorted-array
  ``searchsorted`` membership test. No join shuffle.
- ``bucketed_join``: explicit partitioned hash join (add ``bucket =
  mix(key) % B`` to both sides, union with a side tag, groupby bucket,
  pandas merge per bucket) for when both sides are large.

At 100 TB the broadcast set can exceed driver memory only when the number
of *duplicate-involved* keys itself is huge; ``semi_filter`` falls back to
``bucketed_join`` semantics in that regime (caller picks via
``len(keys)``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .hashing import fmix64


def _batch_key_counts(key_col: str):
    def fn(batch: pa.Table) -> pa.Table:
        keys, counts = np.unique(
            batch.column(key_col).to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table({key_col: keys, "partial_cnt": counts.astype(np.int64)})

    return fn


def key_counts(ds: Dataset, key_col: str, n_buckets: int = 64) -> Dataset:
    """Global count per key value with per-batch pre-aggregation.

    Shuffles only (key, partial_count) rows, merged with the bucketed
    exchange (``bucketed_sum_by_key`` — not ``groupby(key)``, whose
    full-width-key sort is ~16× slower on random int64 keys). Output
    columns: key_col, cnt.
    """
    partial = ds.map_batches(_batch_key_counts(key_col), batch_format="pyarrow")
    return bucketed_sum_by_key(
        partial, key_col, "partial_cnt", cnt_name="cnt", n_buckets=n_buckets
    )


def bucketed_sum_by_key(
    partials: Dataset,
    key_col: str,
    cnt_col: str,
    min_count: int = 1,
    n_buckets: int = 64,
    cnt_name: str = "__n",
) -> Dataset:
    """Distributed (key → Σcnt [≥ min_count]) merge as a bucketed exchange
    → Dataset with columns (key_col, cnt_name), one row per distinct key.

    Ray's ``groupby(key).aggregate(Sum)`` sort-shuffles every combiner
    row by its full-width key; on 12M random int64 keys that sort is
    ~16× slower than this shape (measured, same output). Here rows
    route by ``mix(key) % n_buckets`` — an int32 sort over n_buckets
    distinct values ≈ a partition pass — and each bucket merges its
    co-located keys with polars' multithreaded hash groupby (numpy
    argsort+reduceat fallback, identical output).

    One bucket's rows must fit a worker (≈ |partials| / n_buckets);
    callers in the 10^12-key regime size ``n_buckets`` accordingly —
    the same rule as ``bucketed_join``. Keys must be integers (the
    bucket hash views them as uint64).
    """

    def merge(g: pa.Table) -> pa.Table:
        # ONE sum-threshold kernel for the driver and distributed tiers
        # (driver_merge_threshold): the two copies this replaces had
        # already drifted cosmetically, and a semantic change applied to
        # one would silently leave the tiers disagreeing
        uk, uc = driver_merge_threshold(
            g.select([key_col, cnt_col]), key_col, cnt_col, min_count
        )
        return pa.table(
            {key_col: pa.array(uk, pa.int64()),
             cnt_name: pa.array(uc, pa.int64())}
        )

    return (
        _add_bucket(partials, key_col, n_buckets)
        .groupby("__bucket")
        .map_groups(merge, batch_format="pyarrow")
    )


# partial-count rows above which the merge leaves the driver for the
# bucketed exchange. Measured crossover (32 cpus, 16 B rows): driver
# argsort 0.02 s at 23k rows vs exchange's ~0.3 s fixed latency; equal
# ~0.6 s at 2.5M; exchange 2× ahead at 13M (1.6 s vs 3.2 s) — and the
# driver path's argsort is SERIAL driver work, the anti-scaling term,
# so past the crossover the exchange also buys scaling efficiency.
_DRIVER_AGG_MAX = 5_000_000  # 16 B each → ≤ ~80 MB on the driver

# rows of a MATERIALIZED Dataset up to which a narrow pass reads the
# pinned blocks onto the driver (``pinned_table``) instead of paying a
# Ray Data execution (~27 ms + ~7 ms per task before any work). Sized by
# the heaviest memory-tier caller, verification over every signature
# (candidates.component_verified_edges). Measured on 4 cores (Ray 4
# CPUs, half-duplicated corpus) the memory tier led at every size tried:
# 0.02 vs 0.39 s at 1.2k signatures, 3.4 vs 5.7 s at 120k, 9.2 vs 13.0 s
# at 240k. No crossover showed, but the memory tier is serial driver
# work that more CPUs do not shorten, so the cap is one exchange group
# (candidates._GROUP_DOCS_TARGET): the driver never holds more than one
# exchange worker would (~128 MB of signatures + ~128 MB of band keys).
_DRIVER_READ_MAX = 250_000


def merged_threshold_keys(
    partials: Dataset,
    key_col: str,
    cnt_col: str,
    min_count: int,
    return_counts: bool = False,
) -> "np.ndarray | tuple[np.ndarray, np.ndarray]":
    """Merge (key, partial-count) combiner rows and return the SORTED
    keys whose summed count ≥ ``min_count`` (with the counts when
    ``return_counts``). The shared driver/groupby split policy: partial
    rows are merged on the driver with one argsort+reduceat while they
    fit ``_DRIVER_AGG_MAX`` (a Ray groupby shuffle costs seconds of
    fixed latency that dominates at ≤10^7 distinct keys); past the
    bound a narrow groupby takes over (the 10^12-doc regime).

    NOTE: the over-bound dispatch consumes ``partials`` twice (the probe
    loop, then the groupby). Callers whose partial map stage is the
    expensive part (e.g. substr window hashing) must pass a MATERIALIZED
    Dataset; for cheap column-scan combiners re-execution is fine.
    """
    empty = np.empty(0, np.int64)
    batches, n = [], 0
    for b in partials.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        batches.append(b)
        n += len(b)
        if n > _DRIVER_AGG_MAX:
            break
    if n <= _DRIVER_AGG_MAX:
        if not batches:
            return (empty, empty.copy()) if return_counts else empty
        uk, uc = driver_merge_threshold(
            pa.concat_tables(batches), key_col, cnt_col, min_count
        )
        return (uk, uc) if return_counts else uk

    # distinct-key cardinality too large for the driver → bucketed
    # exchange merge (thresholded BEFORE anything returns to the driver,
    # so only the dup-bounded survivors collect)
    agg = bucketed_sum_by_key(partials, key_col, cnt_col, min_count=min_count)
    ks, cs = [], []
    for b in agg.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        nn = b.column("__n").to_numpy(zero_copy_only=False)
        ks.append(b.column(key_col).to_numpy(zero_copy_only=False))
        cs.append(nn)
    keys = np.concatenate(ks) if ks else empty
    cnts = np.concatenate(cs) if cs else empty
    order = np.argsort(keys)
    return (keys[order], cnts[order]) if return_counts else keys[order]


def driver_merge_threshold(
    tbl: pa.Table, key_col: str, cnt_col: str, min_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side (key, partial-count) merge → (sorted keys with summed
    count ≥ min_count, their counts). polars' multithreaded hash groupby
    merges 10^7 combiner rows ~4× faster than a single-thread numpy
    argsort+reduceat on this class of host (int64 sums — exact, no
    hashing-version concern); the numpy path is the dependency-free
    fallback with identical output."""
    try:
        import polars as pl

        agg = (
            pl.from_arrow(tbl)
            .group_by(key_col)
            .agg(pl.col(cnt_col).sum().alias("__n"))
            .filter(pl.col("__n") >= min_count)
            .sort(key_col)
        )
        return (
            agg.get_column(key_col).to_numpy(),
            agg.get_column("__n").to_numpy().astype(np.int64),
        )
    except ImportError:
        pass
    keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
    cnts = tbl.column(cnt_col).to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    k, c = keys[order], cnts[order]
    starts = np.concatenate([[0], np.flatnonzero(k[1:] != k[:-1]) + 1])
    uk = k[starts]
    uc = np.add.reduceat(c, starts)
    m = uc >= min_count
    return uk[m], uc[m]


def pinned_table(
    ds: Dataset, cols: list[str], max_rows: int | None = None
) -> "pa.Table | None":
    """The memory tier of a narrow pass: ``cols`` of a MATERIALIZED
    Dataset as one Arrow table, read from its pinned blocks — no
    execution. ``None`` when ``ds`` is lazy or holds more than
    ``max_rows`` rows (default ``_DRIVER_READ_MAX``; the count comes from
    block metadata); the caller then takes its exchange tier. A pin with
    no blocks at all yields null-typed empty columns."""
    from ray.data.block import BlockAccessor
    from ray.data.dataset import MaterializedDataset

    cap = _DRIVER_READ_MAX if max_rows is None else max_rows
    if not isinstance(ds, MaterializedDataset) or ds.count() > cap:
        return None
    # a materialized plan returns its snapshot: no executor starts
    bundle = ds._plan.execute()
    blocks = map(BlockAccessor.for_block, ray.get(list(bundle.block_refs)))
    tables = [b.to_arrow().select(cols) for b in blocks if b.num_rows()]
    if tables:
        return pa.concat_tables(tables, promote_options="default")
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:  # no blocks at all: nothing to type the columns by
        return pa.table({c: pa.nulls(0) for c in cols})
    return pa.schema(schema.base_schema).empty_table().select(cols)


def _dups_np(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values occurring >1, their counts) of one in-memory column."""
    if not len(col):  # an untyped empty pin counts like the exchange's
        col = np.empty(0, np.int64)
    k, c = np.unique(col, return_counts=True)
    m = c > 1
    return k[m], c[m].astype(np.int64)


def dup_key_counts(ds: Dataset, key_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(sorted keys occurring >1, their counts) — no execution over a
    small pinned Dataset (``pinned_table``), one otherwise.

    ≅ singleton-group pruning (process_matches.rs:51-61) expressed as a
    narrow aggregate; the merge policy lives in ``merged_threshold_keys``
    (the combiner here is a cheap column scan, so over-bound
    re-execution is acceptable).
    """
    t = pinned_table(ds, [key_col])
    if t is not None:
        return _dups_np(t.column(key_col).to_numpy(zero_copy_only=False))
    partial = ds.map_batches(_batch_key_counts(key_col), batch_format="pyarrow")
    return merged_threshold_keys(
        partial, key_col, "partial_cnt", 2, return_counts=True
    )


def n_distinct(ds: Dataset, key_col: str) -> int:
    """Exact distinct-key count, streaming: per-batch unique (combiner) →
    narrow groupby on the key → count of groups. Nothing but (key) rows
    shuffles; the driver sees one scalar."""
    per = ds.select_columns([key_col]).map_batches(
        _batch_key_counts(key_col), batch_format="pyarrow"
    )
    return bucketed_sum_by_key(per, key_col, "partial_cnt").count()


def dup_keys(ds: Dataset, key_col: str) -> np.ndarray:
    """Sorted array of key values occurring more than once (global)."""
    return dup_key_counts(ds, key_col)[0]


def semi_filter(
    ds: Dataset,
    key_col: str,
    keys_sorted: np.ndarray,
    keep: bool = True,
    max_broadcast_rows: int | None = None,
    n_buckets: int = 32,
) -> Dataset:
    """Keep (or drop) rows whose key is in the sorted key set.

    Guarded by default: the key set broadcasts (``ray.put`` once,
    searchsorted per batch) only while it fits ``max_broadcast_rows``
    (default ``BROADCAST_MAX_ROWS``); past the bound the membership test
    becomes a bucketed semi/anti join — identical row set. Every call
    site in the repo therefore degrades gracefully when a "dup-bounded"
    set turns out corpus-sized."""
    return semi_filter_auto(
        ds, key_col, keys_sorted, keep=keep,
        max_broadcast_rows=max_broadcast_rows, n_buckets=n_buckets,
    )


def member_table(d: np.ndarray) -> "np.ndarray | None":
    """Occupancy prefilter for membership tests against sorted int64
    ``d``: a boolean table over ``fmix64(x) & (M-1)`` with load factor
    <= 1/8 (None only for an empty set). Built ONCE (driver side,
    shipped alongside the set) so per-batch lookups pay one branchless
    gather instead of a binary search per probe — the search then runs
    only on the ~load-factor fraction that hits the table. Measured on
    2M random probes: 2.5× at 256 keys, 3.8× at 65k, 3.2× at 500k —
    the table wins at every size, so there is no small-set fallback."""
    from .hashing import U64, fmix64

    if len(d) == 0:
        return None
    m = 1 << max(13, int(len(d) * 8 - 1).bit_length())
    m = min(m, 1 << 27)  # cap the per-worker table at 128 MB
    tbl = np.zeros(m, dtype=bool)
    tbl[(fmix64(d.view(U64)) & np.uint64(m - 1)).astype(np.int64)] = True
    return tbl


def member_probe(
    d: np.ndarray, tbl: "np.ndarray | None", h: np.ndarray
) -> np.ndarray:
    """``h in d`` elementwise (both int64), via the prefilter table when
    one exists, plain searchsorted otherwise."""
    from .hashing import U64, fmix64

    if not len(d) or not len(h):
        return np.zeros(len(h), dtype=bool)
    if tbl is None:
        idx = np.minimum(np.searchsorted(d, h), len(d) - 1)
        return d[idx] == h
    m = np.uint64(len(tbl) - 1)
    cand = tbl[(fmix64(h.view(U64)) & m).astype(np.int64)]
    ci = np.flatnonzero(cand)
    out = np.zeros(len(h), dtype=bool)
    if len(ci):
        hc = h[ci]
        idx = np.minimum(np.searchsorted(d, hc), len(d) - 1)
        out[ci] = d[idx] == hc
    return out


def _semi_filter_broadcast(
    ds: Dataset, key_col: str, keys_sorted: np.ndarray, keep: bool = True
) -> Dataset:
    """Broadcast branch: the key set (and its prefilter, when large
    enough to warrant one) ships once via ray.put."""
    ref = ray.put((keys_sorted, member_table(keys_sorted)))

    def fn(batch: pa.Table) -> pa.Table:
        ks, tbl = ray.get(ref)
        col = batch.column(key_col).to_numpy(zero_copy_only=False)
        member = member_probe(ks, tbl, col)
        mask = member if keep else ~member
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def broadcast_map_i64(ds: Dataset, key_col: str, mapping_keys: np.ndarray,
                      mapping_vals: np.ndarray, out_col: str,
                      default_identity: bool = True,
                      max_broadcast_rows: int | None = None,
                      n_buckets: int = 32) -> Dataset:
    """Add ``out_col`` = mapping[key] via a size-guarded lookup.

    Keys absent from the mapping get their own key value (identity) when
    ``default_identity`` — e.g. a doc outside any duplicate component is its
    own cluster. While the mapping fits ``max_broadcast_rows`` (default
    ``BROADCAST_MAX_ROWS``) it ships once via ``ray.put``; past the bound
    the lookup becomes a bucketed LEFT hash join + coalesce — identical
    output.

    Precondition: ``mapping_keys`` must be UNIQUE (the broadcast branch
    resolves one value per key, the join branch would replicate rows
    per duplicate) — rejected loudly so the branches cannot silently
    diverge as the mapping grows past the cap.
    """
    order = np.argsort(mapping_keys)  # one sort serves the duplicate
    # check AND the broadcast branch's sorted lookup arrays
    mk_sorted = mapping_keys[order]
    if len(mk_sorted) > 1 and np.any(mk_sorted[1:] == mk_sorted[:-1]):
        raise ValueError(
            "broadcast_map_i64: mapping_keys has duplicates — the broadcast "
            "and join branches would diverge; collapse the mapping first"
        )
    cap = BROADCAST_MAX_ROWS if max_broadcast_rows is None else max_broadcast_rows
    if len(mapping_keys) > cap:
        import ray.data as rd

        mt = rd.from_arrow(
            pa.table(
                {
                    "__mk": pa.array(mapping_keys, pa.int64()),
                    "__mv": pa.array(mapping_vals, pa.int64()),
                }
            )
        )
        j = bucketed_join(ds, mt, key_col, "__mk", n_buckets=n_buckets, how="left")

        def fin(batch: pa.Table) -> pa.Table:
            mv = batch.column("__mv")
            if default_identity:
                out = pc.coalesce(mv, batch.column(key_col))
            else:
                out = pc.coalesce(mv, pa.scalar(0, pa.int64()))
            out = out.cast(pa.int64()) if out.type != pa.int64() else out
            return batch.drop_columns(["__mk", "__mv"]).append_column(out_col, out)

        return j.map_batches(fin, batch_format="pyarrow")

    ref = ray.put((mk_sorted, mapping_vals[order]))

    def fn(batch: pa.Table) -> pa.Table:
        mk, mv = ray.get(ref)
        col = batch.column(key_col).to_numpy(zero_copy_only=False)
        out = col.copy() if default_identity else np.zeros_like(col)
        if len(mk):
            idx = np.searchsorted(mk, col)
            idx_c = np.minimum(idx, len(mk) - 1)
            hit = mk[idx_c] == col
            out[hit] = mv[idx_c[hit]]
        return batch.append_column(out_col, pa.array(out, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def _add_bucket(ds: Dataset, key_col: str, n_buckets: int) -> Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col).to_numpy(zero_copy_only=False)
        col = col.view(np.uint64) if col.dtype == np.int64 else col.astype(np.uint64)
        b = (fmix64(col) % np.uint64(n_buckets)).astype(np.int32)
        return batch.append_column("__bucket", pa.array(b, pa.int32()))

    return ds.map_batches(fn, batch_format="pyarrow")


def bucketed_join(
    left: Dataset,
    right: Dataset,
    left_on: str,
    right_on: str,
    n_buckets: int = 32,
    how: str = "inner",
) -> Dataset:
    """Partitioned hash join (``how``: "inner" or "left"): both sides
    hash-bucketed on the key, unioned with a side tag, grouped by
    bucket, merged per bucket on (key, row-index) with payloads
    re-attached via Arrow take.

    Both sides shuffle once on narrow bucketed blocks; no broadcast. Skewed
    keys: the bucket count spreads distinct keys; a single pathological key
    still lands in one bucket (callers pre-aggregate such keys — see
    lsh.candidate_pairs salting).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"bucketed_join supports inner/left, got {how!r}")
    lb = _add_bucket(left, left_on, n_buckets)
    rb = _add_bucket(right, right_on, n_buckets)

    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    overlap = (set(lcols) & set(rcols)) - ({left_on} if left_on == right_on else set())
    if overlap:
        raise ValueError(f"column collision in join: {overlap}")

    # union needs one schema: every block carries all columns (nulls for the
    # other side's), plus __bucket and a side tag.
    fields = list(lschema) + [f for f in rschema if f.name not in lcols]

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols = {}
            for f in fields:
                if f.name in batch.column_names:
                    cols[f.name] = batch.column(f.name)
                else:
                    cols[f.name] = pa.nulls(n, f.type)
            cols["__bucket"] = batch.column("__bucket")
            # int8 flag, not a per-row Python string: this column rides
            # the repo's widest shuffle
            cols["__side"] = pa.array(np.full(n, side, np.int8), pa.int8())
            return pa.table(cols)

        return fn

    both = lb.map_batches(tag(1), batch_format="pyarrow").union(
        rb.map_batches(tag(0), batch_format="pyarrow")
    )

    # group arrives as Arrow; each side's own columns are null-free, so the
    # per-side pandas conversion keeps int64 exact (a whole-group pandas
    # conversion would turn the union's null padding into float64 and
    # corrupt 64-bit keys)
    def merge(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        lmask = pa.array(side == 1)
        ltab = group.filter(lmask).select(lcols)
        rtab = group.filter(pc.invert(lmask)).select(rcols)
        # join on (key, row-index) only; payloads re-attached with
        # Arrow take. Row order/multiplicity are exactly what a full
        # pandas merge would produce (merge order doesn't depend on
        # payload columns), but wide payloads (e.g. 1 KB packed
        # signature blobs) never materialize as Python objects and
        # Arrow types — fixed_size_binary, timestamps, large_* —
        # survive the join unchanged.
        li = pd.DataFrame(
            {
                "__k": ltab.column(left_on).to_numpy(zero_copy_only=False),
                "__li": np.arange(len(ltab), dtype=np.int64),
            }
        )
        ri = pd.DataFrame(
            {
                "__k": rtab.column(right_on).to_numpy(zero_copy_only=False),
                "__ri": np.arange(len(rtab), dtype=np.int64),
            }
        )
        m = li.merge(ri, on="__k", how=how)
        lind = pa.array(m["__li"].to_numpy(np.int64), pa.int64())
        ri_ser = m["__ri"]
        if ri_ser.isna().any():  # left join: null index → null row
            rind = pa.Array.from_pandas(ri_ser.astype("Int64"))
        else:
            rind = pa.array(ri_ser.to_numpy(np.int64), pa.int64())
        cols = {c: ltab.column(c).take(lind) for c in lcols}
        for c in rcols:
            if c == left_on and right_on == left_on:
                continue  # same-name key appears once (pandas semantics)
            cols[c] = rtab.column(c).take(rind)
        return pa.table(cols)

    return both.groupby("__bucket").map_groups(merge, batch_format="pyarrow")


def min_by_key(ds: Dataset, key_col: str, val_col: str, n_buckets: int = 32) -> Dataset:
    """Exact global min(val) per key → Dataset(key, val).

    Ray's built-in Min aggregate seeds with a float and corrupts int64
    extremes (observed on encoded u64 labels); this uses the bucketed
    pattern instead — per-batch vectorized partial mins (sort + reduceat),
    then a low-cardinality groupby over ``n_buckets`` with a vectorized
    pandas reduction per bucket. Only (key, val) rows shuffle.
    """

    def min_reduce(t: pa.Table) -> pa.Table:
        # one reducer serves both levels (per-batch partial AND
        # per-bucket merge): min is associative/idempotent per key
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False)
        if len(k) == 0:
            return pa.table(
                {key_col: pa.array([], pa.int64()), val_col: pa.array([], pa.int64())}
            )
        order = np.argsort(k, kind="stable")
        k, v = k[order], v[order]
        starts = np.concatenate([[0], np.flatnonzero(k[1:] != k[:-1]) + 1])
        return pa.table(
            {
                key_col: pa.array(k[starts], pa.int64()),
                val_col: pa.array(np.minimum.reduceat(v, starts), pa.int64()),
            }
        )

    part = ds.map_batches(min_reduce, batch_format="pyarrow")
    bucketed = _add_bucket(part, key_col, n_buckets)
    return bucketed.groupby("__bucket").map_groups(
        lambda g: min_reduce(g.select([key_col, val_col])),
        batch_format="pyarrow",
    )


BROADCAST_MAX_ROWS = 5_000_000  # default guard; DedupConfig.broadcast_max_rows


def small_join(
    ds: Dataset,
    key_col: str,
    right: pa.Table,
    right_key: str,
    how: str = "inner",
    max_broadcast_rows: int | None = None,
    n_buckets: int = 32,
) -> Dataset:
    """Attach ``right``'s non-key columns to ``ds`` by an int64 key.

    The dup-bounded broadcast pattern with a size guard: while ``right``
    fits the bound it is ``ray.put`` once and looked up per batch with a
    sorted-key searchsorted (zero shuffle — the standard small-side
    broadcast join); past the bound it falls back to ``bucketed_join``
    (both sides shuffle once on narrow bucketed blocks). Identical output
    either way (asserted in tests/test_exchange_guard.py).

    Precondition: ``right[right_key]`` must be UNIQUE. The broadcast
    branch attaches exactly one match per left row while the bucketed
    branch would replicate per duplicate — so duplicates are rejected
    loudly here rather than letting the two branches silently diverge
    as ``right`` grows past the cap.

    ``how="inner"`` keeps matched rows only; ``how="left"`` null-pads the
    right columns for unmatched rows.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"small_join: unsupported how={how!r}")
    rkeys = right.column(right_key).to_numpy(zero_copy_only=False)
    order = np.argsort(rkeys)
    if len(rkeys) > 1 and np.any(rkeys[order][1:] == rkeys[order][:-1]):
        raise ValueError(
            f"small_join: right[{right_key!r}] has duplicate keys — the "
            "broadcast and bucketed branches would diverge (one match vs "
            "replicated rows); deduplicate the right side first"
        )
    cap = BROADCAST_MAX_ROWS if max_broadcast_rows is None else max_broadcast_rows
    if len(right) > cap:
        import ray.data as rd

        out = bucketed_join(
            ds, rd.from_arrow(right), key_col, right_key, n_buckets=n_buckets, how=how
        )
        if right_key != key_col:
            # match the broadcast branch's schema exactly (left cols +
            # right value cols; the join key appears once)
            out = out.map_batches(
                lambda t: t.drop_columns([right_key]), batch_format="pyarrow"
            )
        return out

    vals = right.drop_columns([right_key]).take(pa.array(order, pa.int64())).combine_chunks()
    ref = ray.put((rkeys[order], vals))

    def fn(batch: pa.Table) -> pa.Table:
        sk, vt = ray.get(ref)
        col = batch.column(key_col).to_numpy(zero_copy_only=False)
        if len(sk):
            idx = np.minimum(np.searchsorted(sk, col), len(sk) - 1)
            hit = sk[idx] == col
        else:
            idx = np.zeros(len(col), np.int64)
            hit = np.zeros(len(col), bool)
        if how == "inner":
            out = batch.filter(pa.array(hit))
            g = vt.take(pa.array(idx[hit], pa.int64()))
            for name in g.column_names:
                out = out.append_column(name, g.column(name))
            return out
        if not len(sk):
            out = batch
            for f in vt.schema:
                out = out.append_column(f.name, pa.nulls(len(batch), f.type))
            return out
        g = vt.take(pa.array(idx, pa.int64()))
        mask = pa.array(hit)
        out = batch
        for name in g.column_names:
            c = g.column(name)
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            out = out.append_column(
                name, pc.if_else(mask, c, pa.scalar(None, type=c.type))
            )
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


def semi_filter_auto(
    ds: Dataset,
    key_col: str,
    keys_sorted: np.ndarray,
    keep: bool = True,
    max_broadcast_rows: int | None = None,
    n_buckets: int = 32,
) -> Dataset:
    """Size-guarded membership filter: small key sets broadcast
    (searchsorted membership per batch); past the bound the membership
    test becomes a bucketed left join + null check (semi / anti join).
    Identical row set either way. (``semi_filter`` is an alias.)"""
    cap = BROADCAST_MAX_ROWS if max_broadcast_rows is None else max_broadcast_rows
    if len(keys_sorted) > 1:
        # membership is a SET test: drop duplicate keys so the join
        # branch cannot replicate matching rows where the broadcast
        # branch would not (the branches must stay row-identical)
        first = np.ones(len(keys_sorted), dtype=bool)
        first[1:] = keys_sorted[1:] != keys_sorted[:-1]
        if not first.all():
            keys_sorted = keys_sorted[first]
    if len(keys_sorted) <= cap:
        return _semi_filter_broadcast(ds, key_col, keys_sorted, keep)
    import ray.data as rd

    kt = rd.from_arrow(
        pa.table({"__semi_key": pa.array(keys_sorted, pa.int64())})
    )
    j = bucketed_join(ds, kt, key_col, "__semi_key", n_buckets=n_buckets, how="left")

    def fl(batch: pa.Table) -> pa.Table:
        hit = pc.is_valid(batch.column("__semi_key"))
        mask = hit if keep else pc.invert(hit)
        return batch.filter(mask).drop_columns(["__semi_key"])

    return j.map_batches(fl, batch_format="pyarrow")


def ensure_schema(ds: Dataset, schema: pa.Schema) -> Dataset:
    """Union ``ds`` with a typed empty table so a zero-block dataset still
    reports a schema. Sort/groupby stages over empty inputs yield
    schema-less datasets (``ds.schema() is None``), which breaks any
    downstream ``bucketed_join``; the empty union branch costs nothing when
    rows exist."""
    import ray.data as rd

    cols = {f.name: pa.array([], f.type) for f in schema}
    return ds.union(rd.from_arrow(pa.table(cols)))


def collect_table(
    ds: Dataset, limit_rows: int | None = None, schema: pa.Schema | None = None
) -> pa.Table:
    """Stream a (small) dataset to one Arrow table on the driver.

    An empty result takes its schema from ``schema`` (the caller's known
    output schema), else from the executed blocks; only when neither
    exists does ``ds.schema()`` run a second, probing execution."""
    from ray.data.block import BlockAccessor

    tables, n, seen = [], 0, None
    for bundle in ds.iter_internal_ref_bundles():
        seen = seen or bundle.schema
        for b in ray.get(list(bundle.block_refs)):
            acc = BlockAccessor.for_block(b)
            if acc.num_rows():
                tables.append(acc.to_arrow())
                n += acc.num_rows()
        if limit_rows is not None and n >= limit_rows:
            break
    if tables:
        return pa.concat_tables(tables, promote_options="default")
    if schema is None and isinstance(seen, pa.Schema):
        schema = seen
    if schema is None:
        try:
            schema = pa.schema(ds.schema().base_schema)
        except Exception:
            return pa.table({})
    return schema.empty_table()
