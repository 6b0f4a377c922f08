"""Temporal joins Ray Data lacks natively.

``asof_join``: for every left row, the most recent right row with
``right_ts <= left_ts`` sharing the join key (backward as-of). Built as
(a) hash-bucket both sides on the key (narrow shuffle), (b) one
``groupby(bucket)`` co-locating whole key groups, (c) a vectorized
``pandas.merge_asof`` per bucket (global sort by time within the
bucket — merge_asof's requirement). Skew note: one bucket holds ~1/B of
the KEYS, not of one key's rows; a single pathological key still lands
in one bucket and is bounded by that key's row count.

Matches DuckDB's native ``ASOF JOIN`` semantics (the oracle for
``queries()['events_last_order']``); on ties in ``right_ts`` the
matched *timestamp* is identical though the matched row is ambiguous —
callers should project columns that are functions of (key, right_ts).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from .exchange import _add_bucket


def asof_join(
    left: Dataset,
    right: Dataset,
    by: str,
    left_ts: str,
    right_ts: str,
    right_cols: list[str] | None = None,
    n_buckets: int = 32,
    direction: str = "backward",
) -> Dataset:
    """Backward as-of join → left columns + selected right columns."""
    right_cols = right_cols or []

    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    lcols = list(lschema.names)
    rkeep = [by, right_ts] + [c for c in right_cols if c not in (by, right_ts)]
    rnames = {c: c if c not in lcols or c == by else f"r_{c}" for c in rkeep}

    lb = _add_bucket(left, by, n_buckets)
    rb = _add_bucket(right.select_columns(rkeep), by, n_buckets)

    fields = list(lschema) + [
        pa.field(rnames[c], rschema.field(c).type) for c in rkeep if c != by
    ]

    def tag(side: str, rename=None):
        inv = {v: k for k, v in rename.items()} if rename else {}

        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols = {}
            for f in fields:
                src = inv.get(f.name, f.name)
                if src in batch.column_names and (
                    (side == "l" and f.name in lcols)
                    or (side == "r" and f.name not in lcols)
                    or f.name == by
                ):
                    cols[f.name] = batch.column(src)
                else:
                    cols[f.name] = pa.nulls(n, f.type)
            if side == "l":  # key always from own side
                cols[by] = batch.column(by)
            cols["__bucket"] = batch.column("__bucket")
            cols["__side"] = pa.array([side] * n)
            return pa.table(cols)

        return fn

    both = lb.map_batches(tag("l"), batch_format="pyarrow").union(
        rb.map_batches(tag("r", rnames), batch_format="pyarrow")
    )

    out_r = [rnames[c] for c in rkeep if c != by]
    out_fields = fields  # declared output schema — every block must match

    def to_out_schema(m: pd.DataFrame) -> pa.Table:
        """pandas → Arrow under the DECLARED schema. merge_asof promotes
        int right columns to float64 in any group with an unmatched left
        row, and the pandas round-trip rewrites timestamp[us] as [ns] —
        per-group blocks then carry divergent schemas and concat/write
        crashes. Nullable Int64 keeps int64-with-nulls exact."""
        arrays = []
        for f in out_fields:
            s = m[f.name]
            if pa.types.is_integer(f.type) and s.dtype.kind in ("f", "O"):
                arrays.append(pa.Array.from_pandas(s.astype("Int64"), type=f.type))
            else:
                arrays.append(pa.Array.from_pandas(s, type=f.type))
        return pa.Table.from_arrays(arrays, schema=pa.schema(out_fields))

    def merge(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        lmask = pa.array(side == "l")
        l = group.filter(lmask).select(lcols).to_pandas()
        r = group.filter(pa.compute.invert(lmask)).select([by] + out_r).to_pandas()
        if l.empty:
            return to_out_schema(
                l.assign(**{c: pd.Series(dtype=r[c].dtype) for c in out_r})
            )
        rts = rnames[right_ts]
        # SQL ASOF semantics for null keys: a null timestamp matches
        # nothing — null-ts right rows can never match, null-ts left
        # rows keep their row with null right columns (merge_asof would
        # instead raise 'merge keys contain null values')
        lnull = l[l[left_ts].isna()]
        l = l[l[left_ts].notna()].sort_values(left_ts, kind="stable")
        r = r[r[rts].notna()].sort_values(rts, kind="stable")
        if l.empty:
            m = l.assign(**{c: pd.Series(dtype=r[c].dtype) for c in out_r})
        else:
            m = pd.merge_asof(
                l, r, left_on=left_ts, right_on=rts, by=by, direction=direction
            )
        if len(lnull):
            m = pd.concat(
                [m, lnull.assign(**{c: pd.NA for c in out_r})],
                ignore_index=True,
            )
        return to_out_schema(m)

    return both.groupby("__bucket").map_groups(merge, batch_format="pyarrow")
