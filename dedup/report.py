"""Report sinks: the reference's output shapes over the clusters table.

≅ PrintMatches (process_matches.rs:604-705): the reference emits, per
duplicate group, the member paths grouped by inode (hard-linked paths
together) plus redundant_bytes, streamed to stdout / a JSON array file.
Here:

- ``nested_groups``: clusters → one row per cluster with
  ``duplicates`` = list<list<url>> (outer = distinct content identity
  ``doc_hash`` ≅ inode, inner = urls sharing it ≅ hard links) and
  ``redundant_bytes`` = (n_identities − 1) × size... generalized for
  near-dup clusters as Σ sizes − max size (bytes beyond one kept copy).
  Shape-parity with DuplicateGroup JSON (duplicate_group.rs:21-25,
  74-85).
- ``write_report``: clusters → partitioned parquet + a JSON array file
  (incremental writer ≅ the reference's serde_json seq writer) + a
  stdout-style summary dict.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from .exchange import _add_bucket


def _nested_bucket(batch: pa.Table) -> pa.Table:
    """One bucket (co-located whole clusters) → nested rows, fully
    vectorized: one multi-key sort, boundary masks, ListArray offsets —
    no per-cluster Python. Inner lists are url-sorted; outer lists are
    ordered by their first url, which equals lexicographic list order
    because urls are unique."""
    if len(batch) == 0:
        return pa.table(
            {
                "cluster_id": pa.array([], pa.int64()),
                "n_members": pa.array([], pa.int64()),
                "n_identities": pa.array([], pa.int64()),
                "duplicates": pa.array([], pa.list_(pa.list_(pa.string()))),
                "redundant_bytes": pa.array([], pa.int64()),
            }
        )
    keys = [("cluster_id", "ascending"), ("doc_hash", "ascending"), ("url", "ascending")]
    t = batch.sort_by(keys)
    cid = t.column("cluster_id").to_numpy(zero_copy_only=False)
    dh = t.column("doc_hash").to_numpy(zero_copy_only=False)
    urls = t.column("url")
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    n = len(cid)
    # inner lists: one per (cluster, doc_hash)
    inner_new = np.ones(n, dtype=bool)
    inner_new[1:] = (cid[1:] != cid[:-1]) | (dh[1:] != dh[:-1])
    in_starts = np.flatnonzero(inner_new)
    offs1 = np.append(in_starts, n).astype(np.int32)
    # from_arrays expects offsets led by 0; in_starts[0] == 0 by construction
    inner = pa.ListArray.from_arrays(pa.array(offs1, pa.int32()), urls)
    in_cid = cid[in_starts]
    # reorder inner lists within each cluster by first url (content order);
    # lexsort is stable and in_cid is the primary key, so clusters keep order
    first_urls = np.asarray(urls.take(pa.array(in_starts, pa.int64())))
    order = np.lexsort((first_urls, in_cid))
    inner = inner.take(pa.array(order, pa.int64()))
    # outer lists: one per cluster
    outer_new = np.ones(len(in_starts), dtype=bool)
    outer_new[1:] = in_cid[1:] != in_cid[:-1]
    out_starts = np.flatnonzero(outer_new)
    offs2 = np.append(out_starts, len(in_starts)).astype(np.int32)
    outer = pa.ListArray.from_arrays(pa.array(offs2, pa.int32()), inner)
    # per-cluster aggregates over the row-level cid segments
    c_starts = np.flatnonzero(np.concatenate([[True], cid[1:] != cid[:-1]]))
    n_members = np.diff(np.append(c_starts, n))
    n_identities = np.diff(np.append(out_starts, len(in_starts)))
    if "size_bytes" in t.column_names:
        sz = t.column("size_bytes").to_numpy(zero_copy_only=False)
        red = np.add.reduceat(sz, c_starts) - np.maximum.reduceat(sz, c_starts)
    else:
        red = np.zeros(len(c_starts), np.int64)
    return pa.table(
        {
            "cluster_id": pa.array(cid[c_starts], pa.int64()),
            "n_members": pa.array(n_members, pa.int64()),
            "n_identities": pa.array(n_identities, pa.int64()),
            "duplicates": outer,
            "redundant_bytes": pa.array(red.astype(np.int64), pa.int64()),
        }
    )


def nested_groups(clusters: Dataset, n_buckets: int = 64) -> Dataset:
    """clusters(url, doc_hash, cluster_id[, size_bytes]) → nested rows.

    Clusters are hash-bucketed (low-cardinality key — never map_groups on
    cluster_id itself, whose cardinality is the number of duplicate
    groups) and each bucket is built with one vectorized pass."""
    return (
        _add_bucket(clusters, "cluster_id", n_buckets)
        .groupby("__bucket")
        .map_groups(_nested_bucket, batch_format="pyarrow")
    )


def write_report(clusters: Dataset, out_dir: str) -> dict:
    """Partitioned parquet + JSON array + summary (the K1 sink trio)."""
    os.makedirs(out_dir, exist_ok=True)
    clusters = clusters.materialize()
    clusters.write_parquet(os.path.join(out_dir, "clusters"))
    nested = nested_groups(clusters)
    n_groups = 0
    n_members = 0
    redundant = 0
    json_path = os.path.join(out_dir, "duplicates.json")
    with open(json_path, "w") as f:
        f.write("[")
        first = True
        for batch in nested.iter_batches(batch_size=4096, batch_format="pyarrow"):
            # to_pylist on the Arrow batch gives plain nested Python lists
            # directly (no pandas object-array detour, no iterrows)
            dups = batch.column("duplicates").to_pylist()
            rbytes = batch.column("redundant_bytes").to_pylist()
            members = batch.column("n_members").to_pylist()
            for d, rb in zip(dups, rbytes):
                if not first:
                    f.write(",")
                json.dump({"duplicates": d, "redundant_bytes": int(rb)}, f)
                first = False
            n_groups += len(dups)
            n_members += int(sum(members))
            redundant += int(sum(rbytes))
        f.write("]")
    summary = {
        "n_groups": n_groups,
        "n_member_urls": n_members,
        "redundant_bytes": redundant,
        "json": json_path,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    return summary
