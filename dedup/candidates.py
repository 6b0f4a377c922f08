"""Component-localized candidate generation + in-group verification:
the one LSH candidate engine. Every LSH edge is generated and checked by
``_verify_group``; a ``Kernel`` supplies what differs between the
similarity measures — the columns a group carries, its bucket keys and
its pair check. Three kernels use it:

- MinHash (``minhash_kernel``): band keys (``lsh.Bander``), the
  ``_compare_slice`` agreement check — the flagship, incremental dedup
  and ``suffix.py``;
- SimHash (``simhash.simhash_kernel``): block-combination keys, Hamming
  distance;
- cosine (``embed.lsh_bucketed_pairs``): random-hyperplane keys, exact
  cosine.

Per-band pair emission (``lsh.candidate_pairs``) writes each candidate
pair once per band it collides in. True duplicates collide in nearly
EVERY band — that is what makes them duplicates — so on dup-heavy web
data the raw pair stream carries a ~``cfg.bands``-fold duplication that
must then be removed by a corpus-wide shuffle (measured on the
500k-page bench corpus: 51M raw pair rows ≈ 820 MB sorted down to 1.6M
unique pairs), after which verification ships signatures around a second
time. This module does both jobs inside per-component groups, from
shuffles an order of magnitude smaller:

1. **Star pass** — one sort of the kernel's key rows, emitting only
   bucket-min → member star edges + boundary chains
   (``candidate_pairs(star_only=True)``): linear in bucket size.
2. **Components** — the star edges are deduplicated (tiny: ≈ one row
   per duplicate-involved doc) and labeled with connected components:
   driver ``components_np`` while the edge set fits the broadcast
   guard, ``label_propagation`` (pure-Dataset) past it.
3. **Group** — ONLY candidate docs' rows (star-graph nodes — bounded by
   duplicate-involved docs, not the corpus) are routed to hash groups
   by component. A bucket's members are star-connected by
   construction, so a bucket never spans two components and the
   per-component bucket structure equals the global one.
4. **Regen + verify + label in place** — each group re-derives its
   docs' keys (deterministic from the rows), emits the exact per-bucket
   pair set (``lsh.segment_pairs``: all-pairs ≤
   ``cfg.allpairs_bucket_max``, bucket-min stars beyond; the in-group
   ``unique`` IS the global exact pair dedup), runs the kernel's check
   against the group's own rows, and (``component_labels``) labels the
   kept edges with ``components_np`` — a verified component lies inside
   one star component, so the group's labels are the global ones.
   No pair shuffle, no broadcast signature matrix: a component's rows
   travel once, to the group that needs them.

The output is batch-split-INVARIANT, where per-band emission over
sorted blocks depended on where block boundaries happened to fall:
pairs split across sorted-block fragments of one bucket are not
dropped (fragment emission chains fragments for connectivity but skips
their cross-fragment pairs); jumbo buckets anchor their stars at the
true bucket min instead of per-fragment mins; and the all-pairs cap
applies to the TRUE bucket size — an over-cap bucket that block
boundaries happened to split into under-cap fragments does not get
fragment-local all-pairs (it gets the documented star treatment, like
every other over-cap bucket). Reference anchor: the same "group, then
work only inside groups" shape as the reference's size→checksum cascade
(process_matches.rs:293-407), pushed two levels further (bucket →
component → verified edge).

Skew note: one group holds every row of its components; a single
10^8-member component would concentrate ~100 GB in one group — the same
single-pathological-key caveat ``exchange.bucketed_join`` documents.
LSH components are duplicate clusters; a component that size means the
corpus is mostly one document.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from .config import DedupConfig
from .exchange import (
    _add_bucket,
    bucketed_join,
    collect_table,
    ensure_schema,
    pinned_table,
    small_join,
)
from .lsh import Bander, candidate_pairs, segment_pairs

PAIRS_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
EDGES_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("sim", pa.float64())]
)

LABELS_SCHEMA = pa.schema(
    [("node", pa.int64()), ("label", pa.int64()), ("deg", pa.int64())]
)

_EMPTY_EDGES = EDGES_SCHEMA.empty_table()


class Kernel(NamedTuple):
    """What one similarity measure plugs into the engine.

    ``cols``: the columns a group carries; ``keys(table)`` → (doc_hash,
    bkey) int64 arrays, one row per bucket a doc falls in (docs that
    must never pair get no rows); ``check(group, a, b)`` → (keep mask,
    sim) over the group's candidate pairs."""

    cols: list[str]
    keys: Callable[[pa.Table], tuple[np.ndarray, np.ndarray]]
    check: Callable[[pa.Table, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def minhash_kernel(cfg: DedupConfig) -> Kernel:
    """Band keys (``lsh.Bander``) checked with the ``_compare_slice``
    agreement kernel, plus set-hash equality in exact mode.
    ``cfg.verify_threshold <= 0`` keeps every pair with sim 1.0."""
    bander = Bander(cfg)

    def keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        bt = bander(t)
        return (
            bt.column("doc_hash").to_numpy(zero_copy_only=False),
            bt.column("bkey").to_numpy(zero_copy_only=False),
        )

    def check(g: pa.Table, a: np.ndarray, b: np.ndarray):
        from .verify import _compare_slice, _prep_sigs

        if cfg.verify_threshold <= 0:
            sim = np.ones(len(a))
            keep = np.ones(len(a), dtype=bool)
        else:
            sim = _compare_slice(
                _prep_sigs(g.select(["doc_hash", "sig"]), cfg.num_perm), a, b,
                cfg.num_perm,
            )
            keep = sim >= cfg.verify_threshold
        if cfg.exact_set_verify:
            dh = g.column("doc_hash").to_numpy(zero_copy_only=False)
            sh = g.column("set_hash").to_numpy(zero_copy_only=False)
            o = np.argsort(dh)
            dh_s, sh_s = dh[o], sh[o]
            # a, b are group members by construction — searchsorted hits
            keep &= sh_s[np.searchsorted(dh_s, a)] == sh_s[np.searchsorted(dh_s, b)]
        return keep, sim

    return Kernel(_sig_cols(cfg), keys, check)


def _tagged_sig_rows(
    sigs: Dataset, cfg: DedupConfig, kernel: Kernel
) -> tuple[Dataset | None, int]:
    """Phases 1–3: star pass → component labels → candidate rows
    (``kernel.cols``) tagged with ``__comp``. → (tagged Dataset | None
    if no candidates, deduped star-edge count — 2× an upper bound on
    candidate docs, the group-fanout hint for ``_grouped``)."""
    from .verify import dedup_pairs_sorted

    def key_rows(t: pa.Table) -> pa.Table:
        dh, bk = kernel.keys(t)
        return pa.table(
            {"doc_hash": pa.array(dh, pa.int64()), "bkey": pa.array(bk, pa.int64())}
        )

    bands = sigs.map_batches(
        key_rows, batch_format="pyarrow", batch_size=cfg.batch_size,
        zero_copy_batch=True,
    )
    stars, chain = candidate_pairs(bands, cfg, star_only=True)
    if len(chain):
        stars = stars.union(rd.from_arrow(chain))
    # the star stream still repeats an edge once per band (dup factor ≈
    # bands); this sort-dedup is over ~25x fewer rows than a per-band
    # all-pairs stream
    stars_d = ensure_schema(dedup_pairs_sorted(stars), PAIRS_SCHEMA).materialize()
    n_stars = stars_d.count()
    if n_stars == 0:
        return None, 0

    sig_cols = sigs.select_columns(kernel.cols)

    def typed_sig_cols() -> Dataset:
        # a join tier reads this side's schema: typed, it costs no
        # ``limit=1`` execution of the upstream plan
        schema = sigs.schema().base_schema
        return ensure_schema(sig_cols, pa.schema([schema.field(c) for c in kernel.cols]))

    # gate the driver tier on the ALREADY-known exact edge count before
    # collecting anything: an over-cap star set previously streamed
    # cap+1 rows (~80 MB) to the driver just to fail the size test
    if n_stars <= cfg.broadcast_max_rows:
        st = collect_table(stars_d)
        from .unionfind import components_np

        keys, cids = components_np(
            st.column("a").to_numpy(zero_copy_only=False),
            st.column("b").to_numpy(zero_copy_only=False),
        )
        # the inner join is also the candidate-membership filter; its
        # guard picks broadcast or join by the candidate-node count
        comps = pa.table(
            {"doc_hash": pa.array(keys, pa.int64()), "__comp": pa.array(cids, pa.int64())}
        )
        return small_join(
            typed_sig_cols() if len(keys) > cfg.broadcast_max_rows else sig_cols,
            "doc_hash", comps, "doc_hash", how="inner",
            max_broadcast_rows=cfg.broadcast_max_rows, n_buckets=cfg.join_buckets,
        ), n_stars

    # Dataset tier: component labels never leave the cluster; the inner
    # join is simultaneously the candidate-membership filter
    from .unionfind import label_propagation

    labels = ensure_schema(
        label_propagation(stars_d, n_buckets=cfg.join_buckets),
        pa.schema([("node", pa.int64()), ("label", pa.int64())]),
    )
    joined = bucketed_join(
        typed_sig_cols(), labels, "doc_hash", "node",
        n_buckets=cfg.join_buckets, how="inner",
    )

    def rename(batch: pa.Table) -> pa.Table:
        keep = [c for c in batch.column_names if c not in ("node", "label")]
        return batch.select(keep).append_column("__comp", batch.column("label"))

    return joined.map_batches(rename, batch_format="pyarrow"), n_stars


# ≈128 MB of MinHash signatures per group at 512 B/doc; cosine rows
# carry d×8 B each, so their groups are proportionally heavier
_GROUP_DOCS_TARGET = 250_000


def _grouped(
    tagged: Dataset, cfg: DedupConfig, fn: Callable, n_cand_hint: int = 0
) -> Dataset:
    """Route whole components to hash groups and apply ``fn`` per group
    (the ``distinct_reps`` bucketed-groupby idiom — per-group Python
    cost is one call per group, not per component).

    Group count scales with the candidate set (``n_cand_hint``, an
    upper bound on candidate docs derived from the deduped star-edge
    count) so one group's signatures stay near ``_GROUP_DOCS_TARGET``
    docs regardless of corpus size — a fixed fanout would grow per-task
    memory linearly with candidates. A single component larger than the
    target still lands in one group (the documented pathological-key
    caveat)."""
    n_buckets = max(
        cfg.join_buckets, min(65536, n_cand_hint // _GROUP_DOCS_TARGET)
    )

    return (
        _add_bucket(tagged, "__comp", n_buckets)
        .groupby("__bucket")
        .map_groups(fn, batch_format="pyarrow")
    )


def _verify_group(g: pa.Table, cfg: DedupConfig, kernel: Kernel) -> pa.Table:
    """Verified edges (a, b, sim) of one co-located row group: the exact
    candidate pairs of its ``kernel.keys`` buckets
    (``lsh.segment_pairs``), kept where ``kernel.check`` passes."""
    if not len(g):
        return _EMPTY_EDGES
    dh, bk = kernel.keys(g)
    a, b = segment_pairs(bk, dh, cfg.allpairs_bucket_max)
    if not len(a):
        return _EMPTY_EDGES
    keep, sim = kernel.check(g, a, b)
    return pa.table(
        {
            "a": pa.array(a[keep], pa.int64()),
            "b": pa.array(b[keep], pa.int64()),
            "sim": pa.array(sim[keep], pa.float64()),
        }
    )


def memory_verified_edges(
    sigs: Dataset, cfg: DedupConfig, kernel: Kernel | None = None
) -> pa.Table | None:
    """The memory tier of ``component_verified_edges``: a materialized
    ``sigs`` within ``exchange.pinned_table``'s guard is read onto the
    driver and verified as ONE group (``_verify_group`` over every row)
    — no execution, edges as an Arrow table. ``None`` when ``sigs`` is
    lazy or over the guard. ``kernel`` defaults to ``minhash_kernel``.

    The output equals the component path's: a bucket never spans two
    components, so the per-bucket pair set over all rows is the union
    of the per-component ones, and singleton buckets emit nothing."""
    kernel = kernel or minhash_kernel(cfg)
    t = pinned_table(sigs, kernel.cols)
    return None if t is None else _verify_group(t, cfg, kernel)


def _label_group(g: pa.Table, cfg: DedupConfig, kernel: Kernel) -> pa.Table:
    """``components_np`` over one group's ``_verify_group`` edges →
    (node, label, deg), ``deg`` the node's kept-edge count. The labels
    are global: a verified edge lies inside one bucket, a bucket inside
    one star component, and a group holds whole star components."""
    from .unionfind import components_np

    e = _verify_group(g, cfg, kernel)
    a = e.column("a").to_numpy(zero_copy_only=False)
    b = e.column("b").to_numpy(zero_copy_only=False)
    nodes, labels = components_np(a, b)
    # nodes come back sorted: each endpoint's slot is a binary search
    deg = np.bincount(
        np.searchsorted(nodes, np.concatenate([a, b])), minlength=len(nodes)
    )
    return pa.table([nodes, labels, deg], schema=LABELS_SCHEMA)


def component_labels(
    sigs: Dataset, cfg: DedupConfig, kernel: Kernel | None = None
) -> "pa.Table | Dataset":
    """Rows → (node, label, deg) components of their verified edges
    (``_label_group``; label = the component's uint64-min member).
    ``kernel`` defaults to ``minhash_kernel(cfg)``. Tiers: a pin within
    ``pinned_table``'s guard is labeled as ONE driver group (an Arrow
    table, no execution); otherwise star pass → components → per-group
    regen + verify + label, read onto the driver while the labels fit
    ``cfg.broadcast_max_rows``, else a Dataset with a recorded schema."""
    kernel = kernel or minhash_kernel(cfg)
    t = pinned_table(sigs, kernel.cols)
    if t is not None:
        return _label_group(t, cfg, kernel)
    tagged, n_stars = _tagged_sig_rows(sigs, cfg, kernel)
    if tagged is None:
        return LABELS_SCHEMA.empty_table()
    return pinned_labels(
        _grouped(tagged, cfg, lambda g: _label_group(g, cfg, kernel),
                 n_cand_hint=2 * n_stars),
        cfg,
    )


def pinned_labels(labels: Dataset, cfg: DedupConfig) -> "pa.Table | Dataset":
    """A (node, label, deg) Dataset pinned: read onto the driver while it
    fits ``cfg.broadcast_max_rows``, else the typed pin (its schema
    recorded, so a join reads it without a ``limit=1`` probe)."""
    labels = ensure_schema(labels, LABELS_SCHEMA).materialize()
    t = pinned_table(labels, LABELS_SCHEMA.names, max_rows=cfg.broadcast_max_rows)
    return labels if t is None else t


def _sig_cols(cfg: DedupConfig) -> list[str]:
    cols = ["doc_hash", "sig", "n_shingles"]
    return cols + ["set_hash"] if cfg.exact_set_verify else cols


def component_verified_edges(
    sigs: Dataset, cfg: DedupConfig, kernel: Kernel | None = None
) -> Dataset:
    """Rows → verified edge Dataset (a, b, sim), generated and checked
    inside the component groups. ``kernel`` defaults to
    ``minhash_kernel(cfg)``: signatures in, agreement-verified edges out.

    Tiers: the memory tier (``memory_verified_edges``) while ``sigs``
    is a pin within the guard; otherwise star pass → components (driver
    or LP by star-edge count, see ``_tagged_sig_rows``) → per-group
    regen + verify. Every tier runs ``_verify_group``, so they return
    the same edges with the same sims.

    The MinHash check is the same ``_compare_slice`` agreement kernel
    as ``verify.verify_pairs`` (bit-identical sims), applied to the
    group's own signatures; ``cfg.exact_set_verify`` additionally
    requires equal shingle-set hashes, so callers need no separate
    set-hash filter pass."""
    kernel = kernel or minhash_kernel(cfg)
    edges = memory_verified_edges(sigs, cfg, kernel)
    if edges is not None:
        return rd.from_arrow(edges)
    tagged, n_stars = _tagged_sig_rows(sigs, cfg, kernel)
    if tagged is None:
        return rd.from_arrow(_EMPTY_EDGES)
    return ensure_schema(
        _grouped(tagged, cfg, lambda g: _verify_group(g, cfg, kernel),
                 n_cand_hint=2 * n_stars),
        EDGES_SCHEMA,
    )
