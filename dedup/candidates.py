"""Component-localized candidate generation + in-group verification:
the one MinHash verifier (flagship, ``distributed`` backend and
incremental dedup all take their edges from ``_verify_group``).

Per-band pair emission (``lsh.candidate_pairs``) writes each candidate
pair once per band it collides in. True duplicates collide in nearly
EVERY band — that is what makes them duplicates — so on dup-heavy web
data the raw pair stream carries a ~``cfg.bands``-fold duplication that
must then be removed by a corpus-wide shuffle (measured on the
500k-page bench corpus: 51M raw pair rows ≈ 820 MB sorted down to 1.6M
unique pairs), after which verification ships signatures around a second
time. This module does both jobs inside per-component groups, from
shuffles an order of magnitude smaller:

1. **Star pass** — one band-row sort, emitting only bucket-min → member
   star edges + boundary chains (``candidate_pairs(star_only=True)``):
   linear in bucket size.
2. **Components** — the star edges are deduplicated (tiny: ≈ one row
   per duplicate-involved doc) and labeled with connected components:
   driver ``components_np`` while the edge set fits the broadcast
   guard, ``label_propagation`` (pure-Dataset) past it or when the
   caller wants no driver transit.
3. **Group** — ONLY candidate docs' signature rows (star-graph nodes —
   bounded by duplicate-involved docs, not the corpus) are routed to
   ``cfg.join_buckets`` hash groups by component. A bucket's members
   are star-connected by construction, so a bucket never spans two
   components and the per-component bucket structure equals the global
   one.
4. **Regen + verify in place** — each group re-derives its docs' band
   keys (``lsh.Bander`` — deterministic from the signatures), emits the
   exact per-bucket pair set (``lsh.segment_pairs``: all-pairs ≤
   ``cfg.allpairs_bucket_max``, bucket-min stars beyond; the in-group
   ``unique`` IS the global exact pair dedup), and verifies the pairs
   against the group's own signatures with the ``_compare_slice``
   agreement kernel — plus the exact-mode set-hash equality filter when
   configured. No pair shuffle, no broadcast signature matrix: a
   component's signatures travel once, to the group that needs them.

vs per-band emission over sorted blocks the pair set differs only in
fragment-related corner cases, all of which make the output
batch-split-INVARIANT where sorted-block emission depended on where
block boundaries happened to fall: pairs split across sorted-block
fragments of one bucket are not dropped (fragment emission chains
fragments for connectivity but skips their cross-fragment pairs); jumbo
buckets anchor their stars at the true bucket min instead of
per-fragment mins; and the all-pairs cap applies to the TRUE bucket
size — an over-cap bucket that block boundaries happened to split into
under-cap fragments does not get fragment-local all-pairs (it gets the
documented star treatment, like every other over-cap bucket). Reference anchor: the same "group, then work only
inside groups" shape as the reference's size→checksum cascade
(process_matches.rs:293-407), pushed two levels further (bucket →
component → verified edge).

Skew note: one group holds every signature of its components; a single
10^8-member component would concentrate ~100 GB in one group — the same
single-pathological-key caveat ``exchange.bucketed_join`` documents.
LSH components are duplicate clusters; a component that size means the
corpus is mostly one document.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from .config import DedupConfig
from .exchange import (
    broadcast_map_i64,
    bucketed_join,
    collect_table,
    ensure_schema,
    pinned_table,
    semi_filter_auto,
)
from .hashing import fmix64
from .lsh import Bander, band_rows, candidate_pairs, segment_pairs

PAIRS_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
EDGES_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("sim", pa.float64())]
)

_EMPTY_PAIRS = pa.table(
    {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
)
_EMPTY_EDGES = pa.table(
    {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
     "sim": pa.array([], pa.float64())}
)


def _tagged_sig_rows(
    sigs: Dataset, cfg: DedupConfig, dataset_labels: bool, cols: list[str]
) -> tuple[Dataset | None, np.ndarray | None, int]:
    """Phases 1–3: star pass → component labels → candidate signature
    rows tagged with ``__comp``. → (tagged Dataset | None if no
    candidates, sorted candidate array | None on the Dataset tier,
    deduped star-edge count — 2× an upper bound on candidate docs, the
    group-fanout hint for ``_grouped``)."""
    from .verify import dedup_pairs_sorted

    bands = band_rows(sigs, cfg)
    stars, chain = candidate_pairs(bands, cfg, star_only=True)
    if len(chain):
        stars = stars.union(rd.from_arrow(chain))
    # the star stream still repeats an edge once per band (dup factor ≈
    # bands); this sort-dedup is over ~25x fewer rows than a per-band
    # all-pairs stream
    stars_d = ensure_schema(dedup_pairs_sorted(stars), PAIRS_SCHEMA).materialize()
    n_stars = stars_d.count()
    if n_stars == 0:
        return None, (None if dataset_labels else np.empty(0, np.int64)), 0

    sig_cols = sigs.select_columns(cols)
    # gate the driver tier on the ALREADY-known exact edge count before
    # collecting anything: an over-cap star set previously streamed
    # cap+1 rows (~80 MB) to the driver just to fail the size test
    if not dataset_labels and n_stars <= cfg.broadcast_max_rows:
        st = collect_table(stars_d)
        from .unionfind import components_np

        keys, cids = components_np(
            st.column("a").to_numpy(zero_copy_only=False),
            st.column("b").to_numpy(zero_copy_only=False),
        )
        if len(keys) <= cfg.broadcast_max_rows:
            # ONE broadcast carrying (keys, cids, occupancy prefilter);
            # membership filter + component tag in a single probe per
            # batch (the two-step semi_filter + broadcast_map shipped
            # the key set twice and probed every batch twice)
            import ray

            from .exchange import member_probe, member_table

            ref = ray.put((keys, cids, member_table(keys)))

            def filter_tag(batch: pa.Table) -> pa.Table:
                ks, cs, tbl = ray.get(ref)
                dh = batch.column("doc_hash").to_numpy(zero_copy_only=False)
                hit = member_probe(ks, tbl, dh)
                t = batch.filter(pa.array(hit))
                # hit rows are members, so searchsorted is exact
                comp = cs[np.searchsorted(ks, dh[hit])]
                return t.append_column(
                    "__comp", pa.array(comp, pa.int64())
                )

            tagged = sig_cols.map_batches(
                filter_tag, batch_format="pyarrow", zero_copy_batch=True
            )
        else:
            # candidate NODES outgrew the cap even though edges fit:
            # the guarded two-step (join fallbacks inside) still applies
            sub = semi_filter_auto(
                sig_cols, "doc_hash", keys,
                max_broadcast_rows=cfg.broadcast_max_rows,
                n_buckets=cfg.join_buckets,
            )
            tagged = broadcast_map_i64(
                sub, "doc_hash", keys, cids, "__comp",
                max_broadcast_rows=cfg.broadcast_max_rows,
                n_buckets=cfg.join_buckets,
            )
        return tagged, keys, n_stars

    # Dataset tier: component labels never leave the cluster; the inner
    # join is simultaneously the candidate-membership filter
    from .unionfind import label_propagation

    labels = label_propagation(stars_d, n_buckets=cfg.join_buckets)
    joined = bucketed_join(
        sig_cols, labels, "doc_hash", "node",
        n_buckets=cfg.join_buckets, how="inner",
    )

    def rename(batch: pa.Table) -> pa.Table:
        keep = [c for c in batch.column_names if c not in ("node", "label")]
        return batch.select(keep).append_column("__comp", batch.column("label"))

    return joined.map_batches(rename, batch_format="pyarrow"), None, n_stars


_GROUP_DOCS_TARGET = 250_000  # ≈128 MB of signatures per group at 512 B/doc


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

    def bucket(batch: pa.Table) -> pa.Table:
        comp = batch.column("__comp").to_numpy(zero_copy_only=False)
        b = (fmix64(comp.view(np.uint64)) % np.uint64(n_buckets)).astype(np.int32)
        return batch.append_column("__cbucket", pa.array(b, pa.int32()))

    return (
        tagged.map_batches(bucket, batch_format="pyarrow")
        .groupby("__cbucket")
        .map_groups(fn, batch_format="pyarrow")
    )


def _pairs_of_group(g: pa.Table, cfg: DedupConfig) -> tuple[np.ndarray, np.ndarray]:
    bt = Bander(cfg)(g)  # (doc_hash, bkey) — deterministic from sig
    return segment_pairs(
        bt.column("bkey").to_numpy(zero_copy_only=False),
        bt.column("doc_hash").to_numpy(zero_copy_only=False),
        cfg.allpairs_bucket_max,
    )


def component_candidate_pairs(
    sigs: Dataset, cfg: DedupConfig, dataset_labels: bool = False
) -> tuple[Dataset, np.ndarray | None]:
    """signatures → (exactly-unique canonical candidate-pair Dataset,
    sorted candidate-doc array or None).

    The candidate array comes back non-None only on the driver-components
    tier (star edges fit ``cfg.broadcast_max_rows``); ``dataset_labels``
    forces the pure-Dataset tier. Candidate generation only — callers
    that also want verification should use ``component_verified_edges``,
    which does it without re-shipping signatures.
    """
    tagged, cand, n_stars = _tagged_sig_rows(
        sigs, cfg, dataset_labels, ["doc_hash", "sig", "n_shingles"]
    )
    if tagged is None:
        return rd.from_arrow(_EMPTY_PAIRS), cand

    def gen(g: pa.Table) -> pa.Table:
        a, b = _pairs_of_group(g, cfg)
        return pa.table(
            {"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())}
        )

    return ensure_schema(
        _grouped(tagged, cfg, gen, n_cand_hint=2 * n_stars), PAIRS_SCHEMA
    ), cand


def _verify_group(g: pa.Table, cfg: DedupConfig) -> pa.Table:
    """Verified edges (a, b, sim) of one co-located signature group: its
    exact candidate pairs (``_pairs_of_group``) checked with the
    ``_compare_slice`` agreement kernel, plus set-hash equality in exact
    mode. ``cfg.verify_threshold <= 0`` keeps every pair with sim 1.0."""
    from .verify import _compare_slice, _prep_sigs

    a, b = _pairs_of_group(g, cfg)
    if not len(a):
        return _EMPTY_EDGES
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
        ia = np.searchsorted(dh_s, a)
        ib = np.searchsorted(dh_s, b)
        keep &= sh_s[ia] == sh_s[ib]
    return pa.table(
        {
            "a": pa.array(a[keep], pa.int64()),
            "b": pa.array(b[keep], pa.int64()),
            "sim": pa.array(sim[keep], pa.float64()),
        }
    )


def memory_verified_edges(sigs: Dataset, cfg: DedupConfig) -> pa.Table | None:
    """The memory tier of ``component_verified_edges``: a materialized
    ``sigs`` within ``exchange.pinned_table``'s guard is read onto the
    driver and verified as ONE group (``_verify_group`` over every
    signature) — no execution, edges as an Arrow table. ``None`` when
    ``sigs`` is lazy or over the guard.

    The output equals the component path's: a bucket never spans two
    components, so the per-bucket pair set over all signatures is the
    union of the per-component ones, and singleton buckets emit
    nothing."""
    t = pinned_table(sigs, _sig_cols(cfg))
    return None if t is None else _verify_group(t, cfg)


def _sig_cols(cfg: DedupConfig) -> list[str]:
    cols = ["doc_hash", "sig", "n_shingles"]
    return cols + ["set_hash"] if cfg.exact_set_verify else cols


def component_verified_edges(
    sigs: Dataset, cfg: DedupConfig, dataset_labels: bool = False
) -> Dataset:
    """signatures → verified edge Dataset (a, b, sim), generated and
    checked inside the component groups.

    Tiers: the memory tier (``memory_verified_edges``) while ``sigs``
    is a pin within the guard; otherwise star pass → components (driver
    or LP, see ``_tagged_sig_rows``) → per-group regen + verify.
    ``dataset_labels`` always takes the Dataset tiers (edges never
    transit the driver).

    Verification is the same ``_compare_slice`` agreement kernel as
    ``verify.verify_pairs`` (bit-identical sims), applied to the group's
    own signatures; ``cfg.exact_set_verify`` additionally
    requires equal shingle-set hashes, so callers need no separate
    set-hash filter pass. ``cfg.verify_threshold <= 0`` keeps every
    pair with sim 1.0 (``verify_pairs`` semantics)."""
    if not dataset_labels:
        edges = memory_verified_edges(sigs, cfg)
        if edges is not None:
            return rd.from_arrow(edges)
    tagged, _, n_stars = _tagged_sig_rows(sigs, cfg, dataset_labels, _sig_cols(cfg))
    if tagged is None:
        return rd.from_arrow(_EMPTY_EDGES)
    return ensure_schema(
        _grouped(tagged, cfg, lambda g: _verify_group(g, cfg),
                 n_cand_hint=2 * n_stars),
        EDGES_SCHEMA,
    )
