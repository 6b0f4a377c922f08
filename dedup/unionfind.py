"""Connected components over candidate pairs.

Two implementations (the edge sets are dup-bounded — duplicate-involved
docs only, not the corpus):

- ``components_np``: vectorized components over edge arrays — the
  verified edges of every candidate-engine group
  (``candidates._label_group``), and the star edges on the driver while
  they fit ``cfg.broadcast_max_rows``. Mirrors the reference's
  single-process final grouping (process_matches.rs:395-401).
  ``UnionFind`` (path compression + union by size) is its reference
  implementation in the tests.

- ``label_propagation``: distributed min-label propagation over Ray Data
  for the star edges past that guard (``candidates._tagged_sig_rows``),
  the 10^12-doc scale path. One fused bucketed exchange per round over
  17-byte (k, v, kind) rows; static edges live in per-bucket plasma
  blocks (never re-shuffled), only label CHANGES are broadcast to
  neighbors (delta propagation), and pointer-jump request/reply rows keep
  the round count O(log component-diameter). Star-shaped LSH edge sets
  converge in a handful of rounds.

Cluster ids are the uint64-min member of each component in both, so they
agree bit-for-bit (asserted in tests/test_pipeline.py: the components
parity tests and the flagship's tier-parity test).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .hashing import fmix64

_SIGN = np.uint64(1 << 63)


def _enc_np(x: np.ndarray) -> np.ndarray:
    """int64 bit-pattern of u64 → order-preserving int64 (for Min aggs)."""
    return (x.view(np.uint64) ^ _SIGN).view(np.int64)


# the sign-bit XOR is an involution, so decode IS encode; the second name
# only marks direction at call sites
_dec_np = _enc_np


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        if x not in p:
            p[x] = x
            self.size[x] = 1
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:  # path compression
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def component_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, cluster_ids); cluster id = uint64-min member —
        deterministic regardless of edge order."""
        if not self.parent:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        keys = np.fromiter(self.parent.keys(), dtype=np.int64, count=len(self.parent))
        roots = np.fromiter(
            (self.find(int(k)) for k in keys), dtype=np.int64, count=len(keys)
        )
        min_of_root: dict[int, int] = {}
        order = np.argsort(keys.view(np.uint64), kind="stable")
        for k, r in zip(keys[order].tolist(), roots[order].tolist()):
            if r not in min_of_root:
                min_of_root[r] = k
        cids = np.fromiter(
            (min_of_root[int(r)] for r in roots), dtype=np.int64, count=len(roots)
        )
        return keys, cids


def components_np(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over edge arrays (int64 node ids).

    Min-(uint64)-label propagation with pointer jumping — O(E) numpy work
    per round, O(log n) rounds; produces the same (keys, cluster_ids) as
    ``UnionFind.component_map`` (cluster id = uint64-min member), without
    the per-edge Python dict loop (~10x faster past ~10^5 edges).
    """
    if not len(a):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # one argsort over all endpoints yields nodes AND both endpoint
    # inverses. The old shape — np.unique + per-endpoint searchsorted —
    # paid ~700 ns/lookup of cache-missing binary search on random
    # probes (5.5 s at 5.7M edges, 4/5 of this function's cost);
    # np.unique(return_inverse=True) is no better (7.4 s measured, its
    # internal argsort + extras). This is 1.7 s on the same input.
    cat = np.concatenate([a, b])
    m = len(a)
    order = np.argsort(cat, kind="stable")
    s = cat[order]
    newgrp = np.empty(len(s), dtype=bool)
    newgrp[0] = True
    newgrp[1:] = s[1:] != s[:-1]
    nodes = s[newgrp]  # sorted int64
    n = len(nodes)
    gid = np.cumsum(newgrp) - 1
    inv = np.empty(len(s), np.int64)
    inv[order] = gid
    ia = inv[:m]
    ib = inv[m:]
    # ranks in uint64 order so "min rank" == "min uint64 member". nodes
    # is sorted int64, so uint64-ascending order is just the rotation
    # [non-negatives..., negatives...] — index arithmetic, no argsort.
    k = int(np.searchsorted(nodes, 0))
    idx = np.arange(n, dtype=np.int64)
    rank = np.where(idx >= k, idx - k, idx + (n - k))
    ra, rb = rank[ia], rank[ib]
    lab = np.arange(n, dtype=np.int64)
    while True:
        lab = lab[lab]  # pointer halving
        prev = lab.copy()
        np.minimum.at(lab, ra, lab[rb])
        np.minimum.at(lab, rb, lab[ra])
        if np.array_equal(lab, prev):
            break
    while True:  # full compression
        nxt = lab[lab]
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    nodes_by_rank = np.concatenate([nodes[k:], nodes[:k]])
    return nodes, nodes_by_rank[lab[rank]]


# row kinds flowing through the label-propagation exchanges
_LP_LAB = 0  # (k=node, v=encoded label)
_LP_MSG = 1  # (k=node, v=encoded label candidate)
# kind 2 was the in-exchange edge row of the two-exchange design; edges
# now live in the static per-bucket plasma store and never shuffle
_LP_REQ = 3  # (k=target node, v=requesting node) — pointer-jump request

_LP_SCHEMA = pa.schema([("k", pa.int64()), ("v", pa.int64()), ("kind", pa.int8())])


def _lp_rows(k: np.ndarray, v: np.ndarray, kind: int) -> pa.Table:
    return pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "kind": pa.array(np.full(len(k), kind, np.int8), pa.int8()),
        }
    )


def _lp_exchange(ds: Dataset, step, n_buckets: int) -> Dataset:
    """Bucket rows by fmix(k) and run ``step`` per co-located bucket —
    the one shuffle primitive both halves of a propagation round use.
    Rows are 17 bytes; nothing wider ever enters the exchange.

    Routing is ``exchange._add_bucket`` — the SAME helper ``_edge_store``
    uses, so ``fused_step``'s per-bucket edge-slice lookup can never
    desynchronize from the node routing (the two formulas are one)."""
    from .exchange import _add_bucket

    return (
        _add_bucket(ds, "k", n_buckets)
        .groupby("__bucket")
        .map_groups(step, batch_format="pyarrow")
    )


def _components_contraction(
    edges: Dataset,
    labels: Dataset,
    n_buckets: int = 32,
    max_rounds: int = 64,
    stats: dict | None = None,
) -> Dataset:
    """Min-star label contraction → Dataset(node, label ENCODED).

    The O(log n)-round finisher for graphs whose DIAMETER defeats
    static-edge delta propagation: the fused engine moves a min one
    edge hop per round, so a chain — fragment-rep chains from straddled
    lsh buckets, incremental version chains — costs Θ(chain) rounds
    there. Here the EDGE SET itself contracts:

      1. self-compose ``L ← L(L)`` (collapses last round's root chains);
      2. relabel edge endpoints by ``L`` and drop within-cluster
         self-loops — the edge set shrinks monotonically;
      3. min-star: each surviving (root x, root y) edge sends
         ``min(x, y)`` to both roots; an exact ``min_by_key`` merge
         gives each root its new root;
      4. apply the root map to every label.

    Adjacent roots merge every round, so surviving cross-edges shrink
    geometrically (chain tests pin ≲ 2·log2 rounds where the delta
    engine needs Θ(n)). All mins run on the ENCODED domain (signed
    order == u64 order; ``min_by_key`` is int64-exact). ``labels`` may
    be a partially-converged seed — label pointers only ever decrease,
    so the label graph is acyclic and composition is safe.

    Every round boundary pins through ``repartition(n_buckets)``:
    an iterative groupby/join loop otherwise COMPOUNDS tiny output
    blocks round over round (one task per block — measured 5 s → 30 s →
    90 s per round on a 16-row graph before the repack; flat ~1 s
    after), and the repartition also hard-truncates the plan so no
    round re-executes its predecessors."""
    from .exchange import bucketed_join, ensure_schema, min_by_key

    LABS = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    EDGS = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def _pin(ds: Dataset, schema: pa.Schema) -> Dataset:
        return ensure_schema(ds, schema).repartition(n_buckets).materialize()

    def dedup_local(batch: pa.Table) -> pa.Table:
        """Canonical-orient + batch-local dedup (keeps rounds narrow)."""
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        ea, eb = _enc_np(a), _enc_np(b)
        lo, hi = np.minimum(ea, eb), np.maximum(ea, eb)
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        if len(lo) > 1:
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            first = np.ones(len(lo), dtype=bool)
            first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            lo, hi = lo[first], hi[first]
        return pa.table(
            {"a": pa.array(_dec_np(lo), pa.int64()),
             "b": pa.array(_dec_np(hi), pa.int64())}
        )

    def _with_ldec(t: pa.Table) -> pa.Table:
        d = _dec_np(t.column("label").to_numpy(zero_copy_only=False))
        return t.append_column("__ldec", pa.array(d, pa.int64()))

    def _remap(lab: Dataset, right: Dataset, rk: str, rv: str) -> Dataset:
        """label ← right[dec(label)] where present, else unchanged."""
        j = bucketed_join(
            lab.map_batches(_with_ldec, batch_format="pyarrow"),
            right, "__ldec", rk, how="left", n_buckets=n_buckets,
        )

        def fin(t: pa.Table) -> pa.Table:
            lab2 = pc.coalesce(t.column(rv), t.column("label"))
            if lab2.type != pa.int64():
                lab2 = lab2.cast(pa.int64())
            return pa.table({"node": t.column("node"), "label": lab2})

        return j.map_batches(fin, batch_format="pyarrow")

    def compose(lab: Dataset) -> Dataset:
        r = lab.map_batches(
            lambda t: pa.table(
                {"__n2": t.column("node"), "__l2": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        return _remap(lab, r, "__n2", "__l2")

    def lab_checksum(lab: Dataset) -> int:
        tot = 0
        for b in lab.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            n = b.column("node").to_numpy(zero_copy_only=False).view(np.uint64)
            l = b.column("label").to_numpy(zero_copy_only=False).view(np.uint64)
            with np.errstate(over="ignore"):
                tot ^= int(
                    np.bitwise_xor.reduce(
                        fmix64(fmix64(n) ^ l), initial=np.uint64(0)
                    )
                )
        return tot

    labels = _pin(labels, LABS)
    edges = _pin(edges.map_batches(dedup_local, batch_format="pyarrow"), EDGS)
    rounds = 0
    while edges.count() > 0:
        if rounds >= max_rounds:
            raise RuntimeError(
                f"components_contraction did not converge in {max_rounds} "
                "rounds — min-star contraction needs O(log n); inspect the "
                "edge set for anomalies"
            )
        rounds += 1
        labels = _pin(compose(labels), LABS)

        l1 = labels.map_batches(
            lambda t: pa.table(
                {"__n1": t.column("node"), "__l1": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        l2 = labels.map_batches(
            lambda t: pa.table(
                {"__n2": t.column("node"), "__l2": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        j = bucketed_join(
            bucketed_join(edges, l1, "a", "__n1", how="left",
                          n_buckets=n_buckets),
            l2, "b", "__n2", how="left", n_buckets=n_buckets,
        )

        def relab(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            # seed labels cover every endpoint; coalesce is belt-and-
            # braces for rows ensure_schema's empty union contributes
            la = pc.coalesce(
                t.column("__l1"), pa.array(_enc_np(a), pa.int64())
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            lb = pc.coalesce(
                t.column("__l2"), pa.array(_enc_np(b), pa.int64())
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            keep = la != lb
            return pa.table(
                {"a": pa.array(_dec_np(la[keep]), pa.int64()),
                 "b": pa.array(_dec_np(lb[keep]), pa.int64())}
            )

        edges = _pin(
            j.map_batches(relab, batch_format="pyarrow").map_batches(
                dedup_local, batch_format="pyarrow"
            ),
            EDGS,
        )
        if edges.count() == 0:
            break

        def star(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ea, eb = _enc_np(a), _enc_np(b)
            m = np.minimum(ea, eb)
            return pa.table(
                {
                    "__root": pa.array(np.concatenate([a, b]), pa.int64()),
                    "__cand": pa.array(np.concatenate([m, m]), pa.int64()),
                }
            )

        # materialized BEFORE the join: bucketed_join resolves
        # right.schema(), and lazy schema resolution through a
        # union-over-groupby lineage stalls the streaming executor
        # (the repo-wide ensure_schema→materialize→join pattern)
        rootmap = _pin(
            min_by_key(
                edges.map_batches(star, batch_format="pyarrow"),
                "__root", "__cand", n_buckets=n_buckets,
            ),
            pa.schema([("__root", pa.int64()), ("__cand", pa.int64())]),
        )
        labels = _pin(_remap(labels, rootmap, "__root", "__cand"), LABS)

    # collapse residual label chains (depth halves per compose)
    prev = lab_checksum(labels)
    for _ in range(64):
        labels = _pin(compose(labels), LABS)
        cur = lab_checksum(labels)
        if cur == prev:
            break
        prev = cur
    if stats is not None:
        stats["contraction_rounds"] = rounds
    return labels


def _edge_store(
    pairs: Dataset, n_buckets: int
) -> tuple["object", list, dict[int, list[tuple[int, int, int]]]]:
    """Bucket the undirected pairs ONCE into per-bucket directed-edge
    blocks: → (pinned MaterializedDataset, block refs, layout) where
    ``layout[bucket] = [(block_idx, start, len), ...]`` names the row
    slices holding that bucket's edges (sorted by src within a bucket).

    The edge bytes flow task → plasma block; only this slice metadata
    (O(blocks × buckets-per-block)) ever reaches the driver. Per-round
    steps then ``ray.get`` their bucket's blocks (node-cached plasma
    reads) and slice, instead of re-shuffling 2E 17-byte edge rows
    through every exchange — on a multi-round propagation that re-sort
    was the dominant per-round byte cost. The returned dataset handle
    must stay referenced for the blocks' lifetime."""

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    def per_bucket(g: pa.Table) -> pa.Table:
        src = g.column("src").to_numpy(zero_copy_only=False)
        o = np.argsort(src, kind="stable")
        return g.take(pa.array(o, pa.int64()))

    from .exchange import _add_bucket

    # routing shares exchange._add_bucket with _lp_exchange, so the
    # store layout and the node exchange can never disagree on a bucket
    bucketed = (
        _add_bucket(
            pairs.map_batches(to_edges, batch_format="pyarrow"),
            "src", n_buckets,
        )
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .materialize()
    )
    try:  # Ray >= 2.10 bundle API; fall back to the legacy accessor
        refs = [
            r
            for bd in bucketed.iter_internal_ref_bundles()
            for r in bd.block_refs
        ]
    except AttributeError:  # pragma: no cover - older Ray
        refs = bucketed.get_internal_block_refs()

    @ray.remote(num_cpus=0)
    def _block_layout(block: pa.Table):
        empty = np.empty(0, np.int64)
        # zero-row upstreams pass through as empty blocks that still carry
        # the INPUT schema (no __bucket column) — no edges, no layout
        if len(block) == 0 or "__bucket" not in block.column_names:
            return empty, empty, empty
        bk = block.column("__bucket").to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.flatnonzero(bk[1:] != bk[:-1]) + 1])
        lens = np.diff(np.append(starts, len(bk)))
        return bk[starts], starts, lens

    layout: dict[int, list[tuple[int, int, int]]] = {}
    for bi, (bks, sts, lns) in enumerate(
        ray.get([_block_layout.remote(r) for r in refs])
    ):
        for b, s, ln in zip(bks.tolist(), sts.tolist(), lns.tolist()):
            layout.setdefault(int(b), []).append((bi, int(s), int(ln)))
    return bucketed, refs, layout


def label_propagation(
    pairs: Dataset, n_buckets: int = 32, max_iter: int = 60,
    stats: dict | None = None,
) -> Dataset:
    """Distributed connected components → Dataset(node, label) where label
    is the uint64-min member of the node's component (int64 bit-pattern).

    Min-label propagation with pointer jumping, ONE fused bucketed
    exchange per round (the previous design paid two — an *answer*
    exchange that also re-shuffled every static edge row each round, and
    a *reduce* exchange):

    - static edges never enter the exchange: they are bucketed ONCE into
      plasma blocks (``_edge_store``) and each step slices its bucket's
      edges out of node-cached blocks;
    - the per-bucket step reduces labels+messages to
      ``new = min(own, neighbors', label(label))``, then — *delta
      propagation* — only nodes whose label CHANGED this step emit
      neighbor messages ``(dst, new_label)``; answers to the previous
      round's jump requests and the next round's requests
      ``(label, node)`` are generated in the same step from the
      post-reduce labels.

    Per-round shuffle bytes are labels + in-flight messages/requests
    (V-bounded + delta-bounded), not 2E + V as before. Convergence is a
    full-state checksum over ALL row kinds: label rows alone would be
    unsound here because replies generated this round are consumed next
    round (a quiet round can precede a reply-driven change).

    Round count is Θ(graph diameter) — a min crosses one edge per round
    and pointer jumping only compresses the (shallow) label forest, not
    the graph — which is 2-5 rounds on the dense components near-dup
    graphs almost always produce, but linear on chains. The delta phase
    therefore caps at 12 rounds; graphs still unconverged hand their
    current labels + the static edge store to
    ``_components_contraction`` (min-star contraction, O(log n) rounds,
    higher per-round bytes), so chain-shaped components — fragment-rep
    chains from straddled lsh buckets, incremental version chains —
    converge instead of raising."""

    def init_rows(batch: pa.Table) -> pa.Table:
        # Reads the DIRECTED edge-store rows (src, dst) — each undirected
        # pair appears once per direction, so one label + one seed
        # message per row reproduces the per-endpoint seeding. Seeding
        # from the materialized store (not a second execution of the
        # caller's pairs lineage) makes store/seed divergence impossible
        # by construction: a lazy, nondeterministically re-executed
        # pairs Dataset could otherwise leave an edge in the store with
        # no seed label (RuntimeError mid-run) or a seeded node with no
        # edge (silent under-merge).
        if len(batch) == 0 or "src" not in batch.column_names:
            return _LP_SCHEMA.empty_table()
        src = batch.column("src").to_numpy(zero_copy_only=False)
        dst = batch.column("dst").to_numpy(zero_copy_only=False)
        lo = _enc_np(
            np.minimum(src.view(np.uint64), dst.view(np.uint64)).view(np.int64)
        )
        return pa.concat_tables(
            [
                # identity labels (deduped by the first fused reduce)
                _lp_rows(src, _enc_np(src), _LP_LAB),
                # seed messages: each endpoint hears the edge's min —
                # the kick-start the delta regime needs (afterwards only
                # label CHANGES are broadcast)
                _lp_rows(src, lo, _LP_MSG),
            ]
        )

    def _min_per_key(k: np.ndarray, v: np.ndarray):
        order = np.lexsort((v, k))
        ks, vs = k[order], v[order]
        first = np.ones(len(ks), dtype=bool)
        if len(ks) > 1:
            first[1:] = ks[1:] != ks[:-1]
        return ks[first], vs[first]  # v sorted within key → first is min

    # built before the closure so fused_step captures refs + layout only
    store_ds, store_refs, store_layout = _edge_store(pairs, n_buckets)

    def fused_step(group: pa.Table) -> pa.Table:
        """One propagation step for one node bucket: reduce incoming
        labels+messages, emit delta neighbor messages from this bucket's
        static edge slice, answer jump requests, issue next requests."""
        kind = group.column("kind").to_numpy(zero_copy_only=False)
        k = group.column("k").to_numpy(zero_copy_only=False)
        v = group.column("v").to_numpy(zero_copy_only=False)
        labm = kind == _LP_LAB
        msgm = kind == _LP_MSG
        reqm = kind == _LP_REQ

        nodes, newlab = _min_per_key(
            np.concatenate([k[labm], k[msgm]]),
            np.concatenate([v[labm], v[msgm]]),
        )
        onodes, oldlab = _min_per_key(k[labm], v[labm])
        if not np.array_equal(nodes, onodes):
            # every message targets an edge endpoint and every endpoint
            # is seeded with a label row in its own bucket — a mismatch
            # means rows were mis-routed; merging would corrupt labels
            raise RuntimeError("label_propagation: message to unlabeled node")
        changed = newlab < oldlab

        out = [_lp_rows(nodes, newlab, _LP_LAB)]

        # delta edge messages: only changed nodes notify their neighbors
        if changed.any():
            # the group carries its bucket id (appended by _lp_exchange
            # before the groupby); reading it — instead of re-hashing a
            # key — cannot desynchronize from the exchange's routing if
            # the bucket formula ever changes (_edge_store uses the same
            # fmix(src) % n_buckets, asserted by the store lookup below)
            bk = int(group.column("__bucket")[0].as_py())
            pieces = store_layout.get(bk)
            if pieces:
                parts = [
                    ray.get(store_refs[bi]).slice(s, ln)
                    for bi, s, ln in pieces
                ]
                et = parts[0] if len(parts) == 1 else pa.concat_tables(parts)
                src = et.column("src").to_numpy(zero_copy_only=False)
                dstc = et.column("dst").to_numpy(zero_copy_only=False)
                cn, cl = nodes[changed], newlab[changed]
                lo = np.searchsorted(src, cn, "left")
                hi = np.searchsorted(src, cn, "right")
                lens = hi - lo
                total = int(lens.sum())
                if total:
                    base = np.repeat(lo, lens)
                    off = np.arange(total) - np.repeat(
                        np.cumsum(lens) - lens, lens
                    )
                    dst = dstc[base + off]
                    lab = np.repeat(cl, lens)
                    # telling dst its own id is a no-op (labels only
                    # decrease); dedupe identical (dst, label) messages
                    useful = lab != _enc_np(dst)
                    dst, lab = dst[useful], lab[useful]
                    if len(dst):
                        order = np.lexsort((lab, dst))
                        dst, lab = dst[order], lab[order]
                        first = np.ones(len(dst), dtype=bool)
                        if len(dst) > 1:
                            first[1:] = (dst[1:] != dst[:-1]) | (
                                lab[1:] != lab[:-1]
                            )
                        out.append(_lp_rows(dst[first], lab[first], _LP_MSG))

        # answer the previous round's jump requests from POST-reduce labels
        if reqm.any():
            tgt = k[reqm]
            i = np.minimum(np.searchsorted(nodes, tgt), len(nodes) - 1)
            ok = nodes[i] == tgt
            req = v[reqm][ok]
            lab = newlab[i][ok]
            useful = lab != _enc_np(req)
            if useful.any():
                out.append(_lp_rows(req[useful], lab[useful], _LP_MSG))

        # next round's requests: every non-root asks for label(label)
        nonroot = newlab != _enc_np(nodes)
        if nonroot.any():
            out.append(
                _lp_rows(_dec_np(newlab[nonroot]), nodes[nonroot], _LP_REQ)
            )
        return pa.concat_tables(out)

    def checksum(state: Dataset) -> int:
        """Order-insensitive FULL-state fixpoint detector: XOR of mixed
        (k, v, kind) over every row kind. Label rows alone are not
        enough — replies emitted this round land next round, so a state
        with identical labels but different in-flight messages is not a
        fixpoint. One 8-byte partial per batch reaches the driver."""

        def part(b: pa.Table) -> pa.Table:
            n = b.column("k").to_numpy(zero_copy_only=False).view(np.uint64)
            l = b.column("v").to_numpy(zero_copy_only=False).view(np.uint64)
            kd = b.column("kind").to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                x = int(
                    np.bitwise_xor.reduce(
                        fmix64(fmix64(n ^ (kd * np.uint64(0x9E3779B97F4A7C15))) ^ l),
                        initial=np.uint64(0),
                    )
                )
            return pa.table({"x": pa.array([x - (1 << 63)], pa.int64())})

        tot = 0
        for b in state.map_batches(part, batch_format="pyarrow").iter_batches(
            batch_size=1 << 20, batch_format="pyarrow"
        ):
            for val in b.column("x").to_numpy(zero_copy_only=False):
                tot ^= int(val) + (1 << 63)
        return tot

    import os as _os
    import sys as _sys
    import time as _time

    _timing = bool(_os.environ.get("DEDUP_TIMING"))
    _t0 = _time.monotonic()

    from .exchange import ensure_schema

    # round 0: the fused step over the seed rows — dedupes identity
    # labels, applies seed messages, emits the first delta messages and
    # jump requests
    state = _lp_exchange(
        ensure_schema(
            store_ds.map_batches(init_rows, batch_format="pyarrow"), _LP_SCHEMA
        ),
        fused_step,
        n_buckets,
    ).materialize()
    prev = checksum(state)
    converged = False
    rounds = 1
    # The delta engine moves a min ONE edge hop per round, so its round
    # count is Θ(graph diameter) — optimal bytes for the dense, shallow
    # components near-dup graphs almost always are, linear (and at
    # max_iter a crash) on chain shapes (fragment-rep chains from
    # straddled lsh buckets, incremental version chains). Cap the cheap
    # delta phase and hand unconverged graphs to the min-star
    # contraction finisher (O(log n) rounds) instead of failing.
    delta_cap = min(max_iter, 12)
    for _it in range(delta_cap):
        rounds += 1
        if _timing:
            print(
                f"[label_propagation] round {_it} start "
                f"(+{_time.monotonic() - _t0:.1f}s)",
                file=_sys.stderr,
                flush=True,
            )
        state = _lp_exchange(state, fused_step, n_buckets).materialize()
        cur = checksum(state)
        if cur == prev:
            converged = True
            break
        prev = cur
    if stats is not None:
        stats["rounds"] = rounds

    def dec(batch: pa.Table) -> pa.Table:
        kind = batch.column("kind").to_numpy(zero_copy_only=False)
        m = pa.array(kind == _LP_LAB)
        t = batch.filter(m)
        lab = _dec_np(t.column("v").to_numpy(zero_copy_only=False))
        return pa.table(
            {"node": t.column("k"), "label": pa.array(lab, pa.int64())}
        )

    if not converged:
        # contraction finisher: seed = the delta phase's current labels
        # (encoded; label pointers only decrease, so the seed is a valid
        # forest), edges = the already-materialized static store
        lab_seed = state.map_batches(
            lambda b: pa.table(
                {
                    "node": b.filter(
                        pa.array(
                            b.column("kind").to_numpy(zero_copy_only=False)
                            == _LP_LAB
                        )
                    ).column("k"),
                    "label": b.filter(
                        pa.array(
                            b.column("kind").to_numpy(zero_copy_only=False)
                            == _LP_LAB
                        )
                    ).column("v"),
                }
            ),
            batch_format="pyarrow",
        )

        def store_edges(b: pa.Table) -> pa.Table:
            if len(b) == 0 or "src" not in b.column_names:
                return pa.table(
                    {"a": pa.array([], pa.int64()),
                     "b": pa.array([], pa.int64())}
                )
            return pa.table({"a": b.column("src"), "b": b.column("dst")})

        final = _components_contraction(
            store_ds.map_batches(store_edges, batch_format="pyarrow"),
            lab_seed, n_buckets=n_buckets, stats=stats,
        )
        return final.map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "label": pa.array(
                        _dec_np(
                            t.column("label").to_numpy(zero_copy_only=False)
                        ),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )

    return state.map_batches(dec, batch_format="pyarrow")
