"""SimHash near-duplicate detection.

A 64-bit SimHash per distinct document (sign of the per-bit sum of ±1
contributions from each distinct shingle hash), then candidate pairs via
block-combination bucketing (Manku et al., WWW'07): the 64 bits split
into ``ham_max + choose`` near-equal blocks; ≤ ham_max differing bits
dirty ≤ ham_max blocks, so SOME combination of ``choose`` clean blocks
matches between any pair inside the Hamming ball — recall 1.0 by
pigeonhole at every rung of the ladder. The rung is picked per corpus
(``_block_scheme``): more blocks-per-key = wider keys = lower bucket
occupancy, because what scale actually breaks is occupancy — a 16-bit
key space (the classic 4×16 chunk trick, this module's previous
default) collapses past ~4M docs: mean bucket size exceeds
``allpairs_bucket_max``, buckets degrade to star edges, and
member-pair recall silently dies. Verified by exact Hamming distance,
clustered with union-find.

Two tiers, chosen by ``exchange.pinned_table``'s guard on the pinned
fingerprints (8 bytes per distinct doc):

- **memory tier** (a pin within ``exchange._DRIVER_READ_MAX`` rows): the
  fingerprints are read onto the driver with no execution; block keys
  (``_block_keys``), the exact per-bucket pair set
  (``lsh.segment_pairs``) and the Hamming check (``_verify_hamming``)
  run in memory. Only the ingest pin, the fingerprint pin and the
  caller's collect execute.
- **exchange tier** (a lazy input or a bigger pin): combination keys
  feed ``lsh.candidate_pairs`` (sort-based star emission with boundary
  chaining — the skew-proof pair generator), pairs deduplicate in a
  narrow exchange (``verify.dedup_pairs``), and verification is
  size-guarded: a driver-sized set (≤ cfg.driver_verify_max) collects
  its fingerprints and checks locally (``_verify_hamming``), a larger
  one takes two bucketed fingerprint joins and checks Hamming inside
  the exchange — the driver never holds a corpus-shaped pair stream.

The memory tier's pairs are the exact per-bucket set over the TRUE
bucket, as in the flagship's memory tier (``candidates.py``), so the
tiers differ only in the sorted-block fragment corner cases listed
there: pairs split across fragments of one bucket are emitted (the
exchange tier chains fragments but skips their cross-fragment pairs),
and an over-cap bucket gets stars at its true size and true min. Every
emitted pair is Hamming-checked on both tiers, so no unverified edge
enters a cluster. Both tiers assign clusters through
``pipeline.assign_clusters``, the flagship's driver assignment.

Complementary to MinHash: SimHash Hamming distance tracks cosine/token
-frequency similarity rather than set Jaccard; 8 bytes per doc instead
of 1 KiB of signature.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from .config import DedupConfig
from .exchange import collect_table, dup_key_counts, pinned_table, semi_filter
from .hashing import U64, fmix64
from .lsh import candidate_pairs, segment_pairs
from .minhash import _token_lists, shingle_hashes
from .schema import CLUSTERS

# output schema: the flagship's clusters table without size_bytes
_OUT = CLUSTERS.remove(CLUSTERS.get_field_index("size_bytes"))

_CHUNKC = np.uint64(0x165667B19E3779F9)


class SimHasher:
    """map_batches callable: (doc_hash, text) → (doc_hash, simhash, n_shingles)."""

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        th, counts = _token_lists(text, self.cfg.token_hash)
        sh, n_sh = shingle_hashes(th, counts, self.cfg.shingle_k)
        n_docs = len(counts)
        out = np.zeros(n_docs, dtype=U64)
        nz = n_sh > 0
        if nz.any():
            # per-bit popcount-sum with a reused scratch column instead of
            # an unpacked (S,64) matrix — fresh multi-MB temporaries pay
            # first-touch page faults far exceeding the arithmetic
            from .hashing import _scratch

            starts = (np.cumsum(n_sh) - n_sh)[nz].astype(np.int64)
            seg_n = n_sh[nz].astype(np.int64)
            col = _scratch("simhash_col", len(sh), U64)
            fp = np.zeros(int(nz.sum()), dtype=U64)
            one = np.uint64(1)
            with np.errstate(over="ignore"):
                for j in range(64):
                    np.right_shift(sh, np.uint64(j), out=col)
                    col &= one
                    ones = np.add.reduceat(col, starts)
                    # bit j set ⇔ ones > zeros ⇔ 2*ones > n_shingles
                    fp |= ((2 * ones > seg_n.view(U64)).astype(U64) << np.uint64(j))
            out[nz] = fp
        # 64-bit shingle-MULTISET hash (wrapping sum of mixed shingle
        # hashes over ALL occurrences — commutative). Powers the
        # exact_multiset mode: hamming-0 alone is only a probabilistic
        # proxy for multiset equality (near-identical docs can vote every
        # bit the same way).
        mset = np.zeros(len(counts), dtype=U64)
        if nz.any():
            with np.errstate(over="ignore"):
                # shingles are doc-contiguous → segment sum via reduceat
                # (np.add.at's unbuffered scatter is ~10× slower here)
                contrib = fmix64(sh ^ np.uint64(0xD6E8FEB86659FD93))
                mset[nz] = np.add.reduceat(contrib, starts)
        return pa.table(
            {
                "doc_hash": batch.column("doc_hash"),
                "simhash": pa.array(out.view(np.int64), pa.int64()),
                "n_shingles": pa.array(n_sh, pa.int64()),
                "mset_hash": pa.array(mset.view(np.int64), pa.int64()),
            }
        )


def simhash_fingerprints(reps: Dataset, cfg: DedupConfig) -> Dataset:
    return reps.map_batches(
        SimHasher(cfg), batch_format="pyarrow",
        batch_size=cfg.batch_size, zero_copy_batch=True,
    )


def _block_scheme(n_docs: int, ham_max: int, cap: int) -> tuple[int, int]:
    """→ (n_blocks, choose): cheapest block-combination rung whose
    EXPECTED bucket occupancy keeps the all-pairs guarantee effective.

    Recall inside the Hamming-``ham_max`` ball is 1.0 at every rung
    (pigeonhole, module docstring); the rungs trade band-row volume
    (C(n_blocks, choose) rows/doc) against key width
    (~choose·64/n_blocks bits). Mean occupancy n_docs/2^bits must stay
    well under ``allpairs_bucket_max`` or buckets degrade to star edges
    and member-pair recall collapses — the ladder picks the first rung
    with occupancy ≤ cap/4 (ham_max=3: 4 rows/doc+16-bit keys to ~1M
    docs, 10 rows+~24-bit to ~250M, 20 rows+~30-bit past that, good to
    ~10^10 at the default cap)."""
    for choose in (1, 2, 3):
        n_blocks = ham_max + choose
        bits = min(62, (64 // n_blocks) * choose)
        if n_docs / float(1 << bits) <= cap / 4:
            return n_blocks, choose
    return ham_max + 3, 3


def _block_keys(
    dh: np.ndarray, sh: np.ndarray, n_shingles: np.ndarray,
    n_blocks: int = 4, choose: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Fingerprints → (doc_hash, bkey) arrays, one row per block
    combination (``choose`` of ``n_blocks`` near-equal blocks
    concatenated per key). Docs with no shingles get no rows. The one
    key kernel of both tiers."""
    from itertools import combinations

    combos = list(combinations(range(n_blocks), choose))
    base, extra = divmod(64, n_blocks)
    widths = [base + (1 if i < extra else 0) for i in range(n_blocks)]
    offs = np.cumsum([0] + widths[:-1]).astype(np.uint64)
    has = n_shingles > 0
    dh, sh = dh[has], sh.view(U64)[has]
    keys = []
    with np.errstate(over="ignore"):
        blocks = [
            (sh >> offs[i]) & ((np.uint64(1) << np.uint64(widths[i])) - np.uint64(1))
            for i in range(n_blocks)
        ]
        for ci, combo in enumerate(combos):
            acc = np.zeros(len(sh), dtype=U64)
            for i in combo:
                acc = acc * _CHUNKC + blocks[i]
            keys.append(fmix64(acc ^ ((U64(ci) + U64(1)) * _CHUNKC)))
    return np.tile(dh, len(combos)), np.concatenate(keys).view(np.int64)


def _chunk_rows(fps: Dataset, n_blocks: int = 4, choose: int = 1) -> Dataset:
    """fingerprints → (doc_hash, bkey) rows (``_block_keys`` per batch)."""

    def fn(batch: pa.Table) -> pa.Table:
        dh, bkey = _block_keys(
            *(batch.column(c).to_numpy(zero_copy_only=False)
              for c in ("doc_hash", "simhash", "n_shingles")),
            n_blocks, choose,
        )
        return pa.table(
            {"doc_hash": pa.array(dh, pa.int64()),
             "bkey": pa.array(bkey, pa.int64())}
        )

    return fps.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a.view(U64) ^ b.view(U64)).view(np.uint8).reshape(len(a), 8)
    return np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)


def _verify_hamming(
    a: np.ndarray, b: np.ndarray, fp: pa.Table, hamming_max: int,
    exact_multiset: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (a, b) → the pairs whose fingerprints in ``fp``
    (doc_hash, simhash, mset_hash) are within ``hamming_max`` bits (and,
    in ``exact_multiset`` mode, have equal multiset hashes). A pair with
    a doc missing from ``fp`` is dropped."""
    if not len(a):
        return a, b
    ids, vals, msets = (
        fp.column(c).to_numpy(zero_copy_only=False)
        for c in ("doc_hash", "simhash", "mset_hash")
    )
    o = np.argsort(ids)
    ids, vals, msets = ids[o], vals[o], msets[o]
    ia = np.minimum(np.searchsorted(ids, a), len(ids) - 1)
    ib = np.minimum(np.searchsorted(ids, b), len(ids) - 1)
    ok = (ids[ia] == a) & (ids[ib] == b)
    d = np.full(len(a), 64, np.int64)
    d[ok] = _hamming(vals[ia[ok]], vals[ib[ok]])
    keep = d <= hamming_max
    if exact_multiset:
        keep &= ok & (msets[ia] == msets[ib])
    return a[keep], b[keep]


def _exchange_edges(
    fps: Dataset, cfg: DedupConfig, hamming_max: int, exact_multiset: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The exchange tier's verified edges: band sort → ``dedup_pairs``
    → driver or bucketed-join Hamming check."""
    chunks = _chunk_rows(
        fps, *_block_scheme(fps.count(), hamming_max, cfg.allpairs_bucket_max)
    )
    pairs, chain = candidate_pairs(chunks, cfg)
    if len(chain):
        pairs = pairs.union(rd.from_arrow(chain))

    # size-guarded verification: deduplicate the (band-repeated) pair
    # stream in a narrow exchange first, then pick the tier by count —
    # the driver path was previously unconditional, a corpus-shaped
    # driver collect at scale
    from .verify import dedup_pairs

    deduped = dedup_pairs(pairs, n_buckets=cfg.join_buckets).materialize()
    n_pairs = deduped.count()
    empty = np.empty(0, np.int64)
    if not n_pairs:
        return empty, empty
    if n_pairs <= cfg.driver_verify_max:
        pt = collect_table(deduped)
        a = pt.column("a").to_numpy(zero_copy_only=False)
        b = pt.column("b").to_numpy(zero_copy_only=False)
        cand = np.sort(np.unique(np.concatenate([a, b])))
        sub = collect_table(
            semi_filter(
                fps.select_columns(["doc_hash", "simhash", "mset_hash"]),
                "doc_hash", cand,
                max_broadcast_rows=cfg.broadcast_max_rows,
                n_buckets=cfg.join_buckets,
            )
        )
        return _verify_hamming(a, b, sub, hamming_max, exact_multiset)
    # distributed tier: fingerprints attach through two bucketed joins;
    # Hamming checks run inside the exchange and only the (dup-bounded)
    # verified edges ever reach the driver
    from .exchange import bucketed_join

    fa = fps.map_batches(
        lambda t: pa.table(
            {"__fa": t.column("doc_hash"), "__sa": t.column("simhash"),
             "__ma": t.column("mset_hash")}
        ),
        batch_format="pyarrow",
    )
    fb = fps.map_batches(
        lambda t: pa.table(
            {"__fb": t.column("doc_hash"), "__sb": t.column("simhash"),
             "__mb": t.column("mset_hash")}
        ),
        batch_format="pyarrow",
    )
    j = bucketed_join(
        bucketed_join(deduped, fa, "a", "__fa", how="left",
                      n_buckets=cfg.join_buckets),
        fb, "b", "__fb", how="left", n_buckets=cfg.join_buckets,
    )

    def check(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok_m = pc.and_(
            pc.is_valid(t.column("__sa")), pc.is_valid(t.column("__sb"))
        )
        t = t.filter(ok_m)
        sa = t.column("__sa").to_numpy(zero_copy_only=False)
        sb = t.column("__sb").to_numpy(zero_copy_only=False)
        keep = _hamming(sa, sb) <= hamming_max
        if exact_multiset:
            ma = t.column("__ma").to_numpy(zero_copy_only=False)
            mb = t.column("__mb").to_numpy(zero_copy_only=False)
            keep &= ma == mb
        t = t.filter(pa.array(keep))
        return pa.table({"a": t.column("a"), "b": t.column("b")})

    et = collect_table(j.map_batches(check, batch_format="pyarrow"))
    if not len(et):
        return empty, empty
    return (
        et.column("a").to_numpy(zero_copy_only=False),
        et.column("b").to_numpy(zero_copy_only=False),
    )


def simhash_clusters(
    pages: Dataset,
    cfg: DedupConfig | None = None,
    hamming_max: int = 3,
    exact_multiset: bool = False,
) -> Dataset:
    """pages → clusters table (url, doc_hash, cluster_id, cluster_size)
    of docs whose SimHashes are within ``hamming_max`` (plus exact dups).

    ``exact_multiset=True``: candidate pairs must additionally have equal
    shingle-MULTISET hashes — a deterministic, SQL-mirrorable partition
    (group docs by shingle multiset) used by the oracle-checked
    ``simhash_exact_mode`` query.

    Tiers (module docstring): a small fingerprint pin finds, verifies
    and clusters its pairs on the driver; otherwise the exchange tier.
    """
    from .ingest import ingest
    from .pipeline import assign_clusters, distinct_reps
    from .unionfind import components_np

    cfg = cfg or DedupConfig()
    ing = ingest(pages, cfg).materialize()  # consumed by reps + assignment
    # one count serves rep selection AND cluster sizing (no execution
    # while the pin fits exchange.pinned_table's guard)
    dup_hashes, dup_cnts = dup_key_counts(ing, "doc_hash")
    # reps has exactly one consumer (the fingerprint pass, pinned next
    # line): leave it lazy so rep texts stream straight into the
    # fingerprinter without an extra full-text object-store round-trip
    reps = distinct_reps(
        ing, dups=dup_hashes, n_buckets=cfg.join_buckets,
        max_broadcast_rows=cfg.broadcast_max_rows,
    )
    fps = simhash_fingerprints(reps, cfg).materialize()
    fp = pinned_table(fps, ["doc_hash", "simhash", "n_shingles", "mset_hash"])
    if fp is None:
        edges_a, edges_b = _exchange_edges(fps, cfg, hamming_max, exact_multiset)
    elif len(fp):
        cols = [
            fp.column(c).to_numpy(zero_copy_only=False)
            for c in ("doc_hash", "simhash", "n_shingles")
        ]
        kd, bk = _block_keys(
            *cols, *_block_scheme(len(fp), hamming_max, cfg.allpairs_bucket_max)
        )
        a, b = segment_pairs(bk, kd, cfg.allpairs_bucket_max)
        edges_a, edges_b = _verify_hamming(a, b, fp, hamming_max, exact_multiset)
    else:  # an empty pin: nothing to pair
        edges_a = edges_b = np.empty(0, np.int64)

    keys, cids = components_np(edges_a, edges_b)
    return assign_clusters(ing, keys, cids, dup_hashes, dup_cnts, cfg, _OUT)
