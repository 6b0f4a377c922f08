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

Pairs are found, verified and clustered by the candidate engine
(``candidates.component_labels``) with the SimHash kernel
(``simhash_kernel``): block-combination keys (``_block_keys``) at the
``_block_scheme`` rung, Hamming distance ≤ ``hamming_max`` as the
check. Its memory tier reads a pinned fingerprint set within
``exchange._DRIVER_READ_MAX`` rows onto the driver (only the
``pipeline.scan_sign`` pin, which ingests and fingerprints in one scan,
and the caller's collect execute); a bigger pin takes its exchange tier
(star pass → components → per-group regen + check + label). Both
tiers run one code path and return the same labels, which
``pipeline.assign_clusters`` turns into clusters — on the driver while
they fit ``cfg.broadcast_max_rows``, by bucketed joins past it.

Complementary to MinHash: SimHash Hamming distance tracks cosine/token
-frequency similarity rather than set Jaccard; 8 bytes per doc instead
of 1 KiB of signature.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from .candidates import Kernel, component_labels
from .config import DedupConfig
from .hashing import U64, fmix64
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
    concatenated per key). Docs with no shingles get no rows."""
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


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a.view(U64) ^ b.view(U64)).view(np.uint8).reshape(len(a), 8)
    return np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)


def simhash_kernel(
    n_docs: int, cfg: DedupConfig, hamming_max: int, exact_multiset: bool
) -> Kernel:
    """The candidate engine's SimHash kernel: ``_block_keys`` at the
    ``_block_scheme`` rung for ``n_docs`` fingerprints; a pair passes at
    Hamming distance ≤ ``hamming_max`` (and, in ``exact_multiset`` mode,
    equal multiset hashes), with sim = 1 − d/64."""
    rung = _block_scheme(n_docs, hamming_max, cfg.allpairs_bucket_max)

    def keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        return _block_keys(
            *(t.column(c).to_numpy(zero_copy_only=False)
              for c in ("doc_hash", "simhash", "n_shingles")),
            *rung,
        )

    def check(g: pa.Table, a: np.ndarray, b: np.ndarray):
        ids, vals, msets = (
            g.column(c).to_numpy(zero_copy_only=False)
            for c in ("doc_hash", "simhash", "mset_hash")
        )
        o = np.argsort(ids)
        ids_s = ids[o]
        # a, b are group members by construction — searchsorted hits
        ia, ib = o[np.searchsorted(ids_s, a)], o[np.searchsorted(ids_s, b)]
        d = _hamming(vals[ia], vals[ib])
        keep = d <= hamming_max
        if exact_multiset:
            keep &= msets[ia] == msets[ib]
        return keep, 1.0 - d / 64.0

    return Kernel(["doc_hash", "simhash", "n_shingles", "mset_hash"], keys, check)


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

    One scan ingests and fingerprints the pages (``pipeline.scan_sign``;
    no text is pinned), and ``pipeline.signed_reps`` keeps one
    fingerprint per distinct hash. Tiers (module docstring): a small
    pin finds, verifies and clusters its pairs on the driver; otherwise
    the engine's exchange tier.
    """
    from .pipeline import assign_clusters, scan_sign, signed_reps

    cfg = cfg or DedupConfig()
    # one scan ingests and fingerprints the first row per hash of each
    # batch; the reps come with the url counts that size the clusters
    pin = scan_sign(pages, cfg, SimHasher(cfg))
    fps, dup_hashes, dup_cnts = signed_reps(pin, cfg)
    k = simhash_kernel(fps.count(), cfg, hamming_max, exact_multiset)
    labels = component_labels(fps, cfg, k)
    return assign_clusters(pin, labels, dup_hashes, dup_cnts, cfg, _OUT)
