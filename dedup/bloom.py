"""Bloom-filter membership screening for corpus-scale exact dedup.

The 100-TB regime for incremental dedup (new crawl batch vs a
10^10-doc corpus) cannot afford to ship or scan the corpus hash set per
batch. A Bloom filter over the corpus ``doc_hash`` column is the classic
answer (Bloom 1970; Broder & Mitzenmacher, "Network applications of
Bloom filters", 2004): ~10 bits/key at 1% false-positive rate — a
10^10-doc corpus fits a ~12 GiB sidecar, and a batch probe touches zero
corpus I/O for every true-new key the filter rejects. Because Bloom
filters have NO false negatives, "not in filter" is definitive; only the
(true-dup + fpp·batch) "maybe" remainder needs an exact confirmation
probe against the index, so the output is EXACTLY the anti-join — the
filter is a pure I/O screen, never a correctness approximation. That
contract is what the ``bloom_new_docs`` oracle pins.

Reference analogue: the checksum-memoization read path
(src/file_db.rs:353-454, src/process_matches.rs:435-452 — "is this
content already known?"), restated as a constant-size broadcastable
sketch instead of a DB query per item.

Two build regimes:

- **small filters** (``bloom_build``): each input block folds its keys
  into a partial filter inside ``map_batches`` (vectorized double
  hashing, Kirsch & Mitzenmacher 2006: h_i = h1 + i·h2); the driver
  OR-reduces one ``m/8``-byte blob per block as they stream in. Right
  while ``m/8 × n_blocks`` driver ingress is cheap (up to ~10^8 keys).
- **sharded** (``bloom_build_sharded`` / ``ShardedBloom``): the filter
  is split into S independent shards routed by a hash of the key
  (single-shard probes — the route is a pure function of ``doc_hash``).
  The build routes keys to shard-pure groups with ONE narrow groupby
  (8 B/key rows) and each group task builds its whole ``m/S``-bit shard
  directly from its co-located keys — **no full-size per-block partial
  blobs exist at any point** and the driver receives exactly S blobs
  (= one filter's worth, streamed to disk one shard file at a time).
  At the 10^10-key regime (~12 GiB total) S is sized so one shard fits
  a worker (``write_bloom_sidecar`` auto-picks ~64 MiB shards); probe
  tasks touch only the shards their batch's keys route to.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from .hashing import fmix64

U64 = np.uint64
_MAGIC = b"BLM1"


class BloomFilter:
    """Vectorized Bloom filter over uint64 keys (numpy bit array)."""

    def __init__(self, m_bits: int, k: int, words: np.ndarray | None = None):
        if m_bits <= 0 or k <= 0:
            raise ValueError("m_bits and k must be positive")
        self.m_bits = int(m_bits)
        self.k = int(k)
        n_words = (self.m_bits + 63) // 64
        if words is None:
            words = np.zeros(n_words, dtype=np.uint64)
        if len(words) != n_words:
            raise ValueError("word array does not match m_bits")
        self.words = words

    # -- parameter selection -------------------------------------------
    @classmethod
    def for_capacity(cls, n_expected: int, fpp: float = 0.01) -> "BloomFilter":
        """Optimal (m, k) for ``n_expected`` keys at target false-positive
        probability: m = -n·ln p / ln²2, k = (m/n)·ln 2."""
        n = max(1, int(n_expected))
        m = max(64, int(math.ceil(-n * math.log(fpp) / (math.log(2) ** 2))))
        k = max(1, int(round(m / n * math.log(2))))
        return cls(m, k)

    # -- hashing (double hashing over two fmix64 streams) ---------------
    def _h12(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = np.ascontiguousarray(keys).view(U64)
        with np.errstate(over="ignore"):
            h1 = fmix64(u)
            h2 = fmix64(u ^ U64(0x9E3779B97F4A7C15)) | U64(1)
        return h1, h2

    def add_many(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        h1, h2 = self._h12(keys)
        m = U64(self.m_bits)
        with np.errstate(over="ignore"):
            for i in range(self.k):
                idx = (h1 + U64(i) * h2) % m
                np.bitwise_or.at(
                    self.words, (idx >> U64(6)).astype(np.int64),
                    U64(1) << (idx & U64(63)),
                )

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """→ bool mask; False is definitive (no false negatives)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        h1, h2 = self._h12(keys)
        m = U64(self.m_bits)
        out = np.ones(len(keys), dtype=bool)
        with np.errstate(over="ignore"):
            for i in range(self.k):
                idx = (h1 + U64(i) * h2) % m
                bit = (
                    self.words[(idx >> U64(6)).astype(np.int64)]
                    >> (idx & U64(63))
                ) & U64(1)
                out &= bit.astype(bool)
        return out

    # -- merge / serialize ----------------------------------------------
    def union_(self, other: "BloomFilter") -> "BloomFilter":
        if (other.m_bits, other.k) != (self.m_bits, self.k):
            raise ValueError("cannot union filters with different params")
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def or_words(self, words: np.ndarray) -> None:
        np.bitwise_or(self.words, words, out=self.words)

    def to_bytes(self) -> bytes:
        head = _MAGIC + np.array([self.m_bits, self.k], dtype="<u8").tobytes()
        return head + self.words.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "BloomFilter":
        if buf[:4] != _MAGIC:
            raise ValueError("not a bloom sidecar")
        m_bits, k = np.frombuffer(buf, dtype="<u8", count=2, offset=4)
        words = np.frombuffer(buf, dtype="<u8", offset=20).astype(np.uint64)
        return cls(int(m_bits), int(k), words)


def bloom_build(
    ds: Dataset, col: str, n_expected: int, fpp: float = 0.01
) -> BloomFilter:
    """Distributed build: per-block partial filters inside map_batches,
    streamed to the driver as m/8-byte blobs and OR-reduced — the driver
    holds the filter plus one blob, never the key column."""
    proto = BloomFilter.for_capacity(n_expected, fpp)
    m_bits, k = proto.m_bits, proto.k

    def part(batch: pa.Table) -> pa.Table:
        f = BloomFilter(m_bits, k)
        f.add_many(
            batch.column(col).to_numpy(zero_copy_only=False).view(np.uint64)
        )
        return pa.table({"blob": pa.array([f.words.tobytes()], pa.large_binary())})

    out = BloomFilter(m_bits, k)
    for b in ds.select_columns([col]).map_batches(
        part, batch_format="pyarrow"
    ).iter_batches(batch_size=1, batch_format="pyarrow"):
        for blob in b.column("blob"):
            out.or_words(np.frombuffer(blob.as_py(), dtype=np.uint64))
    return out


# ------------------------------------------------------------- sharding
_ROUTE_SALT = U64(0xD6E8FEB86659FD93)  # distinct from _h12's streams


def shard_route(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index per key — a pure function of the key (probes are
    single-shard), independent of the filter's own two hash streams."""
    u = np.ascontiguousarray(keys).view(U64)
    with np.errstate(over="ignore"):
        return (fmix64(u ^ _ROUTE_SALT) % U64(n_shards)).astype(np.int64)


class ShardedBloom:
    """S independent Bloom shards over a key-hash route.

    Same no-false-negative contract as ``BloomFilter`` (each key lives in
    exactly one shard and that shard is a plain Bloom filter over its key
    subset). Exposes the same ``add_many`` / ``contains_many`` surface so
    probe sites are layout-agnostic."""

    def __init__(self, shards: list[BloomFilter]):
        if not shards:
            raise ValueError("need at least one shard")
        m, k = shards[0].m_bits, shards[0].k
        if any((s.m_bits, s.k) != (m, k) for s in shards):
            raise ValueError("all shards must share (m_bits, k)")
        self.shards = shards

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def m_bits(self) -> int:  # per shard
        return self.shards[0].m_bits

    @property
    def k(self) -> int:
        return self.shards[0].k

    @classmethod
    def for_capacity(
        cls, n_expected: int, fpp: float = 0.01, n_shards: int = 1
    ) -> "ShardedBloom":
        per = -(-max(1, int(n_expected)) // n_shards)
        proto = BloomFilter.for_capacity(per, fpp)
        return cls([BloomFilter(proto.m_bits, proto.k) for _ in range(n_shards)])

    def add_many(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        r = shard_route(keys, self.n_shards)
        for s in np.unique(r).tolist():
            self.shards[s].add_many(keys[r == s])

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        r = shard_route(keys, self.n_shards)
        out = np.zeros(len(keys), dtype=bool)
        for s in np.unique(r).tolist():
            m = r == s
            out[m] = self.shards[s].contains_many(keys[m])
        return out


def bloom_build_sharded(
    ds: Dataset,
    col: str,
    n_expected: int,
    fpp: float = 0.01,
    n_shards: int = 8,
) -> ShardedBloom:
    """Distributed sharded build — the 10^10-key path.

    One narrow groupby routes keys to shard-pure groups (only 8 B/key
    rows shuffle); each group task allocates ONE ``m/S``-bit shard and
    folds its whole key subset in. No full-size partial filter is ever
    allocated per block, and the driver receives exactly ``n_shards``
    blobs (one filter's worth, total). Word-identical to a local
    ``ShardedBloom`` build over the same keys (pytest-pinned)."""
    if n_shards <= 1:
        return ShardedBloom([bloom_build(ds, col, n_expected, fpp)])
    proto = ShardedBloom.for_capacity(n_expected, fpp, n_shards)
    m_bits, k = proto.m_bits, proto.k

    def route(batch: pa.Table) -> pa.Table:
        keys = batch.column(col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                col: batch.column(col),
                "__shard": pa.array(shard_route(keys, n_shards), pa.int32()),
            }
        )

    def build_shard(group: pa.Table) -> pa.Table:
        f = BloomFilter(m_bits, k)
        f.add_many(
            group.column(col).to_numpy(zero_copy_only=False).view(np.uint64)
        )
        sid = int(group.column("__shard")[0].as_py()) if len(group) else -1
        return pa.table(
            {
                "shard": pa.array([sid], pa.int32()),
                "blob": pa.array([f.words.tobytes()], pa.large_binary()),
            }
        )

    out = ShardedBloom(
        [BloomFilter(m_bits, k) for _ in range(n_shards)]
    )
    blobs = (
        ds.select_columns([col])
        .map_batches(route, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(build_shard, batch_format="pyarrow")
    )
    for b in blobs.iter_batches(batch_size=1, batch_format="pyarrow"):
        for sid, blob in zip(
            b.column("shard").to_pylist(), b.column("blob").to_pylist()
        ):
            if sid >= 0:
                out.shards[sid].or_words(np.frombuffer(blob, dtype=np.uint64))
    return out


def bloom_split(ds: Dataset, col: str, bloom: "BloomFilter | ShardedBloom") -> Dataset:
    """Tag every row with ``__maybe`` = filter membership of ``col``.
    ``__maybe == False`` rows are DEFINITELY absent from the corpus (no
    false negatives); ``True`` rows need the exact confirmation probe.
    The word array(s) ship once via ray.put and every task reads the ONE
    plasma copy zero-copy (numpy arrays deserialize as read-only views;
    ``contains_many`` only reads) — no per-batch blob copy, no
    ``from_bytes``/``astype`` word-array round-trip. For a sharded
    filter each shard is a separate plasma object, so a multi-node probe
    pulls to a node only the shards its batches' keys route to."""
    if isinstance(bloom, ShardedBloom):
        refs = [ray.put(s.words) for s in bloom.shards]
        m_bits, k, n_shards = bloom.m_bits, bloom.k, bloom.n_shards

        def tag(batch: pa.Table) -> pa.Table:
            keys = batch.column(col).to_numpy(zero_copy_only=False).view(np.uint64)
            r = shard_route(keys, n_shards)
            out = np.zeros(len(keys), dtype=bool)
            for s in np.unique(r).tolist():
                f = BloomFilter(m_bits, k, ray.get(refs[s]))  # zero-copy
                m = r == s
                out[m] = f.contains_many(keys[m])
            return batch.append_column("__maybe", pa.array(out))

        return ds.map_batches(tag, batch_format="pyarrow")

    ref = ray.put((bloom.words, bloom.m_bits, bloom.k))

    def tag1(batch: pa.Table) -> pa.Table:
        words, m_bits, k = ray.get(ref)  # zero-copy plasma view
        f = BloomFilter(m_bits, k, words)
        keys = batch.column(col).to_numpy(zero_copy_only=False).view(np.uint64)
        return batch.append_column("__maybe", pa.array(f.contains_many(keys)))

    return ds.map_batches(tag1, batch_format="pyarrow")


# ---------------------------------------------------------------- sidecar
_SHARD_TARGET_BYTES = 64 << 20  # auto-shard so one shard file is ~64 MiB


def _auto_shards(n_expected: int, fpp: float) -> int:
    m_bytes = BloomFilter.for_capacity(max(1, n_expected), fpp).m_bits // 8
    return max(1, -(-m_bytes // _SHARD_TARGET_BYTES))


def write_bloom_sidecar(
    index_dir: str,
    docs: Dataset,
    fpp: float = 0.01,
    col: str = "doc_hash",
    n_shards: int | None = None,
) -> str:
    """Build the Bloom sidecar for a persisted incremental index
    (dedup/incremental.py layout) over the keys in ``docs[col]``
    (``build_index`` passes its signature pin). Idempotent;
    ``update_index`` appends into it in place (superset-first ordering,
    see incremental.py).

    Layouts (``read_bloom_sidecar`` handles both):
    - single-file ``bloom.bin`` when one shard suffices (small corpora);
    - directory ``bloom.d/`` of per-shard ``shard_NNNNN.bin`` files plus
      ``meta.json`` when the filter is sharded — shard files stream to
      disk one at a time, so the writer never holds more than one shard
      past the in-memory filter, and a probe can load shard files
      selectively. ``n_shards=None`` auto-sizes shards to ~64 MiB.
    """
    n = docs.count()
    S = _auto_shards(n, fpp) if n_shards is None else max(1, int(n_shards))
    if S == 1:
        f = bloom_build(docs, col, n_expected=max(n, 1), fpp=fpp)
        return _write_sidecar_obj(index_dir, f)
    sb = bloom_build_sharded(docs, col, n_expected=max(n, 1), fpp=fpp, n_shards=S)
    return _write_sidecar_obj(index_dir, sb)


def write_bloom_sidecar_keys(
    index_dir: str, keys: np.ndarray, fpp: float = 0.01
) -> str:
    """``write_bloom_sidecar`` over keys already on the driver (the
    index's memory tier): the same sizing (``fpp``, ``_auto_shards``)
    and hashing, so the same sidecar bytes, with no read of the index
    and no Ray Data execution."""
    n = len(keys)
    S = _auto_shards(n, fpp)
    if S == 1:
        bf: "BloomFilter | ShardedBloom" = BloomFilter.for_capacity(max(n, 1), fpp)
    else:
        bf = ShardedBloom.for_capacity(max(n, 1), fpp, S)
    bf.add_many(keys)
    return _write_sidecar_obj(index_dir, bf)


def _write_sidecar_obj(
    index_dir: str, bf: "BloomFilter | ShardedBloom"
) -> str:
    """Persist a filter object in its matching layout (atomic per file)."""
    import json

    import shutil

    single = os.path.join(index_dir, "bloom.bin")
    shard_dir = os.path.join(index_dir, "bloom.d")
    # Crash ordering rule: remove STALE layouts BEFORE writing the fresh
    # one. A mid-write crash then leaves NO readable sidecar (readers
    # fall back to the exact probe — safe), never a stale filter
    # shadowing the fresh one: a Bloom filter missing keys produces
    # FALSE NEGATIVES downstream, the one unacceptable failure here.
    # Within the sharded layout, meta.json is the commit point (written
    # last; a shard dir without meta is ignored by read_bloom_sidecar).
    if isinstance(bf, ShardedBloom) and bf.n_shards > 1:
        if os.path.exists(single):
            os.remove(single)
        if os.path.isdir(shard_dir):
            shutil.rmtree(shard_dir)  # stale shard count / stale keys
        os.makedirs(shard_dir, exist_ok=True)
        for i, s in enumerate(bf.shards):
            p = os.path.join(shard_dir, f"shard_{i:05d}.bin")
            with open(p + ".tmp", "wb") as fh:
                fh.write(s.to_bytes())
            os.replace(p + ".tmp", p)
        meta = os.path.join(shard_dir, "meta.json")
        with open(meta + ".tmp", "w") as fh:
            json.dump(
                {"n_shards": bf.n_shards, "m_bits": bf.m_bits, "k": bf.k}, fh
            )
        os.replace(meta + ".tmp", meta)
        return shard_dir
    f = bf.shards[0] if isinstance(bf, ShardedBloom) else bf
    if os.path.isdir(shard_dir):
        shutil.rmtree(shard_dir)
    with open(single + ".tmp", "wb") as fh:
        fh.write(f.to_bytes())
    os.replace(single + ".tmp", single)
    return single


def has_bloom_sidecar(index_dir: str) -> bool:
    return os.path.exists(os.path.join(index_dir, "bloom.bin")) or os.path.exists(
        os.path.join(index_dir, "bloom.d", "meta.json")
    )


def read_bloom_sidecar(index_dir: str) -> "BloomFilter | ShardedBloom":
    import json

    meta_p = os.path.join(index_dir, "bloom.d", "meta.json")
    if os.path.exists(meta_p):
        with open(meta_p) as fh:
            meta = json.load(fh)
        shards = []
        for i in range(int(meta["n_shards"])):
            p = os.path.join(index_dir, "bloom.d", f"shard_{i:05d}.bin")
            with open(p, "rb") as fh:
                shards.append(BloomFilter.from_bytes(fh.read()))
        return ShardedBloom(shards)
    with open(os.path.join(index_dir, "bloom.bin"), "rb") as fh:
        return BloomFilter.from_bytes(fh.read())
