"""Vectorized xxhash64 over Arrow string/binary columns.

The reference hashes file content with blake3 (full file = stage 3,
first 4096 bytes = stage 2; /root/reference/src/process_matches.rs:525-603).
Per the north rule our content identity is **xxhash64** of the extracted
text. No compiled xxhash binding exists in this environment, so this module
implements XXH64 (public algorithm, https://github.com/Cyan4973/xxHash
spec) twice:

- ``xxh64``: pure-Python reference (tests / tiny inputs only).
- ``xxh64_bytes_many`` / ``xxh64_arrow``: numpy-vectorized batch
  implementation operating directly on an Arrow string/binary array's
  buffers (no per-byte Python). This is the hot-path kernel used inside
  ``map_batches`` (ingest's ``doc_hash`` and ``short_hash``).

Exactness: both produce bit-identical XXH64 digests (property-tested
against each other and pinned to published vectors and to ingest's
persisted digests in tests/test_hashing.py).

Scale notes:

- Rows under 32 bytes (tokens, mostly) have no stripes: their bytes are
  gathered straight into an (n, 32) tail buffer, one index per byte.
- Longer rows are length-sorted and cut into chunks whose padded
  (rows, width) matrix fits ``_PAD_BUDGET``, so one 10 MiB outlier does
  not pad every row of its batch to 10 MiB. Each row is copied into the
  matrix as one slice: a memcpy per row, where a per-byte gather builds
  about five int64 index temporaries per text byte.
- The stripe loop holds the accumulator as one (rows, 4) uint64 array
  and advances all four lanes of a stripe with six in-place ufunc calls
  over the rows long enough to reach it (a suffix of the sorted chunk;
  one ``searchsorted`` finds it for every stripe). The Python-level
  work of a chunk is six calls per stripe of its longest row, whatever
  its row count, and none of them allocates.
- Measured on perfbench's seed-7 corpora (1 core; ``doc_hash`` plus the
  4 KiB ``short_hash`` prefix pass over snapshot A, median of 9 passes):
  ``crawl_unique_long`` 2.88 MB of text in 22 ms, ``crawl_dup_heavy``
  3.38 MB in 14 ms.
"""

from __future__ import annotations

import sys

import numpy as np
import pyarrow as pa

assert sys.byteorder == "little", "XXH64 kernel assumes little-endian host"

_M = (1 << 64) - 1
_P1 = 11400714785074694791
_P2 = 14029467366897019727
_P3 = 1609587929392839161
_P4 = 9650029242287828579
_P5 = 2870177450012600261

U64 = np.uint64
_u = U64  # shorthand for scalar constants below
_NP_P1, _NP_P2, _NP_P3, _NP_P4, _NP_P5 = map(_u, (_P1, _P2, _P3, _P4, _P5))


# ---------------------------------------------------------------- pure python
def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M


def xxh64(data: bytes, seed: int = 0) -> int:
    """Reference XXH64 (pure Python). For tests and tiny inputs."""
    n = len(data)
    i = 0
    if n >= 32:
        v = [(seed + _P1 + _P2) & _M, (seed + _P2) & _M, seed & _M, (seed - _P1) & _M]
        while i + 32 <= n:
            for j in range(4):
                lane = int.from_bytes(data[i + 8 * j : i + 8 * j + 8], "little")
                v[j] = (_rotl((v[j] + lane * _P2) & _M, 31) * _P1) & _M
            i += 32
        h = (_rotl(v[0], 1) + _rotl(v[1], 7) + _rotl(v[2], 12) + _rotl(v[3], 18)) & _M
        for vj in v:
            k = (_rotl((vj * _P2) & _M, 31) * _P1) & _M
            h = ((h ^ k) * _P1 + _P4) & _M
    else:
        h = (seed + _P5) & _M
    h = (h + n) & _M
    while i + 8 <= n:
        k = int.from_bytes(data[i : i + 8], "little")
        k = (_rotl((k * _P2) & _M, 31) * _P1) & _M
        h = (_rotl(h ^ k, 27) * _P1 + _P4) & _M
        i += 8
    if i + 4 <= n:
        k = int.from_bytes(data[i : i + 4], "little")
        h = (_rotl(h ^ ((k * _P1) & _M), 23) * _P2 + _P3) & _M
        i += 4
    while i < n:
        h = (_rotl(h ^ ((data[i] * _P5) & _M), 11) * _P1) & _M
        i += 1
    h ^= h >> 33
    h = (h * _P2) & _M
    h ^= h >> 29
    h = (h * _P3) & _M
    h ^= h >> 32
    return h


# ---------------------------------------------------------------- vectorized
def _np_rotl(x: np.ndarray, r: int) -> np.ndarray:
    r = _u(r)
    return (x << r) | (x >> (_u(64) - r))


def _xxh64_chunk(Z: np.ndarray, lengths: np.ndarray, seed: int) -> np.ndarray:
    """XXH64 of each row of padded uint8 matrix ``Z`` (width multiple of 32).

    Every row has ``lengths >= 32`` and ``lengths`` is ascending (caller
    sorts), so the rows a stripe reaches are a contiguous suffix. Bytes of
    ``Z`` past a row's length are never read.
    """
    n, width = Z.shape
    nstripes = width // 32
    lanes = Z.view(U64).reshape(n, nstripes, 4)  # little-endian u64 lanes

    acc = np.empty((n, 4), dtype=U64)
    acc[:] = np.array(
        [(seed + _P1 + _P2) & _M, (seed + _P2) & _M, seed & _M, (seed - _P1) & _M], U64
    )
    tmp = np.empty((n, 4), dtype=U64)
    # first row that reaches each stripe, for all stripes at once
    first = np.searchsorted(lengths, 32 * np.arange(1, nstripes + 1)).tolist()
    r31, r33 = _u(31), _u(33)
    for s, k in enumerate(first):
        if k >= n:
            break
        # acc = rotl(acc + lane * P2, 31) * P1, all four lanes in place
        a, t = acc[k:], tmp[k:]
        np.multiply(lanes[k:, s], _NP_P2, out=t)
        t += a
        np.left_shift(t, r31, out=a)
        t >>= r33
        a |= t
        a *= _NP_P1

    rot = np.array([1, 7, 12, 18], U64)
    h = ((acc << rot) | (acc >> (_u(64) - rot))).sum(axis=1, dtype=U64)
    k64 = _np_rotl(acc * _NP_P2, 31) * _NP_P1
    for j in range(4):
        h = (h ^ k64[:, j]) * _NP_P1 + _NP_P4
    h += lengths.astype(U64)

    # tail = the last len%32 bytes, which start the row's last (partial) stripe
    T = Z.reshape(n, nstripes, 32)[np.arange(n), np.minimum(lengths // 32, nstripes - 1)]
    return _xxh64_tail(T, lengths % 32, h)


def _xxh64_tail(T: np.ndarray, rem: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Fold the ≤31-byte tails in ``T`` (n,32 u8) into ``h``, avalanche.

    Reads only the first ``rem[i]`` bytes of row ``i``."""
    Tl = T.view(U64)  # (n, 4)
    Tu32 = T.view(np.uint32)  # (n, 8)

    for j in range(3):  # u64 tail chunks (rem <= 31 -> at most 3)
        m = rem >= (j + 1) * 8
        if not m.any():
            break
        k64 = _np_rotl(Tl[m, j] * _NP_P2, 31) * _NP_P1
        h[m] = _np_rotl(h[m] ^ k64, 27) * _NP_P1 + _NP_P4
    rem8 = rem % 8
    m = rem8 >= 4
    if m.any():
        k32 = Tu32[m, 2 * (rem[m] // 8)].astype(U64)
        h[m] = _np_rotl(h[m] ^ (k32 * _NP_P1), 23) * _NP_P2 + _NP_P3
    start_b = 8 * (rem // 8) + 4 * (rem8 >= 4)
    for t in range(3):  # single bytes (rem%4 <= 3)
        m = (rem % 4) > t
        if not m.any():
            break
        b = T[m, start_b[m] + t].astype(U64)
        h[m] = _np_rotl(h[m] ^ (b * _NP_P5), 11) * _NP_P1

    h ^= h >> _u(33)
    h *= _NP_P2
    h ^= h >> _u(29)
    h *= _NP_P3
    h ^= h >> _u(32)
    return h


def _xxh64_short(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, seed: int
) -> np.ndarray:
    """XXH64 of rows shorter than 32 bytes: no stripes, so each row's bytes
    are gathered straight into the (n, 32) tail buffer, one index per byte."""
    n = len(starts)
    T = _scratch("xxh_tail", n * 32, np.uint8).reshape(n, 32)
    total = int(lengths.sum())
    if total:
        row_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
        pos = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        T.reshape(-1)[row_of * 32 + pos] = values[starts[row_of] + pos]
    h = np.full(n, (seed + _P5) & _M, dtype=U64)
    h += lengths.astype(U64)
    return _xxh64_tail(T, lengths, h)


# max padded-matrix bytes per chunk. Small enough to stay L2-resident:
# the padded copy is written and immediately re-read by the stripe
# kernel, so a cache-sized chunk turns that round-trip into L2 traffic
# instead of RAM (measured 7x on 3 KB docs: 0.96 s -> 0.13 s per 11 MB
# at 16 MiB vs 1 MiB budgets; 256 KiB re-adds per-chunk overhead).
_PAD_BUDGET = 1024 * 1024

# Reusable per-process scratch (first-touch page faults are ~40x the
# steady-state write cost on some hosts — fresh np.zeros per batch was
# the dominant cost of the whole kernel; a touched, reused buffer pays
# only the steady-state writes).
_SCRATCH: dict[str, np.ndarray] = {}


def _scratch(name: str, count: int, dtype) -> np.ndarray:
    """Flat reusable array of ``count`` elements (NOT zeroed on reuse)."""
    need = count * np.dtype(dtype).itemsize
    buf = _SCRATCH.get(name)
    if buf is None or buf.nbytes < need:
        buf = np.zeros(max(need, _PAD_BUDGET), np.uint8)
        _SCRATCH[name] = buf
    return buf[:need].view(dtype)


def xxh64_bytes_many(
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """XXH64 of ``n`` byte-slices ``values[starts[i] : starts[i]+lengths[i]]``.

    Vectorized; rows of 32 bytes or more are length-sorted and processed in
    padded chunks under a fixed memory budget. Returns uint64 array aligned
    with the input rows.
    """
    n = len(starts)
    out = np.empty(n, dtype=U64)
    if n == 0:
        return out
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)

    with np.errstate(over="ignore"):
        short = lengths < 32
        if short.any():
            out[short] = _xxh64_short(values, starts[short], lengths[short], seed)
        order = np.flatnonzero(~short)
        order = order[np.argsort(lengths[order], kind="stable")]
        sl = lengths[order]
        ss = starts[order]
        widths = -(-sl // 32) * 32
        i = 0
        while i < len(order):
            # the longest run of rows whose padded matrix fits the budget
            # (at least one row); rows * width grows with the run
            win = widths[i : i + _PAD_BUDGET // 32]
            cn = max(1, int(np.searchsorted(
                np.arange(1, len(win) + 1) * win, _PAD_BUDGET, side="right"
            )))
            width = int(widths[i + cn - 1])
            cl, cs = sl[i : i + cn], ss[i : i + cn]
            Z = _scratch("xxh_pad", cn * width, np.uint8).reshape(cn, width)
            Zf = Z.reshape(-1)
            for r, (s0, l0) in enumerate(zip(cs.tolist(), cl.tolist())):
                Zf[r * width : r * width + l0] = values[s0 : s0 + l0]
            out[order[i : i + cn]] = _xxh64_chunk(Z, cl, seed)
            i += cn
    return out


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values u8, starts, lengths) views of a string/binary Arrow array.

    Nulls are treated as empty strings. Zero-copy except for null fixup.
    """
    t = arr.type
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        odt = np.int64
    elif pa.types.is_string(t) or pa.types.is_binary(t):
        odt = np.int32
    else:
        raise TypeError(f"expected string/binary array, got {t}")
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=odt)[arr.offset : arr.offset + len(arr) + 1]
    values = (
        np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    )
    starts = offsets[:-1].astype(np.int64)
    lengths = (offsets[1:].astype(np.int64)) - starts
    if arr.null_count:
        mask = np.asarray(arr.is_null())
        lengths = np.where(mask, 0, lengths)
    return values, starts, lengths


def xxh64_arrow(arr: pa.Array | pa.ChunkedArray, seed: int = 0, prefix: int | None = None) -> np.ndarray:
    """XXH64 per element of an Arrow string/binary array → uint64 ndarray.

    ``prefix`` hashes only the first ``prefix`` **bytes** of each value —
    the stage-2 partial-fingerprint analogue of the reference's
    ``SHORT_CHUNK_SIZE = 4096`` (src/process_matches.rs:35).
    """
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 1:
            arr = arr.chunk(0)
        else:
            arr = arr.combine_chunks()
    values, starts, lengths = _string_buffers(arr)
    if prefix is not None:
        lengths = np.minimum(lengths, prefix)
    return xxh64_bytes_many(values, starts, lengths, seed=seed)


def utf8_lengths(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Byte length per element (the ``size_bytes`` cheap key; ≅ file Size,
    /root/reference/src/types.rs:27-47). Nulls → 0."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks() if arr.num_chunks != 1 else arr.chunk(0)
    _, _, lengths = _string_buffers(arr)
    return lengths


# murmur3 fmix64 — used to derive per-seed hash families for MinHash
_FM1 = _u(0xFF51AFD7ED558CCD)
_FM2 = _u(0xC4CEB9FE1A85EC53)


def fmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized murmur3 64-bit finalizer (strong mixer, u64→u64)."""
    with np.errstate(over="ignore"):
        x = x.astype(U64, copy=True)
        x ^= x >> _u(33)
        x *= _FM1
        x ^= x >> _u(33)
        x *= _FM2
        x ^= x >> _u(33)
    return x
