"""XXH64 kernel: pinned public vectors + vectorized-vs-pure parity."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedup import hashing
from dedup.config import DedupConfig
from dedup.hashing import (
    _PAD_BUDGET,
    fmix64,
    utf8_lengths,
    xxh64,
    xxh64_arrow,
    xxh64_bytes_many,
)
from dedup.ingest import Ingester


def test_published_vectors():
    # XXH64 of empty input, seed 0 — published in the xxHash spec.
    assert xxh64(b"") == 0xEF46DB3751D8E999


def _many(items: list[bytes], seed=0, prefix=None) -> list[int]:
    arr = pa.array(items, type=pa.binary())
    return [int(h) for h in xxh64_arrow(arr, seed=seed, prefix=prefix)]


def test_vectorized_matches_pure_small():
    items = [
        b"",
        b"a",
        b"abc",
        b"0123456789abcdef",  # 16 B
        b"0123456789abcdefghijklmnopqrstu",  # 31 B
        b"0123456789abcdefghijklmnopqrstuv",  # 32 B
        b"0123456789abcdefghijklmnopqrstuvw",  # 33 B
        bytes(range(256)),
        b"x" * 4095,
        b"x" * 4096,
        b"x" * 4097,
    ]
    assert _many(items) == [xxh64(b) for b in items]
    assert _many(items, seed=12345) == [xxh64(b, seed=12345) for b in items]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.binary(min_size=0, max_size=300), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=2**32),
)
def test_vectorized_matches_pure_property(items, seed):
    assert _many(items, seed=seed) == [xxh64(b, seed=seed) for b in items]


def test_prefix_hash():
    items = [b"hello world, this is a long-ish string", b"hi"]
    got = _many(items, prefix=5)
    assert got == [xxh64(b[:5]) for b in items]


def test_string_array_and_nulls():
    arr = pa.array(["abc", None, "", "déjà vu"])
    got = xxh64_arrow(arr)
    assert int(got[0]) == xxh64(b"abc")
    assert int(got[1]) == xxh64(b"")  # null -> empty
    assert int(got[2]) == xxh64(b"")
    assert int(got[3]) == xxh64("déjà vu".encode())


def test_sliced_and_chunked_arrays():
    base = pa.array([f"s{i}" * (i % 7) for i in range(100)])
    sl = base.slice(13, 40)
    got = xxh64_arrow(sl)
    assert [int(h) for h in got] == [xxh64(s.as_py().encode()) for s in sl]
    ch = pa.chunked_array([base.slice(0, 30), base.slice(30, 70)])
    got2 = xxh64_arrow(ch)
    assert [int(h) for h in got2] == [xxh64(s.as_py().encode()) for s in base]


def test_utf8_lengths():
    arr = pa.array(["", "a", "déjà", None])
    assert utf8_lengths(arr).tolist() == [0, 1, len("déjà".encode()), 0]


def test_length_bucketing_survives_outlier():
    # one huge row amid tiny rows must not break chunked padding
    items = [b"t" * 3] * 20 + [b"B" * 300_000] + [b"q" * 17] * 20
    assert _many(items) == [xxh64(b) for b in items]


def test_fmix64_bijective_sample():
    x = np.arange(10_000, dtype=np.uint64)
    y = fmix64(x)
    assert len(np.unique(y)) == len(x)
    # deterministic
    assert np.array_equal(fmix64(x), y)


def test_empty_input():
    assert xxh64_bytes_many(np.empty(0, np.uint8), np.empty(0, np.int64), np.empty(0, np.int64)).shape == (0,)


def test_small_string_fast_path_boundary():
    # rows under 32 B take the short-row path; pin every length 0..31
    # against the pure-Python reference, alone and mixed with 32/33 B
    # rows, which take the stripe path in the same call
    small = [bytes(range(n)) for n in range(32)]
    assert xxh64_arrow(
        __import__("pyarrow").array(small, __import__("pyarrow").binary())
    ).tolist() == [xxh64(s) for s in small]
    mixed = small + [bytes(range(32)), bytes(33)]
    got = xxh64_arrow(
        __import__("pyarrow").array(mixed, __import__("pyarrow").binary()), seed=7
    ).tolist()
    assert got == [xxh64(s, seed=7) for s in mixed]


# ------------------------------------------------------------ long rows
# the default seed (``DedupConfig().hash_seed`` is 0), an ordinary
# nonzero one and the largest, which wraps every lane initialisation
_SEEDS = [0, 7, 2**64 - 1]
_SEED_IDS = ["0", "7", "max"]


def _rand_bytes(rng: np.random.Generator, n: int) -> bytes:
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("seed", _SEEDS, ids=_SEED_IDS)
def test_long_rows_at_stripe_boundaries(seed):
    # 32·m−1, 32·m, 32·m+1 bytes up to ~20 KB: the stripe loop's active
    # suffix moves at each multiple of 32, the tail at each remainder
    rng = np.random.default_rng(11)
    ms = [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
          127, 128, 129, 255, 256, 257, 511, 512, 513, 625]
    items = [_rand_bytes(rng, 32 * m + d) for m in ms for d in (-1, 0, 1)]
    want = [xxh64(b, seed=seed) for b in items]
    assert _many(items, seed=seed) == want
    # each alone: the batch's longest row sits at the boundary too
    assert [_many([b], seed=seed)[0] for b in items] == want


@pytest.mark.parametrize("seed", _SEEDS, ids=_SEED_IDS)
def test_batch_split_into_several_pad_chunks(seed, monkeypatch):
    # rows of 0-30 KB whose padded matrix exceeds the chunk budget
    # several times over, short (< 32 B) rows mixed in, input unsorted
    rng = np.random.default_rng(12)
    lens = rng.integers(0, 30_000, 120)
    lens[::9] = rng.integers(0, 32, len(lens[::9]))
    items = [_rand_bytes(rng, int(n)) for n in lens]
    chunks = []
    kernel = hashing._xxh64_chunk

    def spy(Z, lengths, seed):
        assert Z.nbytes <= _PAD_BUDGET and lengths.min() >= 32
        chunks.append(len(lengths))
        return kernel(Z, lengths, seed)

    monkeypatch.setattr(hashing, "_xxh64_chunk", spy)
    assert _many(items, seed=seed) == [xxh64(b, seed=seed) for b in items]
    assert len(chunks) >= 3 and sum(chunks) == int((lens >= 32).sum())


@pytest.mark.parametrize("seed", _SEEDS, ids=_SEED_IDS)
def test_long_rows_sliced_and_chunked_with_nulls(seed):
    rng = np.random.default_rng(13)
    items = [
        None if i % 5 == 3 else _rand_bytes(rng, int(rng.integers(0, 9000)))
        for i in range(60)
    ]
    base = pa.array(items, pa.binary())

    def want(arr):
        return [xxh64(v.as_py() or b"", seed=seed) for v in arr]

    sl = base.slice(7, 41)
    assert sl.null_count and sl.offset == 7
    assert xxh64_arrow(sl, seed=seed).tolist() == want(sl)
    ch = pa.chunked_array([base.slice(0, 17), base.slice(17, 25), base.slice(42)])
    assert xxh64_arrow(ch, seed=seed).tolist() == want(base)
    # the prefix pass over the same rows (Ingester's short_hash)
    got = xxh64_arrow(sl, seed=seed, prefix=4096).tolist()
    assert got == [xxh64((v.as_py() or b"")[:4096], seed=seed) for v in sl]


_GOLDEN_WORDS = ["crawl", "déjà", "vu", "naïve", "über", "page", "日本語",
                 "text", "body", "footer", "🙂"]
_GOLDEN_LENS = [1024, 4095, 4096, 4097, 8191, 8192, 12345, 20000, 25601, 30720]


def _golden_texts() -> list[str]:
    """Fixed UTF-8 texts of exactly ``_GOLDEN_LENS`` bytes (an LCG picks
    the words, so the texts depend on no library's RNG)."""
    out, x = [], 20261020
    for n in _GOLDEN_LENS:
        parts, size = [], 0
        while size < n:
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            w = _GOLDEN_WORDS[(x >> 33) % len(_GOLDEN_WORDS)]
            parts.append(w)
            size += len(w.encode()) + 1
        t = " ".join(parts).encode()[:n].decode(errors="ignore")
        out.append(t + "x" * (n - len(t.encode())))
    return out


def test_ingest_hash_golden():
    """``doc_hash`` and ``short_hash`` as ``Ingester`` gives them on fixed
    1-30 KB texts. Both are persisted (checkpoints, indexes, manifests):
    a kernel change that moves one digest fails here."""
    texts = _golden_texts()
    assert [len(t.encode()) for t in texts] == _GOLDEN_LENS
    t = pa.table({"url": [f"u{i}" for i in range(len(texts))], "text": texts,
                  "lang": ["en"] * len(texts)})
    out = Ingester(DedupConfig())(t)
    doc = out.column("doc_hash").to_pylist()
    assert doc == [
        -263408868109974855, -7156154730437263649, 3277202198719596937,
        -6969158319904323717, -4567062790728740393, 7422548427289944798,
        5344886902486497335, 5678239188610147703, -1494792488038309884,
        -8148096074812226189,
    ]
    assert [h % 2**64 for h in doc] == [xxh64(s.encode()) for s in texts]
    assert out.column("short_hash").to_pylist() == [
        24835363992386327, -9109031416700381313, 7074853716554476277,
        -5350278572559720383, -178393522323378175, 6393210484848936864,
        5424917941095230794, 8274912175730847732, 1334012137914949741,
        -993489891817796673,
    ]
