"""Cross-document exact-substring dedup (ExactSubstr-style)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from dedup.substr import dup_window_hashes, exact_substr_dedup, strip_dup_spans


def _docs(texts):
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts),
            }
        )
    )


def _naive(texts, k, min_docs=2):
    """Pure-Python reference: per doc (n_tokens, dup_windows, dup_spans,
    dup_tokens, kept_tokens, kept_text)."""
    import re

    toks = [
        [t for t in re.split(r"[^a-z0-9_]+", s.lower()) if t] for s in texts
    ]
    wins = {}  # window tuple -> set of doc ids
    for i, ts in enumerate(toks):
        for p in range(max(len(ts) - k + 1, 0)):
            wins.setdefault(tuple(ts[p : p + k]), set()).add(i)
    dup = {w for w, ds in wins.items() if len(ds) >= min_docs}
    out = []
    for i, ts in enumerate(toks):
        starts = [
            p for p in range(max(len(ts) - k + 1, 0)) if tuple(ts[p : p + k]) in dup
        ]
        covered = set()
        for p in starts:
            covered.update(range(p, p + k))
        spans = 0
        prev = None
        for p in starts:
            if prev is None or p - prev > k:
                spans += 1
            prev = p
        kept = [t for j, t in enumerate(ts) if j not in covered]
        out.append(
            (len(ts), len(starts), spans, len(covered), len(kept), " ".join(kept))
        )
    return out


COLS = ["n_tokens", "dup_windows", "dup_spans", "dup_tokens", "kept_tokens", "kept_text"]


def test_exact_substr_matches_naive_reference():
    boiler = "please subscribe to our newsletter today"  # 6 tokens
    texts = [
        f"alpha beta gamma {boiler} delta epsilon",
        f"zeta eta {boiler} theta",
        "iota kappa lambda mu nu xi omicron pi",
        f"{boiler} {boiler} tail",  # adjacent + overlapping dup windows
        "short doc",  # < k tokens: no windows
        "",
    ]
    k = 4
    got = (
        exact_substr_dedup(_docs(texts), k=k, min_docs=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = _naive(texts, k)
    for i, row in got.iterrows():
        assert tuple(row[c] for c in COLS) == want[i], f"doc {i}"


def test_exact_substr_batch_split_invariance():
    rng = np.random.default_rng(11)
    vocab = [f"w{j}" for j in range(30)]
    shared = " ".join(vocab[:9])
    texts = []
    for i in range(60):
        body = " ".join(rng.choice(vocab, size=rng.integers(5, 40)))
        texts.append(body + (f" {shared}" if i % 4 == 0 else ""))
    ds = _docs(texts)
    a = (
        exact_substr_dedup(ds, k=5, min_docs=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        exact_substr_dedup(ds.repartition(13), k=5, min_docs=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert a.equals(b)
    # the shared tail must be detected in every planted doc
    planted = a[a.doc_id % 4 == 0]
    assert (planted.dup_tokens >= 9).all()


def test_min_docs_threshold_and_within_doc_repeat_not_cross_doc():
    rep = "one two three four five"
    texts = [f"{rep} filler {rep}", "unrelated words here entirely distinct"]
    # rep appears twice but only in ONE doc → not a cross-doc duplicate
    out = (
        exact_substr_dedup(_docs(texts), k=5, min_docs=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert (out.dup_windows == 0).all()
    assert out.iloc[0].kept_text.startswith("one two three")


def test_sampled_windows_subset_and_long_span_detected():
    rng = np.random.default_rng(5)
    vocab = [f"t{j}" for j in range(50)]
    long_span = " ".join(rng.choice(vocab, size=64))  # 64-token shared span
    texts = []
    for i in range(20):
        body = " ".join(rng.choice(vocab, size=30))
        texts.append(body + (f" {long_span}" if i % 3 == 0 else ""))
    ds = _docs(texts)
    k = 8
    exact = dup_window_hashes(ds, k=k, min_docs=2, sample_mod=1)
    sampled = dup_window_hashes(ds, k=k, min_docs=2, sample_mod=4)
    # content-defined sampling can only shrink the key set (no false keys)
    assert np.isin(sampled, exact).all()
    got = (
        strip_dup_spans(ds, sampled, k=k, sample_mod=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    planted = got[got.doc_id % 3 == 0]
    # a 64-token shared span has 57 windows; ~1/4 sampled — detection certain
    assert (planted.dup_tokens > 0).all()
    # unplanted docs are 30 random tokens — no shared 8-window (seeded)
    unplanted = got[got.doc_id % 3 != 0]
    assert (unplanted.dup_tokens == 0).all()


def test_no_duplicates_is_identity_modulo_token_join():
    texts = ["completely unique alpha beta", "other words entirely different ones"]
    out = (
        exact_substr_dedup(_docs(texts), k=3, min_docs=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out.dup_windows == 0).all()
    assert out.kept_text.tolist() == [t.lower() for t in texts]


def test_join_path_matches_broadcast_path():
    """max_broadcast_rows=0 forces the dup-set join + co-locate strip
    path; its output must equal the broadcast path row-for-row
    (size-guard branch pin, same contract as lines.py's)."""
    rng = np.random.default_rng(42)
    vocab = [f"tok{i}" for i in range(300)]
    boiler = " ".join(rng.choice(vocab, 12))
    texts = []
    for i in range(60):
        body = " ".join(rng.choice(vocab, int(rng.integers(8, 40))))
        if i % 3 == 0:
            texts.append(f"{body} {boiler}")
        elif i % 7 == 0:
            texts.append(f"{boiler} {body} {boiler}")
        else:
            texts.append(body)
    ds = _docs(texts).repartition(7)
    k = 5
    bc = (
        exact_substr_dedup(ds, k=k, min_docs=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    jn = (
        exact_substr_dedup(ds, k=k, min_docs=2, max_broadcast_rows=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(bc, jn)
    assert (bc["dup_windows"] > 0).any()  # the branch actually stripped


def test_join_path_with_sampling_matches_broadcast_sampling():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    boiler = " ".join(rng.choice(vocab, 20))
    texts = [
        (f"{boiler} " if i % 2 == 0 else "") + " ".join(rng.choice(vocab, 25))
        for i in range(40)
    ]
    ds = _docs(texts).repartition(5)
    bc = (
        exact_substr_dedup(ds, k=4, min_docs=2, sample_mod=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    jn = (
        exact_substr_dedup(ds, k=4, min_docs=2, sample_mod=3, max_broadcast_rows=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(bc, jn)


def test_member_table_prefilter_matches_searchsorted():
    import numpy as np

    from dedup.exchange import member_probe, member_table

    rng = np.random.default_rng(3)
    h = rng.integers(-(1 << 62), 1 << 62, 50_000).astype(np.int64)
    d = np.sort(rng.choice(h, 700, replace=False))
    tbl = member_table(d)
    got = member_probe(d, tbl, h)
    idx = np.minimum(np.searchsorted(d, h), len(d) - 1)
    want = d[idx] == h
    assert np.array_equal(got, want)
    # empty set: nothing is a member
    assert not member_probe(
        np.empty(0, np.int64), member_table(np.empty(0, np.int64)), h
    ).any()


def test_join_path_duplicate_doc_ids_match_broadcast():
    """Rows sharing a doc id (a url revisited within one corpus) — the
    join path must give each ROW its own strip, exactly like the
    row-independent broadcast path. Covers both repeated (id, text)
    pairs (bit-identical rows, routed by one content key and fanned
    back out) and same id with DIFFERENT text (distinct content keys).
    Regression: the pre-row-key join path collapsed all hits for a
    repeated id onto its first row ([12, 0] instead of [6, 6])."""
    import pandas as pd

    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(120)]
    boiler = " ".join(rng.choice(vocab, 10))
    ids, texts = [], []
    for i in range(24):
        body = " ".join(rng.choice(vocab, int(rng.integers(8, 24))))
        ids.append(i)
        texts.append(f"{body} {boiler}" if i % 2 == 0 else body)
    # id 100: two bit-identical rows carrying the boilerplate
    same = f"{' '.join(rng.choice(vocab, 9))} {boiler}"
    ids += [100, 100]
    texts += [same, same]
    # id 200: same id, different texts (one with boilerplate, one without)
    ids += [200, 200]
    texts += [f"{boiler} {' '.join(rng.choice(vocab, 12))}",
              " ".join(rng.choice(vocab, 12))]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    ).repartition(5)
    sort_cols = ["doc_id", "kept_text"]
    bc = (
        exact_substr_dedup(ds, k=5, min_docs=2)
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    )
    jn = (
        exact_substr_dedup(ds, k=5, min_docs=2, max_broadcast_rows=0)
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bc, jn)
    # both copies of the identical pair were stripped, not just the first
    both = jn[jn["doc_id"] == 100]["dup_windows"].to_numpy()
    assert len(both) == 2 and (both > 0).all() and both[0] == both[1]
    # the different-text pair: one stripped, one untouched
    d200 = jn[jn["doc_id"] == 200]["dup_windows"].to_numpy()
    assert (d200 > 0).sum() == 1
