"""Cross-document exact-substring deduplication (ExactSubstr-style).

The corpus-level counterpart of ``suffix.py``'s per-pair span pass and
the north star's suffix-array substring stage: find every K-token
window whose exact content occurs in >= ``min_docs`` DISTINCT documents
anywhere in the corpus, merge overlapping duplicated windows into
maximal spans per document, and emit both span statistics and the
document with those spans cut out — the "remove any long substring
repeated across the training set" operation of Lee et al. 2021
(Deduplicating Training Data Makes Language Models Better), expressed
as two streaming Ray Data passes instead of a monolithic suffix array.

Reference anchor: generalizes the reference's whole-file checksum
grouping (process_matches.rs:267-288) down to sub-document granularity,
the same way minhash.py generalizes its partial-checksum stage.

Two passes, no wide shuffle of text (same shape as lines.py):

1. count pass — per batch: tokenize (textstats._tokenize, the
   SQL-mirrored tokenizer), compute the XXH64-polynomial hash of every
   K-token window (stride 1), de-duplicate (doc, window) locally (a doc
   is one row, so batch-local distinct == per-doc distinct), emit
   (win_hash, partial_doc_count) 16 B combiner rows; a narrow groupby
   sums them; window hashes hit by >= ``min_docs`` docs — bounded by
   shared boilerplate volume, not corpus size — are collected sorted.
2. strip pass — per batch: recompute window hashes, mark starts in the
   broadcast set (one ``searchsorted``), merge [i, i+K) intervals per
   doc with pure index arithmetic, overlay a coverage mask on the flat
   token array, and reassemble each doc from its uncovered tokens
   (one Arrow take + ``binary_join``; no per-doc Python).

Scale knobs:

- O(total tokens) narrow 8-byte keys leave pass 1 before combining —
  the same order of work as MinHash shingling, which already runs over
  every token. Past that, ``sample_mod`` applies CONTENT-DEFINED
  window sampling: only starts whose window hash satisfies
  ``h % sample_mod == 0`` are emitted/checked. Because the predicate
  depends on window content alone, two documents sharing a span keep
  emitting the SAME sampled windows (alignment-free, the winnowing
  trick — fingerprint.py), so a shared span of L tokens is detected
  with probability ~1-(1-1/m)^(L-K+1); only the emitted-key volume
  drops by m. ``sample_mod=1`` is exact and oracle-checkable.
- The duplicated-window set is broadcast once via ``ray.put``
  (zero-copy per node) while it fits ``max_broadcast_rows``; it is
  bounded by cross-doc repeated content, the thing the pipeline exists
  to remove, and ``min_docs`` / ``sample_mod`` are the pressure valves.
  Past the bound — a boilerplate-heavy 100 TB corpus can hold billions
  of distinct duplicated windows — the set stays a Dataset and the
  strip pass becomes: explode (doc, window-start, window-hash) rows →
  bucketed INNER join against the dup set (only the duplicated starts
  survive, so the join output is dup-bounded) → co-locate each doc
  with its dup starts by doc-hash bucket → per-bucket span merge +
  strip with the SAME kernel as the broadcast path (branch-pinned in
  tests/test_substr.py). Same guard/fallback shape as lines.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .exchange import member_probe, member_table
from .hashing import U64, fmix64
from .minhash import DEFAULT_TOKEN_HASH, _hash_tokens
from .minhash import _POLY
from .textstats import _tokenize


def _window_hashes(
    th: np.ndarray, counts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat K-token window hashes + windows-per-doc.

    Unlike ``minhash.shingle_hashes`` there is NO short-doc fallback:
    a doc with fewer than ``k`` tokens has no K-token substring and
    contributes zero windows (substring semantics, not set-identity
    semantics).
    """
    counts = counts.astype(np.int64)
    n_win = np.maximum(counts - k + 1, 0)
    total = int(n_win.sum())
    if total == 0:
        return np.empty(0, U64), n_win
    T = len(th)
    with np.errstate(over="ignore"):
        # in-place multiply/add: the k-step horner loop is memory-bound,
        # so avoiding the two temporaries per step is a measured ~1.4×
        acc = th[0 : T - k + 1].astype(U64, copy=True)
        for j in range(1, k):
            np.multiply(acc, _POLY, out=acc)
            np.add(acc, th[j : T - k + 1 + j], out=acc)
        acc = fmix64(acc)
    doc_start = np.cumsum(counts) - counts
    has = n_win > 0
    m = n_win[has]
    row_of = np.repeat(np.arange(len(m)), m)
    pos = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
    src = doc_start[has][row_of] + pos
    return acc[src], n_win


def _win_layout(batch: pa.Table, k: int, sample_mod: int, text_col: str):
    """Shared per-batch prep: tokens, window hashes and index geometry."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    flat, counts = _tokenize(text)
    th = _hash_tokens(flat, DEFAULT_TOKEN_HASH) if len(flat) else np.empty(0, U64)
    wh, n_win = _window_hashes(th, counts, k)
    if sample_mod > 1 and len(wh):
        keep = wh % np.uint64(sample_mod) == 0
    else:
        keep = None
    return flat, counts, wh, n_win, keep


def _dup_partials(
    docs: Dataset,
    k: int,
    sample_mod: int,
    text_col: str,
) -> Dataset:
    """Materialized (wh, pd) combiner rows — one row per distinct
    (window hash) per batch with its batch-local distinct-doc count."""

    def partial(batch: pa.Table) -> pa.Table:
        _, _, wh, n_win, keep = _win_layout(batch, k, sample_mod, text_col)
        doc_of = np.repeat(np.arange(len(n_win), dtype=np.int64), n_win)
        if keep is not None:
            wh, doc_of = wh[keep], doc_of[keep]
        if len(wh):
            # one lexsort (wh primary, doc secondary) gives both the
            # per-doc window dedup AND the per-wh distinct-doc counts as
            # run-length scans — avoids np.unique(axis=0)'s slow
            # void-row path on tens of millions of rows
            h = wh.view(np.int64)
            order = np.lexsort((doc_of, h))
            h_s, d_s = h[order], doc_of[order]
            first = np.ones(len(h_s), dtype=bool)
            first[1:] = (h_s[1:] != h_s[:-1]) | (d_s[1:] != d_s[:-1])
            h_u = h_s[first]  # distinct (wh, doc), sorted by wh
            run = np.ones(len(h_u), dtype=bool)
            run[1:] = h_u[1:] != h_u[:-1]
            idx = np.flatnonzero(run)
            key = h_u[idx]
            cnt = np.diff(np.append(idx, len(h_u))).astype(np.int64)
        else:
            key = np.empty(0, np.int64)
            cnt = np.empty(0, np.int64)
        return pa.table(
            {"wh": pa.array(key, pa.int64()), "pd": pa.array(cnt, pa.int64())}
        )

    # materialized: the merge policy below may consume the stream twice
    # (probe + groupby fallback), and THIS combiner's map stage — the
    # O(total-tokens) tokenize + window-hash pass — is the dominant cost
    # of pass 1; re-executing it would double the pipeline's hot work
    return docs.map_batches(
        partial, batch_format="pyarrow", batch_size=4096, zero_copy_batch=True
    ).materialize()


def dup_window_hashes(
    docs: Dataset,
    k: int = 8,
    min_docs: int = 2,
    sample_mod: int = 1,
    text_col: str = "text",
) -> np.ndarray:
    """Sorted int64 hashes of K-token windows in >= ``min_docs`` docs.

    Driver-collected form — callers needing the size-guarded variant go
    through ``exact_substr_dedup``, which keeps an over-cap set as a
    Dataset instead."""
    # merge the 16 B (wh, pd) combiner rows with the shared
    # driver-argsort / groupby split policy (exchange.merged_threshold_keys)
    from .exchange import merged_threshold_keys

    partials = _dup_partials(docs, k, sample_mod, text_col)
    return merged_threshold_keys(partials, "wh", "pd", min_docs)


def _dup_window_table(partials: Dataset, min_docs: int) -> Dataset:
    """Thresholded dup-window set as a DATASET (column ``wh``) — the
    over-broadcast-cap regime, where the set never lands on the driver.
    The merge is the bucketed exchange (exchange.bucketed_sum_by_key —
    a full-width ``groupby("wh")`` sort measured 16× slower on the same
    combiner rows); only duplicated windows survive it."""
    from .exchange import bucketed_sum_by_key

    agg = bucketed_sum_by_key(partials, "wh", "pd", min_count=min_docs)
    return agg.map_batches(
        lambda t: t.select(["wh"]), batch_format="pyarrow"
    ).materialize()


def _dup_window_sets(
    partials: Dataset, min_docs: int, cap: int
) -> "tuple[np.ndarray | None, Dataset | None]":
    """→ (sorted broadcast array, None) when the dup set fits ``cap``,
    else (None, thresholded Dataset). Keeps merged_threshold_keys' split
    policy — driver argsort while partial rows fit, groupby past that —
    but in the groupby regime the thresholded set is only collected to
    the driver AFTER its count proves it under the cap (a set that is
    both past the driver-row bound and past the cap never leaves the
    object store)."""
    from .exchange import _DRIVER_AGG_MAX, collect_table, driver_merge_threshold

    batches, n = [], 0
    for b in partials.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        batches.append(b)
        n += len(b)
        if n > _DRIVER_AGG_MAX:
            break
    if n <= _DRIVER_AGG_MAX:
        if not batches:
            return np.empty(0, np.int64), None
        dup, _ = driver_merge_threshold(
            pa.concat_tables(batches), "wh", "pd", min_docs
        )
        if len(dup) <= cap:
            return dup, None
        # already driver-resident but too big to SHIP to every worker
        # (the cap bounds per-worker broadcast memory, not driver memory)
        import ray.data as rd

        return None, rd.from_arrow(pa.table({"wh": pa.array(dup, pa.int64())}))
    dupd = _dup_window_table(partials, min_docs)
    if dupd.count() <= cap:
        arr = collect_table(dupd).column("wh").to_numpy(zero_copy_only=False)
        return np.sort(arr), None
    return None, dupd


def strip_dup_spans(
    docs: Dataset,
    dup_sorted: np.ndarray,
    k: int = 8,
    sample_mod: int = 1,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """Per doc: duplicated-window/span/token stats + span-stripped text.

    Output columns: ``id_col, n_tokens, dup_windows, dup_spans,
    dup_tokens, kept_tokens, kept_text`` where spans are the merged
    union of all duplicated [start, start+k) windows and ``kept_text``
    is the uncovered tokens rejoined with single spaces (token-level
    surgery — original whitespace inside removed spans is gone by
    definition, and the normalized join is the documented output form,
    shared with the SQL oracle).
    """
    ref = ray.put(dup_sorted)
    tbl_ref = ray.put(member_table(dup_sorted))

    def strip(batch: pa.Table) -> pa.Table:
        d = ray.get(ref)
        tbl = ray.get(tbl_ref)
        flat, counts, wh, n_win, keep = _win_layout(batch, k, sample_mod, text_col)
        nd = len(counts)
        doc_of_win = np.repeat(np.arange(nd, dtype=np.int64), n_win)
        start_in_doc = np.arange(len(wh), dtype=np.int64) - np.repeat(
            np.cumsum(n_win) - n_win, n_win
        )
        h = wh.view(np.int64)
        dup = member_probe(d, tbl, h)
        if keep is not None:
            dup &= keep
        ids = batch.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return _strip_kernel(
            ids, flat, counts, doc_of_win[dup], start_in_doc[dup], k, id_col
        )

    return docs.map_batches(strip, batch_format="pyarrow", zero_copy_batch=True)


def _strip_kernel(
    ids: pa.Array,
    flat: pa.Array,
    counts: np.ndarray,
    docw: np.ndarray,
    starts: np.ndarray,
    k: int,
    id_col: str,
) -> pa.Table:
    """Span merge + coverage strip, shared by the broadcast and join
    paths. ``docw``/``starts`` are the duplicated window rows, sorted by
    (doc index, start) — the broadcast path gets that order for free
    from the flat window scan; the join path sorts per bucket."""
    nd = len(counts)
    dup_windows = np.bincount(docw, minlength=nd).astype(np.int64)
    if len(starts):
        new_span = np.ones(len(starts), dtype=bool)
        gap = starts[1:] - starts[:-1]
        new_span[1:] = (docw[1:] != docw[:-1]) | (gap > k)
        dup_spans = np.bincount(docw[new_span], minlength=nd).astype(np.int64)
        contrib = np.where(new_span, k, 0).astype(np.int64)
        cont = ~new_span
        contrib[cont] = np.minimum(gap[cont[1:]], k)
        # bincount-with-weights beats np.add.at's scatter by ~10×
        # on millions of dup windows; k ≤ 2^20 keeps the float64
        # accumulation exact far past any real batch
        dup_tokens = np.bincount(
            docw, weights=contrib, minlength=nd
        ).astype(np.int64)
    else:
        dup_spans = np.zeros(nd, np.int64)
        dup_tokens = np.zeros(nd, np.int64)

    # coverage overlay on the flat token array
    total_toks = int(counts.sum())
    base = np.cumsum(counts) - counts
    covered = np.zeros(total_toks, dtype=bool)
    if len(starts):
        g = base[docw] + starts
        delta = np.bincount(g, minlength=total_toks + 1).astype(np.int64)
        # starts <= count-k, so g+k <= doc end
        delta -= np.bincount(g + k, minlength=total_toks + 1)
        covered = np.cumsum(delta[:-1]) > 0
    keep_tok = ~covered
    doc_of_tok = np.repeat(np.arange(nd, dtype=np.int64), counts)
    kept_per_doc = (
        np.bincount(doc_of_tok[keep_tok], minlength=nd).astype(np.int64)
        if total_toks
        else np.zeros(nd, np.int64)
    )
    kept_flat = flat.filter(pa.array(keep_tok)) if total_toks else flat
    offs = np.concatenate([[0], np.cumsum(kept_per_doc)])
    lists = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), kept_flat)
    return pa.table(
        {
            id_col: ids,
            "n_tokens": pa.array(counts, pa.int64()),
            "dup_windows": pa.array(dup_windows, pa.int64()),
            "dup_spans": pa.array(dup_spans, pa.int64()),
            "dup_tokens": pa.array(dup_tokens, pa.int64()),
            "kept_tokens": pa.array(kept_per_doc, pa.int64()),
            "kept_text": pc.binary_join(lists, " "),
        }
    )


def _row_keys(ids: pa.Array, txt: pa.Array) -> np.ndarray:
    """Content row key (uint64): hash(id) mixed with hash(text).

    The join path routes window hits back to their document ROW; the id
    column alone cannot address a row when ids repeat (a url revisited
    within one corpus), and row positions are not stable across the two
    corpus passes — so the key is content-defined, computed identically
    in both passes. It collapses ONLY rows that are bit-identical in
    (id, text), for which the hit assignment is row-interchangeable
    (each copy receives the shared start set; see strip_group)."""
    from .hashing import xxh64_arrow

    if pa.types.is_integer(ids.type):
        ih = fmix64(ids.to_numpy(zero_copy_only=False).astype(U64))
    else:
        ih = xxh64_arrow(ids)
    th = xxh64_arrow(pc.fill_null(txt, ""))
    with np.errstate(over="ignore"):
        return fmix64(ih * np.uint64(0x9E3779B97F4A7C15) + th)


def _strip_dup_spans_join(
    docs: Dataset,
    dupd: Dataset,
    k: int,
    sample_mod: int,
    id_col: str,
    text_col: str,
    n_buckets: int = 64,
) -> Dataset:
    """Dup-set-too-big-to-broadcast path (module docstring). Three
    narrow exchanges, none of which ships the corpus text more than
    once:

    1. explode every (sampled) window into a 24 B (wh, doc id, start)
       row and INNER-join it against the dup-set Dataset per hash
       bucket — only the duplicated starts survive, so the join output
       is bounded by duplicated content, not corpus size;
    2. route docs and their surviving dup starts to the same doc-hash
       bucket (docs ship their text exactly once);
    3. per bucket: sort rows by (doc, start), align starts to their
       doc, re-tokenize, and run the SAME ``_strip_kernel`` as the
       broadcast path.
    """
    from .exchange import bucketed_join
    from .textstats import _tokenize

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column(text_col)
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        rk = _row_keys(ids, txt)
        _, _, wh, n_win, keep = _win_layout(batch, k, sample_mod, text_col)
        doc_of = np.repeat(np.arange(len(n_win), dtype=np.int64), n_win)
        start = np.arange(len(wh), dtype=np.int64) - np.repeat(
            np.cumsum(n_win) - n_win, n_win
        )
        if keep is not None:
            wh, doc_of, start = wh[keep], doc_of[keep], start[keep]
        return pa.table(
            {
                "wh": pa.array(wh.view(np.int64), pa.int64()),
                "__rk": pa.array(rk.view(np.int64)[doc_of], pa.int64()),
                "__wstart": pa.array(start, pa.int64()),
            }
        )

    wins = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    dupt = dupd.map_batches(
        lambda t: t.rename_columns(["__dwh"]), batch_format="pyarrow"
    )
    hits = bucketed_join(wins, dupt, "wh", "__dwh", n_buckets=n_buckets, how="inner")

    id_type = docs.schema().base_schema.field(id_col).type

    def _bucket_of(rk: np.ndarray) -> pa.Array:
        # rk is already a mixed hash; low bits are uniform
        return pa.array(
            (rk.view(U64) % np.uint64(n_buckets)).astype(np.int32), pa.int32()
        )

    def tag_hits(batch: pa.Table) -> pa.Table:
        rk = batch.column("__rk").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "__rk": batch.column("__rk"),
                "__did": pa.nulls(len(batch), id_type),
                "__txt": pa.nulls(len(batch), pa.string()),
                "__wstart": batch.column("__wstart"),
                "__bucket": _bucket_of(rk),
            }
        )

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column(text_col)
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        rk = _row_keys(ids, txt)
        return pa.table(
            {
                "__rk": pa.array(rk.view(np.int64), pa.int64()),
                "__did": ids,
                "__txt": pc.fill_null(txt, ""),
                # doc rows sort before any real start (starts are >= 0)
                "__wstart": pa.array(np.full(len(batch), -1, np.int64)),
                "__bucket": _bucket_of(rk),
            }
        )

    both = docs.map_batches(
        tag_docs, batch_format="pyarrow", zero_copy_batch=True
    ).union(hits.map_batches(tag_hits, batch_format="pyarrow"))

    def strip_group(g: pa.Table) -> pa.Table:
        t = g.sort_by([("__rk", "ascending"), ("__wstart", "ascending")])
        rk = t.column("__rk").to_numpy(zero_copy_only=False)
        wstart = t.column("__wstart").to_numpy(zero_copy_only=False)
        is_doc = wstart < 0
        # factorize the sorted keys (run-length codes)
        new = np.ones(len(rk), dtype=bool)
        new[1:] = rk[1:] != rk[:-1]
        codes = np.cumsum(new) - 1
        doc_codes = codes[is_doc]  # non-decreasing; repeated for
        # bit-identical (id, text) rows, each of which gets the hits
        did = t.column("__did")
        if isinstance(did, pa.ChunkedArray):
            did = did.combine_chunks()
        ids = did.filter(pa.array(is_doc)).cast(id_type)
        txt = t.column("__txt").filter(pa.array(is_doc))
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, counts = _tokenize(txt)
        hit_codes = codes[~is_doc]
        starts = wstart[~is_doc]
        if len(starts):
            # distinct (row key, start): every doc row sharing the key
            # emitted the same window, so the join delivers one copy per
            # emitting row — deduplicate, then fan each start out to ALL
            # rows with that key (sorted input ⇒ run-length dedup)
            uniq = np.ones(len(starts), dtype=bool)
            uniq[1:] = (hit_codes[1:] != hit_codes[:-1]) | (
                starts[1:] != starts[:-1]
            )
            hc, st = hit_codes[uniq], starts[uniq]
            lo = np.searchsorted(doc_codes, hc, side="left")
            hi = np.searchsorted(doc_codes, hc, side="right")
            reps = hi - lo
            total = int(reps.sum())
            off = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            docw = np.repeat(lo, reps) + off
            starts_exp = np.repeat(st, reps)
            if len(reps) and reps.max() > 1:
                # expansion order is (key, start, row); the strip kernel
                # needs (row, start)
                o = np.lexsort((starts_exp, docw))
                docw, starts_exp = docw[o], starts_exp[o]
        else:
            docw = np.empty(0, np.int64)
            starts_exp = np.empty(0, np.int64)
        return _strip_kernel(ids, flat, counts, docw, starts_exp, k, id_col)

    return both.groupby("__bucket").map_groups(strip_group, batch_format="pyarrow")


def exact_substr_dedup(
    docs: Dataset,
    k: int = 8,
    min_docs: int = 2,
    sample_mod: int = 1,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_broadcast_rows: int | None = None,
) -> Dataset:
    """Full two-pass corpus-level substring dedup (stats + stripped text).

    Size-guarded (module docstring): a duplicated-window set above
    ``max_broadcast_rows`` (default ``exchange.BROADCAST_MAX_ROWS``)
    switches the strip pass to the join + co-locate path instead of
    broadcasting."""
    from .exchange import BROADCAST_MAX_ROWS

    cap = BROADCAST_MAX_ROWS if max_broadcast_rows is None else max_broadcast_rows
    partials = _dup_partials(docs, k, sample_mod, text_col)
    dup, dupd = _dup_window_sets(partials, min_docs, cap)
    if dupd is not None:
        n_dup = dupd.count()
        # ~500k dup hashes per reassembly bucket, same scaling rule as
        # lines.py's join path
        n_buckets = max(64, min(4096, n_dup // 500_000))
        return _strip_dup_spans_join(
            docs, dupd, k, sample_mod, id_col, text_col, n_buckets=n_buckets
        )
    return strip_dup_spans(
        docs, dup, k=k, sample_mod=sample_mod, id_col=id_col, text_col=text_col
    )
