"""The benchmark's jobs: one call into a public ``dedup`` entry point
each, plus the check of its output against the corpus's planted truth.

A job's ``run`` is the timed part: the call and collecting its output on
the driver, as a caller would. ``check`` is untimed and returns
``(ok, counts)``; the counts feed the quality metrics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from corpus import Corpus, url_row

# pass thresholds of the per-call checks (quality metrics are reported
# as measured; these only decide whether a call counts as ok)
MIN_PAIR_RECALL = 0.9
MIN_NEG_SPECIFICITY = 0.95
MAX_UNIQUE_CLUSTERED = 0.01
MIN_SPAN_RECALL = 0.95
MIN_BODY_KEPT = 0.98
MIN_REPEAT_RECALL = 0.9
MIN_FRESH_KEPT = 0.99

SUBSTR_K = 8
SUBSTR_MIN_DOCS = 2


@dataclass
class Inputs:
    corpus: Corpus
    dir_a: str  # parquet of snapshot A
    dir_b: str  # parquet of snapshot B
    index_dir: str
    cfg: object  # dedup.config.DedupConfig

    def pages(self):
        return rd.read_parquet(self.dir_a)

    def pages_b(self):
        return rd.read_parquet(self.dir_b)


def write_inputs(corpus: Corpus, root: str, cfg) -> Inputs:
    import pyarrow.parquet as pq

    dirs = []
    for name, tables in (("a", corpus.pages), ("b", corpus.pages_b)):
        d = os.path.join(root, name)
        os.makedirs(d, exist_ok=True)
        for i, t in enumerate(tables):
            pq.write_table(t, os.path.join(d, f"part-{i:04d}.parquet"))
        dirs.append(d)
    return Inputs(corpus, dirs[0], dirs[1], os.path.join(root, "index"), cfg)


def _cluster_ids(t: pa.Table, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per A row: (cluster id, whether the row is in any cluster)."""
    cid = np.zeros(n, np.int64)
    inc = np.zeros(n, bool)
    if len(t) and "url" in t.column_names:
        rows = url_row(t.column("url"))
        if len(np.unique(rows)) != len(rows):
            raise ValueError("a url appears in two clusters")
        cid[rows] = t.column("cluster_id").to_numpy(zero_copy_only=False)
        inc[rows] = True
    return cid, inc


def _pair_counts(corpus: Corpus, cid: np.ndarray, inc: np.ndarray) -> dict:
    """Planted near-dup pairs co-clustered, negative pairs kept apart,
    verbatim groups intact, and unique pages wrongly clustered."""
    pairs = hit = 0
    for g in corpus.near_groups:
        s = len(g)
        pairs += s * (s - 1) // 2
        _, c = np.unique(cid[g[inc[g]]], return_counts=True)
        hit += int((c * (c - 1) // 2).sum())
    a, b = corpus.neg_pairs[:, 0], corpus.neg_pairs[:, 1]
    together = inc[a] & inc[b] & (cid[a] == cid[b])
    uniq = corpus.unique_body
    return {
        "pairs": pairs, "pairs_hit": hit,
        "neg": len(a), "neg_apart": int((~together).sum()),
        "exact_groups_ok": all(
            inc[g].all() and len(np.unique(cid[g])) == 1 for g in corpus.exact_groups
        ),
        "unique": int(uniq.sum()), "unique_clustered": int((inc & uniq).sum()),
    }


def _pairs_ok(c: dict, gate_recall: bool) -> bool:
    ok = c["exact_groups_ok"]
    ok &= c["neg_apart"] >= MIN_NEG_SPECIFICITY * c["neg"]
    ok &= c["unique_clustered"] <= MAX_UNIQUE_CLUSTERED * c["unique"]
    if gate_recall:
        ok &= c["pairs_hit"] >= MIN_PAIR_RECALL * c["pairs"]
    return bool(ok)


class Exact:
    name = "exact"

    def units(self, inp: Inputs) -> float:
        return inp.corpus.n_pages

    def run(self, inp: Inputs):
        from dedup.cascade import exact_clusters
        from dedup.exchange import collect_table

        return collect_table(exact_clusters(inp.pages(), inp.cfg))

    def check(self, inp: Inputs, out: pa.Table):
        got: dict[int, list[int]] = {}
        if len(out):
            rows = url_row(out.column("url"))
            for r, c in zip(rows.tolist(), out.column("cluster_id").to_pylist()):
                got.setdefault(c, []).append(r)
        got_set = {frozenset(v) for v in got.values()}
        want = {frozenset(g.tolist()) for g in inp.corpus.exact_groups}
        return got_set == want, {"groups": len(got_set), "want": len(want)}


class NearDup:
    name = "near_dup"

    def units(self, inp: Inputs) -> float:
        return inp.corpus.n_pages

    def run(self, inp: Inputs):
        from dedup.exchange import collect_table
        from dedup.pipeline import near_dup_pipeline

        return collect_table(near_dup_pipeline(inp.pages(), inp.cfg).clusters)

    def check(self, inp: Inputs, out: pa.Table):
        c = _pair_counts(inp.corpus, *_cluster_ids(out, inp.corpus.n_pages))
        return _pairs_ok(c, gate_recall=True), c


class SimHash:
    name = "simhash"

    def units(self, inp: Inputs) -> float:
        return inp.corpus.n_pages

    def run(self, inp: Inputs):
        from dedup.exchange import collect_table
        from dedup.simhash import simhash_clusters

        return collect_table(simhash_clusters(inp.pages(), inp.cfg))

    def check(self, inp: Inputs, out: pa.Table):
        # 64-bit SimHash at Hamming <= 3 misses many 2%-edited copies by
        # design; its near-dup recall is reported, not gated
        c = _pair_counts(inp.corpus, *_cluster_ids(out, inp.corpus.n_pages))
        return _pairs_ok(c, gate_recall=False), c


def _x_tokens(text: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Per row: (boilerplate tokens, other tokens) in space-joined text."""
    toks = pc.split_pattern(text, " ")
    flat = pc.list_flatten(toks)
    nonempty = pc.greater(pc.binary_length(flat), 0).to_numpy(zero_copy_only=False)
    is_x = pc.starts_with(flat, "x").to_numpy(zero_copy_only=False)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    n = len(text)
    bx = np.bincount(parent, weights=is_x & nonempty, minlength=n)
    other = np.bincount(parent, weights=~is_x & nonempty, minlength=n)
    return bx.astype(np.int64), other.astype(np.int64)


class Substr:
    name = "substr"

    def units(self, inp: Inputs) -> float:
        return inp.corpus.text_mb()

    def run(self, inp: Inputs):
        from dedup.exchange import collect_table
        from dedup.substr import exact_substr_dedup

        docs = inp.pages().select_columns(["url", "text"])
        out = exact_substr_dedup(docs, k=SUBSTR_K, min_docs=SUBSTR_MIN_DOCS, id_col="url")
        return collect_table(out.select_columns(["url", "kept_text"]))

    def check(self, inp: Inputs, out: pa.Table):
        co = inp.corpus
        n = co.n_pages
        if len(out) != n:
            return False, {"rows": len(out), "want_rows": n}
        rows = url_row(out.column("url"))
        bx, other = _x_tokens(out.column("kept_text").combine_chunks())
        boiler_left = np.zeros(n, np.int64)
        body_kept = np.zeros(n, np.int64)
        boiler_left[rows] = bx
        body_kept[rows] = other
        planted = int(co.boiler_tokens.sum())
        # lone spans are kept by design: what is left of the planted spans
        # is what is left of all spans, less the lone ones
        left = int(boiler_left.sum()) - int(co.lone_boiler_tokens.sum())
        u = co.unique_body
        c = {
            "boiler_tokens": planted,
            "boiler_cut": planted - max(0, left),
            "body_tokens": int(co.body_tokens[u].sum()),
            "body_kept": int(body_kept[u].sum()),
        }
        ok = c["boiler_cut"] >= MIN_SPAN_RECALL * c["boiler_tokens"]
        ok &= c["body_kept"] >= MIN_BODY_KEPT * c["body_tokens"]
        return bool(ok), c


def _distinct_a(co: Corpus) -> int:
    return co.n_pages - sum(len(g) - 1 for g in co.exact_groups)


class IndexBuild:
    name = "index_build"

    def units(self, inp: Inputs) -> float:
        return inp.corpus.n_pages

    def run(self, inp: Inputs):
        from dedup.incremental import build_index

        return build_index(inp.pages(), inp.cfg, inp.index_dir)

    def check(self, inp: Inputs, out: dict):
        want = _distinct_a(inp.corpus)
        return out.get("n_docs") == want, {"n_docs": out.get("n_docs"), "want": want}


class Incremental:
    """``incremental_dedup`` of snapshot B against the index
    ``IndexBuild`` just built from A, then ``update_index`` with the kept
    docs (so the index must grow from A's distinct texts by exactly the
    kept distinct docs)."""

    name = "incremental"

    def units(self, inp: Inputs) -> float:
        return inp.corpus.n_pages_b

    def run(self, inp: Inputs):
        from dedup.exchange import collect_table
        from dedup.incremental import incremental_dedup, update_index

        res = incremental_dedup(inp.pages_b(), inp.index_dir, inp.cfg)
        kept = collect_table(res.kept)
        after = update_index(inp.index_dir, res.kept_sigs, inp.cfg)["n_docs"]
        return res.report, kept, after

    def check(self, inp: Inputs, out):
        report, kept, after = out
        co = inp.corpus
        reason = np.full(co.n_pages_b, "", dtype=object)
        if len(report):
            reason[url_row(report.column("url"))] = np.array(report.column("reason").to_pylist(), dtype=object)
        rep = co.repeats
        verb = rep[rep[:, 2] == 1, 0]
        near = rep[rep[:, 2] == 0, 0]
        kept_rows = url_row(kept.column("url")) if len(kept) else np.empty(0, np.int64)
        is_kept = np.zeros(co.n_pages_b, bool)
        is_kept[kept_rows] = True
        n_kept_distinct = len(np.unique(kept.column("doc_hash").to_numpy())) if len(kept) else 0
        c = {
            "repeats": len(rep),
            "repeats_reported": int((reason[rep[:, 0]] != "").sum()),
            "verbatim_exact": int((reason[verb] == "exact_corpus").sum()),
            "verbatim": len(verb),
            "near_reported": int((reason[near] != "").sum()),
            "near": len(near),
            "fresh": len(co.fresh_b),
            "fresh_kept": int(is_kept[co.fresh_b].sum()),
            "index_growth_ok": after == _distinct_a(co) + n_kept_distinct,
        }
        ok = c["verbatim_exact"] == c["verbatim"]
        ok &= c["near_reported"] >= MIN_REPEAT_RECALL * c["near"]
        ok &= c["fresh_kept"] >= MIN_FRESH_KEPT * c["fresh"]
        ok &= c["index_growth_ok"]
        ok &= not (is_kept & (reason != "")).any()
        return bool(ok), c


# the order one round runs them in; Incremental reads IndexBuild's index
JOBS = (Exact(), NearDup(), SimHash(), Substr(), IndexBuild(), Incremental())
