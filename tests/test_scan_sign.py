"""The ingest scan that signs (``pipeline.scan_sign``) and its reps
(``pipeline.signed_reps``): exact copies split across batches sign more
than once, and the reps keep one signature per hash — the same bytes
the two-pass ``sign(distinct_reps(ingest(pages)))`` gives, on both
tiers."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

import dedup.exchange as ex
from dedup.config import DedupConfig
from dedup.exchange import collect_table, pinned_table
from dedup.ingest import ingest
from dedup.minhash import MinHashSigner, sign
from dedup.pipeline import distinct_reps, near_dup_pipeline, scan_sign, signed_reps
from dedup.schema import CLUSTERS
from dedup.simhash import SimHasher, simhash_clusters, simhash_fingerprints
from dedup.synth import make_pages

# (exchange._DRIVER_READ_MAX or None to keep it, config overrides): the
# memory tier, and the forced exchange tier with every lookup joined
_TIERS = {"memory": (None, {}), "forced": (-1, {"broadcast_max_rows": 0})}


def _split_pages() -> rd.Dataset:
    """``make_pages`` rows in a fixed shuffled order: with
    ``batch_size=4`` the copies of an exact group land in different
    batches."""
    t, _ = make_pages(n_exact_groups=6, n_near_groups=6, n_singletons=20)
    return rd.from_arrow(t.take(np.random.default_rng(3).permutation(len(t))))


def _by_hash(ds: rd.Dataset) -> pa.Table:
    return collect_table(ds).combine_chunks().sort_by("doc_hash")


def _run(tier, monkeypatch, fn, **kw):
    guard, overrides = _TIERS[tier]
    if guard is not None:
        monkeypatch.setattr(ex, "_DRIVER_READ_MAX", guard)
    try:
        return fn(DedupConfig(**kw, **overrides))
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("tier", list(_TIERS))
@pytest.mark.parametrize(
    "signer, two_pass",
    [(MinHashSigner, sign), (SimHasher, simhash_fingerprints)],
    ids=["minhash", "simhash"],
)
def test_split_copies_sign_like_two_pass(tier, signer, two_pass, monkeypatch):
    pages = _split_pages()

    def reps(cfg):
        pin = scan_sign(pages, cfg, signer(cfg))
        t = pinned_table(pin, ["doc_hash", "n_shingles"], max_rows=1 << 30)
        assert "text" not in pin.schema().names
        signed = int(pc.sum(pc.is_valid(t.column("n_shingles"))).as_py())
        distinct = len(np.unique(t.column("doc_hash").to_numpy()))
        # some copy signed again in a later batch
        assert signed > distinct, (signed, distinct)
        sigs, dups, cnts = signed_reps(pin, cfg)
        return _by_hash(sigs), dups, cnts

    got, dups, cnts = _run(tier, monkeypatch, reps, min_size=1, batch_size=4)
    cfg = DedupConfig(min_size=1, batch_size=4)
    ing = ingest(pages, cfg).materialize()
    want = _by_hash(two_pass(distinct_reps(ing), cfg))
    assert got.equals(want)
    want_dups, want_cnts = ex.dup_key_counts(ing, "doc_hash")
    assert dups.tolist() == want_dups.tolist() and cnts.tolist() == want_cnts.tolist()


def test_split_copies_cluster_alike_on_both_tiers(monkeypatch):
    pages = _split_pages()
    runs = {
        "near_dup": lambda cfg: near_dup_pipeline(pages, cfg).clusters,
        "simhash": lambda cfg: simhash_clusters(pages, cfg),
    }
    for name, fn in runs.items():
        got = [
            _run(tier, monkeypatch, lambda c: collect_table(fn(c)).sort_by("url"),
                 min_size=1, batch_size=4)
            for tier in _TIERS
        ]
        assert len(got[0]) > 0, name
        assert got[0].equals(got[1]), name


def _pages(texts) -> rd.Dataset:
    n = len(texts)
    return rd.from_arrow(
        pa.table({"url": pa.array([f"u{i}" for i in range(n)], pa.string()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * n, pa.string())})
    )


_DEGENERATE = {
    # (texts, min_size, clusters)
    "empty": ([], 1, 0),
    "all_gated": (["short", "tiny", "short"], 100, 0),
    "all_null_text": ([None, None, None], 1, 0),
    "all_identical": (["one body"] * 5, 1, 5),
}


@pytest.mark.parametrize("tier", list(_TIERS))
@pytest.mark.parametrize("name", list(_DEGENERATE))
def test_degenerate_corpora_give_typed_outputs(name, tier, monkeypatch):
    texts, min_size, n_rows = _DEGENERATE[name]
    pages = _pages(texts)
    for signer in (MinHashSigner, SimHasher):
        def reps(cfg):
            sigs, _, _ = signed_reps(scan_sign(pages, cfg, signer(cfg)), cfg)
            return collect_table(sigs).schema

        empty = pa.table({"doc_hash": pa.array([], pa.int64()),
                          "text": pa.array([], pa.string())})
        want = signer(DedupConfig())(empty).schema
        assert _run(tier, monkeypatch, reps, min_size=min_size) == want, signer
    cols = {"near_dup": CLUSTERS.names,
            "simhash": [c for c in CLUSTERS.names if c != "size_bytes"]}
    runs = {"near_dup": lambda cfg: near_dup_pipeline(pages, cfg).clusters,
            "simhash": lambda cfg: simhash_clusters(pages, cfg)}
    for op, fn in runs.items():
        t = _run(tier, monkeypatch, lambda c: collect_table(fn(c)), min_size=min_size)
        assert t.column_names == cols[op], op
        assert len(t) == n_rows, op
