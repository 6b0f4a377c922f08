"""Incremental dedup against a persisted corpus index (dedup/incremental.py).

Scenario-based: a corpus index is built from known pages, then a new
batch containing (a) an exact copy of a corpus page, (b) near-dups of a
corpus page, (c) exact dups within the batch, (d) near dups within the
batch, and (e) fresh pages is deduped against it. Classification reasons
and the surviving set are asserted exactly.
"""

import collections

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from dedup.config import DedupConfig
from dedup.exchange import collect_table
from dedup.incremental import build_index, incremental_dedup, update_index
from dedup.synth import _doc, _edit, _vocab


def _pages(rows):
    urls, texts = zip(*rows)
    return rd.from_arrow(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(urls), pa.string()),
            }
        )
    )


def _index_state(idx):
    """Everything an index holds, order-free: sorted sig rows, sorted
    band rows, the Bloom sidecar bytes and the manifest."""
    import json
    import os

    import pyarrow.dataset as pads

    def rows(d):
        t = pads.dataset(os.path.join(idx, d), format="parquet").to_table()
        return sorted(
            tuple(tuple(v) if isinstance(v, list) else v for v in r.values())
            for r in t.to_pylist()
        )

    bloom = os.path.join(idx, "bloom.bin")
    with open(bloom, "rb") as f, open(os.path.join(idx, "manifest.json")) as m:
        return rows("sigs"), rows("bands"), f.read(), json.load(m)


def _outcome(res):
    """(sorted drop report rows, sorted kept (url, doc_hash), sorted kept
    signature hashes) of an ``IncrementalResult``."""
    rep = res.report
    kept = collect_table(res.kept)
    return (
        sorted(zip(*(rep[c].to_pylist() for c in rep.column_names))),
        sorted(zip(kept["url"].to_pylist(), kept["doc_hash"].to_pylist())),
        sorted(collect_table(res.kept_sigs)["doc_hash"].to_pylist()),
    )


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    rng = np.random.default_rng(123)
    vocab = _vocab(rng)
    t0 = " ".join(_doc(rng, vocab, 250))  # corpus text, exact-copied in batch
    t1 = " ".join(_doc(rng, vocab, 300))  # corpus text, untouched
    tb = _doc(rng, vocab, 400)  # corpus text, near-edited in batch (x2)
    tp = " ".join(_doc(rng, vocab, 220))  # new text, exact pair in batch
    tn = _doc(rng, vocab, 350)  # new text, near pair in batch
    corpus = [
        ("c://a", t0),
        ("c://b", t1),
        ("c://nb", " ".join(tb)),
        ("c://solo", " ".join(_doc(rng, vocab, 180))),
    ]
    batch = [
        ("b://exact0", t0),  # exact_corpus
        ("b://near0", " ".join(_edit(rng, vocab, tb, 0.02))),  # near_corpus
        ("b://near1", " ".join(_edit(rng, vocab, tb, 0.02))),  # near_corpus
        ("b://p1", tp),  # kept (min url of the exact pair)
        ("b://p2", tp),  # exact_batch
        ("b://n1", " ".join(tn)),  # kept (min url of the near pair)
        ("b://n2", " ".join(_edit(rng, vocab, tn, 0.02))),  # near_batch
        ("b://fresh", " ".join(_doc(rng, vocab, 260))),  # kept
    ]
    idx = str(tmp_path_factory.mktemp("incr") / "index")
    cfg = DedupConfig()
    build_index(_pages(corpus), cfg, idx)
    return corpus, batch, idx, cfg


def test_classification_and_survivors(scenario):
    _, batch, idx, cfg = scenario
    res = incremental_dedup(_pages(batch), idx, cfg)
    kept = sorted(collect_table(res.kept).column("url").to_pylist())
    assert kept == ["b://fresh", "b://n1", "b://p1"]
    by_url = {
        u: r
        for u, r in zip(
            res.report.column("url").to_pylist(),
            res.report.column("reason").to_pylist(),
        )
    }
    assert by_url == {
        "b://exact0": "exact_corpus",
        "b://near0": "near_corpus",
        "b://near1": "near_corpus",
        "b://p2": "exact_batch",
        "b://n2": "near_batch",
    }
    # matched column: exact_corpus points at the identical corpus hash;
    # batch drops point at their kept representative's hash
    kept_sigs = collect_table(res.kept_sigs)
    assert kept_sigs.num_rows == 3  # one sig row per kept page
    m = {
        u: h
        for u, h in zip(
            res.report.column("url").to_pylist(),
            res.report.column("matched").to_pylist(),
        )
    }
    kept_hashes = set(kept_sigs.column("doc_hash").to_pylist())
    assert m["b://p2"] in kept_hashes and m["b://n2"] in kept_hashes


def test_report_and_kept_partition_batch(scenario):
    _, batch, idx, cfg = scenario
    res = incremental_dedup(_pages(batch), idx, cfg)
    kept = set(collect_table(res.kept).column("url").to_pylist())
    dropped = set(res.report.column("url").to_pylist())
    assert kept | dropped == {u for u, _ in batch}
    assert not (kept & dropped)


def test_update_index_then_batch_is_fully_dropped(scenario, tmp_path):
    corpus, batch, idx, cfg = scenario
    # rebuild into a private dir so other tests keep the pristine index
    idx2 = str(tmp_path / "index2")
    build_index(_pages(corpus), cfg, idx2)
    res = incremental_dedup(_pages(batch), idx2, cfg)
    mf = update_index(idx2, res.kept_sigs, cfg)
    assert mf["n_docs"] == 4 + 3  # corpus distinct + kept batch
    # replay of the same batch: every page now duplicates the corpus
    res2 = incremental_dedup(_pages(batch), idx2, cfg)
    assert collect_table(res2.kept).num_rows == 0
    reasons = collections.Counter(res2.report.column("reason").to_pylist())
    assert set(reasons) <= {"exact_corpus", "near_corpus"}
    assert sum(reasons.values()) == len(batch)


def test_legacy_index_without_band_table(scenario, tmp_path):
    """An index written before band persistence (no bands/ dir) still
    works — the sig table is banded on the fly."""
    import shutil

    corpus, batch, _, cfg = scenario
    idx = str(tmp_path / "legacy")
    build_index(_pages(corpus), cfg, idx)
    shutil.rmtree(f"{idx}/bands")
    res = incremental_dedup(_pages(batch), idx, cfg)
    kept = sorted(collect_table(res.kept).column("url").to_pylist())
    assert kept == ["b://fresh", "b://n1", "b://p1"]


def test_cli_index_lifecycle(scenario, tmp_path, capsys):
    """CLI: index-build → index-dedup (--update-index) → replay drops all."""
    import json

    import pyarrow.parquet as pq

    from dedup.cli import main

    corpus, batch, _, _ = scenario

    def _write(rows, name):
        urls, texts = zip(*rows)
        p = str(tmp_path / name)
        pq.write_table(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "text": pa.array(texts, pa.string()),
                    "lang": pa.array(["en"] * len(urls), pa.string()),
                }
            ),
            p,
        )
        return p

    cpath, bpath = _write(corpus, "corpus.parquet"), _write(batch, "batch.parquet")
    idx = str(tmp_path / "index")
    rc = main(["--input", cpath, "--output", str(tmp_path / "o1"),
               "--mode", "index-build", "--index", idx])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s["index_docs"] == 4

    rc = main(["--input", bpath, "--output", str(tmp_path / "o2"),
               "--mode", "index-dedup", "--index", idx, "--update-index"])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s["rows_kept"] == 3 and s["rows_dropped"] == 5
    assert s["drop_reasons"] == {
        "exact_corpus": 1, "near_corpus": 2, "exact_batch": 1, "near_batch": 1,
    }
    assert s["index_docs"] == 7
    rep = pq.read_table(str(tmp_path / "o2" / "report.parquet"))
    assert rep.num_rows == 5

    rc = main(["--input", bpath, "--output", str(tmp_path / "o3"),
               "--mode", "index-dedup", "--index", idx])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s["rows_kept"] == 0 and s["rows_dropped"] == len(batch)


def test_config_fingerprint_mismatch_refuses(scenario):
    _, batch, idx, _ = scenario
    other = DedupConfig(shingle_k=7)
    with pytest.raises(ValueError, match="fingerprint"):
        incremental_dedup(_pages(batch), idx, other)


def test_pre_v6_index_remediation_path(scenario, tmp_path):
    """A pre-v6 manifest (no sig_bytes stamp, fingerprint computed by code
    with no sig_bytes field) opened under the v6 4-byte default must raise
    the WIDTH error naming the fix — and following that fix
    (sig_bytes=8) must then pass the gate rather than tripping the
    fingerprint check (sig_bytes=8 is fingerprinted off-default, but
    _check_manifest normalizes it out)."""
    import json as _json
    import os
    import shutil

    from dedup.incremental import _check_manifest

    _, _, idx, cfg = scenario
    old = str(tmp_path / "pre_v6_index")
    shutil.copytree(idx, old)
    mpath = os.path.join(old, "manifest.json")
    with open(mpath) as f:
        mf = _json.load(f)
    mf.pop("sig_bytes", None)  # pre-stamp manifests carry no width key
    with open(mpath, "w") as f:
        _json.dump(mf, f)
    with pytest.raises(ValueError, match="set sig_bytes=8"):
        _check_manifest(old, cfg)
    # the error's own advice must work: same config, width pinned to 8
    from dataclasses import replace

    assert _check_manifest(old, replace(cfg, sig_bytes=8))["n_docs"] >= 1


def test_empty_batch_and_no_overlap_batch(scenario):
    _, _, idx, cfg = scenario
    empty = _pages([("b://none", "x")]).filter(lambda r: False)
    res = incremental_dedup(empty, idx, cfg)
    assert collect_table(res.kept).num_rows == 0
    assert res.report.num_rows == 0
    rng = np.random.default_rng(77)
    vocab = _vocab(rng)
    fresh = [(f"f://{i}", " ".join(_doc(rng, vocab, 200))) for i in range(5)]
    res2 = incremental_dedup(_pages(fresh), idx, cfg)
    assert sorted(collect_table(res2.kept).column("url").to_pylist()) == sorted(
        u for u, _ in fresh
    )
    assert res2.report.num_rows == 0


def test_incremental_tiers_agree(scenario, tmp_path, monkeypatch):
    """The index lifecycle's memory tier and its exchange tier
    (``_DRIVER_READ_MAX=-1``: Ray Data probes, the component verifier's
    star pass → components → groups, Ray Data writes) give the same
    drop report, kept pages and kept signatures on a planted, an empty,
    an all-new and an all-repeat batch, in default and exact-set mode —
    and ``update_index`` then leaves the same index (sig rows, band
    rows, Bloom sidecar bytes, manifest). ``build_index`` agrees across
    tiers too, on the corpus and on an empty one."""
    import shutil

    import dedup.exchange as ex

    corpus, batch, _, _ = scenario
    rng = np.random.default_rng(91)
    vocab = _vocab(rng)
    texts = dict(corpus + batch)
    # upper-cased copies keep the shingle set, so exact-set mode has a
    # near_corpus and a near_batch drop too
    planted = batch + [
        ("b://upper", texts["c://nb"].upper()),
        ("b://n1up", texts["b://n1"].upper()),
    ]
    no_pages = _pages([("b://none", "x")]).filter(lambda r: False)
    batches = {
        "planted": _pages(planted),
        "empty": no_pages,
        "all_new": _pages(
            [(f"f://{i}", " ".join(_doc(rng, vocab, 200))) for i in range(5)]
        ),
        "all_repeat": _pages([(u.replace("c://", "r://"), t) for u, t in corpus]),
    }

    def tiers(fn):
        memory = fn("memory")
        with monkeypatch.context() as m:
            m.setattr(ex, "_DRIVER_READ_MAX", -1)
            exchange = fn("exchange")
        return memory, exchange

    for mode, cfg in (
        ("default", DedupConfig()),
        ("exact", DedupConfig(verify_threshold=1.0, exact_set_verify=True)),
    ):
        idx = str(tmp_path / mode)
        for corpus_name, pages in (("empty", no_pages), ("corpus", _pages(corpus))):
            def build(tier):
                build_index(pages, cfg, f"{idx}_{tier}")
                return _index_state(f"{idx}_{tier}")

            memory, exchange = tiers(build)
            assert memory == exchange, (mode, corpus_name)
        shutil.copytree(f"{idx}_memory", idx)
        assert _index_state(idx)[3]["n_docs"] == len(corpus)
        for name, pages in batches.items():
            def run(tier):
                copy = str(tmp_path / f"{mode}_{name}_{tier}")
                shutil.copytree(idx, copy)
                res = incremental_dedup(pages, copy, cfg)
                out = _outcome(res)
                update_index(copy, res.kept_sigs, cfg)
                return out, _index_state(copy)

            memory, exchange = tiers(run)
            assert memory == exchange, (mode, name)
            reasons = {r[2] for r in memory[0][0]}
            if name == "planted":
                assert {"near_corpus", "near_batch"} <= reasons, (mode, reasons)
            if name == "all_repeat":
                assert reasons == {"exact_corpus"} and not memory[0][1], mode
            n_kept = len(memory[0][2])
            assert memory[1][3]["n_docs"] == len(corpus) + n_kept, (mode, name)


@pytest.mark.parametrize("tier", ["memory", "exchange"])
def test_empty_corpus_index(scenario, tmp_path, monkeypatch, tier):
    """An empty corpus builds a valid index with ``n_docs = 0``: a batch
    against it keeps every page, and ``update_index`` grows it so a
    replay drops every page as ``exact_corpus``."""
    import dedup.exchange as ex

    _, _, _, cfg = scenario
    if tier == "exchange":
        monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    rng = np.random.default_rng(5)
    vocab = _vocab(rng)
    fresh = [(f"f://{i}", " ".join(_doc(rng, vocab, 200))) for i in range(5)]
    idx = str(tmp_path / "index")
    mf = build_index(_pages(fresh).filter(lambda r: False), cfg, idx)
    assert mf["n_docs"] == 0
    res = incremental_dedup(_pages(fresh), idx, cfg)
    assert res.report.num_rows == 0
    assert sorted(collect_table(res.kept)["url"].to_pylist()) == [u for u, _ in fresh]
    assert update_index(idx, res.kept_sigs, cfg)["n_docs"] == len(fresh)
    replay = incremental_dedup(_pages(fresh), idx, cfg)
    assert collect_table(replay.kept).num_rows == 0
    assert replay.report["reason"].to_pylist() == ["exact_corpus"] * len(fresh)


@pytest.mark.parametrize("tier", ["memory", "exchange"])
def test_update_index_crash_ordering(scenario, tmp_path, monkeypatch, tier):
    """``update_index`` killed at its band write, then at its sig write:
    the index still loads, re-running the batch and the update heals
    it, and a follow-up batch of repeats drops exactly as after a clean
    update (no false negative). Leftover dot-prefixed temp files in
    ``sigs/`` and ``bands/`` are skipped by both index readers."""
    import os
    import shutil

    import pyarrow.dataset as pads

    import dedup.exchange as ex
    import dedup.incremental as inc

    corpus, batch, _, cfg = scenario
    if tier == "exchange":
        monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    base = str(tmp_path / "base")
    build_index(_pages(corpus), cfg, base)
    repeats = _pages([(u.replace("b://", "r://"), t) for u, t in batch])

    def update(idx):
        res = incremental_dedup(_pages(batch), idx, cfg)
        return update_index(idx, res.kept_sigs, cfg)

    clean = str(tmp_path / "clean")
    shutil.copytree(base, clean)
    n_clean = update(clean)["n_docs"]
    want = _outcome(incremental_dedup(repeats, clean, cfg))
    assert not want[1]  # every repeat drops against the clean index

    real_append = inc._append
    for table in ("bands", "sigs"):
        idx = str(tmp_path / f"crash_{table}")
        shutil.copytree(base, idx)

        def crash(rows, d, table=table):
            if os.path.basename(d) == table:
                raise OSError(f"killed while writing {table}")
            real_append(rows, d)

        with monkeypatch.context() as m:
            m.setattr(inc, "_append", crash)
            with pytest.raises(OSError, match="killed"):
                update(idx)
        assert inc._check_manifest(idx, cfg)["n_docs"] == len(corpus)
        assert update(idx)["n_docs"] == n_clean
        assert _outcome(incremental_dedup(repeats, idx, cfg)) == want, table

    for d in ("sigs", "bands"):
        with open(os.path.join(clean, d, ".torn.parquet"), "wb") as f:
            f.write(b"not parquet")
        n_rows = pads.dataset(os.path.join(clean, d), format="parquet").count_rows()
        assert rd.read_parquet(os.path.join(clean, d)).count() == n_rows
    assert _outcome(incremental_dedup(repeats, clean, cfg)) == want
