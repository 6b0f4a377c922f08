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
    """The memory tier of the component verifier and its exchange tier
    (``_DRIVER_READ_MAX=-1``: star pass → components → groups) give the
    same drop report, kept pages and kept signatures on a planted, an
    empty, an all-new and an all-repeat batch, in default and exact-set
    mode."""
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
    batches = {
        "planted": _pages(planted),
        "empty": _pages([("b://none", "x")]).filter(lambda r: False),
        "all_new": _pages(
            [(f"f://{i}", " ".join(_doc(rng, vocab, 200))) for i in range(5)]
        ),
        "all_repeat": _pages([(u.replace("c://", "r://"), t) for u, t in corpus]),
    }

    def run(pages, idx, cfg):
        res = incremental_dedup(pages, idx, cfg)
        rep = res.report
        kept = collect_table(res.kept)
        return (
            sorted(zip(*(rep[c].to_pylist() for c in rep.column_names))),
            sorted(zip(kept["url"].to_pylist(), kept["doc_hash"].to_pylist())),
            sorted(collect_table(res.kept_sigs)["doc_hash"].to_pylist()),
        )

    for mode, cfg in (
        ("default", DedupConfig()),
        ("exact", DedupConfig(verify_threshold=1.0, exact_set_verify=True)),
    ):
        idx = str(tmp_path / mode)
        build_index(_pages(corpus), cfg, idx)
        for name, pages in batches.items():
            memory = run(pages, idx, cfg)
            with monkeypatch.context() as m:
                m.setattr(ex, "_DRIVER_READ_MAX", -1)
                exchange = run(pages, idx, cfg)
            assert memory == exchange, (mode, name)
            reasons = {r[2] for r in memory[0]}
            if name == "planted":
                assert {"near_corpus", "near_batch"} <= reasons, (mode, reasons)
            if name == "all_repeat":
                assert reasons == {"exact_corpus"} and not memory[1], mode
