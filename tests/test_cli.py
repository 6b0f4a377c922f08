"""CLI end-to-end: run in-session (Ray already up via fixture), check
outputs + checkpoint resume lineage."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dedup.cli import main
from dedup.synth import make_pages


@pytest.fixture()
def pages_file(tmp_path):
    table, _ = make_pages(n_exact_groups=5, n_near_groups=5, n_singletons=30,
                          n_negative_pairs=3, n_short_split_pairs=2)
    p = tmp_path / "pages.parquet"
    pq.write_table(table, p)
    return str(p)


def test_cli_near_mode_with_checkpoint_resume(pages_file, tmp_path, capsys):
    out1 = str(tmp_path / "out1")
    ck = str(tmp_path / "ckpt")
    rc = main(["--input", pages_file, "--output", out1, "--checkpoint", ck,
               "--print-lineage"])
    assert rc == 0
    s1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s1["rows_in_clusters"] > 0 and s1["n_clusters"] > 0
    assert os.path.isdir(os.path.join(out1, "clusters"))
    assert any(e.startswith("write:") for e in s1["lineage"])

    # second run: same config → checkpoint hits, identical clusters
    out2 = str(tmp_path / "out2")
    rc = main(["--input", pages_file, "--output", out2, "--checkpoint", ck,
               "--print-lineage"])
    assert rc == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(e.startswith("hit:") for e in s2["lineage"])
    assert s2["rows_in_clusters"] == s1["rows_in_clusters"]
    assert s2["n_clusters"] == s1["n_clusters"]


def test_cli_stats_block_schema(pages_file, tmp_path, capsys):
    """--stats with a checkpoint prints one JSON block of per-stage
    rows/bytes/wall from the manifests (G7 progress-counter analogue)."""
    out = str(tmp_path / "out")
    ck = str(tmp_path / "ckpt")
    rc = main(["--input", pages_file, "--output", out, "--checkpoint", ck,
               "--stats"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    block = next(
        json.loads(l) for l in lines
        if l.startswith("{") and "stage_stats" in l
    )
    stats = block["stage_stats"]
    assert {s["stage"] for s in stats} >= {"p1_ingested", "p3_signatures"}
    for s in stats:
        assert set(s) == {"stage", "rows", "bytes", "wall_sec", "parts", "completed"}
        assert s["rows"] > 0 and s["bytes"] > 0 and s["completed"] is True
    sign = next(s for s in stats if s["stage"] == "p3_signatures")
    assert sign["parts"] > 1  # per-partition signing checkpoint


def test_cli_exact_mode(pages_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["--input", pages_file, "--output", out, "--mode", "exact"])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s["redundant_bytes"] > 0
    with open(os.path.join(out, "summary.json")) as f:
        assert json.load(f) == s


def test_cli_distributed_backend_matches_driver(
    pages_file, tmp_path, capsys, monkeypatch
):
    """The near mode's summary is the same when the edges take the
    distributed tier: no pin fits the driver (``_DRIVER_READ_MAX=-1``)
    and no edge set fits the broadcast guard (``broadcast_max_rows=0``),
    so components run as label propagation and the assignment as
    bucketed joins."""
    import dataclasses

    import dedup.cli as cli
    import dedup.exchange as ex

    outs = {}
    for tier in ("driver", "distributed"):
        if tier == "distributed":
            build = cli.build_config
            monkeypatch.setattr(
                cli, "build_config",
                lambda a: dataclasses.replace(build(a), broadcast_max_rows=0),
            )
            monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
        out = str(tmp_path / tier)
        rc = main(["--input", pages_file, "--output", out])
        assert rc == 0
        outs[tier] = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert outs["driver"]["rows_in_clusters"] == outs["distributed"]["rows_in_clusters"]
    assert outs["driver"]["n_clusters"] == outs["distributed"]["n_clusters"]
    assert outs["driver"]["verified_edges"] == outs["distributed"]["verified_edges"] > 0


def test_cli_corpus_mode(pages_file, tmp_path, capsys):
    out = str(tmp_path / "outc")
    rc = main(["--input", pages_file, "--output", out, "--mode", "corpus",
               "--min-size", "1"])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s["mode"] == "corpus" and s["rows_in_corpus"] > 0
    import ray.data as rd

    corpus = rd.read_parquet(os.path.join(out, "corpus")).to_pandas()
    assert len(corpus) == s["rows_in_corpus"]
    # dedup must have removed something: corpus smaller than input pages
    n_in = pq.read_metadata(pages_file).num_rows
    assert len(corpus) < n_in
    assert corpus["url"].is_unique


def test_interrupt_progress_handler(pages_file, tmp_path, capsys):
    """First SIGINT prints a progress block and the run continues; a
    second within 1.5 s exits (reference ctrl-c semantics,
    src/main.rs:54-80)."""
    import signal
    import time

    from dedup.checkpoint import CheckpointManager
    from dedup.cli import _install_interrupt_progress
    from dedup.config import DedupConfig

    ck = CheckpointManager(str(tmp_path / "ckpt"), DedupConfig())
    try:
        _install_interrupt_progress(ck, time.monotonic())
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.05)  # let the handler run
        err = capsys.readouterr().err
        assert '"progress"' in err and "elapsed_sec" in err
        assert "press ctrl-c again" in err
        # second interrupt inside the window exits
        with pytest.raises(SystemExit):
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.05)
    finally:
        signal.signal(signal.SIGINT, signal.default_int_handler)


def test_cli_substr_mode(pages_file, tmp_path, capsys):
    """--mode substr writes the span-stripped corpus + span stats."""
    out = str(tmp_path / "out")
    rc = main(["--input", pages_file, "--output", out, "--mode", "substr"])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s["rows"] > 0
    assert s["total_tokens"] > 0
    # exact/near groups in make_pages share long token runs → spans found
    assert s["dup_tokens_removed"] > 0
    assert os.path.isdir(os.path.join(out, "substr"))
    t = pq.read_table(os.path.join(out, "substr"))
    assert set(t.column_names) >= {
        "url", "n_tokens", "dup_spans", "dup_tokens", "kept_text"
    }


def test_cli_consolidate_mode(pages_file, tmp_path, capsys):
    """--mode consolidate applies the plan crash-safely under --output
    and reports reclaimed bytes; a rerun resumes from the checkpoints."""
    out = str(tmp_path / "outk")
    rc = main(["--input", pages_file, "--output", out, "--mode", "consolidate"])
    assert rc == 0
    s = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n_in = pq.read_metadata(pages_file).num_rows
    assert s["mode"] == "consolidate" and s["rows"] == n_in
    assert s["rows_linked"] > 0 and s["reclaimed_bytes"] > 0
    # applied partitions live under the same root the resume reads; the
    # stage name carries (policy, P, plan content hash) so stale parts
    # from a different plan/policy/modulus can never be resumed
    import glob

    applied = glob.glob(os.path.join(out, "c2_applied.*", "data"))
    assert len(applied) == 1 and os.path.isdir(applied[0])
    rc2 = main(["--input", pages_file, "--output", out, "--mode", "consolidate"])
    assert rc2 == 0
    s2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert s2["rows"] == s["rows"] and s2["reclaimed_bytes"] == s["reclaimed_bytes"]
