"""Ray Data executions per job call, pinned.

Every streaming execution (a ``materialize``, a collect, a groupby)
pays a fixed start-up cost before any per-document work. At small and
medium corpus sizes that cost dominates a call, so a change that adds a
barrier is a performance regression even when every output is right.
These counts are upper bounds on a small planted corpus; lower them
when a change removes a barrier."""

import pytest
import ray.data as rd
from ray.data._internal.execution.streaming_executor import StreamingExecutor

from dedup.cascade import exact_clusters
from dedup.config import DedupConfig
from dedup.exchange import collect_table
from dedup.pipeline import near_dup_pipeline
from dedup.simhash import simhash_clusters
from dedup.synth import make_pages


@pytest.fixture
def executions(monkeypatch):
    """[count of executions, operator names of each execution...]."""
    n = [0]
    run = StreamingExecutor.execute

    def counted(self, dag, *a, **k):
        n[0] += 1
        n.append([op.name for op in dag.post_order_iter()])
        return run(self, dag, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return n


@pytest.fixture
def scan_pins(monkeypatch):
    """Column names of every ``pipeline.scan_sign`` pin a call makes."""
    import dedup.incremental as inc
    import dedup.pipeline as pl

    names = []
    run = pl.scan_sign

    def spied(*a, **k):
        pin = run(*a, **k)
        names.append(pin.schema().names)
        return pin

    monkeypatch.setattr(pl, "scan_sign", spied)
    monkeypatch.setattr(inc, "scan_sign", spied)
    return names


def _no_text(scan_pins, n):
    """``n`` scan pins were made and none of them holds the text."""
    assert len(scan_pins) == n, scan_pins
    assert all("text" not in names for names in scan_pins), scan_pins


def _pages():
    table, _ = make_pages(n_exact_groups=4, n_near_groups=6, n_singletons=30)
    return rd.from_arrow(table)


def test_near_dup_pipeline_executions(executions, scan_pins):
    """The scan that ingests and signs, then the caller's collect: the
    reps, duplicate counts, pairs and components come from the pin on
    the driver (memory tier)."""
    pages = _pages()
    out = collect_table(near_dup_pipeline(pages, DedupConfig(min_size=1)).clusters)
    assert len(out) > 0
    assert executions[0] <= 2, executions[0]
    _no_text(scan_pins, 1)


def test_exact_clusters_executions(executions):
    pages = _pages()
    out = collect_table(exact_clusters(pages, DedupConfig(min_size=1)))
    assert len(out) > 0
    assert executions[0] <= 2, executions[0]


def test_simhash_clusters_executions(executions, scan_pins):
    """The scan pin (ingest + fingerprints), the caller's collect: pairs
    are found, verified and clustered on the driver (memory tier)."""
    pages = _pages()
    out = collect_table(simhash_clusters(pages, DedupConfig(min_size=1)))
    assert len(out) > 0
    assert executions[0] <= 2, executions[0]
    _no_text(scan_pins, 1)


def test_pinned_dup_counts_run_nothing(executions):
    """The memory tier of ``dup_key_counts`` reads pinned blocks only."""
    from dedup.exchange import dup_key_counts

    ds = rd.range(1000).map_batches(
        lambda b: {"k": b["id"] % 7}, batch_format="numpy"
    ).materialize()
    before = executions[0]
    keys, cnts = dup_key_counts(ds, "k")
    assert executions[0] == before
    assert keys.tolist() == list(range(7)) and int(cnts.sum()) == 1000


def test_incremental_executions(executions, scan_pins, tmp_path):
    """``incremental_dedup`` + ``update_index`` + the caller's collect of
    the kept pages, against an index of the other half of the corpus:
    the scan pin (ingest + signatures), then the collect. Every index
    probe, the verification, the classification and the index writes
    run on the driver (memory tier)."""
    from dedup.incremental import build_index, incremental_dedup, update_index

    table, _ = make_pages(n_exact_groups=4, n_near_groups=6, n_singletons=30)
    cfg = DedupConfig(min_size=1)
    idx = str(tmp_path / "index")
    build_index(rd.from_arrow(table.take(list(range(0, len(table), 2)))), cfg, idx)
    before = executions[0]
    res = incremental_dedup(
        rd.from_arrow(table.take(list(range(1, len(table), 2)))), idx, cfg
    )
    kept = collect_table(res.kept)
    update_index(idx, res.kept_sigs, cfg)
    assert len(res.report) > 0 and len(kept) > 0
    assert executions[0] - before <= 2, executions[0] - before
    _no_text(scan_pins, 2)


def test_build_index_executions(executions, scan_pins, tmp_path):
    """The scan pin (ingest + signatures; its reps are read on the
    driver); the sig and band files and the Bloom sidecar are written
    from memory."""
    from dedup.incremental import build_index

    mf = build_index(_pages(), DedupConfig(min_size=1), str(tmp_path / "index"))
    assert mf["n_docs"] > 0
    assert executions[0] <= 1, executions[0]
    _no_text(scan_pins, 1)


def test_build_index_forced_tier_executions(
    executions, scan_pins, tmp_path, monkeypatch
):
    """With no pin on the driver (``_DRIVER_READ_MAX=-1``): the scan
    pin, its dup count, the reps pin, the sig and band writes, and
    the Bloom build over the reps pin, which reads no written file
    back."""
    import dedup.exchange as ex
    from dedup.incremental import build_index

    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    mf = build_index(_pages(), DedupConfig(min_size=1), str(tmp_path / "index"))
    assert mf["n_docs"] > 0
    _no_text(scan_pins, 1)
    reads = [ops for ops in executions[1:] if any("ReadParquet" in o for o in ops)]
    assert not reads, reads
    assert executions[0] <= 6, executions[0]


def test_long_span_pairs_executions(executions):
    """Ingest, reps and signature pins and the caller's collect: edges
    come from the engine's memory tier and the texts attach from the
    reps pin on the driver."""
    from dedup.suffix import long_span_pairs

    out = collect_table(long_span_pairs(_pages(), DedupConfig(min_size=1)))
    assert len(out) > 0
    assert executions[0] <= 4, executions[0]


@pytest.fixture
def lp_runs(monkeypatch):
    """Count ``unionfind.label_propagation`` calls (the engine imports
    it at call time, so the module attribute is what it runs)."""
    import dedup.unionfind as uf

    n = [0]
    run = uf.label_propagation

    def counted(*a, **k):
        n[0] += 1
        return run(*a, **k)

    monkeypatch.setattr(uf, "label_propagation", counted)
    return n


def test_forced_exchange_tier_runs_no_schema_probe(
    executions, lp_runs, scan_pins, monkeypatch
):
    """The flagship with no pin on the driver (``_DRIVER_READ_MAX=-1``)
    and no map within the broadcast guard (``broadcast_max_rows=0``):
    every join runs, the star edges take label propagation (its one
    run: the verified edges are labeled inside their groups) and the
    labels the Dataset assignment. ``bucketed_join`` reads both sides'
    schemas; a lazy side without a recorded schema makes Ray run a
    ``limit=1`` pass of its whole upstream plan (which then runs again
    for the data)."""
    import dedup.exchange as ex

    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    res = near_dup_pipeline(
        _pages(), DedupConfig(min_size=1, broadcast_max_rows=0)
    )
    out = collect_table(res.clusters)
    assert len(out) > 0 and isinstance(res.labels, rd.Dataset)
    probes = [ops for ops in executions[1:] if "limit=1" in ops]
    assert not probes, probes
    assert lp_runs[0] == 1, lp_runs[0]
    assert executions[0] <= 15, executions[0]
    _no_text(scan_pins, 1)


def test_forced_simhash_tier_executions(executions, lp_runs, scan_pins, monkeypatch):
    """``simhash_clusters`` on the same forced tier: one label
    propagation (the star edges), the per-group verify + label, and the
    Dataset assignment — no edge set is collected onto the driver."""
    import dedup.exchange as ex

    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    out = collect_table(
        simhash_clusters(_pages(), DedupConfig(min_size=1, broadcast_max_rows=0))
    )
    assert len(out) > 0
    probes = [ops for ops in executions[1:] if "limit=1" in ops]
    assert not probes, probes
    assert lp_runs[0] == 1, lp_runs[0]
    assert executions[0] <= 15, executions[0]
    _no_text(scan_pins, 1)


def test_forced_join_tiers_run_no_schema_probe(executions, monkeypatch):
    """``exact_clusters``, ``latest_snapshot`` and ``jaccard_pairs`` with
    both broadcast guards at 0, so every guarded lookup takes its join
    tier: each join side is typed, and no ``limit=1`` schema probe runs.
    ``exact_clusters`` again with no pin on the driver
    (``_DRIVER_READ_MAX=-1``), where the cascade's two membership
    filters join too."""
    import pyarrow as pa

    import dedup.exchange as ex
    from dedup.jaccard import jaccard_pairs
    from dedup.urls import latest_snapshot

    snaps = pa.table(
        {"url": ["u1", "u1", "u1", "u2", "u3", "u3"],
         "ts_us": pa.array([100, 300, 200, 50, 10, 20], pa.int64()),
         "text": ["a", "c", "b", "only", "x", "y"]}
    )
    docs = pa.table(
        {"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
         "text": ["a b c d e f g h", "a b c d e f g x", "q r s t u v w z",
                  "q r s t u v w y", "m n o p q r s t u v"]}
    )
    cfg = DedupConfig(min_size=1, broadcast_max_rows=0)
    monkeypatch.setattr(ex, "BROADCAST_MAX_ROWS", 0)

    def counted(run, bound):
        before = executions[0]
        assert len(run()) > 0
        probes = [ops for ops in executions[1 + before:] if "limit=1" in ops]
        assert not probes, probes
        assert executions[0] - before <= bound, executions[0] - before

    counted(lambda: collect_table(exact_clusters(_pages(), cfg)), 2)
    counted(lambda: collect_table(latest_snapshot(rd.from_arrow(snaps))), 4)
    counted(lambda: jaccard_pairs(rd.from_arrow(docs), k=5), 4)
    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    counted(lambda: collect_table(exact_clusters(_pages(), cfg)), 5)
