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
    n = [0]
    run = StreamingExecutor.execute

    def counted(self, *a, **k):
        n[0] += 1
        return run(self, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return n


def _pages():
    table, _ = make_pages(n_exact_groups=4, n_near_groups=6, n_singletons=30)
    return rd.from_arrow(table)


def test_near_dup_pipeline_executions(executions):
    pages = _pages()
    out = collect_table(near_dup_pipeline(pages, DedupConfig(min_size=1)).clusters)
    assert len(out) > 0
    assert executions[0] <= 5, executions[0]


def test_exact_clusters_executions(executions):
    pages = _pages()
    out = collect_table(exact_clusters(pages, DedupConfig(min_size=1)))
    assert len(out) > 0
    assert executions[0] <= 2, executions[0]


def test_simhash_clusters_executions(executions):
    """Ingest pin, fingerprint pin, the caller's collect: pairs are
    found, verified and clustered on the driver (memory tier)."""
    pages = _pages()
    out = collect_table(simhash_clusters(pages, DedupConfig(min_size=1)))
    assert len(out) > 0
    assert executions[0] <= 3, executions[0]


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
