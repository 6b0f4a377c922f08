"""Cascade-equivalence tests (≅ the reference's test/example corpus)."""

import ray.data as rd

from dedup.cascade import exact_clusters, total_redundant_bytes
from dedup.config import DedupConfig
from dedup.synth import cascade_equiv_table, make_pages


def _partition(clusters_ds):
    """clusters table → sorted list of sorted url lists."""
    df = clusters_ds.to_pandas()
    if df.empty:
        return []
    groups = df.groupby("cluster_id")["url"].apply(lambda s: sorted(s))
    return sorted(groups.tolist())


def test_cascade_equivalence_reference_corpus():
    table, expected = cascade_equiv_table()
    ds = rd.from_arrow(table)
    out = exact_clusters(ds, DedupConfig(min_size=1))
    assert _partition(out) == sorted(sorted(g) for g in expected)


def test_cascade_min_size_gate():
    # reference default min_size=4096 drops the whole 5-6 B corpus
    table, _ = cascade_equiv_table()
    out = exact_clusters(rd.from_arrow(table), DedupConfig(min_size=4096))
    assert _partition(out) == []


def test_redundant_bytes_reference_corpus():
    table, _ = cascade_equiv_table()
    out = exact_clusters(rd.from_arrow(table), DedupConfig(min_size=1))
    # groups: "first\n"(6B)x3, "next\n"(5B)x4, "third\n"(6B)x3
    # redundant = (3-1)*6 + (4-1)*5 + (3-1)*6 = 12+15+12 = 39
    assert total_redundant_bytes(out) == 39


def test_exact_groups_on_synthetic_pages():
    table, exp = make_pages(n_near_groups=5, n_singletons=50)
    ds = rd.from_arrow(table)
    out = exact_clusters(ds, DedupConfig(min_size=1))
    got = _partition(out)
    expected_groups = sorted(sorted(g) for g in exp.exact_groups)
    # every planted exact group must appear exactly; near groups must NOT
    # merge (they differ byte-wise); singletons must not appear
    got_exact = [g for g in got if g[0].startswith("https://ex")]
    assert got_exact == expected_groups
    flat = {u for g in got for u in g}
    assert not flat.intersection(exp.singleton_urls)
    # whitespace/empty rows are singletons -> absent
    for pair in exp.short_hash_split_pairs:
        # same size + same first 4096 bytes but different tail: must NOT group
        assert not (pair[0] in flat and pair[1] in flat and
                    any(pair[0] in g and pair[1] in g for g in got))


def test_short_hash_refines_within_size():
    # two docs with equal size but different content must not cluster
    import pyarrow as pa
    from dedup.synth import BASE_TS
    t = pa.table({
        "url": pa.array(["u1", "u2", "u3", "u4"]),
        "warc_ts": pa.array([BASE_TS] * 4, pa.timestamp("us")),
        "html": pa.array([b""] * 4, pa.binary()),
        "text": pa.array(["aaaa", "bbbb", "cccc", "cccc"]),
        "lang": pa.array(["en"] * 4),
    })
    out = exact_clusters(rd.from_arrow(t), DedupConfig(min_size=1))
    assert _partition(out) == [["u3", "u4"]]


def _pages(texts, prefix="u"):
    import pyarrow as pa
    from dedup.synth import BASE_TS

    n = len(texts)
    return pa.table({
        "url": pa.array([f"{prefix}{i}" for i in range(n)], pa.string()),
        "warc_ts": pa.array([BASE_TS] * n, pa.timestamp("us")),
        "html": pa.array([b""] * n, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    })


def _degenerate_corpora():
    t = _pages(["same text", "other", "same text", "x"])
    return {
        "empty": rd.from_arrow(_pages([])),
        "all_identical": rd.from_arrow(_pages(["one body"] * 5)),
        "zero_row_blocks": rd.from_arrow(
            [_pages([]), t, _pages([]), _pages(["other", "y"], prefix="w")]
        ),
        "all_null_text": rd.from_arrow(_pages([None, None, None])),
    }


_DEGENERATE_PARTITIONS = {
    "empty": [], "all_identical": [[f"u{i}" for i in range(5)]],
    "zero_row_blocks": [["u0", "u2"], ["u1", "w0"]], "all_null_text": [],
}


def test_cascade_tiers_agree_on_degenerate_inputs(monkeypatch):
    """The memory tier (pinned read, in-memory prune) and the exchange
    tier (count exchanges + semi-filters) give the same clusters table,
    schema included, on degenerate corpora."""
    import dedup.exchange as ex
    from dedup.exchange import collect_table
    from dedup.schema import CLUSTERS

    cols = CLUSTERS.names + ["redundant_bytes"]
    for name, ds in _degenerate_corpora().items():
        got = []
        for guard in (None, -1):  # -1: no pin fits → exchange tier
            if guard is not None:
                monkeypatch.setattr(ex, "_DRIVER_READ_MAX", guard)
            t = collect_table(exact_clusters(ds, DedupConfig(min_size=1)))
            monkeypatch.undo()
            got.append(t.sort_by("url"))
        mem, exch = got
        assert mem.column_names == cols, name
        assert mem.equals(exch), name
        assert _partition(rd.from_arrow(mem)) == _DEGENERATE_PARTITIONS[name], name


def test_near_dup_and_simhash_tiers_agree_on_degenerate_inputs(monkeypatch):
    """``near_dup_pipeline`` and ``simhash_clusters`` give the same typed
    clusters table in the memory tier, the exchange tier, and the
    exchange tier with label-propagation components (no edge set fits
    ``broadcast_max_rows=0``) on degenerate corpora."""
    import dedup.exchange as ex
    from dedup.exchange import collect_table
    from dedup.pipeline import near_dup_pipeline
    from dedup.schema import CLUSTERS
    from dedup.simhash import simhash_clusters

    runs = {
        "near_dup": (
            lambda ds, c: near_dup_pipeline(ds, c).clusters, CLUSTERS.names,
        ),
        "simhash": (
            simhash_clusters, [n for n in CLUSTERS.names if n != "size_bytes"],
        ),
    }
    # (exchange._DRIVER_READ_MAX or None to keep it, config overrides);
    # a guard of -1: no pin fits → exchange tier
    tiers = [(None, {}), (-1, {}), (-1, {"broadcast_max_rows": 0})]
    for name, ds in _degenerate_corpora().items():
        for op, (fn, cols) in runs.items():
            got = []
            for guard, kw in tiers:
                if guard is not None:
                    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", guard)
                got.append(
                    collect_table(fn(ds, DedupConfig(min_size=1, **kw))).sort_by("url")
                )
                monkeypatch.undo()
            for t in got:
                assert t.column_names == cols, (name, op)
                assert t.equals(got[0]), (name, op)
            assert _partition(rd.from_arrow(got[0])) == _DEGENERATE_PARTITIONS[name], (name, op)
