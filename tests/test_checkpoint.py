"""Resume semantics (≅ --resume-stage3/4, main.rs:114-119), per-partition
signing resume (≅ checksum memoization, process_matches.rs:435-452) and
schema migration (≅ migrate_db, file_db.rs:457-511)."""

import json
import os

import pyarrow as pa
import pytest
import ray.data as rd

from dedup.checkpoint import CheckpointManager
from dedup.config import DedupConfig
from dedup.pipeline import cluster_partition, near_dup_pipeline
from dedup.synth import make_pages


def _run(tmpdir, cfg, table):
    ckpt = CheckpointManager(str(tmpdir), cfg)
    res = near_dup_pipeline(rd.from_arrow(table), cfg, checkpoint=ckpt)
    return cluster_partition(res.clusters), ckpt


def _kinds(events):
    """events → list of (verb, stage) with part suffixes folded away."""
    out = []
    for e in events:
        verb, _, rest = e.partition(":")
        stage = rest.split("/")[0]
        if not out or out[-1] != (verb, stage):
            out.append((verb, stage))
    return out


def test_resume_identical_clusters(tmp_path):
    table, _ = make_pages(n_exact_groups=5, n_near_groups=5, n_singletons=30)
    cfg = DedupConfig(min_size=1)
    first, ck1 = _run(tmp_path, cfg, table)
    assert _kinds(ck1.events) == [
        ("write", "p1_ingested"),
        ("write", "p3_signatures"),
        ("write", "p4_labels"),
    ]
    # every signing partition has its own lineage record
    assert sum(e.startswith("write:p3_signatures/part-") for e in ck1.events) == cfg.sign_partitions
    # mtime of stage-1 parquet must not change on resume
    p1_dir = os.path.join(str(tmp_path), "p1_ingested", "data")
    mtimes = {f: os.path.getmtime(os.path.join(p1_dir, f)) for f in os.listdir(p1_dir)}

    second, ck2 = _run(tmp_path, cfg, table)
    assert _kinds(ck2.events) == [
        ("hit", "p1_ingested"),
        ("hit", "p3_signatures"),
        ("hit", "p4_labels"),
    ]
    assert second == first
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(p1_dir, f)) == m, "stage recomputed"


def test_partial_checkpoint_resumes_later_stage_only(tmp_path):
    table, _ = make_pages(n_exact_groups=5, n_near_groups=5, n_singletons=30)
    cfg = DedupConfig(min_size=1)
    first, ck1 = _run(tmp_path, cfg, table)
    # kill after stage 1: delete the signatures checkpoint
    ck1.invalidate("p3_signatures")
    second, ck2 = _run(tmp_path, cfg, table)
    # p4 was derived from the rebuilt p3 → must also rebuild (lineage)
    assert _kinds(ck2.events) == [
        ("hit", "p1_ingested"),
        ("write", "p3_signatures"),
        ("write", "p4_labels"),
    ]
    assert second == first


def test_stale_p4_edges_stage_is_retired(tmp_path):
    """A root written before ``p4_labels`` replaced the ``p4_edges``
    stage loses that stage when the flagship runs on it, so
    ``stage_stats`` (CLI ``--stats``) no longer lists it."""
    table, _ = make_pages(n_exact_groups=3, n_near_groups=3, n_singletons=10)
    cfg = DedupConfig(min_size=1)
    stale = tmp_path / "p4_edges"
    (stale / "data").mkdir(parents=True)
    (stale / "manifest.json").write_text(
        json.dumps({"stage": "p4_edges", "completed": True, "rows": 3})
    )
    stages = lambda ck: [s["stage"] for s in ck.stage_stats()]  # noqa: E731
    assert stages(CheckpointManager(str(tmp_path), cfg)) == ["p4_edges"]
    _, ck = _run(tmp_path, cfg, table)
    assert not stale.exists()
    assert stages(ck) == ["p1_ingested", "p3_signatures", "p4_labels"]


def test_distributed_backend_checkpoints_labels_as_parquet(tmp_path, monkeypatch):
    """Component labels past the broadcast guard
    (``broadcast_max_rows=0``) take the distributed tier — the Dataset
    assignment; ``p4_labels`` is a parquet checkpoint there too, and a
    resume reads it back as a Dataset (never collected onto the
    driver)."""
    import dedup.exchange as ex

    table, _ = make_pages(n_exact_groups=4, n_near_groups=4, n_singletons=20)
    cfg = DedupConfig(min_size=1, broadcast_max_rows=0)
    monkeypatch.setattr(ex, "_DRIVER_READ_MAX", -1)
    first, ck1 = _run(tmp_path, cfg, table)
    assert _kinds(ck1.events) == [
        ("write", "p1_ingested"),
        ("write", "p3_signatures"),
        ("write", "p4_labels"),
    ]
    edir = os.path.join(str(tmp_path), "p4_labels", "data")
    assert any(f.endswith(".parquet") for f in os.listdir(edir))
    ck2 = CheckpointManager(str(tmp_path), cfg)
    res = near_dup_pipeline(rd.from_arrow(table), cfg, checkpoint=ck2)
    assert _kinds(ck2.events) == [
        ("hit", "p1_ingested"),
        ("hit", "p3_signatures"),
        ("hit", "p4_labels"),
    ]
    assert isinstance(res.labels, rd.Dataset) and res.n_edges() > 0
    assert cluster_partition(res.clusters) == first
    monkeypatch.undo()
    # and the partition equals the memory tier's (no-checkpoint run)
    drv = cluster_partition(
        near_dup_pipeline(rd.from_arrow(table), DedupConfig(min_size=1)).clusters
    )
    assert first == drv


def test_config_change_invalidates(tmp_path):
    table, _ = make_pages(n_exact_groups=3, n_near_groups=2, n_singletons=10)
    _run(tmp_path, DedupConfig(min_size=1), table)
    _, ck2 = _run(tmp_path, DedupConfig(min_size=2), table)
    assert _kinds(ck2.events) == [
        ("write", "p1_ingested"),
        ("write", "p3_signatures"),
        ("write", "p4_labels"),
    ]


def test_kill_mid_stage_resumes_from_completed_parts(tmp_path):
    """A stage killed mid-way resumes WITHOUT recomputing finished
    partitions (north rule: per-partition lineage)."""
    cfg = DedupConfig()
    calls: list[int] = []

    def make_part(pid: int):
        calls.append(pid)
        return rd.from_arrow(
            pa.table({"part": pa.array([pid] * 3, pa.int64()),
                      "v": pa.array(range(3), pa.int64())})
        )

    def failing(pid: int):
        if pid == 2:
            raise RuntimeError("killed")
        return make_part(pid)

    ck = CheckpointManager(str(tmp_path), cfg)
    with pytest.raises(RuntimeError):
        ck.load_or_run_parts("stage_x", [0, 1, 2, 3], failing)
    assert calls == [0, 1]  # parts 0,1 durably written before the kill

    ck2 = CheckpointManager(str(tmp_path), cfg)
    out = ck2.load_or_run_parts("stage_x", [0, 1, 2, 3], make_part)
    assert calls == [0, 1, 2, 3]  # only 2,3 computed on resume
    assert [e for e in ck2.events if e.startswith("hit:")] == [
        "hit:stage_x/part-0", "hit:stage_x/part-1",
    ]
    df = out.to_pandas()
    assert sorted(df["part"].unique().tolist()) == [0, 1, 2, 3]
    assert len(df) == 12
    m = ck2.manifest("stage_x")
    assert m["completed"] and m["partitioned"]
    assert all(m["parts"][str(p)]["completed"] for p in range(4))


def test_schema_migration_in_place(tmp_path):
    """A v1 checkpoint of a stage whose layout the v2 bump did not touch
    is stamped forward WITHOUT recompute; the signatures stage (whose
    schema did change) recomputes."""
    from dedup.schema import SCHEMA_VERSION

    # token_hash="xxh64" preserves v1-era signature semantics — the only
    # config under which restamping an old checkpoint is sound (a genuine
    # v1 build hashed tokens with the in-repo kernel; no token_hash key
    # existed in its fingerprint)
    cfg = DedupConfig(token_hash="xxh64")
    ck = CheckpointManager(str(tmp_path), cfg)
    runs: list[str] = []

    def build(tag):
        def fn():
            runs.append(tag)
            return rd.from_arrow(pa.table({"x": pa.array([1, 2, 3], pa.int64())}))

        return fn

    ck.load_or_run("p1_ingested", build("p1"))
    ck.load_or_run("p3_signatures", build("p3"))
    assert runs == ["p1", "p3"]

    # rewrite both manifests as GENUINE v1 manifests: schema_version 1 and
    # the fingerprint a v1 build would have computed — sha256 over the v1
    # field set only (no exact_set_verify / sign_partitions /
    # broadcast_max_rows keys existed then). fingerprint() must still
    # match it for a default config, or migration is dead code (every v1
    # stage would fail the fingerprint gate before migration ran).
    import hashlib as _hl
    from dataclasses import asdict as _asdict

    from dedup.config import _EXEC_KNOB_V3_DEFAULTS, _POST_V1_FIELDS

    v1_values = dict(_asdict(cfg))
    # a genuine v1 build ran with the execution knobs at their v1-era
    # defaults (driver_verify_max=20M), not today's — and had NO
    # token_hash key at all (the field postdates v3). It also wrote the
    # v1 fields deleted since, at the only values a config can have now.
    v1_values.update(_EXEC_KNOB_V3_DEFAULTS)
    v1_values.update(
        {"cluster_backend": "driver", "max_bucket": 2000, "signer_concurrency": 16}
    )
    del v1_values["token_hash"]
    v1_fields = {
        k: v for k, v in v1_values.items() if k not in _POST_V1_FIELDS
    }
    v1_fp = _hl.sha256(
        json.dumps(v1_fields, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    # since schema v4 the v1 fingerprint is recognized through the ≤v3
    # rules (fingerprint_v3) by the v3→v4 restamp migration — NOT by raw
    # equality with fingerprint() (which now excludes exec knobs)
    assert v1_fp == cfg.fingerprint_v3(), "v1 manifests would never validate"
    for stage in ("p1_ingested", "p3_signatures"):
        mpath = os.path.join(str(tmp_path), stage, "manifest.json")
        m = json.load(open(mpath))
        m["schema_version"] = 1
        m["config_fingerprint"] = v1_fp
        json.dump(m, open(mpath, "w"))

    ck2 = CheckpointManager(str(tmp_path), cfg)
    ck2.load_or_run("p1_ingested", build("p1"))
    ck2.load_or_run("p3_signatures", build("p3"))
    assert runs == ["p1", "p3", "p3"]  # p1 migrated in place, p3 recomputed
    assert any(e.startswith("migrate:p1_ingested:v1->v2") for e in ck2.events)
    assert ck2.manifest("p1_ingested")["schema_version"] == SCHEMA_VERSION


def test_migration_v3_to_v4_exec_knob_fingerprint(tmp_path):
    """A v3 manifest (fingerprint computed WITH driver_verify_max under
    the old rules) survives the v4 bump when the semantic config is
    unchanged — and is rejected when the semantic config differs."""
    import json
    import os

    from dedup.checkpoint import CheckpointManager
    from dedup.config import DedupConfig
    from dedup.schema import SCHEMA_VERSION

    # v3-era signature semantics ⟺ token_hash="xxh64" (see the v1 test)
    cfg = DedupConfig(token_hash="xxh64")
    cm = CheckpointManager(str(tmp_path / "ck"), cfg)
    sdir, ddir, mpath = cm._paths("p1_ingested")
    os.makedirs(ddir, exist_ok=True)
    # forge a v3-era manifest: old-rules fingerprint, old schema version
    with open(mpath, "w") as f:
        json.dump(
            {"schema_version": 3, "config_fingerprint": cfg.fingerprint_v3()}, f
        )
    m = cm._maybe_migrate("p1_ingested")
    assert m is not None
    assert m["schema_version"] == SCHEMA_VERSION
    assert m["config_fingerprint"] == cfg.fingerprint()
    assert any(e.startswith("migrate:p1_ingested:v3->v4") for e in cm.events)

    # a semantically different config must NOT be restamped
    cfg2 = DedupConfig(shingle_k=7, token_hash="xxh64")
    cm2 = CheckpointManager(str(tmp_path / "ck2"), cfg2)
    sdir2, ddir2, mpath2 = cm2._paths("p1_ingested")
    os.makedirs(ddir2, exist_ok=True)
    with open(mpath2, "w") as f:
        json.dump(
            {"schema_version": 3, "config_fingerprint": cfg.fingerprint_v3()}, f
        )
    assert cm2._maybe_migrate("p1_ingested") is None

    # the default polars token hash changes signature VALUES vs any v3
    # checkpoint, so a genuine v3 manifest must never be restamped under
    # it (recompute is the only sound outcome)
    cfg3 = DedupConfig()  # token_hash="polars-xxh64"
    cm3 = CheckpointManager(str(tmp_path / "ck3"), cfg3)
    _, ddir3, mpath3 = cm3._paths("p1_ingested")
    os.makedirs(ddir3, exist_ok=True)
    with open(mpath3, "w") as f:
        json.dump(
            {"schema_version": 3, "config_fingerprint": cfg.fingerprint_v3()}, f
        )
    assert cm3._maybe_migrate("p1_ingested") is None


def test_fingerprint_stamps_polars_version():
    """polars' hash is version-unstable and token hashes persist inside
    signatures: the fingerprint must pin the polars VERSION so an
    upgrade invalidates stored signatures loudly (recompute), never
    silently compares signatures hashed under two different functions."""
    import polars

    from dedup.config import DedupConfig, _token_hash_impl

    assert _token_hash_impl("polars-xxh64") == f"polars-xxh64@{polars.__version__}"
    assert _token_hash_impl("xxh64") == "xxh64"
    # and the stamp actually reaches the fingerprint
    a = DedupConfig().fingerprint()
    try:
        orig = polars.__version__
        polars.__version__ = "999.0.0-hypothetical"
        assert DedupConfig().fingerprint() != a
    finally:
        polars.__version__ = orig
    assert DedupConfig().fingerprint() == a


def test_fingerprints_pinned():
    """Stored manifests hold these values: a config that can still be
    built must keep hashing to them (token_hash="xxh64" keeps the
    polars version out of the hash)."""
    cfg = DedupConfig(token_hash="xxh64")
    assert cfg.fingerprint() == "2cf937245721941b"
    assert cfg.fingerprint_v3() == "7f0485e061f4a4a6"
    cfg = DedupConfig(token_hash="xxh64", exact_set_verify=True, sig_bytes=8)
    assert cfg.fingerprint() == "45b3c996676098f8"
    assert cfg.fingerprint_v3() == "29e7ae88fbed1313"


@pytest.mark.parametrize(
    "field", ["cluster_backend", "max_bucket", "driver_verify_max", "signer_concurrency"]
)
def test_deleted_config_fields_raise(field):
    """Deleted fields fail loudly instead of being silently ignored."""
    with pytest.raises(TypeError):
        DedupConfig(**{field: 1})
