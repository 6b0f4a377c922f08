"""Pipeline configuration (≅ the reference's Options struct,
/root/reference/src/options.rs:21-163, and its validate() implication rules
at options.rs:184-265)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class DedupConfig:
    # --- size gates (≅ --min-size/--max-size, options.rs:38-45).
    # Reference defaults are 4096 B / 1e11 B; web text documents are
    # routinely < 4 KiB so our default min is lower, but the reference
    # defaults are available for cascade-equivalence runs.
    min_size: int = 1
    max_size: int = 0  # 0 = no max (reference sentinel semantics)

    # --- exact cascade
    short_prefix: int = 4096  # SHORT_CHUNK_SIZE, process_matches.rs:35
    hash_seed: int = 0

    # --- MinHash / LSH (north-rule config: 5-gram shingles, 128 perms)
    shingle_k: int = 5
    num_perm: int = 128
    bands: int = 32
    rows_per_band: int = 4
    minhash_seed: int = 42
    # stored signature slot width in bytes (4 or 8). MinHash mins are
    # computed in 64-bit and stored truncated to their low ``sig_bytes``
    # bytes: per-slot false-equal probability is 2^-32 at 4 bytes
    # (negligible next to the 1/num_perm estimator resolution), while
    # signature bytes through the object store / checkpoints halve —
    # the largest non-text intermediate at corpus scale. 8 keeps the
    # full 64-bit slots (pre-v6 layout).
    sig_bytes: int = 4
    # candidate-pair verification: estimated Jaccard (fraction of agreeing
    # signature slots) must reach this; 0 disables verification.
    verify_threshold: float = 0.5
    # buckets up to this size emit all member-member candidate pairs
    # (complete under per-pair verification); larger buckets fall back to
    # linear star edges (the hot-band skew guard, documented recall loss)
    allpairs_bucket_max: int = 64
    # exact mode: verified pairs must ALSO have equal shingle-set hashes
    # (deterministic partition = "identical distinct-shingle set", which a
    # SQL oracle can reproduce; signature equality alone is probabilistic)
    exact_set_verify: bool = False

    # --- execution
    batch_size: int = 4096
    # hash-partition count for the per-partition signing checkpoint (a
    # killed signing stage resumes from completed partitions)
    sign_partitions: int = 8
    join_buckets: int = 32  # partitions for bucketed hash joins
    # dup-bounded broadcast guard: lookup/filter maps larger than this many
    # rows abandon the ray.put broadcast path for a bucketed hash join
    # (exchange.small_join / semi_filter) — the regime where even the
    # duplicate-involved key set outgrows one node's memory. Verified
    # edges past it skip the driver components for label propagation.
    broadcast_max_rows: int = 5_000_000

    # --- token hashing inside MinHash/SimHash shingling. The TOKEN hash
    # is an internal identity proxy (doc_hash stays true xxhash64 per the
    # north rule) — "polars-xxh64" uses polars' vectorized Rust xxhash
    # (measured 61x faster than the numpy XXH64 kernel single-threaded);
    # "xxh64" keeps the in-repo kernel (no polars dependency).
    # Deliberately NOT a post-v1/exec knob: changing it changes signature
    # values, so it participates in every fingerprint and any persisted
    # checkpoint/index built under the other algorithm invalidates loudly.
    token_hash: str = "polars-xxh64"

    # --- url filters (≅ exclude globs, options.rs:186-204)
    exclude_url_regex: str | None = None
    lang_filter: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_perm != self.bands * self.rows_per_band:
            raise ValueError(
                f"num_perm ({self.num_perm}) must equal bands*rows_per_band "
                f"({self.bands}x{self.rows_per_band})"
            )
        if self.max_size and self.max_size < self.min_size:
            raise ValueError("max_size < min_size")
        if self.shingle_k < 1:
            raise ValueError("shingle_k must be >= 1")
        if self.token_hash not in ("polars-xxh64", "xxh64"):
            raise ValueError(f"unknown token_hash {self.token_hash!r}")
        if self.sig_bytes not in (4, 8):
            raise ValueError(f"sig_bytes must be 4 or 8, got {self.sig_bytes}")

    def fingerprint(self) -> str:
        """Stable hash of the config — stored in checkpoint manifests so a
        resume with a different config invalidates the checkpoint (≅ the
        reference's invalidate-checksums-on-size-change, file_db.rs:311-342).

        Fields added after schema v1 are included ONLY when set to a
        non-default value: a schema bump that merely adds knobs must not
        flip every pre-bump manifest's fingerprint, or the in-place
        migration chain (checkpoint.MIGRATIONS) could never keep a stage's
        data — every old checkpoint would fail the fingerprint gate before
        migration ran. Schema v4 dropped the one pure EXECUTION knob
        (``driver_verify_max``, which picked a code path and never changed
        results) from the fingerprint, and the field itself is gone; the
        v3→v4 migration restamps manifests that match ``fingerprint_v3``.
        Deleted v1 fields are hashed at their old defaults
        (``_RETIRED_V1_FIELDS``), the only values a config can still have.
        """
        d = {**asdict(self), **_RETIRED_V1_FIELDS}
        # polars documents Series.hash() as NOT stable across polars
        # versions, and token hashes are baked into PERSISTED signatures
        # (checkpoints, the incremental index) — stamp the version so a
        # polars upgrade invalidates stored state loudly (recompute)
        # instead of silently comparing signatures hashed under two
        # different functions (near-dups would vanish with no error).
        d["token_hash"] = _token_hash_impl(self.token_hash)
        blob = json.dumps(
            {
                k: v
                for k, v in d.items()
                if k not in _POST_V1_FIELDS or v != _FIELD_DEFAULTS[k]
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def fingerprint_v3(self) -> str:
        """This config's fingerprint under the ≤v3 rules (execution knobs
        included at their historical default) — used by the v3→v4
        checkpoint migration to recognize manifests written before the
        exec-knob exclusion."""
        d = {**asdict(self), **_RETIRED_V1_FIELDS}
        for k, hist in _EXEC_KNOB_V3_DEFAULTS.items():
            d[k] = hist
        # ≤v3-era configs had no token_hash field at all (their signatures
        # were hashed with the in-repo xxh64 kernel), so a genuine pre-bump
        # manifest's fingerprint was computed WITHOUT the key. Omit it when
        # the current choice preserves those signature semantics; any other
        # choice changes signature values, so keep the key — the v3
        # fingerprint then never matches and the stage correctly recomputes
        # instead of restamping a checkpoint whose signatures differ.
        if d.get("token_hash") == "xxh64":
            del d["token_hash"]
        blob = json.dumps(
            {
                k: v
                for k, v in d.items()
                if k not in _POST_V1_FIELDS or v != _FIELD_DEFAULTS[k]
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _token_hash_impl(algo: str) -> str:
    """The token-hash IMPLEMENTATION identity for fingerprinting.

    'xxh64' is the in-repo kernel, pinned to published XXH64 vectors —
    stable forever, the name alone identifies it. 'polars-xxh64'
    delegates to polars, whose hash is documented as unstable across
    polars versions, so the version is part of the identity."""
    if algo == "polars-xxh64":
        try:
            import polars

            return f"polars-xxh64@{polars.__version__}"
        except ImportError:  # pragma: no cover - fingerprint of an
            # unusable config; signing would raise before anything persists
            return "polars-xxh64@missing"
    return algo


# Fields added after schema v1 (see dedup/schema.py): excluded from the
# fingerprint while at their default so genuine pre-bump manifests still
# match — semantic changes to the DEFAULTS are covered by SCHEMA_VERSION
# and its migration chain, not the fingerprint.
_POST_V1_FIELDS = {
    "exact_set_verify",
    "sign_partitions",
    "broadcast_max_rows",
    "allpairs_bucket_max",
    "sig_bytes",  # layout default change covered by schema v6's
    # p3_signatures/p4_edges invalidation (and the incremental index's
    # explicit sig_bytes manifest stamp), not the fingerprint
}

# v1 fields since deleted, at the only value a config can still have:
# both fingerprints hash them, so every stored manifest of a config that
# can still be built keeps matching, and one stamped with another value
# fails the gate like any other config change. ``cluster_backend`` picked
# the components tier (now chosen by the verified-edge count);
# ``max_bucket`` was never read; ``signer_concurrency`` sized the MinHash
# actor pool, which is gone.
_RETIRED_V1_FIELDS = {
    "cluster_backend": "driver", "max_bucket": 2000, "signer_concurrency": 16,
}

# Execution-only knobs at their ≤v3 default: ≤v3 fingerprints included
# them, so fingerprint_v3 adds them back to recognize pre-bump manifests.
# No such knob is a config field any more.
_EXEC_KNOB_V3_DEFAULTS = {"driver_verify_max": 20_000_000}

DEFAULT = DedupConfig()
_FIELD_DEFAULTS = asdict(DEFAULT)
