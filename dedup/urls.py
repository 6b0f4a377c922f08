"""URL canonicalization and cross-snapshot (revisit) dedup.

Common-Crawl-style corpora carry the same page under trivially-different
urls (uppercase hosts, default ports, tracking params, fragments,
trailing slashes) and re-crawl the same url across snapshots with
different ``warc_ts``. Before content dedup, a web pipeline canonicalizes
urls and keeps one row per (canonical url) — the latest snapshot.
(No reference analogue: the filesystem tool's path identity is exact,
/root/reference/src/types.rs:256-267; this is its web generalization.)

Canonicalization is an ordered RE2 rule chain (same generated-oracle
pattern as ``extract.py``/``redact.py``): scheme+host lowercased via one
``extract_regex`` (path case is preserved), then fragment / tracking-
param / default-port / trailing-slash rules. ``canonical_sql``
regenerates the identical chain for DuckDB.

Snapshot dedup is dup-bounded: per-batch narrow (url-hash, count)
combiners find the revisited urls (the minority), the winning timestamp
per revisited url is reduced over that subset only, and full rows are
filtered against the broadcast winner map — the corpus itself never
shuffles. Precondition: (url, warc_ts) is unique (WARC snapshot
identity); ties in ts are kept as-is.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .exchange import dup_key_counts, join_typed, min_by_key, semi_filter, small_join
from .hashing import xxh64_arrow

# scheme://host split; host includes any :port (handled by later rules)
HOST_PAT = r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/?#]*)(?P<rest>.*)$"

# (name, RE2 pattern, replacement) — applied IN ORDER after host lowering.
# Fragments go first (nothing after # is identity); tracking params are
# dropped in three positional forms; default ports and trailing slashes
# last, on the already-lowercased scheme/host.
CANON_RULES: tuple[tuple[str, str, str], ...] = (
    ("fragment", r"#.*$", ""),
    ("track_amp", r"&(?:utm_[a-z0-9_]+|gclid|fbclid)=[^&#]*", ""),
    ("track_first", r"\?(?:utm_[a-z0-9_]+|gclid|fbclid)=[^&#]*&", "?"),
    ("track_only", r"\?(?:utm_[a-z0-9_]+|gclid|fbclid)=[^&#]*$", ""),
    ("port_http", r"^(http://[^:/?#]*):80([/?#].*)?$", r"\1\2"),
    ("port_https", r"^(https://[^:/?#]*):443([/?#].*)?$", r"\1\2"),
    # anchored to the FIRST '?' (the real path/query boundary):
    # [^?#]* cannot cross it, so '/?' occurrences INSIDE query values
    # (…?next=/foo/?bar) are left untouched — a bare /\? rewrote them,
    # collapsing distinct urls into one canonical key
    ("slash_query", r"^([^?#]*)/\?", r"\1?"),
    ("slash_end", r"^([^?#]*[^/?#])/$", r"\1"),
)


def canonicalize_array(url: pa.Array) -> pa.Array:
    """One string array → canonical form (vectorized, two kernel passes
    for the host lowering + one RE2 replace per rule)."""
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    url = pc.fill_null(url, "")
    ex = pc.extract_regex(url, HOST_PAT)
    rebuilt = pc.binary_join_element_wise(
        pc.utf8_lower(pc.struct_field(ex, "scheme")),
        pa.array(["://"] * len(url)),
        pc.utf8_lower(pc.struct_field(ex, "host")),
        pc.struct_field(ex, "rest"),
        "",
    )
    cur = pc.coalesce(rebuilt, url)  # non-url strings pass through
    for _, pat, repl in CANON_RULES:
        cur = pc.replace_substring_regex(cur, pat, repl)
    return cur


class Canonicalizer:
    """Callable for ``map_batches``: adds ``out_col`` = canonical url."""

    def __init__(self, url_col: str = "url", out_col: str = "canonical_url"):
        self.url_col, self.out_col = url_col, out_col
        for _, pat, _ in CANON_RULES:  # fail fast on non-RE2
            pc.replace_substring_regex(pa.array([""], pa.string()), pat, "")

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch.append_column(
            self.out_col, canonicalize_array(batch.column(self.url_col))
        )


def canonicalize_urls(
    ds: Dataset, url_col: str = "url", out_col: str = "canonical_url"
) -> Dataset:
    return ds.map_batches(
        Canonicalizer(url_col, out_col), batch_format="pyarrow", zero_copy_batch=True
    )


def canonical_sql(expr: str) -> str:
    """The same chain as ``canonicalize_array`` for a SQL expression
    (oracle side; DuckDB regexp_* is RE2 too)."""
    from .extract import _sql_str

    pat_sql = HOST_PAT.replace("?P<scheme>", "").replace("?P<host>", "").replace(
        "?P<rest>", ""
    )
    q = _sql_str(pat_sql)
    cur = (
        f"(CASE WHEN regexp_matches({expr}, {q}) THEN"
        f" lower(regexp_extract({expr}, {q}, 1)) || '://' ||"
        f" lower(regexp_extract({expr}, {q}, 2)) || regexp_extract({expr}, {q}, 3)"
        f" ELSE {expr} END)"
    )
    for _, pat, repl in CANON_RULES:
        cur = f"regexp_replace({cur}, {_sql_str(pat)}, {_sql_str(repl)}, 'g')"
    return cur


def _ts_i64(col) -> np.ndarray:
    a = col.to_numpy(zero_copy_only=False)
    if a.dtype.kind == "M":
        a = a.view(np.int64)
    return a.astype(np.int64, copy=False)


def latest_snapshot(
    ds: Dataset, url_col: str = "url", ts_col: str = "ts_us"
) -> Dataset:
    """Keep the latest snapshot per url; append ``n_snapshots``.

    Dup-bounded data movement: only narrow (url-hash, partial-count /
    partial-max-ts) combiner rows move; one map of the revisited urls
    (winning ts, snapshot count) attaches through the guarded lookup and
    full rows are filtered in place. Precondition: (url, ts) unique per
    row — WARC snapshot identity.
    """

    def add_kh(batch: pa.Table) -> pa.Table:
        kh = xxh64_arrow(batch.column(url_col)).view(np.int64)
        return batch.append_column("__kh", pa.array(kh, pa.int64()))

    keyed = ds.map_batches(add_kh, batch_format="pyarrow", zero_copy_batch=True)
    keyed = keyed.materialize()  # scanned three times below (counts, winners, attach)

    dup_k, dup_c = dup_key_counts(keyed.select_columns(["__kh"]), "__kh")
    win_v = np.empty(0, np.int64)
    if len(dup_k):
        # winning (max) ts per revisited url only: minimize negated ts
        def neg_ts(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "__kh": batch.column("__kh"),
                    "__negts": pa.array(-_ts_i64(batch.column(ts_col)), pa.int64()),
                }
            )

        narrow = keyed.select_columns(["__kh", ts_col])
        # a pin with rows: its schema is block metadata
        schema = keyed.schema().base_schema
        typed = pa.schema([schema.field("__kh"), schema.field(ts_col)])
        dup_rows = semi_filter(join_typed(narrow, typed, len(dup_k)), "__kh", dup_k)
        win = (
            min_by_key(
                dup_rows.map_batches(neg_ts, batch_format="pyarrow"),
                "__kh",
                "__negts",
            )
            .to_pandas()
        )
        # every revisited url has one winner: sorted, the keys are dup_k
        win_v = win["__negts"].to_numpy()[np.argsort(win["__kh"].to_numpy())]

    # one dup-bounded map (revisited urls only) through the guarded
    # lookup, so an adversarial revisit-heavy corpus falls back to a
    # bucketed join instead of an unbounded ray.put
    revisits = pa.table(
        {
            "__kh": pa.array(dup_k, pa.int64()),
            "__win_negts": pa.array(win_v, pa.int64()),
            "__n": pa.array(dup_c, pa.int64()),
        }
    )
    joined = small_join(keyed, "__kh", revisits, "__kh", how="left")

    def finish(batch: pa.Table) -> pa.Table:
        wv = batch.column("__win_negts")
        hit = pc.is_valid(wv).to_numpy(zero_copy_only=False)
        wvf = pc.fill_null(wv, 0).to_numpy(zero_copy_only=False)
        ts = _ts_i64(batch.column(ts_col))
        keep = ~hit | (-ts == wvf)
        n = pc.fill_null(batch.column("__n"), 1)  # never revisited: one snapshot
        return (
            batch.drop_columns(["__kh", "__win_negts", "__n"])
            .append_column("n_snapshots", n)
            .filter(pa.array(keep))
        )

    return joined.map_batches(finish, batch_format="pyarrow")
