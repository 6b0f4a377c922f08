"""Seeded corpus generators for the four benchmark workloads.

Every page is generated from its own random stream, keyed by
``(seed, workload, stream, page index)``, so a page's text never depends
on how many pages are generated per block or on any Ray block layout.
``block_rows`` only decides how the output is cut into Arrow batches.

Each corpus carries the ground truth the benchmark checks job outputs
against:

- ``near_groups``: planted near-dup clusters (base page, verbatim copies
  and ~2%-token-edited copies), as row indices into ``pages``;
- ``neg_pairs``: planted negative pairs that share a 40% prefix of their
  body (5-gram Jaccard about 0.25, below every clustering threshold);
- boilerplate: header and footer spans drawn from a small pool. Their
  words come from a vocabulary of their own (every word starts with
  ``x``; body words never contain ``x``), so the tokens left after
  substring dedup can be told apart by their first letter;
- ``repeats``: rows of snapshot B that repeat (verbatim) or near-repeat
  (edited) a page of snapshot A, with the A row they copy.

Token words are lowercase ASCII, so the engine's tokenizer sees exactly
the generator's tokens.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WORKLOADS = ("crawl_dup_heavy", "crawl_unique_long")

_BODY_LETTERS = np.array(list("abcdefghijklmnopqrstuvw"))
_BOILER_PREFIX = "x"


@dataclass(frozen=True)
class Shape:
    """Size and duplicate profile of one workload's corpus."""

    n_pages: int  # snapshot A pages
    body_tokens: tuple[int, int]  # body length range, inclusive low
    near_share: float  # share of A pages inside planted near-dup clusters
    zipf_a: float  # cluster-size Zipf exponent (0: all clusters size 2-3)
    max_cluster: int
    verbatim_share: float  # share of cluster copies that are verbatim
    edit_rate: float  # token edit rate of the edited copies
    n_neg_pairs: int
    boiler_share: float  # share of pages wrapped in header/footer spans
    boiler_pool: int  # distinct header spans (and as many footers)
    boiler_tokens: tuple[int, int]  # span length range
    n_pages_b: int  # snapshot B pages
    repeat_share: float  # share of B pages that (near-)repeat an A page


SHAPES = {
    # half the pages in Zipf-sized near-dup clusters, one of them planted
    # at max_cluster (the giant component); snapshot B (near-)repeats A
    "crawl_dup_heavy": Shape(
        n_pages=1200, body_tokens=(150, 600), near_share=0.5, zipf_a=1.6,
        max_cluster=150, verbatim_share=1 / 3, edit_rate=0.02,
        n_neg_pairs=40, boiler_share=0.1, boiler_pool=8,
        boiler_tokens=(16, 48), n_pages_b=600, repeat_share=0.4,
    ),
    # long unique bodies, each wrapped in a header and a footer span
    # from a small pool; 1% of the pages are planted near-dups
    "crawl_unique_long": Shape(
        n_pages=160, body_tokens=(1500, 3000), near_share=0.01, zipf_a=0.0,
        max_cluster=3, verbatim_share=1 / 3, edit_rate=0.02,
        n_neg_pairs=12, boiler_share=1.0, boiler_pool=10,
        boiler_tokens=(40, 160), n_pages_b=80, repeat_share=0.3,
    ),
}


@dataclass
class Corpus:
    workload: str
    seed: int
    pages: list[pa.Table]  # snapshot A, in blocks of block_rows
    pages_b: list[pa.Table]  # snapshot B
    near_groups: list[np.ndarray]  # A row indices, one array per cluster
    exact_groups: list[np.ndarray]  # A rows with identical text (size >= 2)
    neg_pairs: np.ndarray  # (n, 2) A row indices
    # per A row: tokens of boilerplate spans that occur in two or more
    # pages (the ones substring dedup must cut), of spans that occur in
    # this page only, of the body, and whether the body occurs in no
    # other page (the rows body_token_kept is measured on)
    boiler_tokens: np.ndarray
    lone_boiler_tokens: np.ndarray
    body_tokens: np.ndarray
    unique_body: np.ndarray
    # snapshot B rows that repeat an A page: (b_row, a_row, verbatim)
    repeats: np.ndarray
    fresh_b: np.ndarray  # B rows that repeat nothing

    @property
    def n_pages(self) -> int:
        return sum(len(t) for t in self.pages)

    @property
    def n_pages_b(self) -> int:
        return sum(len(t) for t in self.pages_b)

    def text_mb(self) -> float:
        return sum(t.column("text").nbytes for t in self.pages) / 1e6

    def digest(self) -> str:
        """Content digest of both snapshots, row order included, block
        layout excluded."""
        h = hashlib.sha256()
        for tables in (self.pages, self.pages_b):
            for t in tables:
                for url, text in zip(t.column("url").to_pylist(), t.column("text").to_pylist()):
                    h.update(f"{url}\x00{text}\x00".encode())
            h.update(b"\x01")
        return h.hexdigest()


def _stream(seed: int, workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), *key])


def _vocab(rng: np.random.Generator, n: int, letters: np.ndarray, prefix: str = "") -> np.ndarray:
    lens = rng.integers(4, 10, size=n)
    chars = rng.choice(letters, size=(n, 10))
    words = {prefix + "".join(chars[i, : lens[i]]) for i in range(n)}
    return np.array(sorted(words), dtype=object)


def _edit(rng: np.random.Generator, toks: np.ndarray, rate: float, vocab_n: int) -> np.ndarray:
    """Substitute / insert / delete about ``rate`` of the tokens (at
    least one substitution, so an edited copy never equals its base)."""
    n_edit = max(1, int(round(len(toks) * rate)))
    out = toks.copy()
    pos = rng.choice(len(out), size=n_edit, replace=False)
    ops = rng.integers(0, 3, size=n_edit)
    ops[0] = 0
    new = rng.integers(0, vocab_n, size=n_edit)
    # substitutions first (positions stay valid), then deletions and
    # insertions from the back so earlier positions do not shift
    sub = ops == 0
    out[pos[sub]] = np.where(new[sub] == out[pos[sub]], (new[sub] + 1) % vocab_n, new[sub])
    order = np.argsort(-pos)
    for i in order:
        if ops[i] == 1:
            out = np.insert(out, pos[i], new[i])
        elif ops[i] == 2 and len(out) > 20:
            out = np.delete(out, pos[i])
    return out


def _cluster_sizes(rng: np.random.Generator, shape: Shape, n_members: int) -> list[int]:
    # the first cluster is the giant component (the skew case)
    sizes: list[int] = [min(shape.max_cluster, n_members)] if shape.zipf_a > 0 else []
    left = n_members - sum(sizes)
    while left >= 2:
        if shape.zipf_a > 0:
            s = int(min(rng.zipf(shape.zipf_a) + 1, shape.max_cluster))
        else:
            s = int(rng.integers(2, shape.max_cluster + 1))
        s = min(s, left)
        if left - s == 1:
            s += 1
        sizes.append(s)
        left -= s
    return sizes


def _join(words: np.ndarray, docs: list[np.ndarray]) -> pa.Array:
    """Token-id arrays → space-joined text, vectorized in Arrow."""
    lens = np.array([len(d) for d in docs], np.int64)
    flat = pa.array(words).take(pa.array(np.concatenate(docs) if docs else np.empty(0, np.int64)))
    offsets = pa.array(np.concatenate([[0], np.cumsum(lens)]).astype(np.int32))
    return pc.binary_join(pa.ListArray.from_arrays(offsets, flat), " ")


def generate(workload: str, seed: int, block_rows: int = 512, scale: float = 1.0) -> Corpus:
    """Build ``workload``'s two snapshots and their ground truth.

    ``scale`` multiplies every page count (the smoke test uses a tiny
    one); ``block_rows`` only cuts the output into batches."""
    shape = SHAPES[workload]
    n = max(40, int(shape.n_pages * scale))
    n_b = max(20, int(shape.n_pages_b * scale))
    n_neg = max(2, int(shape.n_neg_pairs * scale))

    g = _stream(seed, workload, 0)
    body_vocab = _vocab(g, 30000, _BODY_LETTERS)
    boiler_vocab = _vocab(g, 4000, _BODY_LETTERS, prefix=_BOILER_PREFIX)
    nb_body = len(body_vocab)
    words = np.concatenate([body_vocab, boiler_vocab])
    # a smaller corpus draws from a smaller pool, so every span still
    # occurs in several pages
    n_pool = max(2, round(shape.boiler_pool * min(1.0, scale)))
    pool_len = g.integers(shape.boiler_tokens[0], shape.boiler_tokens[1] + 1, size=2 * n_pool)
    pool = [nb_body + g.integers(0, len(boiler_vocab), size=int(L)) for L in pool_len]

    # page plan: which rows are cluster members, which are negative pairs
    n_near = int(n * shape.near_share)
    sizes = _cluster_sizes(g, shape, n_near)
    n_near = sum(sizes)
    neg_rows = n_near + 2 * n_neg
    if neg_rows > n:
        raise ValueError(f"{workload}: corpus too small for its plan ({n} pages)")

    def body(rng: np.random.Generator) -> np.ndarray:
        L = int(rng.integers(shape.body_tokens[0], shape.body_tokens[1] + 1))
        return rng.integers(0, nb_body, size=L)

    def dress(b: np.ndarray, ids: tuple[int, int]) -> np.ndarray:
        return b if ids[0] < 0 else np.concatenate([pool[ids[0]], b, pool[ids[1]]])

    def wrap(rng: np.random.Generator, b: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        """→ (page, (header span id, footer span id)), ids -1 when bare."""
        if rng.random() >= shape.boiler_share:
            return b, (-1, -1)
        ids = (int(rng.integers(0, n_pool)), n_pool + int(rng.integers(0, n_pool)))
        return dress(b, ids), ids

    docs: list[np.ndarray] = []
    span_ids = np.full((n, 2), -1, np.int64)
    unique = np.zeros(n, bool)
    near_groups: list[np.ndarray] = []
    row = 0
    for ci, s in enumerate(sizes):
        rng = _stream(seed, workload, 1, ci)
        b0 = body(rng)
        base, ids = wrap(rng, b0)
        members = [base]
        for _ in range(s - 1):
            # edits touch the body only: the spans stay the pool's
            verbatim = rng.random() < shape.verbatim_share
            members.append(base if verbatim else dress(_edit(rng, b0, shape.edit_rate, nb_body), ids))
        near_groups.append(np.arange(row, row + s))
        for m in members:
            docs.append(m)
            span_ids[row] = ids
            row += 1
    neg_pairs = np.empty((n_neg, 2), np.int64)
    for pi in range(n_neg):
        rng = _stream(seed, workload, 2, pi)
        a = body(rng)
        cut = int(len(a) * 0.4)
        b = np.concatenate([a[:cut], rng.integers(0, nb_body, size=len(a) - cut)])
        for d in (a, b):
            docs.append(d)
            row += 1
        neg_pairs[pi] = (row - 2, row - 1)
    while row < n:
        rng = _stream(seed, workload, 3, row)
        d, span_ids[row] = wrap(rng, body(rng))
        docs.append(d)
        unique[row] = True
        row += 1
    # a span in one page only is not duplicated content: its tokens are
    # "lone" boilerplate that substring dedup must keep
    span_len = np.array([len(p) for p in pool] + [0], np.int64)  # id -1 → 0
    uses = np.bincount(span_ids[span_ids >= 0], minlength=len(pool))
    shared = np.append(uses >= 2, False)
    tok = span_len[span_ids]
    boiler = (tok * shared[span_ids]).sum(axis=1)
    lone = (tok * ~shared[span_ids]).sum(axis=1)
    bodyn = np.array([len(d) for d in docs], np.int64) - tok.sum(axis=1)

    # snapshot B: repeats of distinct A rows, then fresh unique pages
    gb = _stream(seed, workload, 4)
    n_rep = int(n_b * shape.repeat_share)
    src = np.sort(gb.choice(n, size=n_rep, replace=False))
    docs_b: list[np.ndarray] = []
    repeats = np.empty((n_rep, 3), np.int64)
    for i, a_row in enumerate(src):
        rng = _stream(seed, workload, 5, i)
        verbatim = bool(rng.random() < 0.5)
        docs_b.append(docs[a_row] if verbatim else _edit(rng, docs[a_row], shape.edit_rate, nb_body))
        repeats[i] = (i, a_row, verbatim)
    for i in range(n_rep, n_b):
        rng = _stream(seed, workload, 6, i)
        docs_b.append(wrap(rng, body(rng))[0])

    pages = _tables(words, docs, f"https://a.{workload}.test/{seed}/", block_rows)
    pages_b = _tables(words, docs_b, f"https://b.{workload}.test/{seed}/", block_rows)
    return Corpus(
        workload=workload, seed=seed, pages=pages, pages_b=pages_b,
        near_groups=near_groups, exact_groups=_exact_groups(docs),
        neg_pairs=neg_pairs, boiler_tokens=boiler, lone_boiler_tokens=lone, body_tokens=bodyn,
        unique_body=unique, repeats=repeats,
        fresh_b=np.arange(n_rep, n_b, dtype=np.int64),
    )


def _exact_groups(docs: list[np.ndarray]) -> list[np.ndarray]:
    first: dict[bytes, list[int]] = {}
    for i, d in enumerate(docs):
        first.setdefault(d.tobytes(), []).append(i)
    return [np.array(v, np.int64) for v in first.values() if len(v) > 1]


def _tables(words: np.ndarray, docs: list[np.ndarray], url_prefix: str, block_rows: int) -> list[pa.Table]:
    out = []
    for lo in range(0, len(docs), block_rows):
        part = docs[lo : lo + block_rows]
        ids = np.arange(lo, lo + len(part))
        out.append(
            pa.table(
                {
                    "url": pa.array([f"{url_prefix}{i:07d}" for i in ids], pa.string()),
                    "text": _join(words, part),
                    "lang": pa.array(["en"] * len(part), pa.string()),
                }
            )
        )
    return out


def url_row(urls: pa.Array) -> np.ndarray:
    """Row index encoded in a generated url (its last seven digits)."""
    tail = pc.utf8_slice_codeunits(urls, -7)
    return np.asarray(pc.cast(tail, pa.int64()).to_numpy(zero_copy_only=False))
