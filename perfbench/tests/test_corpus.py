"""The seeded generators: deterministic, layout-free, truthful."""

import numpy as np
import pyarrow as pa
import pytest

import corpus

SCALE = 0.1


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_digest_depends_on_seed_not_block_size(workload):
    a = corpus.generate(workload, 7, block_rows=13, scale=SCALE)
    b = corpus.generate(workload, 7, block_rows=500, scale=SCALE)
    c = corpus.generate(workload, 8, block_rows=13, scale=SCALE)
    assert len(a.pages) != len(b.pages)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def _tokens(c: corpus.Corpus, row: int) -> list[str]:
    return pa.concat_tables(c.pages).column("text")[row].as_py().split(" ")


def _jaccard5(x: list[str], y: list[str]) -> float:
    sx = {tuple(x[i : i + 5]) for i in range(len(x) - 4)}
    sy = {tuple(y[i : i + 5]) for i in range(len(y) - 4)}
    return len(sx & sy) / len(sx | sy)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_planted_truth(workload):
    c = corpus.generate(workload, 3, scale=SCALE)
    texts = pa.concat_tables(c.pages).column("text").to_pylist()
    # negative pairs sit below every clustering threshold
    for a, b in c.neg_pairs:
        assert _jaccard5(_tokens(c, a), _tokens(c, b)) <= 0.3
    # near-dup members are close to their cluster's base page
    for g in c.near_groups:
        for r in g[1:]:
            assert _jaccard5(_tokens(c, g[0]), _tokens(c, r)) >= 0.6
    # exact groups are exactly the identical texts
    seen: dict[str, int] = {}
    for t in texts:
        seen[t] = seen.get(t, 0) + 1
    assert sum(n for n in seen.values() if n > 1) == sum(len(g) for g in c.exact_groups)
    # boilerplate words are told apart by their first letter
    n_x = sum(sum(w.startswith("x") for w in t.split(" ")) for t in texts)
    assert n_x == int(c.boiler_tokens.sum() + c.lone_boiler_tokens.sum())
    # every repeat of snapshot B points at a real A row
    assert len(np.unique(c.repeats[:, 1])) == len(c.repeats)
    assert c.n_pages_b == len(c.repeats) + len(c.fresh_b)


def test_dup_heavy_plants_a_giant_cluster():
    c = corpus.generate("crawl_dup_heavy", 1)
    sizes = sorted(len(g) for g in c.near_groups)
    assert sizes[-1] == corpus.SHAPES["crawl_dup_heavy"].max_cluster
    assert sum(sizes) >= 0.45 * c.n_pages
