"""Bytes-through-plasma audit for the flagship pipeline.

Every Ray Data operator output block is one object-store write plus at
least one read, so Σ per-operator "Output size bytes" over every
execution is a faithful, engine-accounted proxy for bytes through
plasma. The numbers come from Ray's own ``Dataset.stats()``; nothing is
estimated. Because a child dataset's stats string repeats its parents'
operator sections verbatim, sections are de-duplicated by their exact
text before summing — each operator execution is counted once.

Usage:
  python tools/plasma_audit.py [--sf-dir DIR] [--expand N]

Prints one JSON line:
  {"n_docs": ..., "total_output_bytes": ...,
   "by_operator": {name: bytes, ...}, "wall_sec": ...}

Used for the BASELINE.md byte-reduction evidence (round 5): run at a
fixed corpus on two git revisions and compare ``total_output_bytes``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_OP_SPLIT = re.compile(r"\n(?=Operator \d+ )")
_OP_NAME = re.compile(r"^Operator \d+ ([^:]+):")
_BYTES = re.compile(r"Output size bytes(?: per block)?: .*?([0-9]+) total")


def stats_sections(stats_str: str):
    for sec in _OP_SPLIT.split(stats_str):
        m = _OP_NAME.match(sec.strip())
        if m:
            yield m.group(1).strip(), sec


class Audit:
    def __init__(self):
        self.seen: set[int] = set()
        self.by_op: dict[str, int] = {}

    def add(self, stats_str: str) -> None:
        for name, sec in stats_sections(stats_str):
            key = hash(sec)
            if key in self.seen:
                continue
            self.seen.add(key)
            b = sum(int(x) for x in _BYTES.findall(sec))
            if b:
                self.by_op[name] = self.by_op.get(name, 0) + b

    def total(self) -> int:
        return sum(self.by_op.values())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--expand", type=int, default=20)
    ap.add_argument("--num-cpus", type=int, default=16)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)

    audit = Audit()

    # every pipeline-internal materialize() reports its execution stats
    from ray.data import Dataset

    orig_mat = Dataset.materialize

    def materialize(self, *a, **kw):
        out = orig_mat(self, *a, **kw)
        try:
            audit.add(out.stats())
        except Exception:
            pass
        return out

    Dataset.materialize = materialize
    try:
        from dedup.adapters import expanded_pages
        from dedup.config import DedupConfig
        from dedup.pipeline import near_dup_pipeline

        pages = orig_mat(expanded_pages(args.sf_dir, factor=args.expand))
        n_docs = pages.count()
        t0 = time.monotonic()
        res = near_dup_pipeline(pages, DedupConfig())
        clusters = orig_mat(res.clusters)  # final consumption, un-audited mat
        audit.add(clusters.stats())
        rows = clusters.count()
        wall = time.monotonic() - t0
    finally:
        Dataset.materialize = orig_mat

    print(json.dumps({
        "n_docs": n_docs,
        "cluster_rows": rows,
        "wall_sec": round(wall, 2),
        "total_output_bytes": audit.total(),
        "by_operator": dict(sorted(
            audit.by_op.items(), key=lambda kv: -kv[1])[:20]),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
