"""Where the benchmark's index bytes go, per layout and per Parquet column.

Writes the benchmark's input (synthetic pages as 8 Parquet shards of raw
HTML) and builds its index once, as ``scripts/probe_ingest.py`` does:
extraction feeding the heavy-term probe, ``GenerationalIndex.create`` (the
term-bucket build) and ``build_serving_shards(num_shards=4)`` (the
doc-sharded serving build). Then prints:

* the bytes of each layout (term-bucket and serving; segment and docmeta
  files; manifests and other small files);
* the bytes of each Parquet column of the segment files, per layout: the
  column-chunk sizes summed over row groups, plus the rest of each file
  (footer and magic) as ``(footer)``;
* the share of each layout's term rows with one posting block (``df <=
  block_size``), which store empty skip lists;
* ``bytes_per_text_byte``: the whole ingest root over the input's text
  bytes, the benchmark's metric.

Usage: python scripts/probe_bytes.py [--pages 2000] [--seed 1]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow.parquet as pq  # noqa: E402


def _layout(root: str, path: str) -> str:
    """``bucket``/``serving`` + ``segments``/``docmeta``/``other``."""
    parts = os.path.relpath(path, root).split(os.sep)
    layout = "serving" if "serving" in parts else "bucket"
    kind = next((p for p in parts if p in ("segments", "docmeta")), "other")
    return f"{layout} {kind}"


def column_bytes(path: str) -> dict[str, int]:
    """Column-chunk sizes of one Parquet file, summed over row groups, plus
    the rest of the file under ``(footer)``."""
    md = pq.ParquetFile(path).metadata
    out: dict[str, int] = defaultdict(int)
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        for j in range(rg.num_columns):
            c = rg.column(j)
            out[c.path_in_schema.split(".")[0]] += c.total_compressed_size
    out["(footer)"] = os.path.getsize(path) - sum(out.values())
    return dict(out)


def report(root: str, text_bytes: int, block_size: int) -> None:
    layouts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    columns: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    # term rows and one-block term rows, per layout
    rows: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for d, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            name = _layout(root, p)
            layouts[name][0] += 1
            layouts[name][1] += os.path.getsize(p)
            if name.endswith("segments") and f.endswith(".parquet"):
                for col, n in column_bytes(p).items():
                    columns[col][name.split()[0]] += n
                df = pq.read_table(p, columns=["df"])["df"].to_numpy()
                rows[name.split()[0]][0] += len(df)
                rows[name.split()[0]][1] += int((df <= block_size).sum())
    total = sum(n for _f, n in layouts.values())
    print(f"{'layout':<20}{'files':>7}{'bytes':>12}")
    for name in sorted(layouts):
        nf, n = layouts[name]
        print(f"{name:<20}{nf:>7}{n:>12,}")
    print(f"{'total':<20}{'':>7}{total:>12,}")
    print()
    print(f"{'segment column':<20}{'bucket':>12}{'serving':>12}{'both':>12}")
    for col in sorted(columns, key=lambda c: -sum(columns[c].values())):
        b, s = columns[col]["bucket"], columns[col]["serving"]
        print(f"{col:<20}{b:>12,}{s:>12,}{b + s:>12,}")
    print()
    for layout, (n, one) in sorted(rows.items()):
        print(f"{layout} term rows {n:,}, one block (df <= {block_size}) "
              f"{one:,} ({one / max(n, 1):.1%})")
    print()
    print(f"text bytes {text_bytes:,}  bytes_per_text_byte {total / text_bytes:.4f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    import ray

    # the benchmark's Ray session (perfbench/run.py)
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 2**20)
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False

    from perfbench.inputs import write_corpus
    from perfbench.lifecycle import NUM_BUCKETS, NUM_SHARDS
    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.build import detect_heavy_terms
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for
    from whoosh_novo_ray.index.incremental import GenerationalIndex
    from whoosh_novo_ray.ops.extract import extract_pages_text

    work = tempfile.mkdtemp(prefix="probe_bytes_")
    cfg = IndexConfig(num_buckets=NUM_BUCKETS)
    try:
        input_dir = os.path.join(work, "input")
        corpus = write_corpus(args.pages, args.seed, input_dir, 8)
        root = os.path.join(work, "gi")
        docs = extract_pages_text(
            ray.data.read_parquet(input_dir, columns=["doc_id", "html"])
        )
        heavy = detect_heavy_terms(docs, cfg, doc_count=args.pages)
        gi = GenerationalIndex(root, dataclasses.replace(cfg, heavy_terms=heavy),
                               policy="merge_small")
        gi.create(docs, lineage="probe-bytes")
        member = gi.current_path()
        build_serving_shards(member, num_shards=NUM_SHARDS,
                             out_dir=serving_dir_for(member))
        print(f"{args.pages} pages, seed {args.seed}")
        report(root, corpus["text_bytes"], cfg.block_size)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
