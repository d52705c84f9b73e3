"""Where the benchmark's ingest spends its CPU, phase by phase.

Writes the benchmark's input (synthetic pages as 8 Parquet shards of raw
HTML) and runs its ingest sequence ``--reps`` times: extraction feeding the
heavy-term probe, ``GenerationalIndex.create`` (the term-bucket build) and
``build_serving_shards(num_shards=4)`` (the doc-sharded serving build).
Each phase is a ``perfbench.tracing.Window``, so its CPU is the whole
process tree's (driver, raylet and Ray workers) over that phase. Prints
one line per rep and the per-phase medians.

Usage: python scripts/probe_ingest.py [--pages 2000] [--seed 1] [--reps 8]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import statistics
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PHASES = ("probe", "create", "serving")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=8)
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
    from perfbench.tracing import Window
    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.build import detect_heavy_terms
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for
    from whoosh_novo_ray.index.incremental import GenerationalIndex
    from whoosh_novo_ray.ops.extract import extract_pages_text

    work = tempfile.mkdtemp(prefix="probe_ingest_")
    cfg = IndexConfig(num_buckets=NUM_BUCKETS)
    rows = []
    try:
        input_dir = os.path.join(work, "input")
        write_corpus(args.pages, args.seed, input_dir, 8)
        # rep -1 warms the workers' imports and is not reported
        for rep in range(-1, args.reps):
            root = os.path.join(work, f"gi-{rep}")
            cpu = {}
            docs = extract_pages_text(
                ray.data.read_parquet(input_dir, columns=["doc_id", "html"])
            )
            with Window() as w:
                heavy = detect_heavy_terms(docs, cfg, doc_count=args.pages)
            cpu["probe"] = w.cpu
            gi = GenerationalIndex(root, dataclasses.replace(cfg, heavy_terms=heavy),
                                   policy="merge_small")
            with Window() as w:
                gi.create(docs, lineage=f"probe-{rep}")
            cpu["create"] = w.cpu
            member = gi.current_path()
            with Window() as w:
                build_serving_shards(member, num_shards=NUM_SHARDS,
                                     out_dir=serving_dir_for(member))
            cpu["serving"] = w.cpu
            shutil.rmtree(root, ignore_errors=True)
            if rep >= 0:
                rows.append(cpu)
                print(f"rep {rep}: " + "  ".join(f"{p} {cpu[p]:.2f} s" for p in PHASES)
                      + f"  total {sum(cpu.values()):.2f} s", flush=True)
        med = {p: statistics.median(r[p] for r in rows) for p in PHASES}
        print(f"median of {len(rows)} ({args.pages} pages, CPU-seconds): "
              + "  ".join(f"{p} {med[p]:.2f}" for p in PHASES)
              + f"  total {statistics.median(sum(r.values()) for r in rows):.2f}")
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
