"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {head,tail} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same workload with spans and Ray Data's
per-operator stats on and prints the per-layer metrics. See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

# the run's wall time (a diagnostic) counts from here
T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# importing the library fails (no result printed) outside a checkout of it
from perfbench.inputs import BLOCK, CLASSES  # noqa: E402
from perfbench.tracing import SHARE_LAYERS  # noqa: E402

E2E_UNITS = {
    "ingest_cpu_s": "s",
    "bytes_per_text_byte": "ratio",
    "query_cpu_p50_ms": "ms",
    "query_cpu_p95_ms": "ms",
    "pool_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "ops.extract.wall_s": "s",
    "analysis.tokens_per_s": "tokens/s",
    "index.build.heavy_probe_s": "s",
    "index.build.wall_s": "s",
    **{
        f"index.build.op.{stage}.{kind}_s": "s"
        for stage in ("tokenize", "shuffle", "encode")
        for kind in ("wall", "cpu")
    },
    "index.build.postings": "count",
    "index.build.bytes": "bytes",
    "index.docshard.bytes": "bytes",
    "index.docshard.serving_build_s": "s",
    "state.score_pool.start_s": "s",
    "state.score_pool.refresh_s": "s",
    "state.score_pool.visible_s": "s",
    "state.score_pool.pinned_mb": "MB",
    **{f"state.score_pool.class.{c}.p50_ms": "ms" for c in CLASSES},
    "state.score_pool.actor_score_ms": "ms",
    "state.score_pool.term_cache_new_per_query": "count",
    "index.segment.term_stats_ms": "ms",
    "index.segment.expand_ms": "ms",
    "index.segment.expand_rows_read": "count",
    "search.qparser.parse_us": "us",
    "search.wand.decoded_blocks_frac": "ratio",
    **{f"search.searcher.class.{c}.query_ms": "ms" for c in CLASSES},
    "index.incremental.commit_s": "s",
    "index.incremental.members": "count",
    "index.incremental.bytes_written_per_delta_byte": "ratio",
    "index.merge.postings_rewritten": "count",
    **{f"trace.self_share.{layer}": "ratio" for layer in SHARE_LAYERS},
    "trace.overhead_frac": "ratio",
}

INPUT_SHARDS = 8


WORKLOADS = ("head", "tail")


def plan(tiny: bool):
    from perfbench.lifecycle import Plan

    if not tiny:
        return Plan()
    # two cycles, so a traced run has an untraced one to compare
    return Plan(pages=300, warm_queries=5, block_queries=len(BLOCK), blocks=2,
                min_cycles=2, quiet_blocks=2, delta_pages=20,
                round_queries=len(BLOCK))


def _ray_init(work_root: str) -> float:
    import ray

    t0 = time.perf_counter()
    kw = {}
    # Ray keeps unix sockets under its temp dir; their paths must stay
    # short, so the checkout-local temp dir is used only when it fits
    temp = os.path.join(work_root, "ray")
    if len(temp) <= 40:
        kw["_temp_dir"] = temp
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 * 2**20,
        **kw,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return time.perf_counter() - t0


def _warm_up(work: str) -> None:
    """One tiny build, so the first timed operation does not pay the
    workers' one-time imports."""
    import ray.data

    from perfbench.lifecycle import NUM_BUCKETS, NUM_SHARDS
    from whoosh_novo_ray.index import IndexConfig, build_index
    from whoosh_novo_ray.index.build import detect_heavy_terms
    from whoosh_novo_ray.index.docshard import build_serving_shards
    from whoosh_novo_ray.testing.pages import synth_pages

    docs = ray.data.from_arrow(synth_pages(n=200, seed=0).select(["doc_id", "text"]))
    cfg = IndexConfig(num_buckets=NUM_BUCKETS)
    detect_heavy_terms(docs, cfg, doc_count=200)
    out = os.path.join(work, "warm")
    build_index(docs, out, cfg, doc_count=200)
    build_serving_shards(out, num_shards=NUM_SHARDS)
    shutil.rmtree(out, ignore_errors=True)


def run(args) -> dict:
    import numpy as np
    import ray

    from perfbench.inputs import write_corpus
    from perfbench.lifecycle import Run
    from perfbench.tracing import RayDataStats, Tracer, cpu_counters, host_context

    c0 = cpu_counters()
    p = plan(args.tiny)
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = Tracer()
    rd_stats = RayDataStats(tracer)
    rd_logger = logging.getLogger("ray.data")
    try:
        ray_s = _ray_init(work_root)
        rd_logger.addHandler(rd_stats)
        rd_stats.set_active(False)
        _warm_up(work)
        input_dir = os.path.join(work, "input")
        corpus = write_corpus(p.pages, args.seed, input_dir, INPUT_SHARDS)
        # the set-up's objects stay for the whole run: keep full garbage
        # collections from walking them during timed operations
        gc.collect()
        gc.freeze()
        prep_s = time.perf_counter() - T_START
        r = Run(p, args.workload, args.seed, args.seconds, bool(args.trace), tracer,
                rd_stats, work, corpus, input_dir,
                inject_wrong_result=args.inject_wrong_result)
        try:
            r.run()
        finally:
            if r.pool is not None:
                r.pool.shutdown()
    finally:
        rd_stats.set_active(False)
        rd_logger.removeHandler(rd_stats)
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = {k: {"value": r.layer[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": r.e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }
    host = host_context(c0, cpu_counters())
    interference = [w.interference for w in r.ingest_windows + r.query_windows]
    host.update(ray_init_s=round(ray_s, 3), prep_s=round(prep_s, 3),
                wall_s=round(time.perf_counter() - T_START, 3),
                windows=len(interference),
                interference_median=round(float(np.median(interference)), 3),
                interference_max=round(float(np.max(interference)), 3))
    rec_dir = os.path.join(work_root, "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec = {"args": vars(args), "plan": dataclasses.asdict(p), "host": host,
           "wall": r.wall,
           "errors": r.errors, "dropped": r.dropped, "result": result,
           "layer": r.layer, "samples": r.times,
           "windows": {
               "ingest": [(w.wall, w.interference, w.cpu) for w in r.ingest_windows],
               "query": [(w.wall, w.interference, w.cpu, w.samples)
                         for w in r.query_windows],
           }}
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(rec_dir, name + ".json"), "w") as f:
        json.dump(rec, f, indent=1)
    if args.trace:
        tracer.dump(os.path.join(rec_dir, name + ".trace.json"),
                    {"ray_data_ops": rd_stats.rows})
    print("host " + json.dumps(host), file=sys.stderr)
    print("wall " + json.dumps({k: round(v, 4) for k, v in r.wall.items()}), file=sys.stderr)
    for e in r.errors:
        print("check failed: " + e, file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the smoke test only
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--inject-wrong-result", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # Ray's workers import the library too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
