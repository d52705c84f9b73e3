"""Where a pooled query spends its CPU, by query class, in one process.

Builds the benchmark's index (synthetic pages written as Parquet, then
extraction, the heavy-term probe, the generational term-bucket build and
4 serving shards, as ``perfbench/lifecycle.py`` ingests them) and serves
the benchmark's query mix against two in-process
``ScoreServer.__ray_actor_class__`` instances pinning shards [0, 2] and
[1, 3], the assignment ``ScorePool`` gives its two actors. Each query runs
the pool's driver steps (``search.plan.rewrite``, the global term stats and
``doc_slots`` masks, one packed request), calls only the servers the pool's
pruning rule picks (``query_slots`` against each server's ``shard_slots``),
then merges the replies. The servers start cold, as every benchmark
cycle's actors do.

CPU is ``time.thread_time``: "driver" is everything but the ``call``s,
"actors" is the ``call``s. Prints each server's pin CPU (its constructor)
and ``pinned_bytes()``, then, per query class, the count, the median and
mean ms of each and the mean number of servers called, then the totals.
With ``--profile N`` it also prints the N functions with the most
cumulative time inside the actors' calls.

Usage: python scripts/probe_query.py [--pages 2000] [--seed 1]
       [--workload tail] [--warm 48] [--queries 384] [--profile 0]
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import functools
import os
import pstats
import shutil
import statistics
import sys
import tempfile
import time
import types
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=("head", "tail"), default="tail")
    ap.add_argument("--warm", type=int, default=48)
    ap.add_argument("--queries", type=int, default=384)
    ap.add_argument("--profile", type=int, default=0)
    args = ap.parse_args()

    import ray

    # the benchmark's Ray session (perfbench/run.py); only the ingest uses it
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 2**20)
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False

    from perfbench.inputs import QueryStream, write_corpus
    from perfbench.lifecycle import NUM_BUCKETS, NUM_SHARDS, TOP_K
    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.build import detect_heavy_terms
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for
    from whoosh_novo_ray.index.incremental import GenerationalIndex
    from whoosh_novo_ray.index.segment import Index, _LRUCache
    from whoosh_novo_ray.ops.extract import extract_pages_text
    from whoosh_novo_ray.search import query as Q
    from whoosh_novo_ray.search.plan import rewrite
    from whoosh_novo_ray.search.qparser import QueryParser
    from whoosh_novo_ray.search.searcher import Searcher
    from whoosh_novo_ray.state.score_pool import (
        ScorePool,
        ScoreServer,
        _merge_replies,
        _pack_request,
        shard_slots,
    )

    work = tempfile.mkdtemp(prefix="probe_query_")
    try:
        input_dir = os.path.join(work, "input")
        corpus = write_corpus(args.pages, args.seed, input_dir, 8)
        cfg = IndexConfig(num_buckets=NUM_BUCKETS)
        docs = extract_pages_text(
            ray.data.read_parquet(input_dir, columns=["doc_id", "html"])
        )
        heavy = detect_heavy_terms(docs, cfg, doc_count=args.pages)
        gi = GenerationalIndex(os.path.join(work, "gi"),
                               dataclasses.replace(cfg, heavy_terms=heavy),
                               policy="merge_small")
        gi.create(docs, lineage="probe-query")
        member = gi.current_path()
        serving = serving_dir_for(member)
        build_serving_shards(member, num_shards=NUM_SHARDS, out_dir=serving)

        assignments = [[0, 2], [1, 3]]
        servers, pins = [], []
        for ks in assignments:
            c0 = time.thread_time()
            servers.append(ScoreServer.__ray_actor_class__(serving, ks))
            pins.append((time.thread_time() - c0) * 1e3)
        server_slots = [shard_slots(ks, NUM_SHARDS) for ks in assignments]
        # the pool's driver state: its stats cache and planning lexicon
        index = Index(member)
        drv = types.SimpleNamespace(index=index, _stats_cache=_LRUCache(200_000))
        drv._term_info = functools.partial(ScorePool._term_info, drv)
        lexicon = Searcher(index)
        qp = QueryParser()
        prof = cProfile.Profile() if args.profile else None

        def run(q: dict) -> tuple[float, float, int]:
            """(driver s, actors s, servers called) of one query."""
            d0 = time.thread_time()
            if q["cls"] == "wand":
                gstats, slots = ScorePool._stats_and_slots(
                    drv, Q.Or(*[Q.Term(t) for t in q["terms"]]), q["terms"]
                )
                request, _ = _pack_request("wand", q["terms"], TOP_K, gstats, None, "auto",
                                           timelimit=None)
            else:
                q2 = rewrite(qp.parse(q["text"]), lexicon,
                             lambda t: ScorePool._gstats(drv, t))
                gstats, slots = ScorePool._stats_and_slots(
                    drv, q2, ScorePool._stat_terms(None, q2)
                )
                request, _ = _pack_request("score", q2, TOP_K, gstats, None, None, None,
                                           timelimit=None, _delay_per_table=0.0)
            called = [srv for srv, m in zip(servers, server_slots) if m & slots]
            a0 = time.thread_time()
            if prof is not None:
                prof.enable()
            replies = [srv.call(request) for srv in called]
            if prof is not None:
                prof.disable()
            a1 = time.thread_time()
            if q["cls"] == "wand":
                replies = [blob for blob, _stats in replies]
            _merge_replies(replies, TOP_K)
            d1 = time.thread_time()
            return (a0 - d0) + (d1 - a1), a1 - a0, len(called)

        warm = QueryStream(corpus["words"], args.seed + 1_000_003, args.workload)
        for q in warm.take(args.warm):
            run(q)
        if prof is not None:
            prof = cProfile.Profile()  # profile the timed queries only
        by_cls: dict[str, list[tuple[float, float, int]]] = defaultdict(list)
        for q in QueryStream(corpus["words"], args.seed, args.workload).take(args.queries):
            by_cls[q["cls"]].append(run(q))

        print(f"{args.workload}, seed {args.seed}, {args.pages} pages, "
              f"{args.queries} queries after {args.warm} warm-up")
        for ks, srv, pin in zip(assignments, servers, pins):
            print(f"server {ks}: pin CPU {pin:.1f} ms, "
                  f"pinned_bytes {srv.pinned_bytes() / 2**20:.2f} MB")
        print(f"{'class':<9} {'n':>4} {'driver p50':>10} {'driver mean':>11} "
              f"{'actors p50':>10} {'actors mean':>11} {'servers':>7}  (ms)")
        rows = sorted(by_cls.items()) + [("all", [x for v in by_cls.values() for x in v])]
        for cls, xs in rows:
            d = [x[0] * 1e3 for x in xs]
            a = [x[1] * 1e3 for x in xs]
            n = statistics.fmean(x[2] for x in xs)
            print(f"{cls:<9} {len(xs):>4} {statistics.median(d):>10.3f} "
                  f"{statistics.fmean(d):>11.3f} {statistics.median(a):>10.3f} "
                  f"{statistics.fmean(a):>11.3f} {n:>7.2f}")
        if prof is not None:
            pstats.Stats(prof).sort_stats("cumulative").print_stats(args.profile)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
