"""Per-call CPU cost of dispatching work to the scoring actors.

Builds a small serving index shaped like the benchmark's (synthetic pages,
4 serving shards on 2 ``ScoreServer`` actors), then times three calls, each
repeated ``--calls`` times per round:

* ``ping``: one actor call that does no work (the floor of one Ray call);
* ``score.remote``: one actor scoring the warm term query, called directly
  with the method's own arguments;
* ``pool.search``: the same query through ``ScorePool.search``, which fans
  out to both actors and merges.

CPU is the driver thread (``time.thread_time``) plus the scoring actors'
main threads, read from ``/proc/<pid>/task/<pid>/schedstat`` as the
benchmark does, so stolen time and waits for a CPU are left out. Prints one
table row per (call, round) in ms per call.

Usage: python scripts/probe_dispatch.py [--pages 2000] [--seed 1]
       [--calls 400] [--rounds 2]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _warm_term(texts) -> str:
    """The corpus's most frequent plain word that is not a stop word."""
    from whoosh_novo_ray.analysis import STOP_WORDS

    counts = Counter(w for s in texts for w in s.split())
    return next(
        w for w, _n in counts.most_common()
        if w.isalpha() and len(w) >= 3 and w not in STOP_WORDS
    )


def _measure(call, calls: int, actor_cpu) -> tuple[float, float]:
    """(driver ms, actors ms) per call over ``calls`` calls."""
    a0, d0 = actor_cpu(), time.thread_time()
    for _ in range(calls):
        call()
    d1, a1 = time.thread_time(), actor_cpu()
    return (d1 - d0) * 1e3 / calls, (a1 - a0) * 1e3 / calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--calls", type=int, default=400)
    ap.add_argument("--rounds", type=int, default=2)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    from perfbench.tracing import ScoringCpu, scoring_actor_pids
    from whoosh_novo_ray.index import IndexConfig, build_index
    from whoosh_novo_ray.search import query as Q
    from whoosh_novo_ray.state.score_pool import ScorePool
    from whoosh_novo_ray.testing.pages import synth_pages

    work = tempfile.mkdtemp(prefix="probe_dispatch_")
    pool = None
    try:
        t = synth_pages(n=args.pages, seed=args.seed, vocab_size=20_000,
                        mean_len=120)
        path = os.path.join(work, "idx")
        build_index(ray.data.from_arrow(t.select(["doc_id", "text"])), path,
                    IndexConfig(num_buckets=8), lineage="probe-dispatch")
        pool = ScorePool(path, num_actors=2, num_shards=4)
        cpu = ScoringCpu(scoring_actor_pids())
        q = Q.Term(_warm_term(t["text"].to_pylist()))
        gstats = pool._gstats(pool._stat_terms(q))
        actor = pool._actors[0]
        rows = {
            "ping": lambda: ray.get(actor.ping.remote()),
            "score.remote": lambda: ray.get(actor.score.remote(q, 10, gstats)),
            "pool.search": lambda: pool.search(q, limit=10),
        }
        for call in rows.values():  # warm caches and worker imports
            for _ in range(20):
                call()
        print(f"query {q.text!r}, {args.pages} pages, 4 shards on 2 actors, "
              f"{args.calls} calls per round")
        print(f"{'call':<14} {'round':>5} {'driver ms':>10} {'actors ms':>10} "
              f"{'total ms':>9}")
        for r in range(args.rounds):
            for name, call in rows.items():
                d, a = _measure(call, args.calls, cpu.actors)
                print(f"{name:<14} {r:>5} {d:>10.3f} {a:>10.3f} {d + a:>9.3f}")
    finally:
        if pool is not None:
            pool.shutdown()
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
