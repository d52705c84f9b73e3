"""What a fresh scoring actor costs to start.

Builds a small serving index shaped like the benchmark's (synthetic pages,
4 serving shards), then spawns ``--actors`` fresh ``ScoreServer`` actors
over it, each pinning the shards one actor of a 2-actor ``ScorePool``
pins, plus as many bare ``@ray.remote`` actors as the Ray floor. For each
actor, once it has answered its first call, it prints:

* ``cpu_s``: the main thread's CPU time since the process started, from
  ``/proc/<pid>/task/<pid>/schedstat`` (stolen time and waits for a CPU
  left out), which covers the worker's own start, the imports and the pin;
* ``hwm_mb``: the process's peak RSS (``VmHWM``);
* ``modules``: ``len(sys.modules)`` in the actor;
* whether ``pandas``, ``ray.data`` and ``pyarrow.dataset`` are loaded.

Usage: python scripts/probe_actor_start.py [--pages 2000] [--seed 1]
       [--actors 2]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NUM_SHARDS = 4
WATCHED = ("pandas", "ray.data", "pyarrow.dataset")


def _main_thread_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/task/{pid}/schedstat") as f:
        return int(f.read().split()[0]) / 1e9


def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def _pid(_actor) -> int:
    return os.getpid()


def _modules(_actor) -> tuple[int, dict[str, bool]]:
    return len(sys.modules), {m: m in sys.modules for m in WATCHED}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pages", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--actors", type=int, default=2)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    from whoosh_novo_ray.index import IndexConfig, build_index
    from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for
    from whoosh_novo_ray.state.score_pool import ScoreServer
    from whoosh_novo_ray.testing.pages import synth_pages

    @ray.remote
    class Bare:
        def ping(self) -> bool:
            return True

    work = tempfile.mkdtemp(prefix="probe_actor_start_")
    try:
        t = synth_pages(n=args.pages, seed=args.seed, vocab_size=20_000,
                        mean_len=120)
        path = os.path.join(work, "idx")
        build_index(ray.data.from_arrow(t.select(["doc_id", "text"])), path,
                    IndexConfig(num_buckets=8), lineage="probe-actor-start")
        build_serving_shards(path, num_shards=NUM_SHARDS)
        serving = serving_dir_for(path)
        actors = [
            ("ScoreServer",
             ScoreServer.remote(serving, list(range(i % 2, NUM_SHARDS, 2))))
            for i in range(args.actors)
        ] + [("bare", Bare.remote()) for _ in range(args.actors)]
        ray.get([a.ping.remote() for _kind, a in actors])
        pids = ray.get([a.__ray_call__.remote(_pid) for _kind, a in actors])
        # read the counters before the module probe runs in the actors
        cpu = [_main_thread_cpu_s(p) for p in pids]
        hwm = [_hwm_mb(p) for p in pids]
        mods = ray.get([a.__ray_call__.remote(_modules) for _kind, a in actors])

        print(f"{args.pages} pages, {NUM_SHARDS} shards, {args.actors} "
              f"ScoreServer + {args.actors} bare actors")
        print(f"{'actor':<12} {'cpu_s':>6} {'hwm_mb':>7} {'modules':>7} "
              + " ".join(f"{m:>15}" for m in WATCHED))
        for (kind, _a), c, h, (n, loaded) in zip(actors, cpu, hwm, mods):
            flags = " ".join(f"{'yes' if loaded[m] else 'no':>15}" for m in WATCHED)
            print(f"{kind:<12} {c:>6.2f} {h:>7.1f} {n:>7d} {flags}")
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
