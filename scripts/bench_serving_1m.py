"""1M-doc serving-tier measurement (VERDICT r03 items 1 & 8 evidence).

Builds the 1M-page synthetic corpus -> index + doc-shard serving set, then
reports:
  * pinned actor RAM (scoring columns only, the r04 lazy-pinning path) vs
    the full-column in-RAM footprint the r03 ScoreServer paid, and vs the
    on-disk zstd segment bytes;
  * pooled query p50s (term / or3 / and2 / phrase / wand) at 8 actors;
  * build + serving-build walls.

Prints ONE JSON line. Usage:
    python scripts/bench_serving_1m.py           # 1M docs (default)
    GRAFT_1M_N=200000 python scripts/bench_serving_1m.py
"""

import glob
import json
import os
import statistics
import sys
import time

N = int(os.environ.get("GRAFT_1M_N", "1000000"))
OUT = f"/tmp/wnr_1m_idx_{N}"

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    import pyarrow.parquet as pq
    import ray

    ray.init(
        address="local", num_cpus=32, include_dashboard=False, logging_level="ERROR"
    )
    import ray.data

    os.environ["GRAFT_BENCH_PAGES"] = str(N)
    import bench  # noqa: E402  (repo-root harness; reuses its corpus builder)

    assert bench.PAGES_N == N
    path = bench.ensure_pages_corpus()

    from whoosh_novo_ray.index import IndexConfig
    from whoosh_novo_ray.index.docshard import build_index_and_serving, serving_dir_for
    from whoosh_novo_ray.search import And, Or, Phrase, Term
    from whoosh_novo_ray.ops.extract import extract_pages_text
    from whoosh_novo_ray.state.score_pool import ScorePool

    res: dict = {"docs": N, "num_cpus": 32}

    if not os.path.exists(os.path.join(OUT, "manifest.json")):
        docs = extract_pages_text(
            ray.data.read_parquet(
                path, columns=["doc_id", "html"], override_num_blocks=128
            )
        )
        t0 = time.perf_counter()
        man, _sman = build_index_and_serving(
            docs,
            OUT,
            IndexConfig(num_buckets=128, with_positions=True),
            lineage="serving1m",
            doc_count=N,
        )
        res["raw_to_servable_sec"] = round(time.perf_counter() - t0, 1)
        res["postings"] = int(man["n_postings"])

    sdir = serving_dir_for(OUT)
    seg_files = glob.glob(os.path.join(sdir, "segments", "*.parquet"))
    res["segment_disk_bytes"] = int(sum(os.path.getsize(f) for f in seg_files))
    # what r03 pinned: EVERY column decompressed in actor RAM
    res["full_column_bytes"] = int(
        sum(pq.read_table(f).nbytes for f in seg_files)
    )

    t0 = time.perf_counter()
    pool = ScorePool(OUT, num_actors=8)
    res["pool_spinup_sec"] = round(time.perf_counter() - t0, 2)
    res["pinned_bytes"] = int(
        sum(ray.get([a.pinned_bytes.remote() for a in pool._replicas[0]]))
    )
    res["pinned_vs_full"] = round(res["pinned_bytes"] / res["full_column_bytes"], 3)
    res["actor_rss_bytes"] = int(
        sum(ray.get([a.rss_bytes.remote() for a in pool._replicas[0]]))
    )

    qset = {
        "pool_term": Term("search"),
        "pool_or3": Or(Term("search"), Term("index"), Term("data")),
        "pool_and2": And(Term("search"), Term("data")),
        "pool_phrase": Phrase(["search", "index"]),
    }
    for name, q in qset.items():
        pool.search(q, limit=10)  # warm
        samples = []
        for _ in range(15):
            t0 = time.perf_counter()
            pool.search(q, limit=10)
            samples.append(time.perf_counter() - t0)
        res[name + "_p50_ms"] = round(statistics.median(samples) * 1000, 1)
    t, stats = pool.wand_topk(["search", "index", "data"], 10)
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        pool.wand_topk(["search", "index", "data"], 10)
        samples.append(time.perf_counter() - t0)
    res["pool_wand_or3_p50_ms"] = round(statistics.median(samples) * 1000, 1)

    pool.shutdown()
    ray.shutdown()
    print(json.dumps(res))


if __name__ == "__main__":
    main()
