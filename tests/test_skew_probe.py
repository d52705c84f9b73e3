"""Skew-proof end-to-end probe (VERDICT r03 item 8): a 50%-df stopword-grade
term through build -> serving shards -> pooled Or / WAND. The invariants that
survive a hot term over 10^10 docs:

  * only top-k rows ever leave an actor (no posting-blob transfer at query
    time) — asserted directly on the per-actor remote return values;
  * per-shard work is bounded/balanced: the hot term's postings are split
    across every shard by the doc-hash partitioning, no shard holds more
    than a small multiple of df/num_shards;
  * results stay rank-identical to the local searcher.
"""

import numpy as np
import pyarrow as pa
import pytest

import ray

from whoosh_novo_ray.search import Or, Searcher, Term
from whoosh_novo_ray.state.score_pool import ScorePool

N_DOCS = 6000
N_SHARDS = 8


@pytest.fixture(scope="module")
def skew_env(ray_session, tmp_path_factory):
    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig, build_index

    rng = np.random.default_rng(7)
    vocab = [f"w{i:04d}" for i in range(500)]
    texts = []
    for i in range(N_DOCS):
        words = list(rng.choice(vocab, size=12))
        if i % 2 == 0:  # 50%-df hot term
            words.insert(int(rng.integers(0, 12)), "hotterm")
        if i % 997 == 0:  # rare selective term (sets the WAND threshold)
            words.append("needleterm")
        texts.append(" ".join(words))
    tbl = pa.table(
        {"doc_id": pa.array(range(N_DOCS), pa.int64()), "text": texts}
    )
    out = str(tmp_path_factory.mktemp("skew") / "idx")
    build_index(
        ray.data.from_arrow(tbl), out, IndexConfig(num_buckets=4), lineage="skew"
    )
    idx = Index(out)
    pool = ScorePool(out, num_actors=4, num_shards=N_SHARDS)
    yield idx, pool
    pool.shutdown()


def test_hot_term_parity_and_bounded_transfer(skew_env):
    idx, pool = skew_env
    local = Searcher(idx)
    for q in [
        Term("hotterm"),
        Or(Term("hotterm"), Term("needleterm")),
        Or(Term("hotterm"), Term("w0001"), Term("w0002")),
    ]:
        mine = pool.search(q, limit=10)
        assert mine.to_pydict() == local.search(q, limit=10).to_pydict()
    # direct fan-out: each actor returns AT MOST limit rows even though the
    # hot term matches ~N_DOCS/2 — posting blobs never cross to the driver
    p = pool._plan(Term("hotterm"))
    (actors,) = pool._replicas
    parts = ray.get(
        [a.score.remote(p.q, 10, p.gstats, None) for a in actors]
    )
    assert all(len(t) <= 10 for t in parts)
    assert sum(len(t) for t in parts) <= 10 * len(actors)


def test_hot_term_shard_balance(skew_env):
    """Doc-hash sharding splits the hot term's df across every shard with no
    shard above ~2x the mean (md5 doc-hash is uniform; 3000 postings over 8
    shards concentrates tightly)."""
    idx, pool = skew_env
    gstats = pool._plan(Term("hotterm")).gstats
    df_total = gstats["hotterm"][0]
    assert df_total == N_DOCS // 2
    per_actor = ray.get(
        [a.score.remote(Term("hotterm"), None, gstats, None) for a in pool._replicas[0]]
    )
    sizes = [len(p) for p in per_actor]
    assert sum(sizes) == df_total
    mean = df_total / len(sizes)
    assert max(sizes) < 2 * mean


def test_hot_term_wand_parity(skew_env):
    idx, pool = skew_env
    from whoosh_novo_ray.search.wand import searcher_wand_topk

    lt, _ = searcher_wand_topk(
        Searcher(idx), ["hotterm", "needleterm"], 10, strategy="wand"
    )
    pt, stats = pool.wand_topk(["hotterm", "needleterm"], 10, strategy="wand")
    assert pt.to_pydict() == lt.to_pydict()
    # the skip tables must actually prune hot-term blocks under the
    # needle-set threshold
    assert stats["skipped_blocks"] > 0


def test_serving_soak_caches_bounded(skew_env):
    """2k distinct-term queries through the pool: per-actor and driver
    caches stay at their configured bounds (long-running serving must not
    grow per-query state without bound)."""
    idx, pool = skew_env
    qs = [Term(f"w{i % 500:04d}") for i in range(400)]
    for i in range(0, 400, 40):
        ray.get(pool.search_many_async(qs[i : i + 40], limit=5))
    for i in range(1600):
        if i % 400 == 0:
            pool.search(Or(Term(f"w{i % 500:04d}"), Term("hotterm")), limit=5)
    sizes = ray.get([a.cache_sizes.remote() for a in pool._replicas[0]])
    for sz in sizes:
        assert sz["term_cache"] <= 50_000
        assert sz["attr_cache"] <= 8
    assert len(pool._stats_cache) <= 200_000
