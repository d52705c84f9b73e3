"""The scoring actor's import closure stays lean.

A ``ScoreServer`` process needs the serving code only (codec, segment,
searcher, query, scoring, sorting, wand, score_pool). Three heavy modules
must stay out of it: ``ray.data`` (reached through a module-level import in
any module the actor imports), ``pyarrow.dataset`` (loaded on first use of
``pq.read_table``; serving code reads with ``pq.ParquetFile(...).read``)
and pandas (reached through a module-level import, or loaded by pyarrow on
the first ``to_numpy()``, ``pa.array`` or ``pa.table`` of an ndarray; the
actor reads Arrow through ``segment.arrow_view`` and builds its result
tables with ``searcher._hits_table``). Both tests check all three: at
import, and in live actors after top-k searches (plain, timed and WAND in
each strategy). Facets, collapse and sorted search are out of scope: they
may still load pandas on first use.
"""

import os
import subprocess
import sys

import pytest

from whoosh_novo_ray.search import And, Or, Phrase, Prefix, Term
from whoosh_novo_ray.state.score_pool import ScorePool

LEAKS = ("ray.data", "pyarrow.dataset", "pandas")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_leaves_out_build_stack():
    code = (
        "import sys\n"
        "import ray\n"
        "import whoosh_novo_ray.state.score_pool\n"
        f"print(' '.join(m for m in {LEAKS!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == []


@pytest.fixture(scope="module")
def pool(ray_session, built_index):
    p = ScorePool(built_index.path, num_actors=2, num_shards=4)
    yield p
    p.shutdown()


def test_live_actors_leave_out_build_stack(ray_session, pool):
    import ray

    for q in (
        Term("search"),
        And(Term("search"), Term("data")),
        Or(Term("search"), Term("data")),
        Phrase(["search", "data"]),
        Prefix("sea"),
    ):
        pool.search(q, limit=10)
    pool.search(Or(Term("search"), Term("data")), limit=10, timelimit=60.0)
    pool.wand_topk(["search", "data"], 10, strategy="wand")
    pool.wand_topk(["search", "data"], 10)

    def loaded(_server):
        import sys

        return [m for m in LEAKS if m in sys.modules]

    (actors,) = pool._replicas
    assert len(actors) == 2
    got = ray.get([a.__ray_call__.remote(loaded) for a in actors])
    assert got == [[], []]


def test_arrow_views_match_pyarrow():
    """The actor's pandas-free conversions agree with pyarrow's own on
    sliced, chunked and empty arrays of every type the actor reads."""
    import numpy as np
    import pyarrow as pa

    from whoosh_novo_ray.index.segment import arrow_view, binary_view
    from whoosh_novo_ray.search.searcher import _hits_table

    for t in ("int8", "int32", "int64", "uint8", "uint32", "uint64", "float32", "float64"):
        a = pa.array(np.arange(10).astype(t))
        for x in (a, a.slice(3, 5), a.slice(10), pa.chunked_array([a.slice(1, 4), a.slice(7)])):
            got = arrow_view(x)
            assert got.dtype == np.dtype(t) and got.tolist() == x.to_pylist()
    with pytest.raises(ValueError):
        arrow_view(pa.array([1, None, 3]))
    words = [b"ab", b"", b"cde", b"f"]
    for t in (pa.binary(), pa.large_binary(), pa.string(), pa.large_string()):
        a = pa.array(words if "binary" in str(t) else [w.decode() for w in words], t)
        for x, want in ((a, words), (a.slice(1, 3), words[1:4])):
            offs, data = binary_view(x)
            assert [data[offs[i] : offs[i + 1]].tobytes() for i in range(len(x))] == want
    ids, scores = np.array([7, 3], np.int64), np.array([2.5, 1.0])
    want = pa.table({"doc_id": pa.array(ids, pa.uint64()), "score": pa.array(scores)})
    assert _hits_table(ids, scores).equals(want)
    assert _hits_table(ids[:0], scores[:0]).equals(want.slice(0, 0))
