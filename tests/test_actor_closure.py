"""The scoring actor's import closure stays lean.

A ``ScoreServer`` process needs the serving code only (codec, segment,
searcher, query, scoring, sorting, wand, score_pool). Two heavy modules
must stay out of it: ``ray.data`` (reached through a module-level import in
any module the actor imports) and ``pyarrow.dataset`` (loaded on first use
of ``pq.read_table``; serving code reads with ``pq.ParquetFile(...).read``).
pandas is not checked: pyarrow imports it on the first ``to_numpy()``.
"""

import os
import subprocess
import sys

import pytest

from whoosh_novo_ray.search import And, Or, Phrase, Prefix, Term
from whoosh_novo_ray.state.score_pool import ScorePool

LEAKS = ("ray.data", "pyarrow.dataset")
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
    pool.wand_topk(["search", "data"], 10)

    def loaded(_server):
        import sys

        return [m for m in LEAKS if m in sys.modules]

    assert len(pool._actors) == 2
    got = ray.get([a.__ray_call__.remote(loaded) for a in pool._actors])
    assert got == [[], []]
