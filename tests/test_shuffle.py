"""The one shuffle rule (whoosh_novo_ray/shuffle.py): shard_reduce against a
pandas brute-force groupby, the no-empty-shard contract, key_hash views, and
a structural check that no other module shuffles on its own."""

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from whoosh_novo_ray import shuffle
from whoosh_novo_ray.shuffle import key_hash, run_starts, shard_of, shard_reduce

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "whoosh_novo_ray")


def _collect(ds) -> pd.DataFrame:
    rows = ds.take_all()
    df = pd.DataFrame(rows, columns=["k", "n", "s"])
    return df.sort_values("k").reset_index(drop=True)


def _brute(tbl: pa.Table) -> pd.DataFrame:
    df = tbl.to_pandas()
    out = df.groupby("k", sort=True)["v"].agg(["count", "sum"]).reset_index()
    out.columns = ["k", "n", "s"]
    return out


def _inputs():
    rng = np.random.default_rng(3)
    hot = np.where(rng.random(2000) < 0.9, 7, rng.integers(0, 500, 2000))
    return {
        "empty": pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}),
        "fewer_rows_than_shards": pa.table(
            {"k": pa.array([5, 9, 5, 11], pa.int64()), "v": pa.array([1, 2, 3, 4], pa.int64())}
        ),
        "one_key_90pct": pa.table(
            {"k": pa.array(hot, pa.int64()), "v": pa.array(rng.integers(0, 9, 2000), pa.int64())}
        ),
        "int64_keys": pa.table(
            {
                "k": pa.array(rng.integers(-(2**40), 2**40, 3000), pa.int64()),
                "v": pa.array(rng.integers(0, 100, 3000), pa.int64()),
            }
        ),
        "string_keys": pa.table(
            {
                "k": pa.array([f"term{i % 311}" for i in range(3000)], pa.string()),
                "v": pa.array(np.arange(3000) % 17, pa.int64()),
            }
        ),
    }


@pytest.mark.parametrize("name", list(_inputs()))
def test_shard_reduce_equals_brute_force_groupby(ray_session, name):
    import ray.data

    def sum_per_key(shard: pa.Table) -> pa.Table:
        """Per-key (count, sum) over one shard — the vectorized reducer shape."""
        g = shard.sort_by("k")
        starts = run_starts(g["k"])
        v = g["v"].to_numpy()
        return pa.table(
            {
                "k": g["k"].take(pa.array(starts)),
                "n": pa.array(np.diff(starts, append=len(v)), pa.int64()),
                "s": pa.array(np.add.reduceat(v, starts), pa.int64()),
            }
        )

    tbl = _inputs()[name]
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = _collect(shard_reduce(ds, "k", sum_per_key))
    want = _brute(tbl)
    assert len(got) == len(want)
    assert got["k"].tolist() == want["k"].tolist()
    assert got["n"].tolist() == want["n"].tolist()
    assert got["s"].tolist() == want["s"].tolist()


def test_shard_reduce_multi_column_key(ray_session):
    import ray.data

    a = np.arange(600) % 13
    b = np.arange(600) % 7
    tbl = pa.table({"a": a, "b": b, "v": np.ones(600, np.int64)})

    def count_pairs(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("a", "ascending"), ("b", "ascending")])
        starts = run_starts(g["a"], g["b"])
        return pa.table(
            {
                "a": g["a"].take(pa.array(starts)),
                "b": g["b"].take(pa.array(starts)),
                "n": np.diff(starts, append=len(g)),
            }
        )

    got = shard_reduce(ray.data.from_arrow(tbl).repartition(3), ["a", "b"], count_pairs)
    rows = sorted((r["a"], r["b"], r["n"]) for r in got.take_all())
    want = tbl.to_pandas().groupby(["a", "b"]).size()
    assert rows == sorted((a_, b_, n) for (a_, b_), n in want.items())


@pytest.mark.parametrize("n_rows", [0, 1, 3])
def test_reducer_never_sees_an_empty_shard(ray_session, n_rows):
    """Ray 2.49 calls a map_groups UDF only for the groups a block holds; an
    empty block has none. Every reducer in the package relies on this (none
    guards ``len(group) == 0``), so pin it over 8 blocks, most of them
    empty."""
    import ray.data

    tables = [
        pa.table({"k": pa.array([i], pa.int64())}) if i < n_rows
        else pa.table({"k": pa.array([], pa.int64())})
        for i in range(8)
    ]
    ds = ray.data.from_arrow(tables)
    assert ds.num_blocks() == 8

    def sizes(shard: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([len(shard)], pa.int64())})

    got = [r["n"] for r in shard_reduce(ds, "k", sizes).take_all()]
    assert all(n > 0 for n in got)
    assert sum(got) == n_rows


def test_shard_count_is_read_at_call_time(ray_session, monkeypatch):
    import ray.data

    monkeypatch.setattr(shuffle, "N_SHARDS", 1)
    tbl = pa.table({"k": pa.array(range(50), pa.int64()), "v": pa.array([1] * 50, pa.int64())})
    out = shard_reduce(
        ray.data.from_arrow(tbl).repartition(4),
        "k",
        lambda shard: pa.table({"n": pa.array([len(shard)], pa.int64())}),
    ).take_all()
    assert [r["n"] for r in out] == [50]


def test_key_hash_agrees_across_integer_views():
    ids = np.array([0, 1, 7, 2**33 + 5, 2**62, 12345678901], np.int64)
    assert (key_hash(ids) == key_hash(ids.view(np.uint64))).all()
    assert (key_hash(pa.array(ids)) == key_hash(pa.array(ids.astype(np.uint64)))).all()
    assert (key_hash(ids.tolist()) == key_hash(ids)).all()
    # bit-identical to the doc-id routing that persisted layouts use
    assert (key_hash(ids) == pd.util.hash_array(ids.astype(np.uint64))).all()
    assert (shard_of(ids, 16) == key_hash(ids) % np.uint64(16)).all()


def test_key_hash_of_strings_is_process_independent():
    terms = ["search", "the", "", "zebra"]
    want = pd.util.hash_array(np.asarray(terms, dtype=object), categorize=False)
    assert (key_hash(terms) == want).all()
    assert (key_hash(pa.array(terms)) == want).all()


def test_run_starts():
    assert run_starts(np.array([], np.int64)).tolist() == []
    assert run_starts(np.array([4])).tolist() == [0]
    assert run_starts(np.array([1, 1, 2, 2, 2, 3]), np.array([0, 1, 1, 1, 2, 2])).tolist() == [
        0, 1, 2, 4, 5,
    ]
    assert run_starts(pa.chunked_array([["a", "a"], ["b", "b", "c"]])).tolist() == [0, 2, 4]
    assert run_starts(np.array([[1, 2], [1, 2], [1, 3]])).tolist() == [0, 2]


def test_only_shuffle_module_shuffles():
    """``map_groups(`` lives only in shuffle.py, and the shard count is
    defined once in the package."""
    groups, n_shards = [], []
    for root, _dirs, files in os.walk(PKG):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            with open(path) as fh:
                src = fh.read()
            rel = os.path.relpath(path, PKG)
            groups += [rel] * src.count("map_groups(")
            n_shards += [rel] * len(re.findall(r"^\s*N_SHARDS\s*=", src, re.M))
    assert groups == ["shuffle.py"]
    assert n_shards == ["shuffle.py"]
