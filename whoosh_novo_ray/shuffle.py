"""The package's one shuffle rule: hash a key into shards, reduce per shard.

Every all-to-all exchange (the term-bucket build, the serving build, the
LLM-data ops) goes through :func:`shard_reduce`.
Grouping by a high-cardinality key itself would pay one Python call per
distinct key; here rows are grouped by
``shard_of(key) = key_hash(key) % N_SHARDS`` instead, and ``fn`` gets a
whole shard — every row of every key that hashes there — for one
vectorized pass (sort, then :func:`run_starts` for the equal-key runs).

The backend is Ray Data's sort-shuffle ``groupby``. Swapping it (for
``Dataset.repartition(keys=...)`` or the hash-shuffle strategy) is a change
to :func:`shard_reduce` alone.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

N_SHARDS = 64
_SHARD_COL = "__shard"
# multiplier folding a multi-column key into one hash
_MIX = np.uint64(0x9E3779B97F4A7C15)


def key_hash(values) -> np.ndarray:
    """Deterministic (process-independent) uint64 hash per value.

    Integers hash as uint64, so int64 and uint64 views of the same ids agree
    (both sides of a shard-join meet). Anything else hashes as objects:
    strings by their bytes, other types by ``str``.
    """
    import pandas as pd

    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_numpy(zero_copy_only=False)
    arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        return pd.util.hash_array(arr.astype(np.uint64))
    return pd.util.hash_array(np.asarray(arr, dtype=object), categorize=False)


def shard_of(values, n: int = N_SHARDS) -> np.ndarray:
    """Shard id in ``[0, n)`` per value: ``key_hash(values) % n``."""
    return (key_hash(values) % np.uint64(n)).astype(np.uint32)


def shard_reduce(ds: "ray.data.Dataset", key, fn) -> "ray.data.Dataset":
    """Hash-partition ``ds`` on ``key`` and reduce each shard with ``fn``.

    ``key`` names one column or a list of columns. ``fn`` takes a pyarrow
    Table holding every row of each key in one shard, in no particular
    order, and returns a pyarrow Table. It is never called on an empty
    shard. The shard count is read at call time.
    """
    cols = [key] if isinstance(key, str) else list(key)
    n = np.uint64(N_SHARDS)

    def tag(batch: pa.Table) -> pa.Table:
        h = key_hash(batch[cols[0]])
        for c in cols[1:]:
            h = (h * _MIX) ^ key_hash(batch[c])
        return batch.append_column(_SHARD_COL, pa.array((h % n).astype(np.int32)))

    @functools.wraps(fn)
    def reduce(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([_SHARD_COL]))

    return (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(_SHARD_COL)
        .map_groups(reduce, batch_format="pyarrow")
    )


def run_starts(*sorted_cols) -> np.ndarray:
    """Start offsets of the equal-key runs of rows sorted by ``sorted_cols``.

    A run ends where any column changes. Columns are numpy arrays (2-D rows
    compare whole) or Arrow arrays (strings compare by dictionary code).
    Run lengths are ``np.diff(starts, append=n)``.
    """
    cols = [_comparable(c) for c in sorted_cols]
    change = np.zeros(len(cols[0]), bool)
    change[:1] = True
    for c in cols:
        diff = c[1:] != c[:-1]
        if diff.ndim > 1:
            diff = diff.any(axis=tuple(range(1, diff.ndim)))
        change[1:] |= diff
    return np.flatnonzero(change)


def _comparable(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array):
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            col = pc.dictionary_encode(col).indices
        return col.to_numpy(zero_copy_only=False)
    return np.asarray(col)
