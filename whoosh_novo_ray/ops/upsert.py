"""Latest-wins upsert / key dedup — the reference's ``update_document``
semantics (de-odex/whoosh-novo ``src/whoosh/writing.py:439-502``: documents
matching a unique key are replaced by the newest) as a batch Ray Data op.

Scalable shape: one ``shard_reduce`` on the unique key — a vectorized sort +
run-boundary dedup per hash shard, never one Python call per distinct key.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from whoosh_novo_ray.shuffle import run_starts, shard_reduce


def latest_by_key(
    ds: "ray.data.Dataset",
    key: str,
    ts: str,
    tiebreak: str | None = None,
) -> "ray.data.Dataset":
    """Keep only the newest row per ``key`` (max ``ts``; ties broken by the
    smallest ``tiebreak`` value, then arbitrary-but-deterministic)."""
    sort_keys = [(key, "ascending"), (ts, "descending")]
    if tiebreak:
        sort_keys.append((tiebreak, "ascending"))

    def keep_latest(shard: pa.Table) -> pa.Table:
        g = shard.sort_by(sort_keys)
        return g.take(pa.array(run_starts(g[key])))

    return shard_reduce(ds, key, keep_latest)
