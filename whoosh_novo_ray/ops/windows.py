"""Event-stream batch operators: windowed aggregates and sessionization.

Batch expressions of the streaming-window shapes a training-data pipeline
needs over an events table (ts, key, value):

* ``tumbling_window_agg`` — fixed-width time buckets per key: the window
  assignment is a pure vectorized map (no state), so the only exchange is
  the (key, window) groupby with combiner aggregation.
* ``sessionize`` — gap-based sessions per user: one ``shard_reduce`` on the
  user key; each shard is sorted and split vectorized (diff > gap -> new
  session), never one Python call per user.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from whoosh_novo_ray.shuffle import run_starts, shard_reduce


def tumbling_window_agg(
    events: "ray.data.Dataset",
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    width_s: int = 3600,
) -> "ray.data.Dataset":
    """Per (key, tumbling window) aggregates: count, sum, mean, min, max.

    Window start = floor(ts / width) * width (epoch-aligned). The bucketing
    map is stateless; the groupby pre-combines per block before the shuffle.
    """

    def add_window(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64()).to_numpy()  # microseconds
        width_us = np.int64(width_s) * 1_000_000
        win = (ts // width_us) * width_us
        return pa.table(
            {
                key_col: batch[key_col],
                "window_start": pa.array(win, pa.int64()),
                value_col: batch[value_col],
            }
        )

    bucketed = events.map_batches(add_window, batch_format="pyarrow", zero_copy_batch=True)
    agg = bucketed.groupby([key_col, "window_start"]).aggregate(
        Count(),
        Sum(value_col),
        Mean(value_col),
        Min(value_col),
        Max(value_col),
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: batch[key_col],
                "window_start": batch["window_start"],
                "n": batch["count()"].cast(pa.int64()),
                "sum_value": batch[f"sum({value_col})"].cast(pa.float64()),
                "mean_value": batch[f"mean({value_col})"].cast(pa.float64()),
                "min_value": batch[f"min({value_col})"].cast(pa.float64()),
                "max_value": batch[f"max({value_col})"].cast(pa.float64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def sessionize(
    events: "ray.data.Dataset",
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    gap_s: int = 1800,
) -> "ray.data.Dataset":
    """Assign gap-based session ids per user.

    Output: one row per event (event_id, user_id, session_idx, session_start)
    where session_idx numbers a user's sessions in time order (0-based) and a
    new session starts when the gap since the previous event > gap_s.
    """
    gap_us = np.int64(gap_s) * 1_000_000

    def split_sessions(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([(user_col, "ascending"), (ts_col, "ascending"), (id_col, "ascending")])
        users = g[user_col].cast(pa.int64()).to_numpy()
        ts = g[ts_col].cast(pa.int64()).to_numpy()
        n = len(g)
        user_first = run_starts(users)
        new_session = np.zeros(n, bool)
        new_session[user_first] = True
        new_session[1:] |= (ts[1:] - ts[:-1]) > gap_us
        # session ordinal within user: cumsum of session starts, reset per user
        sess_global = np.cumsum(new_session)
        base = np.repeat(sess_global[user_first], np.diff(user_first, append=n))
        session_idx = (sess_global - base).astype(np.int64)
        # session start ts broadcast to members
        start_rows = np.flatnonzero(new_session)
        session_start = np.repeat(ts[start_rows], np.diff(start_rows, append=n))
        return pa.table(
            {
                id_col: g[id_col].cast(pa.int64()),
                user_col: pa.array(users, pa.int64()),
                "session_idx": pa.array(session_idx, pa.int64()),
                "session_start": pa.array(session_start, pa.int64()),
            }
        )

    return shard_reduce(events, user_col, split_sessions)
