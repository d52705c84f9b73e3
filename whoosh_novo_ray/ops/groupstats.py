"""Grouped corpus statistics / shaping operators.

Three web-pipeline staples, each Ray-Data-first and DuckDB-oracle-able:

  * ``cap_per_group`` — per-domain frequency caps (keep at most ``cap``
    docs per group, lowest ``order_col`` first): the standard guard against
    a handful of template-heavy hosts dominating a crawl. One
    ``shard_reduce`` on the group over the pre-capped rows; rank-within-key
    is a single vectorized lexsort + run-offset pass per shard (never one
    Python call per group).
  * ``exact_quantiles`` — exact quantiles of a discrete numeric column via
    a distributed value-count histogram: per-batch ``np.unique`` pre-reduce
    (rows bounded by the batch's distinct values), a native ``groupby.sum``
    whose cardinality is the number of DISTINCT values (not rows), and an
    O(distinct) driver-side cumulative selection. For continuous columns
    quantize to a grid first; the histogram stays tiny either way.
  * ``top_terms_per_group`` — most frequent terms per group (per-domain
    vocabulary profiling): per-batch (group, term) count pre-reduce out of
    the coded analyzer stream, a sharded vectorized count reduce, then a
    per-group top-k selection inside a second shard pass. Both shuffles
    move (group, term, count) rows — bounded by vocabulary x groups, never
    by corpus size.

Reference analog: none (whoosh-novo has no corpus-statistics surface);
these extend the engine along the SURVEY training-data axis like
ops/curation.py. Every exchange is a ``shard_reduce`` (whoosh_novo_ray/
shuffle.py), whose key hash is identical across worker processes — Python's
salted ``hash()`` is never used on data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from whoosh_novo_ray.analysis import simple_analyzer
from whoosh_novo_ray.shuffle import run_starts, shard_reduce

_RAW = simple_analyzer()


def _rank_in_run(sorted_keys: np.ndarray) -> np.ndarray:
    """0-based position of each row within its run of equal sorted keys."""
    starts = run_starts(sorted_keys)
    lens = np.diff(starts, append=len(sorted_keys))
    return np.arange(len(sorted_keys)) - np.repeat(starts, lens)


def _pack_gt(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Collision-free integer packing of (group, term) pairs.

    String concatenation with a separator is unsafe here: numpy's
    fixed-width 'U' dtype treats trailing NULs as padding, so packing with
    '\\x00' merges ('ab','c') and ('a','bc') into the same key and silently
    sums their counts. Integer codes (group index * vocab + term index)
    cannot collide.
    """
    _, gi = np.unique(g, return_inverse=True)
    tu, ti = np.unique(t, return_inverse=True)
    return gi.astype(np.int64) * len(tu) + ti


# ---------------------------------------------------------------------------
# per-group frequency caps
# ---------------------------------------------------------------------------


def cap_per_group(
    docs: "ray.data.Dataset",
    group_col: str,
    cap: int,
    order_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Keep at most ``cap`` rows per ``group_col`` value, preferring the
    lowest ``order_col`` (deterministic: reruns and the SQL oracle pick the
    same rows). All input columns pass through.

    Scale shape: one ``shard_reduce`` on the group column — co-locating
    each group inside a shard — then a single lexsort + run-offset rank
    per shard. A per-group ``groupby(group_col)`` would pay one Python
    call per distinct group (pathological for million-domain crawls).
    """

    def _cap_rows(tbl: pa.Table) -> np.ndarray:
        """Sorted row indices of the <= cap lowest order_col rows per group."""
        groups = np.asarray(tbl[group_col].to_pylist(), object)
        order_v = tbl[order_col].to_numpy(zero_copy_only=False)
        # stable sort: group asc, then order_col asc within the group
        srt = np.lexsort((order_v, groups))
        keep = srt[_rank_in_run(groups[srt]) < cap]
        keep.sort()
        return keep

    def precap(batch: pa.Table) -> pa.Table:
        # combiner: a globally-kept row is among its BATCH's cap lowest too,
        # so the local pre-cap is lossless and the shuffle ships at most
        # cap x (groups present) rows per batch — a hot domain with half the
        # corpus never funnels the whole corpus into one shard
        return batch.take(_cap_rows(batch))

    def keep_cap(shard: pa.Table) -> pa.Table:
        return shard.take(_cap_rows(shard))

    precapped = docs.map_batches(precap, batch_format="pyarrow", zero_copy_batch=True)
    return shard_reduce(precapped, group_col, keep_cap)


# ---------------------------------------------------------------------------
# exact quantiles via a distributed value-count histogram
# ---------------------------------------------------------------------------


def exact_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: tuple[float, ...],
    max_distinct: int = 1 << 22,
) -> pa.Table:
    """Exact quantiles of a DISCRETE numeric column.

    Selection rule (mirrored verbatim in SQL): the value at 0-based rank
    ``floor(q * (n - 1))`` of the ascending sort — both sides compute the
    rank in IEEE doubles. The driver holds one (value, count) row per
    DISTINCT value, never per input row — which is exactly why this path
    must refuse continuous columns: on a float score column distinct ≈
    corpus size and the driver histogram would BE the corpus. Columns with
    more than ``max_distinct`` distinct values raise with a pointer to
    :func:`quantiles_continuous` (distributed kth-element selection, exact
    for any cardinality). Returns a small arrow table ``(q, value)``.
    """

    import pyarrow.types as patypes

    is_int = patypes.is_integer(ds.schema().base_schema.field(col).type)

    def value_counts(batch: pa.Table) -> pa.Table:
        # float64 histogram keys: exact for integers < 2^53 and for float
        # inputs bit-identical grouping across batches. NULL/NaN rows are
        # dropped (SQL-aggregate semantics; NaN keys would never coalesce
        # in np.unique or the Ray groupby, silently corrupting ranks).
        arr = batch[col].drop_null().to_numpy(zero_copy_only=False)
        arr = arr[~np.isnan(arr.astype(np.float64))]
        v, c = np.unique(arr, return_counts=True)
        return pa.table(
            {
                "v": pa.array(v.astype(np.float64)),
                "c": pa.array(c.astype(np.int64)),
            }
        )

    hist_ds = (
        ds.map_batches(value_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("v")
        .sum("c")
        .materialize()
    )
    n_distinct = hist_ds.count()
    if n_distinct > max_distinct:
        raise ValueError(
            f"exact_quantiles: column {col!r} has {n_distinct} distinct "
            f"values (> max_distinct={max_distinct}); the driver-side "
            "histogram would be corpus-sized. Use quantiles_continuous() "
            "(distributed kth-element selection) for continuous columns."
        )
    hist = hist_ds.take_all()
    vals = np.asarray(sorted(r["v"] for r in hist), np.float64)
    cnts = np.asarray(
        [r["sum(c)"] for r in sorted(hist, key=lambda r: r["v"])], np.int64
    )
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0
    out_v = []
    for q in qs:
        if n == 0:
            out_v.append(0.0)
            continue
        rank = int(np.floor(q * (n - 1)))
        out_v.append(float(vals[np.searchsorted(cum, rank + 1, side="left")]))
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.array(
                [int(v) for v in out_v], pa.int64()
            )
            if is_int
            else pa.array(out_v, pa.float64()),
        }
    )


def _bucket_of(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bucket index per value under half-open [e_i, e_{i+1}) buckets with the
    LAST bucket closed (values == edges[-1] land in bucket B-1). One rule,
    used by both the counting rounds and the final exact collection, so
    boundary values can never fall between the two."""
    return np.clip(np.searchsorted(edges, v, side="right") - 1, 0, len(edges) - 2)


def quantiles_continuous(
    ds: "ray.data.Dataset",
    col: str,
    qs: tuple[float, ...],
    buckets: int = 4096,
    exact_cap: int = 1 << 20,
    max_rounds: int = 64,
) -> pa.Table:
    """Exact quantiles of a CONTINUOUS numeric column by distributed
    kth-element selection (iterative range-partition counting).

    Same selection rule as :func:`exact_quantiles` — the value at 0-based
    rank ``floor(q * (n - 1))`` of the ascending sort, NULL/NaN dropped —
    but the driver never holds per-distinct-value state: each round scans
    the column once, counting values into ``buckets`` equal-width ranges
    per still-open quantile interval (a ``(intervals x buckets)``-row
    reduce), then narrows each rank's interval to its bucket. A rank
    finalizes when its interval holds <= ``exact_cap`` values (those are
    collected and selected exactly — <= 8 MB of doubles at the default) or
    degenerates to a single float. Rounds needed ~ log_buckets(range /
    resolution); value-skew cannot stall it because a zero-width interval
    finalizes immediately. Exact for any cardinality, SQL-mirrorable as
    ORDER BY + OFFSET rank.
    """
    qs = tuple(qs)

    # one scan: n, min, max (NULL/NaN dropped) via per-batch pre-reduce
    def stats(batch: pa.Table) -> pa.Table:
        arr = batch[col].drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
        arr = arr[~np.isnan(arr)]
        if not len(arr):
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "lo": pa.array([], pa.float64()),
                    "hi": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "n": pa.array([len(arr)], pa.int64()),
                "lo": pa.array([float(arr.min())], pa.float64()),
                "hi": pa.array([float(arr.max())], pa.float64()),
            }
        )

    srows = ds.map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    n = int(sum(r["n"] for r in srows))
    if n == 0:
        return pa.table(
            {
                "q": pa.array(list(qs), pa.float64()),
                "value": pa.array([0.0] * len(qs), pa.float64()),
            }
        )
    gmin = min(r["lo"] for r in srows)
    gmax = max(r["hi"] for r in srows)

    # per-quantile state: rank within its current (lo, hi] interval
    state = []  # (qi, rank_local, lo, hi) — interval is inclusive of both ends
    out = [None] * len(qs)
    for qi, q in enumerate(qs):
        state.append((qi, int(np.floor(q * (n - 1))), gmin, gmax))

    def count_round(intervals: list[tuple[float, float]]):
        edges_all = [
            np.linspace(lo, hi, buckets + 1) for lo, hi in intervals
        ]

        def count_batch(batch: pa.Table) -> pa.Table:
            arr = (
                batch[col]
                .drop_null()
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            arr = arr[~np.isnan(arr)]
            ks, cs = [], []
            for iv, (edges, (lo, hi)) in enumerate(zip(edges_all, intervals)):
                sel = arr[(arr >= lo) & (arr <= hi)]
                if not len(sel):
                    continue
                cnt = np.bincount(_bucket_of(sel, edges), minlength=buckets)
                nz = np.flatnonzero(cnt)
                ks.append(np.int64(iv) * buckets + nz)
                cs.append(cnt[nz])
            if not ks:
                return pa.table(
                    {"k": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
                )
            return pa.table(
                {
                    "k": pa.array(np.concatenate(ks), pa.int64()),
                    "c": pa.array(np.concatenate(cs), pa.int64()),
                }
            )

        rows = (
            ds.map_batches(count_batch, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("k")
            .sum("c")
            .take_all()
        )
        hists = [np.zeros(buckets, np.int64) for _ in intervals]
        for r in rows:
            hists[int(r["k"]) // buckets][int(r["k"]) % buckets] = r["sum(c)"]
        return edges_all, hists

    def collect_exact(lo: float, hi: float) -> np.ndarray:
        def grab(batch: pa.Table) -> pa.Table:
            arr = (
                batch[col]
                .drop_null()
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            arr = arr[~np.isnan(arr)]
            return pa.table(
                {"v": pa.array(arr[(arr >= lo) & (arr <= hi)], pa.float64())}
            )

        vals = np.concatenate(
            [
                t["v"].to_numpy(zero_copy_only=False)
                for t in ray.get(
                    ds.map_batches(
                        grab, batch_format="pyarrow", zero_copy_batch=True
                    )
                    .materialize()
                    .to_arrow_refs()
                )
            ]
            or [np.empty(0, np.float64)]
        )
        vals.sort()
        return vals

    for _ in range(max_rounds):
        open_state = [s for s in state if out[s[0]] is None]
        if not open_state:
            break
        # degenerate intervals finalize without a scan
        still = []
        for qi, rank, lo, hi in open_state:
            if hi <= np.nextafter(lo, np.inf):
                out[qi] = lo
            else:
                still.append((qi, rank, lo, hi))
        if not still:
            break
        # dedupe identical intervals so shared ranks share one histogram
        uniq_iv: list[tuple[float, float]] = []
        iv_of: dict[tuple[float, float], int] = {}
        for _qi, _r, lo, hi in still:
            if (lo, hi) not in iv_of:
                iv_of[(lo, hi)] = len(uniq_iv)
                uniq_iv.append((lo, hi))
        edges_all, hists = count_round(uniq_iv)
        new_state = [s for s in state if out[s[0]] is not None]
        for qi, rank, lo, hi in still:
            iv = iv_of[(lo, hi)]
            cnt = hists[iv]
            cum = np.cumsum(cnt)
            b = int(np.searchsorted(cum, rank + 1, side="left"))
            below = int(cum[b - 1]) if b else 0
            rank_local = rank - below
            edges = edges_all[iv]
            blo = float(edges[b])
            bhi = float(edges[b + 1]) if b + 1 < len(edges) else hi
            if b == buckets - 1:
                bhi = hi  # last bucket is closed at the interval top
            in_bucket = int(cnt[b])
            if in_bucket <= exact_cap:
                # collect [blo, bhi] inclusive: values == bhi may belong to
                # the NEXT bucket under the half-open rule, but they sort
                # after bucket b's values and rank_local < cnt[b], so the
                # selected element is unaffected; values == blo belong to
                # bucket b and are correctly included
                vals = collect_exact(blo, bhi)
                out[qi] = float(vals[rank_local])
            else:
                new_state.append((qi, rank_local, blo, bhi))
        state = new_state

    for qi in range(len(qs)):
        if out[qi] is None:  # max_rounds exhausted: exact-collect remainder
            _, rank, lo, hi = next(s for s in state if s[0] == qi)
            vals = collect_exact(lo, hi)
            out[qi] = float(vals[rank])

    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "value": pa.array([float(v) for v in out], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# top-k terms per group
# ---------------------------------------------------------------------------


class _GroupTermCounts:
    """Per-batch (group, term, c) pre-reduce over the coded analyzer
    stream: counting is one packed np.unique — rows emitted are bounded by
    the batch's (groups x batch vocabulary), not its token count."""

    def __init__(self, group_col: str):
        self.group_col = group_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        groups = np.asarray(batch[self.group_col].to_pylist(), object)
        di, codes, uniq, _, _ = _RAW.analyze_batch_coded(texts)
        if len(codes) == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        gvals, ginv = np.unique(groups, return_inverse=True)
        V = len(uniq)
        key = ginv[di].astype(np.int64) * V + codes
        uk, cnt = np.unique(key, return_counts=True)
        g_of = gvals[(uk // V).astype(np.int64)]
        t_of = uniq[(uk % V).astype(np.int64)]
        return pa.table(
            {
                "g": pa.array(g_of.tolist(), pa.string()),
                "term": pa.array(t_of.tolist(), pa.string()),
                "c": pa.array(cnt.astype(np.int64)),
            }
        )


def top_terms_per_group(
    docs: "ray.data.Dataset", group_col: str = "source", k: int = 5
) -> "ray.data.Dataset":
    """Top-``k`` most frequent analyzer terms per group (count desc, term
    asc tie-break). Returns a Dataset of ``(group, term, cnt)``.

    Two tiny ``shard_reduce`` passes: (1) on (group, term) co-locates each
    pair's partial counts for a vectorized sum; (2) on group co-locates each
    group's summed terms for the vectorized top-k. Every row in flight is a
    (group, term, count) triple.
    """

    def sum_shard(tbl: pa.Table) -> pa.Table:
        g = np.asarray(tbl["g"].to_pylist(), object)
        t = np.asarray(tbl["term"].to_pylist(), object)
        c = tbl["c"].to_numpy(zero_copy_only=False)
        packed = _pack_gt(g, t)
        uk, rep, inv = np.unique(packed, return_index=True, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, c)
        return pa.table(
            {
                "g": pa.array(g[rep].tolist(), pa.string()),
                "term": pa.array(t[rep].tolist(), pa.string()),
                "c": pa.array(sums),
            }
        )

    def topk_shard(tbl: pa.Table) -> pa.Table:
        g = np.asarray(tbl["g"].to_pylist(), object)
        t = np.asarray(tbl["term"].to_pylist(), object).astype("U")
        c = tbl["c"].to_numpy(zero_copy_only=False)
        # group asc, count desc, term asc
        srt = np.lexsort((t, -c, g))
        keep = srt[_rank_in_run(g[srt]) < k]
        return pa.table(
            {
                "group": pa.array(g[keep].tolist(), pa.string()),
                "term": pa.array(t[keep].tolist(), pa.string()),
                "cnt": pa.array(c[keep].astype(np.int64)),
            }
        )

    counts = docs.map_batches(
        _GroupTermCounts(group_col), batch_format="pyarrow", zero_copy_batch=True
    )
    summed = shard_reduce(counts, ["g", "term"], sum_shard)
    return shard_reduce(summed, "g", topk_shard)


def distinctive_terms_per_group(
    docs: "ray.data.Dataset", group_col: str = "source", k: int = 5
) -> "ray.data.Dataset":
    """Top-``k`` DISTINCTIVE terms per group: score = count_in_group *
    ln(total_tokens / count_overall) — the terms a domain over-uses
    relative to the corpus (per-domain signature / template detector).
    Tie-break (score desc, term asc). Returns ``(group, term, cnt, score)``.

    Shape: the (group, term) partial counts shard by term so a term's
    GLOBAL count is computed co-located with its per-group counts (no
    broadcast of the vocabulary); the only driver-side scalar is the corpus
    token total. A second shard by group runs the vectorized per-group
    top-k.
    """

    def sum_with_global(tbl: pa.Table) -> pa.Table:
        g = np.asarray(tbl["g"].to_pylist(), object)
        t = np.asarray(tbl["term"].to_pylist(), object)
        c = tbl["c"].to_numpy(zero_copy_only=False)
        packed = _pack_gt(g, t)
        uk, rep, inv = np.unique(packed, return_index=True, return_inverse=True)
        cg = np.zeros(len(uk), np.int64)
        np.add.at(cg, inv, c)
        ut, tinv = np.unique(t[rep].astype("U"), return_inverse=True)
        # global per-term counts: sum of the (g, term) sums in this shard —
        # complete by construction (every row of a term is in this shard)
        call = np.zeros(len(ut), np.int64)
        np.add.at(call, tinv, cg)
        return pa.table(
            {
                "g": pa.array(g[rep].tolist(), pa.string()),
                "term": pa.array(t[rep].tolist(), pa.string()),
                "c": pa.array(cg),
                "c_all": pa.array(call[tinv]),
            }
        )

    def total_tokens(counts_ds) -> float:
        s = counts_ds.sum("c")
        return float(s if s is not None else 0.0)

    stage1 = docs.map_batches(
        _GroupTermCounts(group_col), batch_format="pyarrow", zero_copy_batch=True
    )
    summed = shard_reduce(stage1, "term", sum_with_global).materialize()
    T = total_tokens(summed)

    def topk_distinct(tbl: pa.Table) -> pa.Table:
        g = np.asarray(tbl["g"].to_pylist(), object)
        t = np.asarray(tbl["term"].to_pylist(), object).astype("U")
        c = tbl["c"].to_numpy(zero_copy_only=False)
        call = tbl["c_all"].to_numpy(zero_copy_only=False)
        score = c.astype(np.float64) * np.log(T / call.astype(np.float64))
        srt = np.lexsort((t, -score, g))
        keep = srt[_rank_in_run(g[srt]) < k]
        return pa.table(
            {
                "group": pa.array(g[keep].tolist(), pa.string()),
                "term": pa.array(t[keep].tolist(), pa.string()),
                "cnt": pa.array(c[keep].astype(np.int64)),
                "score": pa.array(np.round(score[keep], 6), pa.float64()),
            }
        )

    return shard_reduce(summed, "g", topk_distinct)
