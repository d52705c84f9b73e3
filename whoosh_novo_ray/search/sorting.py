"""Faceting, sorted search and collapse — the reference's sorting.py /
FacetCollector / SortingCollector / CollapseCollector semantics
(de-odex/whoosh-novo ``src/whoosh/sorting.py:158-1071``,
``collectors.py:536-583,764-1006``) over Arrow tables.

Facets categorize matched documents by a per-document key:
  * FieldFacet      — a column of a doc-attribute table (doc_id -> value)
  * RangeFacet      — numeric column bucketed into [start, end) gaps
  * QueryFacet      — named sub-queries; a doc lands in each one it matches
  * FunctionFacet   — arbitrary vectorized fn(doc_ids) -> keys
  * StoredFieldFacet/TranslateFacet behavior is covered by FunctionFacet

The driver-side operators below act on a search result (already top-k or
full match set); the Dataset-level equivalent for full-corpus grouping is
``ray.data.Dataset.groupby`` (used by ops/ and pipelines/).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class Facet:
    def keys_for(self, searcher, doc_ids: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def matched_attrs(source, columns, doc_ids: np.ndarray) -> pa.Table:
    """Attribute rows for the MATCHED doc ids only, streamed: the matched-id
    set broadcasts into a map_batches filter over the attribute source — a
    parquet path (str), list of paths, or a ray.data.Dataset — so the full
    per-doc column never materializes in one process. This is how facet /
    sort / collapse read stored fields at scale (the reference reads its
    per-segment column files row-by-row; the cluster analog is a pruned
    streaming filter)."""
    import ray
    import ray.data

    columns = list(columns)
    if isinstance(source, (str, list, tuple)):
        n_blocks = int(ray.cluster_resources().get("CPU", 8))
        ds = ray.data.read_parquet(
            list(source) if isinstance(source, (list, tuple)) else source,
            columns=columns,
            override_num_blocks=n_blocks,
        )
    else:
        ds = source.select_columns(columns)
    schema = ds.schema()
    id_arr = pa.array(np.asarray(doc_ids).astype(np.int64))

    def keep(batch: pa.Table) -> pa.Table:
        col = batch["doc_id"]
        return batch.filter(
            pc.is_in(col, value_set=id_arr.cast(col.type))
        )

    out = ds.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    tables = [t for t in ray.get(out.to_arrow_refs()) if len(t)]
    if not tables:
        return pa.table(
            {
                c: pa.array([], schema.base_schema.field(c).type)
                for c in columns
            }
        )
    return pa.concat_tables(tables)


@dataclass
class FieldFacet(Facet):
    """Key = attrs[column] looked up by doc_id.

    ``attrs`` may be an in-memory pa.Table with a doc_id column (small /
    already-filtered sets), or a parquet path / list of paths / Dataset —
    then only the MATCHED docs' rows are streamed to the driver per query
    (``matched_attrs``), never the whole column."""

    attrs: object  # pa.Table | str | list[str] | ray.data.Dataset
    column: str
    reverse: bool = False  # per-facet sort flip (reference FieldFacet(reverse=True))

    def _table_for(self, doc_ids) -> pa.Table:
        if isinstance(self.attrs, pa.Table):
            return self.attrs
        return matched_attrs(self.attrs, ("doc_id", self.column), doc_ids)

    def keys_for(self, searcher, doc_ids):
        attrs = self._table_for(doc_ids)
        ids = attrs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids)
        pos = order[np.searchsorted(ids[order], doc_ids)]
        vals = attrs[self.column].take(pa.array(pos)).to_numpy(
            zero_copy_only=False
        )
        return vals


@dataclass
class RangeFacet(Facet):
    """Numeric column bucketed into [start, start+gap, ...) ranges
    (reference sorting.py RangeFacet)."""

    attrs: pa.Table
    column: str
    start: float
    end: float
    gap: float

    def keys_for(self, searcher, doc_ids):
        vals = FieldFacet(self.attrs, self.column).keys_for(searcher, doc_ids)
        vals = vals.astype(np.float64)
        edges = np.arange(self.start, self.end, self.gap)
        idx = np.clip(np.searchsorted(edges, vals, side="right") - 1, 0, len(edges) - 1)
        lo = edges[idx]
        labels = np.array(
            [f"[{l:g}, {min(l + self.gap, self.end):g})" for l in lo], dtype=object
        )
        labels[(vals < self.start) | (vals >= self.end)] = None
        return labels


@dataclass
class QueryFacet(Facet):
    """Named sub-queries; key = the name of the (first) matching query."""

    queries: dict

    def keys_for(self, searcher, doc_ids):
        out = np.full(len(doc_ids), None, dtype=object)
        for name, q in self.queries.items():
            ids, _ = searcher.postings(q)
            hit = np.isin(doc_ids, ids) & (out == None)  # noqa: E711
            out[hit] = name
        return out


@dataclass
class FunctionFacet(Facet):
    fn: object  # callable(np.ndarray doc_ids) -> np.ndarray keys

    def keys_for(self, searcher, doc_ids):
        return np.asarray(self.fn(doc_ids), dtype=object)


@dataclass
class DateRangeFacet(Facet):
    """RangeFacet over a datetime column: [start, start+gap, ...) buckets
    (reference sorting.py DateRangeFacet). ``start``/``end`` accept anything
    np.datetime64 does; ``gap`` is a ``datetime.timedelta``."""

    attrs: pa.Table
    column: str
    start: object
    end: object
    gap: object

    def keys_for(self, searcher, doc_ids):
        vals = FieldFacet(self.attrs, self.column).keys_for(searcher, doc_ids)
        vals_us = np.asarray(vals, "datetime64[us]").astype(np.int64)
        s = np.datetime64(self.start, "us")
        e = np.datetime64(self.end, "us")
        gap_us = int(np.timedelta64(self.gap, "us").astype(np.int64))
        edges = np.arange(s.astype(np.int64), e.astype(np.int64), gap_us)
        idx = np.clip(
            np.searchsorted(edges, vals_us, side="right") - 1, 0, len(edges) - 1
        )
        lo = edges[idx]
        hi = np.minimum(lo + gap_us, e.astype(np.int64))
        labels = np.array(
            [
                f"[{np.datetime64(int(a), 'us')}, {np.datetime64(int(b), 'us')})"
                for a, b in zip(lo, hi)
            ],
            dtype=object,
        )
        labels[(vals_us < s.astype(np.int64)) | (vals_us >= e.astype(np.int64))] = None
        return labels


@dataclass
class ScoreFacet(Facet):
    """Key = the document's score for the query (reference ScoreFacet).
    Requires the operator to pass scores (``needs_scores``)."""

    needs_scores = True

    def keys_for(self, searcher, doc_ids, scores=None):
        if scores is None:
            raise ValueError("ScoreFacet needs scores from the search operator")
        # negate so ascending key order = best-first (reference sorts
        # score descending by default)
        return -np.asarray(scores, np.float64)


@dataclass
class TranslateFacet(Facet):
    """Applies ``fn`` to the keys of a wrapped facet (reference
    TranslateFacet, sorting.py)."""

    fn: object
    facet: Facet

    @property
    def needs_scores(self):
        return getattr(self.facet, "needs_scores", False)

    def keys_for(self, searcher, doc_ids, scores=None):
        if getattr(self.facet, "needs_scores", False):
            keys = self.facet.keys_for(searcher, doc_ids, scores=scores)
        else:
            keys = self.facet.keys_for(searcher, doc_ids)
        return np.array([self.fn(k) for k in keys], dtype=object)


class StoredFieldFacet(FieldFacet):
    """Key from a stored-document attribute table (reference
    StoredFieldFacet; identical lookup to FieldFacet — stored fields ARE
    the attribute table in this engine)."""


@dataclass
class MultiFacet(Facet):
    """Composite key: tuple of sub-facet keys (reference MultiFacet).
    Tuples compare element-wise, so sorting matches the reference's
    multi-level sort."""

    facets: list

    @property
    def needs_scores(self):
        return any(getattr(f, "needs_scores", False) for f in self.facets)

    def keys_for(self, searcher, doc_ids, scores=None):
        cols = []
        for f in self.facets:
            if getattr(f, "needs_scores", False):
                cols.append(f.keys_for(searcher, doc_ids, scores=scores))
            else:
                cols.append(f.keys_for(searcher, doc_ids))
        out = np.empty(len(doc_ids), dtype=object)
        for i in range(len(doc_ids)):
            out[i] = tuple(c[i] for c in cols)
        return out


def _facet_keys(searcher, facet: Facet, ids, scores):
    if getattr(facet, "needs_scores", False):
        return facet.keys_for(searcher, ids, scores=scores)
    return facet.keys_for(searcher, ids)


def _filtered(q, filter, mask):
    """Wrap ``q`` for FilterCollector allow/restrict semantics (reference
    collectors.py:659-763 — a FilterCollector can wrap ANY collector, so
    every function here accepts filter/mask)."""
    from whoosh_novo_ray.search import query as _Q

    if filter is not None or mask is not None:
        return _Q.Filtered(q, filter, mask)
    return q


def facet_counts(searcher, q, facet: Facet, filter=None, mask=None) -> pa.Table:
    """Count matched docs per facet key (reference FacetCollector + Count)."""
    q = _filtered(q, filter, mask)
    ids, scores = searcher.postings(q)
    keys = _facet_keys(searcher, facet, ids, scores)
    mask = np.array([k is not None for k in keys], dtype=bool)
    return key_counts(keys[mask].astype(str))


def key_counts(keys: np.ndarray) -> pa.Table:
    """(key, count) per distinct string key, in key order: a Count facet
    map. A scoring actor counts its shards' keys with it too."""
    uniq, counts = np.unique(keys, return_counts=True)
    return pa.table(
        {
            "key": pa.array(uniq, pa.string()),
            "count": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def sorted_search(
    searcher, q, facet: Facet, reverse: bool = False, limit=None,
    filter=None, mask=None,
) -> pa.Table:
    """Matches sorted by facet key (reference SortingCollector). A
    MultiFacet sorts by each sub-facet in turn honoring its own ``reverse``
    flag (reference ``sortedby=[FieldFacet(a), FieldFacet(b, reverse=True)]``);
    ``reverse=True`` flips every level. Ties break by doc_id ascending."""
    q = _filtered(q, filter, mask)
    ids, scores = searcher.postings(q)
    sub = facet.facets if isinstance(facet, MultiFacet) else [facet]
    return sorted_table(
        ids, scores,
        [_facet_keys(searcher, f, ids, scores) for f in sub],
        [bool(getattr(f, "reverse", False)) != bool(reverse) for f in sub],
        limit,
    )


def sort_order(ids, keysets, reverses, limit=None) -> np.ndarray:
    """The row order of a multi-key sort: each level's keys ranked (object
    keys compare in Python, so ``np.lexsort`` always sees numbers), a
    reversed level's ranks negated, ties broken by doc_id ascending; cut
    to ``limit``. A scoring actor, the pool's re-rank and
    :func:`sorted_search` all order by it."""
    ranks = []
    for k, rev in zip(keysets, reverses):
        rank = np.unique(k, return_inverse=True)[1]
        ranks.append(-rank if rev else rank)
    return np.lexsort((ids, *reversed(ranks)))[:limit]


def sorted_table(ids, scores, keysets, reverses, limit=None) -> pa.Table:
    """The (doc_id, key, score) result of a sort (:func:`sort_order`); a
    multi-level key shows as the tuple of its levels."""
    order = sort_order(ids, keysets, reverses, limit)
    if len(keysets) == 1:
        keys = [str(k) for k in keysets[0][order]]
    else:
        keys = [str(tuple(ks[i] for ks in keysets)) for i in order]
    return pa.table(
        {
            "doc_id": pa.array(ids[order], pa.uint64()),
            "key": pa.array(keys, pa.string()),
            "score": pa.array(scores[order], pa.float64()),
        }
    )


def facet_groups(searcher, q, facet: Facet, best_only: bool = False) -> pa.Table:
    """Facet maps (reference sorting.py OrderedList / Best):

    * default: one row per key with the ordered doc-id list
      (score desc, doc_id asc) — the OrderedList map;
    * ``best_only=True``: one row per key with the single best doc — Best.
    """
    ids, scores = searcher.postings(q)
    keys = _facet_keys(searcher, facet, ids, scores)
    mask = np.array([k is not None for k in keys], dtype=bool)
    ids, scores, keys = ids[mask], scores[mask], keys[mask]
    order = np.lexsort((ids, -scores))
    ids, scores, keys = ids[order], scores[order], keys[order]
    groups: dict = {}
    for d, s, k in zip(ids.tolist(), scores.tolist(), keys.tolist()):
        groups.setdefault(k, []).append((d, s))
    skeys = sorted(groups, key=str)
    if best_only:
        return pa.table(
            {
                "key": pa.array([str(k) for k in skeys], pa.string()),
                "doc_id": pa.array([groups[k][0][0] for k in skeys], pa.uint64()),
                "score": pa.array([groups[k][0][1] for k in skeys], pa.float64()),
            }
        )
    return pa.table(
        {
            "key": pa.array([str(k) for k in skeys], pa.string()),
            "doc_ids": pa.array(
                [[d for d, _ in groups[k]] for k in skeys],
                pa.list_(pa.uint64()),
            ),
        }
    )


def collapse_keep_mask(keys: np.ndarray, per_key: int) -> np.ndarray:
    """Boolean keep-mask for rank-within-key < per_key, where rows are
    ALREADY in selection-priority order. Vectorized: a stable argsort
    groups equal keys while preserving the priority order inside each
    group, run offsets give each row's rank in its group — no per-row
    Python (a broad query can match millions of docs/shard)."""
    n = len(keys)
    if not n:
        return np.zeros(0, bool)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new_run = np.empty(n, bool)
    new_run[0] = True
    new_run[1:] = sk[1:] != sk[:-1]
    starts = np.nonzero(new_run)[0]
    run_lens = np.diff(np.append(starts, n))
    ranks = np.arange(n) - np.repeat(starts, run_lens)
    keep = np.empty(n, bool)
    keep[order] = ranks < per_key
    return keep


def falsy_key_mask(keys: np.ndarray) -> np.ndarray:
    """Mask of FALSY collapse keys — the reference CollapseCollector
    (collectors.py:966-970 ``if not ckey``) never eliminates a document
    whose key is None / empty string / numeric zero. Vectorized through
    Arrow for the real dtypes; the per-row fallback only runs for key
    arrays Arrow cannot infer (mixed objects)."""
    n = len(keys)
    if not n:
        return np.zeros(0, bool)
    if keys.dtype.kind in "iuf":
        return keys == 0
    if keys.dtype.kind in "US":
        return keys == ""
    try:
        arr = pa.array(keys)
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        return np.fromiter((not k for k in keys), bool, count=n)
    mask = arr.is_null().to_numpy(zero_copy_only=False)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        mask |= pc.fill_null(pc.equal(arr, ""), False).to_numpy(
            zero_copy_only=False
        )
    elif pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type):
        mask |= pc.fill_null(pc.equal(arr, 0), False).to_numpy(
            zero_copy_only=False
        )
    elif pa.types.is_boolean(arr.type):
        mask |= pc.fill_null(pc.invert(arr), False).to_numpy(
            zero_copy_only=False
        )
    return mask


def collapse_search(
    searcher, q, key_facet: Facet, per_key: int = 1, limit=None,
    order_facet: Facet | None = None, filter=None, mask=None,
) -> pa.Table:
    """Keep at most ``per_key`` best hits per collapse key (reference
    CollapseCollector, collectors.py:854-1006). "Best" follows the result
    order (score desc, doc_id asc) unless ``order_facet`` is given, in
    which case the LOWEST order keys win (orderer.key_for, :976-982); the
    kept documents are returned in result order either way, and documents
    with a falsy collapse key are never eliminated (:966-970)."""
    q = _filtered(q, filter, mask)
    ids, scores = searcher.postings(q)
    keys = np.asarray(_facet_keys(searcher, key_facet, ids, scores))
    okeys = None
    if order_facet is not None:
        okeys = np.asarray(_facet_keys(searcher, order_facet, ids, scores))
    return collapse_table(ids, scores, keys, per_key, okeys, limit)


def collapse_select(ids, scores, keys, per_key: int, okeys=None) -> np.ndarray:
    """The rows a collapse keeps, in selection-priority order: the lowest
    order key first (doc_id tiebreak) when ``okeys`` is given (reference
    CollapseCollector, collectors.py:976-982), else result order (score
    desc, doc_id asc); at most ``per_key`` per key, and every falsy key.
    A scoring actor's candidates and :func:`collapse_table` both come from
    it."""
    if okeys is not None:
        sel = np.lexsort((ids, np.unique(okeys, return_inverse=True)[1]))
    else:
        sel = np.lexsort((ids, -scores))
    keys = keys[sel]
    return sel[collapse_keep_mask(keys.astype(str), per_key) | falsy_key_mask(keys)]


def collapse_table(ids, scores, keys, per_key: int, okeys=None, limit=None) -> pa.Table:
    """The (doc_id, key, score) result of a collapse: the
    :func:`collapse_select` rows in result order whatever the orderer (it
    only changes which docs survive), cut to ``limit``."""
    kept = collapse_select(ids, scores, keys, per_key, okeys)
    kept = kept[np.lexsort((ids[kept], -scores[kept]))][:limit]
    return pa.table(
        {
            "doc_id": pa.array(ids[kept], pa.uint64()),
            "key": pa.array(keys[kept].astype(str), pa.string()),
            "score": pa.array(scores[kept], pa.float64()),
        }
    )
