"""Searcher: evaluates a Query against an Index, rank-identical to the
reference.

Evaluation strategy: vectorized term-at-a-time. Each node evaluates to a pair
of aligned numpy arrays ``(doc_ids sorted asc, scores)``; set operations are
sorted-array merges (np.add.reduceat over stable-sorted concatenations), so
per-doc score accumulation happens in fixed child order. This produces
exactly the reference's scores (same idf / BM25 / quantized lengths) and the
same ``(score desc, doc_id asc)`` tie-break (reference collectors.py:466-508);
only float summation *association order* can differ at the 1e-16 level for
3+-term queries, which differential tests bound with exact rank checks.

Block-max pruning (the reference's WAND path, whoosh3.py:1085-1098 +
collectors.py:376-420) lives in `topk_disjunctive_pruned`, used for large
single/OR term queries where whole blocks below the current min-score
threshold are skipped without decoding.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from whoosh_novo_ray.index.segment import Index, TermRow, arrow_view
from whoosh_novo_ray.search import query as Q
from whoosh_novo_ray.search.plan import (
    MULTITERM,
    _ConstantUnion,
    multiterm_constant_score,
    rewrite,
)
from whoosh_novo_ray.search.scoring import BM25F, WeightingModel

Posting = tuple[np.ndarray, np.ndarray]  # (ids sorted asc, scores)

_EMPTY: Posting = (np.empty(0, np.uint64), np.empty(0, np.float64))


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in an ASCENDING-sorted unique array —
    searchsorted instead of np.isin's internal sort."""
    if not len(sorted_arr) or not len(values):
        return np.zeros(len(values), bool)
    idx = np.searchsorted(sorted_arr, values)
    ok = idx < len(sorted_arr)
    out = np.zeros(len(values), bool)
    out[ok] = sorted_arr[idx[ok]] == values[ok]
    return out


def _hits_table(ids: np.ndarray, scores: np.ndarray) -> pa.Table:
    """The ``(doc_id uint64, score float64)`` result table on the buffers of
    ``ids`` and ``scores`` (``pa.array`` of an ndarray would import pandas)."""
    cols = [
        pa.Array.from_buffers(t, len(a), [None, pa.py_buffer(np.ascontiguousarray(a, d))])
        for t, d, a in ((pa.uint64(), np.uint64, ids), (pa.float64(), np.float64, scores))
    ]
    return pa.Table.from_arrays(cols, names=["doc_id", "score"])


# lexicographic max codepoint; analyzer tokens (\w matches) can never contain
# it, so `prefix + _MAX_CHAR` is a safe inclusive upper bound for the prefix
_MAX_CHAR = "\U0010ffff"

# regex metacharacters that end a literal prefix
_RX_META = set(r"\.^$*+?{}[]|()")


def _prefix_range(prefix: str) -> tuple[str | None, str | None]:
    """[lo, hi] term-dictionary scan range for a literal prefix."""
    if not prefix:
        return None, None
    return prefix, prefix + _MAX_CHAR


def _regex_literal_prefix(pattern: str) -> str:
    """Longest literal prefix implied by an anchored regex (empty if the
    pattern is unanchored — an unanchored search can match anywhere).

    A top-level '|' makes any derived prefix unsound ('^ab|cd' matches
    terms containing 'cd' with no 'ab' prefix), so patterns containing
    an alternation yield no prefix at all — the reference's
    Regex._find_prefix does the same (query/terms.py)."""
    if "|" in pattern or not pattern.startswith("^"):
        return ""
    out = []
    i = 1
    while i < len(pattern):
        c = pattern[i]
        if c in _RX_META:
            break
        # a literal followed by a quantifier is optional/repeated — stop
        if i + 1 < len(pattern) and pattern[i + 1] in "*+?{":
            break
        out.append(c)
        i += 1
    return "".join(out)


def _merge_sum(parts: list[Posting]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge sorted (ids, scores) lists -> (unique ids, summed scores, hit counts)."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return _EMPTY[0], _EMPTY[1], np.empty(0, np.int64)
    ids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    scores = scores[order]
    change = np.empty(len(ids), bool)
    change[0] = True
    change[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(change)
    out_ids = ids[starts]
    out_scores = np.add.reduceat(scores, starts)
    counts = np.diff(np.append(starts, len(ids)))
    return out_ids, out_scores, counts



# Combinators over evaluated children. ``postings`` and ``_coord_parts`` both
# call them on children they evaluated once, so no subtree is evaluated twice.


def _and(parts: list[Posting]) -> Posting:
    if any(len(p[0]) == 0 for p in parts):
        return _EMPTY
    ids, scores, counts = _merge_sum(parts)
    keep = counts == len(parts)
    return ids[keep], scores[keep]


def _dismax(parts: list[Posting]) -> Posting:
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return _EMPTY
    ids = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    order = np.argsort(ids, kind="stable")
    ids, scores = ids[order], scores[order]
    change = np.empty(len(ids), bool)
    change[0] = True
    change[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(change)
    return ids[starts], np.maximum.reduceat(scores, starts)


def _and_not(a: Posting, b: Posting) -> Posting:
    if not len(a[0]) or not len(b[0]):
        return a
    keep = ~np.isin(a[0], b[0])
    return a[0][keep], a[1][keep]


def _require(a: Posting, b: Posting) -> Posting:
    keep = np.isin(a[0], b[0])
    return a[0][keep], a[1][keep]


def _and_maybe(a: Posting, b: Posting) -> Posting:
    (a_ids, a_sc), (b_ids, b_sc) = a, b
    if not len(a_ids) or not len(b_ids):
        return a
    pos = np.searchsorted(b_ids, a_ids)
    pos_c = np.minimum(pos, len(b_ids) - 1)
    hit = b_ids[pos_c] == a_ids
    out = a_sc.copy()
    out[hit] += b_sc[pos_c[hit]]
    return a_ids, out


def _scaled_or(q: Q.Or, parts: list) -> Posting:
    """A scaled Or over its children's ``_coord_parts``: the reference
    SQR coordination bonus (CoordMatcher._sqr, matching/wrappers.py:
    537-556). termcount = term matchers in the BUILT tree (absent terms
    build NullMatchers and don't count; expansion nodes count one per
    expanded term); matching = term matchers AT the current doc, which
    excludes everything inside an ArrayUnionMatcher (its pre-read
    children never sit on the current doc) — see _coord_parts."""
    ids, scores, _ = _merge_sum([(p[0], p[1]) for p in parts])
    _, counts, _ = _merge_sum([(p[0], p[2].astype(np.float64)) for p in parts])
    tc = float(sum(p[3] for p in parts))
    if tc == 0 or tc == q.scale:
        return ids, np.zeros_like(scores)
    return ids, (scores + (counts - 1) / (tc - q.scale) ** 2) * ((tc - 1) / tc)


def _constant(q: Q.ConstantScore, ids: np.ndarray) -> Posting:
    # reference quirk (matching/mcore.py ListMatcher.weight): a FALSY
    # all_weights (score=0 / 0.0) falls through to the 1.0 default, so
    # ConstantScoreQuery(child, score=0) scores every matching doc 1.0
    score = float(q.score) if q.score else 1.0
    return ids, np.full(len(ids), score)


class Searcher:
    # array-path Or keeps its initial-position doc even at score <= 0
    # (reference ArrayUnionMatcher quirk); doc shards can't see the global
    # minimum, so ShardSearcher turns this off — see the Or branch below
    _or_zero_keep_first = True

    def __init__(
        self,
        index: Index,
        weighting: WeightingModel | None = None,
        doc_ids: np.ndarray | None = None,
    ):
        """``doc_ids``: optional universe of all document ids (needed only by
        Every / Not queries); pass the source table's id column."""
        self.index = index
        self.weighting = weighting or BM25F()
        self._universe = (
            np.sort(doc_ids.astype(np.uint64)) if doc_ids is not None else None
        )
        self._term_cache: dict[tuple[str, bool], list[TermRow]] = {}

    def _with_weighting(self, weighting: WeightingModel) -> "Searcher":
        """Clone with a different weighting model (WeightingQuery subtrees);
        subclasses override so shard searchers stay shard searchers."""
        sub = Searcher(self.index, weighting=weighting)
        sub._universe = self._universe
        sub._term_cache = self._term_cache
        return sub

    # -- posting access -------------------------------------------------------

    def prefetch_terms(self, terms: list[str], with_positions: bool = False) -> None:
        missing = [t for t in set(terms) if (t, with_positions) not in self._term_cache]
        if missing:
            rows = self.index.term_rows(missing, with_positions=with_positions)
            for t in missing:
                self._term_cache[(t, with_positions)] = rows.get(t, [])

    def _rows(self, term: str, with_positions: bool = False) -> list[TermRow]:
        key = (term, with_positions)
        if key not in self._term_cache:
            self.prefetch_terms([term], with_positions)
        return self._term_cache[key]

    def n_blocks(self, term: str) -> int:
        """Posting blocks of ``term`` over all of its rows."""
        return sum(r.n_blocks for r in self._rows(term))

    def term_postings(
        self, term: str, with_positions: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Fully-decoded merged postings for a term:
        (ids asc, tfs, len_bytes, positions). ``positions`` is None unless
        requested, else a (flat_positions, per_posting_counts) pair — posting
        i's positions are flat[counts[:i].sum() : counts[:i+1].sum()]."""
        rows = self._rows(term, with_positions)
        return self._merge_rows(
            ("merged", term, with_positions),
            [r.decode_all() for r in rows],
            [r.decode_all_positions_flat() for r in rows] if with_positions else None,
        )

    def _merge_rows(self, mkey, parts: list, flats: list | None):
        """One term's postings from its decoded rows: ``parts`` holds each
        row's (ids, tfs, len_bytes) and ``flats`` (when positions are
        wanted) each row's (flat positions, counts). A single row is
        returned as it is. Several rows (salted buckets, or several pinned
        shard tables in a ShardSearcher) pay a concat + stable argsort +
        ragged position gather to merge, so the merged result is cached
        under ``mkey`` (same lifecycle as _term_cache: per-query on the
        driver, cross-query and bounded on a serving actor). Callers never
        mutate the returned arrays."""
        if not parts:
            e = np.empty(0, np.uint64)
            pos = (e.copy(), np.empty(0, np.int64)) if flats is not None else None
            return e, e.copy(), np.empty(0, np.uint8), pos
        if len(parts) == 1:
            return (*parts[0], flats[0] if flats is not None else None)
        hit = self._term_cache.get(mkey)
        if hit is not None:
            return hit
        ids = np.concatenate([p[0] for p in parts])
        tfs = np.concatenate([p[1] for p in parts])
        lens = np.concatenate([p[2] for p in parts])
        # salted term: bucket slices interleave by doc id
        order = np.argsort(ids, kind="stable")
        ids, tfs, lens = ids[order], tfs[order], lens[order]
        pos = None
        if flats is not None:
            flat = np.concatenate([f[0] for f in flats])
            counts = np.concatenate([f[1] for f in flats])
            # ragged gather of each posting's position run
            offs = np.cumsum(counts) - counts
            sel_off = offs[order]
            sel_cnt = counts[order]
            base = np.repeat(sel_off, sel_cnt)
            run_start = np.cumsum(sel_cnt) - sel_cnt
            within = np.arange(int(sel_cnt.sum())) - np.repeat(run_start, sel_cnt)
            pos = (flat[base + within], sel_cnt)
        self._term_cache[mkey] = (ids, tfs, lens, pos)
        return ids, tfs, lens, pos

    def term_stats(self, term: str) -> tuple[int, float, float]:
        """(df, total_weight, max_weight) summed across salted rows."""
        rows = self._rows(term)
        if not rows:
            return 0, 0.0, 0.0
        return (
            sum(r.df for r in rows),
            sum(r.weight for r in rows),
            max(r.max_weight for r in rows),
        )

    def term_stats_many(self, terms: list[str]) -> dict[str, tuple[int, float, float]]:
        """:meth:`term_stats` of each term, fetched in one batch."""
        self.prefetch_terms(terms)
        return {t: self.term_stats(t) for t in terms}

    def scorer_for(self, term: str):
        df, w, _mx = self.term_stats(term)
        return self.weighting.scorer(
            self.index.doc_count, self.index.avg_field_length, df, w
        )

    def idf(self, term: str) -> float:
        from whoosh_novo_ray.search.scoring import idf as _idf

        df, _, _ = self.term_stats(term)
        return _idf(self.index.doc_count, df)

    # -- evaluation -----------------------------------------------------------

    def postings(self, q: Q.Query) -> Posting:
        """Evaluate a query node -> (doc_ids sorted asc, scores)."""
        if isinstance(q, Q.NullQuery):
            return _EMPTY

        if isinstance(q, Q.Filtered):
            ids, scores = self.postings(q.child)
            if q.allow is not None and len(ids):
                allow = self._filter_to_comb(q.allow)
                if allow is not None:
                    keep = _in_sorted(ids, allow)
                    ids, scores = ids[keep], scores[keep]
            if q.restrict is not None and len(ids):
                restrict = self._filter_to_comb(q.restrict)
                if restrict is not None:
                    keep = ~_in_sorted(ids, restrict)
                    ids, scores = ids[keep], scores[keep]
            return ids, scores

        if isinstance(q, Q.Term):
            ids, tfs, lens, _ = self.term_postings(q.text)
            if not len(ids):
                return _EMPTY
            scorer = self.scorer_for(q.text)
            return ids, scorer.score_arrays(tfs, lens) * q.boost

        if isinstance(q, Q.Or):
            if getattr(q, "scale", None):
                return _scaled_or(q, [self._coord_parts(c) for c in q.children])
            return self._or(q, [self.postings(c) for c in q.children])

        if isinstance(q, Q.And):
            return _and([self.postings(c) for c in q.children])

        if isinstance(q, Q.DisMax):
            return _dismax([self.postings(c) for c in q.children])

        if isinstance(q, Q.AndNot):
            return _and_not(self.postings(q.a), self.postings(q.b))

        if isinstance(q, _ConstantUnion):
            ids, _, _ = _merge_sum([self.postings(c) for c in q.child.children])
            return ids, np.full(len(ids), float(q.score))

        if isinstance(q, Q.ConstantScore):
            return _constant(q, self.postings(q.child)[0])

        if isinstance(q, Q.WeightingQuery):
            return self._with_weighting(q.weighting).postings(q.child)

        if isinstance(q, (Q.Sequence, Q.Ordered)):
            return self._sequence(q)

        if isinstance(q, Q.Otherwise):
            # reference query/compound.py:578-590: b only if a matches nothing
            a_ids, a_sc = self.postings(q.a)
            if len(a_ids):
                return a_ids, a_sc
            return self.postings(q.b)

        if isinstance(q, Q.Require):
            return _require(self.postings(q.a), self.postings(q.b))

        if isinstance(q, Q.AndMaybe):
            return _and_maybe(self.postings(q.a), self.postings(q.b))

        if isinstance(q, Q.Phrase):
            return self._phrase(q)

        from whoosh_novo_ray.search.spans import _SpanQuery, evaluate_spans

        if isinstance(q, _SpanQuery):
            return evaluate_spans(self, q)

        if isinstance(q, MULTITERM):
            return self.postings(rewrite(q, self, self.term_stats_many))

        if isinstance(q, Q.NestedParent):
            p_ids, _ = self.postings(q.parents)
            c_ids, c_sc = self.postings(q.subq)
            if not len(p_ids) or not len(c_ids):
                return _EMPTY
            # owner parent = greatest parent id <= child id
            pos = np.searchsorted(p_ids, c_ids, side="right") - 1
            valid = pos >= 0
            owners = p_ids[pos[valid]]
            sc = c_sc[valid]
            order = np.argsort(owners, kind="stable")
            owners, sc = owners[order], sc[order]
            change = np.empty(len(owners), bool)
            change[0] = True
            change[1:] = owners[1:] != owners[:-1]
            starts = np.flatnonzero(change)
            out_ids = owners[starts]
            if q.score_fn == "max":
                out_sc = np.maximum.reduceat(sc, starts)
            elif q.score_fn == "avg":
                sums = np.add.reduceat(sc, starts)
                counts = np.diff(np.append(starts, len(sc)))
                out_sc = sums / counts
            else:
                out_sc = np.add.reduceat(sc, starts)
            return out_ids, out_sc

        if isinstance(q, Q.NestedChildren):
            p_ids, _ = self.postings(q.parents)
            m_ids, _ = self.postings(q.parents_q)
            if self._universe is None:
                self._universe = self.index.all_doc_ids()
            uni = self._universe
            if not len(p_ids) or not len(m_ids) or not len(uni):
                return _EMPTY
            # children of matching parents: docs in the universe whose owner
            # parent is in m_ids, excluding the parents themselves
            pos = np.searchsorted(p_ids, uni, side="right") - 1
            valid = pos >= 0
            owners = np.full(len(uni), np.uint64(0))
            owners[valid] = p_ids[pos[valid]]
            is_parent = np.isin(uni, p_ids)
            keep = valid & ~is_parent & np.isin(owners, m_ids)
            ids = uni[keep]
            return ids, np.ones(len(ids), np.float64)

        if isinstance(q, Q.ColumnQuery):
            import pyarrow as _pa

            attrs = q.attrs
            vals = attrs[q.column].to_numpy(zero_copy_only=False)
            mask = np.asarray(q.predicate(vals), bool)
            ids = (
                attrs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)[mask]
            )
            ids = np.sort(ids)
            return ids, np.ones(len(ids), np.float64)

        if isinstance(q, Q.Every):
            if self._universe is None:
                self._universe = self.index.all_doc_ids()
            return self._universe, np.full(len(self._universe), float(q.boost))

        raise TypeError(f"unsupported query node: {type(q).__name__}")

    def expand(self, q: Q.Query) -> list[str]:
        """Term-dictionary expansion for multi-term queries. Every pattern
        type derives a lexicographic [lo, hi] range where possible so the
        term-dict scan prunes parquet row groups instead of reading the full
        dictionary (see Index.expand_terms)."""
        if isinstance(q, Q.Prefix):
            lo, hi = _prefix_range(q.text)
            return self.index.expand_terms(
                lambda col: pc.starts_with(col, pattern=q.text), lo=lo, hi=hi
            )
        if isinstance(q, Q.Wildcard):
            rx = q.regex()
            # literal prefix of the pattern (before the first metachar)
            # bounds the scan; the anchored regex stays the exact filter
            i = min(
                (q.pattern.find(c) for c in "*?[" if q.pattern.find(c) >= 0),
                default=len(q.pattern),
            )
            lo, hi = _prefix_range(q.pattern[:i])
            return self.index.expand_terms(
                lambda col: pc.match_substring_regex(col, pattern=rx),
                lo=lo,
                hi=hi,
            )
        if isinstance(q, Q.Regex):
            lo, hi = _prefix_range(_regex_literal_prefix(q.pattern))
            # reference PatternQuery._btexts uses exp.MATCH (query/terms.py:
            # 304-307) — anchored at the start of the term, so an unanchored
            # alternative like the 'pn' in '^iy|pn' must still match at
            # position 0. match_substring_regex is search semantics; the
            # non-capturing start anchor makes it match semantics.
            anchored = f"^(?:{q.pattern})"
            return self.index.expand_terms(
                lambda col: pc.match_substring_regex(col, pattern=anchored),
                lo=lo,
                hi=hi,
            )
        if isinstance(q, Q.TermRange):
            def pred(col):
                mask = None
                if q.start is not None:
                    m = (
                        pc.greater(col, q.start)
                        if q.startexcl
                        else pc.greater_equal(col, q.start)
                    )
                    mask = m
                if q.end is not None:
                    m = pc.less(col, q.end) if q.endexcl else pc.less_equal(col, q.end)
                    mask = m if mask is None else pc.and_(mask, m)
                if mask is None:
                    mask = pc.equal(col, col)
                return mask

            return self.index.expand_terms(
                pred,
                lo=q.start,
                hi=q.end,
                lo_excl=q.startexcl,
                hi_excl=q.endexcl,
            )
        raise TypeError(type(q))

    def _phrase(self, q: Q.Phrase) -> Posting:
        """Positional adjacency: keep docs where word i+1 occurs at a position
        p+1..p+slop after an occurrence of word i (reference SpanNear2
        semantics for the common slop=1 phrase case, query/positional.py:134).
        Scored like the underlying And of the terms.

        Fully vectorized: candidate docs map to small indices, each term's
        (doc, position) occurrences become flat uint64 keys
        (cand_idx << 32 | pos) — which arrive ALREADY SORTED (ids ascend,
        positions ascend within a doc) — and the adjacency chain is a
        sequence of searchsorted membership tests over sorted arrays. The
        final scores reuse the postings decoded for positions (no second
        segment read per term).
        """
        words = list(q.words)
        if not words:
            return _EMPTY
        per_term = [self.term_postings(w, with_positions=True) for w in words]
        if any(len(p[0]) == 0 for p in per_term):
            return _EMPTY
        # doc-level intersection: cheap (df-sized) early exit for phrases of
        # terms that never share a doc
        cand = per_term[0][0]
        for ids, *_ in per_term[1:]:
            cand = cand[_in_sorted(cand, ids)]
            if not len(cand):
                return _EMPTY

        # Two key layouts for the adjacency chain:
        #  * doc ids < 2^32 (the common case): GLOBAL keys (doc << 32 | pos)
        #    are query-independent, already sorted (ids asc, positions asc
        #    within a doc), and live in the term cache — zero per-query
        #    repeat/compaction work; position+slop can't carry into the doc
        #    bits (positions are int32 at build time).
        #  * huge doc ids: compact to candidate indices per query (the
        #    original layout).
        if max(int(p[0][-1]) for p in per_term) < (1 << 32):
            def flat_keys(t):
                key = ("occkeys", words[t])
                hit = self._term_cache.get(key)
                if hit is not None:
                    return hit
                ids, _tfs, _lens, (flat, counts) = per_term[t]
                k = (np.repeat(ids, counts).astype(np.uint64) << np.uint64(32)) | flat.astype(
                    np.uint64
                )
                self._term_cache[key] = k
                return k

            def doc_of(allowed):
                return np.unique(allowed >> np.uint64(32))
        else:
            def flat_keys(t):
                ids, _tfs, _lens, (flat, counts) = per_term[t]
                sel = _in_sorted(ids, cand)
                occ_sel = np.repeat(sel, counts)
                docs = np.repeat(ids, counts)[occ_sel]
                cand_idx = np.searchsorted(cand, docs).astype(np.uint64)
                return (cand_idx << np.uint64(32)) | flat[occ_sel].astype(np.uint64)

            def doc_of(allowed):
                return cand[np.unique((allowed >> np.uint64(32)).astype(np.int64))]

        allowed = flat_keys(0)
        for t in range(1, len(words)):
            nxt = flat_keys(t)  # sorted
            if q.slop == 1:
                shifted = allowed + np.uint64(1)
                allowed = shifted[_in_sorted(shifted, nxt)]  # stays sorted
            else:
                merged = [
                    shifted[_in_sorted(shifted, nxt)]
                    for s in range(1, q.slop + 1)
                    for shifted in [allowed + np.uint64(s)]
                ]
                allowed = np.unique(np.concatenate(merged)) if merged else nxt[:0]
            if not len(allowed):
                return _EMPTY
        good = doc_of(allowed)
        parts = []
        for w, (t_ids, t_tfs, t_lens, _pos) in zip(words, per_term):
            scorer = self.scorer_for(w)
            parts.append((t_ids, scorer.score_arrays(t_tfs, t_lens)))
        ids, scores, _counts = _merge_sum(parts)
        keep = _in_sorted(ids, good)
        boost = float(getattr(q, "boost", 1.0))
        return ids[keep], scores[keep] * boost if boost != 1.0 else scores[keep]

    def _or(self, q: Q.Or, parts: list[Posting]) -> Posting:
        """An unscaled Or over its evaluated children."""
        ids, scores, _ = _merge_sum(parts)
        if multiterm_constant_score(len(q.children), self.index.doc_count):
            # the reference's array-path Or (AUTO heuristic -> Preloaded
            # ArrayUnionMatcher) skips docs whose summed score is <= 0
            # (_find_next requires a[i] > 0, combo.py:232-235) — docs
            # matched only by a zero-scoring child, e.g. a nested scaled
            # Or whose termcount degenerates to 1, vanish from the doc
            # set — EXCEPT the matcher's initial position (the minimum
            # doc id, set in __init__ without the a[i] check), which is
            # yielded regardless. The binary-tree path (2 children / big
            # corpus / scaled) keeps every doc. Found by the fuzzer.
            # The positional exception is GLOBAL-min-relative, which a
            # doc shard can't know — ShardSearcher disables it (at most
            # one score-0 tail doc of difference, documented there).
            keep = scores > 0
            if len(keep) and self._or_zero_keep_first:
                keep[0] = True
            if not keep.all():
                ids, scores = ids[keep], scores[keep]
        return ids, scores

    # -- CoordMatcher (Or scale=) model ----------------------------------------

    def _termcount(self, q: Q.Query) -> int:
        """Number of term matchers the reference would BUILD for ``q`` —
        ``len(child.term_matchers())`` in CoordMatcher.__init__ (reference
        matching/wrappers.py:530). Absent terms build NullMatchers (count 0);
        multi-term nodes contribute one term matcher per live expansion, and
        term_matchers() descends into ArrayUnionMatchers too, so hidden
        subtrees still count here (unlike in the per-doc matching count)."""
        if isinstance(q, Q.Term):
            return 1 if self.term_stats(q.text)[0] > 0 else 0
        if isinstance(q, MULTITERM):
            return self._termcount(rewrite(q, self, self.term_stats_many))
        if isinstance(q, (Q.Or, Q.And, Q.DisMax)):
            return sum(self._termcount(c) for c in q.children)
        if isinstance(q, (Q.AndNot, Q.Require, Q.AndMaybe)):
            return self._termcount(q.a) + self._termcount(q.b)
        if isinstance(q, Q.ConstantScore):
            return self._termcount(q.child)
        if isinstance(q, Q.WeightingQuery):
            return self._termcount(q.child)
        if isinstance(q, Q.Phrase):
            # reference Phrase.matcher returns NullMatcher if any word is
            # absent; otherwise each word is one term matcher
            words = list(q.words)
            return (
                len(words)
                if words and all(self.term_stats(w)[0] > 0 for w in words)
                else 0
            )
        # Every/ColumnQuery/Nested*/spans: list-style matchers with term()
        # None — no term matchers (best-effort; not generated under scale)
        return 0

    def _coord_parts(
        self, q: Q.Query
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(ids, scores, per-doc matching-term counts, termcount) for
        CoordMatcher parity (reference matching/wrappers.py:520-572).

        ``termcount`` counts term matchers in the BUILT tree (see
        _termcount); ``counts[i]`` models ``len(matching_terms(id))`` — term
        matchers sitting ON doc ids[i]. Terms hidden inside an
        ArrayUnionMatcher never sit on the current doc (the array matcher
        pre-reads its children past it), so a hidden subtree contributes 0
        to every doc's count while still contributing to termcount. A
        subtree goes to the array matcher exactly per the reference Or
        AUTO_MATCHER heuristic (query/compound.py:330-345) =
        multiterm_constant_score(k, doc_count) — a nested SCALED Or always
        takes the default (marched) matcher."""
        def align(ids: np.ndarray, src_ids: np.ndarray, src_counts: np.ndarray):
            """counts from (src_ids, src_counts) aligned onto ids (0 where
            absent); all id arrays are sorted ascending."""
            out = np.zeros(len(ids), np.float64)
            if len(ids) and len(src_ids):
                idx = np.searchsorted(src_ids, ids)
                ok = idx < len(src_ids)
                hit = np.zeros(len(ids), bool)
                hit[ok] = src_ids[idx[ok]] == ids[ok]
                out[hit] = src_counts[idx[hit]]
            return out

        if isinstance(q, Q.NullQuery):
            return _EMPTY[0], _EMPTY[1], np.empty(0, np.float64), 0

        if isinstance(q, Q.Term):
            ids, sc = self.postings(q)
            # termcount from GLOBAL stats, not local postings presence: on a
            # ShardSearcher a term whose docs all live in other shards still
            # built a term matcher in the single-process reference tree
            tc = 1 if self.term_stats(q.text)[0] > 0 else 0
            return ids, sc, np.ones(len(ids), np.float64), tc

        if isinstance(q, MULTITERM):
            return self._coord_parts(rewrite(q, self, self.term_stats_many))

        if isinstance(q, Q.Or):
            scale = getattr(q, "scale", None)
            hidden = multiterm_constant_score(len(q.children), self.index.doc_count)
            if scale or not hidden:
                parts = [self._coord_parts(c) for c in q.children]
                if scale:
                    ids, sc = _scaled_or(q, parts)
                else:
                    ids, sc = self._or(q, [(p[0], p[1]) for p in parts])
                u_ids, u_cnt, _ = _merge_sum([(p[0], p[2]) for p in parts])
                return ids, sc, align(ids, u_ids, u_cnt), sum(p[3] for p in parts)
            ids, sc = self.postings(q)
            tc = sum(self._termcount(c) for c in q.children)
            return ids, sc, np.zeros(len(ids), np.float64), tc

        if isinstance(q, (Q.And, Q.DisMax)):
            parts = [self._coord_parts(c) for c in q.children]
            combine = _and if isinstance(q, Q.And) else _dismax
            ids, sc = combine([(p[0], p[1]) for p in parts])
            u_ids, u_cnt, _ = _merge_sum([(p[0], p[2]) for p in parts])
            return ids, sc, align(ids, u_ids, u_cnt), sum(p[3] for p in parts)

        if isinstance(q, Q.AndNot):
            pa = self._coord_parts(q.a)
            ids, sc = _and_not((pa[0], pa[1]), self.postings(q.b))
            # negative-side terms are in the built tree (BiMatcher children)
            # but never sit on a surviving doc
            return (
                ids,
                sc,
                align(ids, pa[0], pa[2]),
                pa[3] + self._termcount(q.b),
            )

        if isinstance(q, (Q.Require, Q.AndMaybe)):
            pa = self._coord_parts(q.a)
            pb = self._coord_parts(q.b)
            combine = _require if isinstance(q, Q.Require) else _and_maybe
            ids, sc = combine((pa[0], pa[1]), (pb[0], pb[1]))
            counts = align(ids, pa[0], pa[2]) + align(ids, pb[0], pb[2])
            return ids, sc, counts, pa[3] + pb[3]

        if isinstance(q, Q.ConstantScore):
            inner = self._coord_parts(q.child)
            if isinstance(q, _ConstantUnion):
                # its children are Terms: one more flat pass over them
                ids, sc = self.postings(q)
            else:
                ids, sc = _constant(q, inner[0])
            return ids, sc, align(ids, inner[0], inner[2]), inner[3]

        if isinstance(q, Q.WeightingQuery):
            return self._with_weighting(q.weighting)._coord_parts(q.child)

        if isinstance(q, Q.Otherwise):
            pa = self._coord_parts(q.a)
            return pa if len(pa[0]) else self._coord_parts(q.b)

        if isinstance(q, Q.Phrase):
            ids, sc = self.postings(q)
            tc = self._termcount(q)
            return ids, sc, np.full(len(ids), float(tc)), tc

        # Every/ColumnQuery/Nested*/spans/Sequence: no term matchers modeled
        # (term() is None on list-style matchers); best-effort fallback —
        # these nodes are not produced under Or(scale=) by the parsers
        ids, sc = self.postings(q)
        return ids, sc, np.zeros(len(ids), np.float64), 0

    def _child_terms(self, c: Q.Query) -> list[str]:
        """Concrete terms a Sequence/Ordered child resolves to."""
        if isinstance(c, Q.Term):
            return [c.text]
        if isinstance(c, Q.Or) and all(isinstance(x, Q.Term) for x in c.children):
            return [x.text for x in c.children]
        raise TypeError(
            f"Sequence/Ordered child must expand to terms, got {type(c).__name__}"
        )

    def _sequence(self, q) -> Posting:
        """Sequence: child i+1 occurs within slop positions after child i;
        Ordered: child i+1 occurs ANYWHERE after child i. Each child may
        expand to several terms (their occurrences union). Scored as the
        summed union of every matched term, like Phrase."""
        ordered_any_dist = isinstance(q, Q.Ordered)
        q = rewrite(q, self, self.term_stats_many)
        kids = [self._child_terms(c) for c in q.children]
        if not kids:
            return _EMPTY
        per_child = []
        live_kids = []
        for terms in kids:
            pairs = [
                (t, p)
                for t in terms
                for p in [self.term_postings(t, with_positions=True)]
                if len(p[0])
            ]
            if not pairs:
                return _EMPTY
            live_kids.append([t for t, _ in pairs])
            per_child.append([p for _, p in pairs])
        kids = live_kids

        # candidate docs: intersection of each child's term-union doc sets
        def union_ids(parts):
            u = np.unique(np.concatenate([p[0] for p in parts]))
            return u

        cand = union_ids(per_child[0])
        for parts in per_child[1:]:
            cand = cand[_in_sorted(cand, union_ids(parts))]
            if not len(cand):
                return _EMPTY

        def child_keys(parts):
            keys = []
            for ids, _tfs, _lens, (flat, counts) in parts:
                sel = _in_sorted(ids, cand)
                occ_sel = np.repeat(sel, counts)
                docs = np.repeat(ids, counts)[occ_sel]
                cidx = np.searchsorted(cand, docs).astype(np.uint64)
                keys.append((cidx << np.uint64(32)) | flat[occ_sel])
            out = keys[0] if len(keys) == 1 else np.concatenate(keys)
            out.sort()
            return out

        if ordered_any_dist:
            # reference SpanBefore semantics (query/spans.py:869-901,
            # left-folded by _tree_matcher): a FIRST-child occurrence must
            # precede the MINIMUM position of EVERY later child — i.e.
            # min(child_0) < min(child_i) per doc (ordering among the later
            # children is NOT enforced; reference quirk preserved).
            def per_doc_min(parts):
                keys = child_keys(parts)  # sorted (cand_idx << 32 | pos)
                docs = (keys >> np.uint64(32)).astype(np.int64)
                starts = np.flatnonzero(np.diff(docs, prepend=-1))
                out = np.full(len(cand), np.iinfo(np.int64).max, np.int64)
                out[docs[starts]] = (
                    keys[starts] & np.uint64(0xFFFFFFFF)
                ).astype(np.int64)
                return out

            min0 = per_doc_min(per_child[0])
            ok = min0 < np.iinfo(np.int64).max
            for parts in per_child[1:]:
                ok &= min0 < per_doc_min(parts)
            good = cand[ok]
            if not len(good):
                return _EMPTY
        else:
            # same global-key fast path as _phrase: when doc ids fit 32
            # bits, each child's occurrence-key union ((doc << 32) | pos,
            # sorted) is query-independent — cached per term SET, so the
            # adjacency chain runs with no per-query repeat/compaction
            if max(int(p[0][-1]) for parts in per_child for p in parts) < (1 << 32):
                def child_keys_global(ci):
                    ckey = ("occkeys-union", tuple(kids[ci]))
                    hit = self._term_cache.get(ckey)
                    if hit is not None:
                        return hit
                    arrs = []
                    for t, (ids, _tfs, _lens, (flat, counts)) in zip(
                        kids[ci], per_child[ci]
                    ):
                        tk = ("occkeys", t)
                        a = self._term_cache.get(tk)
                        if a is None:
                            a = (
                                np.repeat(ids, counts).astype(np.uint64)
                                << np.uint64(32)
                            ) | flat.astype(np.uint64)
                            self._term_cache[tk] = a
                        arrs.append(a)
                    out = arrs[0] if len(arrs) == 1 else np.sort(np.concatenate(arrs))
                    self._term_cache[ckey] = out
                    return out

                allowed = child_keys_global(0)
                for ci in range(1, len(per_child)):
                    nxt = child_keys_global(ci)
                    merged = [
                        shifted[_in_sorted(shifted, nxt)]
                        for s in range(1, q.slop + 1)
                        for shifted in [allowed + np.uint64(s)]
                    ]
                    allowed = (
                        merged[0]
                        if len(merged) == 1
                        else np.unique(np.concatenate(merged))
                    )
                    if not len(allowed):
                        return _EMPTY
                good = np.unique(allowed >> np.uint64(32))
            else:
                allowed = child_keys(per_child[0])
                for parts in per_child[1:]:
                    nxt = child_keys(parts)
                    merged = [
                        shifted[_in_sorted(shifted, nxt)]
                        for s in range(1, q.slop + 1)
                        for shifted in [allowed + np.uint64(s)]
                    ]
                    allowed = (
                        merged[0]
                        if len(merged) == 1
                        else np.unique(np.concatenate(merged))
                    )
                    if not len(allowed):
                        return _EMPTY
                good = cand[np.unique((allowed >> np.uint64(32)).astype(np.int64))]
        parts_scored = []
        for terms, parts in zip(kids, per_child):
            for t, (t_ids, t_tfs, t_lens, _p) in zip(terms, parts):
                scorer = self.scorer_for(t)
                parts_scored.append((t_ids, scorer.score_arrays(t_tfs, t_lens)))
        ids, scores, _c = _merge_sum(parts_scored)
        keep = _in_sorted(ids, good)
        return ids[keep], scores[keep] * float(q.boost)

    # -- top-k ----------------------------------------------------------------

    def _filter_to_comb(self, obj) -> np.ndarray | None:
        """Normalize a filter/mask argument to an ascending-sorted unique
        doc-id array (the reference Searcher._filter_to_comb,
        searching.py:547-560: accepts a query, a results table, or a
        set-like of doc numbers). Returns None for the reference's falsy
        bypass (FilterCollector.prepare, collectors.py:706-708: ``ftc(allow)
        if allow else None`` — an EMPTY set-like disables filtering
        entirely, while a query matching nothing filters out everything)."""
        if obj is None:
            return None
        if isinstance(obj, Q.Query):
            if isinstance(obj, Q.NullQuery):
                return None  # falsy in the reference (qcore.py _NullQuery)
            ids, _ = self.postings(obj)
            return np.asarray(ids, np.uint64)
        if isinstance(obj, pa.Table):
            obj = arrow_view(obj["doc_id"])
        if isinstance(obj, (set, frozenset)):
            obj = sorted(obj)
        arr = np.unique(np.asarray(obj, np.uint64))
        if not len(arr):
            return None  # reference falsy-bypass quirk
        return arr

    def search(
        self,
        q: Q.Query,
        limit: int | None = 10,
        exclude: np.ndarray | None = None,
        filter=None,
        mask=None,
    ) -> pa.Table:
        """Run a query; return Arrow table (doc_id, score) sorted by
        (score desc, doc_id asc) — the reference tie-break
        (collectors.py:466-508) — truncated to `limit`.

        ``exclude``: ascending-sorted doc ids masked out of the results —
        the NRT pending-delete semantics (reference BufferedWriter deletes,
        writing.py:1312-1320: deleted docs stop matching immediately but
        stay in the collection stats until the next commit).

        ``filter`` / ``mask``: the reference FilterCollector allow/restrict
        sets (collectors.py:659-763; Searcher.search(filter=, mask=),
        searching.py:784-800): each may be a Query, a results table, or a
        set-like of doc ids. A doc is kept only if it is in the allow set
        (when given) and not in the restrict set; filtering happens before
        the top-``limit`` cut, and scores are unchanged."""
        if filter is not None or mask is not None:
            q = Q.Filtered(q, filter, mask)
        # expand multi-term nodes first, then batch-fetch every term the
        # query needs up front: one lookup for all of them, expansions
        # included, instead of one per term
        q = rewrite(q, self, self.term_stats_many)
        terms = q.terms()
        if terms:
            self.prefetch_terms(terms, with_positions=q.needs_positions())
        ids, scores = self.postings(q)
        if getattr(self.weighting, "use_final", False):
            # vectorized analog of the reference final() doc-level hook
            # (scoring.py:65-81, applied per collected doc in
            # collectors.py:335-371)
            scores = np.asarray(
                self.weighting.final(self, ids, scores), np.float64
            )
        if exclude is not None and len(exclude) and len(ids):
            keep = ~_in_sorted(ids, np.asarray(exclude, ids.dtype))
            ids, scores = ids[keep], scores[keep]
        n = len(ids)
        if limit is not None and n > 4 * limit + 64:
            # O(n) exact top-k: partition on score, resolve the boundary
            # tie-layer by doc_id asc (constant-score queries tie the whole
            # list — the tie layer is handled by a second partition on ids,
            # never a full sort)
            k = limit
            kth = np.partition(scores, n - k)[n - k]
            greater = np.flatnonzero(scores > kth)
            eq = np.flatnonzero(scores == kth)
            need = k - len(greater)
            if 0 < need < len(eq):
                sel = eq[np.argpartition(ids[eq], need - 1)[:need]]
            elif need <= 0:
                sel = eq[:0]
            else:
                sel = eq
            cand = np.concatenate([greater, sel])
            order = cand[np.lexsort((ids[cand], -scores[cand]))][:limit]
        else:
            order = np.lexsort((ids, -scores))
            if limit is not None:
                order = order[:limit]
        return _hits_table(ids[order], scores[order])

    def search_page(
        self, q: Q.Query, pagenum: int, pagelen: int = 10, filter=None, mask=None
    ):
        """Paged results (reference Searcher.search_page / ResultsPage,
        searching.py:615-667): returns a dict with the page's table, total
        hit count, page count and 1-based page number. Requesting a page
        past the end returns the last page (reference behavior).
        ``filter`` / ``mask`` pass through to :meth:`search` (the reference
        forwards all search kwargs)."""
        if pagenum < 1:
            raise ValueError("pagenum must be >= 1")
        full = self.search(q, limit=None, filter=filter, mask=mask)
        total = len(full)
        pagecount = max(1, -(-total // pagelen))
        pagenum = min(pagenum, pagecount)
        offset = (pagenum - 1) * pagelen
        return {
            "results": full.slice(offset, pagelen),
            "total": total,
            "pagenum": pagenum,
            "pagecount": pagecount,
            "pagelen": pagelen,
            "is_last_page": pagenum == pagecount,
        }

    def _kw_query(self, kw: dict, attrs) -> Q.Query:
        """And of per-field equality from keyword args (reference
        Searcher._query_for_kw, searching.py:398-407): the indexed text
        field matches via Term, any other field is an equality ColumnQuery
        over ``attrs`` (the stored-fields table — our engine keeps stored
        fields in the source parquet rather than duplicating them into the
        index). No kwargs = Every, like the reference."""
        qs = []
        for k, v in kw.items():
            if k == "text":
                qs.append(Q.Term(str(v)))
            else:
                if attrs is None:
                    raise ValueError(
                        f"field {k!r} needs the stored-fields table: pass attrs="
                    )
                def pred(vals, _v=v):
                    return vals == np.asarray(_v)

                qs.append(Q.ColumnQuery(attrs=attrs, column=k, predicate=pred))
        if not qs:
            return Q.Every()
        return qs[0] if len(qs) == 1 else Q.And(*qs)

    def document_numbers(self, attrs=None, **kw) -> np.ndarray:
        """Sorted doc ids matching the keyword equalities (reference
        Searcher.document_numbers, searching.py:438-452; generator order
        there is matcher doc order = ascending docnum)."""
        ids, _ = self.postings(self._kw_query(kw, attrs))
        return ids

    def document_number(self, attrs=None, **kw):
        """First matching doc id or None (searching.py:408-436)."""
        ids = self.document_numbers(attrs, **kw)
        return int(ids[0]) if len(ids) else None

    def documents(self, attrs: pa.Table, **kw):
        """Generator of stored-field dicts for matching docs
        (searching.py:374-391). ``attrs`` is the stored-fields table
        (doc_id + columns) and doubles as the equality-match source for
        non-text keywords."""
        ids = self.document_numbers(attrs, **kw)
        if not len(ids):
            return
        aid = attrs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(aid, kind="stable")
        pos = order[np.searchsorted(aid[order], ids)]
        for row in attrs.take(pa.array(pos)).to_pylist():
            yield row

    def document(self, attrs: pa.Table, **kw):
        """First matching stored-field dict or None (searching.py:350-372)."""
        for row in self.documents(attrs, **kw):
            return row
        return None

    def find(self, querystring: str, limit: int | None = 10, **kw) -> pa.Table:
        """Parse with the default QueryParser and search (reference
        Searcher.find, searching.py:669-674)."""
        from whoosh_novo_ray.search.qparser import QueryParser

        return self.search(QueryParser().parse(querystring), limit=limit, **kw)

    def docs_for_query(self, q: Q.Query) -> np.ndarray:
        """Sorted ids of every doc matching ``q`` (searching.py:676-695)."""
        ids, _ = self.postings(q)
        return ids

    def search_results(self, q: Q.Query, limit: int | None = 10, **kw):
        """Like :meth:`search` but returns a :class:`Results` carrying both
        the top-``limit`` ranked hits AND the full matching docset, so the
        reference's merge algebra (``extend`` / ``filter`` / ``upgrade`` /
        ``upgrade_and_extend``, searching.py:1325-1410) applies.  The
        reference's ``Results.docs()`` also materializes every matching id
        (``collector.all_ids()``), so computing the full ranking here costs
        the same class of work."""
        from whoosh_novo_ray.search.results import Results

        full = self.search(q, limit=None, **kw)
        ids = full["doc_id"].to_numpy(zero_copy_only=False)
        scores = full["score"].to_numpy(zero_copy_only=False)
        cut = slice(None) if limit is None else slice(limit)
        return Results(ids[cut], scores[cut], np.sort(ids))

    def matched_terms(self, q: Q.Query) -> dict[str, np.ndarray]:
        """Which leaf terms matched which result docs (reference
        TermsCollector, collectors.py:1113-1175): term -> sorted doc ids
        restricted to the query's match set."""
        ids, _ = self.postings(q)
        out: dict[str, np.ndarray] = {}
        for t in set(q.terms()):
            t_ids, *_rest = self.term_postings(t)
            out[t] = t_ids[np.isin(t_ids, ids)]
        return out
