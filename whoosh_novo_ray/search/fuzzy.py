"""Fuzzy term expansion + spelling suggestions.

Replaces the reference's Levenshtein-automaton machinery (de-odex/whoosh-novo
``src/whoosh/automata/lev.py``, ``query/terms.py:436-519`` FuzzyTerm,
``spelling.py:89-116`` ReaderCorrector) with a scan of the sorted term
dictionary: candidates are pre-filtered vectorized (shared prefix + length
band — the same candidate set a Lev automaton accepts is a subset), then
checked with a banded edit-distance DP.

ReaderCorrector ranking quirk preserved: suggestions rank by frequency
(desc) then alphabetically — the reference scores every candidate
``-(maxdist + 0.5/freq)`` with the *requested* maxdist, so distance does not
differentiate candidates (spelling.py:126-133).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from whoosh_novo_ray.search import query as Q
from whoosh_novo_ray.search.query import FuzzyTerm  # noqa: F401  (public import path)


def edit_distance(a: str, b: str, maxdist: int) -> int | None:
    """Banded Levenshtein distance; None if > maxdist."""
    if abs(len(a) - len(b)) > maxdist:
        return None
    if a == b:
        return 0
    big = maxdist + 1
    prev = [v if v <= maxdist else big for v in range(len(b) + 1)]
    for i, ca in enumerate(a, 1):
        cur = [big] * (len(b) + 1)
        if i <= maxdist:
            cur[0] = i
        lo = max(1, i - maxdist)
        hi = min(len(b), i + maxdist)
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost, big)
        if min(cur[lo : hi + 1]) > maxdist:
            return None
        prev = cur
    return prev[-1] if prev[-1] <= maxdist else None


def terms_within(
    index, text: str, maxdist: int = 1, prefix: int = 0
) -> list[tuple[str, int]]:
    """All indexed terms within ``maxdist`` edits of ``text`` (sharing the
    first ``prefix`` characters), as (term, distance) pairs.

    Bounded traversal (the reference's Levenshtein-automaton-over-FST
    shape, automata/lev.py + codec/base.py:363-389): a Lev DFA's
    ``next_valid`` seek prunes the term-sorted segment files at ROW GROUP
    granularity (skip a group when the smallest accepted string >= its min
    term exceeds its max term) and jump-scans the surviving groups with
    searchsorted — work is O(candidates + jumps), never O(lexicon). Falls
    back to the vectorized predicate scan + banded DP for index objects
    without parquet segments (e.g. views). The banded DP still assigns the
    exact distance to each accepted term.
    """
    pre = text[:prefix]
    scanned = _automaton_scan(index, text, maxdist, pre)
    if scanned is not None:
        return scanned

    out: list[tuple[str, int]] = []
    lo, hi = len(text) - maxdist, len(text) + maxdist

    def predicate(col: pa.ChunkedArray):
        lens = pc.utf8_length(col)
        mask = pc.and_(pc.greater_equal(lens, lo), pc.less_equal(lens, hi))
        if pre:
            mask = pc.and_(mask, pc.starts_with(col, pattern=pre))
        return mask

    rlo, rhi = (pre, pre + "\U0010ffff") if pre else (None, None)
    for cand in index.expand_terms(predicate, lo=rlo, hi=rhi):
        d = edit_distance(text, cand, maxdist)
        if d is not None:
            out.append((cand, d))
    return out


def _automaton_scan(
    index, text: str, maxdist: int, pre: str
) -> list[tuple[str, int]] | None:
    """Levenshtein-automaton bounded scan over an Index's (or MultiIndex's)
    term-sorted segment files, through each member's block index. Returns
    None when ``index`` doesn't expose segment files (caller falls back to
    the predicate scan). Records pruning stats on ``index.last_fuzzy_stats``
    and, with ``Index.expand_terms``' key meanings, ``last_expand_stats``."""
    members = getattr(index, "members", None)
    if members is None:
        members = [index]
    if not all(hasattr(m, "range_blocks") for m in members):
        return None

    from whoosh_novo_ray.index.segment import EXPAND_STAT_KEYS
    from whoosh_novo_ray.search.lev import LevAutomaton

    dfa = LevAutomaton(text, maxdist)
    lo = pre or None
    hi_bound = pre + "\U0010ffff" if pre else None
    stats = dict.fromkeys(EXPAND_STAT_KEYS + ("terms_scanned",), 0)
    found: dict[str, int] = {}
    for m in members:
        for tb in m.range_blocks(lo, hi_bound, False, False, stats):
            for g in tb.groups(lo, hi_bound):
                nv = dfa.next_valid(max(tb.mins[g], pre))
                if nv is None or nv > tb.maxs[g]:
                    continue
                terms = tb.terms(g)
                stats["row_groups_read"] += 1
                stats["rows_read"] += len(terms)
                if pre:
                    terms = terms[
                        np.searchsorted(terms, pre) : np.searchsorted(
                            terms, hi_bound, "right"
                        )
                    ]
                # length-band prefilter (distance <= k implies the band)
                # BEFORE the per-term automaton work: jumps over the
                # filtered array stay sound — next_valid is a lower bound
                # and out-of-band terms can never be accepted
                lens = np.fromiter(map(len, terms), np.int64, len(terms))
                terms = terms[
                    (lens >= len(text) - maxdist) & (lens <= len(text) + maxdist)
                ]
                # jump-scan the sorted array with next_valid + searchsorted
                i = 0
                while i < len(terms):
                    t = terms[i]
                    stats["terms_scanned"] += 1
                    nv = dfa.next_valid(t)
                    if nv is None:
                        break
                    if nv == t:
                        d = edit_distance(text, t, maxdist)
                        if d is not None:  # accepts() implies this
                            found[t] = d
                        i += 1
                    else:
                        i = int(np.searchsorted(terms, nv, side="left"))
    try:
        index.last_fuzzy_stats = stats
        # one observability contract regardless of which path ran
        index.last_expand_stats = {k: stats[k] for k in EXPAND_STAT_KEYS}
    except AttributeError:
        pass
    return sorted(found.items())


def suggest(
    index, text: str, limit: int = 5, maxdist: int = 2, prefix: int = 0
) -> list[str]:
    """Spelling suggestions from the index lexicon (ReaderCorrector
    semantics: frequency desc, then alphabetical). Frequencies come from
    stats-only block-index lookups of the CANDIDATES (never the full term
    dictionary — the candidate set is the edit-distance ball)."""
    cands = terms_within(index, text, maxdist=maxdist, prefix=prefix)
    if not cands:
        return []
    import heapq

    stats = index.term_stats_many([t for t, _d in cands])
    # reference Corrector.suggest keeps the `limit` largest (score, sug)
    # TUPLES in its heap (spelling.py:64-73) — so among equal-frequency
    # candidates at the cutoff the alphabetically LATER string survives —
    # then presents them sorted by (-score, sug)
    scored = [
        (-(maxdist + 0.5 / (stats.get(t, (0, 1.0, 0.0))[1] or 1)), t)
        for t, _d in cands
    ]
    keep = heapq.nlargest(limit, scored)
    keep.sort(key=lambda x: (-x[0], x[1]))
    return [t for _s, t in keep]


def correct_query(searcher, q, maxdist: int = 2, prefix: int = 0):
    """Did-you-mean: replace query terms absent from the lexicon with their
    top spelling suggestion (reference Searcher.correct_query,
    searching.py:861-975). Returns (corrected query, changed?)."""
    changed = False

    def fix(node):
        nonlocal changed
        if isinstance(node, Q.Term):
            df, _, _ = searcher.term_stats(node.text)
            if df == 0:
                sugs = suggest(
                    searcher.index, node.text, limit=1, maxdist=maxdist, prefix=prefix
                )
                if sugs:
                    changed = True
                    return Q.Term(sugs[0], boost=node.boost, field=node.field)
            return node
        if isinstance(node, (Q.And, Q.Or, Q.DisMax)):
            return type(node)(*[fix(c) for c in node.children])
        if isinstance(node, (Q.AndNot, Q.Require, Q.AndMaybe)):
            return type(node)(fix(node.a), fix(node.b))
        if isinstance(node, Q.Phrase):
            words = []
            for w in node.words:
                df, _, _ = searcher.term_stats(w)
                if df == 0:
                    sugs = suggest(
                        searcher.index, w, limit=1, maxdist=maxdist, prefix=prefix
                    )
                    if sugs:
                        changed = True
                        words.append(sugs[0])
                        continue
                words.append(w)
            return Q.Phrase(words, slop=node.slop, field=node.field)
        return node

    return fix(q), changed
