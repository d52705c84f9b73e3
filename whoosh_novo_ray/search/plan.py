"""Query planning: the one place a multi-term node becomes the terms it
scores.

Prefix, Wildcard, Regex, TermRange, FuzzyTerm and Variations each expand
once over the lexicon, as in the reference (query/terms.py:310-569, one
MultiTerm expansion into an Or; the searcher builds its matcher tree from
it, SURVEY §3.3). :func:`rewrite` replaces every such node in a tree by a
concrete one:

* ``NULL`` when no indexed term matches;
* a ``Term`` for a single expansion;
* a :class:`_ConstantUnion` where the reference scores a constant-score
  expansion through its array matcher (:func:`multiterm_constant_score`);
* otherwise an ``Or`` of the expansion's Terms, each carrying the boost.

Evaluators then see only concrete nodes. The local ``Searcher`` rewrites a
multi-term node when it reaches one; the ``ScorePool`` rewrites the whole
tree on the driver, against the global lexicon, before it ships the query
to its scoring actors.

``fuzzy`` and ``lang_morph`` are imported inside the function that uses
them: every scoring actor imports this module through the searcher, and
none of them expands.
"""

from __future__ import annotations

from typing import Callable

from whoosh_novo_ray.search import query as Q

# nodes that expand over the lexicon
MULTITERM = (Q.Prefix, Q.Wildcard, Q.Regex, Q.TermRange, Q.FuzzyTerm, Q.Variations)

StatsFn = Callable[[list[str]], dict[str, tuple[int, float, float]]]


def multiterm_constant_score(n_expanded: int, doc_count: int) -> bool:
    """Whether a multi-expansion MultiTerm query (Prefix/Wildcard/Regex/
    TermRange/Fuzzy with constantscore=True) actually scores CONSTANT in the
    reference — which is NOT "always": MultiTerm.matcher (query/terms.py:
    215-241) requests constant score by building Or(terms) with context
    weighting=None, but only the ArrayUnionMatcher honors the request
    (matching/combo.py:161-175 ``scored=False``); the binary-tree
    UnionMatcher path re-resolves Term matchers through Searcher.postings
    (searching.py:299-307), whose ``weighting or self.weighting`` silently
    restores BM25. Or's AUTO_MATCHER heuristic (query/compound.py:330-345)
    picks the array matcher — hence constant score — only when:

      * >= TOO_MANY_CLAUSES (1024) expansions, regardless of corpus, or
      * 3..1023 expansions on a SMALL index (doc_count_all <= 5000) in a
        plain scored search (needs_current False — true even under And,
        verified empirically; Or(scale=) never occurs here).

    Two expansions, or 3..1023 expansions on a big corpus, score as a plain
    BM25 Or. Behavior (not the docstring'd intent) is what rank-identity
    requires — differentially verified by tests/test_query_fuzz.py and
    tests/test_search_differential.py."""
    return n_expanded >= 1024 or (n_expanded > 2 and doc_count <= 5000)


class _ConstantUnion(Q.ConstantScore):
    """An expansion the reference scores through its array matcher: every
    doc matching any Term of ``child`` (an Or) scores ``score``, 0.0
    included. The reference's ConstantScoreQuery turns a falsy score into
    1.0; this node is not one, so that rule does not apply. Everything else
    (leaves, term counts, coordination counts) is ConstantScore's."""


def _terms_of(q: Q.Query, searcher, stats: StatsFn) -> list[str]:
    """The indexed terms a multi-term node expands to, in lexicon order."""
    if isinstance(q, Q.FuzzyTerm):
        from whoosh_novo_ray.search.fuzzy import terms_within

        found = terms_within(searcher.index, q.text, q.maxdist, q.prefixlength)
        return [t for t, _d in found]
    if isinstance(q, Q.Variations):
        # reference Variations (query/terms.py:522-569): LiteMorph variants,
        # kept only when indexed
        from whoosh_novo_ray.lang_morph import variations

        cands = sorted(set(variations(q.text)))
        st = stats(cands)
        return [t for t in cands if st[t][0] > 0]
    return searcher.expand(q)


def _expansion(q: Q.Query, terms: list[str], doc_count: int) -> Q.Query:
    if not terms:
        return Q.NULL
    if len(terms) == 1:
        return Q.Term(terms[0], boost=q.boost)
    # Variations has no constantscore: the reference scores it as a plain
    # union (MultiTerm.constantscore defaults False, terms.py:154)
    if getattr(q, "constantscore", False) and multiterm_constant_score(
        len(terms), doc_count
    ):
        return _ConstantUnion(Q.Or(*[Q.Term(t) for t in terms]), score=q.boost)
    return Q.Or(*[Q.Term(t, boost=q.boost) for t in terms])


def rewrite(q: Q.Query, searcher, stats: StatsFn) -> Q.Query:
    """``q`` with every multi-term node replaced by its expansion.

    ``searcher`` is a ``Searcher`` over the lexicon to expand against (its
    ``expand`` scans patterns, its ``index`` gives fuzzy candidates and the
    doc count). ``stats(terms)`` returns ``{term: (df, weight,
    max_weight)}`` for every term given; Variations keeps the variants with
    df > 0. Compound nodes are rebuilt around rewritten children; every
    other node comes back as it is."""

    def walk(node):
        if isinstance(node, MULTITERM):
            return _expansion(
                node, _terms_of(node, searcher, stats), searcher.index.doc_count
            )
        if isinstance(node, Q.Or):
            return Q.Or(
                *[walk(c) for c in node.children],
                scale=getattr(node, "scale", None),
            )
        if isinstance(node, (Q.And, Q.DisMax)):
            return type(node)(*[walk(c) for c in node.children])
        if isinstance(node, (Q.AndNot, Q.Require, Q.AndMaybe, Q.Otherwise)):
            return type(node)(walk(node.a), walk(node.b))
        if isinstance(node, _ConstantUnion):
            return node
        if isinstance(node, Q.ConstantScore):
            return Q.ConstantScore(walk(node.child), score=node.score)
        if isinstance(node, Q.WeightingQuery):
            return Q.WeightingQuery(walk(node.child), node.weighting)
        if isinstance(node, Q.NestedParent):
            return Q.NestedParent(walk(node.parents), walk(node.subq), node.score_fn)
        if isinstance(node, Q.NestedChildren):
            return Q.NestedChildren(walk(node.parents), walk(node.parents_q))
        if isinstance(node, Q.Filtered):
            # allow/restrict may also be results tables or id sets
            return Q.Filtered(
                walk(node.child),
                walk(node.allow) if isinstance(node.allow, Q.Query) else node.allow,
                walk(node.restrict)
                if isinstance(node.restrict, Q.Query)
                else node.restrict,
            )
        if isinstance(node, (Q.Sequence, Q.Ordered)):
            # a sequence scores every matched term plainly, so a multi-term
            # child becomes the unboosted Or of its terms (possibly empty)
            kids = [
                Q.Or(*[Q.Term(t) for t in _terms_of(c, searcher, stats)])
                if isinstance(c, MULTITERM)
                else c
                for c in node.children
            ]
            if isinstance(node, Q.Sequence):
                return Q.Sequence(*kids, slop=node.slop, boost=node.boost)
            return Q.Ordered(*kids, boost=node.boost)
        return node

    return walk(q)
