"""How often the local ``Searcher`` evaluates and fetches, on the 400-page
test index.

* A nested scaled Or evaluates each of its Terms once: the coordination
  model (``_coord_parts``) combines the parts it computed instead of
  evaluating the node again, so Term evaluations grow linearly with the
  nesting depth. Scores are checked against a per-doc brute force of the
  reference's SQR coordination (CoordMatcher, matching/wrappers.py:537-556).
* ``Searcher.search`` fetches a multi-term expansion in one ``term_rows``
  call, and answers as the lazily expanded evaluation does.
"""

import numpy as np
import pytest

from whoosh_novo_ray.search import query as Q

WORDS = ["data", "search", "index", "query", "crawl"]
SCALE = 0.9


def _nested(depth: int) -> Q.Query:
    """Scaled Ors nested ``depth`` deep over ``depth + 1`` distinct Terms."""
    q = Q.Or(Q.Term(WORDS[0]), Q.Term(WORDS[1]), scale=SCALE)
    for d in range(1, depth):
        q = Q.Or(q, Q.Term(WORDS[d + 1]), scale=SCALE)
    return q


def _brute(s, q) -> tuple[dict, int]:
    """``({doc: (score, matching terms)}, termcount)`` one doc at a time."""
    if isinstance(q, Q.Term):
        ids, sc = s.postings(q)
        return {int(d): (float(x), 1) for d, x in zip(ids, sc)}, int(len(ids) > 0)
    kids = [_brute(s, c) for c in q.children]
    tc = sum(k[1] for k in kids)
    out = {}
    for d in sorted(set().union(*[k[0] for k in kids])):
        score = sum(k[0][d][0] for k in kids if d in k[0])
        cnt = sum(k[0][d][1] for k in kids if d in k[0])
        out[d] = ((score + (cnt - 1) / (tc - SCALE) ** 2) * ((tc - 1) / tc), cnt)
    return out, tc


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_nested_scaled_or_evaluates_each_term_once(built_index, monkeypatch, depth):
    from whoosh_novo_ray.search import Searcher

    s = Searcher(built_index)
    q = _nested(depth)
    want, _tc = _brute(s, q)
    assert all(s.term_stats(w)[0] > 0 for w in WORDS[: depth + 1])

    calls = []
    plain = Searcher.postings

    def counting(self, node):
        if isinstance(node, Q.Term):
            calls.append(node.text)
        return plain(self, node)

    monkeypatch.setattr(Searcher, "postings", counting)
    ids, sc = s.postings(q)
    # evaluating each node again after its parts took 2, 5, 11 and 23 Term
    # evaluations for depths 1-4
    assert sorted(calls) == sorted(WORDS[: depth + 1])
    assert ids.tolist() == sorted(want)
    np.testing.assert_allclose(sc, [want[d][0] for d in ids.tolist()], rtol=1e-12)


def test_search_fetches_an_expansion_in_one_batch(built_index, monkeypatch):
    from whoosh_novo_ray.index import Index
    from whoosh_novo_ray.search import Searcher

    q = Q.Prefix("s")
    lazy = Searcher(Index(built_index.path))
    ids, sc = lazy.postings(q)  # expanded when reached, fetched term by term
    order = np.lexsort((ids, -sc))[:10]

    idx = Index(built_index.path)
    calls = []
    fetch = idx.term_rows

    def counting(terms, *a, **k):
        calls.append(list(terms))
        return fetch(terms, *a, **k)

    monkeypatch.setattr(idx, "term_rows", counting)
    s = Searcher(idx)
    got = s.search(q, limit=10).to_pydict()
    assert len(calls) == 1
    assert sorted(calls[0]) == s.expand(q) and len(calls[0]) > 2
    assert got["doc_id"] == ids[order].tolist()
    assert got["score"] == sc[order].tolist()
