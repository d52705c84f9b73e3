"""Fuzzy term search, spelling suggestions, key-term expansion models."""

import math

import numpy as np
import pytest

from tests.conftest import HAVE_REFERENCE
from whoosh_novo_ray.search import Searcher, Term
from whoosh_novo_ray.search.classify import (
    Bo1Model,
    Bo2Model,
    KLModel,
    key_terms_from_text,
    more_like,
)
from whoosh_novo_ray.search.fuzzy import (
    FuzzyTerm,
    edit_distance,
    suggest,
    terms_within,
)


def test_edit_distance():
    assert edit_distance("kitten", "sitting", 3) == 3
    assert edit_distance("abc", "abc", 1) == 0
    assert edit_distance("abc", "abd", 1) == 1
    assert edit_distance("abc", "xyz", 2) is None
    assert edit_distance("abc", "ab", 1) == 1
    assert edit_distance("a", "abcd", 2) is None


def test_terms_within(built_index):
    # "searc" within 1 edit of "search"
    got = dict(terms_within(built_index, "searc", maxdist=1))
    assert "search" in got and got["search"] == 1


def test_fuzzy_search_matches_term(built_index):
    s = Searcher(built_index)
    exact_ids, exact_scores = s.postings(Term("search"))
    # single-term expansion -> scored exactly like the plain Term (reference
    # MultiTerm.matcher single-expansion path)
    fz_ids, fz_scores = s.postings(FuzzyTerm("searhc", maxdist=2, prefixlength=4))
    assert fz_ids.tolist() == exact_ids.tolist()
    assert fz_scores.tolist() == exact_scores.tolist()
    # >2 expansions on a small (<=5000-doc) corpus -> the reference's Or
    # heuristic picks the array matcher, which honors constantscore
    # (plan.multiterm_constant_score); 2 expansions or a big corpus
    # would score BM25 — covered by tests/test_query_fuzz.py
    expansion = [t for t, _ in terms_within(built_index, "page", maxdist=2)]
    assert len(expansion) > 2  # e.g. page/pages/long-tail neighbors
    fz2_ids, fz2_scores = s.postings(FuzzyTerm("page", maxdist=2, prefixlength=0))
    assert set(fz2_scores.tolist()) == {1.0}
    union = set()
    for t in expansion:
        union |= set(s.postings(Term(t))[0].tolist())
    assert set(fz2_ids.tolist()) == union


@pytest.mark.skipif(not HAVE_REFERENCE, reason="reference not available")
def test_fuzzy_docset_parity(built_index, reference_searcher):
    from whoosh import query as wq

    s = Searcher(built_index)
    mine = s.search(FuzzyTerm("searh", maxdist=1, prefixlength=1), limit=None)
    r = reference_searcher.search(
        wq.FuzzyTerm("text", "searh", maxdist=1, prefixlength=1), limit=None
    )
    assert sorted(mine["doc_id"].to_pylist()) == sorted(h["doc_id"] for h in r)


def test_suggest(built_index):
    sugs = suggest(built_index, "serch", limit=3, maxdist=2)
    assert "search" in sugs


@pytest.mark.skipif(not HAVE_REFERENCE, reason="reference not available")
def test_expansion_model_formula_parity():
    import whoosh.classify as wc

    for mine_cls, ref_cls in [
        (Bo1Model, wc.Bo1Model),
        (Bo2Model, wc.Bo2Model),
        (KLModel, wc.KLModel),
    ]:
        m, r = mine_cls(1000, 50000.0), ref_cls(1000, 50000.0)
        for wit, wic, tt in [(3, 40, 120), (1, 1, 10), (7, 300, 500)]:
            assert m.score(wit, wic, tt) == pytest.approx(r.score(wit, wic, tt))
        assert m.normalizer(12.0, 120.0) == pytest.approx(r.normalizer(12.0, 120.0))


def test_key_terms_and_more_like(built_index, pages_table):
    s = Searcher(built_index)
    text = pages_table["text"][0].as_py()
    kt = key_terms_from_text(s, [text], numterms=5)
    assert 1 <= len(kt) <= 5
    assert all(isinstance(t, str) and sc > 0 for t, sc in kt)
    # normalized: top score == 1-ish scale (<= ~1)
    r = more_like(s, text, numterms=5, limit=10)
    assert len(r) > 0
    # the source document itself should be among the most similar
    assert 0 in r["doc_id"].to_pylist()


@pytest.mark.skipif(not HAVE_REFERENCE, reason="reference not available")
def test_neardup_utils_differential():
    """shingles / simhash / hamming / kmeans utils (reference
    classify.py:208-330)."""
    import random

    from whoosh.classify import hamming_distance as rham
    from whoosh.classify import kmeans as rkm
    from whoosh.classify import shingles as rsh
    from whoosh.classify import simhash as rsim

    from whoosh_novo_ray.search.classify import (
        feature_simhash,
        hamming_distance,
        kmeans_1d,
        token_shingles,
    )

    rng = random.Random(4)
    for _ in range(400):
        s = "".join(rng.choices("abcdef ", k=rng.randrange(0, 20)))
        size = rng.randrange(1, 4)
        assert sorted(token_shingles(s, size)) == sorted(rsh(s, size)), (s, size)
    for _ in range(200):
        feats = [
            (
                "".join(rng.choices("abcxyz", k=rng.randrange(0, 6))),
                rng.randrange(-3, 8),
            )
            for _ in range(rng.randrange(0, 12))
        ]
        for hb in (32, 24, 16):
            assert feature_simhash(feats, hb) == rsim(feats, hb)
    for _ in range(200):
        a, b = rng.randrange(0, 2**40), rng.randrange(0, 2**40)
        hb = rng.choice([16, 32, 40])
        assert hamming_distance(a, b, hb) == rham(a, b, hb)
    for _ in range(60):
        data = [rng.uniform(-5, 5) for _ in range(rng.randrange(6, 40))]
        k = rng.randrange(1, 5)
        centers = rng.sample(data, k)
        ml, mc = kmeans_1d(data, k, centers=list(centers))
        rl, rc = rkm(list(data), k, centers=list(centers))
        assert ml == rl and mc == pytest.approx(rc)


def test_suggest_matches_reference_corrector(built_index, reference_searcher, pages_table):
    """ReaderCorrector parity incl. the heap-boundary tie rule: among
    equal-frequency candidates at the limit cutoff the reference keeps the
    alphabetically LATER string (its heap compares (score, sug) tuples,
    spelling.py:64-73); presentation order is (freq desc, alpha asc)."""
    import numpy as np

    corr = reference_searcher.corrector("text")
    words = sorted(
        {
            w
            for t in pages_table["text"].to_pylist()[:100]
            for w in t.lower().split()
            if w.isalpha() and len(w) > 3
        }
    )
    rng = np.random.default_rng(99)
    checked = 0
    for w in rng.choice(words, size=25, replace=False):
        for mut in (w[:-1], w[1:] + w[0]):
            for maxdist, prefix, limit in ((1, 0, 5), (2, 0, 5), (2, 1, 3), (2, 0, 40)):
                ref = corr.suggest(mut, limit=limit, maxdist=maxdist, prefix=prefix)
                mine = suggest(built_index, mut, limit=limit, maxdist=maxdist, prefix=prefix)
                assert mine == ref, (mut, maxdist, prefix, limit)
                checked += 1
    assert checked == 200


def test_key_terms_from_text_matches_reference(built_index, reference_searcher, pages_table):
    """Bo1/Bo2/KL expansion models byte-match the reference's
    key_terms_from_text (term order and normalized scores)."""
    import whoosh.classify as wc

    s = Searcher(built_index)
    texts = pages_table["text"].to_pylist()
    models = {"bo1": wc.Bo1Model, "bo2": wc.Bo2Model, "kl": wc.KLModel}
    for name, mcls in models.items():
        for doc in (0, 7, 42, 113):
            ref = [
                (t, round(sc, 9))
                for t, sc in reference_searcher.key_terms_from_text(
                    "text", texts[doc], numterms=8, model=mcls
                )
            ]
            mine = [
                (t, round(sc, 9))
                for t, sc in key_terms_from_text(s, [texts[doc]], numterms=8, model=name)
            ]
            assert mine == ref, (name, doc)
