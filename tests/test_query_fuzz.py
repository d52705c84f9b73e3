"""Randomized differential query-tree fuzz: N random boolean/expansion trees
built simultaneously for our engine and the reference whoosh, compared for
rank identity (top-k doc ids exact, scores ~1e-9) over the shared corpus.

The hand-picked cases in tests/test_search_differential.py pin the known
tricky spots; this fuzz sweeps the combinatorial space around them. The
oracle runs with ``optimize=False`` everywhere: the reference's
quality-pruning matchers have documented bugs on some nested shapes
(RequireMatcher assertion, DisjunctionMaxMatcher mis-score — see the notes
in test_search_differential.py) while the unoptimized path scores every
match; returned scores are identical between the two reference paths.

Node types fuzzed: Term (with random boost), Prefix, Wildcard, TermRange,
FuzzyTerm, Regex (anchored / substring / top-level alternation), Phrase
(corpus bigrams, slop 1-2) leaves; And / Or / Or(scale=) / AndMaybe /
Require compounds. Excluded on purpose: AndNot
(reference matcher fails to exclude some docs — its own bug) and DisMax
(reference matcher broken), both oracled set-wise elsewhere.

Two checks here need no reference: the pool fuzz (ScorePool vs the local
Searcher) and a pinned snapshot of the local answers. Both also draw leaf
kinds the reference oracle does not cover here: Variations, expansions
boosted by 0.0 or 2.5, and Filtered wrappers.
"""

import json
import os

import numpy as np
import pytest

from tests.conftest import HAVE_REFERENCE
from whoosh_novo_ray.search import (
    And,
    AndMaybe,
    Or,
    Prefix,
    Phrase,
    Regex,
    Require,
    Searcher,
    Term,
    TermRange,
    Variations,
    Wildcard,
)
from whoosh_novo_ray.search import query as Q

needs_reference = pytest.mark.skipif(
    not HAVE_REFERENCE, reason="reference not available"
)

N_TREES = int(os.environ.get("GRAFT_FUZZ_TREES", "200"))
MAX_DEPTH = 3
# default one seed; sweep with GRAFT_FUZZ_SEEDS="121-160" (inclusive range)
# or a comma list — fixtures build once, each seed adds N_TREES fresh trees
_spec = os.environ.get("GRAFT_FUZZ_SEEDS", "20260817")
if "-" in _spec and "," not in _spec:
    _a, _b = _spec.split("-")
    SEEDS = list(range(int(_a), int(_b) + 1))
else:
    SEEDS = [int(x) for x in _spec.split(",")]


@pytest.fixture(scope="module")
def searcher(built_index):
    return Searcher(built_index)


@pytest.fixture(scope="module")
def vocab(pages_table):
    """Corpus words (plus a few guaranteed-absent ones) to build leaves from."""
    words = set()
    for t in pages_table["text"].to_pylist()[:200]:
        words.update(w for w in t.lower().split() if w.isalpha())
    out = sorted(words)
    out += ["zzzznope", "qqqabsent"]  # df=0 paths
    return out


@pytest.fixture(scope="module")
def bigrams(pages_table):
    """Frequent corpus bigrams so fuzzed Phrase leaves actually match docs."""
    from collections import Counter

    counts = Counter()
    for t in pages_table["text"].to_pylist()[:200]:
        ws = t.lower().split()
        counts.update(zip(ws, ws[1:]))
    return [list(k) for k, _ in counts.most_common(40)]


def _twin(make):
    """The reference twin of a generated node (``make(whoosh.query)``), or
    None when the reference is absent. The caller draws every random value
    before this, so a seed builds the same tree with or without it."""
    if not HAVE_REFERENCE:
        return None
    from whoosh import query as wq

    return make(wq)


def _gen_extra_leaf(rng, w):
    """Leaf kinds with no reference oracle here: Variations, and expansions
    boosted by 0.0 or 2.5. None falls through to the oracled kinds."""
    from whoosh_novo_ray.search.fuzzy import FuzzyTerm

    x = int(rng.integers(0, 6))
    if x == 0:
        return Variations(w)
    if x > 1:
        return None
    boost = float(rng.choice([0.0, 2.5]))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Prefix(w[: max(1, int(rng.integers(1, 4)))], boost=boost)
    if kind == 1:
        return Wildcard(w[:2] + "*", boost=boost)
    return FuzzyTerm(w, maxdist=int(rng.integers(1, 3)), prefixlength=0, boost=boost)


def _gen_leaf(rng, vocab, bigrams=(), extra=False):
    """One random leaf and its reference twin. ``extra`` adds the
    reference-free kinds of :func:`_gen_extra_leaf` (their twin is None)."""
    from whoosh_novo_ray.search.fuzzy import FuzzyTerm

    w = vocab[int(rng.integers(len(vocab)))]
    if extra:
        leaf = _gen_extra_leaf(rng, w)
        if leaf is not None:
            return leaf, None
    k = int(rng.integers(0, 13 if bigrams else 11))
    if k == 11:
        words = list(bigrams[int(rng.integers(len(bigrams)))])
        slop = int(rng.integers(1, 3))
        return (
            Phrase(words, slop=slop),
            _twin(lambda wq: wq.Phrase("text", words, slop=slop)),
        )
    if k == 12:
        a = vocab[int(rng.integers(len(vocab)))]
        shape = int(rng.integers(0, 4))
        if shape == 0:
            pat = f"^{w[:2]}.*"  # anchored prefix -> term-range pruning path
        elif shape == 1:
            pat = f"{w[:3]}"  # unanchored substring
        elif shape == 2:
            pat = f"^{w[:2]}|{a[:2]}"  # top-level alternation: NO prefix prune
        else:
            pat = f"^{w[:1]}.{w[2:3]}" if len(w) > 2 else f"^{w}.*"
        return Regex(pat), _twin(lambda wq: wq.Regex("text", pat))
    if k < 6:
        boost = float(rng.choice([1.0, 1.0, 0.5, 2.0, 3.5]))
        return Term(w, boost=boost), _twin(lambda wq: wq.Term("text", w, boost=boost))
    if k == 6:
        p = w[: max(1, int(rng.integers(1, 4)))]
        return Prefix(p), _twin(lambda wq: wq.Prefix("text", p))
    if k == 7:
        a = vocab[int(rng.integers(len(vocab)))]
        lo, hi = sorted([w, a])
        return TermRange(lo, hi), _twin(lambda wq: wq.TermRange("text", lo, hi))
    if k == 8:
        d = int(rng.integers(1, 3))
        # clamp: the REFERENCE crashes (IndexError in
        # automata/lev.py:levenshtein_automaton, term[i] with i >= len) when
        # prefixlength exceeds the word length — found by seeds 135/137 on
        # one-letter vocab words; our terms_within slices gracefully, so the
        # shape has no oracle
        pl = min(int(rng.integers(0, 3)), len(w))
        return (
            FuzzyTerm(w, maxdist=d, prefixlength=pl),
            _twin(lambda wq: wq.FuzzyTerm("text", w, maxdist=d, prefixlength=pl)),
        )
    pat = w[:2] + "*" + w[-1:] if len(w) > 3 else w + "*"
    return Wildcard(pat), _twin(lambda wq: wq.Wildcard("text", pat))


def _gen_tree(rng, vocab, depth, bigrams=(), extra=False):
    """A random tree and its reference twin. ``extra`` adds the
    reference-free leaf kinds and a ``Filtered`` wrapper (twin None)."""
    if depth <= 0 or rng.random() < 0.35:
        return _gen_leaf(rng, vocab, bigrams, extra)
    if extra and rng.random() < 0.15:
        child, _ = _gen_tree(rng, vocab, depth - 1, bigrams, extra)
        side, _ = _gen_tree(rng, vocab, depth - 1, bigrams, extra)
        if rng.random() < 0.5:
            return Q.Filtered(child, side), None
        return Q.Filtered(child, None, side), None
    op = int(rng.integers(0, 4))
    if op in (0, 1):  # Or / And with 2-4 children
        k = int(rng.integers(2, 5))
        pairs = [_gen_tree(rng, vocab, depth - 1, bigrams, extra) for _ in range(k)]
        mine, ref = [p[0] for p in pairs], [p[1] for p in pairs]
        if op == 0:
            if rng.random() < 0.15:  # coordination-bonus variant
                sc = float(rng.choice([0.5, 0.9]))
                return Or(*mine, scale=sc), _twin(lambda wq: wq.Or(ref, scale=sc))
            return Or(*mine), _twin(lambda wq: wq.Or(ref))
        return And(*mine), _twin(lambda wq: wq.And(ref))
    a_m, a_r = _gen_tree(rng, vocab, depth - 1, bigrams, extra)
    b_m, b_r = _gen_tree(rng, vocab, depth - 1, bigrams, extra)
    if op == 2:
        return AndMaybe(a_m, b_m), _twin(lambda wq: wq.AndMaybe(a_r, b_r))
    return Require(a_m, b_m), _twin(lambda wq: wq.Require(a_r, b_r))


def _ref_search(reference_searcher, ref_q, limit):
    """Reference top-k with matcher replacement DISABLED (replace=0).

    The reference's periodic ``matcher.replace()`` (every 10 collected docs,
    plus whenever the heap's minscore moves — collectors.py:390-402) prunes
    exhausted/dead branches, and CoordMatcher._replacement then RECOMPUTES
    its termcount from the pruned tree (matching/wrappers.py:532-534). So an
    ``Or(scale=)`` query's scores depend on the collection cadence: the same
    doc scores differently at limit=10 vs limit=400. ``replace=0`` freezes
    the built tree, giving the one cadence-free answer — identical to the
    default path for every non-scaled query (replacement is score-neutral
    there) and the only self-consistent semantics for scaled Or."""
    from whoosh.collectors import TopCollector

    c = TopCollector(limit=limit, usequality=False, replace=0)
    reference_searcher.search_with_collector(ref_q, c)
    return c.results()


def _andmaybe_under_compound(q, inside=False) -> bool:
    """True when an AndMaybe sits under And/Require/Sequence (or another
    AndMaybe's side): there the reference's AndMaybeMatcher.skip_to drops
    the maybe bonus when the required side overshoots the skip target
    (matching/binary.py:713-721 — its own bug, pinned in
    test_search_differential.test_reference_andmaybe_skipto_bug_documented),
    so scores are only doc-set-comparable."""
    t = type(q).__name__
    if t == "AndMaybe" and inside:
        return True
    if hasattr(q, "children"):
        kids = list(q.children)
    elif hasattr(q, "a"):
        kids = [q.a, q.b]
    elif hasattr(q, "child"):
        kids = [q.child]
    else:
        kids = []
    nested = inside or t in ("And", "Require", "Sequence", "Ordered")
    return any(_andmaybe_under_compound(c, nested) for c in kids)


@needs_reference
@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_query_trees(searcher, reference_searcher, vocab, bigrams, seed):
    rng = np.random.default_rng(seed)
    checked = nonempty = setwise = 0
    for i in range(N_TREES):
        mine_q, ref_q = _gen_tree(rng, vocab, MAX_DEPTH, bigrams)
        limit = int(rng.choice([1, 10, 50]))
        if _andmaybe_under_compound(mine_q):
            # reference skip_to bug territory: compare the full doc SET
            r = _ref_search(reference_searcher, ref_q, 10**9)
            ref_ids = sorted(hit["doc_id"] for hit in r)
            t = searcher.search(mine_q, limit=None).to_pydict()
            assert sorted(t["doc_id"]) == ref_ids, f"tree #{i} set: {mine_q!r}"
            setwise += 1
            checked += 1
            nonempty += bool(ref_ids)
            continue
        r = _ref_search(reference_searcher, ref_q, limit)
        ref = [(hit["doc_id"], r.score(j)) for j, hit in enumerate(r)]
        t = searcher.search(mine_q, limit=limit).to_pydict()
        mine = list(zip(t["doc_id"], t["score"]))
        assert [d for d, _ in mine] == [d for d, _ in ref], (
            f"tree #{i} doc-id mismatch: {mine_q!r}"
        )
        assert [s for _, s in mine] == pytest.approx(
            [s for _, s in ref], rel=1e-9
        ), f"tree #{i} score mismatch: {mine_q!r}"
        checked += 1
        nonempty += bool(ref)
    # the sweep must exercise real matches, not degenerate empties, and a
    # strict majority of trees must be FULLY score-compared (the AndMaybe-
    # under-compound set-only carve-out fluctuates by seed — 40-seed sweeps
    # saw up to ~36% — but may never become the bulk of the sweep)
    assert checked == N_TREES and nonempty > N_TREES // 2
    assert checked - setwise > N_TREES // 2


@needs_reference
def test_multiterm_bm25_on_big_corpus(ray_session, tmp_path):
    """The dc>5000 arm of multiterm_constant_score: 3..1023 expansions on a
    >5000-doc corpus take the reference's binary-tree Or matcher, whose Term
    matchers silently restore BM25 (searching.py:299) — so the prefix scores
    for REAL despite constantscore=True. Differentially verified here; the
    small-corpus constant arm is covered by the 400-doc suites."""
    import ray.data
    from whoosh import index as windex
    from whoosh import query as wq
    from whoosh.fields import NUMERIC, TEXT, Schema

    from whoosh_novo_ray.index import Index, IndexConfig, build_index
    from whoosh_novo_ray.testing.pages import synth_pages

    tbl = synth_pages(n=5200, seed=11)
    out = str(tmp_path / "bigidx")
    build_index(
        ray.data.from_arrow(tbl.select(["doc_id", "text"])),
        out,
        IndexConfig(num_buckets=4),
        lineage="fuzz-big",
    )
    mine_s = Searcher(Index(out))
    assert mine_s.index.doc_count > 5000

    wdir = str(tmp_path / "whooshbig")
    import os

    os.makedirs(wdir)
    ix = windex.create_in(
        wdir, Schema(doc_id=NUMERIC(stored=True, bits=64), text=TEXT)
    )
    w = ix.writer(limitmb=256)
    for r in tbl.select(["doc_id", "text"]).to_pylist():
        w.add_document(doc_id=r["doc_id"], text=r["text"])
    w.commit()
    ws = ix.searcher()

    # find a prefix with 3..1023 expansions in the shared lexicon
    lex = sorted({t for t in ws.reader().field_terms("text")})
    prefix = None
    for p in (t[:2] for t in lex):
        k = sum(t.startswith(p) for t in lex)
        if 3 <= k < 1024:
            prefix = p
            break
    assert prefix is not None

    r = ws.search(wq.Prefix("text", prefix), limit=20)
    ref = [(h["doc_id"], r.score(j)) for j, h in enumerate(r)]
    t = mine_s.search(Prefix(prefix), limit=20).to_pydict()
    mine = list(zip(t["doc_id"], t["score"]))
    assert [d for d, _ in mine] == [d for d, _ in ref]
    assert [s for _, s in mine] == pytest.approx([s for _, s in ref], rel=1e-9)
    # sanity: these must NOT be constant scores
    assert len({round(s, 4) for _, s in ref}) > 1


# top-10 ids and scores of the local Searcher over SNAPSHOT_TREES trees drawn
# from SNAPSHOT_SEED (depth MAX_DEPTH, extra leaf kinds on), recorded before
# multi-term expansion moved into search/plan.py
SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "local_fuzz_top10.json")
SNAPSHOT_SEED = 20261018
SNAPSHOT_TREES = 200


def snapshot_trees(vocab, bigrams) -> list:
    rng = np.random.default_rng(SNAPSHOT_SEED)
    return [
        _gen_tree(rng, vocab, MAX_DEPTH, bigrams, extra=True)[0]
        for _ in range(SNAPSHOT_TREES)
    ]


def test_local_matches_snapshot(searcher, vocab, bigrams):
    """A reference-free rank-identity check: the local Searcher still gives
    the pinned answers, ids equal and scores to 1e-12."""
    with open(SNAPSHOT) as f:
        want = json.load(f)
    trees = snapshot_trees(vocab, bigrams)
    assert len(want) == len(trees)
    for i, (q, w) in enumerate(zip(trees, want)):
        got = searcher.search(q, limit=10).to_pydict()
        assert got["doc_id"] == w["doc_id"], f"tree #{i}: {q!r}"
        assert got["score"] == pytest.approx(w["score"], rel=1e-12), (
            f"tree #{i}: {q!r}"
        )


def test_pool_fuzz_matches_local(ray_session, built_index, pages_table, vocab, bigrams):
    """The same random trees through the distributed ScorePool must equal the
    local Searcher bit-for-bit — exercises the pool's query-rewrite path
    (global-lexicon expansion + the constant-score rule) on arbitrary
    nesting, not just the hand-picked parity cases in test_score_pool.py."""
    from whoosh_novo_ray.state.score_pool import ScorePool

    local = Searcher(built_index)
    pool = ScorePool(built_index.path, num_actors=2, num_shards=5)
    try:
        rng = np.random.default_rng(SEEDS[0] + 1)
        for i in range(60):
            q, _ = _gen_tree(rng, vocab, 2, bigrams, extra=True)
            limit = int(rng.choice([1, 10, 50]))
            a = local.search(q, limit=limit).to_pydict()
            b = pool.search(q, limit=limit).to_pydict()
            # strip the score-0 tail: the array-path Or's keep-initial-
            # position-at-score-0 quirk is global-min-relative, which doc
            # shards can't reproduce (see ShardSearcher docstring)
            am = [(d, s) for d, s in zip(a["doc_id"], a["score"]) if s > 0]
            bm = [(d, s) for d, s in zip(b["doc_id"], b["score"]) if s > 0]
            assert [d for d, _ in am] == [d for d, _ in bm], f"pool tree #{i}: {q!r}"
            assert [s for _, s in am] == pytest.approx(
                [s for _, s in bm], rel=1e-12
            ), f"pool tree #{i}: {q!r}"
    finally:
        pool.shutdown()


def test_pruned_pool_fuzz_matches_local(
    ray_session, built_index, vocab, bigrams, monkeypatch
):
    """The pool's random trees again, on 4 shards: 4 divides 64, so each
    query goes only to the actors whose shards its terms' ``doc_slots``
    reach. The answers must not change, and some queries must skip an
    actor (the pruning is exercised, not just allowed)."""
    import whoosh_novo_ray.state.score_pool as sp

    calls = []
    real = sp._fan_out

    def spy(actors, op, *args, **kwargs):
        calls.append(len(actors))
        return real(actors, op, *args, **kwargs)

    monkeypatch.setattr(sp, "_fan_out", spy)
    local = Searcher(built_index)
    pool = sp.ScorePool(built_index.path, num_actors=2, num_shards=4)
    try:
        rng = np.random.default_rng(SEEDS[0] + 2)
        for i in range(60):
            q, _ = _gen_tree(rng, vocab, 2, bigrams, extra=True)
            limit = int(rng.choice([1, 10, 50]))
            a = local.search(q, limit=limit).to_pydict()
            b = pool.search(q, limit=limit).to_pydict()
            # the score-0 tail differs by design (see test_pool_fuzz_matches_local)
            am = [(d, s) for d, s in zip(a["doc_id"], a["score"]) if s > 0]
            bm = [(d, s) for d, s in zip(b["doc_id"], b["score"]) if s > 0]
            assert [d for d, _ in am] == [d for d, _ in bm], f"pool tree #{i}: {q!r}"
            assert [s for _, s in am] == pytest.approx(
                [s for _, s in bm], rel=1e-12
            ), f"pool tree #{i}: {q!r}"
    finally:
        pool.shutdown()
    assert min(calls) < 2
