"""Query-string parser: differential against the reference QueryParser by
comparing end-to-end search results on the same corpus. The differential
tests take the ``reference_searcher`` fixture, which skips them when the
reference is absent; the rest need only this package."""

import numpy as np
import pytest

from whoosh_novo_ray.search import Searcher
from whoosh_novo_ray.search.qparser import QueryParser, ParseError, NULL


@pytest.fixture(scope="module")
def searcher(built_index, pages_table):
    ids = pages_table["doc_id"].to_numpy().astype(np.uint64)
    return Searcher(built_index, doc_ids=ids)


PARSER = QueryParser()

# queries where scores should be rank-identical
SCORED = [
    "search data",
    "search AND data",
    "search OR data",
    "search OR data OR index",
    "(search OR data) AND index",
    "search ANDNOT data",
    "search^2 OR data",
    "the data",  # 'the' is a stop word and must vanish
    # SingleQuotePlugin (reference default set): quoted text analyzes
    # verbatim — wildcard chars inside quotes are literal, not operators
    "'search data'",
    "'Search'",
    "index 'search data'",
    "'one' OR data",  # quoted single term inside a boolean
    # FieldsPlugin group/phrase propagation: field:(...) and field:"..."
    # (single-field corpus, so the explicit field resolves to the default)
    "text:(search OR data)",
    "text:(search ANDNOT data) OR index",
    'text:"search data" OR index',
]

# queries where we assert the matched DOC SET (scoring semantics differ)
SET_ONLY = [
    '"search data"',
    "se*",
    "s?arch",
    "[sa TO se]",
]


def _ref(reference_searcher, qs, limit):
    from whoosh.qparser import QueryParser as RefQP

    q = RefQP("text", reference_searcher.schema).parse(qs)
    r = reference_searcher.search(q, limit=limit)
    return [(hit["doc_id"], r.score(i)) for i, hit in enumerate(r)]


@pytest.mark.parametrize("qs", SCORED)
def test_scored_parity(searcher, reference_searcher, qs):
    mine_t = searcher.search(PARSER.parse(qs), limit=10)
    mine = list(zip(mine_t["doc_id"].to_pylist(), mine_t["score"].to_pylist()))
    ref = _ref(reference_searcher, qs, 10)
    assert [d for d, _ in mine] == [d for d, _ in ref], qs
    assert [s for _, s in mine] == pytest.approx([s for _, s in ref], rel=1e-9)


@pytest.mark.parametrize("qs", SET_ONLY)
def test_docset_parity(searcher, reference_searcher, qs):
    mine_t = searcher.search(PARSER.parse(qs), limit=None)
    ref = _ref(reference_searcher, qs, None)
    assert sorted(mine_t["doc_id"].to_pylist()) == sorted(d for d, _ in ref), qs


def test_regex_plugin_parity(searcher, reference_searcher):
    """Opt-in RegexPlugin: r"pattern" parses to a Regex query; matched doc
    sets identical to the reference parser with RegexPlugin added."""
    from whoosh.qparser import QueryParser as RefQP
    from whoosh.qparser import plugins as refplugins

    rp = RefQP("text", reference_searcher.schema)
    rp.add_plugin(refplugins.RegexPlugin())
    p = QueryParser(regex_plugin=True)
    for qs in ['r"se.*ch"', 'data r"ind.x"', 'r"tok.n" OR web']:
        ref = reference_searcher.search(rp.parse(qs), limit=None)
        ref_ids = sorted(hit["doc_id"] for hit in ref)
        mine = searcher.search(p.parse(qs), limit=None)
        assert sorted(mine["doc_id"].to_pylist()) == ref_ids, qs


def test_regex_plugin_off_is_default_lexing():
    """With the plugin off (the reference default set), r"..." lexes as the
    word r + a phrase — byte-for-byte the old token stream."""
    p = QueryParser()
    assert repr(p.parse('r"ab cd"')) == repr(p.parse('r "ab cd"'))


def test_not_query(searcher, reference_searcher, pages_table):
    from whoosh_novo_ray.analysis import StandardAnalyzer

    mine_t = searcher.search(PARSER.parse("NOT search"), limit=None)
    ana = StandardAnalyzer()
    expect = sorted(
        int(d)
        for d, t in zip(
            pages_table["doc_id"].to_pylist(), pages_table["text"].to_pylist()
        )
        if "search" not in ana(t)
    )
    assert sorted(mine_t["doc_id"].to_pylist()) == expect


def test_stopword_only_query_is_null(searcher):
    assert PARSER.parse("the of and") is NULL


def test_parse_errors():
    with pytest.raises(ParseError):
        PARSER.parse("(search OR data")


def test_fielded_range_in_group_raises():
    """TermRange has no field: a range under ``field:( ... )`` must fail
    loudly instead of silently searching the default field."""
    from whoosh_novo_ray.search import TermRange

    with pytest.raises(ParseError, match="range"):
        PARSER.parse("f:([a TO b])")
    with pytest.raises(ParseError, match="range"):
        PARSER.parse("f:(x OR {a TO b})")
    # an unfielded range, grouped or not, still parses
    assert PARSER.parse("([a TO b])") == TermRange("a", "b", False, False)
    assert PARSER.parse("x OR [a TO b]") == PARSER.parse("x OR ([a TO b])")


def test_fuzzy_syntax_docset(searcher, reference_searcher):
    """term~N parses to FuzzyTerm; doc-set parity vs the reference with
    FuzzyTermPlugin enabled."""
    from whoosh.qparser import FuzzyTermPlugin
    from whoosh.qparser import QueryParser as RefQP

    rqp = RefQP("text", reference_searcher.schema)
    rqp.add_plugin(FuzzyTermPlugin())
    for qs in ["serch~", "serch~2", "serch~2/2"]:
        rq = rqp.parse(qs)
        rr = reference_searcher.search(rq, limit=None)
        ref_ids = sorted(h["doc_id"] for h in rr)
        mine = searcher.search(PARSER.parse(qs), limit=None)
        assert sorted(mine["doc_id"].to_pylist()) == ref_ids, qs


def test_gtlt_syntax(searcher):
    from whoosh_novo_ray.search import TermRange
    from whoosh_novo_ray.search.qparser import QueryParser

    p = QueryParser()
    assert p.parse("f:>abc") == TermRange("abc", None, True, False)
    assert p.parse("f:>=abc") == TermRange("abc", None, False, False)
    assert p.parse("f:<abc") == TermRange(None, "abc", False, True)
    assert p.parse("f:<=abc") == TermRange(None, "abc", False, False)
    # behaves like the equivalent bracket range end-to-end
    a = searcher.search(p.parse("f:>=sa"), limit=None)
    b = searcher.search(p.parse("[sa TO *]"), limit=None)
    assert a.to_pydict() == b.to_pydict()


def test_plusminus_simple_parse(searcher, reference_searcher):
    """simple_parse mirrors the reference SimpleParser's PlusMinus shape.

    REFERENCE BUG WORKAROUND: whoosh's AndNot matcher can fail to exclude a
    doc that matches the negative clause (e.g. doc 1 here matches both
    'search' and 'data' yet survives AndNot(search, data), with and without
    optimize). The oracle is therefore composed set-wise from the
    reference's SINGLE-TERM results instead of its AndNot matcher."""
    from whoosh.query import Term as WTerm

    def ref_term_ids(t):
        r = reference_searcher.search(WTerm("text", t), limit=None)
        return {h["doc_id"] for h in r}

    cases = {
        "+search data -spam": lambda: ref_term_ids("search") | (
            ref_term_ids("search") & ref_term_ids("data")
        ),
        "search data": lambda: ref_term_ids("search") | ref_term_ids("data"),
        "+search +data": lambda: ref_term_ids("search") & ref_term_ids("data"),
        "search -data": lambda: ref_term_ids("search") - ref_term_ids("data"),
        "-data search index": lambda: (
            ref_term_ids("search") | ref_term_ids("index")
        )
        - ref_term_ids("data"),
    }
    for qs, expect in cases.items():
        mine = searcher.search(PARSER.simple_parse(qs), limit=None)
        assert sorted(mine["doc_id"].to_pylist()) == sorted(expect()), qs


def test_datetime_field_syntax(ray_session):
    import pyarrow as pa
    from datetime import datetime, timezone

    from whoosh_novo_ray.search.qparser import QueryParser

    attrs = pa.table(
        {
            "doc_id": pa.array(range(3), pa.uint64()),
            "ts": pa.array(
                [datetime(2024, 1, 2), datetime(2024, 1, 20), datetime(2024, 2, 2)]
            ),
        }
    )
    base = datetime(2024, 2, 1, 12, 0, tzinfo=timezone.utc)
    p = QueryParser(datetime_fields={"date": (attrs, "ts", base)})
    q = p.parse("date:'jan 5th 2024 to last tuesday'")
    vals = attrs["ts"].to_numpy(zero_copy_only=False)
    assert q.predicate(vals).tolist() == [False, True, False]
    # unregistered field falls back to a term/phrase over the quoted text
    q2 = p.parse("other:'hello world'")
    from whoosh_novo_ray.search import Phrase

    assert isinstance(q2, Phrase)


def test_sequence_in_quotes(searcher, reference_searcher):
    """SequencePlugin: a wildcard inside quotes matches in sequence."""
    from whoosh.qparser import PhrasePlugin, SequencePlugin
    from whoosh.qparser import QueryParser as RefQP

    rqp = RefQP("text", reference_searcher.schema)
    rqp.remove_plugin_class(PhrasePlugin)
    rqp.add_plugin(SequencePlugin())
    for qs in ['"search dat*"', '"se* data"']:
        rr = reference_searcher.search(rqp.parse(qs), limit=None, optimize=False)
        ref_ids = sorted(h["doc_id"] for h in rr)
        mine = searcher.search(PARSER.parse(qs), limit=None)
        assert sorted(mine["doc_id"].to_pylist()) == ref_ids, qs


def test_function_plugin_syntax():
    """Reference FunctionPlugin (#name[args] atom) — experimental syntax:
    the registered fn receives the following atom's query + parsed args."""
    from whoosh_novo_ray.search import query as Q
    from whoosh_novo_ray.search.qparser import QueryParser

    def boostfn(qs, factor="2"):
        return Q.ConstantScore(qs[0], score=float(factor))

    p = QueryParser(functions={"boost": boostfn})
    q = p.parse("#boost[3] search data")
    assert isinstance(q, Q.And)
    assert isinstance(q.children[0], Q.ConstantScore)
    assert q.children[0].score == 3.0
    # kwargs form
    q2 = p.parse("#boost[factor=5] search")
    assert q2.score == 5.0
    # unregistered names fall through to plain word parsing
    q3 = p.parse("#unknown search")
    assert [t for t in q3.terms()] == ["unknown", "search"]


def _gen_qstring(rng, vocab, bigrams, depth):
    """Random well-formed query string over corpus vocabulary."""

    def leaf():
        k = int(rng.integers(0, 10))
        w = vocab[int(rng.integers(len(vocab)))]
        if k < 5:
            return w
        if k == 5:
            return f"{w}^{rng.choice([0.5, 2.0, 3.0])}"
        if k == 6:
            return w[: max(1, len(w) // 2)] + "*"
        if k in (7, 8):
            a, b = bigrams[int(rng.integers(len(bigrams)))]
            sl = int(rng.integers(1, 3))
            return f'"{a} {b}"' if sl == 1 else f'"{a} {b}"~{sl}'
        return w[: max(1, len(w) - 2)] + "?" + (w[-1] if len(w) > 1 else "")

    # NOT / ANDNOT are excluded on purpose: the reference's AndNot matcher
    # fails to exclude some negative-clause matches (its own bug — see
    # test_search_differential.py); NOT parity is pinned against ground
    # truth in test_not_query instead.
    if depth <= 0 or rng.random() < 0.4:
        return leaf()
    op = rng.choice([" AND ", " OR ", " "])
    n = int(rng.integers(2, 4))
    parts = [_gen_qstring(rng, vocab, bigrams, depth - 1) for _ in range(n)]
    return "(" + op.join(parts) + ")"


def test_qstring_fuzz(searcher, reference_searcher, pages_table):
    """Random query STRINGS through both parsers; top-k rank+score identical.

    The reference side searches with optimize=False (its quality-pruning
    matchers crash/mis-score on some nested shapes — see
    test_search_differential.py) and both engines' parse trees are exercised
    end-to-end rather than compared structurally."""
    from whoosh.qparser import QueryParser as RefQP

    from collections import Counter

    words = set()
    counts = Counter()
    for t in pages_table["text"].to_pylist()[:200]:
        ws = t.lower().split()
        words.update(w for w in ws if w.isalpha() and len(w) > 2)
        counts.update(zip(ws, ws[1:]))
    vocab = sorted(words)
    bigrams = [list(k) for k, _ in counts.most_common(30)]
    rqp = RefQP("text", reference_searcher.schema)

    rng = np.random.default_rng(20260818)
    checked = nonempty = 0
    for i in range(120):
        qs = _gen_qstring(rng, vocab, bigrams, 2)
        mine_q = PARSER.parse(qs)
        ref_q = rqp.parse(qs)
        limit = int(rng.choice([1, 10, 50]))
        r = reference_searcher.search(ref_q, limit=limit, optimize=False)
        ref = [(hit["doc_id"], r.score(j)) for j, hit in enumerate(r)]
        t = searcher.search(mine_q, limit=limit)
        mine = list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))
        assert [d for d, _ in mine] == [d for d, _ in ref], (
            f"#{i} doc mismatch: {qs!r}\n mine={mine_q!r}\n ref={ref_q!r}"
        )
        assert [s for _, s in mine] == pytest.approx(
            [s for _, s in ref], rel=1e-9
        ), f"#{i} score mismatch: {qs!r}"
        checked += 1
        nonempty += bool(ref)
    assert checked == 120 and nonempty > 50
