"""Indexable ShingleFilter/BiWordFilter and ReverseTextFilter: the analyzer
options `shingle=` / `reverse_text=` (reference analysis/intraword.py:181 and
analysis/filters.py:314-325 as terminal chain steps) must agree between the
single-doc path and the vectorized batch path, compose with stop/stem/boost,
and round-trip through the index manifest."""

import numpy as np

from whoosh_novo_ray.analysis import (
    StandardAnalyzer,
    reverse_text_tokens,
    shingle_tokens,
)

TEXTS = [
    "the quick query table window",
    "query table",
    "a",
    "",
    "table query table query",
    "one-token",
]


def _batch_tokens(ana, texts):
    b = ana.analyze_batch(texts)
    return [list(b.tokens[b.doc_idx == i]) for i in range(len(texts))]


def test_shingle_single_vs_batch_vs_function():
    for size, sep in ((2, "-"), (3, "_")):
        ana = StandardAnalyzer(shingle=size, shingle_sep=sep)
        base = StandardAnalyzer()
        got = _batch_tokens(ana, TEXTS)
        for i, t in enumerate(TEXTS):
            want = shingle_tokens(base(t), size, sep)
            assert ana(t) == want
            assert got[i] == want


def test_reverse_single_vs_batch_vs_function():
    ana = StandardAnalyzer(reverse_text=True)
    base = StandardAnalyzer()
    got = _batch_tokens(ana, TEXTS)
    for i, t in enumerate(TEXTS):
        want = reverse_text_tokens(base(t))
        assert ana(t) == want
        assert got[i] == want


def test_reverse_then_shingle_composition():
    ana = StandardAnalyzer(reverse_text=True, shingle=2)
    base = StandardAnalyzer()
    got = _batch_tokens(ana, TEXTS)
    for i, t in enumerate(TEXTS):
        want = shingle_tokens(reverse_text_tokens(base(t)), 2, "-")
        assert ana(t) == want
        assert got[i] == want


def test_stem_then_shingle():
    ana = StandardAnalyzer(stem=True, shingle=2)
    assert ana("query table") == ["queri-tabl"]
    assert _batch_tokens(ana, ["query table"])[0] == ["queri-tabl"]


def test_shingle_positions_and_lengths():
    """Shingle carries the FIRST component's renumbered position; dl is the
    shingle count (stop-filtered doc 'the quick query table window' keeps 4
    tokens at renumbered positions 1..4 -> 3 bigrams at positions 1..3)."""
    ana = StandardAnalyzer(shingle=2)
    b = ana.analyze_batch(TEXTS)
    assert list(b.pos[b.doc_idx == 0]) == [1, 2, 3]
    assert list(b.field_lengths) == [3, 1, 0, 0, 3, 1]


def test_shingle_char_spans_cover_window():
    ana = StandardAnalyzer(shingle=2)
    t = "the quick query table window"
    di, codes, uniq, pos, fl, sc, ec = ana.analyze_batch_coded([t], with_chars=True)
    surf = [t[s:e] for s, e in zip(sc, ec)]
    assert surf == ["quick query", "query table", "table window"]


def test_shingle_boost_is_first_components():
    ana = StandardAnalyzer(
        pattern=r"\S+", boost_delim="^", shingle=2, stoplist=None, minsize=1
    )
    out = ana.analyze_batch_coded(["query^2.0 table window"])
    di, codes, uniq, pos, fl, boosts = out
    assert [uniq[c] for c in codes] == ["query-table", "table-window"]
    assert list(boosts) == [2.0, 1.0]


def test_short_stream_emits_one_joined_token():
    """A stream of 1..k-1 surviving tokens gives ONE token joining all of
    it (the reference ShingleFilter flushes its partial buffer), at the
    first token's position and boost, spanning first start .. last end."""
    assert shingle_tokens([], 2) == []
    assert shingle_tokens(["query"], 2) == ["query"]
    assert shingle_tokens(["query", "table"], 3, "_") == ["query_table"]
    texts = ["the query", "the query table", "query table window", "the"]
    ana = StandardAnalyzer(shingle=3, shingle_sep="_")
    want = [["query"], ["query_table"], ["query_table_window"], []]
    assert [ana(t) for t in texts] == want
    assert _batch_tokens(ana, texts) == want
    di, codes, uniq, pos, fl, sc, ec = ana.analyze_batch_coded(texts, with_chars=True)
    assert list(di) == [0, 1, 2]
    assert list(pos) == [1, 1, 0]
    assert list(fl) == [1, 1, 1, 0]
    assert [texts[d][s:e] for d, s, e in zip(di, sc, ec)] == [
        "query", "query table", "query table window",
    ]
    ana = StandardAnalyzer(
        pattern=r"\S+", boost_delim="^", shingle=3, stoplist=None, minsize=1
    )
    di, codes, uniq, pos, fl, boosts = ana.analyze_batch_coded(
        ["query^2.0", "query^3.0 table", "query table^4.0 window"]
    )
    assert [uniq[c] for c in codes] == ["query", "query-table", "query-table-window"]
    assert list(boosts) == [2.0, 3.0, 1.0]


def test_manifest_roundtrip():
    from whoosh_novo_ray.index.build import IndexConfig

    for ana in (
        StandardAnalyzer(shingle=2),
        StandardAnalyzer(shingle=3, shingle_sep="_"),
        StandardAnalyzer(reverse_text=True),
        StandardAnalyzer(reverse_text=True, shingle=2, stem=True),
    ):
        back = IndexConfig.from_json(IndexConfig(analyzer=ana).to_json())
        assert back.analyzer == ana


def test_compat_schema_roundtrip():
    """The facade's schema JSON (survives open_dir in a fresh process) also
    carries the new analyzer options."""
    from whoosh_novo_ray.analysis import analyzer_from_json, analyzer_to_json

    for ana in (
        StandardAnalyzer(shingle=2),
        StandardAnalyzer(reverse_text=True, stem_algo="porter2"),
        StandardAnalyzer(),
    ):
        assert analyzer_from_json(analyzer_to_json(ana)) == ana


def test_all_tokens_filtered_is_empty_not_crash():
    ana = StandardAnalyzer(shingle=2)
    assert ana("the a of") == []
    b = ana.analyze_batch(["the a of", "the"])
    assert len(b.tokens) == 0
    assert list(b.field_lengths) == [0, 0]


def test_fuzz_batch_vs_single_parity():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    variants = [
        StandardAnalyzer(shingle=2),
        StandardAnalyzer(shingle=3, shingle_sep="_"),
        StandardAnalyzer(reverse_text=True),
        StandardAnalyzer(reverse_text=True, shingle=2, stem=True),
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd", "Zs", "Po")
                ),
                max_size=60,
            ),
            max_size=6,
        )
    )
    def check(texts):
        for ana in variants:
            b = ana.analyze_batch(texts)
            for i, t in enumerate(texts):
                assert list(b.tokens[b.doc_idx == i]) == ana(t)

    check()
