"""Block-max WAND: exact same ranking as the exhaustive evaluator, with
actual block skipping on larger posting lists."""

import numpy as np
import pytest

from whoosh_novo_ray.search import Or, Searcher, Term
from whoosh_novo_ray.search.wand import searcher_wand_topk


@pytest.fixture(scope="module")
def big_index(ray_session, tmp_path_factory):
    """A larger corpus so posting lists span many 128-posting blocks."""
    import ray.data

    from whoosh_novo_ray.index import Index, IndexConfig, build_index
    from whoosh_novo_ray.testing.pages import synth_pages

    pages = synth_pages(n=5000, seed=11, vocab_size=3000, mean_len=80)
    out = str(tmp_path_factory.mktemp("wand") / "idx")
    docs = ray.data.from_arrow(pages.select(["doc_id", "text"]))
    build_index(docs, out, IndexConfig(num_buckets=4), lineage="wand")
    return Index(out)


@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize(
    "terms",
    [
        ["search"],
        ["search", "data"],
        ["search", "data", "index", "page"],
        ["the", "zzzznope"],
    ],
)
def test_wand_matches_exhaustive(big_index, terms, k):
    # both strategies in one test id: "auto" takes the vectorized merge,
    # "wand" keeps the block-max cursor loop covered
    s = Searcher(big_index)
    expect = s.search(Or(*[Term(t) for t in terms]), limit=k)
    for strategy in ("auto", "wand"):
        got, stats = searcher_wand_topk(
            Searcher(big_index), terms, k, strategy=strategy
        )
        assert stats["strategy"] == (
            "exhaustive" if strategy == "auto" else "wand"
        )
        assert got["doc_id"].to_pylist() == expect["doc_id"].to_pylist(), strategy
        assert got["score"].to_pylist() == pytest.approx(
            expect["score"].to_pylist(), rel=1e-12
        ), strategy


def test_wand_actually_skips(big_index):
    # classic WAND win: a very common term OR'd with a rare, high-idf term;
    # once the top-k fills with rare-term docs, whole blocks of the common
    # term's list are skipped via the skip table (auto takes the vectorized
    # merge without a time budget, so the cursor loop is forced)
    stats_tbl = big_index.iter_term_stats(("term", "df")).to_pandas()
    common = stats_tbl.sort_values("df", ascending=False).iloc[0]["term"]
    rare_rows = stats_tbl[(stats_tbl["df"] >= 3) & (stats_tbl["df"] <= 10)]
    rare = rare_rows.sort_values("term").iloc[0]["term"]

    s = Searcher(big_index)
    expect = s.search(Or(Term(common), Term(rare)), limit=3)
    got, stats = searcher_wand_topk(
        Searcher(big_index), [common, rare], 3, strategy="wand"
    )
    assert got["doc_id"].to_pylist() == expect["doc_id"].to_pylist()
    assert stats["total_blocks"] > 10
    assert stats["skipped_blocks"] > 0, stats
    assert stats["decoded_blocks"] < stats["total_blocks"], stats


def test_time_limit_partial_results(big_index):
    import pytest as _pytest

    from whoosh_novo_ray.search.wand import TimeLimit

    s = Searcher(big_index)
    with _pytest.raises(TimeLimit) as ei:
        searcher_wand_topk(s, ["search", "data", "index", "page"], 10, timelimit=0.0)
    assert ei.value.partial is not None
    assert ei.value.stats["total_blocks"] > 0
    # generous limit completes normally
    got, _stats = searcher_wand_topk(
        Searcher(big_index), ["search", "data"], 10, timelimit=30.0
    )
    assert len(got) == 10
