"""An index config keeps its analyzer's class through its JSON: the
case-preserving ID and keyword analyzers reopen as themselves, a config
that names no class reopens as a StandardAnalyzer, and a resumed build
over the other class rebuilds its buckets."""

import pytest

from whoosh_novo_ray.analysis import StandardAnalyzer, id_analyzer, keyword_analyzer
from whoosh_novo_ray.index import Index, IndexConfig, build_index


@pytest.mark.parametrize(
    "make, want",
    [(id_analyzer, ["Foo Bar"]), (keyword_analyzer, ["Foo", "Bar"])],
    ids=["id", "keyword"],
)
def test_config_json_keeps_analyzer_class(make, want):
    a = make()
    back = IndexConfig.from_json(IndexConfig(analyzer=a).to_json()).analyzer
    assert type(back) is type(a) and back == a
    assert back("Foo Bar") == want


def test_config_json_without_class_is_standard():
    """A config written before the class was recorded."""
    a = StandardAnalyzer(stoplist=None, minsize=1)
    d = IndexConfig(analyzer=a).to_json()
    del d["analyzer"]["cls"]
    back = IndexConfig.from_json(d).analyzer
    assert type(back) is StandardAnalyzer and back == a


def _docs():
    import pyarrow as pa
    import ray.data

    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": ["Foo Bar", "Baz"]})
    )


def _terms(path: str) -> set[str]:
    return set(Index(path).iter_term_stats(("term",))["term"].to_pylist())


def test_id_analyzer_index_reopens_case_preserving(ray_session, tmp_path):
    out = str(tmp_path / "idx")
    build_index(_docs(), out, IndexConfig(num_buckets=2, analyzer=id_analyzer()), lineage="ids")
    assert Index(out).cfg.analyzer("Foo Bar") == ["Foo Bar"]
    assert _terms(out) == {"Foo Bar", "Baz"}


def test_resume_over_the_other_analyzer_class_rebuilds(ray_session, tmp_path):
    out = str(tmp_path / "idx")
    ida = id_analyzer()
    lower = StandardAnalyzer(pattern=ida.pattern, stoplist=None, minsize=1)
    build_index(_docs(), out, IndexConfig(num_buckets=2, analyzer=lower), lineage="ids")
    assert _terms(out) == {"foo bar", "baz"}
    build_index(
        _docs(), out, IndexConfig(num_buckets=2, analyzer=ida), lineage="ids", resume=True
    )
    assert _terms(out) == {"Foo Bar", "Baz"}
