"""TEXT(analyzer=... / lang=...) through the compat facade (reference
fields.py:1091-1140 precedence: analyzer > lang > default), incl. schema-JSON
persistence of custom analyzers across open_dir."""

import pytest

import whoosh_novo_ray.compat as C
from tests.conftest import HAVE_REFERENCE

GERMAN = [
    "die katzen laufen schnell durch die garten",
    "ein laufender hund jagt die katze im garten",
    "schnelle autos fahren auf der strasse",
    "der hund und die katze schlafen im haus",
    "garten und haus gehoeren den laufenden kindern",
    "kinder spielen schnell im grossen garten",
]


def _facade(tmp_path, name, **field_kw):
    d = tmp_path / name
    d.mkdir()
    ix = C.create_in(str(d), C.Schema(body=C.TEXT(stored=True, **field_kw)))
    with ix.writer() as w:
        for t in GERMAN:
            w.add_document(body=t)
    return ix


@pytest.mark.skipif(not HAVE_REFERENCE, reason="reference not available")
def test_text_lang_parity_vs_reference(ray_session, tmp_path):
    from whoosh import index as windex
    from whoosh.fields import TEXT, Schema
    from whoosh.qparser import QueryParser

    ours = _facade(tmp_path, "cix", lang="de")
    d = tmp_path / "ref"
    d.mkdir()
    rix = windex.create_in(str(d), Schema(body=TEXT(stored=True, lang="de")))
    w = rix.writer()
    for t in GERMAN:
        w.add_document(body=t)
    w.commit()

    for q in ["laufen", "katzen", "schnelles", "garten", "laufende katze"]:
        mine = [
            (int(h.docnum), round(float(h.score), 9))
            for h in ours.searcher().search(f"body:({q.replace(' ', ' OR ')})")
        ]
        with rix.searcher() as s:
            want = [
                (int(h.docnum), round(float(h.score), 9))
                for h in s.search(
                    QueryParser("body", rix.schema).parse(" OR ".join(q.split())),
                    limit=10,
                )
            ]
        assert mine == want, q


@pytest.mark.skipif(not HAVE_REFERENCE, reason="reference not available")
def test_text_custom_analyzer_parity_vs_reference(ray_session, tmp_path):
    """analyzer= wins over lang=; keyword analyzer tokens match the
    reference KeywordAnalyzer(lowercase=True) field."""
    from whoosh import index as windex
    from whoosh.analysis import KeywordAnalyzer
    from whoosh.fields import TEXT, Schema
    from whoosh.query import Term as RTerm

    from whoosh_novo_ray.analysis import keyword_analyzer

    ours = _facade(
        tmp_path, "cix", analyzer=keyword_analyzer(lowercase=True), lang="de"
    )
    d = tmp_path / "ref"
    d.mkdir()
    rix = windex.create_in(
        str(d),
        Schema(body=TEXT(stored=True, analyzer=KeywordAnalyzer(lowercase=True))),
    )
    w = rix.writer()
    for t in GERMAN:
        w.add_document(body=t)
    w.commit()

    # keyword analyzer keeps inflections whole: "laufen" must NOT match
    # "laufender"/"laufenden" (which the lang='de' stemmer would collapse)
    for q in ["laufen", "katze", "garten", "schnell"]:
        mine = [
            (int(h.docnum), round(float(h.score), 9))
            for h in ours.searcher().search(f"body:{q}")
        ]
        with rix.searcher() as s:
            want = [
                (int(h.docnum), round(float(h.score), 9))
                for h in s.search(RTerm("body", q), limit=10)
            ]
        assert mine == want, q


def test_custom_analyzer_persists_across_open_dir(ray_session, tmp_path):
    from whoosh_novo_ray.analysis import StandardAnalyzer

    d = tmp_path / "cix"
    d.mkdir()
    ana = StandardAnalyzer(stoplist=None, stem_algo="lovins")
    ix = C.create_in(str(d), C.Schema(body=C.TEXT(stored=True, analyzer=ana)))
    with ix.writer() as w:
        w.add_document(body="nationally splitting windows")

    reopened = C.open_dir(str(d))
    spec = reopened.schema["body"]
    got = spec.analyzer()
    assert got == ana  # dataclass equality: every option survived the JSON
    # lovins stems "nationally" -> "nat": searching the stem must hit
    hits = reopened.searcher().search("body:nationally")
    assert len(hits) == 1 and hits[0]["body"] == "nationally splitting windows"


def test_lang_roundtrip_and_precedence(ray_session, tmp_path):
    from whoosh_novo_ray.analysis import language_analyzer

    s = C.Schema(a=C.TEXT(lang="de"), b=C.TEXT(stem=True))
    s2 = C.Schema.from_json(s.to_json())
    assert s2["a"].analyzer() == language_analyzer("de")
    assert s2["b"].analyzer() == s["b"].analyzer()


def test_unknown_analyzer_class_in_schema_json_raises():
    """A schema naming an analyzer class the loader does not know must not
    silently come back as a plain StandardAnalyzer."""
    from whoosh_novo_ray.analysis import StandardAnalyzer

    s = C.Schema(body=C.TEXT(analyzer=StandardAnalyzer(stoplist=None)))
    js = s.to_json()
    assert C.Schema.from_json(js)["body"].analyzer() == StandardAnalyzer(
        stoplist=None
    )
    assert js["body"]["analyzer"]["cls"] == "StandardAnalyzer"
    bad = {"body": {**js["body"], "analyzer": {**js["body"]["analyzer"]}}}
    bad["body"]["analyzer"]["cls"] = "MyAnalyzer"
    with pytest.raises(ValueError, match="MyAnalyzer"):
        C.Schema.from_json(bad)


def test_text_rejects_non_persistable_analyzer_at_construction():
    """An analyzer outside the StandardAnalyzer dataclass family (a foreign
    class, or a subclass whose behaviour the schema JSON cannot record)
    fails at TEXT() construction, not at schema-save time."""
    from dataclasses import dataclass

    from whoosh_novo_ray.analysis import (
        NgramAnalyzer,
        StandardAnalyzer,
        keyword_analyzer,
    )

    @dataclass(frozen=True)
    class Shouting(StandardAnalyzer):
        def __call__(self, text):
            return [t.upper() for t in super().__call__(text)]

    with pytest.raises(TypeError, match="Shouting"):
        C.TEXT(analyzer=Shouting())
    with pytest.raises(TypeError, match="NgramAnalyzer"):
        C.TEXT(analyzer=NgramAnalyzer(2, 3))
    # the persistable family still constructs (lowercasing and not)
    C.TEXT(analyzer=keyword_analyzer(lowercase=True))
    C.TEXT(analyzer=keyword_analyzer(lowercase=False))
