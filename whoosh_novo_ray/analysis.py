"""Analyzer chain: tokenize -> lowercase -> stop-filter, vectorized per batch.

Reproduces the semantics of the reference engine's ``StandardAnalyzer``
(de-odex/whoosh-novo ``src/whoosh/analysis/analyzers.py:190-217``):

* tokenizer regex ``[\\w\\*]+(\\.?[\\w\\*]+)*``
  (``src/whoosh/analysis/tokenizers.py:43``),
* lowercase filter,
* stop filter with the reference's 33-word English stop set
  (``src/whoosh/analysis/filters.py:47-84``), ``minsize=2``, and position
  renumbering after removal (``StopFilter(renumber=True)`` default).

Unlike the reference (a per-token generator pipeline), everything here is
batch-oriented: one call analyzes a whole Arrow/pandas batch of documents and
returns flat numpy arrays, suitable for ``Dataset.map_batches``. Tokenization
runs on the ORIGINAL text and lowercasing happens per unique token — the
reference's tokenize-then-lowercase order (lowering the whole text first
diverges for characters whose ``str.lower()`` changes string length, e.g.
'İ', and would make char offsets index the lowered string).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

import numpy as np

# The reference's default token pattern, with the capture group made
# non-capturing so findall() returns whole matches.
DEFAULT_PATTERN = r"[\w\*]+(?:\.?[\w\*]+)*"

# Reference STOP_WORDS (src/whoosh/analysis/filters.py:47-84).
STOP_WORDS = frozenset(
    """a an and are as at be by can for from have if in is it may not of on
    or tbd that the this to us we when will with yet you your""".split()
)


@dataclass(frozen=True)
class AnalyzedBatch:
    """Flat token stream for a batch of documents.

    ``doc_idx`` indexes into the batch (NOT a global doc id); ``pos`` is the
    token's position within its document after stop-word removal (renumbered,
    matching StopFilter(renumber=True)); ``field_lengths`` is the per-document
    token count after stop removal (= the scorable field length).
    """

    doc_idx: np.ndarray  # int64, one entry per surviving token
    tokens: np.ndarray  # object (str)
    pos: np.ndarray  # int32
    field_lengths: np.ndarray  # int64, one entry per document in the batch


@dataclass(frozen=True)
class StandardAnalyzer:
    """Vectorized equivalent of the reference StandardAnalyzer chain; with
    ``stem=True`` it matches the reference StemmingAnalyzer (Regex | Lower |
    Stop | StemFilter-with-Porter, analyzers.py:220-254)."""

    pattern: str = DEFAULT_PATTERN
    stoplist: frozenset | None = STOP_WORDS
    minsize: int = 2
    maxsize: int | None = None
    stem: bool = False
    # snowball language for StemFilter (lang_snowball.STEMMERS; None = Porter
    # when stem=True) — the LanguageAnalyzer wiring
    stem_lang: str | None = None
    # standalone algorithm selector for StemFilter(stemfn=...) parity:
    # "porter" (default) / "porter2" / "lovins" / "paicehusk" (reference
    # lang/porter2.py, lang/lovins.py, lang/paicehusk.py). Setting it implies
    # stemming; stem_lang wins.
    stem_algo: str | None = None
    # DelimitedAttributeFilter analog (reference analysis/filters.py:504-578):
    # 'word^2' -> token 'word' with boost 2.0. The pattern must include the
    # delimiter + payload in the token (as the reference requires).
    boost_delim: str | None = None
    # ReverseTextFilter (reference analysis/filters.py:314-325) as a terminal
    # chain step — index reversed tokens so Prefix(reversed(suffix)) is a
    # suffix search. Applied after stemming.
    reverse_text: bool = False
    # ShingleFilter / BiWordFilter (reference analysis/intraword.py:181,
    # analyzers BiWordFilter semantics): emit joins of `shingle` consecutive
    # SURVIVING tokens (post stop/minsize/stem/reverse), each at the first
    # component's position with the first component's boost. None = off.
    shingle: int | None = None
    shingle_sep: str = "-"
    _rx: re.Pattern = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_rx", re.compile(self.pattern))

    def json_fields(self) -> dict:
        """The options as persisted JSON fields, in field order
        (:func:`analyzer_to_json` stores them with the class name)."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        d["stoplist"] = sorted(self.stoplist) if self.stoplist is not None else None
        return d

    @classmethod
    def from_json_fields(cls, d: dict) -> "StandardAnalyzer":
        """The analyzer :meth:`json_fields` describes. A field ``d`` lacks
        (a file written before the option existed) takes its default; other
        keys are ignored."""
        kw = {f.name: d[f.name] for f in fields(cls) if f.init and f.name in d}
        if kw.get("stoplist") is not None:
            kw["stoplist"] = frozenset(kw["stoplist"])
        return cls(**kw)

    def _split_boost(self, tok: str) -> tuple[str, float]:
        d = self.boost_delim
        i = tok.find(d)
        if i > -1:
            return tok[:i], float(tok[i + len(d) :])
        return tok, 1.0

    # -- single-document path (queries, tests) --------------------------------

    def __call__(self, text: str) -> list[str]:
        # tokenize the ORIGINAL text, then lowercase per token — the
        # reference order (RegexTokenizer | LowercaseFilter). Lowercasing
        # first diverges when str.lower() changes string length (e.g. 'İ' ->
        # 'i' + combining dot splits the \w+ match).
        raw = self._rx.findall(text)
        if self.boost_delim:
            raw = [self._split_boost(t)[0] for t in raw]
        toks = [t.lower() for t in raw]
        if (
            self.stoplist is None
            and self.minsize <= 1
            and self.maxsize is None
            and not self.stem
            and not self.stem_lang
            and not self.stem_algo
            and not self.reverse_text
            and not self.shingle
        ):
            return toks
        stops = self.stoplist or frozenset()
        mx = self.maxsize
        out = [
            t
            for t in toks
            if len(t) >= self.minsize and (mx is None or len(t) <= mx) and t not in stops
        ]
        if self.stem or self.stem_lang or self.stem_algo:
            _stem = self._stem_fn()
            out = [_stem(t) for t in out]
        if self.reverse_text:
            out = [t[::-1] for t in out]
        if self.shingle:
            out = shingle_tokens(out, self.shingle, self.shingle_sep)
        return out

    def _stem_fn(self):
        if self.stem_lang:
            from whoosh_novo_ray.lang_snowball import stemmer_for_language

            return stemmer_for_language(self.stem_lang)
        if self.stem_algo and self.stem_algo != "porter":
            if self.stem_algo == "lovins":
                from whoosh_novo_ray.lang_lovins import stem as _stem
            elif self.stem_algo == "paicehusk":
                from whoosh_novo_ray.lang_paicehusk import stem as _stem
            elif self.stem_algo == "porter2":
                from whoosh_novo_ray.lang_porter2 import stem as _stem
            else:
                raise ValueError(f"unknown stem_algo: {self.stem_algo!r}")
            return _stem
        from whoosh_novo_ray.porter import stem as _stem

        return _stem

    # -- batch path (map_batches hot loop) ------------------------------------

    def analyze_batch(self, texts: list[str]) -> AnalyzedBatch:
        """Tokenize a batch of documents into one flat token stream."""
        doc_idx, codes, uniques, pos, field_lengths = self.analyze_batch_coded(texts)
        return AnalyzedBatch(doc_idx, uniques[codes], pos, field_lengths)

    def analyze_batch_coded(
        self, texts: list[str], with_chars: bool = False
    ):
        """Like analyze_batch but dictionary-coded: returns
        (doc_idx, term_codes, unique_terms, pos, field_lengths) — plus
        (startchars, endchars) int32 arrays when ``with_chars`` (the
        reference Characters format's per-occurrence offsets,
        formats.py:273-343; spans refer to the ORIGINAL text).

        Length/stopword filtering and (downstream) hashing run once per
        UNIQUE term, not per token — the fused fast path for indexing.
        """
        import pandas as pd

        # tokenize the ORIGINAL text (char spans index it directly);
        # lowercasing happens once per UNIQUE token below — the reference's
        # RegexTokenizer | LowercaseFilter order, vectorized
        rx = self._rx
        if with_chars:
            per_doc = []
            span_parts = []
            for t in texts:
                if not t:
                    per_doc.append([])
                    continue
                ms = list(rx.finditer(t))
                per_doc.append([m.group(0) for m in ms])
                span_parts.extend((m.start(), m.end()) for m in ms)
            spans = (
                np.asarray(span_parts, np.int32).reshape(-1, 2)
                if span_parts
                else np.empty((0, 2), np.int32)
            )
        else:
            per_doc = [rx.findall(t) if t else [] for t in texts]
            spans = None
        counts = np.fromiter((len(p) for p in per_doc), dtype=np.int64, count=len(per_doc))
        n = int(counts.sum())
        doc_idx = np.repeat(np.arange(len(per_doc), dtype=np.int64), counts)
        tokens = np.empty(n, dtype=object)
        i = 0
        for p in per_doc:
            tokens[i : i + len(p)] = p
            i += len(p)

        boosts = None
        if self.boost_delim:
            boosts = np.ones(n, np.float64)
            for i in range(n):
                t, b = self._split_boost(tokens[i])
                if b != 1.0 or t is not tokens[i]:
                    if spans is not None and len(t) != len(tokens[i]):
                        spans[i, 1] -= len(tokens[i]) - len(t)
                    tokens[i] = t
                    boosts[i] = b

        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            base = (
                empty,
                empty.copy(),
                np.empty(0, dtype=object),
                empty.astype(np.int32),
                np.zeros(len(texts), np.int64),
            )
            if with_chars:
                e32 = np.empty(0, np.int32)
                base = base + (e32, e32.copy())
            if boosts is not None:
                base = base + (np.empty(0, np.float64),)
            return base

        # original (pre-filter) position of each token within its doc
        pre_start = np.flatnonzero(np.diff(doc_idx, prepend=-1))
        pre_len = np.diff(np.append(pre_start, n))
        orig_pos = np.arange(n) - np.repeat(pre_start, pre_len)

        codes, uniques = pd.factorize(tokens, sort=False)
        uniques = np.asarray(uniques, dtype=object)

        # lowercase once per unique surface form; distinct surface forms can
        # collapse to one lowered term and must share a code. Stop/length
        # filters below then see the LOWERED token (reference filter order).
        lowered = np.array([u.lower() for u in uniques], dtype=object)
        new_codes_of_old, uniques = pd.factorize(lowered, sort=False)
        uniques = np.asarray(uniques, dtype=object)
        codes = new_codes_of_old[codes]

        u = pd.Series(uniques)
        keep_u = np.ones(len(uniques), dtype=bool)
        if self.minsize > 1 or self.maxsize is not None:
            ulen = u.str.len().to_numpy()
            keep_u &= ulen >= self.minsize
            if self.maxsize is not None:
                keep_u &= ulen <= self.maxsize
        if self.stoplist:
            keep_u &= ~u.isin(self.stoplist).to_numpy()
        keep = keep_u[codes]

        doc_idx = doc_idx[keep]
        codes = codes[keep]
        orig_pos = orig_pos[keep]
        if spans is not None:
            spans = spans[keep]
        if boosts is not None:
            boosts = boosts[keep]
        field_lengths = np.bincount(doc_idx, minlength=len(texts)).astype(np.int64)

        if self.stem or self.stem_lang or self.stem_algo:
            # stem once per unique term, then re-factorize (distinct surface
            # forms can collapse to one stem and must share a code)
            _stem = self._stem_fn()

            stemmed = np.array([_stem(u) for u in uniques], dtype=object)
            new_codes_of_old, uniques = pd.factorize(stemmed, sort=False)
            uniques = np.asarray(uniques, dtype=object)
            codes = new_codes_of_old[codes]

        # Renumbered positions, matching the reference StopFilter(renumber=True)
        # (src/whoosh/analysis/filters.py:422-447): the FIRST surviving token
        # keeps its original position; later ones increment by 1 from there.
        if len(doc_idx):
            run_start = np.flatnonzero(np.diff(doc_idx, prepend=-1))
            run_len = np.diff(np.append(run_start, len(doc_idx)))
            base = np.repeat(orig_pos[run_start], run_len)
            rel = np.arange(len(doc_idx)) - np.repeat(run_start, run_len)
            pos = (base + rel).astype(np.int32)
        else:
            pos = np.empty(0, dtype=np.int32)

        if self.reverse_text:
            # reversal is injective on distinct strings — codes are unchanged
            uniques = np.array([u[::-1] for u in uniques], dtype=object)

        if self.shingle:
            # windows of `shingle` consecutive surviving tokens within a doc;
            # a doc with fewer surviving tokens gets ONE window over all of
            # them (the reference ShingleFilter flushes its partial buffer).
            # Strings build once per UNIQUE combination via a left-fold pair
            # factorization (int64 key = acc_code * (|vocab|+1) + next_code;
            # next_code |vocab| marks a window that already ended)
            k = self.shingle
            sep = self.shingle_sep
            n2 = len(doc_idx)
            run_start = np.flatnonzero(np.diff(doc_idx, prepend=-1))
            run_len = np.diff(np.append(run_start, n2))
            starts = np.zeros(n2, bool)
            if n2 >= k:
                starts[: n2 - k + 1] = doc_idx[: n2 - k + 1] == doc_idx[k - 1 :]
            starts[run_start[run_len < k]] = True
            idx0 = np.flatnonzero(starts)
            wlen = np.minimum(k, np.repeat(run_len, run_len)[idx0])
            v = len(uniques)
            acc_codes = codes[idx0]
            acc_uniq = uniques
            for j in range(1, k):
                nxt = np.full(len(idx0), v, np.int64)
                ext = wlen > j
                nxt[ext] = codes[idx0[ext] + j]
                key = acc_codes.astype(np.int64) * (v + 1) + nxt
                acc_codes, ukey = pd.factorize(key, sort=False)
                acc_uniq = np.array(
                    [
                        acc_uniq[q // (v + 1)]
                        + (sep + uniques[q % (v + 1)] if q % (v + 1) < v else "")
                        for q in ukey
                    ],
                    dtype=object,
                )
            doc_idx = doc_idx[idx0]
            codes = acc_codes
            uniques = acc_uniq
            # first component's (renumbered) position and boost; char span
            # covers first start .. last end, per the reference's shingle
            # token carrying its source tokens' extent
            pos = pos[idx0]
            field_lengths = np.bincount(doc_idx, minlength=len(texts)).astype(
                np.int64
            )
            if spans is not None:
                spans = np.stack([spans[idx0, 0], spans[idx0 + wlen - 1, 1]], axis=1)
            if boosts is not None:
                boosts = boosts[idx0]

        out = (doc_idx, codes, uniques, pos, field_lengths)
        if with_chars:
            out = out + (spans[:, 0], spans[:, 1])
        if boosts is not None:
            out = out + (boosts,)
        return out


def simple_analyzer() -> StandardAnalyzer:
    """Regex tokenize + lowercase, no stop filter (reference SimpleAnalyzer)."""
    return StandardAnalyzer(stoplist=None, minsize=1)


def language_analyzer(lang: str) -> StandardAnalyzer:
    """Tokenize | lowercase | per-language stop filter | snowball stem —
    the reference LanguageAnalyzer (analyzers.py:296-338). Stemmers: en
    (Porter) + every lang in lang_snowball.STEMMERS. A missing stop list or
    stemmer is skipped, as the reference does (e.g. 'ro' has a stemmer but
    no stop list; 'tr' the reverse)."""
    from whoosh_novo_ray.lang_snowball import STEMMERS
    from whoosh_novo_ray.lang_stopwords import STOPWORDS

    if lang == "en":
        return StandardAnalyzer(stem=True)
    stops = STOPWORDS.get(lang)
    stem_lang = lang if (lang in STEMMERS or lang == "ar") else None
    return StandardAnalyzer(stoplist=stops, stem_lang=stem_lang)


def stemming_analyzer(
    stoplist: frozenset | None = STOP_WORDS, minsize: int = 2
) -> StandardAnalyzer:
    """Regex | Lower | Stop | Porter stem (reference StemmingAnalyzer,
    analyzers.py:220-254)."""
    return StandardAnalyzer(stoplist=stoplist, minsize=minsize, stem=True)


def keyword_analyzer(lowercase: bool = False, commas: bool = False) -> StandardAnalyzer:
    """Whitespace (or comma) separated keywords (reference KeywordAnalyzer,
    analyzers.py:144-162)."""
    pattern = r"[^,\s][^,]*" if commas else r"\S+"
    return StandardAnalyzer(
        pattern=pattern, stoplist=None, minsize=1
    ) if lowercase else _NoLowerAnalyzer(pattern=pattern, stoplist=None, minsize=1)


@dataclass(frozen=True)
class _NoLowerAnalyzer(StandardAnalyzer):
    """Tokenize without lowercasing (ID/keyword fields)."""

    def __call__(self, text: str) -> list[str]:
        toks = self._rx.findall(text)
        stops = self.stoplist or frozenset()
        mx = self.maxsize
        return [
            t
            for t in toks
            if len(t) >= self.minsize and (mx is None or len(t) <= mx) and t not in stops
        ]

    def analyze_batch_coded(self, texts):
        # delegate via a marker: uppercase-preserving tokenization
        import numpy as _np
        import pandas as pd

        rx = self._rx
        per_doc = [rx.findall(t) if t else [] for t in texts]
        counts = _np.fromiter((len(p) for p in per_doc), _np.int64, len(per_doc))
        n = int(counts.sum())
        doc_idx = _np.repeat(_np.arange(len(per_doc), dtype=_np.int64), counts)
        tokens = _np.empty(n, dtype=object)
        i = 0
        for pdoc in per_doc:
            tokens[i : i + len(pdoc)] = pdoc
            i += len(pdoc)
        if n == 0:
            e = _np.empty(0, _np.int64)
            return e, e.copy(), _np.empty(0, object), e.astype(_np.int32), _np.zeros(len(texts), _np.int64)
        codes, uniques = pd.factorize(tokens, sort=False)
        pos = _np.zeros(n, _np.int32)
        run_start = _np.flatnonzero(_np.diff(doc_idx, prepend=-1))
        run_len = _np.diff(_np.append(run_start, n))
        pos = (_np.arange(n) - _np.repeat(run_start, run_len)).astype(_np.int32)
        fl = _np.bincount(doc_idx, minlength=len(texts)).astype(_np.int64)
        return doc_idx, codes, _np.asarray(uniques, object), pos, fl


# the analyzer classes whose every option is a dataclass field, so their
# JSON rebuilds the same token stream (any other class would come back as
# something else)
PERSISTABLE_ANALYZERS = {c.__name__: c for c in (StandardAnalyzer, _NoLowerAnalyzer)}


def analyzer_to_json(a: StandardAnalyzer) -> dict:
    """The persisted form of a StandardAnalyzer-family analyzer: its class
    name and :meth:`StandardAnalyzer.json_fields`. An index manifest's
    config (``IndexConfig.to_json``) and a compat schema both store it."""
    return {"cls": type(a).__name__, **a.json_fields()}


def analyzer_from_json(d: dict) -> StandardAnalyzer:
    """The analyzer :func:`analyzer_to_json` wrote. A dict that names no
    class (written before the class was recorded) is a StandardAnalyzer;
    a class outside :data:`PERSISTABLE_ANALYZERS` raises ValueError."""
    cls = PERSISTABLE_ANALYZERS.get(d.get("cls", "StandardAnalyzer"))
    if cls is None:
        raise ValueError(
            f"analyzer class {d['cls']!r} cannot be reloaded; only "
            f"{sorted(PERSISTABLE_ANALYZERS)} can"
        )
    return cls.from_json_fields(d)


def id_analyzer() -> _NoLowerAnalyzer:
    """Whole value = one token (reference IDAnalyzer, analyzers.py:133)."""
    return _NoLowerAnalyzer(pattern=r"(?s)\A.+\Z", stoplist=None, minsize=1)


def idlist_analyzer(expression: str = r"[^\r\n\t ,;]+") -> _NoLowerAnalyzer:
    """IDs separated by whitespace/commas/semicolons (reference
    fields.IDLIST, fields.py:492-513): regex tokens, case preserved, no
    stop filtering."""
    return _NoLowerAnalyzer(pattern=expression, stoplist=None, minsize=1)


@dataclass(frozen=True)
class NgramAnalyzer:
    """Char-n-gram analyzer (reference NGRAM field / NgramAnalyzer,
    ngrams.py:42-130,248-256): grams over the WHOLE lowercased value incl.
    whitespace, ordered by (start, size); position == start offset. Plugs
    into IndexConfig like StandardAnalyzer for substring-search indexes."""

    minsize: int = 2
    maxsize: int = 4
    # duck-type fields other code may probe
    stem: bool = False
    stoplist = None

    def __call__(self, text: str) -> list[str]:
        v = text.lower()
        n = len(v)
        out = []
        for start in range(0, n - self.minsize + 1):
            for size in range(self.minsize, self.maxsize + 1):
                if start + size <= n:
                    out.append(v[start : start + size])
        return out

    def query_tokens(self, text: str) -> list[str]:
        """Query-mode grams (reference NgramTokenizer mode=='query': one gram
        size = min(maxsize, len))."""
        v = text.lower()
        size = min(self.maxsize, len(v))
        return [v[i : i + size] for i in range(0, len(v) - size + 1)]

    def analyze_batch_coded(self, texts):
        import pandas as pd

        per_doc = [self(t) if t else [] for t in texts]
        counts = np.fromiter((len(p) for p in per_doc), np.int64, len(per_doc))
        n = int(counts.sum())
        doc_idx = np.repeat(np.arange(len(per_doc), dtype=np.int64), counts)
        tokens = np.empty(n, dtype=object)
        i = 0
        for pdoc in per_doc:
            tokens[i : i + len(pdoc)] = pdoc
            i += len(pdoc)
        if n == 0:
            e = np.empty(0, np.int64)
            return e, e.copy(), np.empty(0, object), e.astype(np.int32), np.zeros(len(texts), np.int64)
        codes, uniques = pd.factorize(tokens, sort=False)
        # position == start offset: per doc, grams are emitted grouped by
        # start with (max-min+1) grams per start (fewer near the end)
        pos_parts = []
        for pdoc, text in zip(per_doc, texts):
            if not pdoc:
                continue
            v = (text or "").lower()
            ln = len(v)
            ps = []
            for start in range(0, ln - self.minsize + 1):
                for size in range(self.minsize, self.maxsize + 1):
                    if start + size <= ln:
                        ps.append(start)
            pos_parts.append(np.asarray(ps, np.int32))
        pos = np.concatenate(pos_parts) if pos_parts else np.empty(0, np.int32)
        fl = counts.astype(np.int64)
        return doc_idx, codes, np.asarray(uniques, object), pos, fl


@dataclass(frozen=True)
class NgramWordsAnalyzer:
    """Word-gram analyzer (reference NgramWordAnalyzer, ngrams.py:259-267):
    RegexTokenizer | LowercaseFilter | NgramFilter. Grams inherit the source
    word's position (NgramFilter leaves t.pos untouched, ngrams.py:186-189);
    field length = emitted gram count. Plugs into IndexConfig."""

    minsize: int = 3
    maxsize: int | None = None
    at: str | None = None
    # duck-type fields other code may probe
    stem: bool = False
    stoplist = None

    def __call__(self, text: str) -> list[str]:
        return ngram_words(text, self.minsize, self.maxsize, self.at)

    def query_tokens(self, word: str) -> list[str]:
        """Query-mode grams of one word (reference NgramFilter mode=='query',
        ngrams.py:191-210): one gram size = min(maxsize, len(word))."""
        mx = self.maxsize or self.minsize
        v = word.lower()
        if len(v) < self.minsize:
            return []
        size = min(mx, len(v))
        if self.at == "start":
            return [v[:size]]
        if self.at == "end":
            return [v[len(v) - size :]]
        return [v[i : i + size] for i in range(0, len(v) - size + 1)]

    def analyze_batch_coded(self, texts):
        import pandas as pd

        mn = self.minsize
        mx = self.maxsize or self.minsize
        word_tok = simple_analyzer()
        all_grams: list[str] = []
        counts = np.zeros(len(texts), np.int64)
        pos_parts: list[np.ndarray] = []
        for di, t in enumerate(texts):
            words = word_tok(t) if t else []
            n0 = len(all_grams)
            ps: list[int] = []
            for w_ord, w in enumerate(words):
                gs = ngram_filter_tokens([w], mn, mx, self.at)
                all_grams.extend(gs)
                ps.extend([w_ord] * len(gs))
            counts[di] = len(all_grams) - n0
            if ps:
                pos_parts.append(np.asarray(ps, np.int32))
        n = int(counts.sum())
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        if n == 0:
            e = np.empty(0, np.int64)
            return e, e.copy(), np.empty(0, object), e.astype(np.int32), counts
        tokens = np.asarray(all_grams, dtype=object)
        codes, uniques = pd.factorize(tokens, sort=False)
        pos = np.concatenate(pos_parts) if pos_parts else np.empty(0, np.int32)
        return doc_idx, codes, np.asarray(uniques, object), pos, counts


def ngram_filter_tokens(
    tokens: list[str],
    minsize: int,
    maxsize: int | None = None,
    at: str | None = None,
) -> list[str]:
    """Word-level n-gram expansion (reference NgramFilter,
    ngrams.py:134-242): grams within each token; ``at='start'`` keeps only
    prefixes, ``at='end'`` only suffixes. Words shorter than minsize drop."""
    maxsize = maxsize or minsize
    out: list[str] = []
    for text in tokens:
        n = len(text)
        if n < minsize:
            continue
        if at == "start":
            for size in range(minsize, min(maxsize, n) + 1):
                out.append(text[:size])
        elif at == "end":
            start = max(0, n - maxsize)
            for i in range(start, n - minsize + 1):
                out.append(text[i:])
        else:
            for start in range(0, n - minsize + 1):
                for size in range(minsize, maxsize + 1):
                    if start + size <= n:
                        out.append(text[start : start + size])
    return out


def ngram_words(
    text: str, minsize: int, maxsize: int | None = None, at: str | None = None
) -> list[str]:
    """The reference NgramWordAnalyzer chain (ngrams.py:259-267):
    RegexTokenizer | Lowercase | NgramFilter."""
    toks = simple_analyzer()(text)
    return ngram_filter_tokens(toks, minsize, maxsize, at)


def path_tokens(value: str, expression: str = "[^/]+") -> list[str]:
    """Hierarchical path tokens (reference PathTokenizer,
    tokenizers.py:379-398): "/a/b/c" -> ["/a", "/a/b", "/a/b/c"]."""
    rx = re.compile(expression)
    return [value[: m.end()] for m in rx.finditer(value)]


def shingle_tokens(tokens: list[str], size: int = 2, sep: str = "-") -> list[str]:
    """Adjacent-token shingles (reference ShingleFilter,
    ``src/whoosh/analysis/intraword.py:181``). A stream shorter than
    ``size`` gives one token joining all of it."""
    if len(tokens) < size:
        return [sep.join(tokens)] if tokens else []
    return [sep.join(tokens[i : i + size]) for i in range(len(tokens) - size + 1)]


def compound_word_split(
    token: str, wordset, memo: dict | None = None, keep_compound: bool = True
) -> list[str]:
    """Break a run-together token into dictionary words (reference
    CompoundWordFilter, intraword.py:42-108): greedy prefix recursion with
    memoization; the original compound is kept first when it splits and
    ``keep_compound`` is set."""
    memo = {} if memo is None else memo

    def subwords(w: str):
        if w in wordset:
            return [w]
        if w in memo:
            return memo[w]
        for i in range(1, len(w)):
            if w[:i] in wordset:
                rest = subwords(w[i:])
                if rest:
                    memo[w] = [w[:i]] + rest
                    return memo[w]
        return None

    subs = subwords(token)
    if not subs:
        return [token]
    if len(subs) > 1 and keep_compound:
        return [token] + subs
    return subs


class MultiAnalyzer:
    """Mode-dispatching analyzer (reference MultiFilter, filters.py:223-254):
    pick a different analyzer for indexing vs querying — e.g. merge intra-word
    variants at index time but not at query time."""

    def __init__(self, default, **by_mode):
        self.default = default
        self.by_mode = by_mode

    def for_mode(self, mode: str):
        return self.by_mode.get(mode, self.default)

    def __call__(self, text: str, mode: str = "query") -> list[str]:
        return self.for_mode(mode)(text)


def strip_tokens(tokens: list[str]) -> list[str]:
    """StripFilter (reference analysis/filters.py:343-349): str.strip per
    token."""
    return [t.strip() for t in tokens]


def substitution_tokens(
    tokens: list[str], pattern: str, replacement: str
) -> list[str]:
    """SubstitutionFilter (reference analysis/filters.py:581-610): regex
    substitution on each token's text."""
    rx = re.compile(pattern)
    return [rx.sub(replacement, t) for t in tokens]


def reverse_text_tokens(tokens: list[str]) -> list[str]:
    """ReverseTextFilter (reference analysis/filters.py:314-325)."""
    return [t[::-1] for t in tokens]


def tee_tokens(tokens: list[str], *branch_fns) -> list[str]:
    """Interleave the outputs of several per-token transforms (reference
    TeeFilter, filters.py:257-311): for each input token, each branch
    contributes its transformed token(s) in branch order."""
    out: list[str] = []
    branches = [[x for t in tokens for x in _as_list(fn(t))] for fn in branch_fns]
    idx = [0] * len(branches)
    running = True
    while running:
        running = False
        for bi, b in enumerate(branches):
            if idx[bi] < len(b):
                out.append(b[idx[bi]])
                idx[bi] += 1
                running = True
    return out


def _as_list(x):
    return x if isinstance(x, list) else [x]
