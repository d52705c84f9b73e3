"""Deterministic synthetic Common-Crawl-style pages corpus.

Shape mandated by BASELINE.json ``input_hint``:
``(url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string)``
plus a ``doc_id`` column (sequential row number — the engine's docnum order,
matching the reference's sequential ingest order so ranks tie-break
identically).

``html`` wraps ``text`` so that html->text extraction is trivially
byte-identical per url. The vocabulary is Zipf-distributed and deliberately
exercises the whole StandardAnalyzer chain: reference stop words, 1-char
tokens (minsize drop), mixed case, intra-word dots/digits (``3.141``),
underscores, accents, ``*`` glob chars.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from whoosh_novo_ray.analysis import STOP_WORDS

_EXTRA = [
    "x", "y", "z", "Q",  # minsize-dropped
    "3.141", "v1.2.3", "under_score", "big-time", "naïve", "café",
    "CamelCase", "UPPER", "*star*", "don't", "end.", "résumé", "über",
]

_BASE_WORDS = [
    # generic web-ish vocabulary (deterministic; Zipf-ranked by position)
    "the", "search", "index", "page", "data", "query", "term", "document",
    "web", "crawl", "text", "engine", "rank", "score", "link", "site",
    "content", "word", "result", "match", "field", "block", "merge", "sort",
    "shard", "token", "parse", "store", "read", "write", "scan", "list",
    "time", "user", "file", "code", "test", "build", "run", "fast",
]


def _vocab(n_words: int, rng: np.random.Generator) -> list[str]:
    vocab = list(dict.fromkeys(_BASE_WORDS + sorted(STOP_WORDS) + _EXTRA))
    # synthetic long-tail words: deterministic letter strings
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    while len(vocab) < n_words:
        ln = int(rng.integers(3, 11))
        vocab.append("".join(rng.choice(letters, ln)))
    return vocab[:n_words]


def synth_pages(
    n: int = 1000,
    seed: int = 42,
    vocab_size: int = 2000,
    mean_len: int = 60,
    dup_frac: float = 0.02,
) -> pa.Table:
    """Generate ``n`` pages. ``dup_frac`` of urls are exact-duplicate urls with
    a later warc_ts (latest-wins upsert fodder)."""
    rng = np.random.default_rng(seed)
    vocab = np.array(_vocab(vocab_size, rng), dtype=object)
    # Zipf ranks over the vocab
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()

    doc_lens = np.maximum(1, rng.poisson(mean_len, n))
    texts = []
    for i in range(n):
        words = rng.choice(vocab, size=doc_lens[i], p=probs)
        texts.append(" ".join(words.tolist()))

    urls = np.array(
        [f"https://site{i % 37}.example/p/{i}" for i in range(n)], dtype=object
    )
    n_dups = int(n * dup_frac)
    if n_dups:
        dup_targets = rng.choice(n, n_dups, replace=False)
        dup_rows = rng.choice(n, n_dups, replace=False)
        for r, t in zip(dup_rows, dup_targets):
            urls[r] = urls[t]

    base_ts = np.datetime64("2025-01-01T00:00:00", "us")
    ts = base_ts + rng.integers(0, 365 * 24 * 3600, n).astype("timedelta64[s]").astype(
        "timedelta64[us]"
    )
    langs = rng.choice(np.array(["en", "en", "en", "en", "de", "fr"], object), n)
    html = [b"<html><body>" + t.encode("utf-8") + b"</body></html>" for t in texts]

    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
            "html": pa.array(html, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
