"""Seeded benchmark inputs.

Every input is generated in-process from the run's seed with
``whoosh_novo_ray.testing.pages.synth_pages``; nothing is read back from an
earlier run or from the index under test.
"""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from whoosh_novo_ray.analysis import STOP_WORDS
from whoosh_novo_ray.ops.extract import wrap_html_array
from whoosh_novo_ray.testing.pages import synth_pages

VOCAB = 20_000
MEAN_LEN = 120
# Appended to every ingested page, so the refresh checks can prove that a
# replaced page no longer matches its old content.
BASE_MARKER = "zzbase"
# texts kept for the analysis probe
TEXT_SAMPLE = 1000
CLASSES = ("term", "or", "and", "implicit", "phrase", "prefix", "wand")
# One shuffled block of the query mix. Most queries are one or two plain
# words, as in search logs; with equal shares the median would fall on the
# gap between the cheap classes and the slow ones and jump between runs.
BLOCK = ("term",) * 4 + ("implicit",) * 3 + ("and", "or", "phrase", "prefix", "wand")

_PLAIN = re.compile(r"[a-z]{3,}")


def write_corpus(pages: int, seed: int, out_dir: str, shards: int) -> dict:
    """Pages as sharded Parquet ``(doc_id, html)``. Returns the input's text
    bytes, the generator's words ranked by frequency, and a sample of the
    texts."""
    t = synth_pages(n=pages, seed=seed, vocab_size=VOCAB, mean_len=MEAN_LEN)
    texts = t["text"]
    marked = pc.binary_join_element_wise(texts, pa.scalar(BASE_MARKER), " ")
    tbl = pa.table({"doc_id": t["doc_id"], "html": wrap_html_array(marked)})
    os.makedirs(out_dir, exist_ok=True)
    per = -(-pages // shards)
    for i in range(shards):
        part = tbl.slice(i * per, per)
        if len(part):
            pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))
    counts = Counter(w for s in texts.to_pylist() for w in s.split())
    words = sorted(
        (w for w in counts if _PLAIN.fullmatch(w) and w not in STOP_WORDS),
        key=lambda w: (-counts[w], w),
    )
    return {
        "text_bytes": int(pc.sum(pc.binary_length(marked)).as_py()),
        "words": words,
        "texts": texts.slice(0, TEXT_SAMPLE).to_pylist(),
    }


class QueryStream:
    """Endless seeded query mix. Classes come in shuffled ``BLOCK``s. On
    ``head`` words follow a Zipf law (p ~ 1/rank) over the generator's word
    list, so they repeat and hit caches; on ``tail`` they are drawn
    uniformly from all but the most frequent tenth of the list, so nearly
    every term is touched for the first time."""

    def __init__(self, words: list[str], seed: int, mode: str = "head"):
        self.rng = np.random.default_rng(seed)
        if mode == "tail":
            self.words = words[len(words) // 10:]
            p = np.ones(len(self.words))
        else:
            self.words = words
            p = 1.0 / np.arange(1, len(words) + 1)
        self.cdf = np.cumsum(p / p.sum())
        self.block: list[str] = []

    def _draw(self, k: int) -> list[str]:
        out: list[str] = []
        while len(out) < k:
            i = int(np.searchsorted(self.cdf, self.rng.random(), side="right"))
            w = self.words[min(i, len(self.words) - 1)]
            if w not in out:
                out.append(w)
        return out

    def next(self) -> dict:
        if not self.block:
            self.block = [BLOCK[i] for i in self.rng.permutation(len(BLOCK))]
        cls = self.block.pop()
        if cls == "term":
            return {"cls": cls, "text": self._draw(1)[0]}
        if cls == "or":
            return {"cls": cls, "text": " OR ".join(self._draw(3))}
        if cls == "and":
            return {"cls": cls, "text": " AND ".join(self._draw(2))}
        if cls == "implicit":
            return {"cls": cls, "text": " ".join(self._draw(2))}
        if cls == "phrase":
            return {"cls": cls, "text": '"%s"' % " ".join(self._draw(2))}
        if cls == "prefix":
            return {"cls": cls, "text": self._draw(1)[0][:3] + "*"}
        return {"cls": cls, "terms": self._draw(3)}

    def take(self, n: int) -> list[dict]:
        return [self.next() for _ in range(n)]


def make_delta(
    seed: int, rnd: int, pages: int, live_ids: list[int], next_id: int
) -> tuple[pa.Table, str]:
    """One refresh delta: half the pages replace random live ids, half are
    new ids from ``next_id``. Every page carries the round's marker."""
    rng = np.random.default_rng([seed, rnd])
    marker = f"zzmark{rnd}"
    t = synth_pages(n=pages, seed=int(rng.integers(1 << 30)), vocab_size=VOCAB,
                    mean_len=MEAN_LEN)
    n_old = pages // 2
    old = rng.choice(np.asarray(live_ids, np.int64), n_old, replace=False)
    ids = np.concatenate([old, np.arange(next_id, next_id + pages - n_old)])
    text = pc.binary_join_element_wise(t["text"], pa.scalar(marker), " ")
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": text}), marker
