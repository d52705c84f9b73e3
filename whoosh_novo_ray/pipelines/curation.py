"""Training-data curation pipeline: the composed "clean a web crawl" flow.

    documents
      ├─ exact dedup          (keep lowest doc_id per content md5)
      ├─ MinHash near-dup     (drop the higher id of any pair with
      │                        est_jaccard >= dup_threshold)
      ├─ quality + language   (raw token count / stopword-ratio filters —
      │                        streaming map_batches)
      └─ BPE token budget     (per-doc pre-tokenizer count)
      => curated (doc_id, n_bpe_tokens)

Every stage is one of the engine's existing distributed ops; the final
combination is ONE ``shard_reduce`` on doc_id over role-tagged id streams (a bitmask
union join — no driver-side id sets, the same shard-join shape as the
MinHash verify). The near-dup pair stream flows into that join as a tagged
Dataset too: on a dup-heavy crawl the loser list is a constant fraction of
the corpus, so it is never collected, uniqued, or even counted on the
driver — duplicates in the stream are harmless because the join ORs role
bits. MinHash runs with ``collapse_equal=True`` (chain pairs instead of
cliques inside equal-signature groups — same loser set, O(m) not O(m^2)
rows when m docs share a signature).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from whoosh_novo_ray.shuffle import run_starts, shard_reduce

_SURVIVOR = np.uint8(1)
_QUALITY = np.uint8(2)
_LOSER = np.uint8(4)


def _tag(ds: "ray.data.Dataset", role: int, with_n: bool = False):
    r = np.uint8(role)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = (
            batch["n_bpe_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
            if with_n
            else np.zeros(len(ids), np.int64)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "role": pa.array(np.full(len(ids), r, np.uint8), pa.uint8()),
                "n": pa.array(n, pa.int64()),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def curated_corpus_ds(
    docs: "ray.data.Dataset",
    min_tokens: int = 50,
    stop_ratio: float = 0.08,
    dup_threshold: float = 0.9,
) -> "ray.data.Dataset":
    """Curated (doc_id, n_bpe_tokens) as a DATASET (unsorted) — the scale
    path: write_parquet the result, nothing corpus-sized ever touches the
    driver (not the pair set, not the loser ids, not the output).

    A doc survives iff it is the exact-dedup keeper of its content hash,
    passes the quality/language gate (raw tokens >= min_tokens AND
    stopword_ratio >= stop_ratio — the langid-en rule), and is not the
    higher id of any near-duplicate pair (est_jaccard >= dup_threshold).
    """
    from whoosh_novo_ray.ops.dedup import (
        exact_dedup_keep,
        minhash_lsh_candidates_ds,
    )
    from whoosh_novo_ray.ops.textstats import bpe_token_table, quality_table

    survivors = _tag(
        exact_dedup_keep(docs).select_columns(["doc_id"]), _SURVIVOR
    )
    quality = _tag(
        quality_table(docs).filter(
            expr=f"n_tokens_raw >= {min_tokens} and stopword_ratio >= {stop_ratio}"
        ),
        _QUALITY,
    )
    # threshold applied INSIDE the distributed verify join, loser ids
    # streamed straight into the bitmask shard-join: duplicates of a doc_b
    # are harmless (the join ORs role bits), so no unique pass is needed
    # and the pair stream never materializes anywhere central.
    # collapse_equal keeps mass-duplicated docs O(m) instead of O(m^2).
    pairs_ds = minhash_lsh_candidates_ds(
        docs, threshold=dup_threshold, collapse_equal=True
    )

    def project_losers(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_b"]})

    losers = pairs_ds.map_batches(
        project_losers, batch_format="pyarrow", zero_copy_batch=True
    )
    streams = [
        survivors,
        quality,
        _tag(bpe_token_table(docs), 8, with_n=True),
        _tag(losers, _LOSER),
    ]
    tagged = streams[0].union(*streams[1:])

    def combine(shard: pa.Table) -> pa.Table:
        g = shard.sort_by("doc_id")
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        roles = g["role"].to_numpy(zero_copy_only=False)
        ns = g["n"].to_numpy(zero_copy_only=False)
        starts = run_starts(ids)
        bits = np.bitwise_or.reduceat(roles, starts)
        n_bpe = np.maximum.reduceat(ns, starts)  # the bpe row carries it
        keep = (
            ((bits & _SURVIVOR) > 0)
            & ((bits & _QUALITY) > 0)
            & ((bits & _LOSER) == 0)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids[starts][keep], pa.int64()),
                "n_bpe_tokens": pa.array(n_bpe[keep], pa.int64()),
            }
        )

    return shard_reduce(tagged, "doc_id", combine)


def curated_corpus(
    docs: "ray.data.Dataset",
    min_tokens: int = 50,
    stop_ratio: float = 0.08,
    dup_threshold: float = 0.9,
) -> pa.Table:
    """Driver-side table form of :func:`curated_corpus_ds`, sorted by
    doc_id — for tests/oracles and corpora whose curated set fits the
    driver."""
    out = curated_corpus_ds(
        docs,
        min_tokens=min_tokens,
        stop_ratio=stop_ratio,
        dup_threshold=dup_threshold,
    )
    tables = [t for t in ray.get(out.materialize().to_arrow_refs()) if len(t)]
    if not tables:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_bpe_tokens": pa.array([], pa.int64()),
            }
        )
    return pa.concat_tables(tables).sort_by("doc_id")


def training_rows(
    docs: "ray.data.Dataset",
    chunk_tokens: int = 64,
    stride: int = 48,
    pack_budget: int = 512,
    chunk_key_bits: int = 20,
) -> "ray.data.Dataset":
    """The shaping tail of a training-data pipeline, composed end-to-end:

        documents
          -> PII scrub            (typed tags, streaming RE2)
          -> context-window chunk (sliding token windows over clean_text)
          -> sequence packing     (fixed token budget over the global
                                   (doc_id, chunk_idx) order)
          => (doc_id, chunk_idx, n_chunk_tokens, chunk_text, pack_id)

    All three stages are streaming map_batches except the packing
    prefix-sum (one tiny per-range groupby + one range shuffle — see
    ops/packing.pack_sequences). Chunks are ordered globally by the
    composite key ``doc_id << chunk_key_bits | chunk_idx``; with the
    default 20 bits a doc may contribute up to ~1M chunks and doc ids up
    to 2^43 stay exact in int64 — at web scale raise ``chunk_key_bits``
    per corpus shape.
    """
    from whoosh_novo_ray.ops.curation import pii_scrub_table
    from whoosh_novo_ray.ops.packing import chunk_documents, pack_sequences

    clean = pii_scrub_table(docs).select_columns(["doc_id", "clean_text"])

    def as_text(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "text": batch["clean_text"]}
        )

    chunks = chunk_documents(
        clean.map_batches(as_text, batch_format="pyarrow", zero_copy_batch=True),
        chunk_tokens=chunk_tokens,
        stride=stride,
    )

    shift = np.int64(chunk_key_bits)

    def keyed(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].cast(pa.int64()).to_numpy()
        c = batch["chunk_idx"].cast(pa.int64()).to_numpy()
        key = (d << shift) | c
        return pa.table(
            {
                "doc_id": pa.array(key, pa.int64()),
                "text": batch["chunk_text"],
            }
        )

    packed = pack_sequences(
        chunks.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
        budget=pack_budget,
        # a prefix-sum range spans 4096 source docs (the per-range table on
        # the driver stays corpus_size/4096 rows, never per doc/chunk)
        range_width=1 << (chunk_key_bits + 12),
        keep_cols=("text",),
    )

    def unkey(batch: pa.Table) -> pa.Table:
        key = batch["doc_id"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(key >> shift, pa.int64()),
                "chunk_idx": pa.array(key & ((1 << int(shift)) - 1), pa.int64()),
                "n_chunk_tokens": batch["n_tokens"].cast(pa.int64()),
                "pack_id": batch["pack_id"].cast(pa.int64()),
                "chunk_text": batch["text"],
            }
        )

    return packed.map_batches(unkey, batch_format="pyarrow", zero_copy_batch=True)
