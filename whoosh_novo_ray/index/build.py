"""Distributed inverted-index build as a Ray Data pipeline.

Pipeline (cf. SURVEY.md §3.4; replaces the reference's PostingPool external
sort + single-process segment writer, de-odex/whoosh-novo
``src/whoosh/writing.py:136-190,748-822`` and ``codec/whoosh3.py:675-902``):

    docs (doc_id, text)
      -> map_batches(TokenizePostings)        # stateless, zero-copy Arrow out
           rows: (bucket, term, doc_id, tf, len_byte[, positions])
      -> shard_reduce(postings, "bucket", BucketEncoder)   # THE all-to-all shuffle
           every posting of a term-space bucket meets in one reducer call;
           per bucket: vectorized sort by (term, doc_id) + block encode;
           writes segments/bucket=%05d.parquet atomically and returns one
           manifest row
      -> driver collects the (tiny) manifest rows -> manifest.json (the "TOC")

Scale notes:
  * The term-space is hash-partitioned into ``num_buckets`` buckets; at 100 TB
    raise ``num_buckets`` so each bucket (sum of its posting rows) fits a
    worker's heap — the shuffle itself streams through the object store.
  * Heavy (stopword-like) terms are salted: their shuffle key mixes in a
    doc-id *range* slice so one term's postings split across ``salt_k``
    buckets as disjoint, sorted doc-id ranges; the reader concatenates the
    per-bucket block lists (see segment.py). This is the explicit skew
    handling the reference lacks (its only mitigation is the stop filter).
  * Resume: each bucket file carries lineage (input fingerprint) and is
    written via tmp+rename; ``build_index(..., resume=True)`` skips buckets
    already present with matching lineage by filtering the shuffle key.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from whoosh_novo_ray.analysis import (
    StandardAnalyzer,
    analyzer_from_json,
    analyzer_to_json,
)
from whoosh_novo_ray.codec import (
    delta_encode_with_resets,
    encode_positions,
    varint_encode,
)
from whoosh_novo_ray.lengths import lengths_to_bytes
from whoosh_novo_ray.shuffle import key_hash, shard_of, shard_reduce

MANIFEST_NAME = "manifest.json"
# on-disk layout version, written to every manifest; ``Index`` refuses any
# other (4: no block counts or length offsets, empty skip lists on one-block
# terms, serving files without ``lens_blob``, ``weight`` or ``doc_slots``)
FORMAT_VERSION = 4
# the segment layouts ``encode_bucket_table`` writes (term-bucket, serving)
BUCKET_LAYOUT, SERVING_LAYOUT = "bucket", "serving"
_SALT_PRIME = np.uint64(2654435761)
# no analyzer token can contain NUL, so this term marks per-doc metadata rows
# that ride the same shuffle as postings (doc length + length byte)
DOCMETA_TERM = "\x00doc"


@dataclass
class IndexConfig:
    text_col: str = "text"
    id_col: str = "doc_id"
    num_buckets: int = 32
    block_size: int = 128
    with_positions: bool = True
    with_chars: bool = False  # store per-occurrence char offsets (Characters format)
    # per-posting float weights = sum of token boosts (reference
    # Frequency/PositionBoosts formats, formats.py:190-214,345-430); weights
    # are float32-quantized like the reference's pack_float payloads
    with_weights: bool = False
    # optional per-document boost column (the reference's _<field>_boost /
    # _boost kwargs, writing.py): multiplies every posting weight of the doc.
    # Requires with_weights.
    boost_col: str | None = None
    # terms whose postings are split over `salt_k` shuffle keys by doc-id range
    heavy_terms: tuple = ()
    salt_k: int = 8
    salt_shift: int = 12  # heavy-term salt slice = doc_id >> salt_shift
    analyzer: StandardAnalyzer = field(default_factory=StandardAnalyzer)

    def to_json(self) -> dict:
        d = asdict(self)
        d["heavy_terms"] = sorted(self.heavy_terms)
        from whoosh_novo_ray.analysis import NgramAnalyzer, NgramWordsAnalyzer
        from whoosh_novo_ray.charsets import CharsetAnalyzer

        if isinstance(self.analyzer, CharsetAnalyzer):
            # the default Sphinx table round-trips by name; custom charmaps
            # are serialized as {codepoint: replacement}
            from whoosh_novo_ray.charsets import default_charmap

            if self.analyzer.charmap == default_charmap():
                d["analyzer"] = {"type": "charset"}
            else:
                d["analyzer"] = {
                    "type": "charset",
                    "charmap": {str(k): v for k, v in self.analyzer.charmap.items()},
                }
        elif isinstance(self.analyzer, NgramAnalyzer):
            d["analyzer"] = {
                "type": "ngram",
                "minsize": self.analyzer.minsize,
                "maxsize": self.analyzer.maxsize,
            }
        elif isinstance(self.analyzer, NgramWordsAnalyzer):
            d["analyzer"] = {
                "type": "ngram_words",
                "minsize": self.analyzer.minsize,
                "maxsize": self.analyzer.maxsize,
                "at": self.analyzer.at,
            }
        else:
            d["analyzer"] = {"type": "standard", **analyzer_to_json(self.analyzer)}
            if not self.analyzer.stoplist:
                d["analyzer"]["stoplist"] = None  # an empty one persists as null
        return d

    @staticmethod
    def from_json(d: dict) -> "IndexConfig":
        a = d.pop("analyzer")
        if a.get("type") == "charset":
            from whoosh_novo_ray.charsets import CharsetAnalyzer

            cm = a.get("charmap")
            ana = CharsetAnalyzer(
                {int(k): v for k, v in cm.items()} if cm is not None else None
            )
        elif a.get("type") == "ngram":
            from whoosh_novo_ray.analysis import NgramAnalyzer

            ana = NgramAnalyzer(minsize=a["minsize"], maxsize=a["maxsize"])
        elif a.get("type") == "ngram_words":
            from whoosh_novo_ray.analysis import NgramWordsAnalyzer

            ana = NgramWordsAnalyzer(
                minsize=a["minsize"], maxsize=a["maxsize"], at=a.get("at")
            )
        else:
            ana = analyzer_from_json(a)
        d["heavy_terms"] = tuple(d.get("heavy_terms", ()))
        return IndexConfig(analyzer=ana, **d)


def bucket_for_terms(
    cfg: IndexConfig, terms, doc_ids: np.ndarray, codes: np.ndarray | None = None
) -> np.ndarray:
    """Term bucket per posting row, the one term-routing rule of the index
    (``buckets_for_query_terms`` inverts it). Heavy terms mix in a doc-id
    range salt. With ``codes``, row i holds ``terms[codes[i]]`` and each
    term is hashed once; without it row i holds ``terms[i]``."""
    import pandas as pd

    terms = np.asarray(terms, dtype=object)
    h = key_hash(terms)
    heavy = pd.Series(terms).isin(cfg.heavy_terms).to_numpy()
    if codes is not None:
        h, heavy = h[codes], heavy[codes]
    if heavy.any():
        salt = (doc_ids.astype(np.uint64) >> np.uint64(cfg.salt_shift)) % np.uint64(
            cfg.salt_k
        )
        h = h + np.where(heavy, salt * _SALT_PRIME, np.uint64(0))
    return (h % np.uint64(cfg.num_buckets)).astype(np.uint32)


def doc_shard_of(doc_ids, num_shards: int) -> np.ndarray:
    """Doc-id routing rule of every doc-keyed layout: docmeta buckets,
    serving shards, term vectors and attribute shards."""
    return shard_of(doc_ids, num_shards)


def buckets_for_query_terms(cfg: IndexConfig, terms: list[str]) -> list[list[int]]:
    """Per term, every bucket its postings may live in (1 normally, salt_k
    if heavy); the terms hash in one batch."""
    heavy = set(cfg.heavy_terms)
    out = []
    for t, h in zip(terms, key_hash(np.asarray(terms, dtype=object)).tolist()):
        if t in heavy:
            out.append(sorted(
                {(h + s * int(_SALT_PRIME)) % (1 << 64) % cfg.num_buckets
                 for s in range(cfg.salt_k)}
            ))
        else:
            out.append([h % cfg.num_buckets])
    return out


class TokenizePostings:
    """map_batches callable: (doc_id, text) batch -> posting rows.

    Stateless per row but kept as a class so the compiled regex / stop set are
    built once per actor (``__init__``), not per batch.
    """

    def __init__(self, cfg: IndexConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        texts = batch[cfg.text_col].to_pylist()
        doc_ids = batch[cfg.id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        if cfg.with_chars:
            res = cfg.analyzer.analyze_batch_coded(texts, with_chars=True)
        else:
            res = cfg.analyzer.analyze_batch_coded(texts)
        has_boosts = getattr(cfg.analyzer, "boost_delim", None) is not None
        doc_idx, codes, uniques, pos, field_lengths = res[:5]
        rest = list(res[5:])
        if cfg.with_chars:
            s_char, e_char = rest[0], rest[1]
            rest = rest[2:]
        else:
            s_char = e_char = None
        tok_boosts = rest[0] if has_boosts else None
        if len(doc_idx) == 0:
            # no tokens in this batch — still emit the per-doc metadata rows
            return _docmeta_only_table(cfg, doc_ids, field_lengths)

        # group the flat token stream into per-(doc, term) postings
        order = np.lexsort((codes, doc_idx))
        s_doc = doc_idx[order]
        s_code = codes[order]
        s_pos = pos[order]
        if s_char is not None:
            s_sc = s_char[order]
            s_ec = e_char[order]
        s_boost = tok_boosts[order] if tok_boosts is not None else None

        key_change = np.empty(len(s_doc), dtype=bool)
        key_change[0] = True
        np.logical_or(
            s_doc[1:] != s_doc[:-1], s_code[1:] != s_code[:-1], out=key_change[1:]
        )
        starts = np.flatnonzero(key_change)
        tf = np.diff(np.append(starts, len(s_doc))).astype(np.uint32)

        g_doc_idx = s_doc[starts]
        g_codes = s_code[starts]
        g_doc_ids = doc_ids[g_doc_idx]
        g_len_bytes = lengths_to_bytes(field_lengths)[g_doc_idx]

        g_bucket = bucket_for_terms(cfg, uniques, g_doc_ids, codes=g_codes)

        # per-document metadata rows (one per input doc, including token-less
        # docs): term=DOCMETA_TERM, tf=true field length; spread by doc hash
        n_docs = len(texts)
        dm_bucket = doc_shard_of(doc_ids, cfg.num_buckets)
        dm_terms = np.full(n_docs, DOCMETA_TERM, dtype=object)

        all_bucket = np.concatenate([g_bucket, dm_bucket])
        all_terms = np.concatenate([uniques[g_codes], dm_terms])
        all_ids = np.concatenate([g_doc_ids, doc_ids.astype(np.uint64)])
        all_tf = np.concatenate(
            [tf, np.minimum(field_lengths, 2**32 - 1).astype(np.uint32)]
        )
        all_lb = np.concatenate([g_len_bytes, lengths_to_bytes(field_lengths)])

        cols = {
            "bucket": pa.array(all_bucket, pa.uint32()),
            "term": pa.array(all_terms, pa.string()),
            "doc_id": pa.array(all_ids, pa.uint64()),
            "tf": pa.array(all_tf, pa.uint32()),
            "len_byte": pa.array(all_lb, pa.uint8()),
        }
        if cfg.with_weights:
            if s_boost is not None:
                g_weight = np.add.reduceat(s_boost, starts)
            else:
                g_weight = tf.astype(np.float64)
            if cfg.boost_col is not None:
                doc_boost = batch[cfg.boost_col].to_numpy(
                    zero_copy_only=False
                ).astype(np.float64)
                g_weight = g_weight * doc_boost[g_doc_idx]
            cols["weight"] = pa.array(
                np.concatenate([g_weight, np.zeros(n_docs, np.float64)]),
                pa.float64(),
            )
        if cfg.with_positions:
            offsets = np.append(starts, len(s_doc)).astype(np.int32)
            pos_list = pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(s_pos, pa.int32())
            )
            empty = pa.ListArray.from_arrays(
                pa.array(np.zeros(n_docs + 1, np.int32)),
                pa.array([], pa.int32()),
            )
            cols["positions"] = pa.concat_arrays([pos_list, empty])
            if cfg.with_weights and s_boost is not None:
                # per-occurrence boosts, parallel to positions (the
                # PositionBoosts format payload, formats.py:345-409)
                tb_list = pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()),
                    pa.array(s_boost.astype(np.float32), pa.float32()),
                )
                tb_empty = pa.ListArray.from_arrays(
                    pa.array(np.zeros(n_docs + 1, np.int32)),
                    pa.array([], pa.float32()),
                )
                cols["tboosts"] = pa.concat_arrays([tb_list, tb_empty])
        if cfg.with_chars and s_char is not None:
            # interleave (start, end) pairs per occurrence, grouped like
            # positions: per posting 2*tf values, non-decreasing
            inter = np.empty(2 * len(s_doc), np.int32)
            inter[0::2] = s_sc
            inter[1::2] = s_ec
            offsets2 = (2 * np.append(starts, len(s_doc))).astype(np.int32)
            ch_list = pa.ListArray.from_arrays(
                pa.array(offsets2, pa.int32()), pa.array(inter, pa.int32())
            )
            empty2 = pa.ListArray.from_arrays(
                pa.array(np.zeros(n_docs + 1, np.int32)), pa.array([], pa.int32())
            )
            cols["chars"] = pa.concat_arrays([ch_list, empty2])
        return pa.table(cols)


def _docmeta_only_table(cfg: IndexConfig, doc_ids: np.ndarray, field_lengths: np.ndarray) -> pa.Table:
    n_docs = len(doc_ids)
    cols = {
        "bucket": pa.array(doc_shard_of(doc_ids, cfg.num_buckets), pa.uint32()),
        "term": pa.array(np.full(n_docs, DOCMETA_TERM, dtype=object), pa.string()),
        "doc_id": pa.array(doc_ids.astype(np.uint64), pa.uint64()),
        "tf": pa.array(
            np.minimum(field_lengths, 2**32 - 1).astype(np.uint32), pa.uint32()
        ),
        "len_byte": pa.array(lengths_to_bytes(field_lengths), pa.uint8()),
    }
    if cfg.with_weights:
        cols["weight"] = pa.array(np.zeros(n_docs, np.float64), pa.float64())
    if cfg.with_positions:
        cols["positions"] = pa.ListArray.from_arrays(
            pa.array(np.zeros(n_docs + 1, np.int32)), pa.array([], pa.int32())
        )
        if cfg.with_weights and getattr(cfg.analyzer, "boost_delim", None):
            cols["tboosts"] = pa.ListArray.from_arrays(
                pa.array(np.zeros(n_docs + 1, np.int32)),
                pa.array([], pa.float32()),
            )
    if cfg.with_chars:
        cols["chars"] = pa.ListArray.from_arrays(
            pa.array(np.zeros(n_docs + 1, np.int32)), pa.array([], pa.int32())
        )
    return pa.table(cols)


def _large_binary_from_slices(big: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array: value i = big[offsets[i]:offsets[i+1]]."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int64).tobytes()), pa.py_buffer(big.tobytes())],
    )


def _list_array(values: pa.Array, counts: np.ndarray) -> pa.ListArray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


def _check_counts(name: str, counts: np.ndarray, want: np.ndarray) -> None:
    """The positions wire format stores no count: the reader takes it from
    the posting's tf, so a posting whose list length differs cannot be
    written."""
    bad = np.flatnonzero(counts != want.astype(np.int64))
    if len(bad):
        raise ValueError(
            f"{len(bad)} postings have a {name} count that does not follow "
            f"their tf (first: {int(counts[bad[0]])} values, "
            f"{int(want[bad[0]])} expected)"
        )


def encode_bucket_table(
    tbl: pa.Table, block_size: int, with_positions: bool, layout: str = BUCKET_LAYOUT
) -> pa.Table:
    """Vectorized posting-block encoding of one term-space bucket.

    Sorts by (term, doc_id), finds term runs, delta+varint encodes doc ids
    (absolute value at every block start so blocks decode independently),
    varints tfs, keeps length bytes raw, and computes the per-block skip
    table (max id / max weight / min len byte, blob offsets; empty lists
    for a one-block term) with ``np.*.reduceat`` — no per-term Python
    loop. Positions (and char offsets) store no per-posting count: a
    posting's position count must equal its tf (2 * tf chars values), which
    the reader relies on, so a mismatch raises ``ValueError``.

    ``layout`` is ``BUCKET_LAYOUT`` or ``SERVING_LAYOUT``. The term-bucket
    files carry ``weight``, ``lens_blob`` and ``doc_slots``, a per-term
    uint64 with bit ``key_hash(doc_id) % 64`` set for each posting. A
    serving shard is ``key_hash(doc_id) % n`` (``doc_shard_of``), so a
    term's mask bounds its shard set (exactly when ``n`` is a power of
    two): the score pool sends a query only to the actors that pin one of
    those shards. The serving files leave all three out: a scoring actor
    takes length bytes from its docmeta and scores with global stats.
    """
    if layout not in (BUCKET_LAYOUT, SERVING_LAYOUT):
        raise ValueError(f"unknown segment layout {layout!r}")
    n = len(tbl)
    # dictionary-encode terms (C pass), then sort postings by
    # (lexicographic term rank, doc_id) entirely in numpy — much cheaper
    # than an Arrow sort over the raw string column.
    dict_arr = pc.dictionary_encode(tbl["term"].combine_chunks())
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    raw_codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dictionary = np.asarray(dict_arr.dictionary.to_pylist(), dtype=object)
    dict_order = np.argsort(dictionary, kind="stable")
    rank = np.empty(len(dictionary), np.int64)
    rank[dict_order] = np.arange(len(dictionary))
    sort_key = rank[raw_codes]

    doc_ids_u = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.lexsort((doc_ids_u, sort_key))

    codes = sort_key[order]
    doc_ids = doc_ids_u[order]
    tfs = tbl["tf"].to_numpy(zero_copy_only=False).astype(np.uint64)[order]
    len_bytes = tbl["len_byte"].to_numpy(zero_copy_only=False).astype(np.uint8)[order]
    # per-posting weights: float32-quantized token-boost sums when present
    # (the reference packs summed boosts as 4-byte floats), else weight == tf
    if "weight" in tbl.column_names:
        w32 = tbl["weight"].to_numpy(zero_copy_only=False).astype(np.float32)[order]
    else:
        w32 = None
    sorted_terms = dictionary[dict_order]

    term_change = np.empty(n, dtype=bool)
    term_change[0] = True
    term_change[1:] = codes[1:] != codes[:-1]
    term_starts = np.flatnonzero(term_change)
    uniq_terms = pa.array(sorted_terms[codes[term_starts]], pa.string())
    n_terms = len(term_starts)
    df = np.diff(np.append(term_starts, n)).astype(np.int64)

    # block starts: every `block_size` postings within a term
    within = np.arange(n) - np.repeat(term_starts, df)
    block_start_mask = (within % block_size) == 0
    block_starts = np.flatnonzero(block_start_mask)
    nblocks_per_term = ((df + block_size - 1) // block_size).astype(np.int64)
    # end (exclusive) of each block
    term_end = np.repeat(np.append(term_starts[1:], n), nblocks_per_term)
    block_ends = np.minimum(block_starts + block_size, term_end)
    # skip lists are written for multi-block terms only
    listed = np.repeat(df > block_size, nblocks_per_term)
    n_listed = np.where(df > block_size, nblocks_per_term, 0)

    def skip_list(values: np.ndarray, typ: pa.DataType) -> pa.ListArray:
        return _list_array(pa.array(values[listed], typ), n_listed)

    # encode doc ids
    deltas = delta_encode_with_resets(doc_ids, block_start_mask)
    ids_buf, ids_nb = varint_encode(deltas)
    ids_byte_end = np.cumsum(ids_nb)
    ids_byte_start = ids_byte_end - ids_nb

    tfs_buf, tfs_nb = varint_encode(tfs)
    tfs_byte_end = np.cumsum(tfs_nb)
    tfs_byte_start = tfs_byte_end - tfs_nb

    # per-block stats (weight == tf unless boost weights were supplied)
    w = w32.astype(np.float64) if w32 is not None else tfs.astype(np.float64)
    block_max_w = np.maximum.reduceat(w, block_starts)
    block_min_lb = np.minimum.reduceat(len_bytes, block_starts)
    block_max_id = doc_ids[block_ends - 1]

    # per-term aggregates
    term_weight = np.add.reduceat(w, term_starts)
    term_max_w = np.maximum.reduceat(w, term_starts)
    term_min_lb = np.minimum.reduceat(len_bytes, term_starts)

    # per-term byte ranges in the big buffers
    t_ids_off = ids_byte_start[term_starts]
    t_ids_end = np.append(t_ids_off[1:], ids_byte_end[-1] if n else 0)
    t_tfs_off = tfs_byte_start[term_starts]
    t_tfs_end = np.append(t_tfs_off[1:], tfs_byte_end[-1] if n else 0)

    # per-block offsets *relative to the term's blob start*
    blk_ids_off = (ids_byte_start[block_starts] - np.repeat(t_ids_off, nblocks_per_term)).astype(
        np.uint64
    )
    blk_tfs_off = (tfs_byte_start[block_starts] - np.repeat(t_tfs_off, nblocks_per_term)).astype(
        np.uint64
    )

    cols: dict[str, pa.Array] = {
        "term": uniq_terms,
        "df": pa.array(df.astype(np.uint64), pa.uint64()),
        "weight": pa.array(term_weight, pa.float64()),
        "max_weight": pa.array(term_max_w, pa.float64()),
        "min_len_byte": pa.array(term_min_lb, pa.uint8()),
        "block_max_ids": skip_list(block_max_id, pa.uint64()),
        "block_max_weights": skip_list(block_max_w, pa.float64()),
        "block_min_lens": skip_list(block_min_lb, pa.uint8()),
        "block_ids_off": skip_list(blk_ids_off, pa.uint64()),
        "block_tfs_off": skip_list(blk_tfs_off, pa.uint64()),
        "ids_blob": _large_binary_from_slices(ids_buf, np.append(t_ids_off, t_ids_end[-1:])),
        "tfs_blob": _large_binary_from_slices(tfs_buf, np.append(t_tfs_off, t_tfs_end[-1:])),
        "lens_blob": _large_binary_from_slices(
            len_bytes, np.append(term_starts, n).astype(np.int64)
        ),
    }
    if layout == SERVING_LAYOUT:
        del cols["weight"], cols["lens_blob"]
    else:
        slot_bits = np.left_shift(np.uint64(1), key_hash(doc_ids) % np.uint64(64))
        cols["doc_slots"] = pa.array(
            np.bitwise_or.reduceat(slot_bits, term_starts), pa.uint64()
        )
    if w32 is not None:
        # fixed 4 bytes/posting: byte offsets derive from posting ordinals
        cols["wts_blob"] = _large_binary_from_slices(
            w32.view(np.uint8), np.append(term_starts, n).astype(np.int64) * 4
        )

    if "chars" in tbl.column_names:
        ch_col = pc.take(tbl["chars"].combine_chunks(), pa.array(order))
        if isinstance(ch_col, pa.ChunkedArray):
            ch_col = ch_col.combine_chunks()
        ch_counts = np.diff(ch_col.offsets.to_numpy()).astype(np.int64)
        _check_counts("chars", ch_counts, 2 * tfs)
        ch_flat = ch_col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
        ch_buf, per_posting_ch = encode_positions(ch_flat, ch_counts)
        ch_byte_end = np.cumsum(per_posting_ch)
        ch_byte_start = ch_byte_end - per_posting_ch
        t_ch_off = ch_byte_start[term_starts]
        t_ch_end = np.append(t_ch_off[1:], ch_byte_end[-1] if n else 0)
        blk_ch_off = (
            ch_byte_start[block_starts] - np.repeat(t_ch_off, nblocks_per_term)
        ).astype(np.uint64)
        cols["block_chars_off"] = skip_list(blk_ch_off, pa.uint64())
        cols["chars_blob"] = _large_binary_from_slices(
            ch_buf, np.append(t_ch_off, t_ch_end[-1:])
        )

    if "tboosts" in tbl.column_names:
        # per-occurrence boost payload: fixed 4B floats parallel to the
        # positions stream; per-term byte offsets = 4 * occurrence ordinal
        tb_col = pc.take(tbl["tboosts"].combine_chunks(), pa.array(order))
        if isinstance(tb_col, pa.ChunkedArray):
            tb_col = tb_col.combine_chunks()
        tb_flat = tb_col.values.to_numpy(zero_copy_only=False).astype(np.float32)
        occ = np.zeros(n + 1, np.int64)
        np.cumsum(tfs.astype(np.int64), out=occ[1:])
        t_occ = occ[np.append(term_starts, n)]
        cols["pboosts_blob"] = _large_binary_from_slices(
            tb_flat.view(np.uint8), t_occ * 4
        )

    if with_positions and "positions" in tbl.column_names:
        pos_col = pc.take(tbl["positions"].combine_chunks(), pa.array(order))
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        pos_counts = np.diff(pos_col.offsets.to_numpy()).astype(np.int64)
        _check_counts("positions", pos_counts, tfs)
        pos_flat = pos_col.values.to_numpy(zero_copy_only=False).astype(np.uint64)
        pos_buf, per_posting_nb = encode_positions(pos_flat, pos_counts)
        pos_byte_end = np.cumsum(per_posting_nb)
        pos_byte_start = pos_byte_end - per_posting_nb
        t_pos_off = pos_byte_start[term_starts]
        t_pos_end = np.append(t_pos_off[1:], pos_byte_end[-1] if n else 0)
        blk_pos_off = (
            pos_byte_start[block_starts] - np.repeat(t_pos_off, nblocks_per_term)
        ).astype(np.uint64)
        cols["block_pos_off"] = skip_list(blk_pos_off, pa.uint64())
        cols["pos_blob"] = _large_binary_from_slices(
            pos_buf, np.append(t_pos_off, t_pos_end[-1:])
        )

    return pa.table(cols)


# Parquet settings of segment files. Footer and page statistics only on
# ``term``: its row-group bounds are ``_TermBlocks``' block index, and no
# reader uses another column's (on a blob column they copy whole min/max
# blobs into the footer and every page header). No dictionary pages over
# the columns whose values are (nearly) unique per row, where a dictionary
# measured larger than plain pages; ``tfs_blob`` and the other columns keep
# theirs. DELTA_BYTE_ARRAY shares the prefixes of the sorted terms. Docmeta
# files keep the defaults: a ``doc_id`` filter is pushed into them
# (``_member_contains``).
_SEGMENT_NO_DICTIONARY = (
    "term", "ids_blob", "pos_blob", "chars_blob", "lens_blob", "doc_slots",
)


def write_segment(seg: pa.Table, path: str) -> None:
    """Write one term-sorted segment table (``encode_bucket_table``)."""
    pq.write_table(
        seg,
        path,
        compression="zstd",
        row_group_size=4096,
        write_statistics=["term"],
        use_dictionary=[
            f"{f.name}.list.element" if pa.types.is_list(f.type) else f.name
            for f in seg.schema
            if f.name not in _SEGMENT_NO_DICTIONARY
        ],
        column_encoding={"term": "DELTA_BYTE_ARRAY"},
    )


class BucketEncoder:
    """``shard_reduce`` reducer on "bucket": encode + atomically write each
    bucket's segment file; emits one manifest row per bucket, whose
    ``bytes`` is the size of the segment plus docmeta files it wrote."""

    def __init__(self, out_dir: str, cfg: IndexConfig, lineage: str, layout=BUCKET_LAYOUT):
        self.out_dir = out_dir
        self.cfg = cfg
        self.lineage = lineage
        self.layout = layout

    def __call__(self, shard: pa.Table) -> pa.Table:
        is_meta = pc.equal(shard["term"], DOCMETA_TERM)
        return pa.concat_tables(
            self._encode(b, shard, pc.equal(shard["bucket"], b), is_meta)
            for b in pc.unique(shard["bucket"]).to_pylist()
        )

    def _encode(self, bucket: int, shard: pa.Table, in_bucket, is_meta) -> pa.Table:
        meta_rows = shard.filter(pc.and_(in_bucket, is_meta))
        group = shard.filter(pc.and_(in_bucket, pc.invert(is_meta)))
        n_meta = len(meta_rows)
        n_bytes = 0
        if n_meta:
            dm = pa.table(
                {
                    "doc_id": meta_rows["doc_id"],
                    "length": meta_rows["tf"],
                    "len_byte": meta_rows["len_byte"],
                }
            ).sort_by("doc_id")
            dm_dir = os.path.join(self.out_dir, "docmeta")
            os.makedirs(dm_dir, exist_ok=True)
            dm_final = os.path.join(dm_dir, f"bucket={bucket:05d}.parquet")
            dm_tmp = dm_final + f".tmp.{os.getpid()}"
            pq.write_table(dm, dm_tmp, compression="zstd")
            os.replace(dm_tmp, dm_final)
            n_bytes += os.path.getsize(dm_final)
        if len(group) == 0:
            # docmeta-only bucket: no segment file, but the n_docs_meta count
            # MUST survive into the manifest — the merge path derives
            # doc_count from sum(n_docs_meta), and dropping these rows
            # undercounts doc_count (corrupting idf / avg_field_length on
            # merged generations). path="" marks "no segment" for readers.
            return pa.table(
                {
                    "bucket": pa.array([bucket], pa.uint32()),
                    "path": pa.array([""]),
                    "n_terms": pa.array([0], pa.uint64()),
                    "n_postings": pa.array([0], pa.uint64()),
                    "sum_tf": pa.array([0.0], pa.float64()),
                    "n_docs_meta": pa.array([n_meta], pa.uint64()),
                    "min_term": pa.array([""]),
                    "max_term": pa.array([""]),
                    "lineage": pa.array([self.lineage]),
                    "bytes": pa.array([n_bytes], pa.uint64()),
                }
            )
        seg = encode_bucket_table(
            group.drop_columns(["bucket"]),
            self.cfg.block_size,
            self.cfg.with_positions,
            layout=self.layout,
        )
        seg_dir = os.path.join(self.out_dir, "segments")
        os.makedirs(seg_dir, exist_ok=True)
        final = os.path.join(seg_dir, f"bucket={bucket:05d}.parquet")
        tmp = final + f".tmp.{os.getpid()}"
        write_segment(seg, tmp)
        os.replace(tmp, final)  # atomic; reruns are idempotent
        n_bytes += os.path.getsize(final)
        return pa.table(
            {
                "bucket": pa.array([bucket], pa.uint32()),
                "path": pa.array([f"segments/bucket={bucket:05d}.parquet"]),
                "n_terms": pa.array([len(seg)], pa.uint64()),
                "n_postings": pa.array([len(group)], pa.uint64()),
                "sum_tf": pa.array([float(pc.sum(group["tf"]).as_py() or 0)], pa.float64()),
                "n_docs_meta": pa.array([n_meta], pa.uint64()),
                "min_term": pa.array([seg["term"][0].as_py()]),
                "max_term": pa.array([seg["term"][-1].as_py()]),
                "lineage": pa.array([self.lineage]),
                "bytes": pa.array([n_bytes], pa.uint64()),
            }
        )


def _bucketize_postings(cfg: IndexConfig):
    """map_batches fn adding the shuffle key to bare posting rows (used by the
    merge job, which re-creates posting rows from existing segments)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        terms = np.asarray(batch["term"].to_pylist(), dtype=object)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        is_meta = terms == DOCMETA_TERM
        bucket = bucket_for_terms(cfg, terms, doc_ids)
        bucket[is_meta] = doc_shard_of(doc_ids[is_meta], cfg.num_buckets)
        return batch.add_column(0, "bucket", pa.array(bucket, pa.uint32()))

    return add_bucket


def _run_bucket_shuffle(
    postings: "ray.data.Dataset",
    out_dir: str,
    cfg: IndexConfig,
    lineage: str,
    resume: bool,
    doc_count: int | None,
    layout: str = BUCKET_LAYOUT,
) -> dict:
    """The shared tail of every build: bucket shuffle -> encode -> manifest,
    writing segment files of ``layout`` (``encode_bucket_table``)."""
    os.makedirs(out_dir, exist_ok=True)

    done_buckets: dict[int, dict] = {}
    man_path = os.path.join(out_dir, MANIFEST_NAME)
    if resume and os.path.exists(man_path):
        with open(man_path) as f:
            old = json.load(f)
        if (
            old.get("config") == cfg.to_json()
            and old.get("format_version") == FORMAT_VERSION
        ):
            for b in old.get("buckets", []):
                # docmeta-only buckets have path="" (no segment file); their
                # durable artifact is the docmeta parquet
                artifact = b["path"] or os.path.join(
                    "docmeta", f"bucket={b['bucket']:05d}.parquet"
                )
                if b.get("lineage") == lineage and os.path.exists(
                    os.path.join(out_dir, artifact)
                ):
                    done_buckets[b["bucket"]] = b

    t0 = time.perf_counter()
    if done_buckets:
        missing = sorted(set(range(cfg.num_buckets)) - set(done_buckets))
        if not missing:
            postings = None
        else:
            missing_set = pa.array(np.array(missing, np.uint32))
            postings = postings.map_batches(
                lambda b: b.filter(pc.is_in(b["bucket"], value_set=missing_set)),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )

    rows = []
    if postings is not None:
        encoder = BucketEncoder(out_dir, cfg, lineage, layout)

        def encode_group(shard: pa.Table) -> pa.Table:
            return encoder(shard)

        manifest_ds = shard_reduce(postings, "bucket", encode_group)
        rows = manifest_ds.take_all()  # tiny: one row per bucket

    build_secs = time.perf_counter() - t0
    buckets = list(done_buckets.values()) + [
        {
            "bucket": int(r["bucket"]),
            "path": r["path"],
            "n_terms": int(r["n_terms"]),
            "n_postings": int(r["n_postings"]),
            "sum_tf": float(r["sum_tf"]),
            "n_docs_meta": int(r.get("n_docs_meta", 0)),
            "min_term": r["min_term"],
            "max_term": r["max_term"],
            "lineage": r["lineage"],
            "bytes": int(r["bytes"]),
        }
        for r in rows
    ]
    buckets.sort(key=lambda b: b["bucket"])
    n_meta = int(sum(b.get("n_docs_meta", 0) for b in buckets))
    manifest = {
        "format_version": FORMAT_VERSION,
        "generation": int(time.time()),
        "doc_count": int(doc_count) if doc_count is not None else n_meta,
        # sum_tf is computed AFTER the encoder splits out docmeta rows, so it
        # is exactly the total field length (sum of posting tfs)
        "total_field_length": float(sum(b["sum_tf"] for b in buckets)),
        "n_postings": int(sum(b["n_postings"] for b in buckets)),
        "build_secs": build_secs,
        "config": cfg.to_json(),
        "lineage": lineage,
        "buckets": buckets,
    }
    tmp = man_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, man_path)
    return manifest


class _BatchDf:
    """map_batches callable for the heavy-term df sketch: per batch, the
    number of DISTINCT docs containing each term, pre-filtered to terms seen
    in >= ``min_batch_df`` docs (a globally heavy term cannot miss that bar
    in a reasonably-sized batch, and it keeps hapax terms out of the
    merge). One extra row with a null term holds the batch's doc count, so
    the merge knows the sample size without a second pass."""

    def __init__(self, cfg: IndexConfig, min_batch_df: int):
        self.cfg = cfg
        self.min_batch_df = min_batch_df

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.cfg.text_col].to_pylist()
        doc_idx, codes, uniques, _pos, _fl = self.cfg.analyzer.analyze_batch_coded(
            texts
        )
        terms, dfs = np.empty(0, object), np.empty(0, np.int64)
        if len(doc_idx):
            key = doc_idx.astype(np.int64) * len(uniques) + codes
            uk = np.unique(key)
            cnt = np.bincount((uk % len(uniques)).astype(np.int64), minlength=len(uniques))
            keep = cnt >= self.min_batch_df
            terms, dfs = uniques[keep], cnt[keep].astype(np.int64)
        return pa.table(
            {
                "term": pa.array([None, *terms], pa.string()),
                "df": pa.array([len(texts), *dfs], pa.int64()),
            }
        )


@ray.remote
def _heavy_merge(
    heavy_df_frac: float, min_batch_df: int, max_terms: int, *parts: pa.Table
) -> list[str]:
    """Sum the sketch's per-batch partials: the terms with df >= the
    threshold, by (df desc, term asc), at most ``max_terms``."""
    tbl = pa.concat_tables(parts)
    is_n = tbl["term"].is_null()
    n_sample = max(1, pc.sum(tbl.filter(is_n)["df"]).as_py() or 0)
    threshold = max(float(min_batch_df), heavy_df_frac * n_sample)
    g = tbl.filter(pc.invert(is_n)).group_by("term").aggregate([("df", "sum")])
    g = g.filter(pc.greater_equal(g["df_sum"], threshold))
    g = g.sort_by([("df_sum", "descending"), ("term", "ascending")])
    return g["term"].to_pylist()[:max_terms]


def detect_heavy_terms(
    docs: "ray.data.Dataset",
    cfg: IndexConfig,
    doc_count: int | None = None,
    sample_frac: float | None = None,
    heavy_df_frac: float = 0.05,
    max_terms: int = 64,
    min_batch_df: int = 2,
    seed: int = 7,
) -> tuple[str, ...]:
    """Cheap df-sketch pre-pass: terms whose (sampled) document frequency is
    >= ``heavy_df_frac`` of sampled docs — the candidates for bucket-shuffle
    salting (SURVEY §7.2 milestone 6), most frequent first, ties by term.

    The sampled pipeline runs once: per-batch (term, df) partials, each
    with its batch's doc count, feed one plain task that sums them and
    applies the threshold. No exchange is needed: the sample is capped at
    ~50k docs (``sample_frac=None`` auto-sizes it; full scan below that),
    so the partials are small, and only the terms come back."""
    if doc_count is None:
        doc_count = docs.count()
    if doc_count == 0:
        return ()
    if sample_frac is None:
        sample_frac = min(1.0, 50_000 / doc_count)
    sampled = docs if sample_frac >= 1.0 else docs.random_sample(sample_frac, seed=seed)
    partials = sampled.map_batches(
        _BatchDf(cfg, min_batch_df), batch_format="pyarrow", zero_copy_batch=True
    )
    refs = partials.materialize().to_arrow_refs()
    if not refs:
        return ()
    return tuple(
        ray.get(_heavy_merge.remote(heavy_df_frac, min_batch_df, max_terms, *refs))
    )


def build_index(
    docs: "ray.data.Dataset",
    out_dir: str,
    cfg: IndexConfig | None = None,
    lineage: str = "",
    resume: bool = False,
    auto_heavy: bool | dict = False,
    doc_count: int | None = None,
) -> dict:
    """Build an inverted index at ``out_dir`` from a docs Dataset.

    Returns the manifest dict (also written to ``out_dir/manifest.json``).
    ``lineage`` should fingerprint the input (paths + row counts + config);
    with ``resume=True``, buckets already on disk whose manifest lineage
    matches are skipped (the shuffle is filtered down to missing buckets).

    ``auto_heavy=True`` (or a dict of ``detect_heavy_terms`` kwargs) runs
    the df-sketch pre-pass and salts the detected heavy terms, so skewed
    (stopword-like) postings split across buckets without the caller having
    to declare them. Skipped when ``cfg.heavy_terms`` is already set.
    """
    cfg = cfg or IndexConfig()
    # Defend against under-partitioned inputs: a single-block Dataset (e.g.
    # ray.data.from_arrow, or read_parquet of one small file) would run the
    # ENTIRE tokenize stage as one serial task. When the input's block count
    # is visible (materialized) and too small for the cluster, repartition —
    # the extra pass over raw text is far cheaper than serial tokenization.
    # Without a ``doc_count`` the manifest counts the docmeta rows (one per
    # input doc): count() on a lazy Dataset would run the pipeline twice.
    from ray.data.dataset import MaterializedDataset

    if isinstance(docs, MaterializedDataset):
        if doc_count is None:
            doc_count = docs.count()  # metadata-only when materialized
        nb = docs.num_blocks()  # a lazy dataset's block count is the reader's
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        target = min(max(ncpu, 8), max(1, doc_count // 200))
        if nb < max(2, target // 2):
            docs = docs.repartition(target)
    if auto_heavy and not cfg.heavy_terms:
        kwargs = auto_heavy if isinstance(auto_heavy, dict) else {}
        detected = detect_heavy_terms(docs, cfg, doc_count=doc_count, **kwargs)
        if detected:
            import dataclasses as _dc

            cfg = _dc.replace(cfg, heavy_terms=detected)
    postings = docs.map_batches(
        TokenizePostings(cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _run_bucket_shuffle(postings, out_dir, cfg, lineage, resume, doc_count)


def build_index_from_postings(
    postings: "ray.data.Dataset",
    out_dir: str,
    cfg: IndexConfig,
    lineage: str = "",
    resume: bool = False,
) -> dict:
    """Build an index from bare posting rows (term, doc_id, tf, len_byte
    [, positions]) that include DOCMETA_TERM rows — the merge-job entry."""
    bucketed = postings.map_batches(
        _bucketize_postings(cfg), batch_format="pyarrow", zero_copy_batch=True
    )
    return _run_bucket_shuffle(bucketed, out_dir, cfg, lineage, resume, None)
