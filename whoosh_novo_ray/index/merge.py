"""Segment merge / compaction as a Ray Data job.

Batch equivalent of the reference's ``add_reader`` re-streaming merge and the
OPTIMIZE merge policy (de-odex/whoosh-novo ``src/whoosh/writing.py:62-130,
672-740``): every input index's segment rows are decoded back into posting
rows (vectorized), the per-doc metadata rows are re-emitted, optional
deletes are filtered out, and the combined stream goes through the SAME
bucket shuffle + block encoder as a fresh build — producing one merged
generation with its own manifest.

The read is :func:`read_bucket_postings`, shared with the doc-shard serving
build (index/docshard.py): ONE read task per (input, bucket) decodes that
bucket's segment file and its docmeta file, one Parquet row group at a time.
Reading the segments and the docmeta as two ``read_parquet`` streams and
``union``-ing them doubled the blocks and the Ray Data operators the
shuffle then pays for, per block and per stage, for no extra parallelism.

Doc-id spaces of the inputs must be disjoint (the caller offsets them, as the
reference does with per-segment doc offsets, reading.py:1012-1016). For
replace-by-id upserts use GenerationalIndex.update_documents
(index/incremental.py), which trims the replaced ids from the old generation
before merging — the reference's update_document semantics
(writing.py:439-502).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from whoosh_novo_ray.index.build import (
    DOCMETA_TERM,
    IndexConfig,
    build_index_from_postings,
)
from whoosh_novo_ray.index.segment import Index, blob_concat, decode_postings


class DecodeSegmentRows:
    """map_batches callable: segment term rows -> flat posting rows
    (term, doc_id, tf, len_byte[, weight][, positions, tboosts][, chars]).

    Fully batch-vectorized: every term row's blobs concatenate into one
    buffer per kind (zero-copy off the Arrow values buffers), ONE varint
    pass decodes the whole batch, and the per-block absolute resets replay
    through a single segmented cumsum over the flattened block structure —
    no per-row Python loop. This is the hot half of every compaction /
    merge / serving-shard build."""

    def __init__(self, with_positions: bool, delete_ids: np.ndarray | None = None):
        self.with_positions = with_positions
        self.delete_ids = (
            np.sort(delete_ids.astype(np.uint64)) if delete_ids is not None else None
        )

    def _empty(self, wp: bool, wc: bool, ww: bool, wpb: bool) -> pa.Table:
        cols = {
            "term": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.uint64()),
            "tf": pa.array([], pa.uint32()),
            "len_byte": pa.array([], pa.uint8()),
        }
        if ww:
            cols["weight"] = pa.array([], pa.float64())
        if wp:
            cols["positions"] = pa.array([], pa.list_(pa.int32()))
            if wpb:
                cols["tboosts"] = pa.array([], pa.list_(pa.float32()))
        if wc:
            cols["chars"] = pa.array([], pa.list_(pa.int32()))
        return pa.table(cols)

    def columns(self, names: list[str]) -> list[str]:
        """The columns of a segment file (with column ``names``) that the
        decode reads; the skip lists and the term stats are left out."""
        want = ["term", "df", "block_counts", "ids_blob", "tfs_blob", "lens_blob",
                "wts_blob", "chars_blob"]
        if self.with_positions:
            want += ["pos_blob", "pboosts_blob"]
        return [c for c in want if c in names]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from whoosh_novo_ray.codec import decode_positions_flat

        wp = self.with_positions and "pos_blob" in batch.column_names
        wc = "chars_blob" in batch.column_names
        ww = "wts_blob" in batch.column_names
        wpb = wp and "pboosts_blob" in batch.column_names
        if not len(batch):
            return self._empty(wp, wc, ww, wpb)
        df = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        if int(df.sum()) == 0:
            return self._empty(wp, wc, ww, wpb)
        terms = np.repeat(
            np.asarray(batch["term"].to_pylist(), dtype=object), df
        )
        ids, tfs = decode_postings(batch)
        lens = blob_concat(batch["lens_blob"])
        weights = (
            blob_concat(batch["wts_blob"]).view(np.float32).astype(np.float64)
            if ww
            else None
        )
        pos_flat = pos_counts = tb_flat = None
        if wp:
            pos_flat, pos_counts = decode_positions_flat(
                blob_concat(batch["pos_blob"]), tfs
            )
            if wpb:
                tb_flat = (
                    blob_concat(batch["pboosts_blob"])
                    .view(np.float32)
                    .astype(np.float64)
                )
        ch_flat = ch_counts = None
        if wc:
            ch_flat, ch_counts = decode_positions_flat(
                blob_concat(batch["chars_blob"]), tfs * np.uint64(2)
            )
        if self.delete_ids is not None and len(self.delete_ids):
            keep = ~np.isin(ids, self.delete_ids)
            if wp:
                occ = np.repeat(keep, pos_counts)
                pos_flat = pos_flat[occ]
                if wpb:
                    tb_flat = tb_flat[occ]
                pos_counts = pos_counts[keep]
            if wc:
                occ2 = np.repeat(keep, ch_counts)
                ch_flat = ch_flat[occ2]
                ch_counts = ch_counts[keep]
            terms, ids, tfs, lens = terms[keep], ids[keep], tfs[keep], lens[keep]
            if ww:
                weights = weights[keep]
            if not len(ids):
                return self._empty(wp, wc, ww, wpb)
        cols = {
            "term": pa.array(terms, pa.string()),
            "doc_id": pa.array(ids, pa.uint64()),
            "tf": pa.array(tfs.astype(np.uint32), pa.uint32()),
            "len_byte": pa.array(lens, pa.uint8()),
        }
        if ww:
            cols["weight"] = pa.array(weights, pa.float64())
        if wp:
            counts = pos_counts.astype(np.int64)
            offsets = np.zeros(len(counts) + 1, np.int32)
            np.cumsum(counts, out=offsets[1:])
            cols["positions"] = pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()),
                pa.array(pos_flat.astype(np.int32), pa.int32()),
            )
            if wpb:
                cols["tboosts"] = pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()),
                    pa.array(tb_flat.astype(np.float32), pa.float32()),
                )
        if wc:
            c2 = ch_counts.astype(np.int64)
            off2 = np.zeros(len(c2) + 1, np.int32)
            np.cumsum(c2, out=off2[1:])
            cols["chars"] = pa.ListArray.from_arrays(
                pa.array(off2, pa.int32()),
                pa.array(ch_flat.astype(np.int32), pa.int32()),
            )
        return pa.table(cols)


def docmeta_rows_fn(
    ww: bool, wp: bool, wpb: bool, wc: bool, del_set: np.ndarray | None = None
):
    """map_batches fn: docmeta table rows -> DOCMETA_TERM posting rows with
    the payload columns (weight/positions/tboosts/chars) the target stream
    carries. Shared by the merge job and the doc-shard serving build."""

    def dm_to_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = (
            ~np.isin(ids, del_set) if del_set is not None and len(del_set) else None
        )
        if keep is not None:
            batch = batch.filter(pa.array(keep))
            ids = ids[keep]
        n = len(batch)
        cols = {
            "term": pa.array(np.full(n, DOCMETA_TERM, dtype=object), pa.string()),
            "doc_id": pa.array(ids, pa.uint64()),
            "tf": batch["length"].cast(pa.uint32()),
            "len_byte": batch["len_byte"].cast(pa.uint8()),
        }
        if ww:
            cols["weight"] = pa.array(np.zeros(n, np.float64), pa.float64())
        if wp:
            cols["positions"] = pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, np.int32)), pa.array([], pa.int32())
            )
            if wpb:
                cols["tboosts"] = pa.ListArray.from_arrays(
                    pa.array(np.zeros(n + 1, np.int32)),
                    pa.array([], pa.float32()),
                )
        if wc:
            cols["chars"] = pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, np.int32)), pa.array([], pa.int32())
            )
        return pa.table(cols)

    return dm_to_rows


def _row_groups(path: str, columns=None):
    """The file's row groups, one table each; ``columns`` is a function of
    the file's column names that picks the columns to read (all of them
    when None)."""
    pf = pq.ParquetFile(path)
    cols = None if columns is None else columns(pf.schema_arrow.names)
    for i in range(pf.num_row_groups):
        yield pf.read_row_group(i, columns=cols)


def bucket_read_items(index_dirs: list[str]) -> list[dict]:
    """One read item per (member, bucket) of the inputs' manifests: the
    bucket's segment file and the docmeta file of the same bucket, each ""
    where the bucket has none (a docmeta-only bucket has no segment)."""
    items = []
    for d in index_dirs:
        for b in Index(d).manifest["buckets"]:
            dm = os.path.join(d, "docmeta", f"bucket={b['bucket']:05d}.parquet")
            items.append({
                "segment": os.path.join(d, b["path"]) if b["path"] else "",
                "docmeta": dm if os.path.exists(dm) else "",
            })
    return items


class ReadBucketPostings:
    """map_batches callable: ``bucket_read_items`` rows -> posting rows
    (``DecodeSegmentRows`` output followed by ``docmeta_rows_fn`` rows).
    Each Parquet row group is decoded and yielded on its own, so the decode
    never holds a whole bucket; Ray Data cuts the yielded tables into blocks
    of its target size."""

    def __init__(self, wp: bool, ww: bool, wpb: bool, wc: bool, delete_ids=None):
        del_set = None if delete_ids is None else np.sort(delete_ids.astype(np.uint64))
        self.decode = DecodeSegmentRows(wp, del_set)
        self.dm_rows = docmeta_rows_fn(ww=ww, wp=wp, wpb=wpb, wc=wc, del_set=del_set)

    def __call__(self, batch: pa.Table):
        for seg, dm in zip(batch["segment"].to_pylist(), batch["docmeta"].to_pylist()):
            if seg:
                for rg in _row_groups(seg, self.decode.columns):
                    yield self.decode(rg)
            if dm:
                for rg in _row_groups(dm):
                    yield self.dm_rows(rg)


def read_bucket_postings(
    index_dirs: list[str], cfg: IndexConfig, delete_doc_ids: np.ndarray | None = None
) -> "ray.data.Dataset":
    """Posting rows (DOCMETA_TERM rows included) of every bucket of the
    ``index_dirs`` members, minus ``delete_doc_ids``: the one read behind
    ``merge_indexes`` and the doc-shard serving build. Each (member, bucket)
    is one input block and so one read task; payload columns are the ones
    ``cfg`` and every input carry."""
    import ray.data

    in_cfgs = [Index(d).cfg for d in index_dirs]
    wp = cfg.with_positions and all(c.with_positions for c in in_cfgs)
    wc = cfg.with_chars and all(c.with_chars for c in in_cfgs)
    ww = cfg.with_weights and all(c.with_weights for c in in_cfgs)
    wpb = ww and wp and getattr(cfg.analyzer, "boost_delim", None) is not None
    items = bucket_read_items(index_dirs)
    if not items:
        raise ValueError(f"indexes at {index_dirs} have no segments and no docmeta")
    return ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
        ReadBucketPostings(wp, ww, wpb, wc, delete_doc_ids),
        batch_size=None,
        batch_format="pyarrow",
    )


def merge_indexes(
    index_dirs: list[str],
    out_dir: str,
    cfg: IndexConfig | None = None,
    delete_doc_ids: np.ndarray | None = None,
    lineage: str = "",
) -> dict:
    """Merge (compact) several indexes into one at ``out_dir``.

    ``delete_doc_ids`` are dropped during the merge (the reference's
    merged-out deletions). Inputs must share the analyzer config.
    """
    cfg = cfg or Index(index_dirs[0]).cfg
    postings = read_bucket_postings(index_dirs, cfg, delete_doc_ids)
    return build_index_from_postings(postings, out_dir, cfg, lineage=lineage)
