"""Context-window shaping operators: chunking, sequence packing, sampling.

The three transforms that turn a curated corpus into training-ready rows,
each Ray-Data-first and DuckDB-oracle-able:

  * ``chunk_documents`` — sliding fixed-size token windows with overlap
    (context-window chunking). Pure ``map_batches`` flat transform: the
    whitespace token lists come from one ``pyarrow.compute`` kernel and the
    window gather is a single numpy fancy-index over the flat token buffer —
    no per-row Python, no shuffle, output rows stream straight to the sink.
  * ``pack_sequences`` — assign each doc (in doc_id order) to a fixed
    token-budget pack: ``pack_id = floor(prefix_tokens_before / budget)``.
    A distributed prefix-sum: per-range token sums (tiny groupby) are
    prefix-summed on the driver into per-range offsets, then one shuffle by
    range key finishes the cumsum vectorized inside each range partition.
    The driver only ever holds one row per RANGE (doc_id // range_width),
    never per doc — at 100 TB pick range_width so that's ~1e5 rows.
  * ``stratified_sample`` — deterministic per-group hash sampling
    (e.g. language rebalancing): keep doc iff
    ``int(md5(str(doc_id))[:8], 16) < rate[group] * 2**32``. Stateless
    ``map_batches`` filter; reproducible across runs/engines by
    construction, so the DuckDB oracle applies the same literal thresholds.

Reference analog: whoosh-novo has no dataset-shaping surface; these extend
the engine along the SURVEY training-data axis (like ops/curation.py).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from whoosh_novo_ray.shuffle import run_starts, shard_reduce


def _ws_tokens(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, pa.Array]:
    """(offsets, flat tokens) of the ``\\S+`` tokens of each string.

    ``utf8_split_whitespace`` emits empty fields for leading/trailing/empty
    whitespace (''.split-with-separator semantics); filter those out so the
    token stream matches the oracle's ``regexp_extract_all(text, '\\S+')``.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.utf8_split_whitespace(col)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offsets = toks.offsets.to_numpy()
    offsets = offsets - offsets[0]
    flat = toks.values
    valid = pc.not_equal(flat, "")
    vi = valid.to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.concatenate([[0], np.cumsum(vi)])
    return cum[offsets], flat.filter(valid)


class _Chunker:
    """Sliding-window chunk rows for one Arrow batch (see chunk_documents)."""

    def __init__(self, chunk_tokens: int, stride: int):
        if stride < 1 or chunk_tokens < stride:
            raise ValueError("need 1 <= stride <= chunk_tokens")
        self.chunk = chunk_tokens
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        offsets, flat = _ws_tokens(batch["text"])  # len(offsets) = n_docs + 1
        n = np.diff(offsets)  # tokens per doc
        n_chunks = np.where(n > 0, (np.maximum(n - 1, 0) // self.stride) + 1, 0)
        total = int(n_chunks.sum())
        if total == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_idx": pa.array([], pa.int64()),
                    "n_chunk_tokens": pa.array([], pa.int64()),
                    "chunk_text": pa.array([], pa.string()),
                }
            )
        doc_rep = np.repeat(np.arange(len(n)), n_chunks)
        # chunk ordinal within its doc: global arange minus each doc's base
        base = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        chunk_idx = np.arange(total) - base
        start = chunk_idx * self.stride
        length = np.minimum(self.chunk, n[doc_rep] - start)
        # gather [offset+start, offset+start+length) per chunk in one shot
        tok_base = np.repeat(offsets[doc_rep] + start, length)
        intra = np.arange(int(length.sum())) - np.repeat(
            np.cumsum(length) - length, length
        )
        gathered = flat.take(pa.array(tok_base + intra, pa.int64()))
        chunks = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(length)]), pa.int32()),
            gathered,
        )
        text = pc.binary_join(chunks, " ")
        doc_ids = batch["doc_id"].cast(pa.int64()).to_numpy()[doc_rep]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "chunk_idx": pa.array(chunk_idx, pa.int64()),
                "n_chunk_tokens": pa.array(length, pa.int64()),
                "chunk_text": text,
            }
        )


def chunk_documents(
    docs: "ray.data.Dataset", chunk_tokens: int = 64, stride: int = 48
) -> "ray.data.Dataset":
    """Sliding token windows per doc: starts 0, stride, 2*stride, ... < n.

    The last window may be short; docs with zero tokens emit no chunks.
    ``stride < chunk_tokens`` gives ``chunk_tokens - stride`` tokens of
    overlap between consecutive chunks.
    """
    return docs.map_batches(
        _Chunker(chunk_tokens, stride), batch_format="pyarrow", zero_copy_batch=True
    )


def _token_counts(
    batch: pa.Table, range_width: int, keep_cols: tuple = ()
) -> pa.Table:
    offsets, _flat = _ws_tokens(batch["text"])
    n = pa.array(np.diff(offsets), pa.int64())
    doc_id = batch["doc_id"].cast(pa.int64())
    rng = pc.divide(doc_id, pa.scalar(range_width, pa.int64()))
    cols = {"doc_id": doc_id, "n_tokens": n, "rng": rng}
    for c in keep_cols:
        cols[c] = batch[c]
    return pa.table(cols)


def pack_sequences(
    docs: "ray.data.Dataset",
    budget: int = 2048,
    range_width: int = 4096,
    keep_cols: tuple = (),
) -> "ray.data.Dataset":
    """Assign docs (in doc_id order) to fixed token-budget packs.

    ``pack_id = floor(sum(n_tokens of all docs with smaller doc_id) /
    budget)`` — the streaming fixed-capacity packing rule: a pack is closed
    once the docs assigned to it reach ``budget`` tokens. A doc larger than
    the remaining capacity spills into the same pack (packs overflow rather
    than split docs); training loaders truncate per pack.

    Distributed prefix-sum, never a driver-side scan:
      1. one streaming pass computes per-doc token counts + range key
         (``doc_id // range_width``), materialized (3 int64 columns);
      2. a small groupby sums tokens per RANGE; the driver prefix-sums that
         per-range table (rows = id-space / range_width, not corpus size);
      3. one ``shard_reduce`` on the range key; inside each range the cumsum
         is a single vectorized pass seeded with the driver's offset for
         that range.
    """
    counted = docs.map_batches(
        lambda b: _token_counts(b, range_width, keep_cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    from ray.data.aggregate import Sum

    per_range = counted.groupby("rng").aggregate(Sum("n_tokens")).to_pandas()
    per_range = per_range.sort_values("rng")
    sums = per_range["sum(n_tokens)"].to_numpy(dtype=np.int64)
    offsets = dict(
        zip(
            per_range["rng"].to_numpy(dtype=np.int64).tolist(),
            (np.cumsum(sums) - sums).tolist(),
        )
    )
    # broadcast once: at 100 TB the per-range table is ~1e5 rows — ship it
    # through the object store, not in every task's closure
    import ray

    offsets_ref = ray.put(offsets)

    # ranges are contiguous in doc_id order, so sorting a shard by doc_id
    # makes each range one run and the per-range cumsum one segmented pass
    def assign(shard: pa.Table) -> pa.Table:
        offsets = ray.get(offsets_ref)
        g = shard.sort_by("doc_id")
        ids = g["doc_id"].to_numpy()
        n = g["n_tokens"].to_numpy()
        rngs = ids // range_width
        csum = np.cumsum(n) - n
        starts = run_starts(rngs)
        seg_lens = np.diff(starts, append=len(ids))
        seg_off = np.fromiter(
            (offsets[int(rngs[s])] for s in starts), np.int64, len(starts)
        )
        before = csum - np.repeat(csum[starts], seg_lens) + np.repeat(
            seg_off, seg_lens
        )
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n, pa.int64()),
            "pack_id": pa.array(before // budget, pa.int64()),
        }
        for c in keep_cols:
            cols[c] = g[c]
        return pa.table(cols)

    return shard_reduce(counted, "rng", assign)


def _hash_u32(doc_ids: np.ndarray) -> np.ndarray:
    """First 8 md5 hex digits of str(doc_id) as uint32 — the deterministic
    uniform draw both engines (and the SQL oracle) agree on."""
    out = np.empty(len(doc_ids), np.uint32)
    for i, d in enumerate(doc_ids):
        out[i] = int(hashlib.md5(str(int(d)).encode()).hexdigest()[:8], 16)
    return out


class _StratFilter:
    def __init__(self, group_col: str, thresholds: dict[str, int], default: int):
        self.group_col = group_col
        self.thresholds = thresholds
        self.default = default

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].cast(pa.int64()).to_numpy()
        u = _hash_u32(ids)
        groups = batch[self.group_col].to_pylist()
        thr = np.fromiter(
            (self.thresholds.get(g, self.default) for g in groups),
            np.int64,
            len(groups),
        )
        keep = u < thr
        # filter the WHOLE batch: a downsampling op must pass every column
        # through (text, attrs, ...), not just the id + group key
        out = batch.filter(pa.array(keep))
        return out.set_column(
            out.column_names.index("doc_id"),
            "doc_id",
            out["doc_id"].cast(pa.int64()),
        )


def stratified_sample(
    docs: "ray.data.Dataset",
    rates: dict[str, float],
    group_col: str = "lang",
    default_rate: float = 0.0,
) -> "ray.data.Dataset":
    """Deterministic per-group downsampling (language rebalancing).

    Keep a doc iff ``u32(md5(str(doc_id))) < floor(rate[group] * 2**32)``.
    Stateless streaming filter — reruns, shard layouts and engines all pick
    the exact same rows, which is what makes ablation corpora comparable.
    """
    thresholds = {g: int(r * 2**32) for g, r in rates.items()}
    return docs.map_batches(
        _StratFilter(group_col, thresholds, int(default_rate * 2**32)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
