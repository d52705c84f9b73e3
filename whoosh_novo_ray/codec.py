"""Posting-block codec: delta + varint doc ids, varint tfs, raw length bytes.

Re-expresses the semantics of the reference's W3 posting blocks
(de-odex/whoosh-novo ``src/whoosh/codec/whoosh3.py:675-902``: blocks of <=128
postings, delta-encoded ids, per-block header carrying count / max id / max
weight / min length for WAND-style block skipping) as numpy-vectorized
encoders over flat posting arrays, so a whole hash-bucket of terms is encoded
in one pass with no per-posting Python loop.

Layout per term (columns of the segment Parquet, see index/build.py):
  * three blobs — ``ids_blob`` (varint deltas, absolute at block starts),
    ``tfs_blob`` (varint), ``lens_blob`` (raw uint8 length bytes) — kept
    separate so a block decode is three slices, no interleave parsing;
  * per-block metadata lists (count, max_id, max_weight, min_len_byte) +
    byte offsets into the blobs = the skip table;
  * per-term scalars: df, weight, max_weight and min_len_byte; the
    term-bucket files add ``doc_slots`` (bit ``key_hash(doc_id) % 64`` per
    posting, the serving shards a term can match in). The serving files
    carry no ``doc_slots``: the score pool reads the masks from the
    term-bucket files, and its actors never read them.
  * optional ``pos_blob`` / ``chars_blob``: per posting, varint deltas of
    its sorted positions (or interleaved char start/end offsets), the first
    one absolute, and no count. A posting's count is its tf (``2 * tf``
    for chars), which ``decode_positions_flat`` takes from the tfs; the
    encoder refuses a posting whose list does not have that length. (The
    reference keeps the frequency once too and stores the positions as one
    delta list.)
"""

from __future__ import annotations

import numpy as np

_U7 = np.uint64(7)
_U7F = np.uint64(0x7F)


def varint_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 encode. Returns (byte buffer uint8, nbytes per value).

    Fast path: posting deltas/tfs are overwhelmingly < 128, so the common
    case is a single cast; multi-byte values are filled by iterating only
    over the (few) remaining actives.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    big_mask = v >= np.uint64(128)
    if not big_mask.any():
        return v.astype(np.uint8), np.ones(n, np.int64)
    nb = np.ones(n, np.int64)
    x = v[big_mask] >> _U7
    nb_big = np.ones(len(x), np.int64)
    while True:
        more = x > 0
        if not more.any():
            break
        nb_big += more
        x >>= _U7
    nb[big_mask] = nb_big
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.zeros(int(ends[-1]), np.uint8)
    # layer 0 for everyone
    out[starts] = (v & _U7F).astype(np.uint8) | (big_mask.astype(np.uint8) << 7)
    # higher layers only for multi-byte values
    idx = np.flatnonzero(big_mask)
    val = v[idx] >> _U7
    k = 1
    while len(idx):
        more = (k + 1) < nb[idx]
        out[starts[idx] + k] = (val & _U7F).astype(np.uint8) | (
            more.astype(np.uint8) << 7
        )
        keep = more
        idx = idx[keep]
        val = val[keep] >> _U7
        k += 1
    return out, nb


def varint_decode(buf, n: int) -> np.ndarray:
    """Vectorized LEB128 decode of exactly ``n`` values from ``buf``."""
    if n == 0:
        return np.empty(0, np.uint64)
    data = np.frombuffer(buf, np.uint8)
    if len(data) == n:
        # every value fits one byte (all < 128) — common for tfs and dense
        # doc-id deltas; skips the continuation machinery entirely
        return data.astype(np.uint64)
    # value i spans bytes starts[i]..ends[i] (the first byte < 0x80 ends
    # it); one gather takes every value's low 7 bits, then each further
    # step touches only the values still longer than that
    ends = np.flatnonzero(data < 0x80)[:n]
    starts = np.empty(n, np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    vals = (data[starts] & 0x7F).astype(np.uint64)
    extra = ends - starts
    multi = np.flatnonzero(extra)
    k = 1
    while len(multi):
        vals[multi] |= (data[starts[multi] + k] & 0x7F).astype(np.uint64) << np.uint64(7 * k)
        multi = multi[extra[multi] > k]
        k += 1
    return vals


def decode_doc_ids(buf, block_counts: np.ndarray, n: int) -> np.ndarray:
    """Doc ids of ``n`` postings from their varint deltas ``buf``, which
    restart from an absolute id at every block start; ``block_counts`` holds
    the postings of each block, in order (empty blocks allowed). One varint
    pass, then a segmented cumsum that subtracts the running sum before each
    block's absolute first value (uint64 wraparound cancels out)."""
    deltas = varint_decode(buf, n)
    counts = np.asarray(block_counts, np.int64)
    counts = counts[counts > 0]
    c = np.cumsum(deltas, dtype=np.uint64)
    starts = np.cumsum(counts) - counts
    corr = c[starts] - deltas[starts]
    return c - np.repeat(corr, counts)


def delta_encode_with_resets(ids: np.ndarray, reset_mask: np.ndarray) -> np.ndarray:
    """ids -> deltas, storing the absolute id wherever reset_mask is True
    (term starts and block starts, so each block decodes independently)."""
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    d = np.empty_like(ids)
    d[0] = ids[0]
    np.subtract(ids[1:], ids[:-1], out=d[1:])
    d[reset_mask] = ids[reset_mask]
    return d


def encode_positions(pos_flat: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode ragged per-posting position lists.

    ``pos_flat`` is the concatenation of each posting's sorted positions;
    ``counts`` is positions-per-posting. Wire format per posting: varint
    deltas only, the first one absolute. The count is not stored: the
    reader takes it from the posting's tf (``decode_positions_flat``).
    Returns (byte buffer, bytes-per-posting).
    """
    n = len(counts)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.uint8), np.zeros(n, np.int64)
    pos_flat = np.ascontiguousarray(pos_flat, dtype=np.uint64)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    deltas = np.empty(total, np.uint64)
    deltas[0] = pos_flat[0]
    np.subtract(pos_flat[1:], pos_flat[:-1], out=deltas[1:])
    deltas[starts] = pos_flat[starts]
    buf, nb = varint_encode(deltas)
    grp = np.repeat(np.arange(n), counts)
    per_posting = np.bincount(grp, weights=nb, minlength=n).astype(np.int64)
    return buf, per_posting


def decode_positions_flat(buf, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of a positions blob given the per-posting position
    counts (== tf). Returns (flat positions uint64, counts int64): posting i's
    positions are ``flat[counts[:i].sum() : counts[:i+1].sum()]``.
    """
    counts = np.ascontiguousarray(tfs, dtype=np.int64)
    total = int(counts.sum())
    if len(counts) == 0 or total == 0:
        return np.empty(0, np.uint64), counts
    deltas = varint_decode(buf, total)
    # segmented cumsum per posting: subtract the running sum before each
    # posting's absolute first delta
    c = np.cumsum(deltas, dtype=np.uint64)
    nz = counts > 0
    first = (np.cumsum(counts) - counts)[nz]
    corr_vals = c[first] - deltas[first]
    flat = c - np.repeat(corr_vals, counts[nz])
    return flat, counts
