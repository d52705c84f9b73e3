"""Posting-block codec round-trips."""

import numpy as np
import pyarrow as pa

from whoosh_novo_ray.codec import (
    decode_positions_flat,
    delta_encode_with_resets,
    encode_positions,
    varint_decode,
    varint_encode,
)
from whoosh_novo_ray.index.build import encode_bucket_table
from whoosh_novo_ray.index.segment import TermColumns


def test_varint_roundtrip():
    rng = np.random.default_rng(0)
    for scale in (2**7, 2**14, 2**32, 2**63):
        v = rng.integers(0, scale, 5000).astype(np.uint64)
        buf, nb = varint_encode(v)
        assert nb.sum() == len(buf)
        out = varint_decode(buf.tobytes(), len(v))
        assert (out == v).all()


def test_varint_edge_values():
    v = np.array([0, 1, 127, 128, 2**63, 2**64 - 1], np.uint64)
    buf, _ = varint_encode(v)
    assert (varint_decode(buf.tobytes(), len(v)) == v).all()


def test_positions_roundtrip():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 6, 300)
    pos = (
        np.concatenate(
            [np.sort(rng.choice(500, c, replace=False)) for c in counts]
        ).astype(np.uint64)
        if counts.sum()
        else np.empty(0, np.uint64)
    )
    buf, per = encode_positions(pos, counts)
    assert int(per.sum()) == len(buf)
    # deltas only: one varint per position, no per-posting count
    assert int(((buf & 0x80) == 0).sum()) == counts.sum()
    flat, got_counts = decode_positions_flat(buf.tobytes(), counts)
    assert got_counts.tolist() == counts.tolist()
    assert (flat == pos).all()


def _random_bucket_table(rng, n_terms=40, with_positions=True):
    rows = {"term": [], "doc_id": [], "tf": [], "len_byte": [], "positions": []}
    for t in range(n_terms):
        term = f"term{t:03d}"
        df = int(rng.integers(1, 400))
        ids = np.sort(rng.choice(10**6, df, replace=False)).astype(np.uint64)
        for d in ids:
            tf = int(rng.integers(1, 9))
            rows["term"].append(term)
            rows["doc_id"].append(int(d))
            rows["tf"].append(tf)
            rows["len_byte"].append(int(rng.integers(0, 256)))
            rows["positions"].append(
                np.sort(rng.choice(1000, tf, replace=False)).astype(np.int32).tolist()
            )
    tbl = pa.table(
        {
            "term": pa.array(rows["term"]),
            "doc_id": pa.array(rows["doc_id"], pa.uint64()),
            "tf": pa.array(rows["tf"], pa.uint32()),
            "len_byte": pa.array(rows["len_byte"], pa.uint8()),
            "positions": pa.array(rows["positions"], pa.list_(pa.int32())),
        }
    )
    if not with_positions:
        tbl = tbl.drop_columns(["positions"])
    return tbl


def test_bucket_encode_decode_roundtrip():
    rng = np.random.default_rng(7)
    tbl = _random_bucket_table(rng)
    seg = encode_bucket_table(tbl, block_size=128, with_positions=True)

    # reconstruct a reference dict from the input
    import collections

    expect = collections.defaultdict(list)
    for r in tbl.to_pylist():
        expect[r["term"]].append((r["doc_id"], r["tf"], r["len_byte"], r["positions"]))

    assert len(seg) == len(expect)
    rows = TermColumns(seg, 128)
    for i, term in enumerate(seg["term"].to_pylist()):
        tr = rows.row(i, term)
        exp = sorted(expect[tr.term])
        ids, tfs, lens = tr.decode_all()
        assert tr.df == len(exp)
        assert ids.tolist() == [e[0] for e in exp]
        assert tfs.tolist() == [e[1] for e in exp]
        assert lens.tolist() == [e[2] for e in exp]
        pos = tr.decode_all_positions()
        assert [p.tolist() for p in pos] == [e[3] for e in exp]
        # per-block decode agrees with full decode
        max_ids, max_weights, min_lens = tr.skip_table()
        assert tr.n_blocks == len(max_ids) == -(-len(exp) // 128)
        off = 0
        for b in range(tr.n_blocks):
            bids, btfs, blens = tr.decode_block(b)
            cnt = len(bids)
            assert bids.tolist() == ids[off : off + cnt].tolist()
            assert btfs.tolist() == tfs[off : off + cnt].tolist()
            assert blens.tolist() == lens[off : off + cnt].tolist()
            assert int(max_ids[b]) == int(bids[-1])
            assert float(max_weights[b]) == float(btfs.max())
            assert int(min_lens[b]) == int(blens.min())
            off += cnt
        assert off == len(exp)
        # term aggregates
        assert float(tr.weight) == float(tfs.sum())
        assert float(tr.max_weight) == float(tfs.max())


def test_encoder_refuses_position_count_other_than_tf():
    """Positions store no count (the reader takes it from tf), so a posting
    whose positions or char offsets do not follow its tf cannot be
    written."""
    import pytest

    rng = np.random.default_rng(5)
    tbl = _random_bucket_table(rng, n_terms=5)
    tf = tbl["tf"].to_numpy().copy()
    tf[3] += 1
    bad = tbl.set_column(tbl.schema.get_field_index("tf"), "tf", pa.array(tf, pa.uint32()))
    with pytest.raises(ValueError, match="positions count"):
        encode_bucket_table(bad, block_size=128, with_positions=True)
    chars = pa.array(
        [list(range(2 * len(p))) for p in tbl["positions"].to_pylist()],
        pa.list_(pa.int32()),
    )
    ok = tbl.append_column("chars", chars)
    assert "chars_blob" in encode_bucket_table(ok, 128, True).column_names
    short = ok.set_column(
        ok.schema.get_field_index("chars"),
        "chars",
        pa.array(
            [list(range(2 * len(p) - 1)) for p in tbl["positions"].to_pylist()],
            pa.list_(pa.int32()),
        ),
    )
    with pytest.raises(ValueError, match="chars count"):
        encode_bucket_table(short, 128, True)
