"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash.

Shuffle discipline at scale — every exchange is one ``shard_reduce``
(whoosh_novo_ray/shuffle.py), never a per-key groupby (which would pay one
Python call per shingle or pair):
  * exact dedup = one shard_reduce on the content hash;
  * n-gram Jaccard = explode shingles -> pair emit per shingle shard ->
    pair reduce per (doc_a, doc_b) shard; inside a shard everything is one
    vectorized numpy pass. ``max_group`` bounds the quadratic pair blowup
    from boilerplate shingles (the web-scale skew analog of stopword
    posting lists);
  * MinHash/LSH = per-doc signature (map_batches, no shuffle) -> band-key
    shards -> candidate pairs -> candidate-only signature verify.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from whoosh_novo_ray.analysis import simple_analyzer
from whoosh_novo_ray.shuffle import run_starts, shard_reduce

_RAW = simple_analyzer()


# -- pair helpers --------------------------------------------------------------
# The shuffles themselves are shard_reduce calls; these helpers serve the
# reducers, which find equal-key runs with run_starts and emit the pairs of
# every run in one vectorized pass.


def _collect_pairs(
    ds: "ray.data.Dataset", empty: pa.Table, sort_keys
) -> pa.Table:
    """Driver-side convenience: collect a (small, already-thresholded) pair
    Dataset into one sorted Arrow table — for tests, oracles and callers
    whose surviving pair set fits the driver. Web-scale callers should
    consume the ``*_ds`` variant directly (write_parquet / further joins)
    and never funnel the pair stream through the driver.

    materialize() first: bare to_arrow_refs() on a lazy Dataset re-executes
    the whole pipeline for a schema probe — ruinous after an all-to-all.
    """
    tables = [t for t in ray.get(ds.materialize().to_arrow_refs()) if len(t)]
    if not tables:
        return empty
    return pa.concat_tables(tables).sort_by(sort_keys)


def _triu_pair_indices(
    starts: np.ndarray, lens: np.ndarray, keep_run: np.ndarray, nrows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized upper-triangle (i < j) row-index pairs across every kept
    run: the row at within-run offset w pairs with the (len-1-w) rows after
    it. Runs are given by ``starts`` (from ``run_starts``) and ``lens``."""
    run_of_row = np.repeat(np.arange(len(starts)), lens)
    w = np.arange(nrows) - np.repeat(starts, lens)
    a_counts = np.where(keep_run[run_of_row], lens[run_of_row] - 1 - w, 0).astype(
        np.int64
    )
    total = int(a_counts.sum())
    if total == 0:
        e = np.empty(0, np.int64)
        return e, e
    a_idx = np.repeat(np.arange(nrows), a_counts)
    prefix = np.zeros(nrows, np.int64)
    np.cumsum(a_counts[:-1], out=prefix[1:])
    b_off = np.arange(total) - np.repeat(prefix, a_counts) + 1
    return a_idx, a_idx + b_off


# -- exact dedup --------------------------------------------------------------


class _TextMd5:
    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        # hashlib md5 over the full text is C-bound per call; the hex
        # encode around it is batch-vectorized
        digests = b"".join(hashlib.md5(t.encode("utf-8")).digest() for t in texts)
        dmat = np.frombuffer(digests, np.uint8).reshape(-1, 16)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "text_md5": pa.array(_hex_prefixes(dmat, 16), pa.string()),
            }
        )


_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)


def _hex_prefixes(dmat: np.ndarray, nbytes: int) -> np.ndarray:
    """Vectorized hex of the first ``nbytes`` of each digest row."""
    sub = dmat[:, :nbytes]
    out = np.empty((len(sub), 2 * nbytes), np.uint8)
    out[:, 0::2] = _HEX[sub >> 4]
    out[:, 1::2] = _HEX[sub & 0x0F]
    return out.view(f"S{2 * nbytes}").reshape(-1).astype(str)


def exact_dedup_keep(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact dedup by content hash: keep the lowest doc_id per md5(text).

    Returns (text_md5, doc_id) of survivors. The shuffle is a
    ``shard_reduce`` on the digest — a per-hash groupby would pay one Python
    group call per distinct document, which is the whole corpus at 100 TB.
    Each shard reduces all of its runs in one vectorized pass.
    """
    hashed = docs.map_batches(_TextMd5(), batch_format="pyarrow", zero_copy_batch=True)

    def keep_first(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("text_md5", "ascending"), ("doc_id", "ascending")])
        return g.take(pa.array(run_starts(g["text_md5"]))).select(
            ["text_md5", "doc_id"]
        )

    return shard_reduce(hashed, "text_md5", keep_first)


# -- word n-gram shingles ------------------------------------------------------


class _Shingles:
    """Explode docs into distinct word n-gram shingles (doc_id, shingle, nsh).

    ``nsh`` (the doc's distinct-shingle count) rides along on every row so the
    Jaccard union term is available downstream WITHOUT a sizes join or any
    driver-side lookup table."""

    def __init__(self, n: int = 3):
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.n
        out_doc: list[int] = []
        out_sh: list[str] = []
        out_n: list[int] = []
        ids = batch["doc_id"].to_pylist()
        for did, text in zip(ids, batch["text"].to_pylist()):
            toks = _RAW(text)
            if len(toks) < n:
                continue
            sh = {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}
            out_doc.extend([did] * len(sh))
            out_sh.extend(sh)
            out_n.extend([len(sh)] * len(sh))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "shingle": pa.array(out_sh, pa.string()),
                "nsh": pa.array(out_n, pa.int64()),
            }
        )


def ngram_jaccard_pairs_ds(
    docs: "ray.data.Dataset",
    n: int = 3,
    threshold: float = 0.2,
    max_group: int = 1000,
) -> "ray.data.Dataset":
    """All-pairs word-``n``-gram Jaccard similarity >= threshold.

    Returns a DATASET of (doc_a, doc_b, jaccard) rows with doc_a < doc_b,
    jaccard rounded to 6 decimals — unsorted, never collected to the
    driver (write_parquet it or feed it to a downstream join; on a
    dup-heavy crawl the pair set is a constant fraction of the corpus).
    Fully distributed: per-doc sizes ride the shingle rows, pair counts
    come from one shard_reduce.

    ``max_group`` drops shingles shared by more than that many docs (a
    shingle shared by s docs emits s*(s-1)/2 pairs — boilerplate shingles are
    the web-scale skew analog of stopword posting lists). Capped shingles are
    excluded from the INTERSECTION only; per-doc sizes still count them, so
    capped similarity is a lower bound. The SQL oracle applies the identical
    cap. ``max_group=None`` disables the cap (exact, but quadratic on skew).
    """
    sh = docs.map_batches(_Shingles(n), batch_format="pyarrow", zero_copy_batch=True)

    # Shard by shingle hash (not one group per shingle): per-shingle
    # map_groups would pay one Python invocation per distinct shingle —
    # pathological at web scale. Each shard holds every row of its shingles,
    # and pair emission is vectorized across ALL runs in the shard at once.
    def emit_pairs_shard(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("shingle", "ascending"), ("doc_id", "ascending")])
        ids = g["doc_id"].to_numpy()
        nsh = g["nsh"].to_numpy()
        starts = run_starts(g["shingle"])
        lens = np.diff(starts, append=len(ids))
        keep_run = lens >= 2
        if max_group is not None:
            keep_run &= lens <= max_group
        a_idx, b_idx = _triu_pair_indices(starts, lens, keep_run, len(ids))
        return pa.table(
            {
                "doc_a": pa.array(ids[a_idx], pa.int64()),
                "doc_b": pa.array(ids[b_idx], pa.int64()),
                "n_a": pa.array(nsh[a_idx], pa.int64()),
                "n_b": pa.array(nsh[b_idx], pa.int64()),
            }
        )

    def reduce_finalize(shard: pa.Table) -> pa.Table:
        """Per pair shard: count duplicate (a, b) rows (= intersection),
        compute jaccard, filter — one vectorized pass, not a
        one-group-per-pair aggregate (Ray's multi-key aggregate pays per
        GROUP; pair counts are in the millions)."""
        da = shard["doc_a"].to_numpy(zero_copy_only=False)
        db = shard["doc_b"].to_numpy(zero_copy_only=False)
        na = shard["n_a"].to_numpy(zero_copy_only=False)
        nb = shard["n_b"].to_numpy(zero_copy_only=False)
        order = np.lexsort((db, da))
        da, db, na, nb = da[order], db[order], na[order], nb[order]
        starts = run_starts(da, db)
        inter = np.diff(starts, append=len(da)).astype(np.float64)
        fa = na[starts].astype(np.float64)
        fb = nb[starts].astype(np.float64)
        jac = inter / (fa + fb - inter)
        keep = jac >= threshold
        sel = starts[keep]
        return pa.table(
            {
                "doc_a": pa.array(da[sel], pa.int64()),
                "doc_b": pa.array(db[sel], pa.int64()),
                "jaccard": pa.array(np.round(jac[keep], 6), pa.float64()),
            }
        )

    # the second shard_reduce keys on the PAIR so duplicates of (a, b)
    # emitted from different shingle shards meet in one reducer
    pairs = shard_reduce(sh, "shingle", emit_pairs_shard)
    return shard_reduce(pairs, ["doc_a", "doc_b"], reduce_finalize)


def ngram_jaccard_pairs(
    docs: "ray.data.Dataset",
    n: int = 3,
    threshold: float = 0.2,
    max_group: int = 1000,
) -> pa.Table:
    """Driver-side table form of :func:`ngram_jaccard_pairs_ds`, sorted by
    (doc_a, doc_b) — for tests/oracles and small surviving pair sets."""
    return _collect_pairs(
        ngram_jaccard_pairs_ds(docs, n=n, threshold=threshold, max_group=max_group),
        pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        ),
        [("doc_a", "ascending"), ("doc_b", "ascending")],
    )


# -- MinHash + LSH -------------------------------------------------------------


class _MinHashSig:
    """Per-doc MinHash signature over word n-gram shingles.

    Base hash = md5-derived uint64 per shingle (DuckDB ``md5_number_lower``),
    permutations = affine maps (a*x + b) mod (2^61-1) with md5-seeded (a, b)
    — fully reproducible by an ANSI-SQL oracle. Batch-vectorized: shingles of
    the whole batch are uniqued once, hashed once each, the (U, num_perm)
    permuted-hash matrix is one broadcasted modmul, and per-doc minima come
    from one ``np.minimum.reduceat``. Pure map_batches: no shuffle, no state
    beyond __init__.
    """

    def __init__(self, n: int = 3, num_perm: int = 64, seed: int = 7):
        from whoosh_novo_ray.ops.hashing import minhash_perm_params

        self.n = n
        self.num_perm = num_perm
        self.a, self.b = minhash_perm_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray | None:
        t = self(pa.table({"doc_id": pa.array([0], pa.int64()), "text": [text]}))
        if not len(t):
            return None
        return np.asarray(t["sig"][0].as_py(), np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from whoosh_novo_ray.ops.hashing import P61, affine61, md5_u64_arr

        n = self.n
        ids: list[int] = []
        all_sh: list[str] = []
        counts: list[int] = []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            toks = _RAW(text)
            if len(toks) < n:
                continue
            sh = {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}
            ids.append(did)
            all_sh.extend(sh)
            counts.append(len(sh))
        if not ids:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.list_(pa.uint64())),
                }
            )
        uniq, inv = np.unique(np.asarray(all_sh, object), return_inverse=True)
        base = md5_u64_arr(uniq) % np.uint64(P61)
        # (U, num_perm) permuted hashes for the batch's unique shingles
        hm = affine61(self.a[None, :], base[:, None], self.b[None, :])
        rows = hm[inv]  # (total_shingles, num_perm), doc-contiguous
        starts = np.zeros(len(counts), np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        sigs = np.minimum.reduceat(rows, starts, axis=0)
        flat = pa.array(sigs.reshape(-1), pa.uint64())
        offsets = pa.array(
            np.arange(len(ids) + 1, dtype=np.int32) * self.num_perm, pa.int32()
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sig": pa.ListArray.from_arrays(offsets, flat),
            }
        )


class _BandRows:
    """Explode signatures into (band_key, doc_id) rows; band_key is the md5
    hex prefix of '<band>:<v1>,<v2>,...' — identical to the SQL oracle's
    ``substr(md5(bi || ':' || array_to_string(...)), 1, 16)``.

    The '<v1>,<v2>,...' strings are assembled with Arrow kernels (uint64 ->
    decimal string cast + element-wise join) instead of per-row Python
    formatting; only the md5 calls themselves stay per-row (C-bound)."""

    def __init__(self, bands: int, r: int):
        self.bands = bands
        self.r = r

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if not n:
            return pa.table(
                {
                    "band_key": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        sig = batch["sig"].combine_chunks()
        mat = (
            sig.values.to_numpy(zero_copy_only=False)
            .astype(np.uint64)
            .reshape(n, -1)
        )
        doc = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, docs = [], []
        r = self.r
        for bi in range(self.bands):
            cols = [
                pc.cast(pa.array(mat[:, bi * r + j], pa.uint64()), pa.string())
                for j in range(r)
            ]
            joined = (
                pc.binary_join_element_wise(*cols, ",") if r > 1 else cols[0]
            )
            payload = pc.binary_join_element_wise(
                pa.array(np.full(n, str(bi), dtype=object), pa.string()),
                joined,
                ":",
            )
            digests = b"".join(
                hashlib.md5(s.encode()).digest() for s in payload.to_pylist()
            )
            dmat = np.frombuffer(digests, np.uint8).reshape(-1, 16)
            keys.append(_hex_prefixes(dmat, 8))
            docs.append(doc)
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys), pa.string()),
                "doc_id": pa.array(np.concatenate(docs), pa.int64()),
            }
        )


def _collapse_equal_signatures(
    sigs_ds: "ray.data.Dataset",
) -> tuple["ray.data.Dataset", "ray.data.Dataset"]:
    """Pre-collapse docs with EQUAL full MinHash signatures.

    A bucket of m byte-identical (or boilerplate-identical) docs would emit
    O(m^2) candidate pairs from every band — but equal signatures are
    transitively duplicates, so a CHAIN (rep = min doc_id, one pair per
    other member, est_jaccard = 1.0) carries the same information in O(m)
    rows, and only the representative needs to enter banding (any doc
    sharing a band with a member shares it with the rep, and its agreement
    fraction vs the rep is identical). The near-dup LOSER set — distinct
    doc_b above threshold — is exactly preserved; the PAIR SET is not
    (member-member and member-other pairs are represented via the rep).

    Returns (reps_ds with the sigs schema, chain_pairs_ds(doc_a, doc_b,
    est_jaccard)). One shard_reduce over signature rows, keyed on a fold of
    the whole signature; within a shard equality runs are found with one
    vectorized pass over the sorted signature matrix — no per-group Python,
    no driver state.
    """
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def add_sig_key(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if not n:
            return batch.append_column("sig_key", pa.array([], pa.uint64()))
        mat = _sig_mat(batch["sig"], n)
        # wrap-around uint64 mix of the whole signature row: equal rows
        # collide by construction; runs are still verified element-wise
        w = (np.arange(mat.shape[1], dtype=np.uint64) * _MIX) | np.uint64(1)
        key = (mat * w[None, :]).sum(axis=1, dtype=np.uint64)
        return batch.append_column("sig_key", pa.array(key, pa.uint64()))

    def collapse_shard(shard: pa.Table) -> pa.Table:
        n = len(shard)
        mat = _sig_mat(shard["sig"], n)
        ids = shard["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids,) + tuple(mat[:, j] for j in range(mat.shape[1] - 1, -1, -1)))
        mat, ids = mat[order], ids[order]
        rep_rows = run_starts(mat)
        lens = np.diff(rep_rows, append=n)
        rep_of_row = np.repeat(rep_rows, lens)
        members = np.ones(n, bool)
        members[rep_rows] = False
        mem_rows = np.flatnonzero(members)
        role = np.concatenate(
            [np.zeros(len(rep_rows), np.int8), np.ones(len(mem_rows), np.int8)]
        )
        out_ids = np.concatenate([ids[rep_rows], ids[rep_of_row[mem_rows]]])
        out_b = np.concatenate(
            [np.full(len(rep_rows), -1, np.int64), ids[mem_rows]]
        )
        # reps keep their signature; chain rows carry an empty sig
        sigs_out = pa.concat_arrays(
            [
                pa.ListArray.from_arrays(
                    pa.array(
                        (np.arange(len(rep_rows) + 1) * mat.shape[1]).astype(
                            np.int32
                        ),
                        pa.int32(),
                    ),
                    pa.array(mat[rep_rows].reshape(-1), pa.uint64()),
                ),
                _empty_sig_list(len(mem_rows)),
            ]
        )
        return pa.table(
            {
                "role": pa.array(role, pa.int8()),
                "doc_id": pa.array(out_ids, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "sig": sigs_out,
            }
        )

    keyed = sigs_ds.map_batches(add_sig_key, batch_format="pyarrow", zero_copy_batch=True)
    tagged = shard_reduce(keyed, "sig_key", collapse_shard).materialize()

    def project_reps(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["role"], pa.scalar(0, pa.int8()))
        sub = batch.filter(keep)
        return pa.table({"doc_id": sub["doc_id"], "sig": sub["sig"]})

    def project_chains(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["role"], pa.scalar(1, pa.int8()))
        sub = batch.filter(keep)
        return pa.table(
            {
                "doc_a": sub["doc_id"],
                "doc_b": sub["doc_b"],
                "est_jaccard": pa.array(
                    np.ones(len(sub), np.float64), pa.float64()
                ),
            }
        )

    reps = tagged.map_batches(
        project_reps, batch_format="pyarrow", zero_copy_batch=True
    )
    chains = tagged.map_batches(
        project_chains, batch_format="pyarrow", zero_copy_batch=True
    )
    return reps, chains


class _BandRowsFast:
    """Numeric banding: the band key is a mixed 64-bit fold of the band's
    signature values — one vectorized uint64 pass, no strings, no per-row
    md5. Grouping is identical to :class:`_BandRows` up to (negligible)
    hash collisions, and the est-jaccard verify filters any such false
    candidate anyway; use when SQL-oracle byte-parity isn't needed."""

    _MIX = np.uint64(0xFF51AFD7ED558CCD)

    def __init__(self, bands: int, r: int):
        self.bands = bands
        self.r = r

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        if not n:
            return pa.table(
                {
                    "band_key": pa.array([], pa.uint64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        mat = _sig_mat(batch["sig"], n)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, docs_ = [], []
        r = self.r
        for bi in range(self.bands):
            h = np.full(n, np.uint64(bi * 2 + 1), np.uint64)
            for j in range(r):
                h = (h ^ mat[:, bi * r + j]) * self._MIX
                h ^= h >> np.uint64(33)
            keys.append(h)
            docs_.append(doc)
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys), pa.uint64()),
                "doc_id": pa.array(np.concatenate(docs_), pa.int64()),
            }
        )


def minhash_lsh_candidates_ds(
    docs: "ray.data.Dataset",
    n: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 7,
    threshold: float | None = None,
    collapse_equal: bool = False,
    band_hash: str = "md5",
) -> "ray.data.Dataset":
    """Near-duplicate candidate pairs via MinHash banding, as a DATASET.

    Signature stage is a pure map_batches; banding explodes each doc into
    ``bands`` (band_key, doc_id) rows; sharded vectorized reducers emit and
    dedup candidate pairs (no per-band-key Python groups). The est_jaccard
    verify is a DISTRIBUTED two-pass hash-join of pairs against signatures
    (shard_reduce on the doc id — signatures meet their pairs inside one
    reducer call, the driver never holds the signature set or the pair set
    at any point).
    Rows are (doc_a, doc_b, est_jaccard) where est_jaccard is the
    signature-agreement fraction; ``threshold`` drops pairs below it INSIDE
    the join. Consume with write_parquet or a downstream join — on a
    dup-heavy crawl the surviving pair set is a constant fraction of the
    corpus and must never be collected.

    ``collapse_equal=True`` pre-collapses equal-signature groups into O(m)
    chain pairs (see :func:`_collapse_equal_signatures`): the near-dup
    LOSER set (distinct doc_b at any threshold) is identical, the pair set
    itself is chain- instead of clique-shaped within equal-signature
    groups. Use it for removal pipelines on dup-heavy corpora; leave off
    when the exact clique pair set is the contract (SQL-oracle parity).
    """
    assert num_perm % bands == 0
    r = num_perm // bands
    sigs_ds = docs.map_batches(
        _MinHashSig(n, num_perm, seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=512,  # (batch x shingles x num_perm x 8B) bounds worker heap
    )
    # signatures are consumed twice (banding + the candidate verify pass);
    # materialize them in the OBJECT STORE (distributed, spillable — never
    # the driver) so the expensive shingle+md5 stage runs once. Signatures
    # are ~0.5 KB/doc (~10% of typical web text), well worth the store space
    # vs recomputing the tokenize+hash pipeline.
    sigs_ds = sigs_ds.materialize()

    chains = None
    if collapse_equal:
        sigs_ds, chains = _collapse_equal_signatures(sigs_ds)
        sigs_ds = sigs_ds.materialize()

    if band_hash not in ("md5", "fast"):
        raise ValueError("band_hash must be 'md5' or 'fast'")
    # md5 banding is the SQL-oracle-parity default (DuckDB md5 reproduces
    # the band keys byte-for-byte); 'fast' is the vectorized numeric fold —
    # same grouping, no per-(doc, band) C calls, for production runs
    band_cls = _BandRows if band_hash == "md5" else _BandRowsFast
    banded = sigs_ds.map_batches(band_cls(bands, r), batch_format="pyarrow")

    def emit_pairs_shard(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("band_key", "ascending"), ("doc_id", "ascending")])
        ids = g["doc_id"].to_numpy()
        starts = run_starts(g["band_key"])
        lens = np.diff(starts, append=len(ids))
        a_idx, b_idx = _triu_pair_indices(starts, lens, lens >= 2, len(ids))
        return pa.table(
            {
                "doc_a": pa.array(ids[a_idx], pa.int64()),
                "doc_b": pa.array(ids[b_idx], pa.int64()),
            }
        )

    def unique_pairs_shard(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
        return g.take(pa.array(run_starts(g["doc_a"], g["doc_b"])))

    # Both pair shuffles are shard_reduce calls (never a per-band-key or
    # per-pair group — one Python call per group would be pathological at
    # web scale); the second keys on the pair so duplicates of (a, b) from
    # different bands meet. The pair set stays a DATASET through the verify
    # join: on a dup-heavy crawl "candidate pairs" is a large fraction of
    # the corpus, so neither the pairs nor the signatures may be collected
    # to the driver before the estimate filter.
    pairs_ds = shard_reduce(
        shard_reduce(banded, "band_key", emit_pairs_shard),
        ["doc_a", "doc_b"],
        unique_pairs_shard,
    )
    est_ds = _estimate_pairs_distributed(pairs_ds, sigs_ds, num_perm, threshold)
    return est_ds if chains is None else est_ds.union(chains)


def minhash_lsh_candidates(
    docs: "ray.data.Dataset",
    n: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 7,
    threshold: float | None = None,
    collapse_equal: bool = False,
    band_hash: str = "md5",
) -> pa.Table:
    """Driver-side table form of :func:`minhash_lsh_candidates_ds`, sorted
    by (doc_a, doc_b) — for tests/oracles and small surviving pair sets."""
    return _collect_pairs(
        minhash_lsh_candidates_ds(
            docs,
            n=n,
            num_perm=num_perm,
            bands=bands,
            seed=seed,
            threshold=threshold,
            collapse_equal=collapse_equal,
            band_hash=band_hash,
        ),
        pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
            }
        ),
        [("doc_a", "ascending"), ("doc_b", "ascending")],
    )


def _sig_list(mat: np.ndarray) -> pa.ListArray:
    n, w = mat.shape if mat.ndim == 2 else (0, 0)
    return pa.ListArray.from_arrays(
        pa.array((np.arange(n + 1) * w).astype(np.int32), pa.int32()),
        pa.array(mat.reshape(-1), pa.uint64()),
    )


def _empty_sig_list(n: int) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(np.zeros(n + 1, np.int32), pa.int32()),
        pa.array([], pa.uint64()),
    )


def _sig_mat(col: pa.ChunkedArray | pa.Array, n_rows: int) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return (
        arr.values.to_numpy(zero_copy_only=False)
        .astype(np.uint64)
        .reshape(n_rows, -1)
    )


def _empty_tagged() -> pa.Table:
    return pa.table(
        {
            "jkey": pa.array([], pa.int64()),
            "role": pa.array([], pa.int8()),
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "sig": pa.array([], pa.list_(pa.uint64())),
            "sig_a": pa.array([], pa.list_(pa.uint64())),
        }
    )


def _estimate_pairs_distributed(
    pairs_ds: "ray.data.Dataset",
    sigs_ds: "ray.data.Dataset",
    num_perm: int,
    threshold: float | None,
) -> "ray.data.Dataset":
    """Distributed est-jaccard verify: a two-pass hash-join of candidate
    pairs against the signature dataset.

    Both streams carry the join key in ``jkey``. Pass 1 shards them on it
    with the pairs keyed by doc_a (signatures by their doc_id), so each
    reducer call attaches sig_a to its pairs with a vectorized searchsorted
    — no driver-side dict. Pass 2 re-keys the sig_a-carrying pairs by doc_b
    against the signatures again, computes the agreement fraction, and
    (optionally) drops pairs below ``threshold`` INSIDE the join. The
    driver only ever sees the final survivor table.
    """

    def tag_sigs(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        return pa.table(
            {
                "jkey": pa.array(ids, pa.int64()),
                "role": pa.array(np.zeros(n, np.int8), pa.int8()),
                "doc_a": pa.array(ids, pa.int64()),
                "doc_b": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "sig": batch["sig"],
                "sig_a": _empty_sig_list(n),
            }
        )

    def tag_pairs(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {
                "jkey": batch["doc_a"],
                "role": pa.array(np.ones(n, np.int8), pa.int8()),
                "doc_a": batch["doc_a"],
                "doc_b": batch["doc_b"],
                "sig": _empty_sig_list(n),
                "sig_a": _empty_sig_list(n),
            }
        )

    def _attach(sigs: pa.Table, pairs: pa.Table, key_col: str) -> np.ndarray:
        sid = sigs["doc_a"].to_numpy(zero_copy_only=False)
        mat = _sig_mat(sigs["sig"], len(sigs))
        order = np.argsort(sid)
        keys = pairs[key_col].to_numpy(zero_copy_only=False)
        pos = order[np.searchsorted(sid[order], keys)]
        return mat[pos]

    def join_on_a(group: pa.Table) -> pa.Table:
        roles = group["role"].to_numpy(zero_copy_only=False)
        pairs = group.filter(pa.array(roles == 1))
        if not len(pairs):
            return _empty_tagged()
        sigs = group.filter(pa.array(roles == 0))
        sig_a = _attach(sigs, pairs, "doc_a")
        n = len(pairs)
        return pa.table(
            {
                "jkey": pairs["doc_b"],
                "role": pa.array(np.ones(n, np.int8), pa.int8()),
                "doc_a": pairs["doc_a"],
                "doc_b": pairs["doc_b"],
                "sig": _empty_sig_list(n),
                "sig_a": _sig_list(sig_a),
            }
        )

    def join_on_b(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
            }
        )
        roles = group["role"].to_numpy(zero_copy_only=False)
        pairs = group.filter(pa.array(roles == 1))
        if not len(pairs):
            return empty
        sigs = group.filter(pa.array(roles == 0))
        sig_b = _attach(sigs, pairs, "doc_b")
        sig_a = _sig_mat(pairs["sig_a"], len(pairs))
        est = (sig_a == sig_b).mean(axis=1)
        keep = (
            np.ones(len(est), bool) if threshold is None else est >= threshold
        )
        return pa.table(
            {
                "doc_a": pa.array(
                    pairs["doc_a"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "doc_b": pa.array(
                    pairs["doc_b"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "est_jaccard": pa.array(np.round(est[keep], 6), pa.float64()),
            }
        )

    tagged_sigs = sigs_ds.map_batches(
        tag_sigs, batch_format="pyarrow", zero_copy_batch=True
    )
    tagged_pairs = pairs_ds.map_batches(
        tag_pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    pass1 = shard_reduce(tagged_sigs.union(tagged_pairs), "jkey", join_on_a)
    return shard_reduce(tagged_sigs.union(pass1), "jkey", join_on_b)


def connected_components(
    pairs: pa.Table, a_col: str = "doc_a", b_col: str = "doc_b"
) -> pa.Table:
    """(doc_id, cluster_id) over the docs appearing in near-dup pairs;
    cluster_id = the component's minimum doc id. Driver union-find with
    path compression — the right tool when the pair set is the (already
    thresholded) removal set; for web-scale dup graphs use
    ``near_dup_clusters_ds`` (distributed label propagation)."""
    a = pairs[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
    b = pairs[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(a.tolist(), b.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            # union by MIN so the root is the component minimum
            lo, hi = (ru, rv) if ru < rv else (rv, ru)
            parent[hi] = lo
    docs = np.unique(np.concatenate([a, b]))
    labels = np.fromiter((find(int(d)) for d in docs), np.int64, len(docs))
    return pa.table(
        {
            "doc_id": pa.array(docs, pa.int64()),
            "cluster_id": pa.array(labels, pa.int64()),
        }
    )


def near_dup_clusters_ds(
    pairs_ds: "ray.data.Dataset", max_rounds: int = 50
) -> pa.Table:
    """Distributed min-label propagation over a near-dup pair Dataset:
    each round, every node takes the minimum label among itself and its
    neighbors (one shard_reduce per round; rounds needed = component
    diameter). Converges to cluster_id = component-minimum doc id, same
    output as ``connected_components``."""

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.concatenate([a, b, a, b])
        v = np.concatenate([b, a, a, b])  # both directions + self loops
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )

    edges = pairs_ds.map_batches(
        to_edges, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # labels start as the node id itself; each round joins labels to edges
    # on v and takes min per u
    def relabel_round(labels: dict[int, int]) -> dict[int, int]:
        # labels is broadcast via closure (per-round object store ship);
        # at web scale this becomes a second sharded stream exactly like
        # the MinHash verify join — kept simple here because the pair
        # graph is the thresholded removal set
        def step(batch: pa.Table) -> pa.Table:
            u = batch["u"].to_numpy(zero_copy_only=False)
            v = batch["v"].to_numpy(zero_copy_only=False)
            lv = np.fromiter((labels[int(x)] for x in v), np.int64, len(v))
            return pa.table({"u": batch["u"], "lab": pa.array(lv, pa.int64())})

        def reduce_min(shard: pa.Table) -> pa.Table:
            g = shard.sort_by([("u", "ascending"), ("lab", "ascending")])
            return g.take(pa.array(run_starts(g["u"])))

        out = shard_reduce(
            edges.map_batches(step, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            reduce_min,
        )
        new = {}
        for t in ray.get(out.materialize().to_arrow_refs()):
            for u, lab in zip(t["u"].to_pylist(), t["lab"].to_pylist()):
                new[u] = lab
        return new

    init_tables = [
        t for t in ray.get(edges.materialize().to_arrow_refs()) if len(t)
    ]
    if not init_tables:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "cluster_id": pa.array([], pa.int64()),
            }
        )
    nodes = np.unique(
        np.concatenate([t["u"].to_numpy(zero_copy_only=False) for t in init_tables])
    )
    labels = {int(d): int(d) for d in nodes}
    for _ in range(max_rounds):
        new = relabel_round(labels)
        if new == labels:
            break
        labels = new
    docs = np.array(sorted(labels), np.int64)
    return pa.table(
        {
            "doc_id": pa.array(docs, pa.int64()),
            "cluster_id": pa.array(
                np.fromiter((labels[int(d)] for d in docs), np.int64, len(docs)),
                pa.int64(),
            ),
        }
    )


_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
).astype(np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (byte-table fallback for
    numpy < 2's missing bitwise_count)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    b = np.ascontiguousarray(x).view(np.uint8).reshape(-1, 8)
    return _POP8[b].sum(axis=1).astype(np.int64)


def simhash_near_dup_pairs_ds(
    docs: "ray.data.Dataset",
    k: int = 3,
    bands: int = 4,
) -> "ray.data.Dataset":
    """Near-duplicate pairs by SimHash Hamming distance <= ``k``, as a
    DATASET of (doc_a, doc_b, hamming) rows (unsorted, never collected).

    Banded blocking: the 64-bit simhash splits into ``bands`` equal slices;
    by pigeonhole any pair within ``k <= bands - 1`` differing bits shares
    at least one identical band, so candidates = same-band-value pairs (a
    guaranteed superset) and the exact popcount verify runs inside the
    sharded reducers — no all-pairs comparison, no driver-side signature
    set.
    """
    assert 64 % bands == 0
    width = 64 // bands
    assert k <= bands - 1, "banding guarantee needs k <= bands - 1"
    sigs = docs.map_batches(
        _SimHash(), batch_format="pyarrow", zero_copy_batch=True
    )
    mask = np.uint64((1 << width) - 1)

    def band_rows(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.int64)
        hu = h.view(np.uint64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys, docs_, sims = [], [], []
        for b in range(bands):
            val = (hu >> np.uint64(b * width)) & mask
            keys.append((np.uint64(b) << np.uint64(width)) | val)
            docs_.append(ids)
            sims.append(hu)
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys), pa.uint64()),
                "doc_id": pa.array(np.concatenate(docs_), pa.int64()),
                "sim": pa.array(np.concatenate(sims), pa.uint64()),
            }
        )

    def emit_pairs(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("band_key", "ascending"), ("doc_id", "ascending")])
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        sims = g["sim"].to_numpy(zero_copy_only=False).astype(np.uint64)
        starts = run_starts(g["band_key"])
        lens = np.diff(starts, append=len(ids))
        a_idx, b_idx = _triu_pair_indices(starts, lens, lens >= 2, len(ids))
        ham = popcount64(sims[a_idx] ^ sims[b_idx])
        keep = ham <= k
        da, db = ids[a_idx[keep]], ids[b_idx[keep]]
        return pa.table(
            {
                "doc_a": pa.array(np.minimum(da, db), pa.int64()),
                "doc_b": pa.array(np.maximum(da, db), pa.int64()),
                "hamming": pa.array(ham[keep], pa.int64()),
            }
        )

    def dedup_pairs(shard: pa.Table) -> pa.Table:
        g = shard.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
        return g.take(pa.array(run_starts(g["doc_a"], g["doc_b"])))

    banded = sigs.map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True)
    pairs = shard_reduce(banded, "band_key", emit_pairs)
    return shard_reduce(pairs, ["doc_a", "doc_b"], dedup_pairs)


def simhash_near_dup_pairs(
    docs: "ray.data.Dataset",
    k: int = 3,
    bands: int = 4,
) -> pa.Table:
    """Driver-side table form of :func:`simhash_near_dup_pairs_ds`, sorted
    by (doc_a, doc_b) — for tests/oracles and small surviving pair sets."""
    return _collect_pairs(
        simhash_near_dup_pairs_ds(docs, k=k, bands=bands),
        pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        ),
        [("doc_a", "ascending"), ("doc_b", "ascending")],
    )


# -- SimHash -------------------------------------------------------------------


class _SimHash:
    """64-bit SimHash over the token stream (tf-weighted bit voting).

    Term hash = md5-derived uint64 (``md5_number_lower``) so a SQL oracle
    reproduces the value bit-for-bit. Vectorized at BATCH level: one token
    unique per batch, one md5 per unique term, one scatter-add for all
    (doc, bit) votes.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        from whoosh_novo_ray.ops.hashing import md5_u64_arr

        texts = batch["text"].to_pylist()
        n_docs = len(texts)
        doc_idx: list[int] = []
        toks_all: list[str] = []
        for i, text in enumerate(texts):
            toks = _RAW(text)
            doc_idx.extend([i] * len(toks))
            toks_all.extend(toks)
        out = np.zeros(n_docs, np.uint64)
        if toks_all:
            di = np.asarray(doc_idx, np.int64)
            uniq, inv = np.unique(np.asarray(toks_all, object), return_inverse=True)
            # tf per (doc, unique-term) pair
            pair = di * len(uniq) + inv
            upair, tf = np.unique(pair, return_counts=True)
            p_doc = upair // len(uniq)
            p_code = upair % len(uniq)
            hs = md5_u64_arr(uniq)
            shifts = np.arange(64, dtype=np.uint64)
            bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
            signs = bits * 2 - 1  # (U, 64) in {-1, +1}
            votes = np.zeros((n_docs, 64), np.int64)
            np.add.at(votes, p_doc, signs[p_code] * tf[:, None])
            out = (((votes > 0).astype(np.uint64)) << shifts[None, :]).sum(
                axis=1, dtype=np.uint64
            )
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "simhash": pa.array(out, pa.uint64()),
            }
        )


def simhash_table(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    return docs.map_batches(_SimHash(), batch_format="pyarrow", zero_copy_batch=True)
