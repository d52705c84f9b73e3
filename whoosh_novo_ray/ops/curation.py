"""Corpus-curation operators for web-scale training-data pipelines.

Four classic LLM-data signals, each Ray-Data-first and DuckDB-oracle-able:

  * ``repetition_table``  — Gopher-style per-doc repetition signals
    (top-bigram mass fraction, duplicated-trigram occurrence fraction).
    Pure ``map_batches``: no shuffle, batch-vectorized n-gram counting over
    the analyzer's coded token stream.
  * ``decontaminate_table`` — n-gram overlap against a *benchmark* doc set
    (eval-set decontamination). The benchmark gram set is small by
    construction (eval suites are KBs against a 100-TB corpus), so it is the
    textbook broadcast side: hashed once, ``ray.put`` once, membership-tested
    inside every scan task via ``searchsorted``.
  * ``unigram_lm_table`` — corpus-trained unigram language-model scoring
    (the cheap CCNet/KenLM stand-in): one sharded count pass trains the
    model, the vocab table is broadcast, and a second streaming pass scores
    every doc's mean token log-probability.
  * ``boilerplate_table`` — cross-document boilerplate n-grams (grams seen
    in >= ``min_docs`` distinct docs, CCNet-style): sharded distinct-doc
    counting; only the *hot* gram set (tiny, stopword-list-like) is
    broadcast back for the per-doc scoring pass.

Reference analog: whoosh-novo has no curation surface; these extend the
engine along the SURVEY training-data axis. Scale notes per op below.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from whoosh_novo_ray.analysis import simple_analyzer
from whoosh_novo_ray.ops.hashing import md5_u64_arr
from whoosh_novo_ray.shuffle import shard_reduce

_RAW = simple_analyzer()  # tokenize + lowercase, no stop removal


def _deref(x):
    return ray.get(x) if isinstance(x, ray.ObjectRef) else x


# ---------------------------------------------------------------------------
# per-doc repetition signals (Gopher rules, token-based)
# ---------------------------------------------------------------------------


def _doc_of_unique(keys: np.ndarray, docs: np.ndarray):
    """np.unique bookkeeping for per-(doc, gram) counts: returns
    (doc id of each unique key, counts per unique key)."""
    uk, first, cnt = np.unique(keys, return_index=True, return_counts=True)
    return docs[first], cnt


class _Repetition:
    """(doc_id, top_2gram_frac, dup_3gram_frac): fraction of bigram
    occurrences taken by the single most frequent bigram, and fraction of
    trigram occurrences whose trigram appears more than once in the doc.
    High values flag the repetitive boilerplate / template pages the Gopher
    repetition rules drop. Entirely batch-local (grams never cross docs),
    so this is a shuffle-free streaming pass."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        di, codes, uniq, _, _ = _RAW.analyze_batch_coded(texts)
        V = max(len(uniq), 1)
        top2 = np.zeros(n)
        dup3 = np.zeros(n)
        if len(codes) >= 2:
            codes = codes.astype(np.int64)
            same2 = di[:-1] == di[1:]
            k2_all = codes[:-1] * V + codes[1:]
            bdoc = di[:-1][same2]
            if len(bdoc):
                # per-(doc, bigram) counts without a dict: one np.unique over
                # a packed (doc, gram) key
                ck = bdoc * (np.int64(V) * V) + k2_all[same2]
                d_of, cnt = _doc_of_unique(ck, bdoc)
                tot2 = np.bincount(bdoc, minlength=n).astype(np.float64)
                maxc = np.zeros(n)
                np.maximum.at(maxc, d_of, cnt)
                top2 = maxc / np.maximum(tot2, 1.0)
            if len(codes) >= 3:
                same3 = same2[:-1] & same2[1:]
                tdoc = di[:-2][same3]
                if len(tdoc):
                    # factorize bigrams first so the packed trigram key stays
                    # in int64 for any batch vocabulary size
                    u2, inv2 = np.unique(k2_all, return_inverse=True)
                    k3 = inv2[:-1] * V + codes[2:]
                    ck3 = tdoc * np.int64(len(u2)) * V + k3[same3]
                    d_of3, cnt3 = _doc_of_unique(ck3, tdoc)
                    tot3 = np.bincount(tdoc, minlength=n).astype(np.float64)
                    dup_occ = np.zeros(n)
                    np.add.at(dup_occ, d_of3, np.where(cnt3 >= 2, cnt3, 0))
                    dup3 = dup_occ / np.maximum(tot3, 1.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "top_2gram_frac": pa.array(np.round(top2, 6), pa.float64()),
                "dup_3gram_frac": pa.array(np.round(dup3, 6), pa.float64()),
            }
        )


def repetition_table(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    return docs.map_batches(_Repetition(), batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# shared gram plumbing
# ---------------------------------------------------------------------------


def _doc_ngrams(batch: pa.Table, n: int):
    """(gram doc index, gram md5-u64) for all length-``n`` token windows in
    the batch, windows never crossing doc boundaries. The join + md5 loop is
    C-bound per gram; everything around it is vectorized."""
    texts = batch["text"].to_pylist()
    ab = _RAW.analyze_batch(texts)
    t, di = ab.tokens, ab.doc_idx
    if len(t) < n:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    # windows [i, i+n): same doc iff endpoints match (doc_idx nondecreasing)
    m = di[: len(di) - n + 1] == di[n - 1 :]
    if not m.any():
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    parts = t[: len(t) - n + 1][m]
    for j in range(1, n):
        parts = parts + " "
        parts = parts + t[j : len(t) - n + 1 + j][m]
    return di[: len(di) - n + 1][m], md5_u64_arr(parts)


def _membership_counts(
    gdoc: np.ndarray, gh: np.ndarray, n_docs: int, hot_sorted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc (total gram occurrences, occurrences in `hot_sorted`,
    DISTINCT grams in `hot_sorted`)."""
    tot = np.bincount(gdoc, minlength=n_docs).astype(np.int64)
    hot_occ = np.zeros(n_docs, np.int64)
    hot_distinct = np.zeros(n_docs, np.int64)
    if len(gh) and len(hot_sorted):
        idx = np.searchsorted(hot_sorted, gh)
        idx[idx == len(hot_sorted)] = 0
        isin = hot_sorted[idx] == gh
        np.add.at(hot_occ, gdoc[isin], 1)
        # distinct: unique (doc, gram) among the hits
        if isin.any():
            pair = np.stack([gdoc[isin].astype(np.uint64), gh[isin]], axis=1)
            upair = np.unique(pair, axis=0)
            np.add.at(hot_distinct, upair[:, 0].astype(np.int64), 1)
    return tot, hot_occ, hot_distinct


# ---------------------------------------------------------------------------
# eval-set decontamination
# ---------------------------------------------------------------------------


class _DecontamScan:
    """Counts each non-benchmark doc's DISTINCT n-grams that also occur in
    the benchmark gram set. The benchmark array ships once per actor via the
    constructor (object-store broadcast), never per batch."""

    def __init__(self, bench_sorted, n: int, bench_mod: int):
        # an ObjectRef arrives when the caller broadcast via ray.put: deref
        # once per actor — a zero-copy plasma read, not a per-batch ship
        self.bench = _deref(bench_sorted)
        self.n = n
        self.mod = bench_mod

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        keep = (ids % self.mod) != 0
        batch = batch.filter(pa.array(keep))
        ids = batch["doc_id"].to_numpy()
        gdoc, gh = _doc_ngrams(batch, self.n)
        _, _, shared = _membership_counts(gdoc, gh, len(batch), self.bench)
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "n_shared_grams": pa.array(shared, pa.int64()),
                "contaminated": pa.array((shared > 0).astype(np.int64), pa.int64()),
            }
        )


def decontaminate_table(
    docs: "ray.data.Dataset", n: int = 4, bench_mod: int = 50
) -> "ray.data.Dataset":
    """Flag corpus docs sharing any ``n``-gram with the benchmark subset
    (docs with ``doc_id % bench_mod == 0`` stand in for an eval suite).

    Scale shape: the benchmark side is inherently small (eval sets), so its
    distinct gram hashes are collected driver-side and broadcast via
    ``ray.put`` — one copy in the object store, zero-copy into every scan
    task. The corpus side streams; no shuffle anywhere."""
    def bench_grams(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pa.array(batch["doc_id"].to_numpy() % bench_mod == 0))
        _, gh = _doc_ngrams(batch, n)
        return pa.table({"g": pa.array(np.unique(gh), pa.uint64())})

    parts = [
        t
        for t in ray.get(
            docs.map_batches(bench_grams, batch_format="pyarrow", zero_copy_batch=True)
            .materialize()
            .to_arrow_refs()
        )
        if len(t)
    ]
    if parts:
        bench = np.unique(np.concatenate([t["g"].to_numpy() for t in parts]))
    else:
        bench = np.empty(0, np.uint64)
    bench_ref = ray.put(bench)
    return docs.map_batches(
        _DecontamScan,
        fn_constructor_args=(bench_ref, n, bench_mod),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool_size(),
    )


def _pool_size() -> int:
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return max(1, min(4, ncpu - 2))


# ---------------------------------------------------------------------------
# corpus-trained unigram LM scoring
# ---------------------------------------------------------------------------


class _UnigramScore:
    """Mean token log-probability under the broadcast unigram model. The
    (sorted vocab, logp) arrays are object-store broadcast via the
    constructor — at web scale the vocab is millions of rows, shipped once
    per actor, not per batch."""

    def __init__(self, vocab_sorted, logp):
        self.vocab = _deref(vocab_sorted)
        self.logp = _deref(logp)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        ab = _RAW.analyze_batch(texts)
        tot = np.bincount(ab.doc_idx, minlength=n).astype(np.int64)
        mean = np.zeros(n)
        if len(ab.tokens):
            h = md5_u64_arr(ab.tokens)
            idx = np.searchsorted(self.vocab, h)
            idx[idx == len(self.vocab)] = 0
            lp = np.where(self.vocab[idx] == h, self.logp[idx], np.log(1e-12))
            s = np.bincount(ab.doc_idx, weights=lp, minlength=n)
            mean = s / np.maximum(tot, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_tokens_raw": pa.array(tot, pa.int64()),
                "mean_logprob": pa.array(np.round(mean, 6), pa.float64()),
            }
        )


def unigram_lm_table(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Two-pass corpus LM scoring: (1) sharded token-count reduce trains the
    unigram model, (2) streaming scan scores every doc's mean log-prob.

    Pass 1 pre-aggregates per batch (term -> count inside ``map_batches``),
    shuffles only the tiny per-batch count tables through one
    ``shard_reduce`` on the term hash (one vectorized reduce per shard —
    never one Python call per term), and collects the vocab (bounded: it
    grows ~log corpus) to build the broadcast model."""

    def count_batch(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        ab = _RAW.analyze_batch(texts)
        uh, cnt = np.unique(md5_u64_arr(ab.tokens), return_counts=True)
        return pa.table(
            {
                "h": pa.array(uh, pa.uint64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def reduce_shard(group: pa.Table) -> pa.Table:
        h = group["h"].to_numpy()
        c = group["c"].to_numpy()
        uh, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=c).astype(np.int64)
        return pa.table(
            {"h": pa.array(uh, pa.uint64()), "c": pa.array(tot, pa.int64())}
        )

    counts = shard_reduce(
        docs.map_batches(count_batch, batch_format="pyarrow", zero_copy_batch=True),
        "h",
        reduce_shard,
    )
    parts = [
        t for t in ray.get(counts.materialize().to_arrow_refs()) if len(t)
    ]
    if parts:
        allc = pa.concat_tables(parts)
        vocab = allc["h"].to_numpy()
        cnt = allc["c"].to_numpy().astype(np.float64)
        order = np.argsort(vocab)
        vocab, cnt = vocab[order], cnt[order]
        logp = np.log(cnt / cnt.sum())
    else:
        vocab, logp = np.empty(0, np.uint64), np.empty(0)
    return docs.map_batches(
        _UnigramScore,
        fn_constructor_args=(ray.put(vocab), ray.put(logp)),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool_size(),
    )


# ---------------------------------------------------------------------------
# bigram LM scoring via a co-partitioned model join (model too big to
# broadcast — the third model-distribution shape next to unigram_lm_table's
# broadcast vocab and dsir_table's fixed hash buckets)
# ---------------------------------------------------------------------------


def bigram_lm_table(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Corpus-trained BIGRAM LM scoring: per-doc mean of
    ``ln(c(w1 w2) / c(w1 as bigram prefix))`` over the doc's bigram
    occurrences (maximum-likelihood conditional — trained on the same
    corpus, so every bigram is seen).

    Scale shape — the model is vocabulary^2-ish, too big to ``ray.put``:
      1. model build: per-batch (w1, bigram, count) pre-reduce sharded by
         ``md5(w1)`` so a prefix's total lands with its bigrams; one
         vectorized pass per shard emits (bigram, logp) rows re-sharded by
         ``md5(bigram)``;
      2. scoring: per-batch (doc, bigram, count) pre-reduce joins the model
         INSIDE each bigram shard (tagged union + np.unique/searchsorted —
         the same co-partitioned hash-join as dedup's distributed verify);
         partial (doc, sum_logp, n) rows re-shard by doc;
      3. one vectorized per-doc reduce finishes the mean. Every doc also
         contributes a baseline row (n=0) there, so docs with < 2 tokens
         come out with mean 0.0.

    Every shuffle moves count-bounded pre-reduced rows; no stage holds the
    model or the corpus in one process. Returns
    ``(doc_id, n_bigrams, mean_logprob)`` rounded to 6dp.
    """
    # analyzer tokens cannot contain spaces, so ' ' is a safe separator
    # (and SQL-friendly: DuckDB varchars reject NUL bytes)
    SEP = " "

    def _batch_bigrams(batch: pa.Table):
        texts = batch["text"].to_pylist()
        di, codes, uniq, _, _ = _RAW.analyze_batch_coded(texts)
        if len(codes) < 2:
            return None
        same = di[:-1] == di[1:]
        if not same.any():
            return None
        w1c = codes[:-1][same]
        w2c = codes[1:][same]
        bdoc = di[:-1][same]
        V = np.int64(len(uniq))
        packed = (bdoc * V + w1c) * V + w2c
        uk, cnt = np.unique(packed, return_counts=True)
        d_of = (uk // (V * V)).astype(np.int64)
        # build each distinct bigram STRING once per batch, then gather —
        # (doc, bigram) rows far outnumber distinct bigrams
        pair_of = (uk % (V * V)).astype(np.int64)
        up, pidx = np.unique(pair_of, return_inverse=True)
        w1u = (up // V).astype(np.int64)
        w2u = (up % V).astype(np.int64)
        pair_strs = np.asarray(
            [uniq[a] + SEP + uniq[b] for a, b in zip(w1u, w2u)], object
        )
        keys = pair_strs[pidx]
        w1_of = w1u[pidx]
        return d_of, w1_of, keys, cnt.astype(np.int64), uniq

    def model_counts(batch: pa.Table) -> pa.Table:
        bb = _batch_bigrams(batch)
        if bb is None:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "key": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        _d, w1_of, keys, cnt, uniq = bb
        # collapse the per-doc dimension: per-batch (bigram -> count)
        uk, inv = np.unique(keys, return_inverse=True)
        csum = np.zeros(len(uk), np.int64)
        np.add.at(csum, inv, cnt)
        w1 = np.asarray([k.split(SEP, 1)[0] for k in uk], object)
        return pa.table(
            {
                "w1": pa.array(w1.tolist(), pa.string()),
                "key": pa.array(uk.tolist(), pa.string()),
                "c": pa.array(csum),
            }
        )

    def model_shard(tbl: pa.Table) -> pa.Table:
        w1 = np.asarray(tbl["w1"].to_pylist(), object)
        keys = np.asarray(tbl["key"].to_pylist(), object)
        c = tbl["c"].to_numpy(zero_copy_only=False)
        uk, kinv = np.unique(keys, return_inverse=True)
        c12 = np.zeros(len(uk), np.int64)
        np.add.at(c12, kinv, c)
        # prefix totals: every bigram of a w1 is in THIS shard by keying
        u1, i1 = np.unique(w1, return_inverse=True)
        c1 = np.zeros(len(u1), np.int64)
        np.add.at(c1, i1, c)
        # map each unique bigram to its prefix total
        first_row = np.zeros(len(uk), np.int64)
        first_row[kinv[::-1]] = np.arange(len(kinv))[::-1]
        lp = np.log(c12.astype(np.float64) / c1[i1[first_row]].astype(np.float64))
        n = len(uk)
        return pa.table(
            {
                "src": pa.array(np.zeros(n, np.int8)),
                "key": pa.array(uk.tolist(), pa.string()),
                "doc_id": pa.array(np.zeros(n, np.int64)),
                "c": pa.array(np.zeros(n, np.int64)),
                "logp": pa.array(lp),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].cast(pa.int64()).to_numpy()
        bb = _batch_bigrams(batch)
        if bb is None:
            d_of = np.empty(0, np.int64)
            keys = np.empty(0, object)
            cnt = np.empty(0, np.int64)
        else:
            d_of, _w1, keys, cnt, _u = bb
        return pa.table(
            {
                "src": pa.array(np.ones(len(keys), np.int8)),
                "key": pa.array(keys.tolist(), pa.string()),
                "doc_id": pa.array(ids[d_of]),
                "c": pa.array(cnt),
                "logp": pa.array(np.zeros(len(keys))),
            }
        )

    def baseline_rows(batch: pa.Table) -> pa.Table:
        # keep every doc present in the output (n=0)
        n = len(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "slp": pa.array(np.zeros(n)),
                "n": pa.array(np.zeros(n, np.int64)),
            }
        )

    def join_shard(tbl: pa.Table) -> pa.Table:
        src = tbl["src"].to_numpy(zero_copy_only=False)
        keys = np.asarray(tbl["key"].to_pylist(), object)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        c = tbl["c"].to_numpy(zero_copy_only=False)
        lp = tbl["logp"].to_numpy(zero_copy_only=False)
        is_m = src == 0
        is_d = src == 1
        if not is_d.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "slp": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        mk = np.sort(keys[is_m].astype("U"))
        mlp_order = np.argsort(keys[is_m].astype("U"), kind="stable")
        mlp = lp[is_m][mlp_order]
        dk = keys[is_d].astype("U")
        pos = np.searchsorted(mk, dk)
        # model trained on the same corpus: every doc bigram SHOULD be
        # present — but that invariant rides on two independent
        # map_batches passes over a lazy upstream seeing identical rows.
        # Verify rather than trust: a clipped-or-mismatched lookup would
        # otherwise read a neighboring bigram's logp silently.
        pos_c = np.minimum(pos, len(mk) - 1)
        bad = (pos >= len(mk)) | (mk[pos_c] != dk)
        if bad.any():
            raise RuntimeError(
                f"bigram_lm join: {int(bad.sum())} doc bigrams missing "
                "from the model shard (non-deterministic upstream? "
                "first: " + str(dk[bad][:3].tolist()) + ")"
            )
        found = mlp[pos_c]
        dcnt = c[is_d]
        uo, oi = np.unique(ids[is_d], return_inverse=True)
        slp = np.zeros(len(uo))
        np.add.at(slp, oi, found * dcnt)
        nn = np.zeros(len(uo), np.int64)
        np.add.at(nn, oi, dcnt)
        return pa.table(
            {
                "doc_id": pa.array(uo.astype(np.int64)),
                "slp": pa.array(slp),
                "n": pa.array(nn),
            }
        )

    def finish_docs(tbl: pa.Table) -> pa.Table:
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        slp = tbl["slp"].to_numpy(zero_copy_only=False)
        n = tbl["n"].to_numpy(zero_copy_only=False)
        uo, oi = np.unique(ids, return_inverse=True)
        tslp = np.zeros(len(uo))
        np.add.at(tslp, oi, slp)
        tn = np.zeros(len(uo), np.int64)
        np.add.at(tn, oi, n)
        mean = np.where(tn > 0, tslp / np.maximum(tn, 1), 0.0)
        return pa.table(
            {
                "doc_id": pa.array(uo.astype(np.int64)),
                "n_bigrams": pa.array(tn),
                "mean_logprob": pa.array(np.round(mean, 6)),
            }
        )

    def rows(fn):
        return docs.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)

    model = shard_reduce(rows(model_counts), "w1", model_shard)
    joined = shard_reduce(rows(doc_rows).union(model), "key", join_shard)
    return shard_reduce(joined.union(rows(baseline_rows)), "doc_id", finish_docs)


# ---------------------------------------------------------------------------
# cross-doc boilerplate n-grams
# ---------------------------------------------------------------------------


class _BoilerplateScan:
    def __init__(self, hot_sorted, n: int):
        self.hot = _deref(hot_sorted)
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        gdoc, gh = _doc_ngrams(batch, self.n)
        tot, hot_occ, _ = _membership_counts(gdoc, gh, len(batch), self.hot)
        frac = hot_occ / np.maximum(tot, 1).astype(np.float64)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_grams": pa.array(tot, pa.int64()),
                "boilerplate_frac": pa.array(np.round(frac, 6), pa.float64()),
            }
        )


def boilerplate_table(
    docs: "ray.data.Dataset", n: int = 5, min_docs: int = 3
) -> "ray.data.Dataset":
    """Per-doc fraction of ``n``-gram occurrences that are *boilerplate*
    (the gram occurs in >= ``min_docs`` distinct docs corpus-wide) — the
    CCNet shared-lines signal at token granularity.

    Pass 1 emits per-batch DISTINCT (gram, doc) pairs pre-reduced to
    (gram, n_docs_in_batch) — correct globally because a doc lives in
    exactly one batch — then one ``shard_reduce`` on the gram hash sums them
    (vectorized within the shard, never per-gram Python). Only the filtered
    HOT set survives to the driver; that set is stopword-list-sized by
    construction (grams shared by many docs), so broadcasting it for pass 2
    is the honest scale choice — the full gram table never leaves the
    cluster."""

    def distinct_batch(batch: pa.Table) -> pa.Table:
        gdoc, gh = _doc_ngrams(batch, n)
        if not len(gh):
            return pa.table(
                {
                    "h": pa.array([], pa.uint64()),
                    "nd": pa.array([], pa.int64()),
                }
            )
        pair = np.stack([gh, gdoc.astype(np.uint64)], axis=1)
        upair = np.unique(pair, axis=0)
        uh, cnt = np.unique(upair[:, 0], return_counts=True)
        return pa.table(
            {
                "h": pa.array(uh, pa.uint64()),
                "nd": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def hot_shard(group: pa.Table) -> pa.Table:
        h = group["h"].to_numpy()
        c = group["nd"].to_numpy()
        uh, inv = np.unique(h, return_inverse=True)
        tot = np.bincount(inv, weights=c).astype(np.int64)
        keep = tot >= min_docs
        return pa.table({"h": pa.array(uh[keep], pa.uint64())})

    hot_ds = shard_reduce(
        docs.map_batches(distinct_batch, batch_format="pyarrow", zero_copy_batch=True),
        "h",
        hot_shard,
    )
    parts = [t for t in ray.get(hot_ds.materialize().to_arrow_refs()) if len(t)]
    if parts:
        hot = np.sort(np.concatenate([t["h"].to_numpy() for t in parts]))
    else:
        hot = np.empty(0, np.uint64)
    return docs.map_batches(
        _BoilerplateScan,
        fn_constructor_args=(ray.put(hot), n),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool_size(),
    )


# -- PII scrubbing -----------------------------------------------------------

PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+?[0-9][0-9()\-\s]{7,}[0-9]", "<PHONE>"),
)


def _pii_scrub(batch: pa.Table) -> pa.Table:
    """Replace emails / IPv4s / phone-shaped digit runs with typed tags and
    count each kind. Patterns apply SEQUENTIALLY, each counting against the
    already-scrubbed text, so overlapping kinds are attributed exactly once
    (the SQL oracle mirrors the same nesting). Pure vectorized RE2 kernels —
    one pass per pattern, no per-row Python."""
    import pyarrow.compute as pc

    col = batch["text"]
    cols = {"doc_id": batch["doc_id"].cast(pa.int64())}
    counts_total = None
    for name, pat, tag in PII_PATTERNS:
        n = pc.count_substring_regex(col, pattern=pat).cast(pa.int64())
        col = pc.replace_substring_regex(col, pattern=pat, replacement=tag)
        cols[f"n_{name}"] = n
        counts_total = n if counts_total is None else pc.add(counts_total, n)
    cols["n_pii"] = counts_total
    cols["clean_text"] = col
    return pa.table(cols)


def pii_scrub_table(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """Streaming PII scrub over a documents Dataset (the web-text release
    gate): no shuffle, no state — scales as pure map_batches."""
    return docs.map_batches(_pii_scrub, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# DSIR-style hashed n-gram importance weights
# ---------------------------------------------------------------------------

DSIR_BUCKETS = 1024


def _dsir_features(texts: list[str], buckets: int):
    """Hashed unigram+bigram feature stream per doc (DSIR — Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling": raw word
    n-grams hashed into a fixed bucket space). Returns (doc_idx, bucket)
    aligned arrays. Hashing runs once per UNIQUE unigram / bigram in the
    batch (dictionary-coded stream), not per occurrence."""
    di, codes, uniq, _, _ = _RAW.analyze_batch_coded(texts)
    if not len(codes):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    di = np.asarray(di, np.int64)
    ubuck = (md5_u64_arr(list(uniq)) % np.uint64(buckets)).astype(np.int64)
    uni_b = ubuck[codes]
    adj = np.flatnonzero(di[:-1] == di[1:])
    if not len(adj):
        return di, uni_b
    nu = len(uniq)
    pair = codes[adj].astype(np.int64) * nu + codes[adj + 1]
    up, inv = np.unique(pair, return_inverse=True)
    pstr = [uniq[p // nu] + " " + uniq[p % nu] for p in up]
    pbuck = (md5_u64_arr(pstr) % np.uint64(buckets)).astype(np.int64)
    return (
        np.concatenate([di, di[adj]]),
        np.concatenate([uni_b, pbuck[inv]]),
    )


class _DsirScore:
    """Per-doc mean feature log importance under the broadcast per-bucket
    log-ratio vector (B doubles — shipped once per actor)."""

    def __init__(self, logr, buckets: int):
        self.logr = _deref(logr)
        self.buckets = buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        gdi, gb = _dsir_features(texts, self.buckets)
        nf = np.bincount(gdi, minlength=n).astype(np.int64)
        mean = np.zeros(n)
        if len(gb):
            s = np.bincount(gdi, weights=self.logr[gb], minlength=n)
            mean = s / np.maximum(nf, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_feats": pa.array(nf, pa.int64()),
                "log_weight": pa.array(np.round(mean, 6), pa.float64()),
            }
        )


def dsir_table(
    docs: "ray.data.Dataset",
    target_lang: str = "en",
    buckets: int = DSIR_BUCKETS,
) -> "ray.data.Dataset":
    """DSIR importance weights over ``docs(doc_id, text, lang)``: how much
    more likely each doc's hashed n-gram features are under the TARGET
    domain (rows with ``lang == target_lang``) than under the whole pool.

    Two passes, no shuffle at any scale:

    1. every batch reduces to (bucket, target_count, pool_count) — at most
       ``buckets`` rows per batch regardless of batch size — and the
       driver sums the tiny per-batch tables into two length-B vectors;
    2. the add-1-smoothed per-bucket log-ratio (B doubles) broadcasts via
       ``ray.put`` and a streaming scan emits each doc's mean feature
       log-weight. Resampling is then a deterministic rate filter over
       ``log_weight`` (see ``stratified_sample`` for the hash-rate
       pattern).
    """

    def count_batch(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        langs = np.asarray(batch["lang"].to_pylist(), object)
        gdi, gb = _dsir_features(texts, buckets)
        if not len(gb):
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "ct": pa.array([], pa.int64()),
                    "cq": pa.array([], pa.int64()),
                }
            )
        is_t = (langs == target_lang)[gdi]
        cq = np.bincount(gb, minlength=buckets)
        ct = np.bincount(gb[is_t], minlength=buckets)
        return pa.table(
            {
                "bucket": pa.array(np.arange(buckets, dtype=np.int64), pa.int64()),
                "ct": pa.array(ct.astype(np.int64), pa.int64()),
                "cq": pa.array(cq.astype(np.int64), pa.int64()),
            }
        )

    # distributed sum over the per-batch count tables (vectorized native
    # aggregate, not map_groups): the driver reads AT MOST ``buckets`` rows
    # no matter how many batches the corpus has
    agg = (
        docs.map_batches(count_batch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .sum(["ct", "cq"])
        .take_all()
    )
    ct = np.zeros(buckets)
    cq = np.zeros(buckets)
    for row in agg:
        b = int(row["bucket"])
        ct[b] = row["sum(ct)"]
        cq[b] = row["sum(cq)"]
    logr = np.log((ct + 1.0) / (ct.sum() + buckets)) - np.log(
        (cq + 1.0) / (cq.sum() + buckets)
    )
    return docs.map_batches(
        _DsirScore,
        fn_constructor_args=(ray.put(logr), buckets),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=_pool_size(),
    )
