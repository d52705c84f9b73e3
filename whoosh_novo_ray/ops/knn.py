"""Similarity search over an embedding column (list<float>).

* ``brute_force_knn`` — exact cosine top-k: per-batch numpy matmul against a
  broadcast query matrix (ray.put once, read per task — never re-shipped per
  batch), partial top-k per batch, tiny global merge. The correctness
  baseline.
* ``lsh_knn`` — random-hyperplane LSH bucketing as the approximate scale
  path: candidates come only from the query's bucket (plus multiprobe
  neighbors), then exact re-rank.
* ``cosine_near_dup_pairs`` — embedding near-duplicate pairs above a cosine
  threshold, blocked by a grouping column to bound the pairwise cost.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from whoosh_novo_ray.shuffle import run_starts, shard_reduce


def _batch_mat(batch: pa.Table, col: str, dtype=np.float64) -> np.ndarray:
    arr = batch[col].combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(dtype)
    width = len(arr[0])
    return flat.reshape(-1, width)


def _unit_blocks(shard: pa.Table, block_col: str, id_col: str, vec_col: str):
    """``shard`` sorted by (block, id), its ids, its unit-norm vectors, and
    the (lo, hi) row bounds of each block."""
    g = shard.sort_by([(block_col, "ascending"), (id_col, "ascending")])
    ids = g[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    mat = _batch_mat(g, vec_col)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    starts = run_starts(g[block_col])
    return g, ids, mat / norms[:, None], zip(starts, np.append(starts[1:], len(ids)))


class _CosineTopK:
    """Stateful map_batches actor: normalizes the broadcast query matrix once
    in __init__ (per actor), scores each batch with one matmul."""

    def __init__(self, query_ref: np.ndarray, k: int, id_col: str, vec_col: str):
        q = np.asarray(query_ref, np.float64)
        if q.ndim == 1:
            q = q[None, :]
        self.q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _batch_mat(batch, self.vec_col)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        sims = (mat / norms[:, None]) @ self.q.T  # (n, n_queries)
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[1]):
            s = sims[:, qi]
            k = min(self.k, len(s))
            part = np.argpartition(-s, k - 1)[:k] if k < len(s) else np.arange(len(s))
            out_q.extend([qi] * len(part))
            out_id.extend(ids[part].tolist())
            out_s.extend(s[part].astype(np.float64).tolist())
        return pa.table(
            {
                "query_i": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def brute_force_knn(
    embeddings: "ray.data.Dataset",
    query: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency: int | None = None,
    use_actors: bool = True,
) -> pa.Table:
    """Exact cosine top-k of ``query`` (vector or (m,d) matrix) against the
    embedding Dataset. Returns (query_i, vec_id, cosine rounded 6dp) sorted by
    (query_i, cosine desc, vec_id asc).

    ``use_actors=False`` runs the scorer as plain Ray TASKS (no pool
    spin-up/reservation): right for small partition-pruned candidate sets
    (the persisted-ANN query path), where the per-task query-closure ship is
    one vector and the actor pool's ~1 s startup would dominate."""
    # the query matrix ships once per actor via the constructor args (held in
    # the object store), not per batch. The pool is sized BELOW the cluster
    # CPU count: a fixed actor pool reserves its CPUs for the pipeline's
    # lifetime, and a pool as large as the cluster starves the upstream read
    # tasks (observed deadlock at num_cpus=4 with a 4-actor pool).
    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        concurrency = max(1, min(4, ncpu - 2))
    if use_actors:
        partial = embeddings.map_batches(
            _CosineTopK,
            fn_constructor_args=(np.asarray(query, np.float64), k, id_col, vec_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
            concurrency=concurrency,
        )
    else:
        scorer = _CosineTopK(np.asarray(query, np.float64), k, id_col, vec_col)
        partial = embeddings.map_batches(
            scorer.__call__,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    tables = [t for t in ray.get(partial.materialize().to_arrow_refs()) if len(t)]
    if not tables:
        return pa.table(
            {
                "query_i": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    cand = pa.concat_tables(tables)
    qi = cand["query_i"].to_numpy()
    vid = cand["vec_id"].to_numpy()
    cos = cand["cosine"].to_numpy()
    out_q, out_id, out_s = [], [], []
    for q in np.unique(qi):
        m = qi == q
        order = np.lexsort((vid[m], -cos[m]))[:k]
        out_q.extend([int(q)] * len(order))
        out_id.extend(vid[m][order].tolist())
        out_s.extend(np.round(cos[m][order], 6).tolist())
    return pa.table(
        {
            "query_i": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
            "cosine": pa.array(out_s, pa.float64()),
        }
    )


class _LshBucket:
    """Random-hyperplane signature (sign bits) per embedding.

    Hyperplane entries are md5-derived uniforms in (-0.5, 0.5)
    (``hashing.lsh_planes``), and all math is float64 — so a DuckDB oracle
    recomputes the identical bucket ids."""

    def __init__(self, dim: int, nbits: int = 12, seed: int = 5):
        from whoosh_novo_ray.ops.hashing import lsh_planes

        self.planes = lsh_planes(dim, nbits, seed)

    def bucket_of(self, mat: np.ndarray) -> np.ndarray:
        bits = (np.asarray(mat, np.float64) @ self.planes) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _batch_mat(batch, "embedding", np.float64)
        return batch.append_column(
            "lsh_bucket", pa.array(self.bucket_of(mat), pa.int64())
        )


def lsh_knn(
    embeddings: "ray.data.Dataset",
    query: np.ndarray,
    k: int = 10,
    nbits: int = 8,
    seed: int = 5,
    nprobe: int = 1,
) -> pa.Table:
    """Approximate cosine top-k: score only vectors whose hyperplane-LSH
    bucket is within the probe set. ``nprobe=1`` scans the query's bucket
    only; ``nprobe>1`` adds every bucket at Hamming distance < nprobe from
    it (multi-probe: recall rises with the number of scanned buckets while
    the scan stays a tiny fraction of the corpus). Same output schema as
    brute_force_knn; recall < 1 by design — the scale path."""
    q = np.asarray(query, np.float64)
    dim = q.shape[-1]
    h = _LshBucket(dim, nbits, seed)
    qb = int(h.bucket_of(q[None, :])[0])
    probes = {qb}
    frontier = {qb}
    for _ in range(1, nprobe):
        frontier = {b ^ (1 << i) for b in frontier for i in range(nbits)} - probes
        probes |= frontier
    # one bucket actor + a small re-rank pool: fixed actor pools reserve
    # their CPUs, so the combined pools must leave headroom for the read
    # tasks even on a 4-CPU cluster (observed deadlock otherwise)
    bucketed = embeddings.map_batches(
        _LshBucket,
        fn_constructor_args=(dim, nbits, seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=1,
    )
    probe_arr = pa.array(sorted(probes), pa.int64())

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch["lsh_bucket"], value_set=probe_arr))

    cand = bucketed.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return brute_force_knn(cand, q, k, concurrency=max(1, min(2, ncpu - 3)))


def lsh_blocked_near_dup(
    embeddings: "ray.data.Dataset",
    threshold: float = 0.3,
    nbits: int = 8,
    seed: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Embedding near-duplicate pairs with the LSH bucket as the blocking
    key — the scale path the ``cosine_near_dup_pairs`` docstring promises:
    candidate pairs compare only WITHIN a hyperplane bucket (corpus-linear
    work, bounded per-group quadratic), recall trades with ``nbits``."""
    dim = len(embeddings.take(1)[0][vec_col])
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    bucketed = embeddings.map_batches(
        _LshBucket,
        fn_constructor_args=(dim, nbits, seed),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=max(1, min(2, ncpu - 2)),
    )
    return cosine_near_dup_pairs(
        bucketed,
        threshold=threshold,
        block_col="lsh_bucket",
        id_col=id_col,
        vec_col=vec_col,
    )


def cosine_near_dup_pairs(
    embeddings: "ray.data.Dataset",
    threshold: float = 0.95,
    block_col: str = "label",
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Embedding near-duplicate pairs with cosine >= threshold, compared only
    within ``block_col`` groups (the blocking key bounds the O(n^2): at scale
    use an LSH bucket column as the block)."""

    def pairs_in_shard(shard: pa.Table) -> pa.Table:
        _g, ids, nm, blocks = _unit_blocks(shard, block_col, id_col, vec_col)
        a_ids, b_ids, cos = [], [], []
        for lo, hi in blocks:
            sims = nm[lo:hi] @ nm[lo:hi].T
            a, b = np.triu_indices(hi - lo, k=1)
            keep = sims[a, b] >= threshold
            a_ids.append(ids[lo:hi][a[keep]])
            b_ids.append(ids[lo:hi][b[keep]])
            cos.append(sims[a[keep], b[keep]].astype(np.float64))
        return pa.table(
            {
                "vec_a": pa.array(np.concatenate(a_ids), pa.int64()),
                "vec_b": pa.array(np.concatenate(b_ids), pa.int64()),
                "cosine": pa.array(np.round(np.concatenate(cos), 6)),
            }
        )

    refs = (
        shard_reduce(embeddings, block_col, pairs_in_shard)
        .materialize()  # avoid to_arrow_refs' second schema-probe run
        .to_arrow_refs()
    )
    tables = [t for t in ray.get(refs) if len(t)]
    if not tables:
        return pa.table(
            {
                "vec_a": pa.array([], pa.int64()),
                "vec_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    return pa.concat_tables(tables).sort_by([("vec_a", "ascending"), ("vec_b", "ascending")])


def _seeded_centroid_init(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k distinct initial centroids: rows of the sample picked
    by md5-seeded indices (no RNG state, reproducible across processes)."""
    from whoosh_novo_ray.ops.hashing import md5_u64

    n = len(sample)
    if n == 0:
        raise ValueError("k-means sample is empty (no embedding rows)")
    # fewer sample rows than requested centroids: k distinct picks are
    # impossible — clamp (duplicate sample rows would yield dead centroids
    # anyway, and the unclamped loop never terminates)
    k = min(k, n)
    picked: list[int] = []
    i = 0
    while len(picked) < k:
        idx = md5_u64(f"ivf-{seed}-{i}") % n
        if idx not in picked:
            picked.append(int(idx))
        i += 1
    return sample[np.array(picked)]


def train_ivf_centroids(
    embeddings: "ray.data.Dataset",
    n_centroids: int = 16,
    vec_col: str = "embedding",
    sample_rows: int = 10_000,
    iters: int = 10,
    seed: int = 5,
) -> np.ndarray:
    """Lloyd's k-means over a bounded sample (driver-side numpy — the
    sample is fixed-size regardless of corpus size; assignment of the full
    corpus stays distributed). Deterministic: md5-seeded init, fixed
    iteration count."""
    head = embeddings.limit(sample_rows)
    parts = [t for t in ray.get(head.materialize().to_arrow_refs()) if len(t)]
    mat = np.concatenate([_batch_mat(t, vec_col) for t in parts])
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    mat = mat / norms[:, None]
    c = _seeded_centroid_init(mat, n_centroids, seed)
    for _ in range(iters):
        sims = mat @ c.T
        lab = sims.argmax(axis=1)
        for i in range(n_centroids):
            m = lab == i
            if m.any():
                v = mat[m].mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    c[i] = v / nv
    return c


class _IvfAssign:
    """map_batches actor: nearest-centroid id per embedding (centroids
    shipped once per actor via constructor args)."""

    def __init__(self, centroids: np.ndarray, vec_col: str):
        self.c = np.asarray(centroids, np.float64)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _batch_mat(batch, self.vec_col)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        lab = ((mat / norms[:, None]) @ self.c.T).argmax(axis=1)
        return batch.append_column(
            "ivf_cell", pa.array(lab.astype(np.int64), pa.int64())
        )


def ivf_knn(
    embeddings: "ray.data.Dataset",
    query: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    centroids: np.ndarray | None = None,
    seed: int = 5,
) -> pa.Table:
    """IVF approximate cosine top-k: assign vectors to their nearest
    centroid cell, scan only the ``nprobe`` cells nearest the query, exact
    re-rank inside them. At scale the assignment is written once
    (partitioned parquet by cell) and queries read only their probe cells;
    here the assignment streams."""
    if centroids is None:
        centroids = train_ivf_centroids(
            embeddings, n_centroids, vec_col, seed=seed
        )
    q = np.asarray(query, np.float64).reshape(-1)
    qn = q / (np.linalg.norm(q) or 1.0)
    order = np.argsort(-(centroids @ qn))
    probe = pa.array(sorted(int(x) for x in order[:nprobe]), pa.int64())

    # one assign actor + a 2-actor re-rank pool: fixed pools RESERVE their
    # CPUs for the pipeline's lifetime, so the combined pools must leave
    # headroom for the read tasks even on a 4-CPU test cluster
    assigned = embeddings.map_batches(
        _IvfAssign,
        fn_constructor_args=(centroids, vec_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=1,
    )

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch["ivf_cell"], value_set=probe))

    cand = assigned.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    # cap the re-rank pool so assign + re-rank actors coexist on small
    # clusters (fixed-size actor pools deadlock when CPUs < total actors)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return brute_force_knn(
        cand,
        q,
        k,
        id_col=id_col,
        vec_col=vec_col,
        concurrency=max(1, min(2, ncpu - 3)),  # leaves room for assign + reads
    )


def semdedup_table(
    embeddings: "ray.data.Dataset",
    centroids: np.ndarray,
    threshold: float = 0.9,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """SemDeDup (Abbas et al. 2023): cluster-blocked semantic dedup over an
    embedding column.  Vectors are assigned to their max-cosine centroid
    cell (ties -> lowest cell id), then WITHIN each cell a vector is dropped
    when some lower-id cellmate has cosine >= ``threshold`` with it — the
    deterministic keep-lowest-id variant of "keep one per duplicate group".

    Returns ``(vec_id, cell, keep)`` for every vector.  The pairwise work
    is O(m^2) per CELL, never per corpus — at scale the centroid count
    grows with the corpus so cells stay bounded, exactly the SemDeDup
    recipe (they use k-means with k ~ sqrt(n)); cells spread over the
    shards of one ``shard_reduce``, so the stage parallelizes across the
    cluster.
    """
    c = np.asarray(centroids, np.float64)
    cn = np.linalg.norm(c, axis=1)
    cn[cn == 0] = 1.0
    c = c / cn[:, None]

    class _CellAssign:
        def __init__(self, cref):
            self.c = cref if isinstance(cref, np.ndarray) else ray.get(cref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _batch_mat(batch, vec_col)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1.0
            cell = ((mat / norms[:, None]) @ self.c.T).argmax(axis=1)
            return pa.table(
                {
                    id_col: batch[id_col].cast(pa.int64()),
                    vec_col: batch[vec_col],
                    "cell": pa.array(cell.astype(np.int64), pa.int64()),
                }
            )

    def dedup_cell(shard: pa.Table) -> pa.Table:
        g, ids, nm, cells = _unit_blocks(shard, "cell", id_col, vec_col)
        keep = np.ones(len(ids), bool)
        for clo, chi in cells:
            # row-block the matmul so a hot cell never materializes a full
            # m x m similarity matrix; each block only compares against
            # EARLIER rows of its cell
            cm = nm[clo:chi]
            for lo in range(1, chi - clo, 1024):
                hi = min(lo + 1024, chi - clo)
                sims = cm[lo:hi] @ cm[:hi].T
                local = np.tril(sims >= threshold, k=lo - 1)
                keep[clo + lo : clo + hi] &= ~local.any(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cell": g["cell"],
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    # size the assign pool below the CPU count so the read tasks and the
    # shuffle keep their slots (fixed pools reserve CPUs)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    assigned = embeddings.map_batches(
        _CellAssign,
        fn_constructor_args=(ray.put(c),),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=max(1, min(4, ncpu - 2)),
    )
    return shard_reduce(assigned, "cell", dedup_cell)
