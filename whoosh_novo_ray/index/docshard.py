"""Doc-sharded serving layout: re-partition a built index by DOCUMENT.

The main index is term-hash-partitioned (optimal for the build shuffle and
point term lookups), but distributed *query scoring* wants the reference's
own segment model: doc-partitioned segments evaluated independently and
merged (de-odex/whoosh-novo ``src/whoosh/reading.py:1012-1120`` MultiReader —
each segment owns a doc range; ``searching.py``/``collectors.py`` merge the
per-segment results). This module materializes that layout once per index
generation: every term's postings are split by a deterministic doc-id hash
into ``num_shards`` shards, re-encoded with the SAME block codec, and written
as one parquet per shard. A ScoreServer actor (state/score_pool.py) then pins
one-or-more shards and evaluates whole queries over its doc subset with
GLOBAL collection stats, returning only its top-k — so no query ever ships a
posting blob off the node that owns it.

Scale notes:
  * The serving build is a single decode -> shuffle -> encode Ray Data job —
    the same cost shape as a compaction pass (index/merge.py) — and the only
    one: ``build_index_and_serving`` is ``build_index`` followed by it. The
    second exchange moves the encoded term buckets (~8x smaller than raw
    posting rows) and never stages the posting stream in the object store.
    At 100 TB, ``num_shards`` is sized so one shard's segment fits a
    serving worker's heap (shards ≈ serving actors × small constant).
  * Doc-sharding absorbs term skew by construction: a stopword-grade term's
    postings split evenly across every shard, so no salting is needed in the
    serving layout (heavy_terms is cleared) and per-shard work is balanced.
  * The shard files double as resumable output: the shuffle writes one
    atomic parquet per shard with lineage, and a re-run (resume=True) skips
    shards already built for this index generation.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from whoosh_novo_ray.index.build import (
    MANIFEST_NAME,
    _run_bucket_shuffle,
    build_index,
)
from whoosh_novo_ray.index.merge import DecodeSegmentRows, docmeta_rows_fn
from whoosh_novo_ray.index.segment import Index

SERVING_SUBDIR = "serving"


def doc_shard_of(doc_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Deterministic (process-independent) doc-id -> shard assignment."""
    return (
        pd.util.hash_array(np.asarray(doc_ids, np.uint64)) % np.uint64(num_shards)
    ).astype(np.uint32)


def _add_doc_shard(num_shards: int):
    def add(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        shard = pa.array(doc_shard_of(ids, num_shards), pa.uint32())
        return batch.add_column(0, "bucket", shard)

    return add


def serving_dir_for(index_path: str) -> str:
    return os.path.join(index_path, SERVING_SUBDIR)


def build_attr_shards(
    attrs_path: str | list[str],
    out_dir: str,
    columns: list[str],
    num_shards: int,
    lineage: str = "",
    resume: bool = True,
) -> dict:
    """Doc-shard a per-document attribute table with the SAME hash as the
    serving shards, so a ScoreServer reads exactly ITS docs' attribute rows
    (one partition, no id-list filters) for facet / sort / collapse keys.
    Writes ``out_dir/vshard=K/`` parquet + a small manifest; resumable by
    lineage."""
    man_path = os.path.join(out_dir, "attr_manifest.json")
    if resume and lineage and os.path.exists(man_path):
        with open(man_path) as f:
            old = json.load(f)
        if old.get("lineage") == lineage and old.get("num_shards") == num_shards:
            return old
    cols = ["doc_id"] + [c for c in columns if c != "doc_id"]
    n_blocks = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        attrs_path, columns=cols, override_num_blocks=n_blocks
    )

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "vshard", pa.array(doc_shard_of(ids, num_shards), pa.uint32())
        )

    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    ds.map_batches(add_shard, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        out_dir, partition_cols=["vshard"]
    )
    man = {"lineage": lineage, "num_shards": num_shards, "columns": cols}
    tmp = man_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, man_path)
    return man


def default_num_shards(num_actors: int = 4) -> int:
    """Shard count sized to the CLUSTER (the shuffle/encode parallelism is
    shard-count-bounded), mirrored by ScorePool's default."""
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return max(8, num_actors, 2 * ncpu)


def build_index_and_serving(
    docs: "ray.data.Dataset",
    out_dir: str,
    cfg=None,
    num_shards: int | None = None,
    lineage: str = "",
    resume: bool = False,
    doc_count: int | None = None,
    auto_heavy: bool | dict = False,
) -> tuple[dict, dict]:
    """Build the term-bucket index at ``out_dir`` plus the doc-sharded
    serving layout at ``out_dir/serving`` in one call, straight from docs:
    ``build_index`` followed by ``build_serving_shards(resume=True)``, the
    one serving-build path. A later ``ScorePool`` over ``out_dir`` with the
    same shard count resume-skips its rebuild and just pins the shards.

    Returns ``(index_manifest, serving_manifest)``.
    """
    man = build_index(
        docs, out_dir, cfg, lineage, resume, auto_heavy=auto_heavy,
        doc_count=doc_count,
    )
    sman = build_serving_shards(
        out_dir, num_shards=num_shards or default_num_shards(), resume=True
    )
    return man, sman


def build_serving_shards(
    index_path: str | list[str],
    num_shards: int = 8,
    out_dir: str | None = None,
    resume: bool = True,
) -> dict:
    """Build (or resume) the doc-sharded serving layout for an index.

    Writes ``<index>/serving/segments/bucket=K.parquet`` (one doc shard per
    file, term-sorted, same schema/codec as the main segments) plus
    ``serving/docmeta/bucket=K.parquet`` (the shard's doc universe) and a
    serving manifest whose doc_count / total_field_length are the GLOBAL
    collection stats — a shard searcher scores with these, never its local
    counts. Returns the serving manifest dict.

    ``index_path`` may be a LIST of member index dirs (a generational
    MultiIndex with doc-disjoint members): the serving build unions their
    posting streams, so a MERGE_SMALL generation serves from one shard set
    regardless of how many segment sets back it.
    """
    members = [index_path] if isinstance(index_path, str) else list(index_path)
    idxs = [Index(p) for p in members]
    idx = idxs[0]
    cfg = idx.cfg
    if out_dir is None:
        if len(members) > 1:
            raise ValueError("multi-member serving build needs an explicit out_dir")
        out_dir = serving_dir_for(members[0])
    lineage = "serving:" + ";".join(
        f"{i.manifest.get('lineage', '')}:{i.manifest.get('generation', 0)}"
        for i in idxs
    ) + f":{num_shards}"

    man_path = os.path.join(out_dir, MANIFEST_NAME)
    if resume and os.path.exists(man_path):
        with open(man_path) as f:
            old = json.load(f)
        if old.get("serving_lineage") == lineage:
            return old

    wp = cfg.with_positions
    wc = getattr(cfg, "with_chars", False)
    ww = getattr(cfg, "with_weights", False)
    wpb = ww and wp and getattr(cfg.analyzer, "boost_delim", None) is not None

    seg_files = [
        os.path.join(p, b["path"])
        for p, i in zip(members, idxs)
        for b in i.manifest["buckets"]
        if b["path"]
    ]
    import glob as _glob

    dm_files = sorted(
        f
        for p in members
        for f in _glob.glob(os.path.join(p, "docmeta", "*.parquet"))
    )
    streams = []
    if seg_files:
        streams.append(
            ray.data.read_parquet(seg_files).map_batches(
                DecodeSegmentRows(wp),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
    if dm_files:
        streams.append(
            ray.data.read_parquet(dm_files).map_batches(
                docmeta_rows_fn(ww=ww, wp=wp, wpb=wpb, wc=wc),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
    if not streams:
        raise ValueError(f"index at {index_path} has no segments or docmeta")
    postings = streams[0] if len(streams) == 1 else streams[0].union(*streams[1:])
    sharded = postings.map_batches(
        _add_doc_shard(num_shards), batch_format="pyarrow", zero_copy_batch=True
    )

    doc_count = sum(i.doc_count for i in idxs)
    total_fl = float(sum(i.total_field_length for i in idxs))
    # doc-sharded layout needs no heavy-term salting: skew splits by doc hash
    cfg2 = dataclasses.replace(cfg, num_buckets=num_shards, heavy_terms=())
    manifest = _run_bucket_shuffle(
        sharded, out_dir, cfg2, lineage, resume=resume, doc_count=doc_count
    )
    # global stats for shard searchers + a layout tag so nobody term-routes
    # into doc shards by mistake
    manifest["layout"] = "docshard"
    manifest["serving_lineage"] = lineage
    manifest["num_shards"] = num_shards
    manifest["doc_count"] = doc_count
    manifest["total_field_length"] = total_fl
    tmp = man_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, man_path)
    return manifest
