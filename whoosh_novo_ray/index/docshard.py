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
    the same read as a compaction pass (index/merge.py) — and the only one:
    ``build_index_and_serving`` is ``build_index`` followed by it. It runs
    one read task per index bucket, which decodes the bucket's segment and
    docmeta files together. Ray Data's cost here is per block and per
    operator more than per row: a union of a segment read and a docmeta
    read (two operators, twice the blocks) cost more CPU than the decode,
    so the input blocks are sized to the buckets. At 100 TB, raise the
    index's ``num_buckets`` (and so the read tasks) with the data, and size
    ``num_shards`` so one shard's segment fits a serving worker's heap
    (shards ≈ serving actors × small constant).
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

import pyarrow as pa

import ray

from whoosh_novo_ray.index.build import (
    MANIFEST_NAME,
    SERVING_LAYOUT,
    _run_bucket_shuffle,
    build_index,
    doc_shard_of,
)
from whoosh_novo_ray.index.merge import read_bucket_postings
from whoosh_novo_ray.index.segment import Index

SERVING_SUBDIR = "serving"


def _add_doc_shard(num_shards: int):
    def add(batch: pa.Table) -> pa.Table:
        shard = doc_shard_of(batch["doc_id"], num_shards)
        return batch.add_column(0, "bucket", pa.array(shard, pa.uint32()))

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
    import ray.data

    cols = ["doc_id"] + [c for c in columns if c != "doc_id"]
    n_blocks = int(ray.cluster_resources().get("CPU", 8))
    ds = ray.data.read_parquet(
        attrs_path, columns=cols, override_num_blocks=n_blocks
    )

    def add_shard(batch: pa.Table) -> pa.Table:
        shard = doc_shard_of(batch["doc_id"], num_shards)
        return batch.append_column("vshard", pa.array(shard, pa.uint32()))

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
    shard-count-bounded), mirrored by ScorePool's default. Rounded up to a
    power of two: with such a count a term's ``doc_slots`` gives its exact
    shard set, so the pool sends a query only to the actors whose shards
    can match it (``score_pool.shard_slots``)."""
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return 1 << (max(8, num_actors, 2 * ncpu) - 1).bit_length()


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
    index_path: str,
    num_shards: int = 8,
    out_dir: str | None = None,
    resume: bool = True,
) -> dict:
    """Build (or resume) the doc-sharded serving layout for an index.

    Writes ``<index>/serving/segments/bucket=K.parquet`` (one doc shard per
    file, term-sorted, the main segments' codec in ``SERVING_LAYOUT``: no
    ``weight``, ``lens_blob`` or ``doc_slots``) plus
    ``serving/docmeta/bucket=K.parquet`` (the shard's doc universe) and a
    serving manifest whose doc_count / total_field_length are the index's
    collection stats — a shard searcher scores with these (summed over the
    members of a generation), never its local counts. Returns the serving
    manifest dict. Each member of a generation gets its own layout, and a
    scoring actor pins shard k of every member.
    """
    idx = Index(index_path)
    cfg = idx.cfg
    out_dir = out_dir or serving_dir_for(index_path)
    lineage = (
        f"serving:{idx.manifest.get('lineage', '')}:"
        f"{idx.manifest.get('generation', 0)}:{num_shards}"
    )

    man_path = os.path.join(out_dir, MANIFEST_NAME)
    if resume and os.path.exists(man_path):
        with open(man_path) as f:
            old = json.load(f)
        if old.get("serving_lineage") == lineage:
            return old

    postings = read_bucket_postings([index_path], cfg)
    sharded = postings.map_batches(
        _add_doc_shard(num_shards), batch_format="pyarrow", zero_copy_batch=True
    )

    doc_count = idx.doc_count
    total_fl = float(idx.total_field_length)
    # doc-sharded layout needs no heavy-term salting: skew splits by doc hash
    cfg2 = dataclasses.replace(cfg, num_buckets=num_shards, heavy_terms=())
    manifest = _run_bucket_shuffle(
        sharded, out_dir, cfg2, lineage, resume=resume, doc_count=doc_count,
        layout=SERVING_LAYOUT,
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
