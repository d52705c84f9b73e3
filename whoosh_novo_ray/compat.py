"""Reference-shaped convenience API: Schema / create_in / writer / searcher.

A user of the reference engine writes

    ix = index.create_in("dir", Schema(title=TEXT(stored=True), id=ID(unique=True)))
    w = ix.writer(); w.add_document(title=..., id=...); w.commit()
    with ix.searcher() as s: s.search(parser.parse("title:hello"))

This module offers the same workflow over the Ray-Data-native engine
(reference surface: src/whoosh/fields.py:1375 Schema, index.py create_in /
open_dir, writing.py IndexWriter, searching.py Searcher):

  * each indexed field is its own GenerationalIndex under ``root/field=F``
    (same doc-id space) — adds/updates/deletes ride the generational
    machinery (merge_small tiering, atomic CURRENT) per field;
  * stored / numeric / datetime fields live in a columnar attrs table
    (``root/stored/part-*.parquet``), never duplicated into postings — at
    cluster scale stored fields stay in the source parquet, which is
    exactly what this layout is;
  * a ``Searcher`` facade routes fielded Term/Phrase nodes to their
    field's index (MultiFieldSearcher semantics) and serves stored fields.

Deliberate deltas from the reference, documented not hidden:
  * ``writer()`` buffers in memory and ``commit()`` runs Ray jobs — there
    is no posting-pool spill because the SHUFFLE is the external sort;
  * unfielded query-string terms analyze with the default TEXT analyzer;
    explicitly-fielded terms use their field's analyzer (ID/KEYWORD keep
    case) — wildcard/prefix syntax still lowercases like the base parser;
  * STORED values are strings (Arrow-typed, not pickles).
"""

from __future__ import annotations

import glob
import json
import os
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from whoosh_novo_ray.analysis import (
    PERSISTABLE_ANALYZERS,
    StandardAnalyzer,
    analyzer_from_json,
    analyzer_to_json,
    id_analyzer,
    keyword_analyzer,
    simple_analyzer,
    stemming_analyzer,
)

SCHEMA_FILE = "schema.json"
META_FILE = "compat_meta.json"


# ---------------------------------------------------------------------------
# field types + schema
# ---------------------------------------------------------------------------


class FieldSpec:
    kind = "base"
    indexed = False
    unique = False

    def __init__(self, stored: bool = False):
        self.stored = stored

    def analyzer(self):
        raise NotImplementedError

    def arrow_type(self) -> pa.DataType:
        return pa.string()

    def to_index_value(self, v) -> str:
        return "" if v is None else str(v)

    def options(self) -> dict:
        return {"stored": self.stored}

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.options()}


class TEXT(FieldSpec):
    """Analyzed full-text field (reference fields.TEXT). ``vector=True``
    stores per-doc (term, weight) vectors beside the field index
    (reference TEXT(vector=...), served by index/vectors.py — key_terms /
    more_like read the stored vectors instead of re-analyzing text).

    ``analyzer=`` takes a StandardAnalyzer-family instance (StandardAnalyzer
    or the non-lowercasing keyword/ID analyzer) and wins over ``lang=``,
    which wins over ``stem=`` — the reference's precedence
    (fields.py:1135-1140). Custom analyzers persist in the schema JSON; any
    other analyzer class raises TypeError here, since it could not be
    reloaded faithfully."""

    kind = "text"
    indexed = True

    def __init__(
        self,
        stored: bool = False,
        stem: bool = False,
        minsize: int = 2,
        vector: bool = False,
        analyzer: StandardAnalyzer | dict | None = None,
        lang: str | None = None,
    ):
        super().__init__(stored)
        self.stem = stem
        self.minsize = minsize
        self.vector = vector
        if isinstance(analyzer, dict):  # schema-JSON reconstruction
            analyzer = analyzer_from_json(analyzer)
        elif analyzer is not None and type(analyzer) not in (
            PERSISTABLE_ANALYZERS.values()
        ):
            # fail here, not at schema-save time or as a silent downgrade
            # on reload
            raise TypeError(
                f"TEXT(analyzer=) takes a StandardAnalyzer-family analyzer "
                f"({sorted(PERSISTABLE_ANALYZERS)}), got "
                f"{type(analyzer).__name__}"
            )
        self._analyzer = analyzer
        self.lang = lang

    def analyzer(self):
        if self._analyzer is not None:
            return self._analyzer
        if self.lang:
            from whoosh_novo_ray.analysis import language_analyzer

            return language_analyzer(self.lang)
        if self.stem:
            return stemming_analyzer(minsize=self.minsize)
        return StandardAnalyzer(minsize=self.minsize)

    def options(self):
        return {
            "stored": self.stored,
            "stem": self.stem,
            "minsize": self.minsize,
            "vector": self.vector,
            "analyzer": analyzer_to_json(self._analyzer)
            if self._analyzer is not None
            else None,
            "lang": self.lang,
        }


class ID(FieldSpec):
    """Whole value = one exact term (reference fields.ID)."""

    kind = "id"
    indexed = True

    def __init__(self, stored: bool = False, unique: bool = False):
        super().__init__(stored)
        self.unique = unique

    def analyzer(self):
        return id_analyzer()

    def options(self):
        return {"stored": self.stored, "unique": self.unique}


class KEYWORD(FieldSpec):
    """Space/comma-separated exact keywords (reference fields.KEYWORD)."""

    kind = "keyword"
    indexed = True

    def __init__(
        self, stored: bool = False, commas: bool = False, lowercase: bool = False
    ):
        super().__init__(stored)
        self.commas = commas
        self.lowercase = lowercase

    def analyzer(self):
        return keyword_analyzer(lowercase=self.lowercase, commas=self.commas)

    def options(self):
        return {
            "stored": self.stored,
            "commas": self.commas,
            "lowercase": self.lowercase,
        }


class IDLIST(FieldSpec):
    """Whitespace/comma/semicolon-separated exact IDs (reference
    fields.IDLIST, fields.py:492-513): each token one case-preserved term."""

    kind = "idlist"
    indexed = True

    def __init__(self, stored: bool = False, unique: bool = False):
        super().__init__(stored)
        self.unique = unique

    def analyzer(self):
        from whoosh_novo_ray.analysis import idlist_analyzer

        return idlist_analyzer()

    def options(self):
        return {"stored": self.stored, "unique": self.unique}


class NGRAM(FieldSpec):
    """Character-n-gram field for substring search (reference fields.NGRAM,
    fields.py:1222-1260): grams over the whole lowercased value."""

    kind = "ngram"
    indexed = True

    def __init__(self, minsize: int = 2, maxsize: int = 4, stored: bool = False):
        super().__init__(stored)
        self.minsize = minsize
        self.maxsize = maxsize

    def analyzer(self):
        from whoosh_novo_ray.analysis import NgramAnalyzer

        return NgramAnalyzer(self.minsize, self.maxsize)

    def options(self):
        return {
            "stored": self.stored,
            "minsize": self.minsize,
            "maxsize": self.maxsize,
        }


class NGRAMWORDS(FieldSpec):
    """Word-wise n-grams (reference fields.NGRAMWORDS, fields.py:1285-1320):
    tokenize + lowercase, then grams within each word."""

    kind = "ngramwords"
    indexed = True

    def __init__(self, minsize: int = 2, maxsize: int = 4, stored: bool = False):
        super().__init__(stored)
        self.minsize = minsize
        self.maxsize = maxsize

    def analyzer(self):
        from whoosh_novo_ray.analysis import NgramWordsAnalyzer

        return NgramWordsAnalyzer(self.minsize, self.maxsize)

    def options(self):
        return {
            "stored": self.stored,
            "minsize": self.minsize,
            "maxsize": self.maxsize,
        }


class BOOLEAN(FieldSpec):
    """Indexed as the reference's 't'/'f' terms (fields.BOOLEAN)."""

    kind = "boolean"
    indexed = True

    def analyzer(self):
        return id_analyzer()

    def arrow_type(self):
        return pa.bool_()

    def to_index_value(self, v) -> str:
        return "t" if v else "f"


class NUMERIC(FieldSpec):
    """Native numeric column; range/equality queries use NumericRange /
    ColumnQuery over the attrs table (SURVEY §1.5: no tiered terms)."""

    kind = "numeric"

    def __init__(self, numtype: str = "int"):
        super().__init__(stored=True)
        if numtype not in ("int", "float"):
            raise ValueError("numtype must be 'int' or 'float'")
        self.numtype = numtype

    def arrow_type(self):
        return pa.int64() if self.numtype == "int" else pa.float64()

    def options(self):
        return {"numtype": self.numtype}


class DATETIME(FieldSpec):
    """Native timestamp column (DateRange queries over attrs)."""

    kind = "datetime"

    def __init__(self):
        super().__init__(stored=True)

    def arrow_type(self):
        return pa.timestamp("us")

    def options(self):
        return {}


class STORED(FieldSpec):
    """Stored-only string column (reference fields.STORED, string-typed)."""

    kind = "stored"

    def __init__(self):
        super().__init__(stored=True)

    def options(self):
        return {}


_KINDS = {
    c.kind: c
    for c in (
        TEXT,
        ID,
        IDLIST,
        KEYWORD,
        NGRAM,
        NGRAMWORDS,
        BOOLEAN,
        NUMERIC,
        DATETIME,
        STORED,
    )
}


def _clone_spec(spec: FieldSpec) -> FieldSpec:
    """Fresh FieldSpec with the same configuration (json round-trip)."""
    opts = spec.to_json()
    return _KINDS[opts.pop("kind")](**opts)


class Schema:
    def __init__(self, **fields: FieldSpec):
        for name, spec in fields.items():
            if isinstance(spec, type) and issubclass(spec, FieldSpec):
                fields = dict(fields)
                fields[name] = spec = spec()  # bare type -> default instance
            if not isinstance(spec, FieldSpec):
                raise TypeError(f"field {name!r}: expected a FieldSpec instance")
        if not any(s.indexed for s in fields.values()):
            raise ValueError("schema needs at least one indexed field")
        self.fields: dict[str, FieldSpec] = dict(fields)
        # dynamic glob fields (reference Schema.add(..., glob=True),
        # fields.py:1544-1550): pattern -> spec; document keys matching a
        # pattern materialize a concrete field at commit time
        self.dyn_fields: dict[str, FieldSpec] = {}

    def add(self, name: str, spec, glob: bool = False) -> None:
        """Add a field (reference Schema.add): ``glob=True`` registers a
        dynamic fnmatch pattern (e.g. ``"*_d"``) whose matching document
        keys index with a per-name copy of ``spec``."""
        if isinstance(spec, type) and issubclass(spec, FieldSpec):
            spec = spec()
        if not isinstance(spec, FieldSpec):
            raise TypeError(f"field {name!r}: expected a FieldSpec instance")
        if name.startswith("_") or " " in name:
            raise ValueError(f"bad field name {name!r}")
        if glob:
            if name in self.dyn_fields:
                raise ValueError(f"{name!r} already in schema")
            self.dyn_fields[name] = spec
        else:
            if name in self.fields:
                raise ValueError(f"{name!r} already in schema")
            self.fields[name] = spec

    def dyn_match(self, name: str) -> FieldSpec | None:
        """The first dynamic pattern matching ``name``, or None."""
        import fnmatch

        for pat, spec in self.dyn_fields.items():
            if fnmatch.fnmatchcase(name, pat):
                return spec
        return None

    def names(self) -> list[str]:
        return sorted(self.fields)

    def indexed_names(self) -> list[str]:
        return sorted(n for n, s in self.fields.items() if s.indexed)

    def unique_names(self) -> list[str]:
        return sorted(n for n, s in self.fields.items() if s.unique)

    def attr_names(self) -> list[str]:
        """Columns of the stored/attrs table: stored + native columns."""
        return sorted(n for n, s in self.fields.items() if s.stored)

    def __contains__(self, name: str) -> bool:
        return name in self.fields or self.dyn_match(name) is not None

    def __getitem__(self, name: str) -> FieldSpec:
        if name in self.fields:
            return self.fields[name]
        spec = self.dyn_match(name)
        if spec is None:
            raise KeyError(f"No field named {name!r}")
        return spec

    def to_json(self) -> dict:
        d = {n: s.to_json() for n, s in self.fields.items()}
        if self.dyn_fields:
            # "__dyn__" cannot collide: field names may not start with "_"
            d["__dyn__"] = {p: s.to_json() for p, s in self.dyn_fields.items()}
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Schema":
        d = dict(d)
        dyn = d.pop("__dyn__", {})
        fields = {}
        for n, spec in d.items():
            opts = dict(spec)
            fields[n] = _KINDS[opts.pop("kind")](**opts)
        out = cls(**fields)
        for p, spec in dyn.items():
            opts = dict(spec)
            out.dyn_fields[p] = _KINDS[opts.pop("kind")](**opts)
        return out


class MetaSchema(type):
    """Collects FieldSpec class attributes (instances or bare types) across
    the MRO into ``_clsfields`` — the declarative-schema machinery
    (reference fields.MetaSchema/SchemaClass, fields.py:1570-1640)."""

    def __new__(mcs, name, bases, attrs):
        cls = super().__new__(mcs, name, bases, attrs)
        fields: dict[str, FieldSpec] = {}
        for klass in reversed(cls.__mro__):
            for k, v in vars(klass).items():
                if k.startswith("_"):
                    continue
                if isinstance(v, FieldSpec):
                    fields[k] = v
                elif isinstance(v, type) and issubclass(v, FieldSpec):
                    fields[k] = v()
        cls._clsfields = fields
        return cls

    def schema(cls) -> "Schema":
        return Schema(
            **{
                n: _clone_spec(s)
                for n, s in getattr(cls, "_clsfields", {}).items()
            }
        )


class SchemaClass(Schema, metaclass=MetaSchema):
    """Declarative schema (reference fields.SchemaClass)::

        class MySchema(SchemaClass):
            path = ID(stored=True)
            content = TEXT

    Instantiating a subclass returns a plain ``Schema``; inheritance shares
    fields between schemas.
    """

    def __new__(cls, *args, **kwargs):
        obj = object.__new__(Schema)
        kw = {n: _clone_spec(s) for n, s in getattr(cls, "_clsfields", {}).items()}
        kw.update(kwargs)
        obj.__init__(**kw)
        return obj


def ensure_schema(schema) -> "Schema":
    """Accept a Schema instance or a Schema/SchemaClass subclass (reference
    fields.ensure_schema)."""
    if isinstance(schema, type) and issubclass(schema, Schema):
        schema = MetaSchema.schema(schema)
    if not isinstance(schema, Schema):
        raise TypeError(f"{schema!r} is not a Schema")
    return schema


# ---------------------------------------------------------------------------
# index directory
# ---------------------------------------------------------------------------


def create_in(dirname: str, schema, policy: str = "merge_small") -> "CompatIndex":
    schema = ensure_schema(schema)
    os.makedirs(dirname, exist_ok=True)
    with open(os.path.join(dirname, SCHEMA_FILE), "w") as f:
        json.dump({"schema": schema.to_json(), "policy": policy}, f, indent=1)
    with open(os.path.join(dirname, META_FILE), "w") as f:
        json.dump({"next_id": 0}, f)
    return CompatIndex(dirname)


def open_dir(dirname: str) -> "CompatIndex":
    if not exists_in(dirname):
        raise FileNotFoundError(f"no index schema in {dirname}")
    return CompatIndex(dirname)


def exists_in(dirname: str) -> bool:
    return os.path.exists(os.path.join(dirname, SCHEMA_FILE))


class CompatIndex:
    def __init__(self, root: str):
        self.root = root
        with open(os.path.join(root, SCHEMA_FILE)) as f:
            d = json.load(f)
        self.schema = Schema.from_json(d["schema"])
        self.policy = d.get("policy", "merge_small")

    # -- plumbing ---------------------------------------------------------

    def _meta(self) -> dict:
        with open(os.path.join(self.root, META_FILE)) as f:
            return json.load(f)

    def _write_schema(self) -> None:
        """Persist the (possibly glob-extended) schema atomically."""
        path = os.path.join(self.root, SCHEMA_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(
                {"schema": self.schema.to_json(), "policy": self.policy},
                f,
                indent=1,
            )
        os.replace(tmp, path)

    def _write_meta(self, meta: dict) -> None:
        tmp = os.path.join(self.root, META_FILE + ".tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(self.root, META_FILE))

    def _field_gi(self, name: str):
        from whoosh_novo_ray.index.build import IndexConfig
        from whoosh_novo_ray.index.incremental import GenerationalIndex

        spec = self.schema[name]
        cfg = IndexConfig(
            text_col=name, id_col="doc_id", analyzer=spec.analyzer(), num_buckets=8
        )
        return GenerationalIndex(
            os.path.join(self.root, f"field={name}"), cfg, policy=self.policy
        )

    def _open_field(self, name: str):
        gi = self._field_gi(name)
        try:
            return gi.open()
        except FileNotFoundError:
            return None

    def _stored_parts(self) -> list[str]:
        """Stored-field parquet files: single-file parts from buffered
        commits, plus files under part directories written by bulk
        add_dataset commits."""
        out = []
        for p in sorted(glob.glob(os.path.join(self.root, "stored", "part-*"))):
            if os.path.isdir(p):
                out.extend(sorted(glob.glob(os.path.join(p, "*.parquet"))))
            elif p.endswith(".parquet"):
                out.append(p)
        return out

    def _attrs(self, live_ids: np.ndarray | None) -> pa.Table:
        cols = self.schema.attr_names()
        schema = pa.schema(
            [("doc_id", pa.uint64())]
            + [(n, self.schema[n].arrow_type()) for n in cols]
        )
        parts = self._stored_parts()
        if not parts:
            return schema.empty_table()
        t = pa.concat_tables([pq.read_table(p) for p in parts]).combine_chunks()
        if live_ids is not None and len(t):
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            keep = np.isin(ids, live_ids)
            t = t.filter(pa.array(keep))
        return t

    # -- reference-shaped surface ------------------------------------------

    def writer(self) -> "CompatWriter":
        return CompatWriter(self)

    def searcher(self, **field_params) -> "CompatSearcher":
        return CompatSearcher(self, **field_params)

    def doc_count(self) -> int:
        idx = self._open_field(self.schema.indexed_names()[0])
        return 0 if idx is None else int(idx.doc_count)

    def is_empty(self) -> bool:
        return self.doc_count() == 0

    def optimize(self) -> None:
        """Compact every field's generations down to one segment set
        (reference IndexWriter commit(optimize=True))."""
        from whoosh_novo_ray.index.merge import merge_indexes

        for name in self.schema.indexed_names():
            gi = self._field_gi(name)
            cur = gi.current_path()
            if cur is None:
                continue
            members = gi._members(cur)
            if len(members) == 1:
                continue
            gen = gi.current_generation() + 1
            out = os.path.join(gi.root, f"gen-{gen:06d}")
            merge_indexes(members, out, cfg=gi.cfg, lineage="compat:optimize")
            gi._commit(gen)

    def cleanup(self, keep: int = 2) -> None:
        """Garbage-collect old generations of every field's index
        (GenerationalIndex.cleanup)."""
        for name in self.schema.indexed_names():
            gi = self._field_gi(name)
            if gi.current_generation() is not None:
                gi.cleanup(keep=keep)

    def refresh(self) -> "CompatIndex":
        return CompatIndex(self.root)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class CompatWriter:
    """Buffers documents, runs the Ray build jobs at commit() (reference
    IndexWriter workflow, writing.py:372-520 — the PostingPool's external
    sort is the bucket shuffle here)."""

    def __init__(self, index: CompatIndex):
        self.index = index
        self.schema = index.schema
        # one buffer in CALL ORDER (doc ids are assigned in add/update
        # call order, like the reference's docnums); updates are also
        # tracked separately for the unique-key delete lookups
        self._pending: list[dict] = []
        self._updates: list[dict] = []
        self._datasets: list[tuple] = []
        self._del_terms: list[tuple[str, str]] = []
        self._cancelled = False

    def _check(self, kw: dict) -> dict:
        for k in kw:
            if k not in self.schema:
                raise ValueError(f"unknown field {k!r}")
        return kw

    def add_document(self, **kw) -> None:
        self._pending.append(self._check(kw))

    def update_document(self, **kw) -> None:
        """Delete any docs matching this doc's unique-field values, then add
        (reference IndexWriter.update_document, writing.py:577-640)."""
        self._check(kw)
        if not any(u in kw for u in self.schema.unique_names()):
            raise ValueError("update_document needs a unique field value")
        self._pending.append(kw)
        self._updates.append(kw)

    def add_dataset(self, ds, id_col: str | None = None) -> None:
        """Bulk add: a Ray Dataset whose columns are schema field names —
        the SCALE path (reference users ingest whole parquet corpora; a
        per-row add_document loop would serialize the driver). Blocks never
        leave the object store: ids are assigned per block from a
        driver-side offset list, per-field projections and the stored part
        are map_batches + write_parquet.

        ``id_col``: use this column as the doc id (caller guarantees
        uniqueness and no overlap with existing ids); None assigns
        sequential ids."""
        self._datasets.append((ds, id_col))

    def delete_by_term(self, fieldname: str, text) -> None:
        if fieldname not in self.schema or not self.schema[fieldname].indexed:
            raise ValueError(f"{fieldname!r} is not an indexed field")
        self._del_terms.append((fieldname, text))

    def cancel(self) -> None:
        self._cancelled = True
        self._pending, self._updates = [], []
        self._datasets, self._del_terms = [], []

    # -- commit -------------------------------------------------------------

    def _lookup_ids(self, field: str, text) -> np.ndarray:
        idx = self.index._open_field(field)
        if idx is None:
            return np.empty(0, np.uint64)
        from whoosh_novo_ray.search import query as Q
        from whoosh_novo_ray.search.searcher import Searcher

        term = self.schema[field].to_index_value(text)
        ids, _ = Searcher(idx).postings(Q.Term(term))
        return np.asarray(ids, np.uint64)

    def _with_ids(self, ds, id_col: str | None, next_id: int):
        """Normalize a bulk dataset to carry a uint64 ``doc_id`` column;
        blocks stay in the object store (one remote count + one remote
        id-append task per block — the driver holds one offset per block)."""
        import ray
        import ray.data

        if id_col is not None:
            mx = ds.max(id_col)
            if mx is None:  # empty dataset: nothing to renumber or reserve
                return ds, next_id

            def rn(b: pa.Table) -> pa.Table:
                cols = {"doc_id": b[id_col].cast(pa.uint64())}
                for c in b.column_names:
                    if c not in (id_col, "doc_id"):
                        cols[c] = b[c]
                return pa.table(cols)

            # materialize once: the normalized dataset is consumed once per
            # indexed field plus once for the stored part — a lazy map here
            # would re-read the upstream source each time
            ds2 = ds.map_batches(
                rn, batch_format="pyarrow", zero_copy_batch=True
            ).materialize()
            return ds2, max(next_id, int(mx) + 1)

        refs = ds.materialize().to_arrow_refs()
        nrows_task = ray.remote(lambda t: t.num_rows)
        nrows = ray.get([nrows_task.remote(r) for r in refs])

        def _append_ids(t: pa.Table, off: int) -> pa.Table:
            return t.append_column(
                "doc_id",
                pa.array(np.arange(off, off + t.num_rows, dtype=np.uint64)),
            )

        add_task = ray.remote(_append_ids)
        offs = next_id + np.concatenate(([0], np.cumsum(nrows)[:-1])).astype(np.int64)
        new_refs = [add_task.remote(r, int(o)) for r, o in zip(refs, offs)]
        return ray.data.from_arrow_refs(new_refs), next_id + int(sum(nrows))

    @staticmethod
    def _project_field(fname: str, spec: FieldSpec):
        """map_batches fn: (doc_id, <field> as index-value string)."""
        import pyarrow.compute as pc

        def project(b: pa.Table) -> pa.Table:
            if fname in b.column_names:
                col = b[fname]
                if spec.kind == "boolean":
                    out = pc.if_else(col.cast(pa.bool_()), "t", "f")
                else:
                    out = col.cast(pa.string())
                out = pc.fill_null(out, "")
            else:
                out = pa.nulls(len(b), pa.string()).fill_null("")
            return pa.table({"doc_id": b["doc_id"], fname: out})

        return project

    @staticmethod
    def _project_attrs(names: list[str], types: list[pa.DataType]):
        def project(b: pa.Table) -> pa.Table:
            cols = {"doc_id": b["doc_id"].cast(pa.uint64())}
            for n, typ in zip(names, types):
                cols[n] = (
                    b[n].cast(typ)
                    if n in b.column_names
                    else pa.nulls(len(b), typ)
                )
            return pa.table(cols)

        return project

    def _append_vectors(self, fname: str, spec: FieldSpec, field_ds) -> None:
        """Append per-doc (term, weight) vectors for this commit's docs
        under ``field=F/vectors/vshard=K/`` — the layout index/vectors.py
        reads (partition-pruned by doc-id shard). APPEND, not rebuild:
        write_parquet adds new uuid files per partition, so earlier
        generations' vectors stay; doc ids are never reused (next_id is
        monotonic), so vectors of deleted docs are dead rows, never wrong
        rows."""
        import ray

        from whoosh_novo_ray.index.build import IndexConfig
        from whoosh_novo_ray.index.vectors import VEC_MANIFEST, _DocVectors

        froot = os.path.join(self.index.root, f"field={fname}")
        os.makedirs(froot, exist_ok=True)
        man_path = os.path.join(froot, VEC_MANIFEST)
        n_shards = 16
        if os.path.exists(man_path):
            with open(man_path) as f:
                n_shards = int(json.load(f)["n_shards"])
        vcfg = IndexConfig(
            text_col=fname, id_col="doc_id", analyzer=spec.analyzer()
        )
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        field_ds.map_batches(
            _DocVectors,
            fn_constructor_args=(vcfg, n_shards),
            batch_format="pyarrow",
            zero_copy_batch=True,
            concurrency=max(1, min(4, ncpu - 2)),
        ).write_parquet(os.path.join(froot, "vectors"), partition_cols=["vshard"])
        if not os.path.exists(man_path):
            tmp = man_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump({"n_shards": n_shards, "lineage": "compat"}, f)
            os.replace(tmp, man_path)

    def _next_part_path(self) -> str:
        base = os.path.join(self.index.root, "stored")
        os.makedirs(base, exist_ok=True)
        existing = glob.glob(os.path.join(base, "part-*"))
        return os.path.join(base, f"part-{len(existing):06d}")

    def commit(self) -> None:
        if self._cancelled:
            # reference writers raise on use-after-close (writing.py
            # IndexWriter._check_state); silently no-opping here would make
            # a reused cancelled writer drop writes invisibly
            raise RuntimeError(
                "commit() on a cancelled writer: open a new writer() "
                "(buffered docs were discarded by cancel())"
            )
        import ray
        import ray.data

        ix = self.index
        # the reference serializes writers with an index lock
        # (writing.py IndexWriter); here the doc-id counter and generation
        # bumps are the racy window, guarded by an O_EXCL lockfile
        lock = os.path.join(ix.root, ".write_lock")
        import time as _time

        deadline = _time.monotonic() + 60.0
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                break
            except FileExistsError:
                if _time.monotonic() > deadline:
                    raise TimeoutError(
                        f"another writer holds {lock} (remove it if stale)"
                    )
                _time.sleep(0.05)
        try:
            self._commit_locked()
        finally:
            try:
                os.unlink(lock)
            except FileNotFoundError:
                pass

    def _commit_locked(self) -> None:
        import ray
        import ray.data

        ix = self.index
        meta = ix._meta()
        next_id = int(meta["next_id"])

        delete_ids = [self._lookup_ids(f, t) for f, t in self._del_terms]
        for doc in self._updates:
            for u in ix.schema.unique_names():
                if u in doc:
                    delete_ids.append(self._lookup_ids(u, doc[u]))
        dels = (
            np.unique(np.concatenate(delete_ids))
            if delete_ids
            else np.empty(0, np.uint64)
        )

        new_docs = self._pending
        ids = np.arange(next_id, next_id + len(new_docs), dtype=np.uint64)
        next_id += len(new_docs)

        norm_dss = []
        for ds, id_col in self._datasets:
            nds, next_id = self._with_ids(ds, id_col, next_id)
            norm_dss.append(nds)

        # materialize dynamic glob fields: any document key (or dataset
        # column) that matches a glob pattern becomes a CONCRETE field with
        # a per-name copy of the pattern's spec, persisted to schema.json
        # so reopened indexes and searchers see it (reference dynamic
        # fields resolve at segment level; here each field is its own
        # generational index, so the field must exist before the build)
        if ix.schema.dyn_fields:
            cand: set[str] = set()
            for doc in self._pending:
                cand.update(doc)
            for nds in norm_dss:
                cand.update(
                    c for c in nds.schema().base_schema.names if c != "doc_id"
                )
            new_fields = {
                k: _clone_spec(ix.schema.dyn_match(k))
                for k in sorted(cand)
                if k not in ix.schema.fields
                and ix.schema.dyn_match(k) is not None
            }
            if new_fields:
                ix.schema.fields.update(new_fields)
                ix._write_schema()

        indexed = ix.schema.indexed_names()
        for fname in indexed:
            gi = ix._field_gi(fname)
            if len(dels) and gi.current_generation() is not None:
                gi.delete_documents(dels, lineage="compat:delete")
            spec = ix.schema[fname]
            field_ds = None
            if new_docs:
                tbl = pa.table(
                    {
                        "doc_id": pa.array(ids, pa.uint64()),
                        fname: pa.array(
                            [
                                spec.to_index_value(d.get(fname))
                                if d.get(fname) is not None
                                else ""
                                for d in new_docs
                            ],
                            pa.string(),
                        ),
                    }
                )
                n_blocks = max(
                    1, min(len(new_docs), int(ray.cluster_resources().get("CPU", 4)))
                )
                field_ds = ray.data.from_arrow(tbl).repartition(n_blocks)
            for nds in norm_dss:
                proj = nds.map_batches(
                    self._project_field(fname, spec),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                )
                field_ds = proj if field_ds is None else field_ds.union(proj)
            if field_ds is not None:
                if getattr(spec, "vector", False):
                    # vectors consume the same (doc_id, text) stream the
                    # index build does — materialize once so the expensive
                    # projection doesn't run twice
                    field_ds = field_ds.materialize()
                gi.add_documents(field_ds, lineage=f"compat:gen{next_id}")
                if getattr(spec, "vector", False):
                    self._append_vectors(fname, spec, field_ds)

        attr_names = ix.schema.attr_names()
        if new_docs:
            cols: dict[str, pa.Array] = {"doc_id": pa.array(ids, pa.uint64())}
            for n in attr_names:
                typ = ix.schema[n].arrow_type()
                cols[n] = pa.array([d.get(n) for d in new_docs], typ)
            part = self._next_part_path() + ".parquet"
            pq.write_table(pa.table(cols), part + ".tmp")
            os.replace(part + ".tmp", part)
        if attr_names:
            types = [ix.schema[n].arrow_type() for n in attr_names]
            for nds in norm_dss:
                nds.map_batches(
                    self._project_attrs(attr_names, types),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                ).write_parquet(self._next_part_path())

        meta["next_id"] = next_id
        ix._write_meta(meta)
        self._pending, self._updates = [], []
        self._datasets, self._del_terms = [], []

    # context-manager sugar: `with ix.writer() as w: ...` commits on success
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and not self._cancelled:
            self.commit()
        elif exc_type is not None:
            self.cancel()
        return False


# ---------------------------------------------------------------------------
# searcher
# ---------------------------------------------------------------------------


class Hit:
    def __init__(self, docnum: int, score: float, fields: dict, hl_ctx=None):
        self.docnum = docnum
        self.score = score
        self._fields = fields
        self._hl_ctx = hl_ctx  # (query, searcher) for highlights()

    def fields(self) -> dict:
        return dict(self._fields)

    def get(self, k, default=None):
        return self._fields.get(k, default)

    def __getitem__(self, k):
        return self._fields[k]

    def __contains__(self, k):
        return k in self._fields

    def highlights(
        self,
        fieldname: str,
        text: str | None = None,
        top: int = 3,
        fragmenter=None,
        formatter=None,
    ) -> str:
        """Highlighted snippets of this hit (reference Hit.highlights,
        searching.py:1120-1180): stored field text (or ``text=``), query
        terms of that field, the field's own analyzer."""
        if self._hl_ctx is None:
            raise ValueError("Hit has no query context for highlighting")
        q, searcher = self._hl_ctx
        if text is None:
            text = self._fields.get(fieldname)
            if text is None:
                raise ValueError(
                    f"field {fieldname!r} is not stored: pass text="
                )
        terms = searcher._field_terms(q, fieldname)
        from whoosh_novo_ray.search.highlight import HtmlFormatter
        from whoosh_novo_ray.search.highlight import highlight as _hl

        # reference Hit.highlights default: HtmlFormatter(tagname="b")
        formatter = formatter or HtmlFormatter(tagname="b")
        return _hl(
            text,
            terms,
            analyzer=searcher.schema[fieldname].analyzer(),
            fragmenter=fragmenter,
            formatter=formatter,
            top=top,
        )

    def more_like_this(
        self, fieldname: str, text: str | None = None, numterms: int = 5,
        limit: int = 10,
    ):
        """Docs similar to this hit (reference Hit.more_like_this)."""
        if self._hl_ctx is None:
            raise ValueError("Hit has no searcher context")
        _q, searcher = self._hl_ctx
        return searcher.more_like(
            fieldname,
            text=text if text is not None else self._fields.get(fieldname),
            docnum=self.docnum,
            numterms=numterms,
            limit=limit,
        )

    def __repr__(self):
        return f"<Hit {self.docnum} {self.score:.6f} {self._fields!r}>"


class Results(list):
    """List of Hit, ranked (score desc, doc_id asc)."""

    def scored_length(self) -> int:
        return len(self)


class CompatSearcher:
    """Facade searcher. With ``pooled=True``, any query whose leaves all
    address ONE field routes through the distributed ScorePool serving that
    field's generational index (whole-query evaluation inside doc-shard
    actors, driver top-k merge — the cluster serving path); queries mixing
    fields or touching attrs columns fall back to the local router. Pools
    are cached on the CompatIndex per (field, generation) so repeated
    searcher() calls reuse the actor fleets."""

    def __init__(
        self,
        index: CompatIndex,
        pooled: bool = False,
        num_actors: int = 4,
        **field_params,
    ):
        from whoosh_novo_ray.index.multifield import MultiFieldSearcher

        self.index = index
        self.schema = index.schema
        self._pooled = pooled
        self._num_actors = num_actors
        names = self.schema.indexed_names()
        opened = {n: index._open_field(n) for n in names}
        self._opened = {n: v for n, v in opened.items() if v is not None}
        default = names[0] if names[0] in self._opened else next(iter(self._opened), None)
        def _weighting_for(fname: str):
            # Existence-format fields (ID/IDLIST/BOOLEAN) score a constant
            # 1.0 per matching term in the reference (formats.Existence →
            # WeightScorer); everything else is BM25F with the field params
            from whoosh_novo_ray.search.scoring import BM25F, Existence

            if self.schema[fname].kind in ("id", "idlist", "boolean"):
                return Existence()
            B = field_params.get(f"{fname}_B", field_params.get("B", 0.75))
            K1 = field_params.get("K1", 1.2)
            return BM25F(B=B, K1=K1)

        self._weighting_for = _weighting_for
        self._router = (
            MultiFieldSearcher(
                SimpleNamespace(fields=self._opened),
                default_field=default,
                weighting_factory=_weighting_for,
            )
            if self._opened
            else None
        )
        self._default = default
        self._attrs_cache: pa.Table | None = None

    def parse(self, qstring: str, basedate=None):
        """Parse schema-aware: unfielded terms search every indexed TEXT
        field; explicit ``field:term`` routes AND analyzes with that field's
        own analyzer (ID/KEYWORD terms keep their case); DATETIME fields
        accept ``field:'<natural language>'`` (reference DateParserPlugin —
        ``basedate`` anchors relative dates, default now)."""
        from whoosh_novo_ray.search.qparser import MultifieldParser

        dt_fields = {}
        dt_names = [
            n for n in self.schema.names() if self.schema[n].kind == "datetime"
        ]
        if dt_names:
            from datetime import datetime, timezone

            base = basedate or datetime.now(timezone.utc)
            dt_fields = {n: (self.attrs, n, base) for n in dt_names}
        text_fields = [
            n for n in self.schema.indexed_names() if self.schema[n].kind == "text"
        ] or self.schema.indexed_names()
        return MultifieldParser(
            text_fields,
            field_analyzers={
                n: self.schema[n].analyzer() for n in self.schema.indexed_names()
            },
            datetime_fields=dt_fields,
        ).parse(qstring)

    def numeric_range(self, fieldname: str, start=None, end=None,
                      startexcl: bool = False, endexcl: bool = False):
        """A NumericRange query over a native NUMERIC/DATETIME column
        (reference query.NumericRange; evaluated as an attrs filter)."""
        from whoosh_novo_ray.search.query import NumericRange

        return NumericRange(
            self.attrs, fieldname, start, end, startexcl, endexcl
        )

    @property
    def attrs(self) -> pa.Table:
        """The FULL live stored-fields table (lazy: only ColumnQuery-style
        equality lookups over native columns need a scan; stored-field
        hydration for hits uses per-id pushdown reads instead — the driver
        never loads the corpus's stored columns to serve top-k)."""
        if self._attrs_cache is None:
            live = (
                self._opened[self._default].all_doc_ids()
                if self._opened
                else np.empty(0, np.uint64)
            )
            self._attrs_cache = self.index._attrs(live)
        return self._attrs_cache

    def _stored_for(self, doc_ids: np.ndarray) -> list[dict]:
        """Stored-field dicts for the given ids via parquet predicate
        pushdown over the part files (row-group pruning; never a full
        stored-table load). Ids are unique across parts by construction
        (monotonic assignment; updates write new ids)."""
        doc_ids = np.asarray(doc_ids, np.uint64)
        if not len(doc_ids):
            return []
        parts = self.index._stored_parts()
        if not parts:
            return [{} for _ in doc_ids]
        if self._attrs_cache is not None:
            tbl = self._attrs_cache  # already loaded for a ColumnQuery
        else:
            import pyarrow.compute as pc

            want = pc.field("doc_id").isin([int(d) for d in doc_ids])
            read = [pq.read_table(p, filters=want) for p in parts]
            tbl = pa.concat_tables(read).combine_chunks()
        ids = (
            tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            if len(tbl)
            else np.empty(0, np.uint64)
        )
        order = np.argsort(ids, kind="stable")
        pos = np.searchsorted(ids[order], doc_ids)
        out = []
        for i, d in zip(pos, doc_ids):
            if i < len(order) and ids[order[i]] == d:
                out.append(
                    {
                        k: v
                        for k, v in tbl.slice(order[i], 1).to_pylist()[0].items()
                        if k != "doc_id"
                    }
                )
            else:
                out.append({})
        return out

    def _pool_for(self, field: str):
        gi = self.index._field_gi(field)
        key = (field, gi.current_generation())
        cache = self.index.__dict__.setdefault("_pools", {})
        if key not in cache:
            from whoosh_novo_ray.state.score_pool import ScorePool

            cache[key] = ScorePool.for_generational(
                gi, num_actors=self._num_actors
            )
        return cache[key]

    def _pool_route(self, q):
        """The single field every leaf of ``q`` addresses, or None when the
        query mixes fields / needs attrs / can't be shipped to shard actors."""
        from whoosh_novo_ray.search import query as Q

        fields: set[str] = set()
        for node in q.leaves():  # yields compounds AND leaves
            # NumericRange/DateRange are factories returning ColumnQuery
            if isinstance(node, Q.ColumnQuery):
                return None  # attrs-table scan: local
            if isinstance(node, (Q.NestedParent, Q.NestedChildren)):
                return None
            if isinstance(node, (Q.Term, Q.Phrase)):
                fields.add(node.field or self._default)
            elif any(hasattr(node, a) for a in ("children", "a", "child", "q")):
                continue  # compound/wrapper: its children are also yielded
            else:
                # every other leaf kind evaluates in the default field
                fields.add(self._default)
        if len(fields) == 1:
            return next(iter(fields))
        return None

    @staticmethod
    def _strip_fields(q):
        from whoosh_novo_ray.search import query as Q
        from whoosh_novo_ray.search.qparser import _map_fielded

        def strip(node):
            if isinstance(node, Q.Term):
                return Q.Term(node.text, boost=node.boost)
            return Q.Phrase(list(node.words), slop=node.slop, boost=node.boost)

        return _map_fielded(q, strip)

    def _facet_for(self, sortedby):
        from whoosh_novo_ray.search.sorting import Facet, FieldFacet, MultiFacet

        def one(s):
            if isinstance(s, Facet):
                return s
            # stored-part parquet paths: only MATCHED docs' rows stream to
            # the driver (FieldFacet.matched_attrs), never the whole column
            parts = self.index._stored_parts()
            return FieldFacet(parts if parts else self.attrs, s)

        if isinstance(sortedby, (list, tuple)):
            return MultiFacet([one(s) for s in sortedby])
        return one(sortedby)

    def search(
        self,
        q,
        limit: int | None = 10,
        sortedby=None,
        reverse: bool = False,
        collapse=None,
        collapse_limit: int = 1,
        collapse_order=None,
    ) -> Results:
        if isinstance(q, str):
            q = self.parse(q)
        if self._router is None:
            return Results()
        if collapse is not None:
            # reference search(collapse=, collapse_limit=, collapse_order=)
            # -> CollapseCollector semantics (falsy keys never eliminated)
            from whoosh_novo_ray.search.sorting import collapse_search

            t = collapse_search(
                self._router,
                q,
                self._facet_for(collapse),
                per_key=collapse_limit,
                limit=limit,
                order_facet=(
                    self._facet_for(collapse_order)
                    if collapse_order is not None
                    else None
                ),
            )
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            scores = t["score"].to_numpy(zero_copy_only=False)
            ctx = (q, self)
            return Results(
                Hit(int(d), float(s), f, hl_ctx=ctx)
                for d, s, f in zip(ids, scores, self._stored_for(ids))
            )
        if sortedby is not None:
            # reference search(sortedby=) -> SortingCollector semantics
            from whoosh_novo_ray.search.sorting import sorted_search

            t = sorted_search(
                self._router, q, self._facet_for(sortedby),
                reverse=reverse, limit=limit,
            )
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            scores = t["score"].to_numpy(zero_copy_only=False)
            ctx = (q, self)
            return Results(
                Hit(int(d), float(s), f, hl_ctx=ctx)
                for d, s, f in zip(ids, scores, self._stored_for(ids))
            )
        if self._pooled:
            field = self._pool_route(q)
            if field is not None and field in self._opened:
                t = self._pool_for(field).search(
                    self._strip_fields(q),
                    limit=limit,
                    weighting=self._weighting_for(field),
                )
                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                scores = t["score"].to_numpy(zero_copy_only=False)
                ctx = (q, self)
                return Results(
                    Hit(int(d), float(s), f, hl_ctx=ctx)
                    for d, s, f in zip(ids, scores, self._stored_for(ids))
                )
        t = self._router.search(q, limit=limit)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        scores = t["score"].to_numpy(zero_copy_only=False)
        stored = self._stored_for(ids)
        ctx = (q, self)
        return Results(
            Hit(int(d), float(s), f, hl_ctx=ctx)
            for d, s, f in zip(ids, scores, stored)
        )

    def _field_terms(self, q, fieldname: str) -> set[str]:
        """Query terms addressing ``fieldname`` (field=None = default)."""
        from whoosh_novo_ray.search import query as Q

        default = self._router.default_field if self._router else None
        out: set[str] = set()
        for leaf in q.leaves():
            if isinstance(leaf, Q.Term):
                if (leaf.field or default) == fieldname:
                    out.add(leaf.text)
            elif isinstance(leaf, Q.Phrase):
                if (leaf.field or default) == fieldname:
                    out.update(leaf.words)
        return out

    # -- document lookups ----------------------------------------------------

    def _kw_query(self, kw: dict):
        from whoosh_novo_ray.search import query as Q

        qs = []
        for k, v in kw.items():
            spec = self.schema[k]
            if spec.indexed:
                qs.append(Q.Term(spec.to_index_value(v), field=k))
            else:
                pred = (lambda val: (lambda col: col == val))(v)
                qs.append(Q.ColumnQuery(attrs=self.attrs, column=k, predicate=pred))
        if not qs:
            return Q.Every()
        return qs[0] if len(qs) == 1 else Q.And(*qs)

    def document_numbers(self, **kw) -> np.ndarray:
        if self._router is None:
            return np.empty(0, np.uint64)
        ids, _ = self._router.postings(self._kw_query(kw))
        return np.asarray(ids, np.uint64)

    def document_number(self, **kw):
        ids = self.document_numbers(**kw)
        return int(ids[0]) if len(ids) else None

    def documents(self, **kw):
        ids = self.document_numbers(**kw)
        for f in self._stored_for(ids):
            yield f

    def document(self, **kw):
        for f in self.documents(**kw):
            return f
        return None

    def groups(self, q, groupedby, best_only: bool = False) -> dict:
        """Facet groups (reference search(groupedby=) + Results.groups()):
        {key: [docnum, ...]} ordered (score desc, doc_id asc) per group —
        or {key: docnum} with ``best_only`` (the Best facet map)."""
        if isinstance(q, str):
            q = self.parse(q)
        if self._router is None:
            return {}
        from whoosh_novo_ray.search.sorting import facet_groups

        t = facet_groups(
            self._router, q, self._facet_for(groupedby), best_only=best_only
        )
        if best_only:
            return {
                k: int(d)
                for k, d in zip(t["key"].to_pylist(), t["doc_id"].to_pylist())
            }
        return {
            k: [int(d) for d in ds]
            for k, ds in zip(t["key"].to_pylist(), t["doc_ids"].to_pylist())
        }

    def facet_counts(self, q, groupedby) -> dict:
        """{key: matched doc count} (reference FacetCollector counts)."""
        if isinstance(q, str):
            q = self.parse(q)
        if self._router is None:
            return {}
        from whoosh_novo_ray.search.sorting import facet_counts

        t = facet_counts(self._router, q, self._facet_for(groupedby))
        return dict(zip(t["key"].to_pylist(), t["count"].to_pylist()))

    def key_terms(
        self, docnums, fieldname: str, numterms: int = 5, model: str = "bo1"
    ):
        """Most distinctive terms of the given docs (reference
        Searcher.key_terms, searching.py:509-613). Fields declared with
        ``vector=True`` serve from the STORED per-doc vectors (no text
        re-analysis); other fields fall back to re-analyzing the stored
        text (requires ``stored=True``)."""
        sub = self._router._searchers.get(fieldname) if self._router else None
        if sub is None:
            return []
        docnums = [int(d) for d in docnums]
        spec = self.index.schema[fieldname]
        if getattr(spec, "vector", False):
            from whoosh_novo_ray.index.vectors import key_terms_from_vectors

            froot = os.path.join(self.index.root, f"field={fieldname}")
            return key_terms_from_vectors(
                sub, froot, docnums, numterms=numterms, model=model
            )
        if not spec.stored:
            raise ValueError(
                f"field {fieldname!r} has neither vector=True nor stored=True"
            )
        stored = self._stored_for(np.asarray(docnums, np.uint64))
        texts = [s.get(fieldname) or "" for s in stored]
        from whoosh_novo_ray.search.classify import key_terms_from_text as _kt

        return _kt(sub, texts, numterms=numterms, model=model)

    def key_terms_from_text(
        self, fieldname: str, texts, numterms: int = 5, model: str = "bo1"
    ):
        """Most distinctive terms of the given texts vs that field's
        collection (reference Searcher.key_terms_from_text)."""
        from whoosh_novo_ray.search.classify import key_terms_from_text as _kt

        sub = self._router._searchers.get(fieldname) if self._router else None
        if sub is None:
            return []
        if isinstance(texts, str):
            texts = [texts]
        return _kt(sub, list(texts), numterms=numterms, model=model)

    def more_like(
        self,
        fieldname: str,
        text: str | None = None,
        docnum: int | None = None,
        numterms: int = 5,
        limit: int = 10,
    ) -> Results:
        """More-like-this over one field (reference Searcher.more_like /
        Hit.more_like_this): key terms expand into an OR query. ``text``
        comes from the stored field when ``docnum`` is given instead."""
        sub = self._router._searchers.get(fieldname) if self._router else None
        if sub is None:
            return Results()
        if text is None:
            if docnum is None:
                raise ValueError("pass text= or docnum=")
            spec = self.index.schema[fieldname]
            if getattr(spec, "vector", False):
                # vector-backed path (reference Hit.more_like_this over a
                # vectored field): expand from the stored vector, no text
                from whoosh_novo_ray.search import query as Q

                kt = self.key_terms([docnum], fieldname, numterms=numterms)
                if not kt:
                    return Results()
                t = sub.search(Q.Or(*[Q.Term(w) for w, _ in kt]), limit=limit)
                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                scores = t["score"].to_numpy(zero_copy_only=False)
                return Results(
                    Hit(int(d), float(s), f)
                    for d, s, f in zip(ids, scores, self._stored_for(ids))
                )
            stored = self._stored_for(np.array([docnum], np.uint64))[0]
            text = stored.get(fieldname)
            if text is None:
                raise ValueError(f"field {fieldname!r} is not stored: pass text=")
        from whoosh_novo_ray.search.classify import more_like as _ml

        t = _ml(sub, text, numterms=numterms, limit=limit)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        scores = t["score"].to_numpy(zero_copy_only=False)
        return Results(
            Hit(int(d), float(s), f)
            for d, s, f in zip(ids, scores, self._stored_for(ids))
        )

    def search_page(self, q, pagenum: int, pagelen: int = 10) -> dict:
        """Paged results (reference Searcher.search_page / ResultsPage):
        a dict with the page's ``hits`` (stored-field Hit list), total,
        pagenum, pagecount and is_last_page; a page past the end returns
        the last page (reference behavior)."""
        if pagenum < 1:
            raise ValueError("pagenum must be >= 1")
        if isinstance(q, str):
            q = self.parse(q)
        full = self.search(q, limit=None)
        total = len(full)
        pagecount = max(1, -(-total // pagelen))
        pagenum = min(pagenum, pagecount)
        offset = (pagenum - 1) * pagelen
        return {
            "hits": Results(full[offset : offset + pagelen]),
            "total": total,
            "pagenum": pagenum,
            "pagecount": pagecount,
            "pagelen": pagelen,
            "is_last_page": pagenum == pagecount,
        }

    def suggest(
        self,
        fieldname: str,
        text: str,
        limit: int = 5,
        maxdist: int = 2,
        prefix: int = 0,
    ) -> list[str]:
        """Spelling suggestions from that field's lexicon (reference
        searcher.suggest / ReaderCorrector, spelling.py)."""
        if fieldname not in self._opened:
            return []
        from whoosh_novo_ray.search.fuzzy import suggest as _suggest

        return _suggest(
            self._opened[fieldname], text, limit=limit, maxdist=maxdist,
            prefix=prefix,
        )

    def correct_query(self, q, maxdist: int = 2, prefix: int = 0):
        """Did-you-mean: each fielded term corrects against ITS OWN field's
        lexicon (reference Searcher.correct_query consults the per-field
        corrector, searching.py:861-975). Returns (corrected, changed?)."""
        from whoosh_novo_ray.search import query as Q
        from whoosh_novo_ray.search.fuzzy import suggest as _suggest
        from whoosh_novo_ray.search.qparser import _map_fielded

        if isinstance(q, str):
            q = self.parse(q)
        if self._router is None:
            return q, False
        default = self._router.default_field
        changed = False

        def best(field, word):
            sub = self._router._searchers.get(field or default)
            if sub is None:
                return None
            df, _, _ = sub.term_stats(word)
            if df:
                return None
            sugs = _suggest(
                sub.index, word, limit=1, maxdist=maxdist, prefix=prefix
            )
            return sugs[0] if sugs else None

        def fix(node):
            nonlocal changed
            if isinstance(node, Q.Term):
                rep = best(node.field, node.text)
                if rep is not None:
                    changed = True
                    return Q.Term(rep, boost=node.boost, field=node.field)
                return node
            # Phrase: correct each word in place
            words = []
            any_fixed = False
            for w in node.words:
                rep = best(node.field, w)
                words.append(rep if rep is not None else w)
                any_fixed |= rep is not None
            if any_fixed:
                changed = True
                return Q.Phrase(
                    words, slop=node.slop, field=node.field, boost=node.boost
                )
            return node

        return _map_fielded(q, fix), changed

    def doc_count(self) -> int:
        return self.index.doc_count()

    def __enter__(self):
        return self

    def __exit__(self, *a):
        return False
