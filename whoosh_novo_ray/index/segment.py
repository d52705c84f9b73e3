"""Index reader: manifest + term-dictionary lookups + posting-block decode.

Read-side counterpart of build.py. Replaces the reference's SegmentReader /
MultiReader / W3LeafMatcher machinery (de-odex/whoosh-novo
``src/whoosh/reading.py:601-1256``, ``codec/whoosh3.py:905-1173``): terms are
hash-partitioned across bucket Parquet files sorted by term (4k-row row
groups). Like the reference's terms reader, each bucket file is opened once
per ``Index`` (``_TermBlocks``): the footer's per-row-group [min, max] term
bounds form a block index, so a term lookup in one bucket (or ``salt_k``
buckets for salted heavy terms) is a bisect over those bounds plus a
``searchsorted`` inside one row group, served from an entry-capped LRU of
decoded row groups. Posting blocks decode lazily per block for WAND-style
skipping, or all at once (vectorized segmented cumsum) for term-at-a-time
scoring.

Every ``TermRow`` comes from a :class:`TermColumns`: numpy views of a
term-sorted table's columns, made once per table, so a row is a set of
slices. Reading a row's ~16 fields as Arrow scalars instead costs about
0.24 ms a row, and on a cold term that was 40% of a scoring actor's CPU.
Rows taken from a cached row group are copies, so the cache can evict the
group. A scoring actor decodes its pinned tables once, when it pins them
(``state/score_pool.py`` ``PinnedTable``, through :func:`decode_postings`,
the batch decoder the merge read uses too): a plain term is array slices
of that store, and its WAND and positional rows are views of the pinned
table with ``_decoded`` already set to the same slices.

Besides df, weight and max_weight, each term-bucket row carries
``doc_slots``: a uint64 with bit ``key_hash(doc_id) % 64`` set for each of
its postings. ``Index.term_stats_and_slots`` reads it in the same cached
stats group; the score pool maps it to the serving shards that can hold a
match. The serving files leave it, ``weight`` and ``lens_blob`` out: a
scoring actor never reads them. A row's blocks follow from its df and the
index's ``block_size`` (``TermRow``). The
segment files carry Parquet statistics on ``term`` only, so a reader that
wants another column's footer statistics must have the writer
(``build.write_segment``) keep them for that column. ``Index`` opens only
``FORMAT_VERSION`` manifests: an index of another format must be rebuilt.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from whoosh_novo_ray.codec import (
    block_counts, decode_doc_ids, decode_positions_flat, varint_decode,
)
from whoosh_novo_ray.index.build import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    IndexConfig,
    buckets_for_query_terms,
)

# the scoring columns of a TermRow (blobs a query may need beyond these,
# positions and chars, are added per lookup)
_SCORING_COLUMNS = (
    "df",
    "weight",
    "max_weight",
    "min_len_byte",
    "block_max_ids",
    "block_max_weights",
    "block_min_lens",
    "block_ids_off",
    "block_tfs_off",
    "ids_blob",
    "tfs_blob",
    "lens_blob",
)


@dataclass
class TermRow:
    """One term's posting list within one bucket (decoded lazily).

    Built by :class:`TermColumns`: the list fields are numpy arrays and the
    ``*_blob`` fields uint8 arrays, each a slice of its table's column (a
    view for a scoring actor's pinned table, a copy for a row-group cache
    entry).

    A scoring actor's rows carry no ids/tfs/wts blobs and no
    ``block_ids_off``/``block_tfs_off``: it decodes its tables once when it
    pins them, and its rows come with ``_decoded`` and ``_tfs`` already
    set to slices of that store. Every decode below reads the memoized
    arrays when they are set, and the blobs only when they are not.

    Block i starts at posting i * ``block_size``. A row with ``df <=
    block_size`` has one block and stores its skip lists and offsets
    empty: :meth:`skip_table` and :meth:`decode_block`, the one place the
    rule lives, take them from the row's scalars and its last doc id."""

    term: str
    df: int
    max_weight: float
    min_len_byte: int
    block_size: int
    # as stored: empty on a one-block row (read them through skip_table)
    block_max_ids: np.ndarray
    block_max_weights: np.ndarray
    block_min_lens: np.ndarray
    weight: float | None = None  # none in a serving row: actors use global stats
    block_ids_off: np.ndarray | None = None
    block_tfs_off: np.ndarray | None = None
    ids_blob: np.ndarray | None = None
    tfs_blob: np.ndarray | None = None
    lens_blob: np.ndarray | None = None
    block_pos_off: np.ndarray | None = None
    pos_blob: np.ndarray | None = None
    block_chars_off: np.ndarray | None = None
    chars_blob: np.ndarray | None = None
    # float32 per-posting weights (token-boost sums); when present, decode
    # returns these (as float64) in the tf slot so scoring uses weight — the
    # reference's Frequency-format weight semantics. True integer tfs remain
    # available from tfs_blob (decode_tfs / positions decode use it).
    wts_blob: np.ndarray | None = None
    # float32 PER-OCCURRENCE boosts parallel to the positions stream
    # (the PositionBoosts / CharacterBoosts payload, formats.py:345-430)
    pboosts_blob: np.ndarray | None = None
    # memoized full decodes: TermRows live in cross-query caches (Searcher /
    # ScoreServer term caches), and varint_decode's fixed cost (~35 us/call)
    # dominates hot repeated-term queries. Callers never mutate the returned
    # arrays (they concatenate/fancy-index into fresh arrays).
    # ``_decoded`` is (doc ids, weights-or-tfs, len bytes); ``_tfs`` the
    # true integer tfs.
    _decoded: tuple | None = None
    _tfs: np.ndarray | None = None
    _decoded_pos: tuple | None = None

    @property
    def n_blocks(self) -> int:
        return -(-self.df // self.block_size)

    def skip_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block (max doc ids, max weights, min length bytes). A
        one-block row stores none: its block's are the row's own, and its
        max id is its last doc id (a slice of a scoring actor's store, or a
        decode of at most ``block_size`` postings)."""
        if self.n_blocks > 1:
            return self.block_max_ids, self.block_max_weights, self.block_min_lens
        return (self.decode_all()[0][-1:], np.array([self.max_weight]),
                np.array([self.min_len_byte], np.uint8))

    def decode_block(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode block i -> (doc_ids, weights-or-tfs, len_bytes). A
        one-block row's block is its whole posting list."""
        o, bs = i * self.block_size, self.block_size
        if self._decoded is not None or self.n_blocks == 1:
            ids, tfs, lens = self.decode_all()
            return ids[o : o + bs], tfs[o : o + bs], lens[o : o + bs]
        cnt = min(bs, self.df - o)
        ids = np.cumsum(
            varint_decode(_block_bytes(self.ids_blob, self.block_ids_off, i), cnt),
            dtype=np.uint64,
        )
        if self.wts_blob is not None:
            tfs = np.frombuffer(
                self.wts_blob, np.float32, count=cnt, offset=4 * o
            ).astype(np.float64)
        else:
            tfs = varint_decode(_block_bytes(self.tfs_blob, self.block_tfs_off, i), cnt)
        lens = np.frombuffer(self.lens_blob, np.uint8, count=cnt, offset=o)
        return ids, tfs, lens

    def decode_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode the whole posting list -> (doc_ids, tfs, len_bytes)
        (``codec.decode_doc_ids``: one varint pass and a segmented cumsum
        over the per-block absolute resets)."""
        if self._decoded is not None:
            return self._decoded
        n = self.df
        ids = decode_doc_ids(self.ids_blob, block_counts([n], self.block_size), n)
        if self.wts_blob is not None:
            tfs = np.frombuffer(self.wts_blob, np.float32, count=n).astype(
                np.float64
            )
        else:
            tfs = self.decode_tfs()
        lens = np.frombuffer(self.lens_blob, np.uint8, count=n)
        self._decoded = (ids, tfs, lens)
        return self._decoded

    def decode_all_positions(self) -> list[np.ndarray]:
        if self.pos_blob is None:
            raise ValueError("index built without positions")
        flat, counts = self.decode_all_positions_flat()
        return np.split(flat, np.cumsum(counts)[:-1])

    def decode_all_positions_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat positions, per-posting counts) — counts equal the tfs."""
        if self.pos_blob is None:
            raise ValueError("index built without positions")
        if self._decoded_pos is None:
            self._decoded_pos = decode_positions_flat(self.pos_blob, self.decode_tfs())
        return self._decoded_pos

    def decode_tfs(self) -> np.ndarray:
        """True integer term frequencies (even on weighted indexes, where
        ``decode_all`` returns float weights in the tf slot)."""
        if self._tfs is None:
            self._tfs = varint_decode(self.tfs_blob, self.df)
        return self._tfs

    def decode_all_position_boosts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-occurrence boosts: (flat float64 boosts, counts per posting)
        — parallel to ``decode_all_positions_flat``."""
        if self.pboosts_blob is None:
            raise ValueError("index built without per-occurrence boosts")
        tfs = self.decode_tfs()
        flat = np.frombuffer(
            self.pboosts_blob, np.float32, count=int(tfs.sum())
        ).astype(np.float64)
        return flat, tfs.astype(np.int64)

    def decode_all_chars(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-occurrence character offsets (the Characters format):
        returns (spans (total_occurrences, 2) int64 [start, end), counts
        per posting)."""
        if self.chars_blob is None:
            raise ValueError("index built without char offsets (with_chars)")
        tfs = self.decode_tfs()
        flat, counts2 = decode_positions_flat(self.chars_blob, tfs * np.uint64(2))
        return flat.astype(np.int64).reshape(-1, 2), (counts2 // 2)


def _block_bytes(blob: np.ndarray, offs: np.ndarray, i: int) -> np.ndarray:
    """Block ``i``'s bytes of a multi-block row's ``blob``."""
    end = offs[i + 1] if i + 1 < len(offs) else len(blob)
    return blob[int(offs[i]) : int(end)]


# TermRow field -> the dtype a row's slice of that list column carries
_LIST_DTYPES = {
    "block_max_ids": np.dtype(np.uint64),
    "block_max_weights": np.dtype(np.float64),
    "block_min_lens": np.dtype(np.uint8),
    "block_ids_off": np.dtype(np.int64),
    "block_tfs_off": np.dtype(np.int64),
    "block_pos_off": np.dtype(np.int64),
    "block_chars_off": np.dtype(np.int64),
}
# ``doc_slots`` is read with the term stats (``TermColumns.values``), never
# into a TermRow
_SCALAR_FIELDS = (
    "df", "weight", "max_weight", "min_len_byte", "doc_slots",
)
_BLOB_FIELDS = (
    "ids_blob", "tfs_blob", "lens_blob", "wts_blob", "pos_blob", "chars_blob",
    "pboosts_blob",
)


# numpy dtype by Arrow type name (``DataType.to_pandas_dtype`` imports pandas)
_NUMPY_TYPES = {
    "int8": np.int8, "int16": np.int16, "int32": np.int32, "int64": np.int64,
    "uint8": np.uint8, "uint16": np.uint16, "uint32": np.uint32,
    "uint64": np.uint64, "float": np.float32, "double": np.float64,
}


def arrow_view(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Read-only numpy view of a primitive Arrow array's data buffer (at
    ``arr.offset``; several chunks are combined first). Raises on nulls. The
    scoring actor's Arrow-to-numpy conversion: pyarrow 16.1 imports pandas
    (about 35 MB and 0.33 s of CPU) on the first ``to_numpy()``."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    if arr.null_count:
        raise ValueError(f"arrow_view: {arr.null_count} nulls in a {arr.type} array")
    dtype = np.dtype(_NUMPY_TYPES[str(arr.type)])
    buf = arr.buffers()[1]
    if buf is None:
        return np.empty(0, dtype)
    return np.frombuffer(buf, dtype)[arr.offset : arr.offset + len(arr)]


def binary_view(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, bytes)`` numpy views of a (large) binary or string
    array: row ``i`` is ``bytes[offsets[i]:offsets[i + 1]]``."""
    large = pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type)
    _valid, offs, data = arr.buffers()
    offsets = np.frombuffer(offs, np.int64 if large else np.int32)
    data = np.empty(0, np.uint8) if data is None else np.frombuffer(data, np.uint8)
    return offsets[arr.offset : arr.offset + len(arr) + 1], data


def blob_concat(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Concatenated bytes of a large_binary column as uint8: rows are
    stored back to back in the values buffer, so a single-chunk column's
    blobs come out as one zero-copy slice (no per-row Python)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs, data = binary_view(col)
    return data[offs[0] : offs[-1]]


def decode_postings(rows: pa.Table | pa.RecordBatch, block_size: int) -> tuple:
    """``(doc ids uint64, integer tfs uint64)`` of every posting of
    a run of segment rows of an index with ``block_size``, in row order:
    the rows' blobs are concatenated and decoded in one pass
    (``codec.decode_doc_ids`` over their flattened blocks, whose counts
    follow from df; every row starts on a block). Reads ``df``,
    ``ids_blob`` and ``tfs_blob``. The one batch decoder: the merge read
    (``index/merge.py``) and a scoring actor's pin both use it."""
    df = arrow_view(rows["df"])
    total = int(df.sum())
    ids = decode_doc_ids(blob_concat(rows["ids_blob"]), block_counts(df, block_size), total)
    tfs = varint_decode(blob_concat(rows["tfs_blob"]), total)
    return ids, tfs


def _batch_views(batch: pa.RecordBatch) -> tuple[list, list, list]:
    """Zero-copy numpy views of one batch's TermRow columns: ``(name,
    values)`` per scalar column, ``(name, values, offsets)`` per list
    column (uint64 offsets reinterpreted as int64) and ``(name, data,
    offsets)`` per blob column. Other columns (``term``) are left out."""
    scalars, lists, blobs = [], [], []
    for name, arr in zip(batch.schema.names, batch.columns):
        if name in _SCALAR_FIELDS:
            scalars.append((name, arrow_view(arr)))
        elif name in _LIST_DTYPES:
            values = arrow_view(arr.values).view(_LIST_DTYPES[name])
            lists.append((name, values, arrow_view(arr.offsets)))
        elif name in _BLOB_FIELDS:
            offsets, data = binary_view(arr)
            blobs.append((name, data, offsets))
    return scalars, lists, blobs


class TermColumns:
    """Row access to a term-sorted segment table without Arrow scalars.

    Made once per table (a scoring actor's pinned table, or a row group in
    an ``Index``/actor block LRU): it holds zero-copy numpy views of the
    scalar columns, ``(values, offsets)`` per list column and ``(data,
    offsets)`` per ``large_binary`` blob column. A row is then a handful of
    numpy slices. Building the views copies nothing, so a pinned table's
    footprint stays that of the table.

    ``values(i)`` returns row ``i``'s TermRow fields that the table holds;
    with ``copy=True`` every slice is copied, so the row outlives the table
    without pinning it (cached row groups come and go)."""

    def __init__(self, tbl: pa.Table, block_size: int):
        self.block_size = block_size
        batches = [b for b in tbl.to_batches() if len(b)]
        self._starts = np.cumsum([0] + [len(b) for b in batches]).tolist()
        self._views = [_batch_views(b) for b in batches]

    def values(self, i: int, copy: bool = False) -> dict:
        k = bisect_right(self._starts, i) - 1
        i -= self._starts[k]
        scalars, lists, blobs = self._views[k]
        out = {name: v[i].item() for name, v in scalars}
        for name, v, offs in lists:
            s = v[offs[i] : offs[i + 1]]
            out[name] = s.copy() if copy else s
        for name, data, offs in blobs:
            s = data[offs[i] : offs[i + 1]]
            out[name] = s.copy() if copy else s
        return out

    def row(self, i: int, term: str, copy: bool = False, **extra) -> TermRow:
        """Row ``i`` as a TermRow of slices of the views, plus ``extra``."""
        v = self.values(i, copy)
        v.pop("doc_slots", None)
        return TermRow(term=term, block_size=self.block_size, **v, **extra)


@ray.remote(num_cpus=1)
def _read_table_task(path: str, columns: list[str] | None) -> pa.Table:
    return pq.read_table(path, columns=columns)


def _read_tables(paths: list[str], columns: list[str] | None = None) -> list[pa.Table]:
    """Whole-file reads, fanned out as Ray tasks when there are enough
    files and a session is live."""
    if len(paths) >= 4 and ray.is_initialized():
        return ray.get([_read_table_task.remote(p, columns) for p in paths])
    return [pq.read_table(p, columns=columns) for p in paths]


class _LRUCache:
    """Tiny bounded LRU over a plain dict (insertion order = recency;
    reads move the entry to the back). Long-running serving processes must
    not grow per-query caches without bound."""

    def __init__(self, cap: int):
        self.cap = int(cap)
        self._d: dict = {}

    def __contains__(self, k) -> bool:
        return k in self._d

    def __len__(self) -> int:
        return len(self._d)

    def __getitem__(self, k):
        v = self._d.pop(k)
        self._d[k] = v
        return v

    def __setitem__(self, k, v) -> None:
        self._d.pop(k, None)
        self._d[k] = v
        while len(self._d) > self.cap:
            self._d.pop(next(iter(self._d)))

    def update(self, other: dict) -> None:
        for k, v in other.items():
            self[k] = v


class _TermBlocks:
    """Open-once block index over one term-sorted segment file.

    Holds the ``ParquetFile`` handle plus, from the footer, each row group's
    ``[min, max]`` term bounds and first-row offset. A term lookup is a
    bisect over the bounds and a ``searchsorted`` inside one row group;
    decoded row groups come from ``cache``, an entry-capped LRU that may be
    shared by several files (entries are keyed by path)."""

    def __init__(self, path: str, cache: _LRUCache, block_size: int):
        self.path = path
        self.block_size = block_size
        self._pf = pq.ParquetFile(path)
        self._cache = cache
        md = self._pf.metadata
        n = md.num_row_groups
        self.offsets = np.zeros(n + 1, np.int64)
        # physical index of the `term` column (list columns flatten, so the
        # top-level field index does not equal the column-chunk index)
        term_ci = next(
            (j for j in range(md.num_columns)
             if md.schema.column(j).path == "term"),
            None,
        )
        self.mins: list[str] = []
        self.maxs: list[str] = []
        for g in range(n):
            rg = md.row_group(g)
            self.offsets[g + 1] = self.offsets[g] + rg.num_rows
            st = rg.column(term_ci).statistics if term_ci is not None else None
            if st is not None and st.has_min_max:
                mn, mx = st.min, st.max
                if isinstance(mn, bytes):
                    mn, mx = mn.decode("utf-8", "replace"), mx.decode("utf-8", "replace")
            else:  # no footer stats (e.g. over-long terms): read the bounds
                t = self.terms(g)
                mn, mx = t[0], t[-1]
            self.mins.append(mn)
            self.maxs.append(mx)

    @property
    def n_groups(self) -> int:
        return len(self.mins)

    def groups(
        self,
        lo: str | None = None,
        hi: str | None = None,
        lo_excl: bool = False,
        hi_excl: bool = False,
    ) -> range:
        """Row groups whose ``[min, max]`` term bounds intersect
        ``[lo, hi]`` (terms are sorted, so they are contiguous)."""
        a = 0 if lo is None else (bisect_right if lo_excl else bisect_left)(self.maxs, lo)
        b = (
            self.n_groups
            if hi is None
            else (bisect_left if hi_excl else bisect_right)(self.mins, hi)
        )
        return range(a, max(a, b))

    def _cached(self, key, load):
        key = (self.path,) + key
        if key in self._cache:
            return self._cache[key]
        v = self._cache[key] = load()
        return v

    def terms(self, g: int) -> np.ndarray:
        """Row group ``g``'s sorted term column as an object array."""
        return self._cached(
            (g,),
            lambda: self._pf.read_row_group(g, columns=["term"])["term"].to_numpy(
                zero_copy_only=False
            ),
        )

    def read(self, g: int, columns: tuple[str, ...]) -> TermColumns:
        """Row group ``g``, restricted to ``columns``, as row accessors
        (made once per cache entry)."""
        return self._cached(
            (g, columns),
            lambda: TermColumns(self._pf.read_row_group(g, columns=list(columns)),
                                self.block_size),
        )

    def find(self, term: str) -> list[tuple[int, int, int]]:
        """``(row group, first row, end row)`` spans holding ``term``; a
        term repeated across a row-group boundary yields several spans."""
        out = []
        for g in self.groups(term, term):
            t = self.terms(g)
            i = int(np.searchsorted(t, term, "left"))
            j = int(np.searchsorted(t, term, "right"))
            if j > i:
                out.append((g, i, j))
        return out

    def locate_row(self, row: int) -> tuple[int, int]:
        """File row -> (row group, row within it)."""
        g = int(np.searchsorted(self.offsets, row, "right")) - 1
        return g, row - int(self.offsets[g])


# decoded row groups an Index keeps across lookups (term arrays and stats
# columns; all of its bucket files share the one LRU)
_INDEX_BLOCK_CACHE = 32
_STATS_COLUMNS = ("df", "weight", "max_weight", "doc_slots")
# the pruning counters of a term-dictionary scan (``Index.range_blocks``
# defines them; the FuzzyTerm automaton reports the same keys)
EXPAND_STAT_KEYS = (
    "buckets_total",
    "buckets_scanned",
    "row_groups_total",
    "row_groups_read",
    "rows_read",
)


class Index:
    """Handle on a built index directory (manifest + bucket segment files)."""

    def __init__(self, path: str):
        self.path = path
        with open(os.path.join(path, MANIFEST_NAME)) as f:
            self.manifest = json.load(f)
        version = self.manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"index at {path} has format_version {version}; this reader "
                f"needs {FORMAT_VERSION}. Rebuild the index with build_index."
            )
        self.cfg = IndexConfig.from_json(dict(self.manifest["config"]))
        self.doc_count: int = self.manifest["doc_count"]
        self.total_field_length: float = self.manifest["total_field_length"]
        self._bucket_paths = {
            b["bucket"]: os.path.join(path, b["path"])
            for b in self.manifest["buckets"]
            if b["path"]  # docmeta-only buckets carry path="" (no segment)
        }
        self._blocks_by_bucket: dict[int, _TermBlocks] = {}
        self._block_cache = _LRUCache(_INDEX_BLOCK_CACHE)

    def __getstate__(self) -> dict:
        # open file handles and cached row groups stay in this process; a
        # copy shipped to a Ray task reopens its buckets on first lookup
        d = dict(self.__dict__)
        d["_blocks_by_bucket"] = {}
        d["_block_cache"] = _LRUCache(_INDEX_BLOCK_CACHE)
        return d

    @property
    def avg_field_length(self) -> float:
        # reference: Searcher.avg_field_length (searching.py:275-278)
        return self.total_field_length / (self.doc_count or 1)

    # -- term dictionary lookups ---------------------------------------------

    def _blocks(self, bucket: int) -> _TermBlocks | None:
        """The bucket's block index, opened on first use."""
        tb = self._blocks_by_bucket.get(bucket)
        if tb is None:
            p = self._bucket_paths.get(bucket)
            if p is None:
                return None
            tb = self._blocks_by_bucket[bucket] = _TermBlocks(
                p, self._block_cache, self.cfg.block_size
            )
        return tb

    def _term_spans(self, terms: list[str]):
        """``(term, block index, row group, first, end)`` for every row span
        of each term: one bucket normally, ``salt_k`` for a salted heavy
        term. The terms' buckets are hashed in one batch."""
        for t, bks in zip(terms, buckets_for_query_terms(self.cfg, terms)):
            for bk in bks:
                tb = self._blocks(bk)
                if tb is not None:
                    for g, i, j in tb.find(t):
                        yield t, tb, g, i, j

    def term_rows(
        self,
        terms: list[str],
        with_positions: bool = False,
        with_chars: bool = False,
    ) -> dict[str, list[TermRow]]:
        """Fetch posting-list rows for the given terms (block-index lookups
        in only the buckets that can contain them). A term maps to >1 row
        when it was salted at build time."""
        cols = list(_SCORING_COLUMNS)
        has_weights = getattr(self.cfg, "with_weights", False)
        if has_weights:
            cols += ["wts_blob"]
        if with_positions and self.cfg.with_positions:
            cols += ["block_pos_off", "pos_blob"]
            if has_weights and getattr(self.cfg.analyzer, "boost_delim", None):
                cols += ["pboosts_blob"]
        if with_chars and getattr(self.cfg, "with_chars", False):
            cols += ["block_chars_off", "chars_blob"]
        cols = tuple(cols)
        out: dict[str, list[TermRow]] = {t: [] for t in terms}
        for t, tb, g, i, j in self._term_spans(list(out)):
            # copied out of the cached row group, so cached TermRows never
            # pin a whole group's blobs
            c = tb.read(g, cols)
            out[t].extend(c.row(r, t, copy=True) for r in range(i, j))
        return out

    def term_stats_and_slots(
        self, terms: list[str]
    ) -> dict[str, tuple[int, float, float, int]]:
        """Global ``(df, total_weight, max_weight, doc_slots)`` per term:
        the stats summed across salted rows and their ``doc_slots`` masks
        OR-ed — stats columns only (no posting blobs leave storage). The
        score pool ships the first three with a query and keeps the mask to
        pick the actors that can match it."""
        out = dict.fromkeys(terms, (0, 0.0, 0.0, 0))
        for t, tb, g, i, j in self._term_spans(list(out)):
            c = tb.read(g, _STATS_COLUMNS)
            df, w, mx, slots = out[t]
            for r in range(i, j):
                v = c.values(r)
                df, w = df + v["df"], w + v["weight"]
                mx, slots = max(mx, v["max_weight"]), slots | v["doc_slots"]
            out[t] = (df, w, mx, slots)
        return out

    def term_stats_many(
        self, terms: list[str]
    ) -> dict[str, tuple[int, float, float]]:
        """Global ``(df, total_weight, max_weight)`` per term."""
        return {t: s[:3] for t, s in self.term_stats_and_slots(terms).items()}

    def iter_term_stats(self, columns=("term", "df", "weight")) -> pa.Table:
        """Full term dictionary (stats columns only) across all buckets,
        merging salted duplicates by summation. Bucket reads fan out as Ray
        tasks when there are enough of them and a session is live."""
        paths = [self._bucket_paths[bk] for bk in sorted(self._bucket_paths)]
        tbl = pa.concat_tables(_read_tables(paths, list(columns)))
        if self.cfg.heavy_terms:
            tbl = pa.TableGroupBy(tbl, "term").aggregate(
                [(c, "sum") for c in columns if c != "term"]
            )
            tbl = tbl.rename_columns(
                ["term"] + [c for c in columns if c != "term"]
            )
        return tbl

    def _docmeta_files(self) -> list[str]:
        import glob as _glob

        return sorted(_glob.glob(os.path.join(self.path, "docmeta", "*.parquet")))

    def docmeta_ds(self):
        """The per-document metadata as a STREAMING ray Dataset — the form
        pipelines should consume the doc universe in (anti-joins, facet
        sources, exports). Driver-side ``doc_meta()`` / ``all_doc_ids()``
        below exist for the local vectorized Searcher, whose Every/Not
        evaluation needs the id array in memory; at cluster scale those
        queries route through the ScorePool, where each shard actor holds
        only ITS doc subset (state/score_pool.py)."""
        import ray.data as _rd

        files = self._docmeta_files()
        if not files:
            return _rd.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array([], pa.uint64()),
                        "length": pa.array([], pa.uint32()),
                        "len_byte": pa.array([], pa.uint8()),
                    }
                )
            )
        return _rd.read_parquet(files)

    def doc_meta(self) -> pa.Table:
        """The per-document metadata table (doc_id, length, len_byte),
        concatenated across buckets and sorted. Bucket reads fan out as Ray
        tasks when a session is live. Driver-sized by design — prefer
        ``docmeta_ds()`` in pipelines."""
        files = self._docmeta_files()
        if not files:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.uint64()),
                    "length": pa.array([], pa.uint32()),
                    "len_byte": pa.array([], pa.uint8()),
                }
            )
        return pa.concat_tables(_read_tables(files)).sort_by("doc_id")

    def all_doc_ids(self) -> np.ndarray:
        """Sorted array of every indexed document id (the Every universe for
        the LOCAL Searcher; ScorePool shards never call this — each actor
        pins its own shard's docmeta)."""
        files = self._docmeta_files()
        if not files:
            return np.empty(0, np.uint64)
        parts = [
            t["doc_id"].to_numpy(zero_copy_only=False)
            for t in _read_tables(files, ["doc_id"])
        ]
        return np.sort(np.concatenate(parts).astype(np.uint64))

    def range_blocks(
        self,
        lo: str | None,
        hi: str | None,
        lo_excl: bool,
        hi_excl: bool,
        stats: dict[str, int],
    ) -> list[_TermBlocks]:
        """Block indexes of the buckets whose manifest ``[min_term,
        max_term]`` intersects ``[lo, hi]``, counting into ``stats`` the
        keys both dictionary scans share (``expand_terms`` here,
        the FuzzyTerm automaton in ``search/fuzzy.py``):

        * ``buckets_total`` — buckets with a segment file;
        * ``buckets_scanned`` — of those, the ones the range reaches;
        * ``row_groups_total`` — row groups of the scanned buckets.

        The scans add ``row_groups_read`` and ``rows_read``: the row groups
        whose term column they consult, and those groups' rows."""
        out = []
        for b in self.manifest["buckets"]:
            if not b["path"]:
                continue
            stats["buckets_total"] += 1
            if lo is not None and (
                b["max_term"] < lo or (lo_excl and b["max_term"] <= lo)
            ):
                continue
            if hi is not None and (
                b["min_term"] > hi or (hi_excl and b["min_term"] >= hi)
            ):
                continue
            tb = self._blocks(b["bucket"])
            stats["buckets_scanned"] += 1
            stats["row_groups_total"] += tb.n_groups
            out.append(tb)
        return out

    def expand_terms(
        self,
        predicate,
        lo: str | None = None,
        hi: str | None = None,
        lo_excl: bool = False,
        hi_excl: bool = False,
    ) -> list[str]:
        """Scan the term dictionary with an Arrow compute predicate on the
        `term` column; returns matching terms sorted lexicographically.
        Used by Prefix/Wildcard/Regex/TermRange expansion.

        ``lo``/``hi`` is an optional lexicographic pre-filter range: buckets
        whose manifest min/max term fall outside it are skipped, the block
        index keeps only the row groups whose [min, max] term bounds
        intersect it, and a ``searchsorted`` cuts each kept group to the
        range before the predicate runs.

        ``self.last_expand_stats`` records the pruning of the most recent
        call (key meanings in ``range_blocks``)."""
        stats = dict.fromkeys(EXPAND_STAT_KEYS, 0)
        found: set[str] = set()
        for tb in self.range_blocks(lo, hi, lo_excl, hi_excl, stats):
            for g in tb.groups(lo, hi, lo_excl, hi_excl):
                t = tb.terms(g)
                stats["row_groups_read"] += 1
                stats["rows_read"] += len(t)
                a = 0 if lo is None else int(
                    np.searchsorted(t, lo, "right" if lo_excl else "left")
                )
                b = len(t) if hi is None else int(
                    np.searchsorted(t, hi, "left" if hi_excl else "right")
                )
                if b > a:
                    col = pa.array(t[a:b], pa.string())
                    found.update(col.filter(predicate(col)).to_pylist())
        self.last_expand_stats = stats
        return sorted(found)
