"""Incremental indexing: generational adds / upserts / deletes.

Batch equivalent of the reference's writer lifecycle (SegmentWriter commit +
merge policies + update_document, de-odex/whoosh-novo
``src/whoosh/writing.py:62-130,439-502,944-987``): each ``add_documents``
builds a DELTA index (a new "segment set"); the MERGE POLICY decides what it
compacts with. Generations are directories with an atomically-updated
``CURRENT`` pointer, so readers always see a consistent snapshot (the
reference's TOC-generation MVCC, ``index.py:575-728``).

Merge policies (reference ``writing.py:68-130``):
  * ``"optimize"``   — every write fully merges with the current generation
    (the reference OPTIMIZE; one segment set per generation, fastest reads,
    O(corpus) write cost).
  * ``"merge_small"`` — the reference MERGE_SMALL fibonacci heuristic:
    segment sets sorted ascending by doc count; walking up, a merge point
    exists at the first i > 3 with cumulative docs < fib(i + 5); everything
    up to it merges WITH the incoming delta, larger sets stay untouched.
    Writes are O(delta + small tail); reads union the member sets through
    MultiIndex (rank-identical to a full merge).
  * ``"no_merge"``   — deltas always stay separate segment sets.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from whoosh_novo_ray.index.build import IndexConfig, build_index
from whoosh_novo_ray.index.merge import merge_indexes
from whoosh_novo_ray.index.multi import MultiIndex
from whoosh_novo_ray.index.segment import Index

CURRENT = "CURRENT"
MEMBERS = "members.json"

_fib_cache: dict[int, int] = {}


def _fib(n: int) -> int:
    """The reference's shifted Fibonacci (util/__init__.py:108): fib(n<=2)=n."""
    if n <= 2:
        return n
    if n not in _fib_cache:
        _fib_cache[n] = _fib(n - 1) + _fib(n - 2)
    return _fib_cache[n]


def merge_small_plan(doc_counts: list[int]) -> tuple[list[int], list[int]]:
    """The MERGE_SMALL decision (reference writing.py:74-110) over segment
    doc counts: returns (indexes_to_merge, unchanged_indexes) into the
    doc-count-ASCENDING order. Empty merge list = keep all segments."""
    order = sorted(range(len(doc_counts)), key=lambda i: doc_counts[i])
    total = 0
    to_merge: list[int] = []
    unchanged: list[int] = []
    found = False
    for i, idx in enumerate(order):
        count = doc_counts[idx]
        if count > 0:
            total += count
        if found:
            unchanged.append(idx)
        else:
            to_merge.append(idx)
            if i > 3 and total < _fib(i + 5):
                found = True
    if found and len(to_merge) > 1:
        return to_merge, unchanged
    return [], list(range(len(doc_counts)))


class GenerationalIndex:
    """A directory of index generations with an atomic CURRENT pointer."""

    def __init__(
        self,
        root: str,
        cfg: IndexConfig | None = None,
        policy: str = "optimize",
    ):
        if policy not in ("optimize", "merge_small", "no_merge"):
            raise ValueError(f"unknown merge policy: {policy}")
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.cfg = cfg or IndexConfig()
        self.policy = policy

    # -- read side -------------------------------------------------------------

    def current_generation(self) -> int | None:
        p = os.path.join(self.root, CURRENT)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return int(f.read().strip())

    def current_path(self) -> str | None:
        g = self.current_generation()
        return None if g is None else os.path.join(self.root, f"gen-{g:06d}")

    def _members(self, gen_path: str) -> list[str]:
        """Member segment-set dirs of a generation: new-style generations
        hold a members.json; old-style (and every "optimize" generation) ARE
        an index dir themselves."""
        mp = os.path.join(gen_path, MEMBERS)
        if os.path.exists(mp):
            with open(mp) as f:
                rels = json.load(f)["members"]
            return [os.path.join(self.root, r) for r in rels]
        return [gen_path]

    def _write_members(self, gen_path: str, member_dirs: list[str]) -> None:
        os.makedirs(gen_path, exist_ok=True)
        rels = [os.path.relpath(p, self.root) for p in member_dirs]
        tmp = os.path.join(gen_path, MEMBERS + ".tmp")
        with open(tmp, "w") as f:
            json.dump({"members": rels}, f)
        os.replace(tmp, os.path.join(gen_path, MEMBERS))

    def open(self) -> Index | MultiIndex:
        p = self.current_path()
        if p is None:
            raise FileNotFoundError("index has no generations yet")
        members = self._members(p)
        if len(members) == 1:
            return Index(members[0])
        return MultiIndex(members)

    # -- write side ------------------------------------------------------------

    def _commit(self, gen: int) -> None:
        tmp = os.path.join(self.root, CURRENT + ".tmp")
        with open(tmp, "w") as f:
            f.write(str(gen))
        os.replace(tmp, os.path.join(self.root, CURRENT))

    def create(self, docs: "ray.data.Dataset", lineage: str = "init") -> Index:
        gen = (self.current_generation() or 0) + 1
        path = os.path.join(self.root, f"gen-{gen:06d}")
        build_index(docs, path, self.cfg, lineage=lineage)
        self._commit(gen)
        return Index(path)

    def add_documents(
        self, docs: "ray.data.Dataset", lineage: str = "add"
    ) -> Index | MultiIndex:
        """Append new documents (ids must be new) as a new generation: delta
        build, then whatever compaction the merge policy asks for."""
        cur = self.current_path()
        if cur is None:
            return self.create(docs, lineage)
        gen = self.current_generation() + 1
        if self.policy == "optimize":
            delta = os.path.join(self.root, f"delta-{gen:06d}")
            build_index(docs, delta, self.cfg, lineage=f"{lineage}:delta")
            out = os.path.join(self.root, f"gen-{gen:06d}")
            merge_indexes(
                self._members(cur) + [delta], out, cfg=self.cfg, lineage=lineage
            )
            shutil.rmtree(delta, ignore_errors=True)
            self._commit(gen)
            return Index(out)
        # merge_small / no_merge: the delta becomes its own segment set
        ss = os.path.join(self.root, "segsets", f"ss-{gen:06d}")
        build_index(docs, ss, self.cfg, lineage=f"{lineage}:delta")
        members = self._members(cur)
        if self.policy == "merge_small":
            members = self._apply_merge_small(members, ss, gen, lineage)
        else:
            members = members + [ss]
        out = os.path.join(self.root, f"gen-{gen:06d}")
        self._write_members(out, members)
        self._commit(gen)
        return self.open()

    def _apply_merge_small(
        self, members: list[str], delta: str, gen: int, lineage: str
    ) -> list[str]:
        """MERGE_SMALL: the small tail of existing segment sets (fibonacci
        cutoff over cumulative doc counts) merges WITH the incoming delta;
        larger sets stay untouched (reference writing.py:74-110)."""
        counts = [Index(p).doc_count for p in members]
        to_merge, unchanged = merge_small_plan(counts)
        if not to_merge:
            return members + [delta]
        merged = os.path.join(self.root, "segsets", f"ss-{gen:06d}-m")
        merge_indexes(
            [members[i] for i in to_merge] + [delta],
            merged,
            cfg=self.cfg,
            lineage=f"{lineage}:merge_small",
        )
        return [members[i] for i in unchanged] + [merged]

    def _member_contains(self, member: str, doc_ids: np.ndarray) -> bool:
        """Does this segment set index any of the ids? A docmeta-only
        pushdown read — never the member's postings."""
        import glob as _glob

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        id_set = pc.field("doc_id").isin(
            [int(x) for x in np.asarray(doc_ids, np.uint64)]
        )
        for f in sorted(
            _glob.glob(os.path.join(member, "docmeta", "*.parquet"))
        ):
            t = pq.read_table(f, columns=["doc_id"], filters=id_set)
            if len(t):
                return True
        return False

    def delete_documents(
        self, doc_ids: np.ndarray, lineage: str = "delete"
    ) -> Index | MultiIndex:
        """Drop the given doc ids in a new generation (merge-with-deletes);
        only the segment sets actually containing them are rewritten."""
        cur = self.current_path()
        if cur is None:
            raise FileNotFoundError(
                f"no generations in {self.root}: nothing to delete from"
            )
        gen = self.current_generation() + 1
        ids = np.asarray(doc_ids, np.uint64)
        members = self._members(cur)
        if self.policy == "optimize" and len(members) == 1:
            out = os.path.join(self.root, f"gen-{gen:06d}")
            merge_indexes(
                members, out, cfg=self.cfg, delete_doc_ids=ids, lineage=lineage
            )
            self._commit(gen)
            return Index(out)
        new_members = []
        for i, m in enumerate(members):
            if self._member_contains(m, ids):
                trimmed = os.path.join(
                    self.root, "segsets", f"ss-{gen:06d}-t{i}"
                )
                merge_indexes(
                    [m], trimmed, cfg=self.cfg, delete_doc_ids=ids,
                    lineage=f"{lineage}:trim",
                )
                new_members.append(trimmed)
            else:
                new_members.append(m)
        out = os.path.join(self.root, f"gen-{gen:06d}")
        self._write_members(out, new_members)
        self._commit(gen)
        return self.open()

    def update_documents(
        self, docs: "ray.data.Dataset", lineage: str = "update"
    ) -> Index | MultiIndex:
        """Upsert: replace existing doc ids with the new contents, add the
        rest (the reference's update_document by unique key). Under
        merge_small only the segment sets containing replaced ids are
        trimmed, and the delta rides the size-tiered policy — repeated
        upserts stay O(delta + small tail), with a fibonacci-bounded member
        count instead of one segment per update."""
        cur = self.current_path()
        if cur is None:
            return self.create(docs, lineage)
        # ids of the UPDATE DELTA only (8 bytes per updated doc, not the
        # corpus) — they become the selective-delete list for the merge
        new_ids = np.array(
            [r["doc_id"] for r in docs.select_columns(["doc_id"]).take_all()],
            np.uint64,
        )
        gen = self.current_generation() + 1
        members = self._members(self.current_path())
        if self.policy == "optimize" and len(members) == 1:
            delta = os.path.join(self.root, f"delta-{gen:06d}")
            build_index(docs, delta, self.cfg, lineage=f"{lineage}:delta")
            out = os.path.join(self.root, f"gen-{gen:06d}")
            # deletes apply to the OLD generation's copies of the updated
            # ids; the delta provides the new copies
            tmp_old = out + ".oldtrim"
            merge_indexes(
                members, tmp_old, cfg=self.cfg, delete_doc_ids=new_ids,
                lineage=f"{lineage}:trim",
            )
            merge_indexes([tmp_old, delta], out, cfg=self.cfg, lineage=lineage)
            shutil.rmtree(tmp_old, ignore_errors=True)
            shutil.rmtree(delta, ignore_errors=True)
            self._commit(gen)
            return Index(out)
        # multi-member path: trim affected members, then policy-merge the delta
        trimmed_members = []
        for i, m in enumerate(members):
            if self._member_contains(m, new_ids):
                trimmed = os.path.join(
                    self.root, "segsets", f"ss-{gen:06d}-t{i}"
                )
                merge_indexes(
                    [m], trimmed, cfg=self.cfg, delete_doc_ids=new_ids,
                    lineage=f"{lineage}:trim",
                )
                trimmed_members.append(trimmed)
            else:
                trimmed_members.append(m)
        ss = os.path.join(self.root, "segsets", f"ss-{gen:06d}")
        build_index(docs, ss, self.cfg, lineage=f"{lineage}:delta")
        if self.policy == "merge_small":
            new_members = self._apply_merge_small(
                trimmed_members, ss, gen, lineage
            )
        else:
            new_members = trimmed_members + [ss]
        out = os.path.join(self.root, f"gen-{gen:06d}")
        self._write_members(out, new_members)
        self._commit(gen)
        return self.open()

    def cleanup(self, keep: int = 2) -> None:
        """Garbage-collect old generations and any segment set no surviving
        generation references (reference clean_files)."""
        g = self.current_generation()
        if g is None:
            return
        # live set FIRST, from the SURVIVING generations only: a merge_small
        # generation's members.json may reference an old-style gen dir (the
        # initial create) as a member — deleting by age alone would destroy
        # a referenced segment set
        survivors = [
            name
            for name in os.listdir(self.root)
            if name.startswith("gen-") and int(name.split("-")[1]) > g - keep
        ]
        live: set[str] = set()
        for name in survivors:
            for m in self._members(os.path.join(self.root, name)):
                live.add(os.path.abspath(m))
        for name in os.listdir(self.root):
            if name.startswith("gen-"):
                n = int(name.split("-")[1])
                p = os.path.abspath(os.path.join(self.root, name))
                if n <= g - keep and p not in live:
                    shutil.rmtree(p, ignore_errors=True)
        ss_root = os.path.join(self.root, "segsets")
        if os.path.isdir(ss_root):
            for name in os.listdir(ss_root):
                p = os.path.abspath(os.path.join(ss_root, name))
                if p not in live:
                    shutil.rmtree(p, ignore_errors=True)
