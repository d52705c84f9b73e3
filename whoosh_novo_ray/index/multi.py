"""MultiIndex: one logical index over several doc-disjoint segment sets.

The reference's MultiReader (de-odex/whoosh-novo
``src/whoosh/reading.py:1012-1120``): searches see the union of all member
segments, with collection stats summed across them. Here a member is a whole
bucket-partitioned index directory (a "segment set" written by one build or
merge); ``term_rows`` simply concatenates each member's rows for a term —
the Searcher already merges multiple rows per term by a stable doc-id sort
(the salted-term path), and member doc spaces are disjoint, so evaluation
is rank-identical to a fully-merged index.

This is what makes the MERGE_SMALL write path (index/incremental.py) cheap:
small deltas can stay separate segment sets — reads union them — until the
size-tiered policy decides a compaction is worth it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from whoosh_novo_ray.index.segment import Index, TermRow


class MultiIndex:
    """Read-side union of doc-disjoint member indexes."""

    def __init__(self, paths: list[str]):
        if not paths:
            raise ValueError("MultiIndex needs at least one member")
        self.members = [Index(p) for p in paths]
        self.paths = list(paths)
        self.path = paths[0] if len(paths) == 1 else None
        self.cfg = self.members[0].cfg
        self.doc_count = sum(m.doc_count for m in self.members)
        self.total_field_length = float(
            sum(m.total_field_length for m in self.members)
        )

    @property
    def avg_field_length(self) -> float:
        return self.total_field_length / (self.doc_count or 1)

    def term_rows(
        self,
        terms: list[str],
        with_positions: bool = False,
        with_chars: bool = False,
    ) -> dict[str, list[TermRow]]:
        out: dict[str, list[TermRow]] = {t: [] for t in terms}
        for m in self.members:
            rows = m.term_rows(
                terms, with_positions=with_positions, with_chars=with_chars
            )
            for t, rs in rows.items():
                out[t].extend(rs)
        return out

    def term_stats_and_slots(
        self, terms: list[str]
    ) -> dict[str, tuple[int, float, float, int]]:
        """``Index.term_stats_and_slots`` over the union: stats summed and
        ``doc_slots`` masks OR-ed across members."""
        out = dict.fromkeys(terms, (0, 0.0, 0.0, 0))
        for m in self.members:
            for t, (df, w, mx, slots) in m.term_stats_and_slots(terms).items():
                odf, ow, omx, oslots = out[t]
                out[t] = (odf + df, ow + w, max(omx, mx), oslots | slots)
        return out

    def term_stats_many(
        self, terms: list[str]
    ) -> dict[str, tuple[int, float, float]]:
        return {t: s[:3] for t, s in self.term_stats_and_slots(terms).items()}

    def expand_terms(self, predicate, **kwargs) -> list[str]:
        found: set[str] = set()
        for m in self.members:
            found.update(m.expand_terms(predicate, **kwargs))
        return sorted(found)

    def iter_term_stats(self, columns=("term", "df", "weight")) -> pa.Table:
        tbl = pa.concat_tables(
            [m.iter_term_stats(columns) for m in self.members]
        )
        if len(self.members) > 1:
            g = pa.TableGroupBy(tbl, "term").aggregate(
                [(c, "sum") for c in columns if c != "term"]
            )
            tbl = g.rename_columns(["term"] + [c for c in columns if c != "term"])
        return tbl

    def doc_meta(self) -> pa.Table:
        return pa.concat_tables([m.doc_meta() for m in self.members]).sort_by(
            "doc_id"
        )

    def docmeta_ds(self):
        import ray.data as _rd

        files = [f for m in self.members for f in m._docmeta_files()]
        if not files:
            return self.members[0].docmeta_ds()
        return _rd.read_parquet(files)

    def all_doc_ids(self) -> np.ndarray:
        parts = [m.all_doc_ids() for m in self.members]
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts))
