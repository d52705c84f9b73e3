"""Query AST — the logical plan of a search.

Mirrors the semantics of the reference query classes (de-odex/whoosh-novo
``src/whoosh/query/``): Term, And (intersection, summed scores), Or (union,
summed scores), AndNot (anti), Require (semi: docs must match b, scores from
a), AndMaybe (a's docs, b's score added where present), DisjunctionMax,
Phrase (positional adjacency with slop), the multi-term nodes Prefix/
Wildcard/Regex/TermRange/FuzzyTerm/Variations (expanded over the lexicon
by plan.py), Every. Evaluation is vectorized term-at-a-time in
searcher.py.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field


class Query:
    """Base query node."""

    def leaves(self):
        yield self

    def terms(self) -> list[str]:
        out = []
        for leaf in self.leaves():
            if isinstance(leaf, Term):
                out.append(leaf.text)
        return out

    def needs_positions(self) -> bool:
        return any(
            isinstance(leaf, (Phrase, Sequence, Ordered)) for leaf in self.leaves()
        )


@dataclass(frozen=True)
class Term(Query):
    """Match documents containing the term (reference query/terms.py:39).
    ``field=None`` means the searcher's default field."""

    text: str
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class _Compound(Query):
    children: tuple

    def __init__(self, *children: Query):
        object.__setattr__(self, "children", tuple(children))

    def leaves(self):
        yield self
        for c in self.children:
            yield from c.leaves()


class And(_Compound):
    """Docs matching all children; score = sum (query/compound.py:238)."""


class Or(_Compound):
    """Docs matching any child; score = sum (query/compound.py:269).

    ``scale`` (0..1) applies the reference's coordination bonus: documents
    matching more children are boosted via the SQR function
    (CoordMatcher, matching/wrappers.py:521-572).
    """

    def __init__(self, *children, scale: float | None = None):
        super().__init__(*children)
        object.__setattr__(self, "scale", scale)


class DisMax(_Compound):
    """Union scored by max (query/compound.py:446)."""


@dataclass(frozen=True)
class AndNot(Query):
    """Docs matching a but not b (query/compound.py:548)."""

    a: Query
    b: Query

    def leaves(self):
        yield self
        yield from self.a.leaves()
        yield from self.b.leaves()


@dataclass(frozen=True)
class Require(Query):
    """Docs matching both; score only from a (query/compound.py:592)."""

    a: Query
    b: Query

    def leaves(self):
        yield self
        yield from self.a.leaves()
        yield from self.b.leaves()


@dataclass(frozen=True)
class AndMaybe(Query):
    """Docs of a; score boosted by b where it also matches (compound.py:629)."""

    a: Query
    b: Query

    def leaves(self):
        yield self
        yield from self.a.leaves()
        yield from self.b.leaves()


@dataclass(frozen=True)
class Phrase(Query):
    """Terms appearing adjacently in order, within `slop`
    (query/positional.py:134)."""

    words: tuple
    slop: int = 1
    field: str | None = None
    boost: float = 1.0

    def __init__(
        self, words, slop: int = 1, field: str | None = None, boost: float = 1.0
    ):
        object.__setattr__(self, "words", tuple(words))
        object.__setattr__(self, "slop", slop)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "boost", boost)


@dataclass(frozen=True)
class Prefix(Query):
    """All terms starting with `text` (query/terms.py:310); expands to Or.
    Like the reference (PatternQuery, terms.py:249), multi-term expansions
    default to constant score = boost."""

    text: str
    boost: float = 1.0
    constantscore: bool = True


@dataclass(frozen=True)
class Wildcard(Query):
    """fnmatch-style pattern over the lexicon (query/terms.py:352)."""

    pattern: str
    boost: float = 1.0
    constantscore: bool = True

    def regex(self) -> str:
        # RE2-compatible translation (fnmatch.translate emits Python-only
        # constructs like \Z): * -> .*, ? -> ., [seq] kept, rest escaped.
        out = []
        i, pat = 0, self.pattern
        while i < len(pat):
            c = pat[i]
            if c == "*":
                out.append(".*")
            elif c == "?":
                out.append(".")
            elif c == "[":
                j = pat.find("]", i + 1)
                if j == -1:
                    out.append(re.escape(c))
                else:
                    out.append(pat[i : j + 1])
                    i = j
            else:
                out.append(re.escape(c))
            i += 1
        return "^" + "".join(out) + "$"


@dataclass(frozen=True)
class Regex(Query):
    """Regex over the lexicon (query/terms.py:396)."""

    pattern: str
    boost: float = 1.0
    constantscore: bool = True


@dataclass(frozen=True)
class Sequence(Query):
    """Sub-queries matching at adjacent positions (reference
    query/positional.py:36-120): each child may be any term-expanding query
    (Term / Prefix / Wildcard / Regex / TermRange / Or-of-terms); child i+1
    must occur within ``slop`` positions after child i. Scored like the
    union of the matched terms."""

    children: tuple
    slop: int = 1
    boost: float = 1.0

    def __init__(self, *children, slop: int = 1, boost: float = 1.0):
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "slop", slop)
        object.__setattr__(self, "boost", boost)

    def leaves(self):
        yield self
        for c in self.children:
            yield from c.leaves()

    def needs_positions(self) -> bool:
        return True


@dataclass(frozen=True)
class Ordered(Query):
    """Sub-queries in document order at ANY distance (reference Ordered /
    SpanBefore, positional.py:123-132)."""

    children: tuple
    boost: float = 1.0

    def __init__(self, *children, boost: float = 1.0):
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "boost", boost)

    def leaves(self):
        yield self
        for c in self.children:
            yield from c.leaves()

    def needs_positions(self) -> bool:
        return True


@dataclass(frozen=True)
class ConstantScore(Query):
    """Wraps a query; every match scores ``score`` (reference
    ConstantScoreQuery, query/wrappers.py)."""

    child: Query
    score: float = 1.0

    def leaves(self):
        yield from self.child.leaves()


@dataclass(frozen=True)
class WeightingQuery(Query):
    """Evaluates the child under a different weighting model (reference
    WeightingQuery, query/wrappers.py)."""

    child: Query
    weighting: object

    def leaves(self):
        yield from self.child.leaves()


@dataclass(frozen=True)
class Otherwise(Query):
    """Matches ``b`` only when ``a`` matches no documents (reference
    query/compound.py:578-590)."""

    a: Query
    b: Query

    def leaves(self):
        yield from self.a.leaves()
        yield from self.b.leaves()


@dataclass(frozen=True)
class Variations(Query):
    """Morphological variations of an English word (reference
    query/terms.py:522-569 + lang/morph_en LiteMorph): expands to the
    indexed variants and scores them as a plain union (non-constant)."""

    text: str
    boost: float = 1.0


@dataclass(frozen=True)
class FuzzyTerm(Query):
    """Terms within ``maxdist`` edits that share the first ``prefixlength``
    characters (reference query/terms.py:436-519); multi-term expansions
    are constant-score by default like the reference."""

    text: str
    maxdist: int = 1
    prefixlength: int = 1
    boost: float = 1.0
    constantscore: bool = True


@dataclass(frozen=True)
class TermRange(Query):
    """Lexicographic term range (query/ranges.py:144)."""

    start: str | None
    end: str | None
    startexcl: bool = False
    endexcl: bool = False
    boost: float = 1.0
    constantscore: bool = True


@dataclass(frozen=True)
class ColumnQuery(Query):
    """Predicate over a per-document attribute table (reference
    query/qcolumns.py:32-99): matches docs whose ``column`` value in
    ``attrs`` (a pyarrow table with a doc_id column) satisfies
    ``predicate`` (a vectorized fn over a numpy array -> bool mask).
    Constant score 1.0."""

    attrs: object  # pa.Table
    column: str
    predicate: object  # callable

    def __hash__(self):
        return id(self)


def NumericRange(attrs, column, start=None, end=None, startexcl=False, endexcl=False):
    """Numeric range over a doc attribute (reference query/ranges.py:244-394;
    native numeric columns replace the reference's tiered shift terms)."""

    def pred(vals):
        import numpy as _np

        mask = _np.ones(len(vals), bool)
        if start is not None:
            mask &= (vals > start) if startexcl else (vals >= start)
        if end is not None:
            mask &= (vals < end) if endexcl else (vals <= end)
        return mask

    return ColumnQuery(attrs, column, pred)


def DateRange(attrs, column, start=None, end=None, startexcl=False, endexcl=False):
    """Datetime range sugar (reference query/ranges.py:396-434)."""
    import numpy as _np

    s64 = _np.datetime64(start) if start is not None else None
    e64 = _np.datetime64(end) if end is not None else None
    return NumericRange(attrs, column, s64, e64, startexcl, endexcl)


@dataclass(frozen=True)
class Every(Query):
    """All documents, constant score (query/qcore.py:650)."""

    boost: float = 1.0


@dataclass(frozen=True)
class NestedParent(Query):
    """Hierarchical doc-block join (reference query/nested.py:33-150):
    parent docs are the block starts (contiguous ascending doc ids own the
    children until the next parent). For each child match of ``subq``, the
    owning parent matches; child scores combine per parent with ``score_fn``
    ('sum' | 'max' | 'avg' — reference default sum)."""

    parents: Query
    subq: Query
    score_fn: str = "sum"

    def leaves(self):
        yield self
        yield from self.parents.leaves()
        yield from self.subq.leaves()


@dataclass(frozen=True)
class NestedChildren(Query):
    """Inverse join (reference query/nested.py:237-320): matches the CHILD
    documents belonging to parents that match ``parents_q``. Children score
    constant 1.0 (the reference scores them via the wrapped uncorrelated
    matcher)."""

    parents: Query
    parents_q: Query

    def leaves(self):
        yield self
        yield from self.parents.leaves()
        yield from self.parents_q.leaves()


class NullQuery(Query):
    """Matches nothing (reference _NullQuery, query/qcore.py:593) — e.g. a
    query string that analyzed away to stop words."""


NULL = NullQuery()


class Filtered(Query):
    """Internal carrier for the FilterCollector allow/restrict sets
    (reference collectors.py:659-763): matches are the child's matches
    restricted to ``allow`` (when given) minus ``restrict``; scores come
    from the child unchanged. Because it IS a query, every collector path
    (top-k, facets, collapse, sorted, paging, the shard actors) gets
    filtering with no extra plumbing. ``allow`` / ``restrict`` may each be
    a Query (evaluated against the same searcher — per shard in the pool),
    a results table, or a set-like of doc ids; falsy set-likes and
    NullQuery disable that side (the reference's ``if allow`` bypass)."""

    def __init__(self, child: Query, allow=None, restrict=None):
        self.child = child
        self.allow = allow
        self.restrict = restrict

    def leaves(self):
        yield self
        yield from self.child.leaves()
        if isinstance(self.allow, Query):
            yield from self.allow.leaves()
        if isinstance(self.restrict, Query):
            yield from self.restrict.leaves()
