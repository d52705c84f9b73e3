"""Query-string parser: the rank-relevant subset of the reference's
plugin-based QueryParser (de-odex/whoosh-novo ``src/whoosh/qparser/``).

Supported syntax (single default field):
  term                         analyzed term (stop words vanish)
  a b c                        implicit AND (reference default AndGroup)
  a AND b / a OR b             explicit boolean (left-assoc, OR binds looser)
  NOT a                        negation (requires doc universe at eval)
  a ANDNOT b / a ANDMAYBE b    binary operators
  "a b c" / "a b"~2            phrase, optional slop
  "search dat*"                SequencePlugin: wildcards inside quotes
                               match in sequence
  pre*                         prefix; wild*card / wi?ld -> wildcard
  [a TO b] / {a TO b}          term range (inclusive / exclusive)
  term~ / term~2 / term~2/3    fuzzy term (maxdist, optional prefix length)
  field:>x  field:<=y          GtLt ranges (GtLtPlugin; field name dropped —
                               single-field parser)
  date:'last tuesday to now'   natural-language datetime filter for fields
                               registered via ``datetime_fields``
  'quoted text'                SingleQuotePlugin: analyzed verbatim —
                               wildcard/fuzzy chars inside are literal
  r"pattern"                   Regex query (opt-in regex_plugin=True, like
                               the reference's non-default RegexPlugin)
  term^2.5                     boost
  ( ... )                      grouping
  field:(a OR b) field:"a b"   FieldsPlugin group/phrase propagation — terms
                               inside analyze with that field's analyzer;
                               inner explicit fields win
  *                            Every (match all)

``simple_parse`` implements the reference SimpleParser / PlusMinusPlugin:
a flat query where ``+term`` is required, ``-term`` banned, everything else
optional (OR), combined as AndMaybe(required, optional) AndNot banned.
"""

from __future__ import annotations

import re

from whoosh_novo_ray.analysis import StandardAnalyzer
from whoosh_novo_ray.search import query as Q

_TOKEN_RX = re.compile(
    r"""
    (?P<lparen>\() | (?P<rparen>\)) |
    (?P<func>\#(?P<fn_name>[A-Za-z_][A-Za-z0-9._]*)(\[(?P<fn_args>[^\]]*)\])?) |
    (?P<dtq>(?P<dt_field>[A-Za-z_][A-Za-z0-9_]*):'(?P<dt_text>[^']*)') |
    (?P<rgx>\br"(?P<rgx_text>[^"]*)"(~(?P<rgx_slop>\d+))?) |
    (?P<phrase>"(?P<phr>[^"]*)"(~(?P<slop>\d+))?) |
    (?P<brange>\[(?P<b_lo>\S+)\s+TO\s+(?P<b_hi>\S+)\]) |
    (?P<crange>\{(?P<c_lo>\S+)\s+TO\s+(?P<c_hi>\S+)\}) |
    (?P<squote>'(?P<sq>[^']*)'(?=[\s)\]}]|$)) |
    (?P<word>[^\s()"]+)
    """,
    re.VERBOSE,
)

# GtLtPlugin relations (reference qparser/plugins.py:1081-1140)
_GTLT_RX = re.compile(r"^(<=|>=|=<|=>|<|>)(.+)$")
# FuzzyTermPlugin: word~ , word~N , word~N/M (reference plugins.py:443-520)
_FUZZY_RX = re.compile(r"^(.+?)~(\d)?(?:/(\d+))?$")


class ParseError(ValueError):
    pass


def _parse_fn_args(argstring: str | None) -> tuple[list, dict]:
    """FunctionPlugin argument split (reference plugins.py:620-640):
    comma-separated, ``key=value`` pairs become kwargs, values stay
    strings."""
    args: list = []
    kwargs: dict = {}
    if not argstring:
        return args, kwargs
    for part in argstring.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            k, v = part.split("=", 1)
            kwargs[k.strip()] = v.strip()
        else:
            args.append(part)
    return args, kwargs


NULL = Q.NULL


class QueryParser:
    def __init__(
        self,
        analyzer: StandardAnalyzer | None = None,
        datetime_fields: dict | None = None,
        functions: dict | None = None,
        regex_plugin: bool = False,
        field_analyzers: dict | None = None,
    ):
        """``datetime_fields`` maps a field name to (attrs, column,
        basedate) — the DateParserPlugin wiring: ``field:'<natural
        language>'`` becomes a native DateRange filter over that column.

        ``functions`` maps names to callables for the reference's
        (self-described experimental) FunctionPlugin syntax
        (qparser/plugins.py:558-640): ``#name[arg1,key=val] atom`` calls
        ``fn([atom_query], *args, **kwargs)`` on the immediately-following
        atom (``fn([], ...)`` when the function ends the input) and splices
        the returned query in.

        ``field_analyzers`` maps a field name to the analyzer used for
        explicitly-fielded terms (the reference parses each fielded chunk
        with that schema field's analyzer, qparser/default.py:180-220) —
        e.g. an ID field's terms keep their case."""
        self.analyzer = analyzer or StandardAnalyzer()
        self.datetime_fields = datetime_fields or {}
        self.functions = functions or {}
        self.field_analyzers = field_analyzers or {}
        # RegexPlugin (reference qparser/plugins.py:197-216) is NOT in the
        # reference default set — opt in to make r"pattern" a Regex query
        # (start-anchored re.match semantics, like the reference's)
        self.regex_plugin = regex_plugin
        # innermost ``field:( ... )`` / ``field:"phrase"`` context — the
        # reference FieldsPlugin attaches a fieldname node to the following
        # group/quote and terms inside analyze with THAT field's analyzer
        # (qparser/default.py fieldname filter)
        self._field_ctx: list[str] = []

    def _analyze(self, text: str, field: str | None = None) -> list[str]:
        return (self.field_analyzers.get(field) or self.analyzer)(text)

    def _ctx_field(self) -> str | None:
        return self._field_ctx[-1] if self._field_ctx else None

    # -- lexing ----------------------------------------------------------------

    def _lex(self, s: str) -> list[tuple[str, object]]:
        out = []
        for m in _TOKEN_RX.finditer(s):
            kind = m.lastgroup if m.lastgroup in ("lparen", "rparen") else None
            if m.group("lparen"):
                out.append(("(", None))
            elif m.group("rparen"):
                out.append((")", None))
            elif m.group("func") is not None:
                out.append(
                    ("func", (m.group("fn_name"), m.group("fn_args"), m.group(0)))
                )
            elif m.group("dtq") is not None:
                out.append(("dtq", (m.group("dt_field"), m.group("dt_text"))))
            elif m.group("phrase") is not None:
                slop = int(m.group("slop") or 1)
                out.append(("phrase", (m.group("phr"), slop)))
            elif m.group("brange") is not None:
                out.append(("range", (m.group("b_lo"), m.group("b_hi"), False, False)))
            elif m.group("crange") is not None:
                out.append(("range", (m.group("c_lo"), m.group("c_hi"), True, True)))
            elif m.group("rgx") is not None:
                if self.regex_plugin:
                    out.append(("rgx", m.group("rgx_text")))
                else:
                    # plugin off: lex exactly as before — a word 'r' (which
                    # the analyzer's minsize drops) followed by the phrase
                    out.append(("word", "r"))
                    out.append(
                        ("phrase", (m.group("rgx_text"), int(m.group("rgx_slop") or 1)))
                    )
            elif m.group("squote") is not None:
                out.append(("squote", m.group("sq")))
            else:
                w = m.group("word")
                if w in ("AND", "OR", "NOT", "ANDNOT", "ANDMAYBE"):
                    out.append((w, None))
                else:
                    out.append(("word", w))
        return out

    # -- parsing (precedence: OR < AND/implicit < ANDNOT/ANDMAYBE < NOT) -------

    def parse(self, s: str) -> Q.Query:
        self._toks = self._lex(s)
        self._i = 0
        q = self._parse_or()
        if self._i != len(self._toks):
            raise ParseError(f"unexpected token at {self._i}: {self._toks[self._i]}")
        return self._simplify(q)

    def _peek(self):
        return self._toks[self._i] if self._i < len(self._toks) else (None, None)

    def _next(self):
        t = self._peek()
        self._i += 1
        return t

    def _parse_or(self) -> Q.Query:
        parts = [self._parse_and()]
        while self._peek()[0] == "OR":
            self._next()
            parts.append(self._parse_and())
        parts = [p for p in parts if p is not NULL]
        if not parts:
            return NULL
        return parts[0] if len(parts) == 1 else Q.Or(*parts)

    def _parse_and(self) -> Q.Query:
        parts = [self._parse_binop()]
        while True:
            kind, _ = self._peek()
            if kind == "AND":
                self._next()
                parts.append(self._parse_binop())
            elif kind in ("word", "squote", "rgx", "phrase", "range", "dtq", "(", "NOT", "func"):
                parts.append(self._parse_binop())  # implicit AND
            else:
                break
        parts = [p for p in parts if p is not NULL]
        if not parts:
            return NULL
        return parts[0] if len(parts) == 1 else Q.And(*parts)

    def _parse_binop(self) -> Q.Query:
        left = self._parse_unary()
        while self._peek()[0] in ("ANDNOT", "ANDMAYBE"):
            op, _ = self._next()
            right = self._parse_unary()
            if right is NULL:
                continue
            if left is NULL:
                left = right if op == "ANDMAYBE" else NULL
                continue
            left = Q.AndNot(left, right) if op == "ANDNOT" else Q.AndMaybe(left, right)
        return left

    def _parse_unary(self) -> Q.Query:
        kind, val = self._peek()
        if kind == "NOT":
            self._next()
            inner = self._parse_unary()
            if inner is NULL:
                return NULL
            return Q.AndNot(Q.Every(), inner)
        return self._parse_atom()

    def _parse_atom(self) -> Q.Query:
        kind, val = self._next()
        if kind == "(":
            q = self._parse_or()
            if self._next()[0] != ")":
                raise ParseError("missing closing paren")
            return q
        if kind == "phrase":
            text, slop = val
            raw_words = text.split()
            if any("*" in w or "?" in w for w in raw_words):
                # SequencePlugin (reference qparser/plugins.py:758-800):
                # quotes may contain term-expanding sub-queries, matched in
                # sequence — e.g. "search dat*"
                children = [self._parse_word(w) for w in raw_words]
                children = [c for c in children if c is not NULL]
                if not children:
                    return NULL
                if len(children) == 1:
                    return children[0]
                return Q.Sequence(*children, slop=slop)
            ctx = self._ctx_field()
            words = self._analyze(text, ctx)
            if not words:
                return NULL
            if len(words) == 1:
                return Q.Term(words[0], field=ctx)
            return Q.Phrase(words, slop=slop, field=ctx)
        if kind == "range":
            if self._ctx_field() is not None:
                # TermRange has no field: dropping the group's field would
                # silently search the default field instead
                raise ParseError(
                    f"range inside {self._ctx_field()}:( ... ) is not "
                    "supported: ranges apply to the default field only"
                )
            lo, hi, loexcl, hiexcl = val
            lo = None if lo == "*" else lo.lower()
            hi = None if hi == "*" else hi.lower()
            return Q.TermRange(lo, hi, loexcl, hiexcl)
        if kind == "dtq":
            field, text = val
            if field in self.datetime_fields:
                from whoosh_novo_ray.search.dateparse import date_range_query

                attrs, column, basedate = self.datetime_fields[field]
                return date_range_query(attrs, column, text, basedate)
            # unregistered field: treat the quoted text as a phrase
            words = self._analyze(text, field)
            if not words:
                return NULL
            if len(words) == 1:
                return Q.Term(words[0], field=field)
            return Q.Phrase(words, field=field)
        if kind == "word":
            fm = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*):", val)
            if fm and self._peek()[0] in ("(", "phrase"):
                # bare field prefix before a group or quoted phrase:
                # field:(a OR b) / field:"a b" — push the field context and
                # parse the following atom under it
                self._field_ctx.append(fm.group(1))
                try:
                    return self._parse_atom()
                finally:
                    self._field_ctx.pop()
            return self._parse_word(val)
        if kind == "rgx":
            return Q.Regex(val)
        if kind == "squote":
            # SingleQuotePlugin (reference qparser/plugins.py:110-117):
            # quoted text goes straight to analysis — wildcard / fuzzy /
            # range syntax inside quotes is literal, never operator
            ctx = self._ctx_field()
            toks = self._analyze(val, ctx)
            if not toks:
                return NULL
            if len(toks) == 1:
                return Q.Term(toks[0], field=ctx)
            return Q.And(*[Q.Term(t, field=ctx) for t in toks])
        if kind == "func":
            name, argstring, raw = val
            fn = self.functions.get(name)
            if fn is None:
                # unregistered name: fall through to plain word parsing,
                # like the reference's create() returning None
                return self._parse_word(raw)
            args, kwargs = _parse_fn_args(argstring)
            qs = []
            if self._peek()[0] in ("word", "squote", "rgx", "phrase", "range", "dtq", "("):
                sub = self._parse_atom()
                if sub is not NULL:
                    qs.append(sub)
            return fn(qs, *args, **kwargs)
        raise ParseError(f"unexpected token {kind}")

    def _parse_word(self, w: str) -> Q.Query:
        boost = 1.0
        m = re.match(r"^(.*)\^(\d+(\.\d+)?)$", w)
        if m:
            w, boost = m.group(1), float(m.group(2))
        field = self._ctx_field()
        fm = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):(.+)$", w)
        if fm:
            field, w = fm.group(1), fm.group(2)
        if w == "*":
            return Q.Every(boost=boost)
        gm = _GTLT_RX.match(w)
        if gm and field is not None:
            rel, text = gm.group(1), gm.group(2).lower()
            # single-field parser: the field specifier selects GtLt syntax
            # but the range applies to the default field (documented)
            if rel in ("<", "=<", "<="):
                return Q.TermRange(None, text, False, rel == "<")
            return Q.TermRange(text, None, rel == ">", False)
        fz = _FUZZY_RX.match(w)
        if fz and ("*" not in w and "?" not in w):
            from whoosh_novo_ray.search.fuzzy import FuzzyTerm

            text = fz.group(1).lower()
            maxdist = int(fz.group(2)) if fz.group(2) else 1
            plen = int(fz.group(3)) if fz.group(3) else 0
            return FuzzyTerm(
                text, maxdist=maxdist, prefixlength=plen, boost=boost
            )
        if "*" in w or "?" in w:
            wl = w.lower()
            if (
                wl.endswith("*")
                and "*" not in wl[:-1]
                and "?" not in wl
                and len(wl) > 1
            ):
                q = Q.Prefix(wl[:-1], boost=boost)
            else:
                q = Q.Wildcard(wl, boost=boost)
            return q
        toks = self._analyze(w, field)
        if not toks:
            return NULL
        if len(toks) == 1:
            return Q.Term(toks[0], boost=boost, field=field)
        # one input word analyzing to several tokens (e.g. "big-time")
        return Q.And(*[Q.Term(t, boost=boost, field=field) for t in toks])

    def _simplify(self, q: Q.Query) -> Q.Query:
        return q

    def simple_parse(self, s: str) -> Q.Query:
        """Reference SimpleParser / PlusMinusPlugin (plugins.py:1016-1078):
        flat tokens; '+term' required, '-term' banned, the rest optional
        (OR). Result = AndMaybe(And(required), Or(optional)) AndNot
        Or(banned)."""
        required, optional, banned = [], [], []
        for raw in s.split():
            bucket = optional
            if raw.startswith("+") and len(raw) > 1:
                bucket, raw = required, raw[1:]
            elif raw.startswith("-") and len(raw) > 1:
                bucket, raw = banned, raw[1:]
            for t in self.analyzer(raw):
                bucket.append(Q.Term(t))

        def _group(parts, cls):
            if not parts:
                return None
            return parts[0] if len(parts) == 1 else cls(*parts)

        req = _group(required, Q.And)
        opt = _group(optional, Q.Or)
        ban = _group(banned, Q.Or)
        q = opt
        if req is not None:
            q = Q.AndMaybe(req, opt) if opt is not None else req
        if q is None:
            if ban is None:
                return NULL
            return Q.AndNot(Q.Every(), ban)
        if ban is not None:
            q = Q.AndNot(q, ban)
        return q


# ---------------------------------------------------------------------------
# Multifield parsing (reference MultifieldParser, qparser/default.py:393-427)
# ---------------------------------------------------------------------------


def _map_fielded(q: Q.Query, fn):
    """Rebuild an AST, applying ``fn`` to every field-carrying leaf (Term /
    Phrase). ``fn`` may return a replacement node or a LIST of sibling nodes
    (the CopyFieldPlugin inline mode); lists splice into the surrounding
    group (a lone top-level list becomes an And, the parser's default
    group)."""

    def walk(node):
        if isinstance(node, (Q.Term, Q.Phrase)):
            return fn(node)
        if isinstance(node, Q.Or):
            kids = _splice(node.children)
            if len(kids) == 1:
                return kids[0]
            return Q.Or(*kids, scale=getattr(node, "scale", None))
        if isinstance(node, (Q.And, Q.DisMax)):
            kids = _splice(node.children)
            if not kids:
                return NULL
            return kids[0] if len(kids) == 1 else type(node)(*kids)
        if isinstance(node, (Q.AndNot, Q.Require, Q.AndMaybe, Q.Otherwise)):
            return type(node)(_one(node.a), _one(node.b))
        if isinstance(node, Q.ConstantScore):
            return Q.ConstantScore(_one(node.child), score=node.score)
        if isinstance(node, Q.WeightingQuery):
            return Q.WeightingQuery(_one(node.child), node.weighting)
        if isinstance(node, Q.Sequence):
            return Q.Sequence(*_splice(node.children), slop=node.slop, boost=node.boost)
        if isinstance(node, Q.Ordered):
            return Q.Ordered(*_splice(node.children), boost=node.boost)
        return node

    def _splice(children):
        # a node removed by a rewrite (pseudo field -> None) drops out of
        # its group, exactly as the reference deletes the syntax node
        out = []
        for c in children:
            r = walk(c)
            for x in r if isinstance(r, list) else [r]:
                if not isinstance(x, Q.NullQuery):
                    out.append(x)
        return out

    def _one(node):
        r = walk(node)
        return Q.And(*r) if isinstance(r, list) else r

    return _one(q)


class MultifieldParser(QueryParser):
    """Parser whose unfielded terms search a LIST of default fields.

    Reference parity (behavior, not code):
      * MultifieldPlugin (qparser/plugins.py:1157-1203): an unfielded
        Term/Phrase becomes an Or of per-field copies; each copy's boost is
        SET to ``fieldboosts.get(field, 1.0)`` (the reference overwrites the
        node boost — quirk preserved).
      * FieldAliasPlugin (:1205-1239): ``aliases`` maps real field ->
        [alias...]; aliased explicit fields rewrite to the real name BEFORE
        the other filters (priority 90 < 109 < 110).
      * CopyFieldPlugin (:1241-1307): an explicitly-fielded node whose field
        is in ``copyfields`` becomes Or(original, copy-in-mapped-field) —
        or two inline siblings with ``copy_inline=True`` (the group=None
        mode). Under a multifield parser the "or parser.fieldname" fallback
        is None, so only explicit fields copy — reference behavior.
      * PseudoFieldPlugin (:1309-1350): ``pseudo_fields`` maps a field name
        to fn(node) -> node | None; None removes the node (NullQuery).
    """

    def __init__(
        self,
        fieldnames: list[str],
        fieldboosts: dict[str, float] | None = None,
        aliases: dict[str, list[str]] | None = None,
        copyfields: dict[str, str] | None = None,
        copy_inline: bool = False,
        pseudo_fields: dict | None = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.fieldnames = list(fieldnames)
        self.fieldboosts = dict(fieldboosts or {})
        self.alias_of = {
            a: real for real, als in (aliases or {}).items() for a in als
        }
        self.copyfields = dict(copyfields or {})
        self.copy_inline = copy_inline
        self.pseudo_fields = dict(pseudo_fields or {})

    @staticmethod
    def _with_field(node, field, boost=None):
        if isinstance(node, Q.Term):
            return Q.Term(
                node.text,
                boost=node.boost if boost is None else boost,
                field=field,
            )
        return Q.Phrase(
            list(node.words),
            slop=node.slop,
            field=field,
            boost=node.boost if boost is None else boost,
        )

    def parse(self, s: str) -> Q.Query:
        q = super().parse(s)
        if self.pseudo_fields:

            def pseudo(node):
                fn = self.pseudo_fields.get(node.field)
                if fn is None:
                    return node
                out = fn(node)
                return NULL if out is None else out

            q = _map_fielded(q, pseudo)
        if self.alias_of:

            def unalias(node):
                real = self.alias_of.get(node.field)
                return node if real is None else self._with_field(node, real)

            q = _map_fielded(q, unalias)
        if self.copyfields:

            def copyfield(node):
                dest = self.copyfields.get(node.field)
                if dest is None:
                    return node
                copy = self._with_field(node, dest)
                if self.copy_inline:
                    return [node, copy]
                return Q.Or(node, copy)

            q = _map_fielded(q, copyfield)

        def multifield(node):
            if node.field is not None:
                return node
            return Q.Or(
                *[
                    self._with_field(node, f, boost=self.fieldboosts.get(f, 1.0))
                    for f in self.fieldnames
                ]
            )

        return _map_fielded(q, multifield)
