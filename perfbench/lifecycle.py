"""The benchmark's operations: ingest cycles, and refresh rounds in a
traced run.

A run repeats one cycle until its ``--seconds`` have passed: an ingest
operation (raw Parquet pages to an index with its serving shards), a pool
over that index and its first answer, warm-up queries from another seed,
then timed blocks of queries on that pool. One client in this process keeps one operation in flight (a closed
loop). Both workloads run the same cycle; they differ in which words the
queries draw (``QueryStream``).

The host this runs on is shared: the hypervisor steals CPU time and other
tenants' processes run on the same vCPUs, in bursts of a few seconds. Each
ingest operation and each block of queries is therefore a ``Window`` that
records how much the rest of the host interfered with it, and the timing
metrics come from the quietest of the run's windows of each kind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import ray
import ray.data

from whoosh_novo_ray.index import Index, IndexConfig
from whoosh_novo_ray.index.build import detect_heavy_terms
from whoosh_novo_ray.index.docshard import build_serving_shards, serving_dir_for
from whoosh_novo_ray.index.incremental import MEMBERS, GenerationalIndex
from whoosh_novo_ray.ops.extract import extract_pages_text
from whoosh_novo_ray.search import query as Q
from whoosh_novo_ray.search.qparser import QueryParser
from whoosh_novo_ray.search.searcher import Searcher
from whoosh_novo_ray.search.wand import searcher_wand_topk
from whoosh_novo_ray.state.score_pool import ScorePool, ScoreServer

from perfbench.inputs import BASE_MARKER, BLOCK, CLASSES, QueryStream, make_delta
from perfbench.tracing import (
    SHARE_LAYERS,
    ScoringCpu,
    Window,
    quietest,
    scoring_actor_pids,
)

NUM_ACTORS = 2
NUM_SHARDS = 4
NUM_BUCKETS = 8
TOP_K = 10
# every CHECK_EVERY-th timed query is compared with the local Searcher
CHECK_EVERY = 20


@dataclasses.dataclass
class Plan:
    """Sizes of a run. At least ``min_cycles`` cycles run; more start while
    one more, at the median cycle's length, still ends within
    ``--seconds``. ``rounds`` of refresh follow in a traced run only."""

    pages: int = 2000
    warm_queries: int = 4 * len(BLOCK)
    # a whole number of class blocks, so every window has the same mix
    block_queries: int = 4 * len(BLOCK)
    blocks: int = 3
    min_cycles: int = 3
    # the metrics come from this many of the quietest ingest operations
    # and query blocks: 384 queries leave 19 beyond the 95th percentile
    quiet_ingests: int = 3
    quiet_blocks: int = 8
    rounds: int = 2
    delta_pages: int = 100
    round_queries: int = 3 * len(BLOCK)


def stat_terms(q: Q.Query) -> list[str]:
    """The terms a pooled query ships global stats for."""
    out: set[str] = set()
    for leaf in q.leaves():
        if isinstance(leaf, Q.Term):
            out.add(leaf.text)
        elif isinstance(leaf, Q.Phrase):
            out.update(leaf.words)
    return sorted(out)


def members(gi: GenerationalIndex) -> list[str]:
    """Member segment-set dirs of the current generation, from its
    members.json (the first generation is its own single member)."""
    gen = gi.current_path()
    path = os.path.join(gen, MEMBERS)
    if not os.path.exists(path):
        return [gen]
    with open(path) as f:
        return [os.path.join(gi.root, m) for m in json.load(f)["members"]]


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(path)
        for f in files
    )


def _ids(t: pa.Table) -> np.ndarray:
    return t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)


def _scores(t: pa.Table) -> np.ndarray:
    return t["score"].to_numpy(zero_copy_only=False).astype(np.float64)


class _Timed:
    """A span (when tracing) plus a plain duration kept in ``Run.times``."""

    __slots__ = ("run", "name", "span", "t0")

    def __init__(self, run: "Run", name: str):
        self.run = run
        self.name = name

    def __enter__(self):
        self.span = self.run.tracer.span(self.name)
        self.span.__enter__()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.run.times[self.name].append(time.perf_counter() - self.t0)
        self.span.__exit__(*exc)
        return False


class Run:
    def __init__(self, plan: Plan, workload: str, seed: int, seconds: float,
                 trace: bool, tracer, rd_stats, work: str, corpus: dict,
                 input_dir: str, inject_wrong_result: bool = False):
        self.plan = plan
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = tracer
        self.rd_stats = rd_stats
        self.work = work
        self.corpus = corpus
        self.input_dir = input_dir
        self.inject = inject_wrong_result
        self.cfg = IndexConfig(num_buckets=NUM_BUCKETS)
        self.qp = QueryParser()
        self.stream = QueryStream(corpus["words"], seed, workload)
        self.warm_stream = QueryStream(corpus["words"], seed + 1_000_003, workload)
        self.times: dict[str, list[float]] = defaultdict(list)
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # per-layer metrics a traced run could not measure, with the reason
        self.dropped: dict[str, str] = {}
        self.gi: GenerationalIndex | None = None
        self.pool: ScorePool | None = None
        self.base: str | None = None  # the index the traced run's probes use
        self.ingest_windows: list[Window] = []
        self.query_windows: list[Window] = []
        # per-cycle timed wall (ingest + queries), split by whether traced
        self.cycle_walls: dict[bool, list[float]] = {True: [], False: []}
        self.wall: dict[str, float] = {}  # wall-clock diagnostics

    def run(self) -> None:
        self.cycles()
        if self.trace:
            self.tracer.on = True
            self.rd_stats.set_active(True)
            self.refresh()
            self.tracer.on = False
            self.rd_stats.set_active(False)
            self.probes()
            self.trace_layers()

    # -- helpers -------------------------------------------------------------

    def timed(self, name: str) -> _Timed:
        return _Timed(self, name)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def _same(self, pooled: pa.Table, local: pa.Table) -> bool:
        """Same doc ids in the same order, scores equal to 6 dp."""
        if self.inject:
            self.inject = False
            s = _scores(pooled)
            s[:1] += 1.0
            pooled = pa.table({"doc_id": _ids(pooled), "score": s})
        if len(pooled) != len(local) or not np.array_equal(_ids(pooled), _ids(local)):
            return False
        return bool(np.all(np.abs(_scores(pooled) - _scores(local)) < 5e-7))

    def _query(self, pool: ScorePool, q: dict, root: bool = True):
        """One pooled query, timed from the query string to the merged
        top-k. Returns (result, wall seconds, wand stats or None)."""
        tr = self.tracer
        with tr.span("workload.query", root=root):
            t0 = time.perf_counter()
            if q["cls"] == "wand":
                with tr.span("state.score_pool.wand_topk"):
                    res, st = pool.wand_topk(q["terms"], TOP_K)
                wall = time.perf_counter() - t0
                return res, wall, st
            t1 = time.perf_counter()
            with tr.span("search.qparser.parse"):
                parsed = self.qp.parse(q["text"])
            self.times["search.qparser.parse"].append(time.perf_counter() - t1)
            with tr.span("state.score_pool.search"):
                res = pool.search(parsed, limit=TOP_K)
            wall = time.perf_counter() - t0
            return res, wall, None

    def _local(self, searcher: Searcher, q: dict) -> pa.Table:
        if q["cls"] == "wand":
            with self.tracer.span("search.wand.searcher_wand_topk"):
                return searcher_wand_topk(searcher, q["terms"], TOP_K)[0]
        with self.tracer.span("search.searcher.search"):
            return searcher.search(self.qp.parse(q["text"]), limit=TOP_K)

    @contextlib.contextmanager
    def untraced(self):
        """Correctness checks are the benchmark's own work: keep them out
        of the trace."""
        on, self.tracer.on = self.tracer.on, False
        try:
            yield
        finally:
            self.tracer.on = on

    # -- cycles --------------------------------------------------------------

    def cycles(self) -> None:
        """Repeat ingest -> warm-up -> timed query blocks for ``seconds``.
        In a traced run every other cycle is traced; the untraced ones
        measure the tracing overhead."""
        p = self.plan
        t_end = time.perf_counter() + self.seconds
        lengths: list[float] = []
        setups: list[tuple[float, float]] = []  # (CPU-seconds, wall seconds)
        by_cls: dict[str, list[float]] = defaultdict(list)
        decoded = total = 0
        k = 0
        while k < p.min_cycles or time.perf_counter() + np.median(lengths) <= t_end:
            t_cycle = time.perf_counter()
            on = self.trace and k % 2 == 0
            self.tracer.on = on
            self.rd_stats.set_active(on)
            old = scoring_actor_pids()
            build, start = self.ingest(k)
            with Window() as warm:
                for q in self.warm_stream.take(p.warm_queries):
                    self._query(self.pool, q)
            setup = (build, start, warm)
            setups.append((sum(w.cpu for w in setup), sum(w.wall for w in setup)))
            actors = scoring_actor_pids() - old
            if len(actors) != NUM_ACTORS:
                self._fail(f"cycle {k}: found {len(actors)} scoring actor processes, "
                           f"not {NUM_ACTORS}")
            clock = ScoringCpu(actors)
            searcher = Searcher(self.gi.open())
            timed = build.wall + start.wall
            for _b in range(p.blocks):
                with Window() as w:
                    starts: list[float] = []
                    for i in range(p.block_queries):
                        q = self.stream.next()
                        self.attempted += 1
                        starts.append(clock.actors())
                        d0 = time.thread_time()
                        try:
                            res, wall, st = self._query(self.pool, q)
                        except Exception as e:  # a raised query counts as failed
                            self._fail(f"query {q}: {type(e).__name__}: {e}")
                            starts.pop()
                            continue
                        w.samples.append((q["cls"], wall, time.thread_time() - d0))
                        timed += wall
                        if on:
                            by_cls[q["cls"]].append(wall)
                            if st is not None:
                                decoded += st.get("decoded_blocks", 0)
                                total += st.get("total_blocks", 0)
                        if i % CHECK_EVERY == 0:
                            with self.untraced():
                                if not self._same(res, self._local(searcher, q)):
                                    self._fail(f"query {q}: pooled result differs "
                                               "from the local Searcher")
                    # an actor's run time is booked when its thread sleeps:
                    # give the last query's a moment, then charge each query
                    # the actors' time up to the next query's start
                    time.sleep(0.002)
                    starts.append(clock.actors())
                    w.samples = [
                        (c, wall, drv + after - before)
                        for (c, wall, drv), before, after in zip(w.samples, starts, starts[1:])
                    ]
                self.query_windows.append(w)
            self.cycle_walls[on].append(timed)
            lengths.append(time.perf_counter() - t_cycle)
            k += 1
        self.tracer.on = False
        self.rd_stats.set_active(False)

        ingest = quietest(self.ingest_windows, p.quiet_ingests)
        queries = [s for w in quietest(self.query_windows, p.quiet_blocks) for s in w.samples]
        cpu_ms = np.asarray([cpu for _c, _w, cpu in queries]) * 1000.0
        self.e2e["ingest_cpu_s"] = float(np.median([w.cpu for w in ingest]))
        self.e2e["query_cpu_p50_ms"] = float(np.percentile(cpu_ms, 50))
        self.e2e["query_cpu_p95_ms"] = float(np.percentile(cpu_ms, 95))
        self.e2e["pool_rss_mb"] = actor_peak_rss_mb()
        self.e2e["setup_s"] = float(np.median([cpu for cpu, _wall in setups]))
        # the same quiet windows' wall-clock figures, as diagnostics
        walls = np.asarray([wall for _c, wall, _cpu in queries])
        self.wall = {
            "ingest_docs_per_s": p.pages / float(np.median([w.wall for w in ingest])),
            "query_p50_ms": float(np.percentile(walls, 50) * 1000.0),
            "query_p95_ms": float(np.percentile(walls, 95) * 1000.0),
            "queries_per_s": len(walls) / float(np.sum(walls)),
            "setup_s": float(np.median([wall for _cpu, wall in setups])),
        }
        if not self.trace:
            return
        for c in CLASSES:
            self._median_layer(f"state.score_pool.class.{c}.p50_ms", by_cls[c], 1000.0)
        if total:
            self.layer["search.wand.decoded_blocks_frac"] = decoded / total
        else:
            self._drop("search.wand.decoded_blocks_frac", "no wand block stats")

    def ingest(self, k: int) -> tuple[Window, Window]:
        """Raw Parquet pages -> extraction -> heavy-term probe -> generational
        term-bucket build -> doc-sharded serving build, then a pool over it
        and its first answer. The new index and pool replace the previous
        cycle's. Returns the build's window and the pool start's.

        The pool start is kept out of the ingest metric: two new actor
        processes importing the library cost about as much CPU as the whole
        build, and that cost swings by 15% between cycles of one run."""
        p = self.plan
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        if k > 0:
            shutil.rmtree(os.path.join(self.work, f"gi-{k - 1}"), ignore_errors=True)
        root = os.path.join(self.work, f"gi-{k}")
        first = {"cls": "implicit", "text": " ".join(self.corpus["words"][:2])}
        self.attempted += 1
        with self.tracer.span("workload.ingest", root=True), Window() as w:
            with self.timed("ops.extract"):
                docs = extract_pages_text(
                    ray.data.read_parquet(self.input_dir, columns=["doc_id", "html"])
                )
            with self.timed("index.build.heavy_probe"):
                heavy = detect_heavy_terms(docs, self.cfg, doc_count=p.pages)
            gi = GenerationalIndex(
                root, dataclasses.replace(self.cfg, heavy_terms=heavy),
                policy="merge_small",
            )
            with self.timed("index.build"):
                gi.create(docs, lineage=f"ingest-{k}")
            member = gi.current_path()
            with self.timed("index.docshard"):
                build_serving_shards(
                    member, num_shards=NUM_SHARDS, out_dir=serving_dir_for(member)
                )
        with self.tracer.span("workload.pool_start", root=True), Window() as start:
            with self.timed("state.score_pool.start"):
                pool = ScorePool.for_generational(
                    gi, num_actors=NUM_ACTORS, num_shards=NUM_SHARDS
                )
            res, _w, _s = self._query(pool, first, root=False)
        self.ingest_windows.append(w)
        self.gi, self.pool = gi, pool
        self.e2e["bytes_per_text_byte"] = dir_bytes(root) / self.corpus["text_bytes"]
        idx = gi.open()
        if idx.doc_count != p.pages:
            self._fail(f"ingest {k}: doc_count {idx.doc_count} != {p.pages} rows")
        else:
            with self.untraced():
                if not self._same(res, self._local(Searcher(idx), first)):
                    self._fail(f"ingest {k}: first answer differs from the local Searcher")
        # the traced run's probes use the last cycle's index
        self.base = member
        if self.trace:
            man = Index(member).manifest
            self.layer["index.build.postings"] = float(man["n_postings"])
            serving = serving_dir_for(member)
            self.layer["index.docshard.bytes"] = float(dir_bytes(serving))
            self.layer["index.build.bytes"] = float(dir_bytes(member) - dir_bytes(serving))
        return w, start

    # -- refresh (traced runs) -----------------------------------------------

    def refresh(self) -> None:
        """Rounds of: upsert a ~100-page delta (half replacements), query
        fresh local Searchers on the new generation, then swap in a new pool
        for the generation and wait for it to return the round's marker."""
        p = self.plan
        gi = self.gi
        live = list(range(p.pages))  # ids whose current text has BASE_MARKER
        owner: dict[int, int] = {}  # id -> round whose marker it carries
        next_id = p.pages
        stream = QueryStream(self.corpus["words"], self.seed + 2_000_003)
        commits, visible = [], []
        by_cls: dict[str, list[float]] = defaultdict(list)
        written, rewritten = [], []
        for r in range(p.rounds):
            delta, marker = make_delta(
                self.seed, r, p.delta_pages, live + sorted(owner), next_id
            )
            ids = _ids(delta)
            next_id += int((ids >= next_id).sum())
            queries = stream.take(p.round_queries)
            delta_bytes = sum(len(s.encode()) for s in delta["text"].to_pylist())
            before = set(members(gi))
            self.attempted += 1
            with self.tracer.span("workload.round", root=True):
                t0 = time.perf_counter()
                with self.timed("index.incremental.update_documents"):
                    gi.update_documents(ray.data.from_arrow(delta), lineage=f"round-{r}")
                commit = time.perf_counter() - t0
                local = []
                t_local = time.perf_counter()
                for q in queries:
                    # a new searcher per query: each pays the first touch of
                    # the new generation, so its cost does not depend on
                    # which queries ran before it
                    searcher = Searcher(gi.open())
                    t1 = time.perf_counter()
                    local.append(self._local(searcher, q))
                    by_cls[q["cls"]].append((time.perf_counter() - t1) * 1000.0)
                t_local = time.perf_counter() - t_local
                with self.timed("state.score_pool.refresh"):
                    pool = ScorePool.for_generational(
                        gi, num_actors=NUM_ACTORS, num_shards=NUM_SHARDS
                    )
                with self.tracer.span("state.score_pool.search"):
                    got = pool.search(Q.Term(marker), limit=None)
                wall = time.perf_counter() - t0
            self.pool.shutdown()
            self.pool = pool
            commits.append(commit)
            visible.append(wall - t_local)
            replaced = set(ids.tolist())
            live = [i for i in live if i not in replaced]
            for i in replaced:
                owner[i] = r
            with self.untraced():
                err = self._check_round(
                    r, marker, ids, got, Searcher(gi.open()), pool, queries, local,
                    live, owner,
                )
            if err:
                self._fail(err)
            new = [m for m in members(gi) if m not in before]
            new_bytes = sum(dir_bytes(m) - dir_bytes(serving_dir_for(m)) for m in new)
            written.append(new_bytes / delta_bytes)
            rewritten.append(
                sum(Index(m).manifest["n_postings"] for m in new) - self._postings(delta)
            )
        self.layer["index.incremental.commit_s"] = float(np.median(commits))
        self.layer["state.score_pool.visible_s"] = float(np.median(visible))
        for c in CLASSES:
            self._median_layer(f"search.searcher.class.{c}.query_ms", by_cls[c])
        self.layer["index.incremental.members"] = float(len(members(gi)))
        self.layer["index.incremental.bytes_written_per_delta_byte"] = float(np.median(written))
        self.layer["index.merge.postings_rewritten"] = float(np.median(rewritten))

    def _postings(self, delta: pa.Table) -> int:
        """(doc, term) pairs of the delta: the postings its own segment adds."""
        doc_idx, codes, uniques, _pos, _fl = self.cfg.analyzer.analyze_batch_coded(
            delta["text"].to_pylist()
        )
        return int(len(np.unique(doc_idx.astype(np.int64) * len(uniques) + codes)))

    def _check_round(self, r, marker, ids, got, searcher, pool, queries, local,
                     live, owner) -> str | None:
        """The round's checks; returns the first failure, if any."""
        want = np.sort(ids)
        if not np.array_equal(np.sort(_ids(got)), want):
            return f"round {r}: pool marker docs differ from the delta"
        if not np.array_equal(np.sort(_ids(searcher.search(Q.Term(marker), limit=None))), want):
            return f"round {r}: local marker docs differ from the delta"
        # replaced pages must no longer match their old content
        base = np.asarray(sorted(live), np.uint64)
        for s in (searcher, None):
            t = (s.search(Q.Term(BASE_MARKER), limit=None) if s is not None
                 else pool.search(Q.Term(BASE_MARKER), limit=None))
            if not np.array_equal(np.sort(_ids(t)), base):
                return f"round {r}: replaced pages still match {BASE_MARKER}"
        for j in range(r):
            mine = np.asarray(sorted(i for i, o in owner.items() if o == j), np.uint64)
            t = searcher.search(Q.Term(f"zzmark{j}"), limit=None)
            if not np.array_equal(np.sort(_ids(t)), mine):
                return f"round {r}: replaced pages still match zzmark{j}"
        # the first query of each class goes through the pool too
        seen = set()
        for q, loc in zip(queries, local):
            if q["cls"] in seen:
                continue
            seen.add(q["cls"])
            res, _w, _s = self._query(pool, q)
            if not self._same(res, loc):
                return f"round {r}: pooled {q} differs from the local Searcher"
        return None

    # -- per-layer probes (traced runs only) -------------------------------

    def probes(self) -> None:
        """Layer metrics that need a call of their own: each is timed
        directly on the last cycle's index, outside any workload
        operation."""
        member = self.base
        t0 = time.perf_counter()
        extract_pages_text(
            ray.data.read_parquet(self.input_dir, columns=["doc_id", "html"])
        ).materialize()
        self.layer["ops.extract.wall_s"] = time.perf_counter() - t0

        sample = self.corpus["texts"]
        rates = []
        for _ in range(3):
            t0 = time.perf_counter()
            doc_idx, *_rest = self.cfg.analyzer.analyze_batch_coded(sample)
            rates.append(len(doc_idx) / (time.perf_counter() - t0))
        self.layer["analysis.tokens_per_s"] = float(np.median(rates))

        stream = QueryStream(self.corpus["words"], self.seed + 3_000_003)
        qs = [q for q in stream.take(140) if q["cls"] not in ("prefix", "wand")]
        parsed = [self.qp.parse(q["text"]) for q in qs]
        idx = Index(member)
        gstats = [idx.term_stats_many(stat_terms(q)) for q in parsed]
        srv = ScoreServer.remote(serving_dir_for(member), list(range(NUM_SHARDS)))
        try:
            ray.get(srv.ping.remote())
            self.layer["state.score_pool.pinned_mb"] = ray.get(srv.pinned_bytes.remote()) / 2**20
            c0 = ray.get(srv.cache_sizes.remote())["term_cache"]
            walls = []
            for q, g in zip(parsed, gstats):
                t0 = time.perf_counter()
                ray.get(srv.score.remote(q, TOP_K, g))
                walls.append(time.perf_counter() - t0)
            c1 = ray.get(srv.cache_sizes.remote())["term_cache"]
        finally:
            ray.kill(srv)
        self.layer["state.score_pool.actor_score_ms"] = float(np.median(walls) * 1000.0)
        self.layer["state.score_pool.term_cache_new_per_query"] = (c1 - c0) / len(parsed)

        walls = []
        for q in parsed[:50]:
            terms = stat_terms(q)
            fresh = Index(member)  # a new handle: nothing cached
            t0 = time.perf_counter()
            fresh.term_stats_many(terms)
            walls.append(time.perf_counter() - t0)
        self.layer["index.segment.term_stats_ms"] = float(np.median(walls) * 1000.0)

        walls, rows = [], []
        for w in self.corpus["words"][:: max(1, len(self.corpus["words"]) // 30)][:30]:
            s = Searcher(Index(member))
            t0 = time.perf_counter()
            s.expand(Q.Prefix(w[:3]))
            walls.append(time.perf_counter() - t0)
            rows.append(s.index.last_expand_stats["rows_read"])
        self.layer["index.segment.expand_ms"] = float(np.median(walls) * 1000.0)
        self.layer["index.segment.expand_rows_read"] = float(np.median(rows))

    def _drop(self, name: str, why: str) -> None:
        """A per-layer metric the traced run could not measure: it is
        printed as 0 and counted as a failed check, never passed off as a
        measurement."""
        self.dropped[name] = why
        self.layer[name] = 0.0
        self._fail(f"per-layer metric {name} not measured: {why}")

    def _median_layer(self, name: str, values: list[float], scale: float = 1.0) -> None:
        if values:
            self.layer[name] = float(np.median(values)) * scale
        else:
            self._drop(name, "no samples")

    def trace_layers(self) -> None:
        """Per-layer numbers from the direct timings, Ray Data's operator
        stats and the spans of the traced operations."""
        for metric, timed, scale in (
            ("index.build.heavy_probe_s", "index.build.heavy_probe", 1.0),
            ("index.build.wall_s", "index.build", 1.0),
            ("index.docshard.serving_build_s", "index.docshard", 1.0),
            ("state.score_pool.start_s", "state.score_pool.start", 1.0),
            ("state.score_pool.refresh_s", "state.score_pool.refresh", 1.0),
            ("search.qparser.parse_us", "search.qparser.parse", 1e6),
        ):
            self._median_layer(metric, self.times[timed], scale)
        n_traced = len(self.tracer.durations("index.build"))
        ops = self.rd_stats.totals("index.build")
        for stage in ("tokenize", "shuffle", "encode"):
            for kind in ("wall", "cpu"):
                key = f"{stage}.{kind}_s"
                if n_traced and key in ops:
                    self.layer[f"index.build.op.{key}"] = ops[key] / n_traced
                else:
                    self._drop(f"index.build.op.{key}",
                               f"no Ray Data stats for the {stage} operators "
                               f"in {n_traced} traced builds")
        self_s = self.tracer.self_times()
        total = sum(self_s.values())
        for layer in SHARE_LAYERS:
            if self_s.get(layer):
                self.layer[f"trace.self_share.{layer}"] = self_s[layer] / total
            else:
                self._drop(f"trace.self_share.{layer}", "no spans")
        on, off = self.cycle_walls[True], self.cycle_walls[False]
        if on and off:
            self.layer["trace.overhead_frac"] = float(np.median(on) / np.median(off) - 1.0)
        else:
            self._drop("trace.overhead_frac",
                       f"{len(on)} traced and {len(off)} untraced cycles")


def actor_peak_rss_mb() -> float:
    """Peak RSS (VmHWM) summed over the live ScoreServer actor processes."""
    total = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read().startswith(b"ray::ScoreServer"):
                    continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) * 1024
        except OSError:
            continue
    return total / 2**20
