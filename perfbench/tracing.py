"""Spans, Ray Data per-operator stats and host context for the benchmark.

Everything here lives in the benchmark: spans wrap calls into the
library's public functions from the outside, and nothing is recorded
inside ``whoosh_novo_ray``.
"""

from __future__ import annotations

import json
import logging
import re
import time

# Layer names are the library's module names. A span belongs to the
# longest layer that prefixes its name; root spans (one per benchmark
# operation) belong to "workload".
LAYERS = (
    "ops.extract",
    "analysis",
    "index.build",
    "index.docshard",
    "index.segment",
    "index.incremental",
    "search.qparser",
    "search.searcher",
    "search.wand",
    "state.score_pool",
)


# Layers whose calls the benchmark wraps in spans of their own, plus the
# benchmark's own time between them. The other layers run inside these
# calls and are measured by direct probes instead.
SHARE_LAYERS = (
    "workload",
    "ops.extract",
    "index.build",
    "index.docshard",
    "index.incremental",
    "search.qparser",
    "search.searcher",
    "search.wand",
    "state.score_pool",
)


def layer_of(name: str) -> str:
    best = "workload"
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best


class _Span:
    __slots__ = ("tracer", "name", "root", "idx")

    def __init__(self, tracer: "Tracer", name: str, root: bool):
        self.tracer = tracer
        self.name = name
        self.root = root

    def __enter__(self):
        t = self.tracer
        if self.root:
            t.request += 1
        parent = t.stack[-1] if t.stack else None
        self.idx = len(t.spans)
        t.spans.append(
            {
                "name": self.name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "request": t.request,
            }
        )
        t.stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx]["end"] = time.perf_counter()
        t.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span recorder. ``on`` can be flipped between operations,
    so one run can interleave traced and untraced operations."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.request = 0

    def span(self, name: str, root: bool = False):
        return _Span(self, name, root) if self.on else _NO_SPAN

    def current(self) -> str | None:
        return self.spans[self.stack[-1]]["name"] if self.stack else None

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: each span's duration minus the time its
        child spans cover (children run one at a time on the driver)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = layer_of(s["name"])
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"] - c)
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra}, f)


# -- Ray Data per-operator stats ---------------------------------------------

_HEADER = re.compile(r"^\s*(?:Sub)?[Oo]perator \d+ (.+?): ")
_TIME = re.compile(r"^\s*\* Remote (wall|cpu) time: .*?([\d.]+)(us|ms|s) total")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_op_stats(text: str) -> list[tuple[str, str, float]]:
    """(operator name, "wall"|"cpu", total seconds) rows from a Ray Data
    stats summary."""
    rows = []
    op = None
    for line in text.splitlines():
        m = _HEADER.match(line)
        if m:
            op = m.group(1)
            continue
        m = _TIME.match(line)
        if m and op is not None:
            rows.append((op, m.group(1), float(m.group(2)) * _SCALE[m.group(3)]))
    return rows


def op_kind(op: str) -> str | None:
    """Which build stage a Ray Data operator belongs to."""
    if "encode_group" in op:
        return "encode"
    if "TokenizePostings" in op:
        return "tokenize"
    if any(k in op for k in ("Sort", "Shuffle", "Aggregate", "Repartition")):
        return "shuffle"
    return None


class RayDataStats(logging.Handler):
    """Collects Ray Data's own per-operator stats while tracing.

    ``DataContext.enable_auto_log_stats`` makes Ray Data log a stats summary
    when each execution finishes, on the thread that consumed it, so the
    tracer's innermost open span is the layer call that ran it. Ray logs
    only the last operator of the chain; while capturing, the summary is
    rendered with its parent operators too."""

    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.INFO)
        self.tracer = tracer
        # (span name, operator, "wall"|"cpu", seconds)
        self.rows: list[tuple[str, str, str, float]] = []
        self._orig = None

    def emit(self, record: logging.LogRecord) -> None:
        span = self.tracer.current()
        if span is None or not self.tracer.on:
            return
        for op, kind, secs in parse_op_stats(record.getMessage()):
            self.rows.append((span, op, kind, secs))

    def set_active(self, active: bool) -> None:
        from ray.data import DataContext
        from ray.data._internal import stats as rd_stats

        DataContext.get_current().enable_auto_log_stats = active
        logging.getLogger("ray.data").setLevel(logging.INFO if active else logging.ERROR)
        cls = rd_stats.DatasetStatsSummary
        if active and self._orig is None:
            self._orig = cls.to_string

            def to_string(summary, already_printed=None, include_parent=True,
                          add_global_stats=True, _orig=self._orig):
                return _orig(summary, already_printed, True, add_global_stats)

            cls.to_string = to_string
        elif not active and self._orig is not None:
            cls.to_string = self._orig
            self._orig = None

    def totals(self, span: str) -> dict[str, float]:
        """``<stage>.<wall|cpu>_s`` summed over the operators run inside
        spans named ``span``."""
        out: dict[str, float] = {}
        for s, op, kind, secs in self.rows:
            stage = op_kind(op)
            if s == span and stage is not None:
                key = f"{stage}.{kind}_s"
                out[key] = out.get(key, 0.0) + secs
        return out


# -- host context -------------------------------------------------------------


def cpu_counters() -> tuple[float, float, float]:
    """(total, busy, steal) CPU-seconds since boot from /proc/stat."""
    import os

    hz = os.sysconf("SC_CLK_TCK")
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user/nice
    total = sum(v[:8])
    busy = v[0] + v[1] + v[2] + v[5] + v[6]
    return total / hz, busy / hz, v[7] / hz


def host_context(c0: tuple, c1: tuple) -> dict:
    total = c1[0] - c0[0]
    return {
        "steal_pct": round(100.0 * (c1[2] - c0[2]) / total, 2) if total > 0 else 0.0,
        "busy_cpu_s": round(c1[1] - c0[1], 3),
    }


def process_cpu() -> dict[int, tuple[int, float, float]]:
    """{pid: (start time, CPU-seconds, work CPU-seconds)} for this process
    and its descendants (Ray's GCS, raylet, agents, workers and actors).
    The CPU-seconds are the kernel's user + system ticks; the work
    CPU-seconds count only this process and Ray's workers and actors (the
    ``ray::`` processes), from the scheduler's own run time, which leaves
    out time the hypervisor stole and time spent waiting for a CPU."""
    import os

    me = os.getpid()
    hz = os.sysconf("SC_CLK_TCK")
    parent: dict[int, int] = {}
    info: dict[int, tuple[int, float, float]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        pid = int(name)
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                work = pid == me or f.read(5) == b"ray::"
            if work:
                with open(f"/proc/{name}/schedstat") as f:
                    run_s = int(f.read().split()[0]) / 1e9
        except OSError:
            continue
        # fields after "(comm)": state ppid ... utime stime ... starttime
        fields = stat[stat.rindex(")") + 2:].split()
        parent[pid] = int(fields[1])
        ticks = (int(fields[11]) + int(fields[12])) / hz
        info[pid] = (int(fields[19]), ticks, run_s if work else 0.0)
    out = {}
    for pid, v in info.items():
        p = pid
        while p and p != me:
            p = parent.get(p, 0)
        if p == me:
            out[pid] = v
    return out


def cpu_used_since(before: dict) -> tuple[float, float]:
    """(CPU-seconds, work CPU-seconds) the process tree used since
    ``before`` was taken, by the processes alive now (one that ended in
    between loses its last part)."""
    total = work = 0.0
    for pid, (start, ticks, run_s) in process_cpu().items():
        b = before.get(pid)
        if b is not None and b[0] == start:
            ticks -= b[1]
            run_s -= b[2]
        total += ticks
        work += run_s
    return total, work


class Window:
    """Wall time of a stretch of benchmark work, the CPU time the
    benchmark's work processes spent on it, and how much the rest of the
    host interfered with it: the CPU-seconds the hypervisor stole plus
    those other processes on the machine used, as a share of all the
    machine's CPU-seconds in that stretch. ``samples`` holds the
    per-operation walls measured inside it."""

    def __init__(self) -> None:
        self.samples: list[tuple[str, float]] = []

    def __enter__(self):
        self._c0 = cpu_counters()
        self._own0 = process_cpu()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        c1 = cpu_counters()
        own, self.cpu = cpu_used_since(self._own0)
        total, busy, steal = (b - a for a, b in zip(self._c0, c1))
        others = max(0.0, busy - own)
        self.interference = (steal + others) / total if total > 0 else 0.0
        return False


def scoring_actor_pids() -> set[int]:
    """Pids of the live ScoreServer actor processes."""
    import os

    out = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::ScoreServer"):
                    out.add(int(name))
        except OSError:
            continue
    return out


class ScoringCpu:
    """Run time of the scoring actors' main threads, which run their
    tasks, from the scheduler (stolen time and waits for a CPU left out)."""

    def __init__(self, pids: set[int]):
        self.paths = [f"/proc/{p}/task/{p}/schedstat" for p in sorted(pids)]

    def actors(self) -> float:
        ns = 0
        for path in self.paths:
            with open(path) as f:
                ns += int(f.read().split()[0])
        return ns / 1e9


def quietest(windows: list, n: int) -> list:
    """The ``n`` windows the host interfered with least."""
    return sorted(windows, key=lambda w: w.interference)[:n]
