"""Span recorder and the layer boundaries the traced run wraps.

The recorder lives here, in the benchmark, and never inside the program:
:func:`instrument` swaps each public function or method listed in
:func:`_boundaries` for a wrapper that opens a span around the call, and
puts the originals back on exit. Spans record name, start, end, parent,
request id, wall time and thread-CPU time. A layer's self time is its
span's time minus the time of the spans opened inside it; those are
summed per name as the run goes, and the raw spans are kept in memory
and written once, at exit.

The current span is a context variable, so the two asyncio client tasks
and the server's worker threads each keep their own span stack.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

_now = time.perf_counter_ns
_cpu = time.thread_time_ns

#: Span names whose every call is summed but not kept one by one: they
#: fire tens of thousands of times per run.
AGGREGATED = frozenset({
    "verify", "server.cache_get", "server.cache_put", "server.metrics",
    "query.fingerprint", "query.serialize", "index.compliance",
})


class _Span:
    __slots__ = ("sid", "name", "parent", "rid", "start", "cpu0",
                 "child_wall", "child_cpu", "gap")

    def __init__(self, sid, name, parent, rid):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.child_wall = 0
        self.child_cpu = 0
        #: Open await gap of an async span: (wall, cpu) when it started.
        self.gap = None
        self.start = _now()
        self.cpu0 = _cpu()


class Recorder:
    """Collects spans and counts in memory; thread- and task-safe."""

    def __init__(self, keep: int = 100_000):
        self._current = contextvars.ContextVar("e2ebench_span", default=None)
        self._rid = contextvars.ContextVar("e2ebench_rid", default=None)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._keep = keep
        self._rid_by_query: dict[int, int] = {}
        self._threads: dict[int, str] = {}
        #: name -> [calls, wall_ns, self_wall_ns, cpu_ns, self_cpu_ns]
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        #: Await gaps of async spans (wall ns): a miss waiting on a worker.
        self.await_ns = 0
        #: Wall ns of top-level spans opened on threads other than the
        #: one that created the recorder (the server's workers).
        self.worker_root_ns = 0
        self._home = threading.get_ident()

    # -- request ids -------------------------------------------------------

    def bind_request(self, rid: int, query) -> None:
        """Tag the calling task's spans, and the worker spans that later
        receive ``query``, with request id ``rid``."""
        self._rid.set(rid)
        self._rid_by_query[id(query)] = rid

    def adopt_request(self, query) -> None:
        """On a worker thread: take the request id bound to ``query``."""
        rid = self._rid_by_query.get(id(query))
        if rid is not None:
            self._rid.set(rid)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> tuple:
        parent = self._current.get()
        if parent is not None and parent.gap is not None:
            self._close_gap(parent)
        span = _Span(next(self._ids), name, parent, self._rid.get())
        return span, self._current.set(span)

    def end(self, opened: tuple) -> None:
        span, token = opened
        end = _now()
        wall = end - span.start
        cpu = _cpu() - span.cpu0
        if span.gap is not None:
            self._close_gap(span, end)
        self._current.reset(token)
        parent = span.parent
        if parent is not None:
            parent.child_wall += wall
            parent.child_cpu += cpu
        ident = threading.get_ident()
        with self._lock:
            row = self.totals.get(span.name)
            if row is None:
                row = self.totals[span.name] = [0, 0, 0, 0, 0]
            row[0] += 1
            row[1] += wall
            row[2] += wall - span.child_wall
            row[3] += cpu
            row[4] += cpu - span.child_cpu
            if parent is None and ident != self._home:
                self.worker_root_ns += wall
            if span.name in AGGREGATED:
                return
            if len(self.spans) >= self._keep:
                self.dropped += 1
                return
            self._threads.setdefault(ident, threading.current_thread().name)
            self.spans.append((
                span.sid, span.name,
                parent.sid if parent is not None else None, span.rid,
                span.start, end, wall, cpu, ident))

    def open_gap(self) -> None:
        """Mark the current (async) span as waiting from now on: the wait
        ends at its next child span or at its end, and is not self time."""
        span = self._current.get()
        if span is not None:
            span.gap = (_now(), _cpu())

    def _close_gap(self, span: _Span, end: int | None = None) -> None:
        started, cpu0 = span.gap
        span.gap = None
        wall = (end if end is not None else _now()) - started
        span.child_wall += wall
        span.child_cpu += _cpu() - cpu0
        with self._lock:
            self.await_ns += wall

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # -- reads -------------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals) / 1e6

    def self_cpu_ms(self, *names: str) -> float:
        return sum(self.totals[n][4] for n in names if n in self.totals) / 1e6

    def calls(self, name: str) -> int:
        row = self.totals.get(name)
        return row[0] if row is not None else 0

    def write(self, path: Path) -> Path:
        """Write every kept span (one JSON object a line) plus the totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "totals": {name: dict(zip(("calls", "wall_ns", "self_ns",
                                           "cpu_ns", "self_cpu_ns"), row))
                           for name, row in sorted(self.totals.items())},
                "counts": dict(sorted(self.counts.items())),
                "aggregated": sorted(AGGREGATED),
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
                "threads": {str(k): v for k, v in self._threads.items()},
            }, sort_keys=True) + "\n")
            for sid, name, parent, rid, start, end, wall, cpu, ident \
                    in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "rid": rid,
                    "start_ns": start, "end_ns": end, "wall_ns": wall,
                    "cpu_ns": cpu, "thread": ident}) + "\n")
        return path


# -- wrappers ----------------------------------------------------------------


def _spanned(rec: Recorder, name, fn, after=None, before=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments.

    ``before(args)`` runs just before the span opens and
    ``after(args, result)`` just after it closes, so their bookkeeping is
    not layer time.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        opened = rec.begin(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(opened)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _counted(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result
    return wrapper


def _boundaries(rec: Recorder) -> list[tuple]:
    """``(owner, attribute, make_wrapper)`` for every traced boundary.

    Functions imported by name into another module are patched where the
    caller looks them up.
    """
    from repro.crawler.crawler import PrivacyCrawler
    from repro.ingest import refresh as refresh_mod
    from repro.ingest.scheduler import IngestScheduler
    from repro.pipeline import runner
    from repro.pipeline.cache import CacheKeys, PipelineCache
    from repro.pipeline.records import DomainAnnotations
    from repro.pipeline.verify import HallucinationVerifier
    from repro.serve import index as index_mod
    from repro.serve import server as server_mod
    from repro.serve import shard as shard_mod
    from repro.serve import snapshot as snapshot_mod
    from repro.serve.aserver import AsyncFrontEnd
    from repro.serve.query import (DomainLookup, QueryEngine, QueryResult,
                                   query_kind)
    from repro.serve.server import (AnnotationServer, ResultCache,
                                    ServeMetrics)
    from repro.web.browser import Browser

    count = rec.count
    in_refresh = contextvars.ContextVar("e2ebench_in_refresh", default=False)

    def fetch_counts(args, page):
        count("crawler.fetches")
        if not page.ok:
            count("crawler.fetch_failures")

    def dropped(args, pre):
        count("preprocess.pages_dropped", len(pre.dropped))

    def annotate(task):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(model, *args, **kwargs):
                usage = getattr(model, "usage", None)
                before = usage.calls if usage is not None else 0
                opened = rec.begin(f"annotate.{task}")
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    rec.end(opened)
                    if usage is not None:
                        count("annotate.chatbot_calls", usage.calls - before)
            return wrapper
        return wrap

    def rejected(args, ok):
        if not ok:
            count("verify.rejected")

    def hit_or_miss(args, entry):
        count("cache.hits" if entry is not None else "cache.misses")

    def execute_name(args):
        return f"query.execute.{query_kind(args[1])}"

    def adopt(args):
        rec.adopt_request(args[-1])

    def routed(args, result):
        count("shard.routed_queries" if isinstance(args[1], DomainLookup)
              else "shard.scatter_queries")

    def inline_hit(args, response):
        if response is not None:
            count("aserver.inline_hits")

    def submitted(args, future):
        rec.open_gap()

    def swapped(args, report):
        count("swap.shards_reused", report.shards_reused)
        count("swap.shards_rebuilt", report.shards_rebuilt)

    def round_counts(fn):
        @functools.wraps(fn)
        def wrapper(scheduler):
            annotated = scheduler.counters.count("ingest.annotated")
            opened = rec.begin("ingest.round")
            try:
                result = fn(scheduler)
            finally:
                rec.end(opened)
            count("ingest.checked", len(result.due))
            count("ingest.skipped", len(result.skipped))
            count("ingest.annotated",
                  scheduler.counters.count("ingest.annotated") - annotated)
            return result
        return wrapper

    def refresh_apply(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = in_refresh.set(True)
            opened = rec.begin("refresh.apply")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(opened)
                in_refresh.reset(token)
        return wrapper

    def serialized(fn):
        @functools.wraps(fn)
        def wrapper(self):
            if in_refresh.get():
                count("refresh.records_serialized")
            return fn(self)
        return wrapper

    def handle(fn):
        @functools.wraps(fn)
        async def wrapper(self, api_key, query):
            opened = rec.begin("aserver.handle")
            try:
                return await fn(self, api_key, query)
            finally:
                rec.end(opened)
        return wrapper

    def span(name, **hooks):
        return lambda fn: _spanned(rec, name, fn, **hooks)

    def counted(after):
        return lambda fn: _counted(fn, after)

    out = [
        (PrivacyCrawler, "crawl_domain", span("crawler")),
        (Browser, "goto", counted(fetch_counts)),
        (runner, "preprocess_crawl", span("preprocess", after=dropped)),
        (runner, "segment_policy", span("segmentation")),
        (runner, "annotate_types", annotate("types")),
        (runner, "annotate_purposes", annotate("purposes")),
        (runner, "annotate_handling", annotate("handling")),
        (runner, "annotate_rights", annotate("rights")),
        (HallucinationVerifier, "__init__", span("verify")),
        (HallucinationVerifier, "contains", span("verify", after=rejected)),
        (PipelineCache, "store_record", span("cache.store")),
        (PipelineCache, "store_crawl", span("cache.store")),
        (PipelineCache, "load_record", span("cache.load", after=hit_or_miss)),
        (PipelineCache, "load_crawl", span("cache.load", after=hit_or_miss)),
        (index_mod.CorpusIndex, "build", span("index.build")),
        (index_mod, "compile_record", span("index.compliance")),
        (index_mod, "pack_rows", span("index.compliance")),
        (shard_mod.ShardedEngine, "__init__", span("shard.engine_build")),
        (shard_mod.ShardedEngine, "execute",
         span(execute_name, before=adopt, after=routed)),
        (QueryEngine, "execute", span(execute_name, before=adopt)),
        (QueryResult, "to_json", span("query.serialize")),
        (server_mod, "query_fingerprint",
         span("query.fingerprint", before=adopt)),
        (ResultCache, "get", span("server.cache_get")),
        (ResultCache, "put", span("server.cache_put")),
        (ServeMetrics, "record", span("server.metrics")),
        (ServeMetrics, "record_shed", span("server.metrics")),
        (ServeMetrics, "increment", span("server.metrics")),
        (AnnotationServer, "try_cached", counted(inline_hit)),
        (AnnotationServer, "submit", counted(submitted)),
        (AnnotationServer, "swap_snapshot", span("swap", after=swapped)),
        (AsyncFrontEnd, "handle", handle),
        (IngestScheduler, "run_round", round_counts),
        (CacheKeys, "refresh_domain", span("ingest.fingerprint")),
        (refresh_mod, "apply_patches_sharded", refresh_apply),
        (refresh_mod, "verify_sharded", span("refresh.verify")),
        (DomainAnnotations, "to_json", serialized),
    ]
    for module in (snapshot_mod, shard_mod, refresh_mod):
        out.append((module, "build_snapshot", span("snapshot.build")))
        out.append((module, "snapshot_fingerprint",
                    span("snapshot.fingerprint")))
    return out


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Install every boundary wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _boundaries(rec):
            raw = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- per-layer metrics --------------------------------------------------------

#: Query kinds, in the order the per-layer execute metrics are listed.
KINDS = ("domain", "filter", "sector", "top-descriptors", "aspect", "table",
         "predicate", "compliance")

#: Read-path spans, which report self time as wall time and as
#: thread-CPU time: (wall metric, CPU metric, span name).
READ_PATH = (
    ("aserver.handle_self_ms", "aserver.handle_self_cpu_ms",
     "aserver.handle"),
    ("server.cache_get_ms", "server.cache_get_cpu_ms", "server.cache_get"),
    ("server.cache_put_ms", "server.cache_put_cpu_ms", "server.cache_put"),
    ("server.metrics_ms", "server.metrics_cpu_ms", "server.metrics"),
    ("query.fingerprint_ms", "query.fingerprint_cpu_ms",
     "query.fingerprint"),
    *((f"query.execute_ms.{k}", f"query.execute_cpu_ms.{k}",
       f"query.execute.{k}") for k in KINDS),
    ("query.serialize_ms", "query.serialize_cpu_ms", "query.serialize"),
)


def layer_metrics(rec: Recorder, reads: int, hits: int,
                  shed: int, bytes_written: int) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``reads``/``hits``/``shed`` come from the client side (responses seen)
    and ``bytes_written`` from the pipeline cache directories.
    """
    ms, c = rec.self_ms, rec.counts.get
    wait_ms = max(0.0, (rec.await_ns - rec.worker_root_ns) / 1e6)
    out = {
        "crawler.self_ms": (ms("crawler"), "ms"),
        "crawler.fetches": (c("crawler.fetches", 0), "count"),
        "crawler.fetch_failures": (c("crawler.fetch_failures", 0), "count"),
        "preprocess.self_ms": (ms("preprocess"), "ms"),
        "preprocess.pages_dropped": (c("preprocess.pages_dropped", 0),
                                     "count"),
        "segmentation.self_ms": (ms("segmentation"), "ms"),
        "annotate.types_ms": (ms("annotate.types"), "ms"),
        "annotate.purposes_ms": (ms("annotate.purposes"), "ms"),
        "annotate.handling_ms": (ms("annotate.handling"), "ms"),
        "annotate.rights_ms": (ms("annotate.rights"), "ms"),
        "annotate.chatbot_calls": (c("annotate.chatbot_calls", 0), "count"),
        "verify.self_ms": (ms("verify"), "ms"),
        "verify.rejected": (c("verify.rejected", 0), "count"),
        "cache.store_ms": (ms("cache.store"), "ms"),
        "cache.load_ms": (ms("cache.load"), "ms"),
        "cache.bytes_written": (bytes_written, "B"),
        "cache.hits": (c("cache.hits", 0), "count"),
        "cache.misses": (c("cache.misses", 0), "count"),
        "snapshot.build_ms": (ms("snapshot.build"), "ms"),
        "snapshot.fingerprint_ms": (ms("snapshot.fingerprint"), "ms"),
        "snapshot.fingerprint_calls": (rec.calls("snapshot.fingerprint"),
                                       "count"),
        "index.build_self_ms": (ms("index.build"), "ms"),
        "index.compliance_ms": (ms("index.compliance"), "ms"),
        "shard.engine_build_ms": (ms("shard.engine_build"), "ms"),
        "shard.routed_queries": (c("shard.routed_queries", 0), "count"),
        "shard.scatter_queries": (c("shard.scatter_queries", 0), "count"),
        "aserver.inline_hits": (c("aserver.inline_hits", 0), "count"),
        "server.wait_ms": (wait_ms, "ms"),
        "server.hit_ratio": (hits / reads if reads else 0.0, "ratio"),
        "server.shed": (shed, "count"),
        "query.fingerprint_calls": (rec.calls("query.fingerprint"), "count"),
        "ingest.round_self_ms": (ms("ingest.round"), "ms"),
        "ingest.fingerprint_ms": (ms("ingest.fingerprint"), "ms"),
        "ingest.checked": (c("ingest.checked", 0), "count"),
        "ingest.skipped": (c("ingest.skipped", 0), "count"),
        "ingest.annotated": (c("ingest.annotated", 0), "count"),
        "refresh.apply_self_ms": (ms("refresh.apply"), "ms"),
        "refresh.verify_ms": (ms("refresh.verify"), "ms"),
        "refresh.records_serialized": (c("refresh.records_serialized", 0),
                                       "count"),
        "swap.self_ms": (ms("swap"), "ms"),
        "swap.shards_reused": (c("swap.shards_reused", 0), "count"),
        "swap.shards_rebuilt": (c("swap.shards_rebuilt", 0), "count"),
    }
    for wall, cpu, name in READ_PATH:
        out[wall] = (ms(name), "ms")
        out[cpu] = (rec.self_cpu_ms(name), "ms")
    return out
