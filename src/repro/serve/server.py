"""Thread-safe serving loop: admission control, result cache, metrics.

:class:`AnnotationServer` turns a :class:`~repro.serve.query.QueryEngine`
into a bounded-concurrency service:

- **Admission control.** Requests enter a bounded queue
  (``ServerConfig.queue_depth``). When the queue is full the request is
  *shed immediately* — the caller gets an explicit
  :data:`OVERLOADED` response (never an unbounded backlog, never a
  silent drop) and the shed is counted in the metrics. This is the
  standard load-shedding posture for a latency-sensitive read path:
  fail fast at the front door rather than queue into timeout territory.
- **Hot-result cache.** A TTL+LRU cache keyed by the canonical query
  fingerprint (:func:`~repro.serve.query.query_fingerprint`). Because
  queries are pure functions of the immutable snapshot, a cache hit is
  byte-identical to recomputation by construction; the TTL exists so a
  future hot-reload path can bound staleness, and the LRU bound caps
  memory.
- **Metrics.** Per-endpoint request/cache/shed counters ride on the same
  :class:`~repro._util.profiling.StageTimings` machinery the pipeline
  uses, plus per-endpoint latency reservoirs for p50/p95/p99. Latencies
  are measured submit→response, so queue wait is included — that is the
  latency a client actually observes.

Responses are plain frozen dataclasses; worker threads never share
mutable query state, and the index itself is read-only after build, so
any worker count serves byte-identical bodies.

Two scale-out extensions ride on the same loop:

- **Sharded serving.** With ``ServerConfig.shards > 1`` (or an
  already-partitioned :class:`~repro.serve.shard.ShardedSnapshot`) the
  server executes through the scatter-gather
  :class:`~repro.serve.shard.ShardedEngine` — byte-identical to a single
  index — and reports per-shard traffic in the metrics counters
  (``serve.shard.<i>.queries`` for routed lookups,
  ``serve.scatter.queries`` for fan-out classes).
- **Predicate-level caching.** An injectable ``predicate_cache`` keyed by
  ``(predicate fingerprint, evidence, snapshot fingerprint)`` lets
  predicate answers survive snapshot refreshes: pass the same cache
  object to the server built over the refreshed snapshot — unchanged
  content keeps hitting (``serve.predicate_cache.hit``/``.miss``
  counters), while any content change moves the key and forces a
  recompute.

**Fault seams.** The server exposes explicit, documented seams for the
chaos harness (:mod:`repro.serve.chaos`) rather than relying on
monkeypatching: a ``fault_injector`` hook object consulted on submit and
before each request is served (it may delay, corrupt the cache, skew the
clock, block, or raise :class:`WorkerCrash` to kill the worker
mid-request), a :meth:`ResultCache.corrupt` seam that poisons a stored
entry in place, and an injectable ``clock``. The seams are inert when no
injector is installed — the zero-fault path is byte-identical to a server
built without them. Two hardening behaviours back the chaos invariants:

- **Cache entries are digest-verified.** ``put`` stores a SHA-256 of the
  body alongside it; ``get`` recomputes and treats any mismatch as a miss
  (the entry is dropped and counted). A poisoned or partially-written
  entry can therefore never be returned — corruption is detected, not
  propagated.
- **The worker pool self-heals.** A worker that dies mid-request first
  resolves the in-flight future with an explicit ``InternalError``
  response (counted — the request terminates, never stalls), then a
  replacement worker is spawned so capacity recovers. ``stop()`` drains
  any request left behind by dead workers with an explicit
  ``ServerStopped`` error instead of abandoning its future.

**Live snapshot swap.** Everything derived from the served snapshot
(snapshot, shard set, engine, index, fingerprint) lives in one immutable
:class:`_Generation` object held in a single attribute.
:meth:`AnnotationServer.swap_snapshot` builds the next generation fully
off to the side (optionally reusing unchanged shard indexes from the old
one) and installs it with one attribute store — atomic under the GIL, so
no request ever observes a half-built index. Each request captures the
generation exactly once and serves entirely from that capture: in-flight
queries finish on the old index (the capture keeps it alive), new
arrivals see the new one. Hot-cache keys are prefixed with the
generation's fingerprint (and predicate-cache keys already embed it), so
entries from a superseded generation are structurally unreachable — no
flush, no stale byte.
"""

from __future__ import annotations

import hashlib
import math
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass

from repro._util.profiling import StageTimings
from repro.compliance.predicate import parse_predicate, predicate_fingerprint
from repro.errors import QueryError, ServeError
from repro.serve.query import (
    PredicateQuery,
    Query,
    query_fingerprint,
    query_kind,
)
from repro.serve.shard import ShardedEngine, ShardedSnapshot, \
    engine_for, partition_snapshot
from repro.serve.snapshot import CorpusSnapshot

#: Response statuses.
OK = "ok"
OVERLOADED = "overloaded"
ERROR = "error"


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs; the defaults suit tests and small corpora."""

    #: Worker threads draining the request queue.
    workers: int = 2
    #: Bounded queue depth; submissions beyond it are shed.
    queue_depth: int = 64
    #: Hot-result cache capacity (entries); 0 disables the cache.
    cache_entries: int = 256
    #: Seconds a cached result stays servable.
    cache_ttl_s: float = 300.0
    #: Per-endpoint latency samples kept for percentile computation;
    #: beyond this the counters still advance but samples are dropped,
    #: keeping long-running servers at bounded memory.
    max_latency_samples: int = 100_000
    #: Index shards; >1 partitions the snapshot by domain hash and serves
    #: through the scatter-gather :class:`~repro.serve.shard.ShardedEngine`
    #: (byte-identical to a single index). Ignored when the server is
    #: handed an already-partitioned ShardedSnapshot.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True)
class ServeResponse:
    """What a caller gets back for one query."""

    status: str  # OK | OVERLOADED | ERROR
    kind: str    # endpoint name ("domain", "filter", ...)
    body: str    # canonical JSON result (OK) or a one-line error message
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == OK


def _body_digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ResultCache:
    """Thread-safe TTL+LRU cache of serialized query results.

    ``clock`` is injectable so tests can advance time deterministically.
    Entries expire ``ttl_s`` after being stored; reads refresh LRU order
    but never the TTL (a hot entry still ages out, bounding staleness).

    Every body is stored with its SHA-256; ``get`` verifies it and treats
    a mismatch as a miss, dropping the entry and counting the rejection in
    ``corruption_rejections``. A poisoned or partially-written entry is
    therefore recomputed, never served.
    """

    def __init__(self, entries: int, ttl_s: float, clock=time.monotonic):
        self.entries = entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._data: OrderedDict[str, tuple[float, str, str]] = OrderedDict()
        #: Entries dropped because their stored digest no longer matched.
        self.corruption_rejections = 0

    def get(self, key: str) -> str | None:
        if self.entries <= 0:
            return None
        with self._lock:
            item = self._data.get(key)
            if item is None:
                return None
            stored_at, body, digest = item
            if self._clock() - stored_at >= self.ttl_s:
                del self._data[key]
                return None
            if _body_digest(body) != digest:
                del self._data[key]
                self.corruption_rejections += 1
                return None
            self._data.move_to_end(key)
            return body

    def put(self, key: str, body: str) -> None:
        if self.entries <= 0:
            return
        with self._lock:
            self._data[key] = (self._clock(), body, _body_digest(body))
            self._data.move_to_end(key)
            while len(self._data) > self.entries:
                self._data.popitem(last=False)

    def corrupt(self, key: str | None = None) -> str | None:
        """Fault-injection seam: flip one character of a stored body.

        The stored digest is deliberately left stale, modelling a poisoned
        or torn entry. With no ``key`` the most-recently-used entry is
        corrupted (the one a hot workload is most likely to re-read).
        Returns the corrupted key, or ``None`` if the cache is empty.
        Exists for :mod:`repro.serve.chaos`; the serving path never calls
        it.
        """
        with self._lock:
            if not self._data:
                return None
            if key is None:
                key = next(reversed(self._data))
            item = self._data.get(key)
            if item is None:
                return None
            stored_at, body, digest = item
            if not body:
                return None
            pos = len(body) // 2
            flipped = "X" if body[pos] != "X" else "Y"
            self._data[key] = (stored_at,
                               body[:pos] + flipped + body[pos + 1:],
                               digest)
            return key

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class ServeMetrics:
    """Per-endpoint counters + latency reservoirs, thread-safe."""

    def __init__(self, max_samples: int = 100_000):
        self.counters = StageTimings()
        self._max_samples = max_samples
        self._lock = threading.Lock()
        self._latencies: dict[str, list[float]] = {}

    def record(self, kind: str, status: str, cached: bool,
               latency_s: float) -> None:
        with self._lock:
            self.counters.increment(f"serve.{kind}.requests")
            self.counters.increment(f"serve.{kind}.{status}")
            if status == OK:
                self.counters.increment(
                    f"serve.{kind}.cache.{'hit' if cached else 'miss'}")
            bucket = self._latencies.setdefault(kind, [])
            if len(bucket) < self._max_samples:
                bucket.append(latency_s)

    def record_shed(self, kind: str) -> None:
        with self._lock:
            self.counters.increment(f"serve.{kind}.requests")
            self.counters.increment(f"serve.{kind}.shed")
            self.counters.increment("serve.shed")

    def increment(self, name: str, count: int = 1) -> None:
        """Thread-safe bump of an arbitrary counter (worker deaths etc.)."""
        with self._lock:
            self.counters.increment(name, count)

    # -- reads -----------------------------------------------------------

    def shed_count(self) -> int:
        return self.counters.count("serve.shed")

    def request_count(self, kind: str | None = None) -> int:
        counts = self.counters.counts()
        if kind is not None:
            return counts.get(f"serve.{kind}.requests", 0)
        return sum(count for name, count in counts.items()
                   if name.endswith(".requests"))

    def cache_hit_rate(self) -> float:
        counts = self.counters.counts()
        hits = sum(c for n, c in counts.items() if n.endswith("cache.hit"))
        misses = sum(c for n, c in counts.items()
                     if n.endswith("cache.miss"))
        total = hits + misses
        return hits / total if total else 0.0

    def latency_percentiles(self, kind: str | None = None
                            ) -> dict[str, float]:
        """p50/p95/p99 (seconds) for one endpoint or all traffic."""
        with self._lock:
            if kind is not None:
                samples = list(self._latencies.get(kind, ()))
            else:
                samples = [s for bucket in self._latencies.values()
                           for s in bucket]
        return {"p50": percentile(samples, 50.0),
                "p95": percentile(samples, 95.0),
                "p99": percentile(samples, 99.0)}

    def as_dict(self) -> dict:
        """JSON-ready metrics dump (counters + overall percentiles)."""
        return {
            "counters": dict(sorted(self.counters.counts().items())),
            "cache_hit_rate": round(self.cache_hit_rate(), 6),
            "shed": self.shed_count(),
            "latency_s": {name: round(value, 6) for name, value
                          in self.latency_percentiles().items()},
        }


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


_STOP = object()


@dataclass(frozen=True)
class _Generation:
    """One immutable snapshot generation: everything a request reads.

    Captured once per request so a mid-request swap can never mix
    old-index data with new-index data; the capture's references keep the
    old generation alive until its last in-flight request resolves.
    """

    snapshot: object          # CorpusSnapshot | ShardedSnapshot (as given)
    sharded: "ShardedSnapshot | None"
    engine: object            # QueryEngine | ShardedEngine
    index: object             # CorpusIndex | ShardedEngine (merged view)
    fingerprint: str


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`AnnotationServer.swap_snapshot` call did."""

    old_fingerprint: str
    new_fingerprint: str
    #: Shard indexes adopted from the old generation (content unchanged).
    shards_reused: int
    #: Shard indexes built fresh (0/1 totals for unsharded servers).
    shards_rebuilt: int
    #: Seconds spent building the new generation before the install.
    build_s: float = 0.0

    @property
    def changed(self) -> bool:
        return self.old_fingerprint != self.new_fingerprint

    def to_payload(self) -> dict:
        return {
            "old_fingerprint": self.old_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "changed": self.changed,
            "shards_reused": self.shards_reused,
            "shards_rebuilt": self.shards_rebuilt,
            "build_s": round(self.build_s, 6),
        }


def _build_generation(snapshot, config: ServerConfig,
                      reuse: _Generation | None = None) -> _Generation:
    """Assemble a generation off to the side; nothing is installed here.

    ``reuse`` (the outgoing generation) lets a sharded build adopt the
    old engine's indexes for shards whose content fingerprint is
    unchanged — the incremental-refresh fast path.
    """
    served = snapshot
    if not isinstance(snapshot, ShardedSnapshot) and config.shards > 1:
        served = partition_snapshot(snapshot, config.shards)
    reuse_engine = reuse.engine if reuse is not None \
        and isinstance(reuse.engine, ShardedEngine) else None
    engine = engine_for(served, reuse_from=reuse_engine)
    if isinstance(served, ShardedSnapshot):
        # The merged read view duck-types the single-index surface, so
        # loadgen/chaos consumers of ``server.index`` are oblivious to
        # sharding.
        return _Generation(snapshot=snapshot, sharded=served, engine=engine,
                           index=engine, fingerprint=served.fingerprint)
    return _Generation(snapshot=snapshot, sharded=None, engine=engine,
                       index=engine.index, fingerprint=snapshot.fingerprint)


class WorkerCrash(Exception):
    """Raised *by a fault injector* to kill a worker mid-request.

    The seam contract: the worker resolves the in-flight request with an
    explicit ``InternalError`` response (the request terminates, counted),
    then the thread dies and the pool spawns a replacement. Not part of
    the :class:`~repro.errors.ReproError` hierarchy on purpose — it is a
    control-flow signal between the injector and the worker loop, never
    an error surfaced to callers.
    """


class AnnotationServer:
    """A closed-loop, thread-pooled query server over one snapshot.

    ``fault_injector`` is the chaos seam: an object with ``on_submit(kind)``
    (called for every submission, admitted or shed) and
    ``before_serve(query, kind)`` (called by a worker just before the
    request is served; may sleep, skew the clock, poison the cache, block,
    or raise :class:`WorkerCrash`). ``None`` — the default — keeps the
    request path byte-identical to a seamless server.
    """

    def __init__(self, snapshot: "CorpusSnapshot | ShardedSnapshot",
                 config: ServerConfig | None = None,
                 clock=time.monotonic, fault_injector=None,
                 predicate_cache: ResultCache | None = None):
        self.config = config or ServerConfig()
        self._gen = _build_generation(snapshot, self.config)
        self.metrics = ServeMetrics(
            max_samples=self.config.max_latency_samples)
        self.cache = ResultCache(self.config.cache_entries,
                                 self.config.cache_ttl_s, clock=clock)
        #: Cross-snapshot predicate-result cache, keyed by
        #: ``(predicate fingerprint, evidence, snapshot fingerprint)``.
        #: Injectable so it outlives any one server: hand the same
        #: ResultCache to the server built over a refreshed snapshot and
        #: entries for unchanged content keep hitting, while a changed
        #: snapshot moves every key.
        self.predicate_cache = predicate_cache
        self._clock = clock
        self._injector = fault_injector
        self._queue: queue.Queue = queue.Queue(
            maxsize=self.config.queue_depth)
        self._threads: list[threading.Thread] = []
        self._started = False
        self._lifecycle = threading.Lock()
        self._worker_serial = 0

    # -- generation reads ------------------------------------------------
    # Every external read goes through the current generation; request
    # paths instead capture ``self._gen`` once and read only the capture.

    @property
    def snapshot(self):
        return self._gen.snapshot

    @property
    def sharded(self) -> "ShardedSnapshot | None":
        return self._gen.sharded

    @property
    def engine(self):
        return self._gen.engine

    @property
    def index(self):
        return self._gen.index

    @property
    def fingerprint(self) -> str:
        return self._gen.fingerprint

    def swap_snapshot(self, snapshot, *,
                      reuse_indexes: bool = True) -> SwapReport:
        """Atomically install a refreshed snapshot under load.

        The next generation (shard set, indexes, engine) is built
        entirely before the install, then published with one attribute
        store — atomic under the GIL. Requests already past their
        generation capture finish on the old index; requests arriving
        after the store serve from the new one; no request is dropped and
        none can observe a mix. Old hot-cache entries stay behind their
        old fingerprint prefix (structurally unreachable, evicted by
        TTL/LRU); the predicate cache needs no action because its keys
        already embed the snapshot fingerprint. ``reuse_indexes`` lets a
        sharded build adopt unchanged shard indexes from the old
        generation. Callable whether or not the server is started.
        """
        old = self._gen
        started = self._clock()
        new = _build_generation(snapshot, self.config,
                                reuse=old if reuse_indexes else None)
        build_s = self._clock() - started
        self._gen = new
        self.metrics.increment("serve.swap.count")
        if new.sharded is not None:
            reused = getattr(new.engine, "reused_shards", 0)
            rebuilt = len(new.sharded.shards) - reused
        else:
            reused, rebuilt = 0, 1
        self.metrics.increment("serve.swap.shards_reused", reused)
        self.metrics.increment("serve.swap.shards_rebuilt", rebuilt)
        return SwapReport(old_fingerprint=old.fingerprint,
                          new_fingerprint=new.fingerprint,
                          shards_reused=reused, shards_rebuilt=rebuilt,
                          build_s=build_s)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "AnnotationServer":
        with self._lifecycle:
            if self._started:
                raise ServeError("server already started")
            self._started = True
            for _ in range(self.config.workers):
                self._spawn_worker()
        return self

    def _spawn_worker(self) -> None:
        """Start one worker thread; caller holds ``_lifecycle``."""
        thread = threading.Thread(
            target=self._worker, daemon=True,
            name=f"serve-worker-{self._worker_serial}")
        self._worker_serial += 1
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        with self._lifecycle:
            if not self._started:
                return
            self._started = False
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(_STOP)  # sentinels bypass admission control
        for thread in threads:
            thread.join()
        with self._lifecycle:
            self._threads.clear()
        self._drain_pending()

    def _drain_pending(self) -> None:
        """Resolve anything left in the queue after the workers exited.

        Normally the queue is empty here: sentinels sit behind all
        admitted requests, so live workers drain them first. But a worker
        that died mid-shutdown leaves its sentinel (and possibly queued
        requests) behind; every such request gets an explicit
        ``ServerStopped`` error instead of a forever-pending future.
        """
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            query, kind, future, submitted_at = item
            if not self._claim(future):
                continue
            response = ServeResponse(
                status=ERROR, kind=kind,
                body="ServerStopped: request abandoned at shutdown")
            self.metrics.record(kind, ERROR, False,
                                self._clock() - submitted_at)
            future.set_result(response)

    def __enter__(self) -> "AnnotationServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ----------------------------------------------------

    def submit(self, query: Query) -> "Future[ServeResponse]":
        """Admit a query (or shed it); never blocks the caller.

        Raises a typed :class:`~repro.errors.ServeError` when the server
        is not running (never started, or already stopped) — a dead future
        that would never resolve is worse than an immediate error.
        """
        if not self._started:
            raise ServeError("server not started; use `with server:` or "
                             "call start()")
        kind = query_kind(query)
        if self._injector is not None:
            self._injector.on_submit(kind)
        future: Future = Future()
        try:
            self._queue.put_nowait((query, kind, future, self._clock()))
        except queue.Full:
            self.metrics.record_shed(kind)
            future.set_result(ServeResponse(
                status=OVERLOADED, kind=kind,
                body="ServiceOverloaded: request queue full, retry later"))
        return future

    def request(self, query: Query) -> ServeResponse:
        """Submit and wait — the closed-loop client call."""
        return self.submit(query).result()

    # -- worker loop -----------------------------------------------------

    def _worker(self) -> None:
        crashed = False
        try:
            while True:
                item = self._queue.get()
                if item is _STOP:
                    return
                query, kind, future, submitted_at = item
                if not self._claim(future):
                    continue
                try:
                    if self._injector is not None:
                        self._injector.before_serve(query, kind)
                    response = self._serve_one(query, kind)
                except WorkerCrash as exc:
                    response = ServeResponse(
                        status=ERROR, kind=kind,
                        body=f"InternalError: {exc}")
                    crashed = True
                except Exception as exc:
                    # Defensive: an engine/injector bug must answer the
                    # request and keep the worker alive, not strand the
                    # future.
                    response = ServeResponse(
                        status=ERROR, kind=kind,
                        body=f"InternalError: "
                             f"{type(exc).__name__}: {exc}")
                latency = self._clock() - submitted_at
                self.metrics.record(kind, response.status, response.cached,
                                    latency)
                future.set_result(response)
                if crashed:
                    return
        finally:
            if crashed:
                self._respawn(threading.current_thread())

    def _claim(self, future: Future) -> bool:
        """Mark a dequeued request running, so it can no longer be
        cancelled and ``set_result`` cannot raise and kill the worker;
        ``False`` (counted in ``serve.cancelled``) if its caller cancelled
        it while it was queued."""
        if future.set_running_or_notify_cancel():
            return True
        self.metrics.increment("serve.cancelled")
        return False

    def _respawn(self, dead_thread: threading.Thread) -> None:
        """Replace a worker that died mid-request (self-healing pool)."""
        with self._lifecycle:
            if not self._started:
                return  # shutting down; stop() handles the leftovers
            self.metrics.increment("serve.worker.deaths")
            self.metrics.increment("serve.worker.respawns")
            try:
                self._threads.remove(dead_thread)
            except ValueError:
                pass
            self._spawn_worker()

    def try_cached(self, query: Query) -> ServeResponse | None:
        """Inline cache-hit fast path: serve a hit without a queue trip.

        The asyncio front end calls this on the event loop — a hit is
        byte-verified and recorded like any served request, a miss (or a
        malformed query) returns ``None`` so the caller falls back to
        :meth:`submit`. Front ends must skip this path when a fault
        injector is installed (:attr:`fault_injector`), so chaos seams
        still see every request.
        """
        if not self._started:
            raise ServeError("server not started; use `with server:` or "
                             "call start()")
        gen = self._gen
        try:
            key = f"{gen.fingerprint}:{query_fingerprint(query)}"
        except QueryError:
            return None
        body = self.cache.get(key)
        if body is None:
            return None
        kind = query_kind(query)
        self._record_shard(gen, query)
        response = ServeResponse(status=OK, kind=kind, body=body,
                                 cached=True)
        self.metrics.record(kind, OK, True, 0.0)
        return response

    @property
    def fault_injector(self):
        return self._injector

    def _record_shard(self, gen: _Generation, query: Query) -> None:
        """Per-shard accounting: routed queries count against their
        shard, fan-out queries against the scatter path."""
        if gen.sharded is None:
            return
        shard = gen.engine.route(query)
        if shard is None:
            self.metrics.increment("serve.scatter.queries")
        else:
            self.metrics.increment(f"serve.shard.{shard}.queries")

    @staticmethod
    def _predicate_key(gen: _Generation, query: PredicateQuery) -> str:
        pred = parse_predicate(query.predicate)
        evidence = "evidence" if query.evidence else "domains"
        return f"{predicate_fingerprint(pred)}:{evidence}:{gen.fingerprint}"

    def _serve_one(self, query: Query, kind: str) -> ServeResponse:
        # The one generation capture for this request: every read below
        # goes through ``gen``, so a swap landing mid-request changes
        # nothing this request observes.
        gen = self._gen
        try:
            # A malformed query (e.g. an unparseable predicate string)
            # fails fingerprinting with the same QueryError message the
            # engine's validation would raise; answer it as a clean
            # query error, not an InternalError.
            key = f"{gen.fingerprint}:{query_fingerprint(query)}"
        except QueryError as exc:
            return ServeResponse(status=ERROR, kind=kind, body=str(exc))
        self._record_shard(gen, query)
        body = self.cache.get(key)
        if body is not None:
            return ServeResponse(status=OK, kind=kind, body=body,
                                 cached=True)
        pkey = None
        if self.predicate_cache is not None \
                and isinstance(query, PredicateQuery):
            pkey = self._predicate_key(gen, query)
            body = self.predicate_cache.get(pkey)
            if body is not None:
                self.metrics.increment("serve.predicate_cache.hit")
                self.cache.put(key, body)
                return ServeResponse(status=OK, kind=kind, body=body,
                                     cached=True)
            self.metrics.increment("serve.predicate_cache.miss")
        try:
            body = gen.engine.execute(query).to_json()
        except QueryError as exc:
            return ServeResponse(status=ERROR, kind=kind, body=str(exc))
        self.cache.put(key, body)
        if pkey is not None:
            self.predicate_cache.put(pkey, body)
        return ServeResponse(status=OK, kind=kind, body=body)


__all__ = [
    "ERROR",
    "OK",
    "OVERLOADED",
    "AnnotationServer",
    "ResultCache",
    "ServeMetrics",
    "ServeResponse",
    "ServerConfig",
    "SwapReport",
    "WorkerCrash",
    "percentile",
]
