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
- **Hot-result cache.** A TTL+LRU cache keyed by the content id of the
  records an answer reads plus the canonical query fingerprint
  (:func:`~repro.serve.query.query_fingerprint`, computed once per query
  object, so the asyncio fast path, the worker and the engine share one
  parse and one hash). :func:`~repro.serve.query.query_scope` names those
  records: a domain lookup reads its record, keyed by the record's
  digest; a sector-scoped query reads its sector, keyed by the sector's
  digest; anything else reads the corpus, keyed by the snapshot
  fingerprint. Because an answer is a pure function of the records it
  reads, a cache hit is byte-identical to recomputation by construction;
  the TTL bounds how long an entry is kept, and the LRU bound caps
  memory.
- **Metrics.** Per-endpoint request/cache/shed counters ride on the same
  :class:`~repro._util.profiling.StageTimings` machinery the pipeline
  uses, plus per-endpoint latency reservoirs for p50/p95/p99. Latencies
  are measured submit→response, so queue wait is included — that is the
  latency a client actually observes.

Responses are plain frozen dataclasses; worker threads never share
mutable query state, and the index itself is read-only after build, so
any worker count serves byte-identical bodies.

**Sharded serving.** With ``ServerConfig.shards > 1`` (or an
already-partitioned :class:`~repro.serve.shard.ShardedSnapshot`, which
is the snapshot it was cut from plus its shards) the server executes
through :class:`~repro.serve.shard.ShardedEngine`, whose index is the one
``CorpusIndex`` of the snapshot's records, so ``server.index`` is a
``CorpusIndex`` either way and shards are only a storage layout.
:func:`_build_generation` is the one place that picks the engine class;
the shards add only counters. It counts each domain lookup against the
shard that holds its domain (``serve.shard.<i>.queries``) and each
swap's reused and rebuilt shards; every other kind reads the one index,
and its ``serve.<kind>.requests`` already counts it.

**Fault seams.** The server exposes explicit, documented seams for the
chaos harness (:mod:`repro.serve.chaos`) rather than relying on
monkeypatching: a ``fault_injector`` hook object consulted on submit and
before each request is served (it may delay, corrupt the cache, skew the
clock, block, or raise :class:`WorkerCrash` to kill the worker
mid-request), a :meth:`ResultCache.corrupt` seam that poisons a stored
entry in place, and an injectable ``clock``. The seams are inert when no
injector is installed — the zero-fault path is byte-identical to a server
built without them. Two hardening behaviours back the chaos invariants:

- **Cache entries are checksummed.** ``put`` stores a CRC-32 of the
  body's Latin-1 encoding, or of its UTF-8 encoding when Latin-1 cannot
  encode it, alongside it with the encoding used; ``get`` recomputes it
  over every byte it serves and treats any mismatch as a miss (the entry
  is dropped and counted). CRC-32 detects every error burst of up to 32
  bits: in a Latin-1 body any one changed character (8 bits), in a UTF-8
  one any one changed character that keeps the UTF-8 length (at most 4
  adjacent bytes), and a change that moves a body between the two
  encodings is rejected outright; any other change escapes with
  probability 2**-32. A poisoned or partially-written entry is therefore
  detected, not propagated. The cache is in-process, so whatever could
  rewrite an entry could rewrite its checksum too: a cryptographic
  digest would buy no security here.
- **The worker pool self-heals.** A worker that dies mid-request first
  resolves the in-flight future with an explicit ``InternalError``
  response (counted — the request terminates, never stalls), then a
  replacement worker is spawned so capacity recovers. ``stop()`` drains
  any request left behind by dead workers with an explicit
  ``ServerStopped`` error instead of abandoning its future.

**Live snapshot swap.** Everything derived from the served snapshot
(snapshot, shard set, engine and its index, fingerprint) lives in one
immutable :class:`_Generation` object held in a single attribute.
:meth:`AnnotationServer.swap_snapshot` builds the next generation fully
off to the side (its index patched, copy-on-write, from the old one's
with only the records that changed) and installs it with one attribute
store — atomic under the GIL, so no
request ever observes a half-built index. Each request captures the
generation exactly once and serves entirely from that capture: in-flight
queries finish on the old index (the capture keeps it alive), new
arrivals see the new one. Nothing else refers to a replaced generation,
so it is freed when its last in-flight request finishes. A hot-cache
key is built from the captured generation alone (:func:`_cache_key`):
an entry is reachable exactly while the records its answer read are the
ones served, so a swap keeps every answer it did not change hitting —
no flush, no stale byte — and an entry over changed records is
structurally unreachable until TTL/LRU evicts it.
"""

from __future__ import annotations

import math
import queue
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass

from repro._util.profiling import StageTimings
from repro.errors import QueryError, ServeError
from repro.serve.index import CorpusIndex
from repro.serve.query import RECORD, Query, QueryEngine, \
    query_fingerprint, query_kind, query_scope
from repro.serve.shard import ShardedEngine, ShardedSnapshot, \
    partition_snapshot
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
    #: it through :class:`~repro.serve.shard.ShardedEngine`, over one
    #: index of the snapshot's records (byte-identical to the unsharded
    #: server; the shards only lay out storage and count routed reads).
    #: Ignored when the server is handed an already-partitioned
    #: ShardedSnapshot.
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


def _body_digest(body: str) -> tuple[bool, int]:
    """Whether ``body`` is checked as Latin-1 (else as UTF-8), and the
    CRC-32 of those bytes. A Latin-1 string is stored one byte per
    character, so its Latin-1 encoding is a copy; every ASCII body takes
    this path too."""
    try:
        return True, zlib.crc32(body.encode("latin-1"))
    except UnicodeEncodeError:
        return False, zlib.crc32(body.encode("utf-8"))


class ResultCache:
    """Thread-safe TTL+LRU cache of serialized query results.

    ``clock`` is injectable so tests can advance time deterministically.
    Entries expire ``ttl_s`` after being stored; reads refresh LRU order
    but never the TTL (a hot entry still ages out, bounding staleness).

    Every body is stored with the CRC-32 of its Latin-1 encoding, or of
    its UTF-8 encoding when it has a character Latin-1 cannot encode,
    and which of the two it is (:func:`_body_digest`); ``get`` recomputes
    both over the whole body and treats a mismatch as a miss, dropping
    the entry and counting the rejection in ``corruption_rejections``.
    CRC-32 catches every change confined to 32 adjacent bits, hence any
    one character of a Latin-1 body replaced, and any one character of a
    UTF-8 body replaced by another of the same UTF-8 length; a body that
    no longer takes the encoding it was stored with is rejected
    outright, and any other change is missed with probability 2**-32. A
    poisoned or partially-written entry is therefore recomputed, never
    served; a hit returns the stored string itself.
    """

    def __init__(self, entries: int, ttl_s: float, clock=time.monotonic):
        self.entries = entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._data: OrderedDict[str, tuple[float, str, tuple[bool, int]]] \
            = OrderedDict()
        #: Entries dropped because their stored checksum no longer
        #: matched.
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

        The stored checksum is deliberately left stale, modelling a poisoned
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
    """Per-endpoint counters + latency reservoirs, thread-safe.

    Each outcome's counter names are formatted once per endpoint, and a
    request's counters, including the caller's own (``counters``: a
    tenant's, a shard's), are bumped under one acquisition of the lock.
    """

    def __init__(self, max_samples: int = 100_000):
        self.counters = StageTimings()
        self._max_samples = max_samples
        self._lock = threading.Lock()
        self._latencies: dict[str, list[float]] = {}
        #: (kind, status, cached) -> the endpoint counters that outcome
        #: bumps; ``(kind, None, False)`` for a shed. Filled outside the
        #: lock: threads racing on a new outcome store equal tuples.
        self._names: dict[tuple, tuple[str, ...]] = {}

    def _outcome_names(self, kind: str, status: str | None,
                       cached: bool) -> tuple[str, ...]:
        names = self._names.get((kind, status, cached))
        if names is None:
            if status is None:
                names = (f"serve.{kind}.requests", f"serve.{kind}.shed",
                         "serve.shed")
            else:
                names = (f"serve.{kind}.requests", f"serve.{kind}.{status}")
                if status == OK:
                    names += (f"serve.{kind}.cache."
                              f"{'hit' if cached else 'miss'}",)
            self._names[(kind, status, cached)] = names
        return names

    def record(self, kind: str, status: str, cached: bool,
               latency_s: float, counters: tuple[str, ...] = ()) -> None:
        names = self._outcome_names(kind, status, cached)
        increment = self.counters.increment
        with self._lock:
            for name in names:
                increment(name)
            for name in counters:
                increment(name)
            bucket = self._latencies.get(kind)
            if bucket is None:
                bucket = self._latencies[kind] = []
            if len(bucket) < self._max_samples:
                bucket.append(latency_s)

    def record_shed(self, kind: str,
                    counters: tuple[str, ...] = ()) -> None:
        names = self._outcome_names(kind, None, False)
        increment = self.counters.increment
        with self._lock:
            for name in names:
                increment(name)
            for name in counters:
                increment(name)

    def increment(self, name: str, count: int = 1) -> None:
        """Thread-safe bump of an arbitrary counter (worker deaths etc.)."""
        with self._lock:
            self.counters.increment(name, count)

    # -- reads -----------------------------------------------------------

    def shed_count(self) -> int:
        return self.counters.count("serve.shed")

    def request_count(self, kind: str | None = None) -> int:
        """Requests to one endpoint, or to all of them: the sum of the
        ``serve.<kind>.requests`` counters, so a tenant's own
        ``serve.tenant.<name>.requests`` never counts a request twice."""
        counts = self.counters.counts()
        if kind is not None:
            return counts.get(f"serve.{kind}.requests", 0)
        return sum(count for name, count in counts.items()
                   if name.startswith("serve.") and name.count(".") == 2
                   and name.endswith(".requests"))

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

    snapshot: CorpusSnapshot  # as given; a ShardedSnapshot is one too
    sharded: "ShardedSnapshot | None"
    engine: object            # QueryEngine | ShardedEngine
    fingerprint: str
    #: ``serve.shard.<i>.queries`` for each shard; empty when unsharded.
    shard_counters: tuple[str, ...] = ()


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`AnnotationServer.swap_snapshot` call did."""

    old_fingerprint: str
    new_fingerprint: str
    #: Shards whose content the old generation already served.
    shards_reused: int
    #: Shards with new content (0/1 totals for unsharded servers).
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


def _cache_key(gen: _Generation, query: Query) -> str:
    """The hot-cache key of ``query``'s answer on ``gen``: the content id
    of the records it reads (:func:`query_scope`), then the query's
    fingerprint.

    A domain lookup takes its record's digest and a sector-scoped query
    its sector's digest, so a swap that leaves those records alone
    leaves the key, and the cached answer, valid. The whole corpus, and
    a domain or sector the index does not hold, take the generation
    fingerprint: a "not found" answer is never reused by a generation
    that holds the domain. Raises :class:`QueryError` for a malformed
    query.
    """
    fingerprint = query_fingerprint(query)
    scope = query_scope(query)
    digest = gen.fingerprint
    if scope is not None:
        index = gen.engine.index
        what, name = scope
        if what == RECORD:
            record = index.by_domain.get(name)
            if record is not None:
                digest = record.digest()
        else:
            digest = index.sector_digests.get(name, digest)
    return f"{digest}:{fingerprint}"


def _build_generation(snapshot, config: ServerConfig,
                      reuse: _Generation | None = None) -> _Generation:
    """Assemble a generation off to the side; nothing is installed here.

    ``reuse`` (the outgoing generation) makes the new index a patch of
    the old engine's, sharded or not: only the records that changed are
    re-indexed.
    """
    sharded = snapshot if isinstance(snapshot, ShardedSnapshot) else None
    if sharded is None and config.shards > 1:
        sharded = partition_snapshot(snapshot, config.shards)
    previous = reuse and reuse.engine
    # The one place that picks ShardedEngine: its shards count routed
    # reads and reused shards over the same one index.
    engine = (ShardedEngine(sharded, reuse_from=previous)
              if sharded is not None else
              QueryEngine(CorpusIndex.patched(previous and previous.index,
                                              snapshot)))
    return _Generation(
        snapshot=snapshot,
        sharded=sharded,
        engine=engine,
        fingerprint=snapshot.fingerprint,
        shard_counters=tuple(
            f"serve.shard.{i}.queries"
            for i in range(sharded.shard_count if sharded else 0)))


def _shard_counters(gen: _Generation, query: Query) -> tuple[str, ...]:
    """The counter of the shard a domain lookup reads on a sharded
    generation, else none: every other kind reads the one index of the
    snapshot's records, and its ``serve.<kind>.requests`` already
    counts it."""
    if not gen.shard_counters:
        return ()
    shard = gen.engine.route(query)
    return () if shard is None else (gen.shard_counters[shard],)


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

    def __init__(self, snapshot: CorpusSnapshot,
                 config: ServerConfig | None = None,
                 clock=time.monotonic, fault_injector=None):
        self.config = config or ServerConfig()
        self._gen = _build_generation(snapshot, self.config)
        self.metrics = ServeMetrics(
            max_samples=self.config.max_latency_samples)
        self.cache = ResultCache(self.config.cache_entries,
                                 self.config.cache_ttl_s, clock=clock)
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
        return self._gen.engine.index

    @property
    def fingerprint(self) -> str:
        return self._gen.fingerprint

    def swap_snapshot(self, snapshot) -> SwapReport:
        """Atomically install a refreshed snapshot under load.

        The next generation (shard set, indexes, engine) is built
        entirely before the install, then published with one attribute
        store — atomic under the GIL. Requests already past their
        generation capture finish on the old index; requests arriving
        after the store serve from the new one; no request is dropped and
        none can observe a mix. A hot-cache entry stays reachable while
        the records its answer read are unchanged (a lookup of an
        untouched domain, a query scoped to an untouched sector, and
        everything after a swap to the same content keep hitting), and an
        entry over changed records becomes unreachable and is evicted by
        TTL/LRU. The new index is patched from the old one with only the
        records that changed, for a sharded and an unsharded server alike.
        Callable whether or not the server is started.
        """
        old = self._gen
        started = self._clock()
        new = _build_generation(snapshot, self.config, reuse=old)
        build_s = self._clock() - started
        self._gen = new
        self.metrics.increment("serve.swap.count")
        reused = getattr(new.engine, "reused_shards", 0)
        rebuilt = (new.sharded.shard_count if new.sharded else 1) - reused
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
            query, kind, future, submitted_at, counters = item
            if not self._claim(future):
                continue
            response = ServeResponse(
                status=ERROR, kind=kind,
                body="ServerStopped: request abandoned at shutdown")
            self.metrics.record(kind, ERROR, False,
                                self._clock() - submitted_at,
                                counters.get(ERROR, ()))
            future.set_result(response)

    def __enter__(self) -> "AnnotationServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ----------------------------------------------------

    def submit(self, query: Query, *,
               counters: dict[str, tuple[str, ...]] | None = None
               ) -> "Future[ServeResponse]":
        """Admit a query (or shed it); never blocks the caller.

        ``counters`` maps a response status to the caller's own counter
        names that an answer of that status bumps (the front end's
        per-tenant names). They are counted with the endpoint's, and a
        lookup's shard counter, under the one metrics lock that records
        the outcome, in the worker or in the shed here.

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
        counters = counters or {}
        future: Future = Future()
        try:
            self._queue.put_nowait(
                (query, kind, future, self._clock(), counters))
        except queue.Full:
            self.metrics.record_shed(kind, counters.get(OVERLOADED, ()))
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
                query, kind, future, submitted_at, counters = item
                if not self._claim(future):
                    continue
                shard = ()
                try:
                    if self._injector is not None:
                        self._injector.before_serve(query, kind)
                    # The one generation capture for this request: every
                    # read goes through ``gen``, so a swap landing
                    # mid-request changes nothing this request observes.
                    gen = self._gen
                    shard = _shard_counters(gen, query)
                    response = self._serve_one(gen, query, kind)
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
                self.metrics.record(
                    kind, response.status, response.cached, latency,
                    counters.get(response.status, ()) + shard)
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

    def try_cached(self, query: Query,
                   counters: tuple[str, ...] = ()) -> ServeResponse | None:
        """Inline cache-hit fast path: serve a hit without a queue trip.

        The asyncio front end calls this on the event loop — a hit is
        checksum-verified and recorded like any served request, a miss
        (or a malformed query) returns ``None`` and counts nothing, so
        the caller falls back to :meth:`submit`. A hit also bumps the
        caller's ``counters`` (the front end's per-tenant names), all
        under one metrics lock. Front ends must skip this path when a
        fault injector is installed (:attr:`fault_injector`), so chaos
        seams still see every request.
        """
        if not self._started:
            raise ServeError("server not started; use `with server:` or "
                             "call start()")
        gen = self._gen
        try:
            key = _cache_key(gen, query)
        except QueryError:
            return None
        body = self.cache.get(key)
        if body is None:
            return None
        kind = query_kind(query)
        self.metrics.record(kind, OK, True, 0.0,
                            counters + _shard_counters(gen, query))
        return ServeResponse(status=OK, kind=kind, body=body, cached=True)

    @property
    def fault_injector(self):
        return self._injector

    def _serve_one(self, gen: _Generation, query: Query,
                   kind: str) -> ServeResponse:
        try:
            # A malformed query (e.g. an unparseable predicate string)
            # fails fingerprinting with the same QueryError message the
            # engine's validation would raise; answer it as a clean
            # query error, not an InternalError.
            key = _cache_key(gen, query)
        except QueryError as exc:
            return ServeResponse(status=ERROR, kind=kind, body=str(exc))
        body = self.cache.get(key)
        if body is not None:
            return ServeResponse(status=OK, kind=kind, body=body,
                                 cached=True)
        try:
            body = gen.engine.execute(query).to_json()
        except QueryError as exc:
            return ServeResponse(status=ERROR, kind=kind, body=str(exc))
        self.cache.put(key, body)
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
