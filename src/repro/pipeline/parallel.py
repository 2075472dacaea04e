"""Sharded parallel pipeline executor with a deterministic merge.

The paper's pipeline (crawl → pre-process → segment → annotate → verify) is
embarrassingly parallel across domains: fetch outcomes are pure functions of
``(internet seed, url, attempt)`` and — with per-domain model seeding
(:func:`~repro.pipeline.runner.domain_model_seed`) — so are annotations.
This module exploits that:

1. The domain list is partitioned into contiguous, order-preserving shards
   (:func:`make_shards`).
2. Each shard runs with its **own** :class:`~repro.web.browser.Browser` /
   :class:`~repro.crawler.crawler.PrivacyCrawler` and its own per-domain
   chat models, so no mutable state is shared across workers.
3. Shard results are merged back in original corpus order; token counters
   and :class:`~repro.web.net.FetchStats` are summed at join. A shard's
   counts are the sums over its domains' entries, cached or fresh, so
   they travel with the outcome, from a worker process too.

Three interchangeable backends execute the shards
(:attr:`ExecutorOptions.backend`):

``"thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor`. Zero setup cost,
    but pure-Python stages serialize on the GIL — threads only help when
    fetch latency is simulated with real sleeps (``Browser(latency_scale=
    ...)``), i.e. network-bound runs.

``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`. Shards are shipped
    as picklable :class:`ShardTask` descriptions; each worker process
    reconstructs its corpus locally (inheriting the parent's fully built
    corpus for free under the ``fork`` start method, rebuilding it
    deterministically from :class:`~repro.corpus.build.CorpusConfig`
    otherwise) and returns a picklable :class:`ShardOutcome`. Compute-bound
    runs scale with cores because each worker owns a whole interpreter.

``"serial"``
    Runs the shards inline, in order, on the calling thread: the same
    sharded code path (including per-shard retries and cache checkpoints)
    with zero concurrency. A plain ``run_pipeline`` call is one such shard
    (:data:`INLINE`).

Every backend produces byte-identical records, traces, and aggregate stats
for every worker count and shard size.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field

from repro._util.profiling import StageTimings
from repro.corpus.build import CorpusConfig, SyntheticCorpus, build_corpus
from repro.crawler.crawler import CrawlResult, PrivacyCrawler
from repro.pipeline.cache import CacheKeys, PipelineCache, process_domain
from repro.pipeline.records import DomainAnnotations
from repro.pipeline.runner import DomainTrace, PipelineOptions, PipelineResult
from repro.web.browser import Browser
from repro.web.net import FetchStats, SimulatedInternet

#: Supported executor backends, in documentation order.
BACKENDS = ("serial", "thread", "process")

#: Test seam for the retry backoff sleep (monkeypatch to assert no worker
#: slot ever blocks when ``retry_backoff == 0``).
_sleep = time.sleep


@dataclass(frozen=True)
class ExecutorOptions:
    """Configuration for the sharded executor."""

    #: Pool size. 1 degenerates to a (still sharded) serial run.
    workers: int = 4
    #: Domains per shard. Small shards balance load across workers; large
    #: shards amortise per-shard setup (browser, crawler, and — for the
    #: process backend — task pickling).
    shard_size: int = 8
    #: How many times a crashed shard is re-run before the error propagates.
    max_retries: int = 2
    #: Seconds slept before the first shard retry; doubles per retry.
    #: Tradeoff: the sleep happens *on the worker slot* (thread or
    #: process), so a backing-off shard blocks that slot for the whole
    #: delay. That is deliberate — a crashing shard usually indicates a
    #: systemic problem where hammering retries makes things worse — but
    #: tests and latency-sensitive callers should pass ``0``, which skips
    #: the sleep entirely and retries immediately.
    retry_backoff: float = 0.05
    #: Execution backend: ``"thread"`` (default; best for network-bound
    #: runs where fetch latency is simulated with real sleeps),
    #: ``"process"`` (compute-bound runs scale with cores), or
    #: ``"serial"`` (inline, no concurrency).
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("ExecutorOptions.workers must be >= 1")
        if self.shard_size < 1:
            raise ValueError("ExecutorOptions.shard_size must be >= 1")
        if self.max_retries < 0:
            raise ValueError("ExecutorOptions.max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("ExecutorOptions.retry_backoff must be >= 0")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"ExecutorOptions.backend must be one of {BACKENDS}, "
                f"got {self.backend!r}")


#: The executor of a plain ``run_pipeline`` call: every domain in one
#: shard, run inline on the calling thread, so the run shares one crawler,
#: and an error raises at once instead of retrying.
INLINE = ExecutorOptions(workers=1, shard_size=sys.maxsize, max_retries=0,
                         backend="serial")


@dataclass
class ShardOutcome:
    """Everything one shard produced, in shard-local domain order.

    Every field is picklable by construction — this is the return channel
    of the process backend. (``DomainAnnotations``/``DomainTrace`` are
    plain dataclasses; ``StageTimings`` holds two dicts; ``FetchStats`` is
    counters only. Nothing here may ever grow a lock, an open file, or a
    reference back into the corpus/model graph.)
    """

    index: int
    domains: list[str]
    records: list[DomainAnnotations] = field(default_factory=list)
    traces: dict[str, DomainTrace] = field(default_factory=dict)
    prompt_tokens: int = 0
    completion_tokens: int = 0
    fetch_stats: FetchStats = field(default_factory=FetchStats)
    #: Per-stage wall clock spent inside this shard (summed at merge).
    timings: StageTimings = field(default_factory=StageTimings)
    #: 1 on first-try success; >1 when shard retries were needed.
    attempts: int = 1


@dataclass(frozen=True)
class ShardTask:
    """Picklable description of one shard for the process backend.

    A worker process needs nothing beyond this task to produce the shard's
    :class:`ShardOutcome`: the corpus is reconstructed locally from
    ``corpus_config`` (deterministic — :func:`~repro.corpus.build
    .build_corpus` is a pure function of its config), per-domain models
    are re-seeded from ``options``, and the cache store (when
    ``cache_dir`` is set) is re-opened from its directory. Under the
    ``fork`` start method the reconstruction is skipped: the worker
    inherits the parent's fully built corpus snapshot (see
    :data:`_FORK_CORPUS`), which also preserves any in-memory corpus
    mutations a caller made after :func:`build_corpus`.
    """

    corpus_config: CorpusConfig
    index: int
    domains: tuple[str, ...]
    options: PipelineOptions
    cache_dir: str | None = None
    max_retries: int = 0
    retry_backoff: float = 0.0


def make_shards(domains: list[str], shard_size: int) -> list[list[str]]:
    """Partition ``domains`` into contiguous shards, preserving order.

    Deterministic: the same inputs always produce the same shards, and
    concatenating the shards reproduces ``domains`` exactly.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [domains[i:i + shard_size]
            for i in range(0, len(domains), shard_size)]


def run_shard(corpus: SyntheticCorpus, index: int, domains: list[str],
              options: PipelineOptions, progress=None,
              cache=None, keys=None) -> ShardOutcome:
    """Run one shard with worker-private browser, crawler, and models.

    Every domain runs through the one per-domain step,
    :func:`~repro.pipeline.cache.process_domain`; the shard's token and
    fetch counts are the sums of its domains' entries, cached or fresh.
    With ``cache``/``keys`` set, every completed domain is checkpointed to
    the content-addressed store via an atomic temp-file + rename as soon
    as it finishes, so a shard that dies mid-run loses at most the domain
    in flight; a resumed run replays the finished ones from disk. A
    cascade run resolves its model once, here, for every domain.
    """
    from repro.pipeline.cascade import cascade_model_for

    outcome = ShardOutcome(index=index, domains=list(domains))
    crawler = PrivacyCrawler(Browser(internet=corpus.internet))
    cascade = cascade_model_for(options)
    for domain in domains:
        entry = process_domain(corpus, crawler, domain, options,
                               outcome.timings, cache, keys, cascade=cascade)
        outcome.records.append(entry.record)
        outcome.traces[domain] = entry.trace
        outcome.prompt_tokens += entry.prompt_tokens
        outcome.completion_tokens += entry.completion_tokens
        outcome.fetch_stats.merge(entry.fetch)
        if progress is not None:
            progress(domain)
    return outcome


def _run_with_retries(run, max_retries: int, retry_backoff: float,
                      ) -> ShardOutcome:
    """Re-run a crashing shard up to ``max_retries`` times.

    The backoff sleep (when ``retry_backoff > 0``) happens right here on
    the executor slot — see :attr:`ExecutorOptions.retry_backoff` for the
    tradeoff. With ``retry_backoff == 0`` the retry is immediate and the
    slot never blocks.
    """
    delay = retry_backoff
    for attempt in range(max_retries + 1):
        try:
            outcome = run()
        except Exception:
            if attempt == max_retries:
                raise
            if delay > 0:
                _sleep(delay)
            delay *= 2
        else:
            outcome.attempts = attempt + 1
            return outcome
    raise AssertionError("unreachable")  # pragma: no cover


# -- process-backend worker state ---------------------------------------------
#
# A worker process resolves its corpus in two steps:
#
# 1. The fork fast path: ``_FORK_CORPUS`` is set by the parent immediately
#    before the pool is created, so children forked from it inherit the
#    fully built corpus (copy-on-write, no pickling, no rebuild) — and any
#    in-memory mutations made after build_corpus().
# 2. The reconstruction path: under a ``spawn``/``forkserver`` start
#    method (or when the task's config doesn't match the inherited
#    corpus), the worker rebuilds the corpus from the task's CorpusConfig.
#    build_corpus() is deterministic, so the rebuilt corpus is
#    byte-equivalent to the parent's.
#
# Both paths memoize per process: a worker serving many shards of one run
# pays the (re)construction at most once.

_FORK_CORPUS: SyntheticCorpus | None = None
_WORKER_CORPUS: SyntheticCorpus | None = None
_WORKER_KEYS: tuple | None = None  # (corpus id, options, cache_dir, CacheKeys)


def _worker_corpus(config: CorpusConfig) -> SyntheticCorpus:
    global _WORKER_CORPUS
    inherited = _FORK_CORPUS
    if inherited is not None and inherited.config == config:
        return inherited
    cached = _WORKER_CORPUS
    if cached is None or cached.config != config:
        cached = build_corpus(config)
        _WORKER_CORPUS = cached
    return cached


def _worker_cache_keys(corpus: SyntheticCorpus, options: PipelineOptions,
                       cache_dir: str):
    """Per-process memo for the (cache, keys) pair of one run."""
    global _WORKER_KEYS
    cached = _WORKER_KEYS
    if (cached is None or cached[0] is not corpus or cached[1] != options
            or cached[2] != cache_dir):
        cached = (corpus, options, cache_dir, PipelineCache(cache_dir),
                  CacheKeys(corpus, options))
        _WORKER_KEYS = cached
    return cached[3], cached[4]


def run_shard_task(task: ShardTask) -> ShardOutcome:
    """Process-pool entry point: resolve worker-local state, run the shard.

    Must stay a top-level function (pickled by reference). Retries happen
    inside the worker so a flaky shard doesn't bounce through the parent.
    """
    corpus = _worker_corpus(task.corpus_config)
    cache = keys = None
    if task.cache_dir is not None:
        cache, keys = _worker_cache_keys(corpus, task.options, task.cache_dir)
    return _run_with_retries(
        lambda: run_shard(corpus, task.index, list(task.domains),
                          task.options, cache=cache, keys=keys),
        task.max_retries, task.retry_backoff)


def _process_pool_context():
    """Prefer ``fork`` (workers inherit the built corpus) when available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_shards_process(corpus: SyntheticCorpus, options: PipelineOptions,
                        shards: list[list[str]], executor: ExecutorOptions,
                        relay: "_ProgressRelay",
                        cache=None) -> list[ShardOutcome]:
    """Run the shards on a process pool; outcomes come back in
    completion order, each with its own fetch counters."""
    global _FORK_CORPUS
    cache_dir = str(cache.root) if cache is not None else None
    tasks = [
        ShardTask(corpus_config=corpus.config, index=index,
                  domains=tuple(shard), options=options, cache_dir=cache_dir,
                  max_retries=executor.max_retries,
                  retry_backoff=executor.retry_backoff)
        for index, shard in enumerate(shards)
    ]
    outcomes: list[ShardOutcome] = []
    _FORK_CORPUS = corpus
    try:
        with ProcessPoolExecutor(max_workers=executor.workers,
                                 mp_context=_process_pool_context()) as pool:
            futures = [pool.submit(run_shard_task, task) for task in tasks]
            for future in as_completed(futures):
                outcome = future.result()
                for domain in outcome.domains:
                    relay(domain)
                outcomes.append(outcome)
    finally:
        _FORK_CORPUS = None
    return outcomes


class _ProgressRelay:
    """Serialises worker progress reports into a user callback.

    Reports each domain at most once (shard retries re-process domains),
    with a monotonically increasing ``done`` count — safe to call from any
    worker thread. The process backend reports at shard completion (the
    parent can't observe per-domain progress inside a worker process);
    thread and serial backends report per domain.
    """

    def __init__(self, progress, total: int):
        self._progress = progress
        self._total = total
        self._lock = threading.Lock()
        self._seen: set[str] = set()

    def __call__(self, domain: str) -> None:
        if self._progress is None:
            return
        with self._lock:
            if domain in self._seen:
                return
            self._seen.add(domain)
            done = len(self._seen)
        self._progress(done, self._total, domain)


def run_parallel_pipeline(corpus: SyntheticCorpus,
                          options: PipelineOptions | None = None,
                          executor: ExecutorOptions | None = None,
                          domains: list[str] | None = None,
                          progress=None,
                          cache=None,
                          cache_dir=None) -> PipelineResult:
    """Run the pipeline on the sharded executor.

    Output (records, traces, token totals) depends only on the corpus,
    the options and the domain list, not on ``executor.workers``,
    ``executor.shard_size``, or ``executor.backend``. A domain listed
    twice is processed once, at its first position (as in
    :func:`crawl_domains`), so records, traces and progress totals agree.

    ``cache``/``cache_dir`` enable the content-addressed store (see
    :mod:`repro.pipeline.cache`): cache keys are computed once and shared
    read-only across workers (recomputed per process on the process
    backend), each shard checkpoints completed domains atomically, and the
    merge tolerates partial shards — a killed run resumes per-domain, not
    per-shard. The store's temp-file + ``os.replace`` writes are atomic
    across *processes* as well as threads, so concurrent worker processes
    never corrupt entries.
    """
    options = options or PipelineOptions()
    executor = executor or ExecutorOptions()
    domains = list(dict.fromkeys(
        domains if domains is not None else corpus.domains))
    shards = make_shards(domains, executor.shard_size)
    relay = _ProgressRelay(progress, len(domains))
    keys = None
    if cache is None and cache_dir is not None:
        cache = PipelineCache(cache_dir)

    if options.annotator == "cascade":
        # Train the distilled model once in the parent before any workers
        # start: thread pools share the memo, forked process pools inherit
        # it copy-on-write — either way no worker trains its own copy.
        from repro.pipeline.cascade import get_cascade_model

        get_cascade_model(options)

    if executor.backend == "process":
        outcomes = _run_shards_process(corpus, options, shards, executor,
                                       relay, cache=cache)
        return merge_outcomes(outcomes, options)

    if cache is not None:
        keys = CacheKeys(corpus, options)

    def run_with_retries(index: int, shard: list[str]) -> ShardOutcome:
        return _run_with_retries(
            lambda: run_shard(corpus, index, shard, options, relay,
                              cache=cache, keys=keys),
            executor.max_retries, executor.retry_backoff)

    if executor.backend == "serial":
        outcomes = [run_with_retries(index, shard)
                    for index, shard in enumerate(shards)]
    else:
        with ThreadPoolExecutor(max_workers=executor.workers) as pool:
            futures = [pool.submit(run_with_retries, index, shard)
                       for index, shard in enumerate(shards)]
            outcomes = [future.result() for future in futures]

    return merge_outcomes(outcomes, options)


def merge_outcomes(outcomes: list[ShardOutcome],
                   options: PipelineOptions) -> PipelineResult:
    """Merge shard outcomes back into original corpus order."""
    result = PipelineResult(records=[], traces={}, options=options)
    for outcome in sorted(outcomes, key=lambda o: o.index):
        result.records.extend(outcome.records)
        result.traces.update(outcome.traces)
        result.prompt_tokens += outcome.prompt_tokens
        result.completion_tokens += outcome.completion_tokens
        result.fetch_stats.merge(outcome.fetch_stats)
        result.stage_timings.merge(outcome.timings)
    return result


def crawl_domains(internet: SimulatedInternet, domains: list[str],
                  executor: ExecutorOptions | None = None,
                  progress=None, **browser_kwargs) -> dict[str, CrawlResult]:
    """Crawl a list of domains; returns results keyed by domain.

    Crawls only (no annotation), sharded across a thread pool with one
    browser per shard; extra keyword arguments configure each worker's
    :class:`~repro.web.browser.Browser` (e.g. ``latency_scale`` to model
    network-bound fetches). Results come back keyed in input order.

    Duplicate domains in the input are crawled once: the result is keyed
    by domain, so a second occurrence could only ever collapse into the
    first anyway — deduplicating up front (keeping first-occurrence order)
    means progress totals and shard work match the returned dict instead
    of silently over-counting. Thread backend only: a crawl-only call has
    no ``CorpusConfig`` to rebuild from, so there is no picklable task
    description for worker processes.
    """
    executor = executor or ExecutorOptions()
    ordered = list(dict.fromkeys(domains))
    relay = _ProgressRelay(progress, len(ordered))

    def run(shard: list[str]) -> list[tuple[str, CrawlResult]]:
        crawler = PrivacyCrawler(
            Browser(internet=internet, **browser_kwargs))
        out = []
        for domain in shard:
            crawl = crawler.crawl_domain(domain)
            crawl.drop_trees()
            out.append((domain, crawl))
            relay(domain)
        return out

    shards = make_shards(ordered, executor.shard_size)
    with ThreadPoolExecutor(max_workers=executor.workers) as pool:
        chunks = list(pool.map(run, shards))
    by_domain = {domain: crawl for chunk in chunks for domain, crawl in chunk}
    return {domain: by_domain[domain] for domain in ordered}


__all__ = [
    "BACKENDS",
    "ExecutorOptions",
    "INLINE",
    "ShardOutcome",
    "ShardTask",
    "crawl_domains",
    "make_shards",
    "merge_outcomes",
    "run_parallel_pipeline",
    "run_shard",
    "run_shard_task",
]
