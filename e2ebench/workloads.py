"""The two workloads: ``batch`` and ``churn``.

Each runs its set-up several times (the median is ``setup_s``), then one
timed phase, then checks every output against an independent reference
outside the timed window. A workload returns an :class:`Outcome`: its
end-to-end metrics, operations attempted and failed, what each failed
check said, and details for the run record.

``batch``  the paper's job: a cold pipeline run (crawl, preprocess,
           segment, annotate, verify, cache writes) into a snapshot and a
           built index. No serving layer runs.
``churn``  rounds of K policy edits, each ingested, refreshed into a
           sharded snapshot and swapped in, then probed for freshness;
           each round is followed by a burst of reads from closed-loop
           clients through the asyncio front end. Rounds and bursts
           alternate and never overlap.

Every time metric is a mean over the whole timed phase (its passes,
rounds or bursts), never a median or a best of its parts: the machine's
speed moves by up to half for seconds to minutes at a time, a median or
a minimum snaps to whichever speed a run happened to meet, and a mean
weighs each speed by the time it held. Speed changes that outlast a run
are taken out by :func:`at_reference`, from a fixed piece of work timed
between the parts of the run.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import os
import random
import statistics
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from inputs import EditPlan, ReadStream, digest
from repro.corpus import CorpusConfig, build_corpus
from repro.ingest import refresh as refresh_mod
from repro.ingest.mutate import mutable_domains, mutate_domain
from repro.ingest.scheduler import IngestScheduler, SchedulePolicy
from repro.pipeline import PipelineOptions, run_pipeline
from repro.pipeline.cache import PipelineCache
from repro.serve import snapshot as snapshot_mod
from repro.serve.aserver import AsyncFrontEnd, TenantQuota, TenantRegistry
from repro.serve.index import CorpusIndex
from repro.serve.query import DomainLookup, PredicateQuery, QueryEngine
from repro.serve.server import OK, AnnotationServer, ServerConfig
from repro.serve.shard import partition_snapshot


@dataclass(frozen=True)
class Sizes:
    """Every size a workload runs at. ``N`` domains, ``K`` edits a round
    (``K`` much smaller than ``N`` and smaller than ``S``), ``S`` shards."""

    corpus_seed: int = 7
    #: Share of the paper's 2916-company universe: 0.05 is 146 domains.
    fraction: float = 0.05
    batch_domains: int = 48
    churn_domains: int = 48
    edits: int = 3
    shards: int = 4
    clients: int = 2
    #: Reads in each churn burst: each burst's p99 has 20 reads beyond it.
    burst_reads: int = 2000
    #: Set-ups per run; ``setup_s`` is their median. A ``batch`` set-up
    #: is short, so it runs more of them to even out the machine's drift.
    setups: int = 3
    batch_setups: int = 7
    #: Fixed work of the traced comparison (which replaces the timed
    #: phase, so both sides of it do the same operations).
    trace_passes: int = 2
    trace_rounds: int = 3


#: Small sizes for the smoke test.
TOY = Sizes(fraction=0.02, batch_domains=6, churn_domains=12, edits=1,
            shards=2, burst_reads=100, setups=2, batch_setups=2,
            trace_passes=1, trace_rounds=2)

#: Paper pipeline, chatbot annotator, default model.
OPTIONS = PipelineOptions()

#: Stated in full so that a change of the program's defaults cannot pass
#: for a gain (``shards`` is ``Sizes.shards``). Queue depth covers the
#: tenant's in-flight cap, so an admitted read is never shed. The result
#: cache holds every repeatable query with room to spare, and fills with
#: predicates early in a run, as do the latency reservoirs, so memory
#: does not grow with read count.
SERVER_CONFIG = ServerConfig(workers=2, queue_depth=8, cache_entries=1024,
                             cache_ttl_s=3600.0, max_latency_samples=1000,
                             shards=1)

#: A read slower than this counts as failed (timed out).
READ_DEADLINE_S = 5.0
#: Reads, and churn rounds or batch passes, covered by the recorded
#: input digest.
DIGEST_READS = 2000
DIGEST_ROUNDS = 16
#: Iterations of the calibration work: about 3 ms of thread time on the
#: machine this was built on in its faster spells, 5 ms in its slower.
CALIBRATION_ITERATIONS = 8_000
#: Thread time of the calibration work, in ms, on the reference machine
#: that every time metric is reported for (see :func:`at_reference`).
REFERENCE_CALIBRATION_MS = 3.0
#: Processes that check churn outputs after the timed phase, and the
#: number of chunks its rounds are checked in.
CHECK_WORKERS = 2
CHECK_CHUNKS = 6


@dataclass
class Run:
    """What one workload invocation is asked to do."""

    seed: int
    sizes: Sizes
    seconds: float
    workdir: Path
    #: Run the fixed work of the traced comparison instead of timing
    #: for ``seconds``.
    fixed: bool = False
    #: A :class:`spans.Recorder` when this is the traced pass.
    rec: object = None
    #: Every pipeline cache directory the run created.
    cache_dirs: list[Path] = field(default_factory=list)
    #: Thread time (ms) of the calibration work, timed after every set-up
    #: and between the passes, rounds and bursts of the timed phase.
    calibration_ms: list[float] = field(default_factory=list)
    #: CPUs the output checks may use once the timed phase is over (the
    #: timed phase itself runs on one CPU); empty means this process's.
    check_cpus: frozenset = frozenset()
    _dirs: int = 0

    def scratch(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def cache(self, label: str) -> PipelineCache:
        path = self.scratch(label)
        self.cache_dirs.append(path)
        return PipelineCache(path)

    def calibrate(self) -> None:
        """Time the calibration work in thread time, which another thread
        of this process cannot lengthen."""
        started = thread_time()
        _calibration_work()
        self.calibration_ms.append((thread_time() - started) * 1000.0)

    def slowdown(self) -> float:
        """How many times longer than on the reference machine the
        calibration work took, on average over this run."""
        return (statistics.fmean(self.calibration_ms)
                / REFERENCE_CALIBRATION_MS)


def _calibration_work() -> int:
    """Fixed pure-Python work of the kinds the program does most:
    arithmetic, string formatting, dict updates and a sort. It uses no
    code of the program, so no change to the program can change it."""
    table: dict[str, int] = {}
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        key = "k%d" % (i * 7919 % 1009)
        table[key] = table.get(key, 0) + i % 7
        acc += i * i % 7
    return acc + len("|".join(sorted(table, key=table.__getitem__)))


def at_reference(metrics: dict, slowdown: float) -> dict:
    """Each time metric as it would read on the reference machine.

    The shared machine this was built on switches between speeds about
    1.9 times apart for minutes at a time, longer than a run, so runs of
    unchanged code read 1.9 times apart too. The calibration work slows
    with the machine but never with the program, so durations are
    divided, and rates multiplied, by the run's slowdown. Other metrics
    (memory) pass unchanged; the run record keeps the wall-clock values.
    """
    scale = {"s": 1.0 / slowdown, "ms": 1.0 / slowdown, "1/s": slowdown}
    return {name: (value * scale.get(unit, 1.0), unit)
            for name, (value, unit) in metrics.items()}


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    record: dict
    #: Digest of every output the run produced, in operation order (fixed
    #: work only): the traced pass must match the untraced one.
    output_digest: str = ""
    reads: int = 0
    hits: int = 0
    shed: int = 0


# -- shared pieces ------------------------------------------------------------


def percentiles_ms(samples: list[float]) -> dict:
    """Nearest-rank p50 and p99 in ms, with the counts behind them."""
    ordered = sorted(samples)
    n = len(ordered)

    def rank(pct: float) -> int:
        return min(n, max(1, math.ceil(pct / 100.0 * n)))

    return {"p50_ms": ordered[rank(50.0) - 1] * 1000.0,
            "p99_ms": ordered[rank(99.0) - 1] * 1000.0,
            "samples": n, "beyond_p99": n - rank(99.0)}


def _sha(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def _bodies_digest(bodies: list) -> str:
    """SHA-256 over ``(read number, body)`` pairs in read order, without
    building one string of every body."""
    h = hashlib.sha256()
    for number, body in sorted(bodies):
        h.update(b"%d\0%s\0" % (number, body.encode("utf-8")))
    return h.hexdigest()


def _corpus(sizes: Sizes):
    return build_corpus(CorpusConfig(seed=sizes.corpus_seed,
                                     fraction=sizes.fraction))


def _front(server: AnnotationServer, clients: int):
    registry = TenantRegistry()
    registry.register("bench", TenantQuota(max_inflight=clients))
    front = AsyncFrontEnd(server, registry)
    return front, registry.api_key_for("bench")


def _config(config: ServerConfig) -> dict:
    return {name: getattr(config, name) for name in (
        "workers", "queue_depth", "cache_entries", "cache_ttl_s",
        "max_latency_samples", "shards")}


@dataclass
class ReadLog:
    """Client-side view of a set of reads."""

    keep_bodies: bool = False
    #: Seconds from send to answer, in completion order.
    latencies: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    shed: int = 0
    hits: int = 0
    wall: float = 0.0
    #: id(query) -> [query, body, reads] for every distinct OK answer of a
    #: pooled query; :meth:`seal` turns each body into its digest.
    distinct: dict = field(default_factory=dict)
    #: Read numbers and answer SHA-256 digests of the predicates. Keeping
    #: no query or body for these one-off reads keeps memory flat however
    #: many reads a run makes; the check regenerates the queries.
    predicate_reads: array = field(default_factory=lambda: array("q"))
    predicate_digests: bytearray = field(default_factory=bytearray)
    #: (read number, body), fixed work only.
    bodies: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add(self, number: int, query, response, started: float) -> None:
        latency = perf_counter() - started
        self.latencies.append(latency)
        if self.keep_bodies:
            self.bodies.append((number, response.body))
        if response.status != OK:
            self.failed += 1
            if response.status == "overloaded":
                self.shed += 1
            if len(self.problems) < 5:
                self.problems.append(f"read {number}: {response.body}")
            return
        if latency > READ_DEADLINE_S:
            self.failed += 1
        if response.cached:
            self.hits += 1
        if isinstance(query, PredicateQuery):
            self.predicate_reads.append(number)
            self.predicate_digests += _sha(response.body)
            return
        entry = self.distinct.get(id(query))
        if entry is None:
            self.distinct[id(query)] = [query, response.body, 1]
        else:
            entry[2] += 1
            if response.body is not entry[1] \
                    and response.body != entry[1]:
                self.failed += 1
                self.problems.append(f"read {number}: two bodies for "
                                     f"{query!r}")

    def seal(self) -> None:
        """Once the reads are over, keep digests instead of bodies."""
        for entry in self.distinct.values():
            entry[1] = _sha(entry[1])

    def check_against(self, engine, label: str, predicates: dict) -> None:
        """Byte-compare every distinct answer of a sealed log with
        ``engine``'s; ``predicates`` maps this log's predicate read
        numbers to queries."""
        answers = list(self.distinct.values())
        for i, number in enumerate(self.predicate_reads):
            answers.append((predicates[number],
                            bytes(self.predicate_digests[32 * i:32 * i + 32]),
                            1))
        for query, answer, reads in answers:
            if _sha(engine.execute(query).to_json()) != answer:
                self.failed += reads
                if len(self.problems) < 5:
                    self.problems.append(f"{label}: wrong bytes for "
                                         f"{query!r}")


async def drive(front, key, stream: ReadStream, log: ReadLog, *,
                clients: int, reads: int, rec=None) -> ReadLog:
    """Closed-loop clients on one event loop: each sends its next read
    only when the previous one is answered, until ``reads`` are sent."""
    issued = 0

    async def client() -> None:
        nonlocal issued
        while issued < reads:
            issued += 1
            number, query = stream.next()
            if rec is not None:
                rec.bind_request(number, query)
            started = perf_counter()
            response = await front.handle(key, query)
            log.add(number, query, response, started)

    started = perf_counter()
    await asyncio.wait_for(
        asyncio.gather(*(client() for _ in range(clients))), 120.0)
    log.wall = perf_counter() - started
    return log


def _set_up(run: Run, make, count: int) -> tuple[object, list[float]]:
    """Run ``make`` ``count`` times (once for fixed work); keep the last
    context and close the others. Returns it and every set-up time."""
    times, ctx = [], None
    for _ in range(1 if run.fixed else count):
        if ctx is not None:
            ctx.close()
            ctx = None
        # Each set-up, and the timed phase after the last, starts without
        # the garbage of the one before (stopped servers sit in cycles).
        gc.collect()
        started = perf_counter()
        ctx = make(run)
        times.append(perf_counter() - started)
        run.calibrate()
    gc.collect()
    return ctx, times


# -- batch --------------------------------------------------------------------


@dataclass
class _BatchCtx:
    corpus: object
    domains: list[str]
    options: PipelineOptions

    def close(self) -> None:
        pass

    def order(self, number: int) -> list[str]:
        """The domain order of pass ``number``: a seeded shuffle per pass,
        so the garbage collector's pauses, which recur at the same point
        of a repeated sequence, land on a different domain each pass
        instead of always on one the seed picked."""
        return random.Random(f"e2ebench-batch:{self.options.model_seed}:"
                             f"{number}").sample(self.domains,
                                                 len(self.domains))


def _batch_setup(run: Run) -> _BatchCtx:
    sizes = run.sizes
    corpus = _corpus(sizes)
    n = sizes.batch_domains
    domains = corpus.domains[:n]
    options = PipelineOptions(model_seed=run.seed)
    # Warm-up on domains outside the timed set: builds the lexicon
    # matchers and loads every lazily imported module.
    run_pipeline(corpus, options, domains=corpus.domains[n:n + 4],
                 cache=run.cache("batch-warm"))
    return _BatchCtx(corpus, domains, options)


def batch(run: Run):
    ctx, setups = _set_up(run, _batch_setup, run.sizes.batch_setups)
    n = len(ctx.domains)
    passes, caches = [], []
    #: domain -> its pipeline latency in each pass (seconds).
    latencies: dict[str, list[float]] = {d: [] for d in ctx.domains}
    elapsed = 0.0
    while (len(passes) < run.sizes.trace_passes if run.fixed
           else elapsed < run.seconds or not passes):
        cache = run.cache("batch-cache")
        last = [perf_counter()]

        def progress(done, total, domain):
            now = perf_counter()
            latencies[domain].append(now - last[0])
            last[0] = now

        started = last[0]
        result = run_pipeline(ctx.corpus, ctx.options,
                              domains=ctx.order(len(passes)),
                              progress=progress, cache=cache)
        annotated = perf_counter()
        snapshot = snapshot_mod.snapshot_from_result(result)
        index = CorpusIndex.build(snapshot)
        published = perf_counter()
        wall = published - started
        elapsed += wall
        passes.append({"wall_s": wall, "pipeline_s": annotated - started,
                       "publish_s": published - annotated,
                       "fingerprint": snapshot.fingerprint,
                       "index_fingerprint": index.fingerprint})
        caches.append(cache)
        run.calibrate()
    return Outcome(
        metrics=_batch_metrics(n, passes, latencies, setups),
        attempted=n * len(passes), failed=0, problems=[],
        record={"N": n, "passes": len(passes), "setup_s": setups,
                "pass_wall_s": [p["wall_s"] for p in passes],
                "pass_pipeline_s": [p["pipeline_s"] for p in passes],
                "pass_publish_s": [p["publish_s"] for p in passes],
                "latency_samples": percentiles_ms(_per_domain(latencies)),
                "inputs_digest": digest({
                    "orders": [ctx.order(i) for i in range(DIGEST_ROUNDS)],
                    "model_seed": ctx.options.model_seed})},
        output_digest=digest([p["fingerprint"] for p in passes]),
    ), (ctx, passes, caches)


def _per_domain(latencies: dict[str, list[float]]) -> list[float]:
    """Each domain's mean latency over the passes, which weighs every
    speed the machine ran at by the time it held."""
    return [statistics.fmean(v) for v in latencies.values()]


def _batch_metrics(n, passes, latencies, setups) -> dict:
    """``domains_per_s`` covers whole passes; ``rps`` their pipeline stage
    and ``freshness_ms`` their publish stage (snapshot and index build).
    Each is pooled over every pass of the run."""
    pct = percentiles_ms(_per_domain(latencies))
    domains = n * len(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "domains_per_s": (domains / sum(p["wall_s"] for p in passes),
                          "1/s"),
        "rps": (domains / sum(p["pipeline_s"] for p in passes), "1/s"),
        "p50_ms": (pct["p50_ms"], "ms"),
        "p99_ms": (pct["p99_ms"], "ms"),
        "freshness_ms": (statistics.fmean(p["publish_s"] for p in passes)
                         * 1000.0, "ms"),
    }


def check_batch(outcome: Outcome, state) -> None:
    """Each pass's snapshot must equal a snapshot rebuilt from the pass's
    own cache, record by record, and the index must serve it."""
    ctx, passes, caches = state
    for number, (info, cache) in enumerate(zip(passes, caches)):
        rebuilt = snapshot_mod.snapshot_from_cache(
            ctx.corpus, ctx.options, cache, domains=ctx.domains)
        if rebuilt.fingerprint == info["fingerprint"] \
                and info["index_fingerprint"] == info["fingerprint"]:
            continue
        outcome.failed += len(ctx.domains)
        outcome.problems.append(
            f"pass {number}: snapshot {info['fingerprint'][:12]} but the "
            f"cache rebuilds {rebuilt.fingerprint[:12]}")
    if len({p["fingerprint"] for p in passes}) != 1:
        outcome.failed += 1
        outcome.problems.append("passes produced different snapshots")


# -- churn --------------------------------------------------------------------


@dataclass
class _ChurnCtx:
    corpus: object
    watched: list[str]
    cache: PipelineCache
    scheduler: IngestScheduler
    #: The bootstrap snapshot, unsharded: the checks rebuild each round's
    #: snapshot from it and the round's patches.
    initial: object
    sharded: object
    server: AnnotationServer
    front: AsyncFrontEnd
    key: str
    stream: ReadStream
    plan: EditPlan
    warm_failures: int

    def close(self) -> None:
        self.server.stop()


def _churn_config(sizes: Sizes) -> ServerConfig:
    return dataclasses.replace(SERVER_CONFIG, shards=sizes.shards)


def _churn_setup(run: Run) -> _ChurnCtx:
    sizes = run.sizes
    corpus = _corpus(sizes)
    watched = corpus.domains[:sizes.churn_domains]
    cache = run.cache("churn-cache")
    scheduler = IngestScheduler(corpus, OPTIONS, cache, domains=watched,
                                policy=SchedulePolicy(interval_rounds=1),
                                seed=run.seed)
    initial = snapshot_mod.build_snapshot(scheduler.bootstrap(),
                                          source="ingest")
    sharded = partition_snapshot(initial, sizes.shards)
    server = AnnotationServer(sharded, _churn_config(sizes))
    server.start()
    front, key = _front(server, sizes.clients)
    stream = ReadStream(server.index, run.seed)
    warm = ReadLog()
    asyncio.run(drive(front, key, ReadStream(server.index, run.seed,
                                             label="warm"),
                      warm, clients=sizes.clients, reads=sizes.burst_reads))
    plan = EditPlan(mutable_domains(corpus, watched), run.seed, sizes.edits,
                    sizes.shards)
    return _ChurnCtx(corpus, watched, cache, scheduler, initial, sharded,
                     server, front, key, stream, plan, warm.failed)


@dataclass
class _Round:
    """What one churn round did, kept small: memory must not grow with
    the number of rounds a run fits in."""

    number: int
    edits: list
    patches: list
    #: Fingerprint of the refreshed sharded snapshot.
    fingerprint: str
    #: An edited domain that ingest patched, or None if it patched none.
    probe_domain: str | None
    #: Digest of the probe's body, or None if there was no OK probe.
    probe: bytes | None
    ingest_s: float
    fresh_s: float
    log: ReadLog


async def _churn_rounds(run: Run, ctx: _ChurnCtx) -> list[_Round]:
    sizes = run.sizes
    rounds: list[_Round] = []
    started = perf_counter()
    while (len(rounds) < sizes.trace_rounds if run.fixed
           else perf_counter() - started < run.seconds or not rounds):
        number = len(rounds) + 1
        edits = ctx.plan.round(number)
        for domain, revision in edits:
            mutate_domain(ctx.corpus, domain, revision)
        published = perf_counter()
        report = ctx.scheduler.run_round()
        ingested = perf_counter()
        refreshed = refresh_mod.apply_patches_sharded(
            ctx.sharded, report.patches).sharded
        ctx.server.swap_snapshot(refreshed)
        patched = {p.domain for p in report.patches}
        probe_domain = next((d for d, _ in edits if d in patched), None)
        probe = None
        if probe_domain is not None:
            answer = await ctx.front.handle(ctx.key,
                                            DomainLookup(probe_domain))
            probe = _sha(answer.body) if answer.status == OK else None
        fresh = perf_counter() - published
        ctx.sharded = refreshed
        run.calibrate()
        log = ReadLog(keep_bodies=run.fixed)
        await drive(ctx.front, ctx.key, ctx.stream, log,
                    clients=sizes.clients, reads=sizes.burst_reads,
                    rec=run.rec)
        log.seal()
        run.calibrate()
        rounds.append(_Round(
            number, edits, report.patches, refreshed.fingerprint,
            probe_domain, probe, ingested - published, fresh, log))
    return rounds


def churn(run: Run):
    ctx, setups = _set_up(run, _churn_setup, run.sizes.setups)
    sizes = run.sizes
    try:
        rounds = asyncio.run(_churn_rounds(run, ctx))
    finally:
        ctx.close()
    reads = sum(len(r.log.latencies) for r in rounds)
    read_wall = sum(r.log.wall for r in rounds)
    hits = sum(r.log.hits for r in rounds)
    bursts = [percentiles_ms(r.log.latencies) for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # Ingest alone (change detection, re-crawl, re-annotation);
        # ``freshness_ms`` covers ingest, refresh, swap and the probe.
        "domains_per_s": (sizes.edits * len(rounds)
                          / sum(r.ingest_s for r in rounds), "1/s"),
        "rps": (reads / read_wall, "1/s"),
        # Each burst's percentiles, averaged over the bursts: a
        # percentile over every read of the run would snap to whichever
        # machine speed served most of them.
        "p50_ms": (statistics.fmean(b["p50_ms"] for b in bursts), "ms"),
        "p99_ms": (statistics.fmean(b["p99_ms"] for b in bursts), "ms"),
        "freshness_ms": (statistics.fmean(r.fresh_s for r in rounds)
                         * 1000.0, "ms"),
    }
    outputs = [[r.number, r.fingerprint, r.probe and r.probe.hex(),
                _bodies_digest(r.log.bodies)] for r in rounds]
    outcome = Outcome(
        metrics=metrics, attempted=reads + 2 * len(rounds) + 1,
        failed=ctx.warm_failures, problems=[],
        record={"N": len(ctx.watched), "K": sizes.edits, "S": sizes.shards,
                "R": len(rounds), "clients": sizes.clients,
                "server": _config(_churn_config(sizes)),
                "burst_reads": sizes.burst_reads, "reads": reads,
                "read_wall_s": read_wall, "hit_ratio": hits / max(1, reads),
                "latency_samples": {
                    "bursts": len(bursts),
                    "per_burst": bursts[0]["samples"],
                    "beyond_p99_per_burst": bursts[0]["beyond_p99"]},
                "setup_s": setups,
                "rounds": [{"round": r.number, "edits": r.edits,
                            "patched": sorted(p.domain for p in r.patches),
                            "ingest_s": r.ingest_s,
                            "freshness_s": r.fresh_s,
                            "burst_s": r.log.wall,
                            "burst_hits": r.log.hits,
                            "burst_p50_ms": b["p50_ms"],
                            "burst_p99_ms": b["p99_ms"]}
                           for r, b in zip(rounds, bursts)],
                "inputs_digest": digest({
                    "reads": ctx.stream.digest(DIGEST_READS),
                    "edits": ctx.plan.schedule(DIGEST_ROUNDS)})},
        output_digest=digest(outputs),
        reads=reads, hits=hits, shed=sum(r.log.shed for r in rounds))
    return outcome, (run, ctx, rounds)


def _records(snapshot_or_result, domains) -> dict[str, str]:
    return {r.domain: r.to_json() for r in snapshot_or_result.records
            if r.domain in domains}


#: What the churn check processes read: set just before they are forked,
#: so they inherit it instead of receiving it pickled.
_CHECKED = None


def check_churn(outcome: Outcome, state) -> None:
    """The oracle is a second corpus, built from the seed and given the
    same edits, annotated by pipeline runs without a cache: nothing the
    scheduler or its cache holds feeds it.

    The bootstrap snapshot must equal a cold pipeline run over every
    watched domain of the unedited reference corpus. Per round, ingest
    must have patched an edited domain and nothing else; every edited
    domain's record must equal the oracle's; the sharded refresh must
    equal the round's patches applied to the unsharded snapshot; and the
    probe and every burst answer must equal a plain engine's over that
    snapshot. Together these make the snapshot served after every round
    equal a cold run over every watched domain of that round's world. At
    the end ``refresh_differential`` must also report identical.

    The rounds are checked in chunks, beside the other two checks, by
    ``CHECK_WORKERS`` forked processes on every CPU the run may use. Each
    edit is a pure function of (corpus seed, domain, revision), so a
    chunk needs only its own rounds' edits on the reference corpus."""
    global _CHECKED
    run, ctx, rounds = state
    predicates = ctx.stream.replay(
        [n for r in rounds for n in r.log.predicate_reads])
    size = math.ceil(len(rounds) / CHECK_CHUNKS)
    jobs = [("rounds", start, min(start + size, len(rounds)))
            for start in range(0, len(rounds), size)]
    jobs += [("bootstrap", 0, 0), ("differential", 0, 0)]
    cpus = run.check_cpus or os.sched_getaffinity(0)
    _CHECKED = (run, ctx, rounds, predicates, _corpus(run.sizes))
    try:
        with ProcessPoolExecutor(
                max_workers=min(CHECK_WORKERS, len(cpus)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=os.sched_setaffinity,
                initargs=(0, cpus)) as pool:
            results = list(pool.map(_check_job, jobs))
    finally:
        _CHECKED = None
    outcome.failed += sum(failed for failed, _ in results)
    outcome.problems = [p for _, found in results for p in found][:10]


def _check_job(job: tuple) -> tuple[int, list[str]]:
    kind, start, stop = job
    if kind == "rounds":
        return _check_rounds(start, stop)
    run, ctx, _, _, _ = _CHECKED
    if kind == "differential":
        verdict = refresh_mod.refresh_differential(
            ctx.corpus, OPTIONS, ctx.cache, ctx.sharded, domains=ctx.watched)
        if verdict["identical"]:
            return 0, []
        return 1, [f"refresh differential: {json.dumps(verdict)}"]
    # A corpus of its own: the inherited one may carry a chunk's edits.
    rebuilt = snapshot_mod.snapshot_from_result(
        run_pipeline(_corpus(run.sizes), OPTIONS, domains=ctx.watched))
    if rebuilt.fingerprint == ctx.initial.fingerprint:
        return 0, []
    return 1, [f"bootstrap snapshot {ctx.initial.fingerprint[:12]} but a "
               f"cold run gives {rebuilt.fingerprint[:12]}"]


def _check_rounds(start: int, stop: int) -> tuple[int, list[str]]:
    """Check rounds ``start`` to ``stop`` (indexes into the run's rounds),
    starting from the snapshot with every earlier round's patches."""
    run, ctx, rounds, predicates, corpus = _CHECKED
    snapshot = refresh_mod.apply_patches(
        ctx.initial, [p for r in rounds[:start] for p in r.patches])
    failed, problems = 0, []
    for r in rounds[start:stop]:
        snapshot = refresh_mod.apply_patches(snapshot, r.patches)
        for domain, revision in r.edits:
            mutate_domain(corpus, domain, revision)
        edited = {d for d, _ in r.edits}
        expected = _records(run_pipeline(corpus, OPTIONS,
                                         domains=sorted(edited)), edited)
        engine = QueryEngine(CorpusIndex.build(snapshot))
        patched = sorted(p.domain for p in r.patches)
        wrong = []
        if r.probe_domain is None or not set(patched) <= edited:
            wrong.append(f"patch set {patched}")
        elif r.probe != _sha(engine.execute(
                DomainLookup(r.probe_domain)).to_json()):
            wrong.append(f"probe of {r.probe_domain}")
        if _records(snapshot, edited) != expected:
            wrong.append("edited records")
        if snapshot.fingerprint != r.fingerprint:
            wrong.append("sharded refresh")
        if wrong:
            failed += 1
            problems.append(f"round {r.number}: wrong {', '.join(wrong)}")
        r.log.check_against(engine, f"round {r.number}", predicates)
        failed += r.log.failed
        problems.extend(r.log.problems)
    return failed, problems


WORKLOADS = {
    "batch": (batch, check_batch),
    "churn": (churn, check_churn),
}
