"""Seeded workloads and the one closed-loop load driver for serving.

Models the traffic shape the ROADMAP's north star implies: a large
population of readers whose interest in domains is heavily skewed
(zipfian — a few companies get most of the lookups, PrivaSeer-style) and
whose requests mix cheap point lookups with heavier aggregates.

The generator is a pure function of ``(snapshot, WorkloadConfig)``: the
same seed always produces the same request sequence, and requests are
dealt to clients round-robin, so a load run is reproducible end-to-end.
Clients are *closed-loop* — each waits for its response before sending
the next request — which is what makes the measured latency distribution
meaningful under admission control (an open-loop generator would just
measure its own backlog). Every load run in the package uses the same
clients: coroutines on one event loop (:func:`run_load`,
:func:`run_tenants`), reported as one :class:`LoadReport`.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.compliance.oracle import random_predicate
from repro.compliance.rules import get_pack
from repro.errors import QueryError
from repro.serve.index import COMPLIANCE_PACKS, FACETS, TABLES, CorpusIndex
from repro.serve.query import (
    AspectMentions,
    ComplianceScan,
    DomainLookup,
    FacetFilter,
    PredicateQuery,
    Query,
    SectorAggregate,
    TableAggregate,
    TopDescriptors,
    query_kind,
)
from repro.serve.server import (
    ERROR,
    OK,
    OVERLOADED,
    AnnotationServer,
    percentile,
)
from repro.serve.shard import engine_for

_ASPECTS = ("types", "purposes", "handling", "rights")

#: Default query-class mix: mostly point lookups (the Polisis-style UI
#: pattern), a steady trickle of faceted and aggregate traffic, plus the
#: PR-8 compliance surface (predicate queries and rule-pack scans) so
#: overload, chaos, and multi-tenant runs exercise those endpoints too.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("domain", 0.40),
    ("filter", 0.14),
    ("top-descriptors", 0.11),
    ("sector", 0.11),
    ("aspect", 0.06),
    ("table", 0.10),
    ("predicate", 0.05),
    ("compliance", 0.03),
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one generated workload."""

    seed: int = 0
    requests: int = 1000
    #: Zipf exponent for domain popularity (1.0–1.3 matches web traffic).
    zipf_s: float = 1.1
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalized zipf weights for ranks 1..n."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def generate_workload(index: CorpusIndex,
                      config: WorkloadConfig) -> list[Query]:
    """Deterministically generate the request sequence for one load run."""
    rng = random.Random(config.seed)
    domains = sorted(index.by_domain)
    # Popularity rank is a seeded shuffle of the domain list, so the hot
    # set is stable per seed but not simply "alphabetically first".
    ranked = list(domains)
    rng.shuffle(ranked)
    weights = zipf_weights(len(ranked), config.zipf_s)
    sectors = sorted(index.domains_by_sector) or ["--"]
    kinds = [kind for kind, _ in config.mix]
    shares = [share for _, share in config.mix]
    # Deterministic atom pool for predicate generation: the index's atom
    # catalog in (aspect, atom-key) order — identical for a single index
    # and any sharded merge of the same corpus.
    atom_pool = [atom for aspect in sorted(index.atoms_by_aspect)
                 for atom in index.atoms_by_aspect[aspect]]

    def hot_domain() -> str:
        if not ranked:
            return "empty.invalid"
        return rng.choices(ranked, weights=weights, k=1)[0]

    def pick(pool: list[str], fallback: str) -> str:
        return rng.choice(pool) if pool else fallback

    workload: list[Query] = []
    for _ in range(config.requests):
        kind = rng.choices(kinds, weights=shares, k=1)[0]
        if kind == "domain":
            workload.append(DomainLookup(domain=hot_domain()))
        elif kind == "filter":
            facet = rng.choice(FACETS)
            categories = sorted(index.domains_by_category[facet])
            query = FacetFilter(
                facet=facet,
                category=pick(categories, "none"),
                sector=rng.choice(sectors) if rng.random() < 0.3 else None,
            )
            workload.append(query)
        elif kind == "top-descriptors":
            workload.append(TopDescriptors(
                facet=rng.choice(FACETS),
                k=rng.choice((5, 10, 25)),
                sector=rng.choice(sectors) if rng.random() < 0.25 else None,
            ))
        elif kind == "sector":
            workload.append(SectorAggregate(sector=rng.choice(sectors)))
        elif kind == "aspect":
            workload.append(AspectMentions(aspect=rng.choice(_ASPECTS),
                                           limit=rng.choice((10, 25, 50))))
        elif kind == "predicate":
            if atom_pool:
                workload.append(PredicateQuery.from_predicate(
                    random_predicate(rng, atom_pool),
                    evidence=rng.random() < 0.2))
            else:  # nothing annotated: degrade to a point lookup
                workload.append(DomainLookup(domain=hot_domain()))
        elif kind == "compliance":
            pack = rng.choice(sorted(COMPLIANCE_PACKS))
            rule = rng.choice(get_pack(pack).rule_ids()) \
                if rng.random() < 0.3 else None
            sector = rng.choice(sectors) if rng.random() < 0.25 else None
            workload.append(ComplianceScan(pack=pack, rule=rule,
                                           sector=sector))
        else:  # table
            workload.append(TableAggregate(table=rng.choice(TABLES)))
    return workload


#: Outcome status of a request still unanswered at its client's deadline.
TIMEOUT = "timeout"


@dataclass(frozen=True)
class Outcome:
    """One request as its client saw it."""

    kind: str
    status: str  # OK | OVERLOADED | ERROR | TIMEOUT
    body: str
    cached: bool
    latency_s: float  # send to answer (or to the deadline)


def _tally(status: str) -> property:
    return property(lambda report: sum(
        1 for outcome in report.outcomes if outcome.status == status))


@dataclass
class LoadReport:
    """One closed-loop run: an :class:`Outcome` per request, in workload
    order. Every count and percentile is derived from ``outcomes``."""

    outcomes: list[Outcome] = field(default_factory=list)
    wall_s: float = 0.0

    ok = _tally(OK)
    shed = _tally(OVERLOADED)
    errors = _tally(ERROR)
    #: Requests that missed the client deadline (``deadline_s``) — a
    #: stall the serving layer promised never to produce.
    timeouts = _tally(TIMEOUT)

    @property
    def requests(self) -> int:
        return len(self.outcomes)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes
                   if outcome.status == OK and outcome.cached)

    @property
    def by_kind(self) -> dict[str, int]:
        return dict(Counter(outcome.kind for outcome in self.outcomes))

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def percentiles_ms(self, kind: str | None = None) -> dict[str, float]:
        samples = [outcome.latency_s for outcome in self.outcomes
                   if kind is None or outcome.kind == kind]
        return {name: round(percentile(samples, pct) * 1000.0, 4)
                for name, pct in (("p50", 50.0), ("p95", 95.0),
                                  ("p99", 99.0))}

    def as_dict(self) -> dict:
        by_kind = dict(sorted(self.by_kind.items()))
        return {
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "cached": self.cached,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "by_kind": by_kind,
            "latency_ms": self.percentiles_ms(),
            "latency_ms_by_kind": {kind: self.percentiles_ms(kind)
                                   for kind in by_kind},
        }


def load_tally(name: str) -> property:
    """Read-only view of one :class:`LoadReport` tally, for a harness
    report that keeps its run's report as ``load``."""
    return property(lambda report: getattr(report.load, name))


def oracle_answers(snapshot, workload: list[Query]) -> list[tuple[str, str]]:
    """The fault-free ``(status, body)`` of every request, positionally.

    A plain engine over ``snapshot`` — no server, no cache — is the
    ground truth; a query it rejects is answered ``(error, message)``,
    exactly as the server answers it.
    """
    engine = engine_for(snapshot)
    answers: list[tuple[str, str]] = []
    for query in workload:
        try:
            answers.append((OK, engine.execute(query).to_json()))
        except QueryError as exc:
            answers.append((ERROR, str(exc)))
    return answers


async def _drive(streams, *, deadline_s: float | None = None,
                 midrun=None) -> list[LoadReport]:
    """Run ``(send, workload, clients)`` streams on the running loop.

    ``send`` is an async ``query -> ServeResponse``. Request ``i`` of a
    stream belongs to its client ``i % clients``. A request unanswered
    after ``deadline_s`` is recorded as :data:`TIMEOUT` (its future is
    cancelled) and the client moves on. ``midrun=(after, hook)`` awaits
    ``hook(request)`` beside the clients once ``after`` requests have
    resolved; ``request(query)`` sends one more query down the first
    stream and returns its :class:`Outcome`. Exceptions propagate.
    """
    for _, _, clients in streams:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
    hook = None
    if midrun is not None:
        after, hook = midrun
        after = min(after, sum(len(workload) for _, workload, _ in streams))
    reached = asyncio.Event()
    resolved = 0

    async def request(send, query: Query) -> Outcome:
        sent = time.perf_counter()
        pending = send(query)
        if deadline_s is not None:
            pending = asyncio.wait_for(pending, deadline_s)
        try:
            response = await pending
        except asyncio.TimeoutError:
            return Outcome(query_kind(query), TIMEOUT, "", False,
                           time.perf_counter() - sent)
        return Outcome(response.kind, response.status, response.body,
                       response.cached, time.perf_counter() - sent)

    async def client(send, workload, outcomes, first: int,
                     clients: int) -> None:
        nonlocal resolved
        for index in range(first, len(workload), clients):
            outcomes[index] = await request(send, workload[index])
            resolved += 1
            if hook is not None and resolved >= after:
                reached.set()

    async def stream(send, workload, clients: int) -> LoadReport:
        outcomes: list = [None] * len(workload)
        await asyncio.gather(*(client(send, workload, outcomes, n, clients)
                               for n in range(clients)))
        return LoadReport(outcomes, time.perf_counter() - started)

    async def run_hook() -> None:
        if after > 0:
            await reached.wait()
        await hook(functools.partial(request, streams[0][0]))

    started = time.perf_counter()
    jobs = [stream(*spec) for spec in streams]
    if hook is not None:
        jobs.append(run_hook())
    return (await asyncio.gather(*jobs))[:len(streams)]


def run_load(server: AnnotationServer, workload: list[Query],
             clients: int = 4, *, deadline_s: float | None = None,
             midrun=None) -> LoadReport:
    """Drive a started server with ``clients`` closed-loop clients, each
    request sent through ``asyncio.wrap_future(server.submit(query))``.

    See :func:`_drive` for ``deadline_s`` and ``midrun``; a client's
    exception (e.g. ``ServeError`` from a stopped server) is raised.
    """
    def send(query: Query):
        return asyncio.wrap_future(server.submit(query))

    (report,) = asyncio.run(_drive([(send, workload, clients)],
                                   deadline_s=deadline_s, midrun=midrun))
    return report


def run_tenants(front, tenants: dict[str, tuple[list[Query], int]]
                ) -> dict[str, LoadReport]:
    """One closed-loop stream per tenant through ``front.handle``, all on
    one event loop; ``tenants`` maps a name to ``(workload, clients)``."""
    streams = [(functools.partial(front.handle,
                                  front.registry.api_key_for(name)),
                workload, clients)
               for name, (workload, clients) in tenants.items()]
    return dict(zip(tenants, asyncio.run(_drive(streams))))


__all__ = [
    "DEFAULT_MIX",
    "TIMEOUT",
    "LoadReport",
    "Outcome",
    "WorkloadConfig",
    "generate_workload",
    "load_tally",
    "oracle_answers",
    "run_load",
    "run_tenants",
    "zipf_weights",
]
