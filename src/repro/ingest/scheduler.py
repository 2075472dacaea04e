"""The ingest watcher: policy-driven re-crawl with delta re-annotation.

:class:`IngestScheduler` keeps an in-memory ledger of what each watched
domain last looked like — its input fingerprint and the served
annotation record — and re-checks domains on a :class:`SchedulePolicy`
(interval with seeded stagger, priority domains every round, explicit
triggers). Each round emits a :class:`~repro.ingest.refresh.RecordPatch`
set describing exactly what the serving snapshot must change, and
nothing else.

Change detection is one test, the **input fingerprint**
(:func:`~repro.pipeline.cache.domain_input_fingerprint`). Unchanged →
the domain is *skipped entirely*: no crawl, no cache I/O beyond the
fingerprint hash, counted under ``ingest.skipped``. Changed → the domain
runs through the pipeline's one per-domain step,
:func:`~repro.pipeline.cache.process_domain`, with the scheduler's cache
and keys: the records layer, then the crawl layer, then the annotate
step, each checkpointed. Bootstrap runs every watched domain through the
same step, so every cache entry the watcher writes is one a pipeline run
would write, and a full pipeline re-run over the mutated corpus replays
byte-identical records (the differential proof the refresh harness
asserts), traces, token counts and fetch counters. An annotate step on an
extracted document counts under ``ingest.annotated``; a changed domain
whose record lands byte-identical (a latency knob, a robots tweak that
alters no text) emits no patch (``ingest.output_unchanged``).

Rounds are replayable: the due set and its order are pure functions of
``(seed, round number, policy, watched set)``.

Compaction (``compact_every`` rounds, or :meth:`IngestScheduler.compact`)
prunes cache entries no live ``(domain, token)`` pair can address —
superseded checkpoints from earlier revisions — Retikon-style background
garbage collection for the content-addressed store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro._util.profiling import StageTimings
from repro._util.rng import stable_hash
from repro.errors import IngestError
from repro.ingest.refresh import RecordPatch
from repro.pipeline.cache import CacheKeys, process_domain
from repro.pipeline.records import DomainAnnotations
from repro.pipeline.runner import PipelineOptions
from repro.crawler.crawler import PrivacyCrawler
from repro.web.browser import Browser


@dataclass(frozen=True)
class SchedulePolicy:
    """When the watcher re-checks a domain.

    ``interval_rounds`` spreads routine re-checks: each domain is due
    once every N rounds, staggered by a seeded hash so round workloads
    stay even. ``priority`` domains are re-checked every round
    regardless. Explicit :meth:`IngestScheduler.trigger` calls make a
    domain due on the next round only.
    """

    interval_rounds: int = 1
    priority: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.interval_rounds < 1:
            raise IngestError(
                f"interval_rounds must be >= 1, got {self.interval_rounds}")


@dataclass
class DomainState:
    """Ledger entry: what the watcher last saw for one domain."""

    input_fp: str
    record: DomainAnnotations


@dataclass
class IngestRound:
    """What one watcher round checked, skipped, changed, and patched."""

    number: int
    due: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    changed: list[str] = field(default_factory=list)
    patches: list[RecordPatch] = field(default_factory=list)
    compacted: int = 0

    def to_payload(self) -> dict:
        return {
            "round": self.number,
            "due": len(self.due),
            "skipped": len(self.skipped),
            "changed": len(self.changed),
            "patches": [{"op": p.op, "domain": p.domain}
                        for p in self.patches],
            "compacted": self.compacted,
        }


class IngestScheduler:
    """Deterministic re-crawl loop over the simulated internet.

    ``domains`` restricts the watch to a subset of the corpus (the bench
    and the CLI watch the first N domains); ``seed`` drives the queue
    order and interval stagger; ``compact_every`` > 0 runs cache
    compaction after every Nth round. The scheduler owns one
    :class:`~repro.pipeline.cache.CacheKeys` for its lifetime, so its
    option/lexicon tokens are fixed and the ledger's records are always
    comparable to what the cache would serve.
    """

    def __init__(self, corpus, options: PipelineOptions | None = None,
                 cache=None, *, domains=None,
                 policy: SchedulePolicy | None = None, seed: int = 0,
                 compact_every: int = 0):
        if cache is None:
            raise IngestError(
                "IngestScheduler needs a PipelineCache: the delta path is "
                "defined in terms of the two-layer cache's keys and "
                "counters")
        self.corpus = corpus
        self.options = options or PipelineOptions()
        self.cache = cache
        self.policy = policy or SchedulePolicy()
        self.seed = seed
        self.compact_every = compact_every
        self.domains = list(dict.fromkeys(
            domains if domains is not None else corpus.domains))
        self.keys = CacheKeys(corpus, self.options)
        self.counters = StageTimings()
        self.ledger: dict[str, DomainState] = {}
        self.round_no = 0
        self._triggered: set[str] = set()
        self._crawler = PrivacyCrawler(Browser(internet=corpus.internet))

    # -- watch-set management --------------------------------------------

    def trigger(self, *domains: str) -> None:
        """Make domains due on the next round, whatever the policy says."""
        for domain in domains:
            if domain not in self.corpus.sector_of:
                raise IngestError(f"cannot trigger unknown domain "
                                  f"{domain!r}")
            self._triggered.add(domain)

    def launch(self, domain: str) -> None:
        """Add a corpus domain to the watch set (an *add* patch follows)."""
        if domain not in self.corpus.sector_of:
            raise IngestError(f"cannot launch unknown domain {domain!r}")
        if domain not in self.domains:
            self.domains.append(domain)

    def retire(self, domain: str) -> None:
        """Drop a domain from the watch set (a *remove* patch follows)."""
        try:
            self.domains.remove(domain)
        except ValueError:
            raise IngestError(f"cannot retire unwatched domain {domain!r}")

    # -- scheduling ------------------------------------------------------

    def due_domains(self, round_no: int) -> list[str]:
        """The seeded, replayable queue for one round.

        Due: interval-due watched domains (staggered), priority domains,
        triggered domains, never-ingested (launched) domains, and
        retired-but-still-served domains (due so their removal patch is
        emitted). Order is a seeded shuffle — stable for (seed, round).
        """
        watched = set(self.domains)
        due = {d for d in self._triggered if d in watched}
        due.update(d for d in self.policy.priority if d in watched)
        interval = self.policy.interval_rounds
        for domain in self.domains:
            if domain not in self.ledger:
                due.add(domain)
            elif (round_no + stable_hash(self.seed, "stagger", domain)) \
                    % interval == 0:
                due.add(domain)
        due.update(d for d in self.ledger if d not in watched)
        return sorted(due, key=lambda d: (
            stable_hash(self.seed, "queue", round_no, d), d))

    # -- the loop --------------------------------------------------------

    def bootstrap(self) -> list[DomainAnnotations]:
        """First full pass: fill the ledger (and warm the cache) for every
        watched domain; returns the records the initial snapshot holds."""
        for domain in self.domains:
            self._ingest(domain, self.keys.refresh_domain(domain))
        self.counters.increment("ingest.bootstrapped", len(self.domains))
        return self.records()

    def records(self) -> list[DomainAnnotations]:
        """The currently-served record set, in watch order."""
        return [self.ledger[d].record for d in self.domains
                if d in self.ledger]

    def run_round(self) -> IngestRound:
        """One watcher round: check due domains, emit the patch set."""
        self.round_no += 1
        watched = set(self.domains)
        due = self.due_domains(self.round_no)
        self._triggered.clear()
        result = IngestRound(number=self.round_no, due=due)
        for domain in due:
            self.counters.increment("ingest.checked")
            if domain not in watched:
                if self.ledger.pop(domain, None) is not None:
                    result.patches.append(RecordPatch.remove(domain))
                    result.changed.append(domain)
                    self.counters.increment("ingest.retired")
                continue
            state = self.ledger.get(domain)
            fp = self.keys.refresh_domain(domain)
            if state is not None and state.input_fp == fp:
                result.skipped.append(domain)
                self.counters.increment("ingest.skipped")
                continue
            result.changed.append(domain)
            record = self._ingest(domain, fp)
            if state is None:
                result.patches.append(RecordPatch.upsert(domain, record))
                self.counters.increment("ingest.launched")
            elif state.record.canonical() != record.canonical():
                result.patches.append(RecordPatch.upsert(domain, record))
                self.counters.increment("ingest.patched")
            else:
                # Inputs moved but the annotation landed byte-identical
                # (a serving knob, or a change that round-tripped): the
                # serving snapshot needs nothing.
                self.counters.increment("ingest.output_unchanged")
        if self.compact_every and self.round_no % self.compact_every == 0:
            result.compacted = self.compact()
        return result

    # -- the per-domain delta path ---------------------------------------

    @cached_property
    def _cascade(self):
        """The cascade model every per-domain step of this scheduler
        uses, resolved at the first one (``None`` unless the options
        select the cascade)."""
        from repro.pipeline.cascade import cascade_model_for

        return cascade_model_for(self.options)

    def _ingest(self, domain: str, input_fp: str) -> DomainAnnotations:
        """Run one changed (or new) domain through
        :func:`~repro.pipeline.cache.process_domain` and record it in the
        ledger.

        Each annotate step on an extracted document enters the
        ``segment`` stage once, so a rise of that stage's count is what
        ``ingest.annotated`` counts.
        """
        segmented = self.counters.count("segment")
        entry = process_domain(self.corpus, self._crawler, domain,
                               self.options, self.counters, self.cache,
                               self.keys, cascade=self._cascade)
        if self.counters.count("segment") > segmented:
            self.counters.increment("ingest.annotated")
        self.ledger[domain] = DomainState(input_fp, entry.record)
        return entry.record

    # -- compaction ------------------------------------------------------

    def live_keys(self) -> set[str]:
        """Every cache key the current watch set can still address."""
        live: set[str] = set()
        for domain in self.domains:
            live.add(self.keys.record_key(domain))
            live.add(self.keys.crawl_key(domain))
        return live

    def compact(self) -> int:
        """Prune superseded checkpoints from the cache store.

        Safe only because the watcher owns its cache directory; entries
        for other option sets or lexicon versions are superseded by
        definition from this loop's point of view.
        """
        removed = self.cache.prune(self.live_keys())
        self.counters.increment("ingest.compacted", removed)
        return removed

    def counts(self) -> dict[str, int]:
        return self.counters.counts()


__all__ = [
    "DomainState",
    "IngestRound",
    "IngestScheduler",
    "SchedulePolicy",
]
