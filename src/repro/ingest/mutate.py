"""Deterministic simulated policy changes — the ingest loop's change feed.

The corpus builder is a one-shot function of the seed; continuous
ingestion needs the *world to change* under the watcher in a replayable
way. :func:`mutate_domain` re-runs the corpus generators for one healthy
domain under a revision-derived seed — new practices, a freshly written
policy, a rebuilt site registered over the old one — so the domain's
:func:`~repro.pipeline.cache.domain_input_fingerprint` moves exactly the
way a real site edit would. :func:`touch_domain` is the control case: it
changes a serving knob (page latency) that moves the input fingerprint
without changing any extracted text, so the scheduler re-crawls and
re-annotates the domain and emits no patch for it.

Everything is a pure function of ``(corpus seed, domain, revision)``:
two corpora built from the same seed and mutated through the same
revisions are byte-identical, which is what makes ingest runs, tests,
and benches replayable.
"""

from __future__ import annotations

from repro._util.rng import SeedSequence, derive_rng, stable_hash
from repro.corpus.policytext import PolicyWriter
from repro.corpus.profiles import PracticeSampler
from repro.corpus.sitegen import SiteBuilder
from repro.errors import IngestError
from repro.pipeline.cache import domain_input_fingerprint


def mutable_domains(corpus, domains=None) -> list[str]:
    """Domains whose sites can be regenerated: healthy ones only.

    Failing sites are *designed* artifacts (their failure mode is part of
    the corpus ground truth); regenerating them as healthy sites would
    silently change the corpus's failure plan.
    """
    pool = domains if domains is not None else corpus.domains
    return [d for d in pool if corpus.failure_mode_of.get(d) is None]


def mutate_domain(corpus, domain: str, revision: int) -> str:
    """Publish revision ``revision`` of one healthy domain's policy.

    Re-samples the company's practices, rewrites the policy document, and
    rebuilds + re-registers the site, all under a seed derived from
    ``(corpus seed, domain, revision)`` — deterministic, and distinct per
    revision. Returns the domain's new input fingerprint.
    """
    if domain not in corpus.sector_of:
        raise IngestError(f"cannot mutate unknown domain {domain!r}")
    if corpus.failure_mode_of.get(domain) is not None:
        raise IngestError(
            f"cannot mutate {domain!r}: it carries designed failure mode "
            f"{corpus.failure_mode_of[domain]!r} (mutate healthy domains "
            f"only)")
    seeds = SeedSequence(stable_hash(corpus.config.seed, "ingest-mutation",
                                     domain, revision))
    practice = PracticeSampler(seeds).sample(domain, corpus.sector_of[domain])
    doc = PolicyWriter(seeds).write(practice,
                                    corpus.company_name_of[domain],
                                    vacuous=domain in corpus.vacuous_domains)
    site, blueprint = SiteBuilder(seeds).build_healthy_site(doc)
    corpus.internet.register(site)  # register() replaces the old site
    corpus.practices[domain] = practice
    corpus.documents[domain] = doc
    corpus.blueprints[domain] = blueprint
    return domain_input_fingerprint(corpus, domain)


def touch_domain(corpus, domain: str) -> str:
    """Move a domain's input fingerprint without changing its content.

    Bumps one page's simulated latency — a crawl-relevant serving knob
    that enters the site fingerprint but never the extracted policy text.
    The scheduler re-crawls and re-annotates such a domain, gets a
    byte-identical record and emits no patch (``ingest.output_unchanged``).
    Returns the new input fingerprint.
    """
    site = corpus.internet.site_for_host(domain)
    if site is None or not site.pages:
        raise IngestError(f"cannot touch {domain!r}: no registered pages")
    site.pages[sorted(site.pages)[0]].latency_ms += 1
    return domain_input_fingerprint(corpus, domain)


class PolicyChangeFeed:
    """A seeded stream of policy changes over a corpus's healthy domains.

    Each round mutates ``per_round`` distinct domains chosen by a seeded
    sample, bumping a per-domain revision counter so repeated picks keep
    producing *new* policies. Two feeds with the same seed over corpora
    built from the same seed apply identical changes — the replayability
    contract the watcher tests and ``bench_ingest`` rely on.
    """

    def __init__(self, corpus, *, seed: int = 0, per_round: int = 1,
                 domains=None):
        if per_round < 1:
            raise IngestError(f"per_round must be >= 1, got {per_round}")
        self.corpus = corpus
        self.seed = seed
        self.per_round = per_round
        self.pool = mutable_domains(corpus, domains)
        if not self.pool:
            raise IngestError("change feed needs at least one healthy "
                              "domain to mutate")
        self.round_no = 0
        self._revisions: dict[str, int] = {}

    def next_round(self) -> list[str]:
        """Mutate this round's sample; returns the changed domains."""
        self.round_no += 1
        rng = derive_rng(self.seed, "policy-change-feed", self.round_no)
        chosen = sorted(rng.sample(self.pool,
                                   min(self.per_round, len(self.pool))))
        for domain in chosen:
            revision = self._revisions.get(domain, 0) + 1
            self._revisions[domain] = revision
            mutate_domain(self.corpus, domain, revision)
        return chosen


__all__ = [
    "PolicyChangeFeed",
    "mutable_domains",
    "mutate_domain",
    "touch_domain",
]
