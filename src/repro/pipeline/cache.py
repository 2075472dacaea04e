"""Content-addressed pipeline cache with checkpoint/resume.

At production scale (the ROADMAP's Russell-3000 north star) a crash mid-run
or a one-line lexicon tweak must not force recomputing every domain from
scratch. This module gives ``run_pipeline(cache_dir=...)`` a crash-safe,
content-addressed result store:

- **Content addressing.** Every cache key is a SHA-256 fingerprint of the
  domain's *inputs* (site bytes, robots rules, failure knobs, the simulated
  internet's seed), the *pipeline options*, and per-stage *version tokens*
  (hand-bumped code versions plus the
  :func:`~repro.chatbot.lexicon.lexicon_fingerprint` content hash of the
  taxonomies/label sets/cue tables). Unchanged inputs → same key → the
  stage is skipped; any changed byte → new key → recompute. Keys never
  depend on dict ordering, worker counts, or domain order.

- **Two layers.** The ``records`` layer stores a domain's final output
  (annotation record, trace, token counts, its crawl's fetch counters)
  keyed by *everything*; a warm rerun skips
  crawl/preprocess/segment/annotate entirely. The ``crawl`` layer stores
  the preprocessed combined document keyed only by inputs +
  crawl/preprocess versions, so editing a lexicon entry invalidates
  annotations but replays the stored document instead of re-crawling.

- **Checkpoint/resume.** Each completed domain is written immediately via
  temp-file + ``os.replace`` (atomic on POSIX), so a killed run — serial
  or any shard of the parallel executor — leaves only whole entries
  behind. Re-running with the same cache directory resumes from the last
  completed domain; the merge tolerates partially-written shards because
  reuse is per-domain, not per-shard.

- **Determinism.** Cached results are byte-identical to fresh computation
  for every worker count: replay-from-crawl re-seeds the per-domain model
  exactly as a fresh run would after crawling, and every entry carries the
  fetch counters of the crawl it came from, so a run that reads an entry
  reports the counts a fresh crawl would have sent.

One per-domain step, :func:`process_domain`, serves cached and uncached
runs alike and returns the domain's entry; a run's totals are the sum of
its entries.

Cache hit/miss counters are surfaced through
``PipelineResult.stage_timings`` (count-only entries named
``cache.record.hit`` etc.), which is how the bench/CI cache-correctness
jobs prove a warm run recomputed nothing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro._util.artifacts import content_digest, write_text_atomic
from repro.htmlkit import TextDocument, TextLine
from repro.pipeline.records import DomainAnnotations
from repro.pipeline.runner import (
    DomainTrace,
    PipelineOptions,
    annotate_document,
    model_for_domain,
    preprocess_domain,
)
from repro.web.net import FetchStats

#: Bump a stage's token when its code changes behaviour; entries keyed on
#: the old token are simply never hit again (no migration needed).
STAGE_VERSIONS = {
    "crawl": "1",
    "preprocess": "1",
    "segment": "1",
    "annotate": "1",
    "verify": "1",
}

#: On-disk entry schema; bump to orphan every existing entry at once.
SCHEMA_VERSION = 1

#: Counter names surfaced in ``PipelineResult.stage_timings``.
HIT_RECORD = "cache.record.hit"
MISS_RECORD = "cache.record.miss"
HIT_CRAWL = "cache.crawl.hit"
MISS_CRAWL = "cache.crawl.miss"

_LAYERS = ("records", "crawl")


def _digest(payload) -> str:
    """SHA-256 of a JSON-canonical rendering (sorted keys, no whitespace).

    Sorting makes the fingerprint independent of dict insertion order —
    two option mappings with permuted keys hash identically. Delegates to
    the shared :func:`repro._util.artifacts.content_digest`; the rendering
    is byte-for-byte what this module historically produced, so existing
    cache entries stay addressable.
    """
    return content_digest(payload)


def options_fingerprint(options: PipelineOptions) -> str:
    """Fingerprint of the full option set (model name/seed included)."""
    return _digest(asdict(options))


def site_fingerprint(site) -> str:
    """Fingerprint of one simulated website's crawl-relevant content.

    Covers every page byte and serving knob — paths, HTML (static and
    JS-appended), status, redirects, content type, language, latency —
    plus robots rules, bot blocking, and flakiness probabilities. Pages
    are hashed in sorted-path order so registration order is irrelevant.
    """
    payload = {
        "domain": site.domain,
        "blocks_bots": site.blocks_bots,
        "timeout_probability": site.timeout_probability,
        "reset_probability": site.reset_probability,
        "failure_mode": site.failure_mode,
        "robots": [[group.agents, group.allows, group.disallows,
                    group.crawl_delay] for group in site.robots.groups],
        "pages": [
            [path, page.html, page.js_html, page.js_delay_ms,
             int(page.status), page.redirect_to, page.content_type,
             page.language, page.latency_ms]
            for path, page in sorted(site.pages.items())
        ],
    }
    return _digest(payload)


def domain_input_fingerprint(corpus, domain: str) -> str:
    """Fingerprint of everything the crawl stage reads for one domain.

    The simulated internet's seed is included because fetch outcomes
    (timeouts, resets) are functions of ``(seed, url, attempt)``.
    """
    site = corpus.internet.site_for_host(domain)
    return _digest({
        "net_seed": corpus.internet.seed,
        "domain": domain,
        "sector": corpus.sector_of.get(domain, "??"),
        "site": site_fingerprint(site) if site is not None else None,
    })


class CacheKeys:
    """Precomputed cache keys for one ``(corpus, options)`` run.

    Per-domain input fingerprints are memoized; the memo dict is shared
    safely across executor threads (idempotent values, GIL-atomic dict
    ops).
    """

    def __init__(self, corpus, options: PipelineOptions):
        from repro.chatbot.lexicon import lexicon_fingerprint

        self.corpus = corpus
        self.options = options
        self.options_fp = options_fingerprint(options)
        self.lexicon_fp = lexicon_fingerprint()
        #: Crawl-layer token: crawl/preprocess code versions only — no
        #: options, no lexicon — so lexicon edits leave this layer valid.
        self.crawl_token = _digest({
            "schema": SCHEMA_VERSION,
            "stages": {name: STAGE_VERSIONS[name]
                       for name in ("crawl", "preprocess")},
        })
        #: Record-layer token: everything downstream depends on.
        record_payload = {
            "schema": SCHEMA_VERSION,
            "stages": dict(STAGE_VERSIONS),
            "lexicon": self.lexicon_fp,
            "options": self.options_fp,
        }
        if getattr(options, "annotator", "chatbot") == "cascade":
            # Cascade records also depend on the distilled model the run
            # would train; its provenance token keys them (thresholds are
            # already in the options fingerprint).
            from repro.pipeline.cascade import cascade_model_token

            record_payload["cascade_model"] = cascade_model_token(options)
        self.record_token = _digest(record_payload)
        self._domain_fps: dict[str, str] = {}

    def domain_fingerprint(self, domain: str) -> str:
        fp = self._domain_fps.get(domain)
        if fp is None:
            fp = self._domain_fps[domain] = \
                domain_input_fingerprint(self.corpus, domain)
        return fp

    def refresh_domain(self, domain: str) -> str:
        """Recompute one domain's input fingerprint, dropping the memo.

        The memo assumes the simulated internet is immutable for the
        run's lifetime; the ingest watcher mutates sites between rounds,
        so it must call this (not :meth:`domain_fingerprint`) to observe
        the change. Returns the fresh fingerprint.
        """
        fp = self._domain_fps[domain] = \
            domain_input_fingerprint(self.corpus, domain)
        return fp

    def crawl_key(self, domain: str) -> str:
        return _digest({"domain": self.domain_fingerprint(domain),
                        "token": self.crawl_token})

    def record_key(self, domain: str) -> str:
        return _digest({"domain": self.domain_fingerprint(domain),
                        "token": self.record_token})


# -- cache entries ------------------------------------------------------------


@dataclass
class CachedRecord:
    """One domain's final pipeline output, as stored in the records layer."""

    record: DomainAnnotations
    trace: DomainTrace
    prompt_tokens: int
    completion_tokens: int
    fetch: FetchStats

    def to_json(self) -> str:
        """The entry's file text, with the record's own ``to_json``
        spliced in rather than decoded and encoded again: the bytes
        ``json.dumps`` renders for the decoded entry, since both render
        with the default separators and ``ensure_ascii=False``."""
        rest = json.dumps({
            "trace": asdict(self.trace),
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "fetch": self.fetch.as_dict(),
        }, ensure_ascii=False)
        return (f'{{"schema": {SCHEMA_VERSION}, '
                f'"record": {self.record.to_json()}, {rest[1:]}')

    @classmethod
    def from_payload(cls, payload: dict) -> "CachedRecord":
        return cls(
            record=DomainAnnotations.from_payload(payload["record"]),
            trace=DomainTrace(**payload["trace"]),
            prompt_tokens=payload["prompt_tokens"],
            completion_tokens=payload["completion_tokens"],
            fetch=FetchStats(**payload["fetch"]),
        )


@dataclass
class CachedCrawl:
    """One domain's crawl+preprocess outcome, as stored in the crawl layer.

    ``outcome`` is ``"ok"`` (``document`` holds the combined policy text),
    ``"crawl-failed"``, or ``"extract-failed"`` (preprocess produced no
    usable text). The trace carries only crawl/preprocess fields; the
    segmentation fields are recomputed at replay.
    """

    outcome: str
    trace: DomainTrace
    fetch: FetchStats
    document: TextDocument | None = None

    def to_json(self) -> str:
        """The entry's file text."""
        lines = None
        if self.document is not None:
            lines = [[line.number, line.text, line.heading_level]
                     for line in self.document.lines]
        return json.dumps({
            "schema": SCHEMA_VERSION,
            "outcome": self.outcome,
            "trace": asdict(self.trace),
            "fetch": self.fetch.as_dict(),
            "document": lines,
        }, ensure_ascii=False)

    @classmethod
    def from_payload(cls, payload: dict) -> "CachedCrawl":
        document = None
        if payload["document"] is not None:
            document = TextDocument(lines=[
                TextLine(number=number, text=text, heading_level=level)
                for number, text, level in payload["document"]
            ])
        return cls(
            outcome=payload["outcome"],
            trace=DomainTrace(**payload["trace"]),
            fetch=FetchStats(**payload["fetch"]),
            document=document,
        )


# -- the store ----------------------------------------------------------------


class PipelineCache:
    """A content-addressed, crash-safe result store rooted at a directory.

    Layout: ``<root>/<layer>/<key[:2]>/<key>.json`` with writes going
    through :func:`~repro._util.artifacts.write_text_atomic` (a
    same-directory temp file and ``os.replace``), so readers only ever
    see whole entries. Unreadable or schema-mismatched entries are
    treated as misses (and a crash can at worst leave a stray ``*.tmp*``
    file, which is ignored).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- records layer ---------------------------------------------------

    def load_record(self, key: str) -> CachedRecord | None:
        payload = self._read(self._path("records", key))
        return CachedRecord.from_payload(payload) if payload else None

    def store_record(self, key: str, entry: CachedRecord) -> None:
        write_text_atomic(self._path("records", key), entry.to_json())

    # -- crawl layer -----------------------------------------------------

    def load_crawl(self, key: str) -> CachedCrawl | None:
        payload = self._read(self._path("crawl", key))
        return CachedCrawl.from_payload(payload) if payload else None

    def store_crawl(self, key: str, entry: CachedCrawl) -> None:
        write_text_atomic(self._path("crawl", key), entry.to_json())

    # -- maintenance -----------------------------------------------------

    def entry_count(self, layer: str = "all") -> int:
        return sum(1 for _ in self._entries(layer))

    def invalidate(self, layer: str = "all") -> int:
        """Remove cached entries; returns how many files were deleted.

        ``layer`` is ``"all"``, ``"records"`` (drop final results but keep
        crawls, forcing re-annotation only), or ``"crawl"``.
        """
        removed = 0
        for path in list(self._entries(layer)):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def prune(self, live_keys, layer: str = "all") -> int:
        """Compaction: drop every entry whose key is not in ``live_keys``.

        ``live_keys`` is the set of cache keys the current configuration
        can still address (records + crawl keys for the watched domain
        set). Everything else is a superseded checkpoint — an entry keyed
        by an input fingerprint or option/lexicon token that no longer
        exists — which content addressing will never hit again. Returns
        how many files were removed. Only safe when this process owns the
        cache directory (a concurrent run with different options would
        see its entries vanish).
        """
        live = set(live_keys)
        removed = 0
        for path in list(self._entries(layer)):
            if path.stem in live:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def _entries(self, layer: str):
        if layer == "all":
            layers = _LAYERS
        elif layer in _LAYERS:
            layers = (layer,)
        else:
            raise ValueError(
                f"unknown cache layer {layer!r}; expected one of "
                f"{('all',) + _LAYERS}")
        for name in layers:
            base = self.root / name
            if base.is_dir():
                yield from base.glob("*/*.json")

    # -- I/O -------------------------------------------------------------

    def _path(self, layer: str, key: str) -> Path:
        return self.root / layer / key[:2] / f"{key}.json"

    @staticmethod
    def _read(path: Path) -> dict | None:
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or \
                payload.get("schema") != SCHEMA_VERSION:
            return None
        return payload


# -- the per-domain pipeline step ---------------------------------------------


def replay_record(cache: PipelineCache, key: str,
                  timings) -> CachedRecord | None:
    """The records layer: the stored entry for ``key``, or ``None``.

    Counts a hit or a miss into ``timings``. A hit reports the fetch
    counters stored with it, so a warm run's ``fetch_stats`` match a
    fresh run's.
    """
    entry = cache.load_record(key)
    timings.increment(MISS_RECORD if entry is None else HIT_RECORD)
    return entry


def crawl_and_preprocess(crawler, domain: str, timings) -> CachedCrawl:
    """Crawl and preprocess one domain into its (unstored) crawl-layer
    entry, with the crawl's own fetch counters."""
    with timings.stage("crawl"):
        crawl = crawler.crawl_domain(domain)
    trace, document, outcome = preprocess_domain(crawl, timings=timings)
    return CachedCrawl(outcome=outcome, trace=trace, fetch=crawl.fetch,
                       document=document)


def load_or_crawl(crawler, domain: str, timings, cache: PipelineCache,
                  keys: CacheKeys) -> CachedCrawl:
    """The crawl layer: the stored entry, or a new one from
    :func:`crawl_and_preprocess`, checkpointed at once.

    The entry is stored before the caller annotates: its trace is
    serialized now, so the segmentation fields :func:`annotate_crawl`
    adds never leak into the crawl-stage entry.
    """
    crawl_key = keys.crawl_key(domain)
    entry = cache.load_crawl(crawl_key)
    if entry is not None:
        timings.increment(HIT_CRAWL)
        return entry
    timings.increment(MISS_CRAWL)
    entry = crawl_and_preprocess(crawler, domain, timings)
    cache.store_crawl(crawl_key, entry)
    return entry


def annotate_crawl(corpus, domain: str, crawl: CachedCrawl,
                   options: PipelineOptions, timings,
                   cascade) -> CachedRecord:
    """The annotate step: one crawl-layer entry to its (unstored)
    records-layer entry.

    A failed crawl or extraction keeps its status and spends no tokens;
    otherwise a freshly seeded per-domain model annotates the document,
    exactly as a fresh run would after crawling, and fills the
    segmentation fields of ``crawl.trace``. ``cascade`` is the run's
    cascade model (see :func:`~repro.pipeline.runner.annotate_document`).
    """
    sector = corpus.sector_of.get(domain, "??")
    prompt_tokens = completion_tokens = 0
    if crawl.outcome != "ok":
        record = DomainAnnotations(domain=domain, sector=sector,
                                   status=crawl.outcome)
    else:
        model = model_for_domain(options, domain)
        record = annotate_document(domain, sector, crawl.document, model,
                                   options, trace=crawl.trace,
                                   timings=timings, cascade=cascade)
        prompt_tokens = model.usage.prompt_tokens
        completion_tokens = model.usage.completion_tokens
    return CachedRecord(record=record, trace=crawl.trace,
                        prompt_tokens=prompt_tokens,
                        completion_tokens=completion_tokens,
                        fetch=crawl.fetch)


def process_domain(corpus, crawler, domain: str, options: PipelineOptions,
                   timings, cache: PipelineCache | None = None,
                   keys: CacheKeys | None = None, *,
                   cascade) -> CachedRecord:
    """Run one domain through the pipeline, through the cache when one
    is given.

    Returns the domain's records-layer entry: record, trace, token counts
    and the fetch counters of its crawl, whether computed now or stored
    by an earlier run. Without a cache the domain is crawled,
    preprocessed (:func:`crawl_and_preprocess`) and annotated
    (:func:`annotate_crawl`). With one, the records layer
    (:func:`replay_record`) comes first, then the crawl layer
    (:func:`load_or_crawl`) and the annotate step, each layer
    checkpointed as soon as its stage completes.
    """
    if cache is None:
        crawl = crawl_and_preprocess(crawler, domain, timings)
        return annotate_crawl(corpus, domain, crawl, options, timings,
                              cascade=cascade)
    record_key = keys.record_key(domain)
    entry = replay_record(cache, record_key, timings)
    if entry is None:
        crawl = load_or_crawl(crawler, domain, timings, cache, keys)
        entry = annotate_crawl(corpus, domain, crawl, options, timings,
                               cascade=cascade)
        cache.store_record(record_key, entry)
    return entry


__all__ = [
    "CachedCrawl",
    "CachedRecord",
    "CacheKeys",
    "HIT_CRAWL",
    "HIT_RECORD",
    "MISS_CRAWL",
    "MISS_RECORD",
    "PipelineCache",
    "SCHEMA_VERSION",
    "STAGE_VERSIONS",
    "annotate_crawl",
    "crawl_and_preprocess",
    "domain_input_fingerprint",
    "load_or_crawl",
    "options_fingerprint",
    "process_domain",
    "replay_record",
    "site_fingerprint",
]
