"""End-to-end pipeline orchestration (the architecture of Figure 1).

``run_pipeline`` drives every stage for each domain — crawl → pre-process
→ segment → annotate → verify — through the sharded executor of
:mod:`repro.pipeline.parallel`, and aggregates the run-level statistics the
paper reports in §3 and §4. Per-domain details are kept as light-weight
:class:`DomainTrace` objects (page HTML is dropped after pre-processing to
keep full-corpus runs inside a laptop's memory budget).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

from repro._util.profiling import StageTimings, stage_scope
from repro._util.rng import stable_hash
from repro.chatbot.models import ChatModel, make_model, model_profile
from repro.corpus.build import SyntheticCorpus
from repro.crawler.crawler import CrawlResult
from repro.pipeline.annotate import (
    AnnotateOptions,
    annotate_handling,
    annotate_purposes,
    annotate_rights,
    annotate_types,
)
from repro.pipeline.docindex import DocumentIndex, bind_model_index
from repro.pipeline.preprocess import preprocess_crawl
from repro.pipeline.records import DomainAnnotations
from repro.pipeline.segmentation import SegmentedPolicy, segment_policy
from repro.pipeline.verify import HallucinationVerifier
from repro.taxonomy import Aspect
from repro.web.net import FetchStats


@dataclass(frozen=True)
class PipelineOptions:
    """Pipeline configuration, including ablation switches."""

    model_name: str = "sim-gpt-4-turbo"
    model_seed: int = 0
    #: Feed whole policies to annotation tasks instead of sections.
    use_segmentation: bool = True
    use_fallback: bool = True
    use_hallucination_filter: bool = True
    include_glossary: bool = True
    include_negation: bool = True
    #: §6 refinement: ignore indefinite retention of anonymized data.
    refine_anonymized_retention: bool = False
    #: ``"chatbot"`` (paper pipeline, the byte-stable default) or
    #: ``"cascade"`` (distilled fast path + confidence-gated escalation,
    #: :mod:`repro.pipeline.cascade`).
    annotator: str = "chatbot"
    #: Cascade only: escalate segments whose fast-path confidence is below
    #: this (``>= 1.0`` escalates everything — byte-identical to chatbot).
    escalation_threshold: float = 0.0
    #: Cascade only: stricter threshold for practice aspects and
    #: negation-sensitive segments (``None`` → base + 0.3, capped at 1.0).
    practice_escalation_threshold: float | None = None

    def __post_init__(self):
        # The model table and AnnotateOptions own the validation; an
        # unknown model name or bad annotator names/thresholds raise here,
        # at construction time, not at the first domain.
        model_profile(self.model_name)
        self.annotate_options()

    def annotate_options(self) -> AnnotateOptions:
        return AnnotateOptions(
            use_fallback=self.use_fallback,
            use_hallucination_filter=self.use_hallucination_filter,
            include_glossary=self.include_glossary,
            include_negation=self.include_negation,
            refine_anonymized_retention=self.refine_anonymized_retention,
            annotator=self.annotator,
            escalation_threshold=self.escalation_threshold,
            practice_escalation_threshold=self.practice_escalation_threshold,
        )


@dataclass
class DomainTrace:
    """Summary of what happened to one domain (no page bodies)."""

    domain: str
    navigations: int = 0
    potential_privacy_pages: int = 0
    retained_pages: int = 0
    drop_reasons: list[str] = field(default_factory=list)
    page_errors: list[str] = field(default_factory=list)
    crawl_succeeded: bool = False
    extraction_succeeded: bool = False
    used_heading_path: bool = False
    used_text_analysis: bool = False
    policy_words: int = 0
    saw_pdf: bool = False


@dataclass
class PipelineResult:
    """A full pipeline run: records, traces, and aggregate stats."""

    records: list[DomainAnnotations]
    traces: dict[str, DomainTrace]
    options: PipelineOptions
    prompt_tokens: int = 0
    completion_tokens: int = 0
    #: Fetch counters of this run: the sum of its domains' crawl counters,
    #: fresh or stored in the cache.
    fetch_stats: FetchStats = field(default_factory=FetchStats)
    #: Per-stage wall-clock accounting (crawl/preprocess/segment/annotate);
    #: observability only — never feeds back into records.
    stage_timings: StageTimings = field(default_factory=StageTimings)
    #: Lazy ``(record count, domain -> record)`` lookup table, invalidated
    #: by length (parallel merges extend ``records`` in place after
    #: construction).
    _record_index: tuple | None = field(default=None, repr=False,
                                        compare=False)

    # -- §3 statistics -----------------------------------------------------------

    def domains_total(self) -> int:
        return len(self.traces)

    def crawl_successes(self) -> int:
        return sum(1 for t in self.traces.values() if t.crawl_succeeded)

    def extraction_successes(self) -> int:
        return sum(1 for t in self.traces.values() if t.extraction_succeeded)

    def annotated_domains(self) -> list[DomainAnnotations]:
        return [r for r in self.records if r.status == "annotated"]

    def fallback_domains(self) -> int:
        return sum(1 for r in self.records if r.fallback_aspects)

    def mean_pages_crawled(self) -> float:
        if not self.traces:
            return 0.0
        return statistics.mean(t.navigations for t in self.traces.values())

    def mean_privacy_pages(self) -> float:
        successes = [t.retained_pages for t in self.traces.values()
                     if t.crawl_succeeded]
        return statistics.mean(successes) if successes else 0.0

    def median_policy_words(self) -> int:
        words = sorted(
            t.policy_words for t in self.traces.values()
            if t.extraction_succeeded and t.policy_words
        )
        return words[len(words) // 2] if words else 0

    def record_for(self, domain: str) -> DomainAnnotations:
        """O(1) record lookup by domain.

        Backed by a dict rebuilt whenever ``records`` changed length since
        the last lookup; for duplicate domains the *first* record wins,
        matching the linear scan this replaced. An unknown domain raises a
        ``KeyError`` that names the domain and suggests the nearest
        matches present in the run — a typo'd lookup should read like a
        diagnosis, not a stack trace puzzle. Use :meth:`get_record` for a
        non-raising variant.
        """
        record = self.get_record(domain)
        if record is None:
            import difflib

            close = difflib.get_close_matches(domain,
                                              self._record_index[1], n=3)
            hint = (f"; nearest matches: {', '.join(close)}" if close
                    else "; this run holds no records at all"
                    if not self.records else "")
            raise KeyError(
                f"no record for domain {domain!r} in this pipeline run "
                f"({len(self.records)} records){hint}")
        return record

    def get_record(self, domain: str) -> DomainAnnotations | None:
        """Like :meth:`record_for`, but ``None`` for unknown domains."""
        cached = self._record_index
        if cached is None or cached[0] != len(self.records):
            index: dict[str, DomainAnnotations] = {}
            for record in self.records:
                index.setdefault(record.domain, record)
            self._record_index = cached = (len(self.records), index)
        return cached[1].get(domain)


def domain_model_seed(model_seed: int, domain: str) -> int:
    """Derive the chat-model seed used for one domain's annotation.

    Seeding the model per domain (rather than sharing one model whose noise
    stream advances with every call) makes each domain's annotations a pure
    function of ``(corpus seed, model seed, domain)`` — independent of the
    order domains are processed in and of which executor worker handles
    them. This is what lets ``run_pipeline(workers=N)`` return byte-identical
    results for every ``N``.
    """
    return stable_hash(model_seed, "pipeline-domain", domain)


def model_for_domain(options: PipelineOptions, domain: str) -> ChatModel:
    """Build the per-domain chat model used by serial and parallel runs."""
    return make_model(options.model_name,
                      seed=domain_model_seed(options.model_seed, domain))


def run_pipeline(corpus: SyntheticCorpus,
                 options: PipelineOptions | None = None,
                 domains: list[str] | None = None,
                 progress=None,
                 workers: int | None = None,
                 executor=None,
                 cache_dir=None,
                 cache=None) -> PipelineResult:
    """Run the full pipeline over (a subset of) a corpus.

    Every domain is annotated with its own deterministically seeded model
    (see :func:`domain_model_seed`), so results do not depend on domain
    order or concurrency. By default the domains run inline as one
    ``serial`` shard of
    :func:`~repro.pipeline.parallel.run_parallel_pipeline`: one crawler
    for the whole run, and no retries. Pass
    ``workers=N`` (or a full
    :class:`~repro.pipeline.parallel.ExecutorOptions` via ``executor``) to
    run on the sharded executor instead; the output is byte-identical.
    A domain listed twice is processed once, at its first position.

    Pass ``cache_dir`` (or a prebuilt
    :class:`~repro.pipeline.cache.PipelineCache` via ``cache``) to enable
    the content-addressed result store: domains whose inputs, options, and
    stage versions are unchanged are served from disk instead of being
    recomputed, and every completed domain is checkpointed atomically so
    an interrupted run resumes from where it stopped. Cached results are
    byte-identical to fresh computation for every worker count.
    """
    # Imported here: the executor module imports this one.
    from repro.pipeline.parallel import (
        INLINE,
        ExecutorOptions,
        run_parallel_pipeline,
    )

    if executor is None:
        executor = INLINE if workers is None \
            else ExecutorOptions(workers=workers)
    elif workers is not None and workers != executor.workers:
        raise ValueError("run_pipeline: `workers` conflicts with "
                         "`executor.workers`")
    return run_parallel_pipeline(corpus, options, executor=executor,
                                 domains=domains, progress=progress,
                                 cache=cache, cache_dir=cache_dir)


def preprocess_domain(crawl: CrawlResult,
                      timings: StageTimings | None = None,
                      ) -> tuple[DomainTrace, "TextDocument | None", str]:
    """The lexicon-independent front half of a domain's pipeline.

    Builds the domain trace through the crawl and preprocess stages and
    returns ``(trace, combined document, outcome)``. ``outcome`` is
    ``"crawl-failed"`` or ``"extract-failed"`` when the pipeline stops
    before segmentation (and then ``document`` is ``None``), otherwise
    ``"ok"`` and the caller continues with :func:`annotate_document`.
    This split is the pipeline cache's stage boundary: everything up to
    here depends only on page bytes and crawler code, not on the
    annotation lexicon or model.
    """
    trace = DomainTrace(domain=crawl.domain)
    trace.navigations = crawl.navigations
    trace.page_errors = crawl.errors()
    potential = crawl.potential_privacy_pages()
    trace.potential_privacy_pages = len(potential)
    trace.crawl_succeeded = crawl.crawl_succeeded
    trace.saw_pdf = any(page.is_pdf for page in potential)

    if not crawl.crawl_succeeded:
        return trace, None, "crawl-failed"

    with stage_scope(timings, "preprocess"):
        pre = preprocess_crawl(crawl)
    trace.retained_pages = pre.page_count()
    trace.drop_reasons = [reason for _, reason in pre.dropped]
    if not pre.ok:
        return trace, None, "extract-failed"
    return trace, pre.combined, "ok"


def annotate_document(domain: str, sector: str, document,
                      model: ChatModel,
                      options: PipelineOptions,
                      trace: DomainTrace | None = None,
                      timings: StageTimings | None = None, *,
                      cascade) -> DomainAnnotations:
    """Segment and annotate one preprocessed document (the back half of
    a domain's pipeline, after :func:`preprocess_domain`).

    A pure function of ``(document, model state, options)`` — the pipeline
    cache replays it against a stored document with a freshly seeded
    per-domain model and gets byte-identical output. ``trace`` (optional)
    receives the segmentation fields. ``cascade`` is the run's cascade
    model, resolved once per run by
    :func:`~repro.pipeline.cascade.cascade_model_for` (``None`` unless
    ``options`` select the cascade).
    """
    index = DocumentIndex.for_document(document)
    with stage_scope(timings, "segment"):
        segmented = segment_policy(domain, document, model, index=index)
    if not options.use_segmentation:
        segmented = _unsegmented(segmented)
    if trace is not None:
        trace.used_heading_path = segmented.used_heading_path
        trace.used_text_analysis = segmented.used_text_analysis
        trace.extraction_succeeded = segmented.extraction_succeeded
        trace.policy_words = segmented.substantive_word_count()
    if not segmented.extraction_succeeded:
        return DomainAnnotations(domain=domain, sector=sector,
                                 status="extract-failed")

    with stage_scope(timings, "annotate"):
        return _annotate_domain(domain, sector, segmented, model, options,
                                index=index, timings=timings,
                                cascade=cascade)


def _unsegmented(segmented: SegmentedPolicy) -> SegmentedPolicy:
    """Ablation: every annotated aspect sees the whole document."""
    all_lines = segmented.all_lines()
    for aspect in Aspect.annotated():
        segmented.aspect_lines[aspect] = list(all_lines)
    return segmented


def _annotate_domain(domain: str, sector: str, segmented: SegmentedPolicy,
                     model: ChatModel,
                     options: PipelineOptions,
                     index: DocumentIndex | None = None,
                     timings: StageTimings | None = None, *,
                     cascade) -> DomainAnnotations:
    bind_model_index(model, index)
    verifier = HallucinationVerifier(segmented.document.text, index=index)
    annotate_options = options.annotate_options()
    fast_path = None
    if annotate_options.annotator == "cascade":
        from repro.pipeline.cascade import FastPath

        fast_path = FastPath(cascade, options, model, index)
    usage = getattr(model, "usage", None)
    calls_before = usage.calls if usage is not None else None

    outcomes = {}
    for aspect, annotate in ((Aspect.TYPES, annotate_types),
                             (Aspect.PURPOSES, annotate_purposes),
                             (Aspect.HANDLING, annotate_handling),
                             (Aspect.RIGHTS, annotate_rights)):
        with stage_scope(timings, f"annotate.{aspect.value}"):
            outcomes[aspect] = annotate(
                model, segmented, verifier, annotate_options, index=index,
                split=fast_path.split(aspect) if fast_path else None)
    if timings is not None:
        if fast_path is not None:
            timings.increment("cascade.fast_path_segments",
                              fast_path.fast_segments)
            timings.increment("cascade.escalated_segments",
                              fast_path.escalated_segments)
        if calls_before is not None:
            timings.increment("annotate.chatbot_calls",
                              usage.calls - calls_before)

    record = DomainAnnotations(
        domain=domain,
        sector=sector,
        status="annotated",
        types=outcomes[Aspect.TYPES].annotations,
        purposes=outcomes[Aspect.PURPOSES].annotations,
        handling=outcomes[Aspect.HANDLING].annotations,
        rights=outcomes[Aspect.RIGHTS].annotations,
        fallback_aspects=[aspect.value for aspect, outcome in outcomes.items()
                          if outcome.used_fallback],
        extracted_aspects=[a.value for a in segmented.extracted_aspects()],
        policy_words=segmented.substantive_word_count(),
        hallucinations_filtered=sum(outcome.hallucinations
                                    for outcome in outcomes.values()),
    )
    if not record.has_any_annotation():
        record = replace(record, status="no-annotations")
    return record
