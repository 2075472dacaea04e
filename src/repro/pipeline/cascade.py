"""Cascade annotator: distilled fast path with chatbot escalation.

Annotation dominates pipeline wall time because every segment pays a full
simulated-chatbot round trip per aspect task. The cascade runs the
distilled annotator (:mod:`repro.distill`) as a vectorized first pass over
**all** of a domain's segments — one batched pass per taxonomy reusing the
shared :class:`~repro.pipeline.docindex.DocumentIndex` line analyses — and
escalates only segments the fast path is not confident about to the
existing chatbot task path. The hallucination verifier stays the uniform
gate for both paths: no string reaches a record, fast or escalated,
without verbatim evidence in the source document.

**Confidence and escalation.** Every segment gets a calibrated confidence
per aspect:

- no trigger context → 1.0 (the ideal engine would extract nothing);
- learned-lexicon matches → the minimum per-phrase confidence
  (majority share × support shrinkage, :class:`~repro.distill.model.LexiconEntry`);
- a trigger context with **no** learned match → ``NO_MATCH_CONFIDENCE``
  (the engine may know glossary phrases the student never learned);
- an enumeration item not covered by any learned match (a potential
  out-of-glossary "novel" extraction) → ``NOVEL_GAP_CONFIDENCE``;
- practice aspects → distance of the best profile cosine from the
  decision threshold, scaled to [0, 1].

A segment escalates when its confidence falls below
``escalation_threshold``. Practice aspects and negation-sensitive
segments compare against the separate (stricter)
``practice_escalation_threshold``. A threshold ``>= 1.0`` escalates every
segment, which reproduces the legacy chatbot path **byte-identically**:
the escalated call sequence, payloads, fallback predicate, verifier
gating, and dedup all mirror :mod:`repro.pipeline.annotate` exactly.

**Training provenance.** The distilled model is trained once per process
from a dedicated bootstrap corpus (its own seed/fraction, its own
simulated internet — no ledger crosstalk with the serving run) annotated
by the legacy chatbot path under the run's own option set. The model is
therefore a pure function of :func:`cascade_model_token`'s inputs, which
is what joins the PR-3 cache key: two runs with equal tokens replay each
other's cached records safely, and any change to the teacher
configuration or the distillation code orphans old entries. Escalation
thresholds deliberately stay *out* of the token (the model is identical
across a threshold sweep, so one trained model serves the whole sweep);
they reach the cache key through the ordinary options fingerprint.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, replace

from repro._util.artifacts import content_digest
from repro._util.profiling import StageTimings, stage_scope
from repro.chatbot.engine import (
    AnnotationEngine,
    _ENUM_SPLIT_RE,
    _in_ranges,
    trigger_contexts,
    trigger_spans,
)
from repro._util.litscreen import lowered_for_screen
from repro.chatbot.negation import is_negated
from repro.chatbot.practices import _GROUP_SCREENS
from repro.chatbot.tasks import (
    NormalizedPhrase,
    PracticeLabelResult,
    run_annotate_handling,
    run_annotate_rights,
    run_extract_purposes,
    run_extract_types,
    run_normalize_purposes,
    run_normalize_types,
)
from repro.distill.model import (
    PRACTICE_SIMILARITY_THRESHOLD,
    DistilledAnnotator,
    _WORD_RE,
)
from repro.errors import TaskOutputError
from repro.pipeline.annotate import (
    _HANDLING_GROUPS,
    _RIGHTS_GROUPS,
    AnnotateOptions,
    AspectOutcome,
    _build_handling,
    _build_rights,
    finalize_practices,
    finalize_taxonomy,
)
from repro.pipeline.docindex import DocumentIndex, bind_model_index
from repro.pipeline.segmentation import SegmentedPolicy
from repro.pipeline.verify import HallucinationVerifier
from repro.taxonomy import DATA_TYPE_TAXONOMY, PURPOSE_TAXONOMY, Aspect
from repro.pipeline.records import PurposeAnnotation, TypeAnnotation

#: Bootstrap corpus the distilled model is trained on (its own corpus seed,
#: separate from the default serving corpus; ~170 domains at this fraction).
#: Larger fractions shrink the share of trigger lines with no learned match
#: — the dominant escalation cause — at a roughly linear one-off training
#: cost that is amortized per process.
CASCADE_TRAIN_SEED = 90210
CASCADE_TRAIN_FRACTION = 0.06

#: Confidence assigned when a trigger context has no learned-lexicon match
#: at all — the engine may still extract via glossary surface forms the
#: student never saw, so these lines are cheap to flag and risky to skip.
NO_MATCH_CONFIDENCE = 0.30

#: Confidence when an enumeration item is not covered by a learned match —
#: the engine's pattern-based "novel term" extractor might fire there.
NOVEL_GAP_CONFIDENCE = 0.15

#: Bump when the cascade's semantics change (escalation rule, confidence
#: calibration, verdict computation) to orphan stale cached records.
CASCADE_VERSION = "1"


def effective_thresholds(options: AnnotateOptions) -> tuple[float, float]:
    """Resolve ``(base, practice/negation-sensitive)`` thresholds."""
    base = options.escalation_threshold
    practice = options.practice_escalation_threshold
    if practice is None:
        practice = min(1.0, base + 0.3)
    return base, practice


# -- trained-model provenance --------------------------------------------------


def cascade_model_token(options) -> str:
    """Content token identifying the distilled model a run would train.

    A pure function of the training inputs (no training required): the
    bootstrap corpus coordinates, the teacher model identity and option
    set, the lexicon content fingerprint, and the cascade/confidence
    version constants. Joins the record-layer cache key in cascade mode.
    """
    from repro.chatbot.lexicon import lexicon_fingerprint

    return content_digest({
        "cascade": CASCADE_VERSION,
        "train_seed": CASCADE_TRAIN_SEED,
        "train_fraction": CASCADE_TRAIN_FRACTION,
        "model": [options.model_name, options.model_seed],
        "teacher_options": [
            options.use_segmentation,
            options.use_fallback,
            options.use_hallucination_filter,
            options.include_glossary,
            options.include_negation,
            options.refine_anonymized_retention,
        ],
        "confidence": [NO_MATCH_CONFIDENCE, NOVEL_GAP_CONFIDENCE],
        "lexicon": lexicon_fingerprint(),
    })


@dataclass(frozen=True)
class CascadeModel:
    """A trained distilled model plus its provenance and training cost."""

    annotator: DistilledAnnotator
    #: Provenance token (:func:`cascade_model_token`) — the cache-key half.
    token: str
    #: Content digest of the trained state (order-invariant).
    fingerprint: str
    train_domains: int
    train_records: int
    train_seconds: float
    train_prompt_tokens: int
    #: Cross-domain verdict memo. A verdict is a pure function of
    #: (line text, trained model, aspect flags), and synthetic policies
    #: share boilerplate lines heavily, so fast-path work done for one
    #: domain is replayed for every other domain in the process.
    verdict_cache: dict = dataclasses.field(default_factory=dict, repr=False)


_MODEL_LOCK = threading.Lock()
_MODEL_MEMO: dict[str, CascadeModel] = {}


def get_cascade_model(options) -> CascadeModel:
    """Train (or fetch the per-process memo of) the cascade's model.

    Thread-safe; the parallel executor pre-warms this before spawning
    workers so thread pools share one model and forked process pools
    inherit it copy-on-write.
    """
    token = cascade_model_token(options)
    model = _MODEL_MEMO.get(token)
    if model is not None:
        return model
    with _MODEL_LOCK:
        model = _MODEL_MEMO.get(token)
        if model is None:
            model = _train_cascade_model(options, token)
            _MODEL_MEMO[token] = model
    return model


def _train_cascade_model(options, token: str) -> CascadeModel:
    # Imported here: runner/corpus import this module's public names.
    from repro.corpus import CorpusConfig, build_corpus
    from repro.pipeline.runner import run_pipeline

    # The teacher is the legacy chatbot path under the run's own options —
    # never the cascade itself (no recursion), on a corpus with its own
    # simulated internet (no fetch-ledger crosstalk with the serving run).
    teacher_options = replace(options, annotator="chatbot")
    start = time.perf_counter()
    corpus = build_corpus(CorpusConfig(seed=CASCADE_TRAIN_SEED,
                                       fraction=CASCADE_TRAIN_FRACTION))
    result = run_pipeline(corpus, teacher_options)
    records = result.annotated_domains()
    annotator = DistilledAnnotator.train(records)
    return CascadeModel(
        annotator=annotator,
        token=token,
        fingerprint=annotator.fingerprint(),
        train_domains=len(corpus.domains),
        train_records=len(records),
        train_seconds=time.perf_counter() - start,
        train_prompt_tokens=result.prompt_tokens,
    )


# -- per-segment verdicts ------------------------------------------------------


@dataclass(frozen=True)
class LineVerdict:
    """Fast-path output and confidence for one segment × one aspect."""

    items: tuple
    confidence: float
    #: Negation-sensitive (taxonomy) or practice aspect → compare against
    #: the stricter threshold.
    sensitive: bool = False


def _learned_matches(analysis, annotator: DistilledAnnotator,
                     taxonomy_name: str):
    key = ("cascade-matches", taxonomy_name)
    cached = analysis.memo.get(key)
    if cached is None:
        matcher = annotator.matcher_for(taxonomy_name)
        cached = tuple(matcher.find_all(analysis.text, analysis.tokens))
        analysis.memo[key] = cached
    return cached


def taxonomy_verdict(analysis, annotator: DistilledAnnotator,
                     taxonomy_name: str, honors_negation: bool) -> LineVerdict:
    """Fast-path extraction + confidence for one line of one taxonomy."""
    key = ("cascade", taxonomy_name, honors_negation)
    cached = analysis.memo.get(key)
    if cached is not None:
        return cached
    contexts = trigger_contexts(analysis, taxonomy_name)
    if not contexts:
        # No collection/purpose context: the ideal engine extracts nothing
        # from this line either.
        verdict = LineVerdict(items=(), confidence=1.0, sensitive=False)
        analysis.memo[key] = verdict
        return verdict
    text = analysis.text
    scopes = analysis.negation_scopes
    confidence = 1.0
    items: list[tuple[str, str, str]] = []
    covered: list[tuple[int, int]] = []
    for match in _learned_matches(analysis, annotator, taxonomy_name):
        if not _in_ranges(contexts, match.char_start, match.char_end):
            continue
        entry = match.payload
        confidence = min(confidence, entry.confidence)
        covered.append((match.char_start, match.char_end))
        if honors_negation and is_negated(scopes, match.char_start,
                                          match.char_end):
            continue
        items.append((match.verbatim(text), entry.category, entry.descriptor))
    if not covered:
        confidence = NO_MATCH_CONFIDENCE
    elif _enumeration_gap(analysis, taxonomy_name, covered):
        confidence = min(confidence, NOVEL_GAP_CONFIDENCE)
    verdict = LineVerdict(items=tuple(items), confidence=confidence,
                          sensitive=bool(scopes))
    analysis.memo[key] = verdict
    return verdict


def _enumeration_gap(analysis, taxonomy_name: str, covered) -> bool:
    """Would the engine's novel-term extractor fire outside our matches?

    Walks enumerations exactly like
    :meth:`AnnotationEngine._novel_mentions`, with the learned matches as
    the covered set: any surviving candidate is a phrase the fast path
    cannot name, so the segment escalates.
    """
    text = analysis.text
    for _, trigger_end in trigger_spans(analysis, taxonomy_name):
        end = text.find(".", trigger_end)
        end = end if end != -1 else len(text)
        if not any(trigger_end <= c_start < end for c_start, _ in covered):
            continue
        segment_text = text[trigger_end:end]
        pos = 0
        pieces: list[tuple[int, str]] = []
        for sep in _ENUM_SPLIT_RE.finditer(segment_text):
            pieces.append((pos, segment_text[pos:sep.start()]))
            pos = sep.end()
        pieces.append((pos, segment_text[pos:]))
        for rel_start, raw in pieces:
            stripped = raw.strip()
            if not stripped:
                continue
            seg_start = (trigger_end + rel_start
                         + (len(raw) - len(raw.lstrip())))
            if AnnotationEngine._novel_candidate(text, stripped, seg_start,
                                                 covered) is not None:
                return True
    return False


def _practice_scores(analysis, annotator: DistilledAnnotator):
    """Per-sentence cosine scores against every learned practice profile."""
    key = ("cascade-practice-scores",)
    cached = analysis.memo.get(key)
    if cached is None:
        stem = analysis.stem
        rows = []
        for sentence in analysis.sentences:
            # The teacher's engine can only label a sentence whose group
            # litscreen passes (a sound necessary condition), so screened-
            # out groups are a confident no-practice — no cosine needed.
            lowered = lowered_for_screen(sentence)
            passed = frozenset(
                group for group, screen in _GROUP_SCREENS.items()
                if screen.may_match(sentence, lowered)
            )
            if passed:
                # Same stems as DistilledAnnotator._stem_phrase, but via
                # the document-wide stem memo.
                scores = annotator.practice_scores(
                    {stem(word) for word in _WORD_RE.findall(sentence)})
            else:
                scores = annotator.practice_scores(set())
            rows.append((sentence, scores, passed))
        cached = tuple(rows)
        analysis.memo[key] = cached
    return cached


def practice_verdict(analysis, annotator: DistilledAnnotator, valid_groups,
                     index: DocumentIndex,
                     refine_anonymized: bool) -> LineVerdict:
    """Fast-path practice labels + confidence for one line.

    Confidence is the scaled distance of the best in-aspect cosine from
    the decision threshold, minimized over the line's sentences: a
    sentence scoring right at the threshold is maximally ambiguous (0),
    one with no practice signal at all is maximally confident (1).
    """
    key = ("cascade-practice", tuple(sorted(valid_groups)),
           refine_anonymized)
    cached = analysis.memo.get(key)
    if cached is not None:
        return cached
    if not annotator.profile_vectors:
        # Nothing learned — never trust the fast path for practices.
        verdict = LineVerdict(items=(), confidence=0.0, sensitive=True)
        analysis.memo[key] = verdict
        return verdict
    confidence = 1.0
    items: list[tuple[str, str, str, str | None]] = []
    for sentence, scores, passed in _practice_scores(analysis, annotator):
        best = None
        best_score = PRACTICE_SIMILARITY_THRESHOLD
        top = 0.0
        for profile, score in scores:
            if profile.group not in valid_groups or \
                    profile.group not in passed:
                continue
            if score > top:
                top = score
            if score > best_score:
                best, best_score = profile, score
        sentence_conf = min(
            1.0,
            abs(top - PRACTICE_SIMILARITY_THRESHOLD)
            / PRACTICE_SIMILARITY_THRESHOLD,
        )
        if refine_anonymized and best is not None \
                and best.group == "Data retention":
            # The anonymized-retention refinement lives in the chat path's
            # cue logic; retention-flavored sentences must escalate.
            sentence_conf = 0.0
        confidence = min(confidence, sentence_conf)
        if best is not None:
            period_text = None
            if best.group == "Data retention":
                period = index.retention_period(sentence)
                period_text = period.text if period else None
            items.append((best.group, best.label, sentence, period_text))
    verdict = LineVerdict(items=tuple(items), confidence=confidence,
                          sensitive=True)
    analysis.memo[key] = verdict
    return verdict


# -- the cascade drivers -------------------------------------------------------


@dataclass
class _Counters:
    fast_segments: int = 0
    escalated_segments: int = 0


def _cascade_taxonomy(model, segmented: SegmentedPolicy,
                      verifier: HallucinationVerifier,
                      options: AnnotateOptions, index: DocumentIndex,
                      annotator: DistilledAnnotator, verdict_cache: dict,
                      aspect: Aspect, taxonomy_name: str, extract, normalize,
                      taxonomy, record_type, threshold: float,
                      sensitive_threshold: float, honors_negation: bool,
                      counters: _Counters) -> AspectOutcome:
    """One taxonomy aspect through the cascade.

    Control flow mirrors ``_annotate_taxonomy`` step for step — same call
    ordering, same payloads, same fallback predicate, same error handling
    — so a threshold ≥ 1.0 (every segment escalated) reproduces the legacy
    path byte-identically.
    """
    bind_model_index(model, index)
    outcome = AspectOutcome()

    # Both limits at/above 1.0 escalate unconditionally — skip the verdict
    # work entirely so parity mode costs nothing over the legacy path.
    escalate_all = threshold >= 1.0 and sensitive_threshold >= 1.0

    def attempt(lines):
        if escalate_all:
            counters.escalated_segments += len(lines)
            return [], (extract(lines) if lines else [])
        fast: list[NormalizedPhrase] = []
        escalated: list[tuple[int, str]] = []
        for number, text in lines:
            cache_key = ("tax", taxonomy_name, honors_negation, text)
            verdict = verdict_cache.get(cache_key)
            if verdict is None:
                verdict = taxonomy_verdict(index.analysis(text), annotator,
                                           taxonomy_name, honors_negation)
                verdict_cache[cache_key] = verdict
            limit = sensitive_threshold if verdict.sensitive else threshold
            if limit >= 1.0 or verdict.confidence < limit:
                escalated.append((number, text))
            else:
                fast.extend(
                    NormalizedPhrase(line=number, text=verbatim,
                                     category=category,
                                     descriptor=descriptor)
                    for verbatim, category, descriptor in verdict.items
                )
        counters.fast_segments += len(lines) - len(escalated)
        counters.escalated_segments += len(escalated)
        chat = extract(escalated) if escalated else []
        return fast, chat

    lines = segmented.lines_for(aspect)
    used_fallback = False
    try:
        fast, chat = attempt(lines) if lines else ([], [])
        if not fast and not chat and options.use_fallback:
            full = segmented.all_lines()
            # Only a genuine fallback when it adds text beyond the section.
            if full and full != lines:
                used_fallback = True
                fast, chat = attempt(full)
    except TaskOutputError:
        return outcome
    outcome.used_fallback = used_fallback
    if options.use_hallucination_filter:
        kept_fast = [p for p in fast if verifier.contains(p.text)]
        kept_chat = [p for p in chat if verifier.contains(p.text)]
        outcome.hallucinations = (len(fast) - len(kept_fast)
                                  + len(chat) - len(kept_chat))
        fast, chat = kept_fast, kept_chat
    if not fast and not chat:
        return outcome
    normalized: list = []
    if chat:
        try:
            normalized = normalize(chat)
        except TaskOutputError:
            return outcome
    finalize_taxonomy(outcome, fast + normalized, taxonomy, record_type)
    return outcome


def _cascade_practices(model, segmented: SegmentedPolicy,
                       verifier: HallucinationVerifier,
                       options: AnnotateOptions, index: DocumentIndex,
                       annotator: DistilledAnnotator, verdict_cache: dict,
                       aspect: Aspect, task, valid_groups, build,
                       threshold: float, counters: _Counters,
                       ) -> AspectOutcome:
    """One practice aspect through the cascade (mirrors
    ``_annotate_practices``; practice segments always use the stricter
    threshold)."""
    bind_model_index(model, index)
    outcome = AspectOutcome()

    escalate_all = threshold >= 1.0
    groups_key = tuple(sorted(valid_groups))
    refine = options.refine_anonymized_retention

    def attempt(lines):
        if escalate_all:
            counters.escalated_segments += len(lines)
            return [], (task(lines) if lines else [])
        fast: list[PracticeLabelResult] = []
        escalated: list[tuple[int, str]] = []
        for number, text in lines:
            cache_key = ("prac", groups_key, refine, text)
            verdict = verdict_cache.get(cache_key)
            if verdict is None:
                verdict = practice_verdict(
                    index.analysis(text), annotator, valid_groups, index,
                    refine)
                verdict_cache[cache_key] = verdict
            if threshold >= 1.0 or verdict.confidence < threshold:
                escalated.append((number, text))
            else:
                fast.extend(
                    PracticeLabelResult(line=number, group=group, label=label,
                                        verbatim=sentence,
                                        period_text=period_text)
                    for group, label, sentence, period_text in verdict.items
                )
        counters.fast_segments += len(lines) - len(escalated)
        counters.escalated_segments += len(escalated)
        chat = task(escalated) if escalated else []
        return fast, chat

    lines = segmented.lines_for(aspect)
    used_fallback = False
    try:
        fast, chat = attempt(lines) if lines else ([], [])
        if not fast and not chat and options.use_fallback:
            full = segmented.all_lines()
            if full and full != lines:
                used_fallback = True
                fast, chat = attempt(full)
    except TaskOutputError:
        return outcome
    outcome.used_fallback = used_fallback
    if options.use_hallucination_filter:
        kept_fast = [r for r in fast if verifier.contains(r.verbatim)]
        kept_chat = [r for r in chat if verifier.contains(r.verbatim)]
        outcome.hallucinations = (len(fast) - len(kept_fast)
                                  + len(chat) - len(kept_chat))
        fast, chat = kept_fast, kept_chat
    finalize_practices(outcome, fast + chat, valid_groups, build)
    return outcome


def cascade_aspects(model, segmented: SegmentedPolicy,
                    verifier: HallucinationVerifier, options,
                    index: DocumentIndex,
                    timings: StageTimings | None = None,
                    ) -> tuple[AspectOutcome, AspectOutcome,
                               AspectOutcome, AspectOutcome]:
    """Annotate all four aspects of one domain through the cascade.

    ``options`` is the run's :class:`~repro.pipeline.runner.PipelineOptions`
    (the cascade needs the model/teacher fields for provenance, not just
    the annotate knobs). Returns ``(types, purposes, handling, rights)``
    outcomes shaped exactly like the legacy annotate functions' output.
    """
    a_options = options.annotate_options()
    cascade_model = get_cascade_model(options)
    annotator = cascade_model.annotator
    verdict_cache = cascade_model.verdict_cache
    base_threshold, practice_threshold = effective_thresholds(a_options)
    honors_negation = a_options.include_negation and getattr(
        getattr(model, "profile", None), "honors_negation", True)
    counters = _Counters()
    usage = getattr(model, "usage", None)
    calls_before = usage.calls if usage is not None else None

    with stage_scope(timings, "annotate.types"):
        types = _cascade_taxonomy(
            model, segmented, verifier, a_options, index, annotator,
            verdict_cache, Aspect.TYPES, "data-types",
            extract=lambda lines: run_extract_types(
                model, lines, a_options.include_glossary,
                a_options.include_negation),
            normalize=lambda phrases: run_normalize_types(
                model, phrases, a_options.include_glossary),
            taxonomy=DATA_TYPE_TAXONOMY, record_type=TypeAnnotation,
            threshold=base_threshold, sensitive_threshold=practice_threshold,
            honors_negation=honors_negation, counters=counters)
    with stage_scope(timings, "annotate.purposes"):
        purposes = _cascade_taxonomy(
            model, segmented, verifier, a_options, index, annotator,
            verdict_cache, Aspect.PURPOSES, "purposes",
            extract=lambda lines: run_extract_purposes(
                model, lines, a_options.include_glossary,
                a_options.include_negation),
            normalize=lambda phrases: run_normalize_purposes(
                model, phrases, a_options.include_glossary),
            taxonomy=PURPOSE_TAXONOMY, record_type=PurposeAnnotation,
            threshold=base_threshold, sensitive_threshold=practice_threshold,
            honors_negation=honors_negation, counters=counters)
    with stage_scope(timings, "annotate.handling"):
        handling = _cascade_practices(
            model, segmented, verifier, a_options, index, annotator,
            verdict_cache, Aspect.HANDLING,
            task=lambda lines: run_annotate_handling(
                model, lines,
                ignore_anonymized=a_options.refine_anonymized_retention),
            valid_groups=_HANDLING_GROUPS, build=_build_handling,
            threshold=practice_threshold, counters=counters)
    with stage_scope(timings, "annotate.rights"):
        rights = _cascade_practices(
            model, segmented, verifier, a_options, index, annotator,
            verdict_cache, Aspect.RIGHTS,
            task=lambda lines: run_annotate_rights(model, lines),
            valid_groups=_RIGHTS_GROUPS, build=_build_rights,
            threshold=practice_threshold, counters=counters)

    if timings is not None:
        timings.increment("cascade.fast_path_segments",
                          counters.fast_segments)
        timings.increment("cascade.escalated_segments",
                          counters.escalated_segments)
        if calls_before is not None:
            timings.increment("cascade.chatbot_calls",
                              usage.calls - calls_before)
    return types, purposes, handling, rights
