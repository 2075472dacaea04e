"""Per-aspect annotation of a segmented policy (paper §3.2.2).

For each aspect, the corresponding section text is fed to the chatbot
tasks; when a section yields no annotations the *entire* policy text is fed
instead (the fallback activated for 708/2545 policies in the paper). Every
annotation's verbatim evidence is checked against the source text by the
hallucination verifier, and repeated mentions normalizing to the same
descriptor/label are collapsed to one unique annotation per domain.

Both annotators run that one control flow. The cascade annotator
(:mod:`repro.pipeline.cascade`) passes each aspect a ``split`` that
answers confident lines on its fast path, so only the rest reach the
chatbot task; without a split every line goes to the chatbot task, which
is the chatbot annotator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.chatbot.models import ChatModel
from repro.chatbot.practices import parse_retention_period
from repro.chatbot.tasks import (
    run_annotate_handling,
    run_annotate_rights,
    run_extract_purposes,
    run_extract_types,
    run_normalize_purposes,
    run_normalize_types,
)
from repro.errors import TaskOutputError
from repro.pipeline.docindex import bind_model_index
from repro.pipeline.records import (
    HandlingAnnotation,
    PurposeAnnotation,
    RightsAnnotation,
    TypeAnnotation,
)
from repro.pipeline.segmentation import SegmentedPolicy
from repro.pipeline.verify import HallucinationVerifier
from repro.taxonomy import DATA_TYPE_TAXONOMY, PURPOSE_TAXONOMY, Aspect
from repro.taxonomy.labels import (
    ACCESS_LABELS,
    CHOICE_LABELS,
    PROTECTION_LABELS,
    RETENTION_LABELS,
)

_HANDLING_GROUPS = {
    "Data retention": set(RETENTION_LABELS.names()),
    "Data protection": set(PROTECTION_LABELS.names()),
}
_RIGHTS_GROUPS = {
    "User choices": set(CHOICE_LABELS.names()),
    "User access": set(ACCESS_LABELS.names()),
}


@dataclass(frozen=True)
class AnnotateOptions:
    """Knobs for ablations and refinements (paper defaults all on/off)."""

    use_fallback: bool = True
    use_hallucination_filter: bool = True
    include_glossary: bool = True
    include_negation: bool = True
    #: §6 refinement: skip indefinite retention of anonymized data.
    refine_anonymized_retention: bool = False
    #: ``"chatbot"`` sends every segment through the chat tasks (the
    #: paper's pipeline, byte-identical to pre-cascade output);
    #: ``"cascade"`` runs the distilled fast path first and escalates only
    #: low-confidence segments (:mod:`repro.pipeline.cascade`).
    annotator: str = "chatbot"
    #: Cascade: escalate a segment to the chatbot when the fast path's
    #: confidence falls below this. ``>= 1.0`` escalates everything
    #: (byte-identical to ``"chatbot"``); the default ``0.0`` never
    #: escalates taxonomy segments on confidence alone — only the
    #: practice/negation-sensitive ones governed by the stricter
    #: threshold below.
    escalation_threshold: float = 0.0
    #: Separate (stricter) threshold for practice aspects and
    #: negation-sensitive segments; ``None`` derives
    #: ``min(1.0, escalation_threshold + 0.3)``.
    practice_escalation_threshold: float | None = None

    def __post_init__(self):
        if self.annotator not in ("chatbot", "cascade"):
            raise ValueError(
                f"annotator must be 'chatbot' or 'cascade', "
                f"got {self.annotator!r}")
        if not 0.0 <= self.escalation_threshold <= 1.0:
            raise ValueError("escalation_threshold must be in [0, 1], "
                             f"got {self.escalation_threshold!r}")
        if (self.practice_escalation_threshold is not None
                and not 0.0 <= self.practice_escalation_threshold <= 1.0):
            raise ValueError(
                "practice_escalation_threshold must be None or in [0, 1], "
                f"got {self.practice_escalation_threshold!r}")


@dataclass
class AspectOutcome:
    """Annotation outcome for one aspect of one domain."""

    annotations: list = field(default_factory=list)
    used_fallback: bool = False
    hallucinations: int = 0


def annotate_types(model: ChatModel, segmented: SegmentedPolicy,
                   verifier: HallucinationVerifier,
                   options: AnnotateOptions = AnnotateOptions(),
                   index=None, split=None) -> AspectOutcome:
    """Extract, verify, normalize, and dedup collected data types."""
    return _annotate_aspect(
        model, segmented, verifier, options, index, split,
        aspect=Aspect.TYPES,
        task=lambda lines: run_extract_types(
            model, lines, options.include_glossary, options.include_negation
        ),
        evidence="text",
        normalize=lambda phrases: run_normalize_types(
            model, phrases, options.include_glossary
        ),
        finalize=partial(finalize_taxonomy, taxonomy=DATA_TYPE_TAXONOMY,
                         record_type=TypeAnnotation),
    )


def annotate_purposes(model: ChatModel, segmented: SegmentedPolicy,
                      verifier: HallucinationVerifier,
                      options: AnnotateOptions = AnnotateOptions(),
                      index=None, split=None) -> AspectOutcome:
    """Extract, verify, normalize, and dedup data collection purposes."""
    return _annotate_aspect(
        model, segmented, verifier, options, index, split,
        aspect=Aspect.PURPOSES,
        task=lambda lines: run_extract_purposes(
            model, lines, options.include_glossary, options.include_negation
        ),
        evidence="text",
        normalize=lambda phrases: run_normalize_purposes(
            model, phrases, options.include_glossary
        ),
        finalize=partial(finalize_taxonomy, taxonomy=PURPOSE_TAXONOMY,
                         record_type=PurposeAnnotation),
    )


def annotate_handling(model: ChatModel, segmented: SegmentedPolicy,
                      verifier: HallucinationVerifier,
                      options: AnnotateOptions = AnnotateOptions(),
                      index=None, split=None) -> AspectOutcome:
    """Label retention/protection practices."""
    return _annotate_aspect(
        model, segmented, verifier, options, index, split,
        aspect=Aspect.HANDLING,
        task=lambda lines: run_annotate_handling(
            model, lines,
            ignore_anonymized=options.refine_anonymized_retention,
        ),
        evidence="verbatim",
        finalize=partial(finalize_practices, valid_groups=_HANDLING_GROUPS,
                         build=_build_handling),
    )


def annotate_rights(model: ChatModel, segmented: SegmentedPolicy,
                    verifier: HallucinationVerifier,
                    options: AnnotateOptions = AnnotateOptions(),
                    index=None, split=None) -> AspectOutcome:
    """Label choice/access practices."""
    return _annotate_aspect(
        model, segmented, verifier, options, index, split,
        aspect=Aspect.RIGHTS,
        task=lambda lines: run_annotate_rights(model, lines),
        evidence="verbatim",
        finalize=partial(finalize_practices, valid_groups=_RIGHTS_GROUPS,
                         build=_build_rights),
    )


def _annotate_aspect(model, segmented: SegmentedPolicy,
                     verifier: HallucinationVerifier,
                     options: AnnotateOptions, index, split, aspect: Aspect,
                     task, evidence: str, finalize,
                     normalize=None) -> AspectOutcome:
    """One aspect of one domain, for both annotators.

    ``split`` maps lines to ``(fast-path items, lines to escalate)``;
    ``None`` escalates every line, which is the chatbot annotator. The
    escalated lines go to the chatbot ``task``; the full text is the
    fallback when the section yields nothing; the verifier keeps only
    items whose ``evidence`` attribute occurs in the source; ``normalize``
    (taxonomy aspects) maps the task's items before ``finalize``.
    """
    bind_model_index(model, index)

    def attempt(lines):
        fast, escalated = split(lines) if split is not None else ([], lines)
        return fast, (task(escalated) if escalated else [])

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
        return AspectOutcome()
    outcome = AspectOutcome(used_fallback=used_fallback)
    if options.use_hallucination_filter:
        found = len(fast) + len(chat)
        fast = [i for i in fast if verifier.contains(getattr(i, evidence))]
        chat = [i for i in chat if verifier.contains(getattr(i, evidence))]
        outcome.hallucinations = found - len(fast) - len(chat)
    if normalize is not None and chat:
        try:
            chat = normalize(chat)
        except TaskOutputError:
            return outcome
    finalize(outcome, fast + chat)
    return outcome


def finalize_taxonomy(outcome: AspectOutcome, normalized, taxonomy,
                      record_type) -> None:
    """Taxonomy-filter, dedup, and record normalized phrases.

    Drops out-of-taxonomy categories, collapses repeats of one
    (category, descriptor) to the first mention, and builds record rows.
    """
    known_categories = {c.name for c in taxonomy.categories()}
    descriptor_names = {
        d.name for c in taxonomy.categories() for d in c.descriptors
    }
    seen: set[tuple[str, str]] = set()
    for item in normalized:
        if item.category not in known_categories:
            continue
        key = (item.category, item.descriptor)
        if key in seen:
            continue
        seen.add(key)
        outcome.annotations.append(
            record_type(
                category=item.category,
                meta_category=taxonomy.meta_of_category(item.category),
                descriptor=item.descriptor,
                verbatim=item.text,
                line=item.line,
                novel=item.descriptor not in descriptor_names,
            )
        )


def finalize_practices(outcome: AspectOutcome, results, valid_groups,
                       build) -> None:
    """Group-filter, dedup, and record practice results."""
    seen: set[tuple[str, str]] = set()
    for result in results:
        labels = valid_groups.get(result.group)
        if labels is None or result.label not in labels:
            continue
        key = (result.group, result.label)
        if key in seen:
            continue
        seen.add(key)
        outcome.annotations.append(build(result))


def _build_handling(result) -> HandlingAnnotation:
    period_days = None
    if result.period_text:
        parsed = parse_retention_period(result.period_text)
        period_days = parsed.days if parsed else None
    return HandlingAnnotation(
        group=result.group,
        label=result.label,
        verbatim=result.verbatim,
        line=result.line,
        period_text=result.period_text,
        period_days=period_days,
    )


def _build_rights(result) -> RightsAnnotation:
    return RightsAnnotation(
        group=result.group,
        label=result.label,
        verbatim=result.verbatim,
        line=result.line,
    )
