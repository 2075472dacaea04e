"""Chat-model interface and the simulated model tiers.

:class:`SimulatedChatModel` stands in for the OpenAI chat-completions API:
it receives the rendered task prompt plus a payload message, *reads the
prompt* (task dispatch, glossary presence, negation instruction), runs the
deterministic :class:`~repro.chatbot.engine.AnnotationEngine`, perturbs the
result according to a per-tier :class:`ModelErrorProfile`, and returns a
JSON string — which the task layer parses exactly as it would parse an API
response.

Error profiles are calibrated to the paper's measured quality:

- ``sim-gpt-4-turbo``: §4 annotation precision (types 89.7%, purposes
  94.3%, handling 97.5%, rights 90.5%) and §6 extraction precision (96.2%).
- ``sim-gpt-3.5-turbo``: entity confusion (mistaking product/company names
  for data types) and generally sloppy instruction following.
- ``sim-llama-3.1``: comparable to GPT-4 except it ignores the negation
  instruction (§6's Brown & Brown example), landing at ~83% extraction
  precision.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Protocol

from repro._util.rng import derive_rng, stable_hash
from repro.chatbot.engine import AnnotationEngine
from repro.chatbot.lexicon import tokenize_with_spans
from repro.errors import ChatModelError
from repro.taxonomy import DATA_TYPE_TAXONOMY, PURPOSE_TAXONOMY, Aspect
from repro.taxonomy.labels import (
    ACCESS_LABELS,
    CHOICE_LABELS,
    PROTECTION_LABELS,
    RETENTION_LABELS,
)


@dataclass
class ChatMessage:
    """One message in a chat exchange."""

    role: str  # "system" | "user" | "assistant"
    content: str


@dataclass
class TokenUsage:
    """Cumulative token accounting (≈ 4 characters per token)."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0

    def record(self, prompt_chars: int, completion_chars: int) -> None:
        self.prompt_tokens += max(1, prompt_chars // 4)
        self.completion_tokens += max(1, completion_chars // 4)
        self.calls += 1

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class ChatModel(Protocol):
    """Anything that can complete a chat exchange."""

    name: str
    usage: TokenUsage

    def complete(self, messages: list[ChatMessage]) -> str:  # pragma: no cover
        ...


@dataclass(frozen=True)
class ModelErrorProfile:
    """Stochastic deviation of a model tier from the ideal engine."""

    #: Fraction of correct extractions silently dropped (recall loss).
    drop_rate: float = 0.0
    #: Fraction of extraction lines gaining a spurious in-text span.
    spurious_extract_rate: float = 0.0
    #: Fraction of extractions whose verbatim text is fabricated
    #: (hallucinations — filtered later by the pipeline's verifier).
    hallucination_rate: float = 0.0
    #: Fraction of normalizations mapped to a wrong category/descriptor.
    type_mislabel_rate: float = 0.0
    purpose_mislabel_rate: float = 0.0
    #: Fraction of practice annotations given a wrong (in-group) label.
    handling_mislabel_rate: float = 0.0
    rights_mislabel_rate: float = 0.0
    #: Share of rights mislabels that collapse into "Do not use" (§4 notes
    #: ~40% of rights errors are in that category).
    do_not_use_bias: float = 0.0
    #: Whether the model honors the prompt's negation instruction.
    honors_negation: bool = True
    #: Extraction of capitalized entity names as data types (GPT-3.5).
    entity_confusion_rate: float = 0.0
    #: Probability of returning malformed JSON (exercises the retry path).
    json_malform_rate: float = 0.0


#: Noise-free reference tier: the deterministic engine with no perturbation.
#: Not a paper model — used by benchmarks as the ground-truth oracle when
#: separating a method's accuracy from the simulated models' noise floor.
ORACLE_PROFILE = ModelErrorProfile()

GPT4_PROFILE = ModelErrorProfile(
    drop_rate=0.02,
    spurious_extract_rate=0.035,
    hallucination_rate=0.008,
    type_mislabel_rate=0.08,
    purpose_mislabel_rate=0.042,
    handling_mislabel_rate=0.022,
    rights_mislabel_rate=0.05,
    do_not_use_bias=0.25,
    honors_negation=True,
    json_malform_rate=0.002,
)

GPT35_PROFILE = ModelErrorProfile(
    drop_rate=0.18,
    spurious_extract_rate=0.16,
    hallucination_rate=0.03,
    type_mislabel_rate=0.18,
    purpose_mislabel_rate=0.14,
    handling_mislabel_rate=0.10,
    rights_mislabel_rate=0.16,
    do_not_use_bias=0.25,
    honors_negation=True,
    entity_confusion_rate=0.30,
    json_malform_rate=0.05,
)

LLAMA31_PROFILE = ModelErrorProfile(
    drop_rate=0.05,
    spurious_extract_rate=0.135,
    hallucination_rate=0.012,
    type_mislabel_rate=0.08,
    purpose_mislabel_rate=0.05,
    handling_mislabel_rate=0.04,
    rights_mislabel_rate=0.11,
    do_not_use_bias=0.35,
    honors_negation=False,
    json_malform_rate=0.01,
)

_PAYLOAD_LINE_RE = re.compile(r"^\[(\d+)\]\s?(.*)$")

_TASK_MARKERS: tuple[tuple[str, str], ...] = (
    ("label a list of section headings", "label-headings"),
    ("Divide the provided text into sections", "segment-text"),
    ("extract and catalog specific data types", "extract-types"),
    ("Categorize each extracted data type", "normalize-types"),
    ("purposes for which data is collected", "extract-purposes"),
    ("Categorize each extracted data collection purpose",
     "normalize-purposes"),
    ("data retention periods and specific data protection",
     "annotate-handling"),
    ("user choices", "annotate-rights"),
)

_CAPITALIZED_RUN_RE = re.compile(
    r"\b([A-Z][a-z]+(?:\s+[A-Z][a-z]+){0,2})\b"
)

_FAKE_TYPES = (
    "quantum preferences", "psychographic essence", "aura readings",
    "subscription karma", "behavioral quotient", "engagement spirit",
)


def parse_numbered_payload(payload: str) -> list[tuple[int, str]]:
    """Parse ``[n] text`` lines into ``(n, text)`` tuples."""
    lines: list[tuple[int, str]] = []
    for raw in payload.splitlines():
        match = _PAYLOAD_LINE_RE.match(raw.strip())
        if match:
            lines.append((int(match.group(1)), match.group(2)))
    return lines


@dataclass
class SimulatedChatModel:
    """A deterministic, error-profiled chat model."""

    name: str
    profile: ModelErrorProfile
    seed: int = 0
    usage: TokenUsage = field(default_factory=TokenUsage)
    _calls: int = field(default=0, repr=False)
    #: Per-document analysis index bound by the pipeline (see
    #: :func:`repro.pipeline.docindex.bind_model_index`); threaded into the
    #: engine each call so all tasks over a domain share one cache.
    doc_index: object = field(default=None, repr=False, compare=False)

    # -- public API ----------------------------------------------------------

    def bind_document_index(self, index) -> None:
        """Attach (or with ``None`` detach) a per-document analysis index."""
        self.doc_index = index

    def complete(self, messages: list[ChatMessage]) -> str:
        if not messages:
            raise ChatModelError("empty message list")
        prompt = messages[0].content
        payload = messages[-1].content if len(messages) > 1 else ""
        task = self._dispatch(prompt)
        self._calls += 1
        rng = derive_rng(self.seed, self.name, task, stable_hash(payload),
                        self._calls)

        engine = AnnotationEngine(use_glossary="### Glossary:" in prompt,
                                  index=self.doc_index)
        honors_negation = (self.profile.honors_negation
                           and "negated contexts" in prompt)
        # §6 refinement instruction, read off the prompt like everything else.
        self._ignore_anonymized = "anonymized or aggregated" in prompt

        handler = getattr(self, "_task_" + task.replace("-", "_"))
        result = handler(engine, payload, rng, honors_negation)
        output = json.dumps(result)
        if rng.random() < self.profile.json_malform_rate:
            output = output[: max(2, len(output) - rng.randint(2, 12))]
        self.usage.record(
            sum(len(m.content) for m in messages), len(output)
        )
        return output

    # -- dispatch ------------------------------------------------------------

    @staticmethod
    def _dispatch(prompt: str) -> str:
        for marker, task in _TASK_MARKERS:
            if marker in prompt:
                return task
        raise ChatModelError("unrecognized task prompt")

    # -- task handlers ----------------------------------------------------------

    def _task_label_headings(self, engine, payload, rng, honors_negation):
        entries = parse_numbered_payload(payload)
        labeled = engine.label_headings(entries)
        out = []
        for line, labels in labeled:
            if rng.random() < self.profile.drop_rate:
                continue
            if rng.random() < self.profile.handling_mislabel_rate:
                labels = [rng.choice([a.value for a in Aspect])]
            out.append([line, labels])
        return out

    def _task_segment_text(self, engine, payload, rng, honors_negation):
        lines = parse_numbered_payload(payload)
        spans = engine.segment_lines(lines)
        return [[start, end, label] for start, end, label in spans]

    def _task_extract_types(self, engine, payload, rng, honors_negation):
        return self._extract(engine.extract_types, payload, rng,
                             honors_negation)

    def _task_extract_purposes(self, engine, payload, rng, honors_negation):
        return self._extract(engine.extract_purposes, payload, rng,
                             honors_negation)

    def _extract(self, extractor, payload, rng, honors_negation):
        lines = parse_numbered_payload(payload)
        mentions = extractor(lines)
        out: list[list] = []
        for mention in mentions:
            if mention.negated and honors_negation:
                continue
            if rng.random() < self.profile.drop_rate:
                continue
            out.append([mention.line, mention.verbatim])
        out.extend(self._spurious_extractions(lines, rng))
        return out

    def _spurious_extractions(self, lines, rng) -> list[list]:
        """Wrong-but-in-text spans, entity confusions, and hallucinations."""
        spurious: list[list] = []
        for number, text in lines:
            roll = rng.random()
            if roll < self.profile.hallucination_rate:
                spurious.append([number, rng.choice(_FAKE_TYPES)])
            elif roll < (self.profile.hallucination_rate
                         + self.profile.spurious_extract_rate):
                if self.doc_index is not None:
                    tokens = self.doc_index.analysis(text).tokens
                else:
                    tokens = tokenize_with_spans(text)
                if len(tokens) >= 4:
                    start = rng.randrange(len(tokens) - 2)
                    span = tokens[start : start + rng.randint(2, 3)]
                    spurious.append([number, text[span[0].start:span[-1].end]])
            if self.profile.entity_confusion_rate and \
                    rng.random() < self.profile.entity_confusion_rate:
                names = _CAPITALIZED_RUN_RE.findall(text)
                interesting = [n for n in names if len(n.split()) >= 2]
                if interesting:
                    spurious.append([number, rng.choice(interesting)])
        return spurious

    def _task_normalize_types(self, engine, payload, rng, honors_negation):
        return self._normalize(engine, payload, rng, "data-types",
                               self.profile.type_mislabel_rate,
                               DATA_TYPE_TAXONOMY)

    def _task_normalize_purposes(self, engine, payload, rng, honors_negation):
        return self._normalize(engine, payload, rng, "purposes",
                               self.profile.purpose_mislabel_rate,
                               PURPOSE_TAXONOMY)

    def _normalize(self, engine, payload, rng, taxonomy_name, mislabel_rate,
                   taxonomy):
        entries = parse_numbered_payload(payload)
        phrases = [text for _, text in entries]
        items = engine.normalize(taxonomy_name, phrases)
        indexes = {i: number for i, (number, _) in enumerate(entries)}
        out = []
        for item in items:
            category, descriptor = item.category, item.descriptor
            if rng.random() < mislabel_rate:
                category, descriptor = _local_mislabel(rng, taxonomy,
                                                       category, descriptor)
            out.append([indexes.get(item.index, item.index), category,
                        descriptor])
        return out

    def _task_annotate_handling(self, engine, payload, rng, honors_negation):
        lines = parse_numbered_payload(payload)
        annotations = engine.annotate_handling(
            lines,
            ignore_anonymized_retention=getattr(self, "_ignore_anonymized",
                                                False),
        )
        out = []
        for ann in annotations:
            if rng.random() < self.profile.drop_rate:
                continue
            label = ann.label
            if rng.random() < self.profile.handling_mislabel_rate:
                label_set = (RETENTION_LABELS if ann.group == "Data retention"
                             else PROTECTION_LABELS)
                label = rng.choice(label_set.names())
            out.append([ann.line, ann.group, label, ann.verbatim,
                        ann.period_text])
        return out

    def _task_annotate_rights(self, engine, payload, rng, honors_negation):
        lines = parse_numbered_payload(payload)
        annotations = engine.annotate_rights(lines)
        out = []
        for ann in annotations:
            if rng.random() < self.profile.drop_rate:
                continue
            label = ann.label
            if rng.random() < self.profile.rights_mislabel_rate:
                if rng.random() < self.profile.do_not_use_bias:
                    label = "Do not use"
                else:
                    label_set = (CHOICE_LABELS if ann.group == "User choices"
                                 else ACCESS_LABELS)
                    label = rng.choice(label_set.names())
            out.append([ann.line, ann.group, label, ann.verbatim])
        return out


def _local_mislabel(rng, taxonomy, category: str, descriptor: str):
    """A *plausible* wrong normalization.

    Real LLM confusions are semantically local — a phone number mistaken
    for a fax number, not for a GPS trace — so mislabels stay within the
    same category (70%) or a sibling category of the same meta-category
    (30%). Uniformly random mislabels would wrongly inflate the coverage
    of rare meta-categories.
    """
    try:
        meta_name = taxonomy.meta_of_category(category)
        meta = taxonomy.meta_category(meta_name)
        home = taxonomy.category(category)
    except Exception:  # noqa: BLE001 - unknown category: leave unchanged
        return category, descriptor
    if rng.random() < 0.7 or len(meta.categories) == 1:
        others = [d.name for d in home.descriptors if d.name != descriptor]
        if others:
            return category, rng.choice(others)
    siblings = [c for c in meta.categories if c.name != category]
    if not siblings:
        return category, descriptor
    sibling = rng.choice(siblings)
    return sibling.name, rng.choice(sibling.descriptors).name


#: The simulated model tiers by name: the one table :func:`make_model`
#: builds from and :class:`~repro.pipeline.runner.PipelineOptions`
#: checks a model name against.
MODEL_PROFILES = {
    "sim-gpt-4-turbo": GPT4_PROFILE,
    "sim-gpt-3.5-turbo": GPT35_PROFILE,
    "sim-llama-3.1": LLAMA31_PROFILE,
    "sim-oracle": ORACLE_PROFILE,
}


def model_profile(name: str) -> ModelErrorProfile:
    """The error profile of the simulated tier ``name``.

    Raises:
        ChatModelError: ``name`` is no tier; the message lists the tiers.
    """
    try:
        return MODEL_PROFILES[name]
    except KeyError:
        raise ChatModelError(
            f"unknown model {name!r}; available: {sorted(MODEL_PROFILES)}"
        ) from None


def make_model(name: str, seed: int = 0) -> SimulatedChatModel:
    """Factory for the simulated model tiers."""
    return SimulatedChatModel(name=name, profile=model_profile(name),
                              seed=seed)


AVAILABLE_MODELS = ("sim-gpt-4-turbo", "sim-gpt-3.5-turbo", "sim-llama-3.1")
