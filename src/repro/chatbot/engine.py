"""The deterministic annotation engine behind the simulated chat models.

Implements the competences the paper's task prompts elicit from GPT-4:

- labeling section headings / raw text with the nine aspects,
- verbatim extraction of data-type and purpose mentions (lexicon matching
  with inflection tolerance, plus pattern-based extraction of
  out-of-glossary terms — the "zero-shot" path),
- normalization of extracted phrases against the taxonomy glossaries,
- detection and labeling of retention/protection/choice/access practices,
  including stated-retention period extraction,
- negation-scope tagging (whether a mention sits in a "we do not collect"
  context) so per-model error profiles can decide to honor or ignore the
  prompt's negation instruction.

The engine itself is "ideal"; model tiers perturb its output
(:mod:`repro.chatbot.models`).

Per-line NLP (tokenization, negation scopes, sentence boundaries, trigger
ranges, lexicon matches, practice hits) is read through a
:class:`~repro.pipeline.docindex.DocumentIndex`. The pipeline binds one
index per domain so all four annotation tasks — and the full-text fallback
re-runs — share a single computation per line; an engine constructed
without an index gets a private transient one and behaves identically,
just without cross-task sharing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.chatbot.aspects import classify_heading
from repro.chatbot.lexicon import PhraseMatcher, stem_token
from repro.chatbot.negation import is_negated
from repro.chatbot.practices import PracticeHit
from repro.taxonomy import (
    DATA_TYPE_TAXONOMY,
    PURPOSE_TAXONOMY,
    Aspect,
    DescriptorRef,
    Taxonomy,
)


@dataclass(frozen=True)
class ExtractedMention:
    """A verbatim mention found in numbered text."""

    line: int
    verbatim: str
    negated: bool
    #: Resolved taxonomy descriptor, or ``None`` for out-of-glossary terms.
    ref: DescriptorRef | None


@dataclass(frozen=True)
class NormalizedItem:
    """Normalization result for one extracted phrase."""

    index: int
    category: str
    descriptor: str
    novel: bool


@dataclass(frozen=True)
class PracticeAnnotation:
    """A labeled handling/rights practice with its evidence sentence."""

    line: int
    group: str
    label: str
    verbatim: str
    period_text: str | None = None
    period_days: int | None = None


#: Sentence contexts in which data-type mentions are genuine collection
#: statements (the prompt says to extract *collected* data types, not any
#: occurrence of a type-like noun). Negated collection statements are also
#: contexts — whether their mentions are kept is the model's negation
#: behaviour, decided later.
_COLLECT_TRIGGER_RE = re.compile(
    r"(?:we (?:\w+\s+){0,2}?(?:collect|receive|obtain|gather|process|"
    r"record|log|store|request|acquire)|"
    r"(?:servers?|systems?|technologies)\s+(?:\w+\s+){0,2}?(?:collect|"
    r"receive|record|log)|"
    r"information we collect|includes?|such as|"
    r"you (?:may )?(?:provide|give|submit|supply|share)|"
    r"collected automatically|does not apply to|not apply to|not request)\s",
    re.IGNORECASE,
)

#: Sentence contexts signalling purpose enumerations.
_PURPOSE_TRIGGER_RE = re.compile(
    r"(?:used? (?:your information )?for|purposes of|processing include|"
    r"to support|we rely on your information for|helps us|"
    r"use your information to|use the information we collect|"
    r"collected data to|we process personal information to|"
    r"data may be used for|do not use your (?:data|information) for)\s",
    re.IGNORECASE,
)

_TRIGGERS = {
    "data-types": _COLLECT_TRIGGER_RE,
    "purposes": _PURPOSE_TRIGGER_RE,
}

_ENUM_SPLIT_RE = re.compile(r",| and | or |;")
_PREPOSITION_START_RE = re.compile(
    r"^(?:for|to|with|about|of|in|on|from|by|at|as|when|how|why|that|which)\b",
    re.IGNORECASE,
)

_SENTENCE_SPLIT_RE = re.compile(r"[.!?](?:\s+|$)")


def _trigger_sentence_ranges(text: str, trigger_re) -> list[tuple[int, int]]:
    """Character ranges of sentences containing a trigger."""
    ranges: list[tuple[int, int]] = []
    start = 0
    for match in _SENTENCE_SPLIT_RE.finditer(text):
        sentence = text[start:match.end()]
        if trigger_re.search(sentence):
            ranges.append((start, match.end()))
        start = match.end()
    if start < len(text):
        if trigger_re.search(text[start:]):
            ranges.append((start, len(text)))
    return ranges


def _in_ranges(ranges, start: int, end: int) -> bool:
    return any(r_start <= start and end <= r_end for r_start, r_end in ranges)


def trigger_spans(analysis, taxonomy_name: str) -> tuple[tuple[int, int], ...]:
    """Spans of trigger-phrase matches in the line (memoized per line).

    Module-level so both the engine and the cascade fast path
    (:mod:`repro.pipeline.cascade`) read/write the same
    ``LineAnalysis.memo`` entry — whichever runs first pays the regex.
    """
    key = ("trigger-spans", taxonomy_name)
    cached = analysis.memo.get(key)
    if cached is None:
        cached = tuple(
            (m.start(), m.end())
            for m in _TRIGGERS[taxonomy_name].finditer(analysis.text)
        )
        analysis.memo[key] = cached
    return cached


def trigger_contexts(analysis, taxonomy_name: str,
                     ) -> tuple[tuple[int, int], ...]:
    """Spans of whole sentences containing a trigger phrase (memoized)."""
    key = ("trigger-contexts", taxonomy_name)
    cached = analysis.memo.get(key)
    if cached is None:
        text = analysis.text
        trigger_re = _TRIGGERS[taxonomy_name]
        # The triggers are anchor-free, so a match inside any sentence
        # slice is also a match on the whole line: one whole-line miss
        # rules out every sentence without computing sentence spans.
        if trigger_re.search(text) is None:
            cached = ()
        else:
            cached = tuple(
                span for span in analysis.sentence_spans
                if trigger_re.search(text[span[0]:span[1]])
            )
        analysis.memo[key] = cached
    return cached
_DETERMINER_RE = re.compile(r"^(?:your|our|the|a|an|certain|specific|any|"
                            r"other|such as|including|e\.g\.|what is commonly "
                            r"described as)\s+", re.IGNORECASE)

_ENUM_STOP_STEMS = frozenset(
    stem_token(t) for t in (
        "information", "data", "details", "records", "purposes", "services",
        "site", "website", "us", "you", "ways", "time", "account", "team",
        "operations", "possession", "circumstances", "occasion", "features",
        "jurisdiction", "law", "interactions",
    )
)

_VERBISH_STEMS = frozenset(
    stem_token(t) for t in (
        "create", "reach", "fill", "contact", "visit", "interact", "browse",
        "register", "subscribe", "sign", "log", "apply", "make", "place",
        "submit", "gather", "described", "support", "provide", "send",
        "respond", "communicate", "improve", "enhance", "personalize",
        "customize", "tailor", "recommend", "remember", "perform", "conduct",
        "develop", "understand", "analyze", "measure", "comply", "enforce",
        "establish", "resolve", "maintain", "prevent", "detect",
        "authenticate", "verify", "protect", "keep", "monitor", "assess",
        "secure", "display", "serve", "identify", "share", "disclose",
        "sell", "deliver", "operate", "fulfill", "ship", "administer",
        "troubleshoot", "evaluate", "collect", "complete", "reduce", "manage",
        "come", "encompass",
    )
)


def _build_matcher(taxonomy: Taxonomy) -> PhraseMatcher:
    matcher = PhraseMatcher()
    for meta in taxonomy.meta_categories:
        for category in meta.categories:
            for desc in category.descriptors:
                ref = DescriptorRef(meta.name, category.name, desc.name)
                for form in desc.all_surface_forms():
                    matcher.add(form, ref)
    return matcher


@lru_cache(maxsize=4)
def _matcher_for(taxonomy_name: str) -> PhraseMatcher:
    taxonomy = (DATA_TYPE_TAXONOMY if taxonomy_name == "data-types"
                else PURPOSE_TAXONOMY)
    return _build_matcher(taxonomy)


@lru_cache(maxsize=4)
def _category_vocab(taxonomy_name: str) -> dict[str, frozenset[str]]:
    """Stems of every category's descriptors/surfaces, for novel-term
    categorization."""
    taxonomy = (DATA_TYPE_TAXONOMY if taxonomy_name == "data-types"
                else PURPOSE_TAXONOMY)
    vocab: dict[str, frozenset[str]] = {}
    for category in taxonomy.categories():
        stems: set[str] = set()
        for token in re.findall(r"[A-Za-z0-9]+", category.name):
            stems.add(stem_token(token))
        for desc in category.descriptors:
            for form in desc.all_surface_forms():
                for token in re.findall(r"[A-Za-z0-9]+", form):
                    stems.add(stem_token(token))
        vocab[category.name] = frozenset(stems)
    return vocab


def lexicon_matches(analysis, tag: str, matcher_for, taxonomy_name: str):
    """``matcher_for(taxonomy_name)``'s matches in one line, found once
    per line and memoized under ``(tag, taxonomy_name)``."""
    key = (tag, taxonomy_name)
    cached = analysis.memo.get(key)
    if cached is None:
        matcher = matcher_for(taxonomy_name)
        cached = tuple(matcher.find_all(analysis.text, analysis.tokens))
        analysis.memo[key] = cached
    return cached


def novel_enumeration_items(text: str, trigger_spans, covered):
    """Out-of-glossary enumeration items, as ``(start, end, phrase)``.

    Walks the enumeration after each trigger up to the next ``.``, and
    only where it holds a known match (a ``covered`` span starts in it) —
    the signal that the sentence really enumerates this taxonomy's kind
    of item (and not, say, a purposes list met while extracting data
    types from full text). Each item between separators that
    :func:`_novel_candidate` keeps is yielded. The engine's extractor and
    the cascade's escalation check both walk through here.
    """
    for _, trigger_end in trigger_spans:
        end = text.find(".", trigger_end)
        end = end if end != -1 else len(text)
        if not any(trigger_end <= c_start < end for c_start, _ in covered):
            continue
        segment_text = text[trigger_end:end]
        # Walk the enumeration with real separator spans — the
        # separators (", ", " and ", " or ", ";") have different
        # lengths, so each item's true position is the text between
        # consecutive separator matches, not a running guess.
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
            candidate = _novel_candidate(text, stripped, seg_start, covered)
            if candidate is not None:
                yield candidate


def _novel_candidate(text, stripped, seg_start, covered):
    if _PREPOSITION_START_RE.match(stripped):
        return None
    match = _DETERMINER_RE.match(stripped)
    core = stripped[match.end():] if match else stripped
    core = core.strip()
    start = seg_start + (len(stripped) - len(core))
    end_pos = start + len(core)
    # Skip anything overlapping a known lexicon match.
    for c_start, c_end in covered:
        if start < c_end and end_pos > c_start:
            return None
    words = core.split()
    if not 1 <= len(words) <= 4:
        return None
    stems = [stem_token(w) for w in re.findall(r"[A-Za-z0-9]+", core)]
    if not stems:
        return None
    if stems[0] in _VERBISH_STEMS:
        return None
    if all(s in _ENUM_STOP_STEMS for s in stems):
        return None
    if any(ch.isdigit() for ch in core):
        return None
    return start, end_pos, core


class AnnotationEngine:
    """Ideal task competence over the annotation taxonomies.

    ``use_glossary`` models whether the prompt actually attached the
    glossary: without it the engine only recognizes canonical descriptor
    names, not their synonym surface forms (the degradation the glossary
    ablation measures).

    ``index`` is the per-document analysis cache shared across tasks; a
    private transient one is created when the caller has none.
    """

    def __init__(self, use_glossary: bool = True, index=None):
        self.use_glossary = use_glossary
        if index is None:
            # Imported here: repro.pipeline.docindex depends on chatbot
            # modules, so a module-level import would be circular.
            from repro.pipeline.docindex import DocumentIndex

            index = DocumentIndex()
        self._index = index

    # -- heading / segmentation tasks ------------------------------------------

    def label_headings(self, entries: list[tuple[int, str]]) -> list[tuple[int, list[str]]]:
        """Label TOC entries: ``[(line, title)] -> [(line, [aspect, ...])]``."""
        return [
            (line, [aspect.value for aspect in classify_heading(title)])
            for line, title in entries
        ]

    def segment_lines(self, lines: list[tuple[int, str]]) -> list[tuple[int, int, str]]:
        """Group numbered lines into labeled spans (full-text fallback)."""
        spans: list[tuple[int, int, str]] = []
        current_aspect: str | None = None
        span_start = 0
        prev_line = 0
        for number, text in lines:
            aspect = self._index.analysis(text).aspect.value
            if aspect != current_aspect:
                if current_aspect is not None:
                    spans.append((span_start, prev_line, current_aspect))
                current_aspect = aspect
                span_start = number
            prev_line = number
        if current_aspect is not None:
            spans.append((span_start, prev_line, current_aspect))
        return spans

    # -- extraction tasks -----------------------------------------------------------

    def extract_types(self, lines: list[tuple[int, str]]) -> list[ExtractedMention]:
        return self._extract(lines, "data-types")

    def extract_purposes(self, lines: list[tuple[int, str]]) -> list[ExtractedMention]:
        return self._extract(lines, "purposes")

    def _extract(self, lines: list[tuple[int, str]],
                 taxonomy_name: str) -> list[ExtractedMention]:
        mentions: list[ExtractedMention] = []
        for number, text in lines:
            for verbatim, negated, ref in self._line_mentions(text,
                                                              taxonomy_name):
                mentions.append(
                    ExtractedMention(line=number, verbatim=verbatim,
                                     negated=negated, ref=ref)
                )
        return mentions

    def _line_mentions(self, text: str, taxonomy_name: str,
                       ) -> tuple[tuple[str, bool, DescriptorRef | None], ...]:
        """Line-number-independent mentions of one line, cached per document."""
        analysis = self._index.analysis(text)
        key = ("mentions", taxonomy_name, self.use_glossary)
        cached = analysis.memo.get(key)
        if cached is None:
            cached = self._compute_line_mentions(analysis, taxonomy_name)
            analysis.memo[key] = cached
        return cached

    def _trigger_spans(self, analysis, taxonomy_name: str,
                       ) -> tuple[tuple[int, int], ...]:
        return trigger_spans(analysis, taxonomy_name)

    def _trigger_contexts(self, analysis, taxonomy_name: str,
                          ) -> tuple[tuple[int, int], ...]:
        return trigger_contexts(analysis, taxonomy_name)

    def _compute_line_mentions(self, analysis, taxonomy_name: str,
                               ) -> tuple[tuple[str, bool, DescriptorRef | None], ...]:
        text = analysis.text
        contexts = self._trigger_contexts(analysis, taxonomy_name)
        if not contexts:
            return ()
        scopes = analysis.negation_scopes
        out: list[tuple[str, bool, DescriptorRef | None]] = []
        covered: list[tuple[int, int]] = []
        for match in lexicon_matches(analysis, "matches", _matcher_for,
                                     taxonomy_name):
            if not _in_ranges(contexts, match.char_start, match.char_end):
                continue
            ref = match.payload
            if not self.use_glossary:
                # Without the glossary only canonical names normalize.
                canonical = ref.descriptor
                if stem_phrase(match.verbatim(text)) != stem_phrase(canonical):
                    ref = None
            out.append((
                match.verbatim(text),
                is_negated(scopes, match.char_start, match.char_end),
                ref if isinstance(ref, DescriptorRef) else None,
            ))
            covered.append((match.char_start, match.char_end))
        out.extend(
            self._novel_mentions(text, covered, scopes,
                                 self._trigger_spans(analysis, taxonomy_name))
        )
        return tuple(out)

    def _novel_mentions(self, text, covered, scopes, trigger_spans,
                        ) -> list[tuple[str, bool, None]]:
        """Pattern-based extraction of out-of-glossary enumeration items
        (:func:`novel_enumeration_items`), each tagged with its negation."""
        novel: list[tuple[str, bool, None]] = []
        for start, end_pos, phrase in novel_enumeration_items(
                text, trigger_spans, covered):
            novel.append((phrase, is_negated(scopes, start, end_pos), None))
        return novel

    # -- normalization tasks -----------------------------------------------------------

    def normalize(self, taxonomy_name: str,
                  phrases: list[str]) -> list[NormalizedItem]:
        """Map extracted phrases to (category, descriptor) pairs.

        Known surface forms resolve through the glossary; unknown phrases
        become novel descriptors assigned to the category with the highest
        vocabulary overlap (dropped entirely when nothing overlaps).
        """
        matcher = _matcher_for(taxonomy_name)
        vocab = _category_vocab(taxonomy_name)
        results: list[NormalizedItem] = []
        for index, phrase in enumerate(phrases):
            ref = self._resolve_phrase(matcher, phrase)
            if ref is not None:
                results.append(
                    NormalizedItem(index=index, category=ref.category,
                                   descriptor=ref.descriptor, novel=False)
                )
                continue
            category = self._categorize_novel(vocab, phrase)
            if category is not None:
                results.append(
                    NormalizedItem(index=index, category=category,
                                   descriptor=phrase.lower(), novel=True)
                )
        return results

    def _resolve_phrase(self, matcher: PhraseMatcher,
                        phrase: str) -> DescriptorRef | None:
        matches = matcher.find_all(phrase)
        for match in matches:
            # Full-phrase matches only: the extraction step already produced
            # minimal spans.
            if match.token_start == 0 and match.char_end >= len(phrase.rstrip()) - 1:
                ref = match.payload
                if isinstance(ref, DescriptorRef):
                    if self.use_glossary or stem_phrase(phrase) == stem_phrase(ref.descriptor):
                        return ref
        return None

    @staticmethod
    def _categorize_novel(vocab: dict[str, frozenset[str]],
                          phrase: str) -> str | None:
        stems = {stem_token(t) for t in re.findall(r"[A-Za-z0-9]+", phrase)}
        stems -= _ENUM_STOP_STEMS
        if not stems:
            return None
        best_category = None
        best_score = 0.0
        for category, cat_stems in vocab.items():
            overlap = len(stems & cat_stems)
            if overlap == 0:
                continue
            score = overlap / len(stems)
            if score > best_score:
                best_score = score
                best_category = category
        return best_category

    # -- practice tasks -----------------------------------------------------------

    def annotate_handling(self, lines: list[tuple[int, str]],
                          ignore_anonymized_retention: bool = False) -> list[PracticeAnnotation]:
        return self._annotate_practices(
            lines, groups=("Data retention", "Data protection"),
            ignore_anonymized_retention=ignore_anonymized_retention,
        )

    def annotate_rights(self, lines: list[tuple[int, str]]) -> list[PracticeAnnotation]:
        return self._annotate_practices(
            lines, groups=("User choices", "User access")
        )

    def _annotate_practices(self, lines, groups,
                            ignore_anonymized_retention: bool = False) -> list[PracticeAnnotation]:
        annotations: list[PracticeAnnotation] = []
        for number, text in lines:
            analysis = self._index.analysis(text)
            for _, hits in analysis.practice_hits(groups,
                                                  ignore_anonymized_retention):
                for hit in hits:
                    annotations.append(self._hit_to_annotation(number, hit))
        return annotations

    @staticmethod
    def _hit_to_annotation(number: int, hit: PracticeHit) -> PracticeAnnotation:
        return PracticeAnnotation(
            line=number,
            group=hit.group,
            label=hit.label,
            verbatim=hit.sentence,
            period_text=hit.period.text if hit.period else None,
            period_days=hit.period.days if hit.period else None,
        )


def stem_phrase(phrase: str) -> tuple[str, ...]:
    """Stemmed token tuple of a phrase (for loose equality checks)."""
    return tuple(stem_token(t) for t in re.findall(r"[A-Za-z0-9']+", phrase))
