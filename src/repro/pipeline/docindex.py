"""Per-document analysis index: the annotation hot path's shared cache.

Every chatbot task over a policy re-reads the same numbered lines: data-type
and purpose extraction both tokenize, stem, and negation-scan each line;
handling and rights labeling both sentence-split it and parse retention
periods; the full-text fallback re-feeds lines that section tasks already
processed; and the hallucination verifier re-stems the whole document. A
:class:`DocumentIndex` is built once per domain (one pass over the
segmented policy's lines) and memoizes every one of those per-line
quantities, so each is computed at most once per document no matter how
many tasks touch the line.

All cached quantities are pure functions of the line text, so annotation
output is byte-identical with and without the index — the determinism and
equivalence suites are the oracle for that contract.

The index is deliberately engine-agnostic: taxonomy-specific computations
(trigger ranges, lexicon matches, extracted mentions) live in
:mod:`repro.chatbot.engine` and are memoized through the open
:attr:`LineAnalysis.memo` mapping. A :class:`DocumentIndex` belongs to one
domain and is used by one worker thread at a time; it is not itself
thread-safe (unlike the shared, immutable
:class:`~repro.chatbot.lexicon.PhraseMatcher` tries).
"""

from __future__ import annotations

import re

from repro._util.textproc import sentence_split
from repro.chatbot.aspects import classify_line
from repro.chatbot.lexicon import Token, stem_token, tokenize_with_spans
from repro.chatbot.negation import NegationScope, find_negation_scopes
from repro.chatbot.practices import (
    PracticeHit,
    detect_practices,
    parse_retention_period,
)
from repro.pipeline.verify import build_match_streams

#: Sentence boundary used for trigger-context ranges (kept byte-compatible
#: with the engine's historical splitter; note this is *not* the prose
#: splitter in :func:`repro._util.textproc.sentence_split`).
_SENTENCE_SPLIT_RE = re.compile(r"[.!?](?:\s+|$)")


def sentence_spans(text: str) -> tuple[tuple[int, int], ...]:
    """Character spans of sentences, including a trailing partial sentence."""
    spans: list[tuple[int, int]] = []
    start = 0
    for match in _SENTENCE_SPLIT_RE.finditer(text):
        spans.append((start, match.end()))
        start = match.end()
    if start < len(text):
        spans.append((start, len(text)))
    return tuple(spans)


_MISSING = object()


def _memoized(compute, memo: dict):
    """``compute`` memoized in ``memo`` (a ``None`` result included).

    The closure holds the memo dict and nothing else, so a
    :class:`LineAnalysis` holding it keeps no reference back to its
    :class:`DocumentIndex`: the index and its lines form no reference
    cycle, and are freed by reference counting, not by the cyclic
    collector.
    """
    def lookup(key):
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = compute(key)
        return value
    return lookup


class LineAnalysis:
    """Lazily computed, cached NLP facts about one line of policy text.

    ``stem`` and ``retention_period`` are the owning index's
    document-wide memoized functions (:class:`DocumentIndex`).
    """

    __slots__ = ("text", "stem", "_retention_period", "memo",
                 "_tokens", "_scopes", "_sentence_spans", "_sentences",
                 "_aspect")

    _UNSET = object()

    def __init__(self, text: str, stem, retention_period):
        self.text = text
        self.stem = stem
        self._retention_period = retention_period
        #: Open memo for task-specific derived quantities (the engine keys
        #: entries by ``(kind, taxonomy, ...)``).
        self.memo: dict = {}
        self._tokens = None
        self._scopes = None
        self._sentence_spans = None
        self._sentences = None
        self._aspect = LineAnalysis._UNSET

    @property
    def tokens(self) -> tuple[Token, ...]:
        """Stemmed tokens with character spans (shared stem memo)."""
        if self._tokens is None:
            self._tokens = tuple(
                tokenize_with_spans(self.text, stem=self.stem)
            )
        return self._tokens

    @property
    def negation_scopes(self) -> tuple[NegationScope, ...]:
        if self._scopes is None:
            self._scopes = tuple(find_negation_scopes(self.text))
        return self._scopes

    @property
    def sentence_spans(self) -> tuple[tuple[int, int], ...]:
        if self._sentence_spans is None:
            self._sentence_spans = sentence_spans(self.text)
        return self._sentence_spans

    @property
    def sentences(self) -> tuple[str, ...]:
        """Prose sentences (:func:`~repro._util.textproc.sentence_split`)."""
        if self._sentences is None:
            self._sentences = tuple(sentence_split(self.text))
        return self._sentences

    @property
    def aspect(self):
        """Dominant :class:`~repro.taxonomy.Aspect` of the line."""
        if self._aspect is LineAnalysis._UNSET:
            self._aspect = classify_line(self.text)
        return self._aspect

    def practice_hits(self, groups: tuple[str, ...] | None,
                      ignore_anonymized_retention: bool = False,
                      ) -> tuple[tuple[str, tuple[PracticeHit, ...]], ...]:
        """``(sentence, hits)`` pairs for every sentence of the line.

        Cached per ``(groups, ignore_anonymized_retention)``; the retention
        period of each sentence is parsed once document-wide regardless of
        how many label groups scan it.
        """
        key = ("practices", groups, ignore_anonymized_retention)
        cached = self.memo.get(key)
        if cached is None:
            cached = tuple(
                (sentence,
                 tuple(detect_practices(
                     sentence, groups=groups,
                     ignore_anonymized_retention=ignore_anonymized_retention,
                     period=self._retention_period(sentence),
                 )))
                for sentence in self.sentences
            )
            self.memo[key] = cached
        return cached


class DocumentIndex:
    """Single-pass analysis cache for one segmented policy document.

    Construct with :meth:`for_document` to pre-register every line of a
    :class:`~repro.htmlkit.TextDocument`; lines encountered later (e.g.
    after a payload round-trip normalized whitespace differently) are
    registered lazily, so the index never changes results — only cost.
    """

    __slots__ = ("_lines", "stem", "retention_period", "_document_text",
                 "_streams")

    def __init__(self, document_text: str | None = None):
        self._lines: dict[str, LineAnalysis] = {}
        #: Memoized :func:`~repro.chatbot.lexicon.stem_token`.
        self.stem = _memoized(stem_token, {})
        #: Memoized
        #: :func:`~repro.chatbot.practices.parse_retention_period`.
        self.retention_period = _memoized(parse_retention_period, {})
        self._document_text = document_text
        self._streams: tuple[str, str] | None = None

    @classmethod
    def for_document(cls, document) -> "DocumentIndex":
        """Index every line of a :class:`~repro.htmlkit.TextDocument`."""
        index = cls(document_text=document.text)
        lines = index._lines
        for line in document.lines:
            if line.text not in lines:
                lines[line.text] = index._new_line(line.text)
        return index

    def _new_line(self, text: str) -> LineAnalysis:
        return LineAnalysis(text, self.stem, self.retention_period)

    def analysis(self, text: str) -> LineAnalysis:
        """The (cached) analysis for one line of text."""
        entry = self._lines.get(text)
        if entry is None:
            entry = self._lines[text] = self._new_line(text)
        return entry

    @property
    def document_text(self) -> str | None:
        """Full document text this index was built for (``None`` if ad hoc)."""
        return self._document_text

    def match_streams(self) -> tuple[str, str]:
        """The hallucination verifier's (normalized, stemmed) streams."""
        if self._streams is None:
            self._streams = build_match_streams(self._document_text or "",
                                                stem=self.stem)
        return self._streams

    def __len__(self) -> int:
        return len(self._lines)


def bind_model_index(model, index: DocumentIndex | None) -> None:
    """Attach ``index`` to a chat model that supports document binding.

    The simulated models thread the index into the
    :class:`~repro.chatbot.engine.AnnotationEngine` they run per task.
    Models without the hook (e.g. a real API client) are left untouched.
    Passing ``None`` clears any previous binding — callers must do this
    when processing a document without an index so a stale one cannot leak
    across documents on a shared model.
    """
    bind = getattr(model, "bind_document_index", None)
    if bind is not None:
        bind(index)
