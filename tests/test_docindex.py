"""Tests for the per-document analysis index and its pipeline wiring."""

import sys

import pytest

from repro.chatbot.aspects import classify_line
from repro.chatbot.lexicon import tokenize_with_spans
from repro.chatbot.models import make_model
from repro.chatbot.negation import find_negation_scopes
from repro.chatbot.practices import detect_practices, parse_retention_period
from repro.corpus import CorpusConfig, build_corpus
from repro.htmlkit import TextDocument, TextLine
from repro.pipeline import (
    DocumentIndex,
    DomainAnnotations,
    PipelineOptions,
    PipelineResult,
    bind_model_index,
    run_pipeline,
    segment_policy,
)
from repro.pipeline import runner
from repro.pipeline.verify import build_match_streams

LINE = ("We do not collect your email address. We retain data for two (2) "
        "years.")


def _document(*texts):
    return TextDocument(lines=[
        TextLine(number=i + 1, text=text) for i, text in enumerate(texts)
    ])


class TestLineAnalysis:
    def test_tokens_match_plain_tokenization(self):
        analysis = DocumentIndex().analysis(LINE)
        assert list(analysis.tokens) == tokenize_with_spans(LINE)

    def test_tokens_computed_once(self):
        analysis = DocumentIndex().analysis(LINE)
        assert analysis.tokens is analysis.tokens

    def test_negation_scopes_match_plain(self):
        analysis = DocumentIndex().analysis(LINE)
        assert list(analysis.negation_scopes) == find_negation_scopes(LINE)

    def test_sentence_spans_cover_text(self):
        analysis = DocumentIndex().analysis(LINE)
        spans = analysis.sentence_spans
        assert spans[0][0] == 0
        assert spans[-1][1] == len(LINE)
        # Contiguous, in order.
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start == prev_end

    def test_trailing_partial_sentence_included(self):
        analysis = DocumentIndex().analysis("One. no terminal punctuation")
        assert analysis.sentence_spans[-1][1] == len(analysis.text)

    def test_aspect_matches_classifier(self):
        analysis = DocumentIndex().analysis(LINE)
        assert analysis.aspect == classify_line(LINE)

    def test_practice_hits_match_plain_detection(self):
        analysis = DocumentIndex().analysis(LINE)
        groups = ("Data retention", "Data protection")
        for sentence, hits in analysis.practice_hits(groups):
            assert list(hits) == detect_practices(sentence, groups=groups)

    def test_practice_hits_cached_per_key(self):
        analysis = DocumentIndex().analysis(LINE)
        groups = ("User choices", "User access")
        assert analysis.practice_hits(groups) is analysis.practice_hits(groups)


class TestDocumentIndex:
    def test_for_document_preregisters_lines(self):
        document = _document("First line.", "Second line.", "First line.")
        index = DocumentIndex.for_document(document)
        assert len(index) == 2  # duplicates share one analysis
        assert index.analysis("First line.") is index.analysis("First line.")

    def test_unseen_text_registered_lazily(self):
        index = DocumentIndex.for_document(_document("Known."))
        before = len(index)
        analysis = index.analysis("Never seen before.")
        assert len(index) == before + 1
        assert index.analysis("Never seen before.") is analysis

    def test_stem_memoized(self):
        index = DocumentIndex()
        assert index.stem("cookies") == "cooky"
        assert index.stem("cookies") == "cooky"

    def test_retention_period_memoized_including_none(self):
        index = DocumentIndex()
        sentence = "We keep logs for ninety (90) days."
        assert index.retention_period(sentence) == \
            parse_retention_period(sentence)
        assert index.retention_period("No period here.") is None
        assert index.retention_period("No period here.") is None

    def test_match_streams_equal_plain_build(self):
        document = _document("We collect Email Addresses.", "Cookies too.")
        index = DocumentIndex.for_document(document)
        assert index.match_streams() == build_match_streams(document.text)

    def test_lines_hold_no_reference_to_their_index(self):
        """A line holds the index's memoized functions, not the index,
        so the two form no reference cycle: an index is freed by
        reference counting, not left to the cyclic collector."""
        index = DocumentIndex.for_document(_document(LINE, "Cookies too."))
        analysis = index.analysis(LINE)
        analysis.practice_hits(None)
        assert list(analysis.tokens) == tokenize_with_spans(LINE)
        assert analysis.stem is index.stem
        # The local name and getrefcount's own argument: nothing else.
        assert sys.getrefcount(index) == 2


class TestBindModelIndex:
    def test_binds_and_clears_on_simulated_model(self):
        model = make_model("sim-gpt-4-turbo")
        index = DocumentIndex()
        bind_model_index(model, index)
        assert model.doc_index is index
        bind_model_index(model, None)
        assert model.doc_index is None

    def test_model_without_hook_is_untouched(self):
        class Bare:
            pass

        bind_model_index(Bare(), DocumentIndex())  # must not raise


class TestPipelineEquivalence:
    """Byte-identical output with the index on vs. off — the acceptance
    oracle for the whole optimisation."""

    def test_records_traces_tokens_identical(self, monkeypatch):
        corpus = build_corpus(CorpusConfig(seed=11, fraction=0.02))
        on = run_pipeline(corpus, PipelineOptions())
        # The off side: every domain annotates without a document index.
        unindexed = []
        monkeypatch.setattr(runner.DocumentIndex, "for_document",
                            staticmethod(unindexed.append))
        off = run_pipeline(corpus, PipelineOptions())
        assert unindexed
        assert [r.to_json() for r in on.records] == \
            [r.to_json() for r in off.records]
        assert on.traces == off.traces
        assert on.prompt_tokens == off.prompt_tokens
        assert on.completion_tokens == off.completion_tokens

    def test_parallel_run_identical_with_index(self):
        corpus = build_corpus(CorpusConfig(seed=11, fraction=0.02))
        serial = run_pipeline(corpus, PipelineOptions())
        parallel = run_pipeline(corpus, PipelineOptions(), workers=3)
        assert [r.to_json() for r in serial.records] == \
            [r.to_json() for r in parallel.records]

    def test_shared_model_with_index_off_clears_binding(self):
        # A shared model segmenting a document without an index must not
        # keep a stale index from a previous indexed document.
        model = make_model("sim-gpt-4-turbo")
        bind_model_index(model, DocumentIndex())
        segment_policy("a.com", _document("We collect your email address."),
                       model, index=None)
        assert model.doc_index is None


def _record(domain):
    return DomainAnnotations(domain=domain, sector="--", status="annotated")


class TestRecordForIndex:
    def test_lookup_and_miss(self):
        result = PipelineResult(records=[_record("a.com"), _record("b.com")],
                                traces={}, options=PipelineOptions())
        assert result.record_for("b.com").domain == "b.com"
        assert result.get_record("missing.com") is None

    def test_miss_raises_keyerror_naming_domain_and_suggestions(self):
        # Regression: the error must name the missing domain and suggest
        # the nearest domains actually present in the run.
        result = PipelineResult(
            records=[_record("acme-corp.com"), _record("zenith.com")],
            traces={}, options=PipelineOptions())
        with pytest.raises(KeyError) as excinfo:
            result.record_for("acme-crop.com")
        message = str(excinfo.value)
        assert "acme-crop.com" in message
        assert "acme-corp.com" in message  # nearest match listed

    def test_miss_on_empty_run_mentions_no_records(self):
        result = PipelineResult(records=[], traces={},
                                options=PipelineOptions())
        with pytest.raises(KeyError, match="no records at all"):
            result.record_for("anything.com")

    def test_first_record_wins_for_duplicates(self):
        first = _record("dup.com")
        result = PipelineResult(records=[first, _record("dup.com")],
                                traces={}, options=PipelineOptions())
        assert result.record_for("dup.com") is first

    def test_lookup_sees_records_appended_after_construction(self):
        # merge_outcomes extends `records` in place after building the
        # result; the lazy dict must notice the growth.
        result = PipelineResult(records=[_record("a.com")], traces={},
                                options=PipelineOptions())
        assert result.record_for("a.com") is not None
        late = _record("late.com")
        result.records.append(late)
        assert result.record_for("late.com") is late
        assert result.record_for("a.com").domain == "a.com"
