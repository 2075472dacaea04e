"""Tests for pre-processing, segmentation, verification, annotation, and
the end-to-end runner."""

import pytest
from hypothesis import given, strategies as st

from repro.chatbot import make_model
from repro.crawler import CrawlResult, PageRecord
from repro.htmlkit import html_to_document
from repro.pipeline import (
    DomainAnnotations,
    HallucinationVerifier,
    PipelineOptions,
    PipelineResult,
    TypeAnnotation,
    annotate_policy_html,
    annotate_policy_text,
    preprocess_crawl,
    read_jsonl,
    run_pipeline,
    segment_policy,
    write_jsonl,
)
from repro.taxonomy import Aspect

POLICY_HTML = """
<html><body>
<h1>Test Privacy Policy</h1>
<h2>Information We Collect</h2>
<p>We collect your email address, postal address, and browser type.</p>
<h2>How We Use Your Data</h2>
<p>We use the information we collect for analytics and fraud prevention.</p>
<h2>Data Retention and Security</h2>
<p>We retain your personal information for two (2) years. Data is encrypted
in transit.</p>
<h2>Your Rights and Choices</h2>
<p>You may update or correct your personal information at any time.</p>
<h2>Changes to This Policy</h2>
<p>We may update this privacy policy from time to time.</p>
<h2>Contact Us</h2>
<p>Email us with questions.</p>
</body></html>
"""


def _record(url, html, source="footer-link", **kwargs):
    return PageRecord(requested_url=url, source=source, ok=True, status=200,
                      final_url=url, html=html, **kwargs)


class TestPreprocess:
    def test_duplicate_final_url_dropped(self):
        crawl = CrawlResult(domain="d.com", pages=[
            _record("https://d.com/a", "<p>same page</p>"),
            _record("https://d.com/a", "<p>same page</p>", source="top-link"),
        ])
        result = preprocess_crawl(crawl)
        assert result.page_count() == 1
        assert ("https://d.com/a", "duplicate-url") in result.dropped

    def test_duplicate_content_dropped(self):
        crawl = CrawlResult(domain="d.com", pages=[
            _record("https://d.com/a", "<p>identical text</p>"),
            _record("https://d.com/b", "<p>identical text</p>"),
        ])
        assert preprocess_crawl(crawl).page_count() == 1

    def test_pdf_dropped(self):
        crawl = CrawlResult(domain="d.com", pages=[
            _record("https://d.com/p.pdf", "%PDF-1.7",
                    content_type="application/pdf"),
        ])
        result = preprocess_crawl(crawl)
        assert not result.ok
        assert result.dropped[0][1] == "pdf-unsupported"

    def test_non_english_dropped(self):
        german = ("<p>" + "Wir verwenden Ihre Daten nur für die Zwecke, die "
                  "in dieser Erklärung beschrieben sind und geben sie nicht "
                  "weiter. " * 5 + "</p>")
        crawl = CrawlResult(domain="d.com", pages=[
            _record("https://d.com/datenschutz", german),
        ])
        result = preprocess_crawl(crawl)
        assert not result.ok
        assert result.dropped[0][1] == "non-english"

    def test_combined_numbering_is_continuous(self):
        crawl = CrawlResult(domain="d.com", pages=[
            _record("https://d.com/a", "<p>page one text</p>"),
            _record("https://d.com/b", "<p>page two text</p>"),
        ])
        combined = preprocess_crawl(crawl).combined
        assert [l.number for l in combined.lines] == [1, 2]

    def test_homepage_not_included(self):
        crawl = CrawlResult(domain="d.com", pages=[
            _record("https://d.com/", "<p>home</p>", source="homepage"),
            _record("https://d.com/privacy", "<p>policy text</p>"),
        ])
        combined = preprocess_crawl(crawl).combined
        assert "home" not in combined.text


class TestSegmentation:
    def test_heading_path_used_for_structured_policy(self):
        model = make_model("sim-gpt-4-turbo", seed=0)
        doc = html_to_document(POLICY_HTML)
        segmented = segment_policy("d.com", doc, model)
        assert segmented.used_heading_path
        assert segmented.extraction_succeeded
        types_text = " ".join(t for _, t in segmented.lines_for(Aspect.TYPES))
        assert "email address" in types_text

    def test_text_analysis_for_headingless_policy(self):
        model = make_model("sim-gpt-4-turbo", seed=0)
        html = ("<p>We collect your email address and name.</p>"
                "<p>You may request that we delete your personal "
                "information.</p>")
        segmented = segment_policy("d.com", html_to_document(html), model)
        assert segmented.used_text_analysis
        assert segmented.extraction_succeeded

    def test_vacuous_text_fails_extraction(self):
        model = make_model("sim-gpt-4-turbo", seed=0)
        html = "<p>Welcome to our website. We love customers.</p>"
        segmented = segment_policy("d.com", html_to_document(html), model)
        assert not segmented.extraction_succeeded

    def test_substantive_word_count_excludes_changes(self):
        model = make_model("sim-gpt-4-turbo", seed=0)
        doc = html_to_document(POLICY_HTML)
        segmented = segment_policy("d.com", doc, model)
        assert 0 < segmented.substantive_word_count() < doc.word_count()


class TestHallucinationVerifier:
    def test_exact_match(self):
        verifier = HallucinationVerifier("We collect your email address.")
        assert verifier.contains("email address")

    def test_case_and_whitespace_tolerant(self):
        verifier = HallucinationVerifier("We collect your E-Mail\n Address.")
        assert verifier.contains("e-mail address")

    def test_inflection_tolerant(self):
        verifier = HallucinationVerifier("We use cookies on this site.")
        assert verifier.contains("cookie")

    def test_fabrication_rejected(self):
        verifier = HallucinationVerifier("We collect your email address.")
        assert not verifier.contains("quantum preferences")

    def test_empty_rejected(self):
        assert not HallucinationVerifier("text").contains("  ")

    @given(st.text(min_size=1, max_size=60))
    def test_text_always_contains_its_own_substrings(self, text):
        verifier = HallucinationVerifier(text)
        snippet = text[: max(1, len(text) // 2)]
        norm = snippet.strip()
        if norm:
            assert verifier.contains(snippet) or not any(
                ch.isalnum() for ch in snippet
            )

    def test_empty_and_whitespace_verbatim_rejected(self):
        verifier = HallucinationVerifier("We collect your email address.")
        assert not verifier.contains("")
        assert not verifier.contains("   \t\n  ")

    def test_punctuation_only_verbatim(self):
        verifier = HallucinationVerifier("We collect data. Really.")
        # Normalization keeps punctuation, so a literal occurrence matches
        # but a fabricated punctuation run does not.
        assert verifier.contains(".")
        assert not verifier.contains("!!!")

    def test_plural_inflection_at_document_start(self):
        verifier = HallucinationVerifier("Cookies are used on this site.")
        assert verifier.contains("cookie")

    def test_plural_inflection_at_document_end(self):
        verifier = HallucinationVerifier("This site uses tracking cookies")
        assert verifier.contains("tracking cookie")

    def test_index_backed_path_equivalent(self):
        from repro.corpus import CorpusConfig, build_corpus
        from repro.pipeline import DocumentIndex, ExecutorOptions, \
            crawl_domains, preprocess_crawl

        corpus = build_corpus(CorpusConfig(seed=3, fraction=0.01))
        crawls = crawl_domains(corpus.internet, corpus.domains[:8],
                               ExecutorOptions(workers=1))
        checked = 0
        for crawl in crawls.values():
            pre = preprocess_crawl(crawl)
            if not pre.ok:
                continue
            text = pre.combined.text
            index = DocumentIndex.for_document(pre.combined)
            plain = HallucinationVerifier(text)
            backed = HallucinationVerifier(text, index=index)
            probes = [line.text for line in pre.combined.lines[:20]]
            probes += ["email address", "quantum preferences", "cookie", ""]
            for probe in probes:
                assert plain.contains(probe) == backed.contains(probe), probe
                checked += 1
        assert checked > 0

    def test_index_for_other_document_is_ignored(self):
        from repro.pipeline import DocumentIndex
        from repro.htmlkit import TextDocument, TextLine

        other = TextDocument(lines=[TextLine(number=1, text="Unrelated.")])
        verifier = HallucinationVerifier(
            "We collect your email address.",
            index=DocumentIndex.for_document(other),
        )
        assert verifier.contains("email address")
        assert not verifier.contains("unrelated")


class TestAnnotateApi:
    def test_annotate_policy_html(self):
        record = annotate_policy_html(POLICY_HTML, domain="test")
        assert record.status == "annotated"
        descriptors = {t.descriptor for t in record.types}
        assert "email address" in descriptors
        assert any(h.label == "Stated" for h in record.handling)
        assert any(r.label == "Edit" for r in record.rights)

    def test_annotate_policy_text(self):
        text = ("Information We Collect\n"
                "We collect your email address and phone number.\n"
                "Your Rights\n"
                "You may request access to the personal information we hold "
                "about you.")
        record = annotate_policy_text(text)
        assert {t.descriptor for t in record.types} >= {"email address"}

    def test_empty_policy_yields_no_annotations(self):
        record = annotate_policy_html("<p>Nothing useful here.</p>")
        assert record.status == "no-annotations"

    def test_cascade_annotator_honoured(self):
        def annotate(options):
            model = make_model("sim-gpt-4-turbo", seed=3)
            record = annotate_policy_html(POLICY_HTML, model=model,
                                          options=options)
            return record.to_json(), model.usage.calls

        chatbot, chatbot_calls = annotate(PipelineOptions())
        _, cascade_calls = annotate(PipelineOptions(annotator="cascade"))
        assert cascade_calls < chatbot_calls
        parity, _ = annotate(PipelineOptions(annotator="cascade",
                                             escalation_threshold=1.0))
        assert parity == chatbot


class TestRecordsRoundtrip:
    def _record(self):
        return DomainAnnotations(
            domain="x.com", sector="IT", status="annotated",
            types=[TypeAnnotation(category="Contact info",
                                  meta_category="Physical profile",
                                  descriptor="email address",
                                  verbatim="e-mail", line=3)],
            fallback_aspects=["types"],
            policy_words=123,
        )

    def test_json_roundtrip(self):
        record = self._record()
        restored = DomainAnnotations.from_json(record.to_json())
        assert restored == record

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_jsonl([self._record(), self._record()], path)
        restored = read_jsonl(path)
        assert len(restored) == 2
        assert restored[0].types[0].descriptor == "email address"

    def test_queries(self):
        record = self._record()
        assert record.has_any_annotation()
        assert record.annotation_count() == 1
        assert record.type_categories() == {"Contact info"}
        assert record.descriptor_count("Contact info") == 1


class TestRunner:
    def test_pipeline_statuses_partition_domains(self, small_corpus,
                                                 pipeline_result):
        statuses = {r.status for r in pipeline_result.records}
        assert statuses <= {"annotated", "no-annotations", "extract-failed",
                            "crawl-failed"}
        assert len(pipeline_result.records) == len(small_corpus.domains)

    def test_crawl_failures_match_designed(self, small_corpus,
                                           pipeline_result):
        designed = set(small_corpus.designed_crawl_failures())
        observed = {r.domain for r in pipeline_result.records
                    if r.status == "crawl-failed"}
        assert designed == observed

    def test_extract_failures_cover_designed(self, small_corpus,
                                             pipeline_result):
        designed = set(small_corpus.designed_extract_failures())
        observed = {r.domain for r in pipeline_result.records
                    if r.status == "extract-failed"}
        assert designed <= observed

    def test_healthy_domains_annotated(self, small_corpus, pipeline_result):
        vacuous = small_corpus.vacuous_domains
        for record in pipeline_result.records:
            if small_corpus.failure_mode_of[record.domain] is None \
                    and record.domain not in vacuous:
                assert record.status == "annotated", record.domain

    def test_stats_consistency(self, pipeline_result):
        assert pipeline_result.crawl_successes() >= \
            pipeline_result.extraction_successes()
        assert pipeline_result.extraction_successes() >= \
            len(pipeline_result.annotated_domains())
        assert pipeline_result.mean_pages_crawled() > 1
        assert pipeline_result.median_policy_words() > 500

    def test_mean_pages_crawled_empty_is_zero(self, small_corpus):
        # Regression: statistics.mean raised StatisticsError on empty runs.
        empty = PipelineResult(records=[], traces={},
                               options=PipelineOptions())
        assert empty.mean_pages_crawled() == 0.0
        assert empty.mean_privacy_pages() == 0.0
        ran = run_pipeline(small_corpus, domains=[])
        assert ran.mean_pages_crawled() == 0.0

    def test_fallback_used_somewhere(self, pipeline_result):
        assert pipeline_result.fallback_domains() > 0

    def test_tokens_accounted(self, pipeline_result):
        assert pipeline_result.prompt_tokens > 0
        assert pipeline_result.completion_tokens > 0

    def test_annotations_verbatim_in_policy(self, small_corpus,
                                            pipeline_result):
        # The hallucination filter guarantees annotation evidence occurs in
        # the (combined) policy text; spot-check via ground-truth documents.
        checked = 0
        for record in pipeline_result.annotated_domains()[:10]:
            doc = small_corpus.documents.get(record.domain)
            if doc is None:
                continue
            verifier = HallucinationVerifier(doc.full_text())
            for annotation in record.types[:5]:
                assert verifier.contains(annotation.verbatim)
                checked += 1
        assert checked > 0


class TestAblations:
    @pytest.fixture(scope="class")
    def tiny_corpus(self):
        from repro.corpus import CorpusConfig, build_corpus

        return build_corpus(CorpusConfig(seed=5, fraction=0.02))

    def test_no_fallback_reduces_aspect_coverage(self, tiny_corpus):
        def covered_aspects(result):
            return sum(
                (1 if r.types else 0) + (1 if r.purposes else 0)
                + (1 if r.handling else 0) + (1 if r.rights else 0)
                for r in result.records
            )

        full = run_pipeline(tiny_corpus, PipelineOptions())
        no_fallback = run_pipeline(tiny_corpus,
                                   PipelineOptions(use_fallback=False))
        # Disabling the fallback loses whole (domain, aspect) cells; the
        # exact annotation count fluctuates with injected model noise, but
        # aspect coverage is monotone.
        assert covered_aspects(no_fallback) < covered_aspects(full)
        assert no_fallback.fallback_domains() == 0

    def test_no_hallucination_filter_keeps_more(self, tiny_corpus):
        filtered = run_pipeline(tiny_corpus, PipelineOptions())
        unfiltered = run_pipeline(
            tiny_corpus, PipelineOptions(use_hallucination_filter=False)
        )
        assert sum(r.hallucinations_filtered for r in unfiltered.records) == 0
        assert sum(r.hallucinations_filtered for r in filtered.records) >= 0
