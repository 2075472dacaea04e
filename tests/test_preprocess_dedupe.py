"""Drop-reason accounting through the tiered preprocess dedupe.

The tier-0 raw-bytes dedupe and the language-detection fast paths are pure
optimisations: every page must land in exactly the bucket (retained, or
dropped with a specific reason) it did before they existed. In particular a
page byte-identical to an earlier one must surface as ``duplicate-content``
— not silently vanish from the accounting.
"""

from __future__ import annotations

import pytest

from repro.crawler.crawler import CrawlResult, PageRecord
from repro.pipeline.preprocess import preprocess_crawl

ENGLISH_BODY = (
    "<h1>Privacy Policy</h1>"
    "<p>We collect information about you when you use our services and "
    "we use that data to improve the experience for our customers.</p>"
    "<p>This policy describes what we do with the information we collect "
    "and how you can exercise your rights under the law.</p>"
)
GERMAN_BODY = (
    "<h1>Datenschutz</h1>"
    "<p>Wir sammeln Informationen über Sie, wenn Sie unsere Dienste "
    "nutzen, und wir verwenden diese Daten, um das Erlebnis für unsere "
    "Kunden zu verbessern.</p>"
    "<p>Diese Erklärung beschreibt die Nutzung der Daten durch uns und "
    "Ihre Rechte nach dem Gesetz über den Umgang mit den Daten.</p>"
)


def _page(url: str, html: str, **kwargs) -> PageRecord:
    defaults = dict(requested_url=url, source="path-probe", ok=True,
                    status=200, final_url=url, html=html)
    defaults.update(kwargs)
    return PageRecord(**defaults)


def _crawl(*pages: PageRecord) -> CrawlResult:
    return CrawlResult(domain="example.com", pages=list(pages),
                       navigations=len(pages))


def _reasons(result) -> dict[str, str]:
    return dict(result.dropped)


class TestRawByteDedupe:
    def test_identical_html_different_url_drops_as_duplicate_content(self):
        result = preprocess_crawl(_crawl(
            _page("https://example.com/privacy", ENGLISH_BODY),
            _page("https://example.com/legal/privacy", ENGLISH_BODY),
        ))
        assert [p.url for p in result.pages] == ["https://example.com/privacy"]
        assert _reasons(result) == {
            "https://example.com/legal/privacy": "duplicate-content"}

    def test_raw_duplicate_does_not_vanish_from_accounting(self):
        """retained + dropped must always cover every candidate page."""
        pages = [
            _page("https://example.com/privacy", ENGLISH_BODY),
            _page("https://example.com/copy1", ENGLISH_BODY),
            _page("https://example.com/copy2", ENGLISH_BODY),
        ]
        result = preprocess_crawl(_crawl(*pages))
        assert len(result.pages) + len(result.dropped) == len(pages)
        assert [reason for _, reason in result.dropped] == \
            ["duplicate-content", "duplicate-content"]

    def test_rendered_text_tier_still_catches_byte_different_twins(self):
        """Different bytes, same rendered text → tier-2 duplicate-content."""
        variant = ENGLISH_BODY.replace('<h1>', '<h1 id="top">')
        assert variant != ENGLISH_BODY
        result = preprocess_crawl(_crawl(
            _page("https://example.com/privacy", ENGLISH_BODY),
            _page("https://example.com/privacy-v2", variant),
        ))
        assert len(result.pages) == 1
        assert _reasons(result) == {
            "https://example.com/privacy-v2": "duplicate-content"}

    def test_raw_twin_of_nonenglish_page_drops_as_duplicate(self):
        """Content hashes are recorded before language detection (and
        always have been), so a byte-copy of a *non-english* page drops
        as duplicate-content — same reason the rendered-text tier gave
        before tier-0 existed — while the original keeps non-english."""
        result = preprocess_crawl(_crawl(
            _page("https://example.com/de", GERMAN_BODY),
            _page("https://example.com/de-copy", GERMAN_BODY),
        ))
        assert result.pages == []
        assert _reasons(result) == {
            "https://example.com/de": "non-english",
            "https://example.com/de-copy": "duplicate-content",
        }

    def test_duplicate_url_wins_over_duplicate_content(self):
        """Same final URL is checked before content, as before."""
        result = preprocess_crawl(_crawl(
            _page("https://example.com/a", ENGLISH_BODY,
                  final_url="https://example.com/privacy"),
            _page("https://example.com/b", ENGLISH_BODY,
                  final_url="https://example.com/privacy"),
        ))
        assert _reasons(result) == {"https://example.com/b": "duplicate-url"}


class TestEarlyDropTiers:
    def test_pdf_and_non_html_never_reach_content_dedupe(self):
        result = preprocess_crawl(_crawl(
            _page("https://example.com/p.pdf", "%PDF-1.4",
                  content_type="application/pdf"),
            _page("https://example.com/p.json", "{}",
                  content_type="application/json"),
        ))
        assert _reasons(result) == {
            "https://example.com/p.pdf": "pdf-unsupported",
            "https://example.com/p.json": "non-html",
        }

    def test_short_ascii_page_is_retained_as_undetermined(self):
        """Short ASCII text hits the detector's early exit ("und") and is
        kept — "und" has never been a drop reason."""
        result = preprocess_crawl(_crawl(
            _page("https://example.com/stub", "<p>privacy page</p>")))
        assert [p.url for p in result.pages] == ["https://example.com/stub"]
        assert result.dropped == []

    def test_short_cjk_page_still_drops_as_non_english(self):
        """Short non-ASCII text must bypass the length early-exit: the
        script check still fires and classifies it as cjk."""
        result = preprocess_crawl(_crawl(
            _page("https://example.com/jp", "<p>プライバシーポリシー</p>")))
        assert result.pages == []
        assert _reasons(result) == {"https://example.com/jp": "non-english"}

    def test_mixed_language_document_still_drops(self):
        english = "We collect information about you and use the data."
        german = ("Wir sammeln die Daten und werden diese Informationen "
                  "mit der Nutzung verbessern.")
        # English must dominate the whole-document guess (else the page
        # drops earlier as non-english); the trailing German block still
        # flips a line window, which is the mixed-language signal.
        html = ("<div>"
                + "".join(f"<p>{english}</p>" for _ in range(90))
                + "".join(f"<p>{german}</p>" for _ in range(45))
                + "</div>")
        result = preprocess_crawl(_crawl(
            _page("https://example.com/multi", html)))
        assert result.pages == []
        assert _reasons(result) == {
            "https://example.com/multi": "mixed-language"}


class TestCombinedDocument:
    def test_retained_pages_concatenate_with_global_line_numbers(self):
        other = ENGLISH_BODY.replace("Privacy Policy", "Cookie Notice")
        result = preprocess_crawl(_crawl(
            _page("https://example.com/privacy", ENGLISH_BODY),
            _page("https://example.com/cookies", other),
        ))
        assert len(result.pages) == 2
        numbers = [line.number for line in result.combined.lines]
        assert numbers == list(range(1, len(numbers) + 1))

    def test_all_pages_dropped_yields_no_combined_document(self):
        result = preprocess_crawl(_crawl(
            _page("https://example.com/de", GERMAN_BODY)))
        assert result.combined is None
        assert not result.ok
