"""Pre-processing of crawled pages (paper §3.1, §3.2.1).

Takes a domain's :class:`~repro.crawler.crawler.CrawlResult` and produces
the text the annotation stages work on:

1. Drop non-HTML documents (PDF policies are unsupported, a §4 failure
   class).
2. Drop pages whose raw HTML bytes are identical to an already-processed
   page, *before* paying for rendering or language detection (tier-0
   dedupe; identical bytes render to identical text, so the outcome is
   the same ``duplicate-content`` drop the rendered-text tier would have
   produced).
3. Render each surviving page to a line-numbered text document.
4. Remove duplicate pages (same final URL or identical rendered text).
5. Remove non-English pages and discard documents mixing languages.
6. Concatenate the surviving pages into one combined, globally numbered
   document for segmentation.

Each page's work happens once. A page is rendered from
:attr:`~repro.crawler.crawler.PageRecord.tree`, the tree the crawler
parsed when it read the page's links, so no page is parsed twice. Its
language and the mixed-language scan both come from one tokenization of
its rendered lines (:func:`~repro.lang.page_language`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crawler.crawler import CrawlResult, PageRecord
from repro.htmlkit import TextDocument, TextLine, render_document
from repro.lang import page_language


@dataclass
class PreprocessedPage:
    """One retained privacy page."""

    url: str
    document: TextDocument


@dataclass
class PreprocessResult:
    """Outcome of pre-processing one domain's crawl."""

    domain: str
    pages: list[PreprocessedPage] = field(default_factory=list)
    combined: TextDocument | None = None
    #: Pages dropped and why: (url, reason).
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.combined is not None and len(self.combined.lines) > 0

    def page_count(self) -> int:
        return len(self.pages)


def preprocess_crawl(crawl: CrawlResult) -> PreprocessResult:
    """Run the full §3.1 pre-processing for one domain."""
    result = PreprocessResult(domain=crawl.domain)
    seen_urls: set[str] = set()
    seen_raw: set[str] = set()
    seen_hashes: set[str] = set()

    for page in crawl.potential_privacy_pages():
        reason = _drop_reason(page, seen_urls)
        if reason is not None:
            result.dropped.append((page.requested_url, reason))
            continue
        raw_digest = hashlib.sha256(page.html.encode("utf-8")).hexdigest()
        if raw_digest in seen_raw:
            # Byte-identical to a page that already went through the
            # rendered-text tier: identical bytes render identically, so
            # this is the same duplicate-content outcome without paying
            # for rendering and language detection again.
            result.dropped.append((page.requested_url, "duplicate-content"))
            continue
        document = render_document(page.tree)
        text = document.text
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest in seen_hashes:
            result.dropped.append((page.requested_url, "duplicate-content"))
            continue
        seen_hashes.add(digest)
        seen_raw.add(raw_digest)
        seen_urls.add(page.final_url)
        guess, mixed = page_language(text)
        if guess.language not in ("en", "und"):
            result.dropped.append((page.requested_url, "non-english"))
            continue
        if mixed:
            result.dropped.append((page.requested_url, "mixed-language"))
            continue
        result.pages.append(PreprocessedPage(url=page.final_url,
                                             document=document))

    if result.pages:
        result.combined = _combine_documents(
            [page.document for page in result.pages]
        )
    return result


def _drop_reason(page: PageRecord, seen_urls: set[str]) -> str | None:
    if page.is_pdf:
        return "pdf-unsupported"
    if not page.content_type.startswith("text/html"):
        return "non-html"
    if page.final_url in seen_urls:
        return "duplicate-url"
    return None


def _combine_documents(documents: list[TextDocument]) -> TextDocument:
    """Concatenate documents with continuous global line numbers."""
    lines: list[TextLine] = []
    for document in documents:
        for line in document.lines:
            lines.append(
                TextLine(
                    number=len(lines) + 1,
                    text=line.text,
                    heading_level=line.heading_level,
                    source=line.source,
                )
            )
    return TextDocument(lines=lines)
