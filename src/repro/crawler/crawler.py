"""The privacy-page crawler (paper §3.1).

Strategy, per domain:

1. Navigate to the homepage.
2. Follow up to **three** links containing the word "privacy" from the
   *bottom* (footer) of the homepage.
3. Try ``/privacy-policy`` and ``/privacy`` directly.
4. From the *top* of each of those five pages, follow up to **five** more
   links containing "privacy" (this finds policies behind dedicated privacy
   home/center pages).
5. Never fetch more than 31 pages per site (1 + 3 + 2 + 5×5).

Every navigation is recorded; *potential privacy pages* are the non-homepage
fetches that returned HTTP status < 400.

A page's HTML is parsed once, on first use: :attr:`PageRecord.tree` is the
tree the crawler reads links from and the tree pre-processing renders. It
lives as long as the page record, which the pipeline drops with its
domain; the executor's ``crawl_domains``, which keeps every crawl, drops
the trees (:meth:`CrawlResult.drop_trees`) as each domain finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crawler.links import (
    extract_links_from_tree,
    footer_privacy_links,
    same_site,
    top_privacy_links,
)
from repro.errors import FetchError, RobotsDisallowedError
from repro.htmlkit.dom import Element, parse_html
from repro.web.browser import Browser, PageResult
from repro.web.net import FetchStats
from repro.web.url import normalize_url

MAX_FOOTER_LINKS = 3
MAX_TOP_LINKS = 5
MAX_PAGES = 31
PROBE_PATHS = ("/privacy-policy", "/privacy")


@dataclass
class PageRecord:
    """Outcome of one navigation."""

    requested_url: str
    source: str  # "homepage" | "footer-link" | "path-probe" | "top-link"
    ok: bool
    status: int = 0
    final_url: str = ""
    html: str = ""
    content_type: str = "text/html"
    language: str = "en"
    error: str | None = None

    @property
    def is_pdf(self) -> bool:
        return self.content_type == "application/pdf"

    @property
    def tree(self) -> Element:
        """The parsed HTML, parsed on first use and kept on the record
        outside its fields, so equality, ``repr`` and ``asdict`` never
        see it."""
        tree = self.__dict__.get("_tree")
        if tree is None:
            tree = self.__dict__["_tree"] = parse_html(self.html)
        return tree


@dataclass
class CrawlResult:
    """Everything the crawler learned about one domain."""

    domain: str
    pages: list[PageRecord] = field(default_factory=list)
    #: Number of navigations attempted (the paper's "pages crawled").
    navigations: int = 0
    #: Counters of the fetches this crawl sent, retries included.
    fetch: FetchStats = field(default_factory=FetchStats)

    @property
    def homepage(self) -> PageRecord | None:
        for page in self.pages:
            if page.source == "homepage":
                return page
        return None

    def potential_privacy_pages(self) -> list[PageRecord]:
        """Non-homepage pages fetched successfully (status < 400)."""
        return [
            page for page in self.pages
            if page.source != "homepage" and page.ok
        ]

    @property
    def crawl_succeeded(self) -> bool:
        """The paper's §3.1 criterion: ≥1 potential privacy page below 400."""
        return bool(self.potential_privacy_pages())

    def errors(self) -> list[str]:
        return [page.error for page in self.pages if page.error]

    def drop_trees(self) -> None:
        """Forget every page's parsed tree, for a caller that keeps the
        crawl past its domain; a later use parses the page again."""
        for page in self.pages:
            page.__dict__.pop("_tree", None)


class PrivacyCrawler:
    """Runs the §3.1 strategy against a browser."""

    def __init__(self, browser: Browser):
        self.browser = browser

    def crawl_domain(self, domain: str) -> CrawlResult:
        """Crawl one domain and return all page records.

        The result's ``fetch`` holds the fetches this crawl sent: what the
        browser counted between the call's start and its return.
        """
        result = CrawlResult(domain=domain)
        sent = self.browser.stats.as_dict()
        visited: set[str] = set()

        homepage = self._navigate(result, visited, f"https://{domain}/",
                                   "homepage")
        candidate_pages: list[PageRecord] = []

        # Step 2: footer privacy links from the homepage.
        if homepage is not None and homepage.ok:
            links = extract_links_from_tree(homepage.tree,
                                            homepage.final_url)
            for link in footer_privacy_links(links, MAX_FOOTER_LINKS):
                if not same_site(link.url, domain):
                    continue
                page = self._navigate(result, visited, link.url, "footer-link")
                if page is not None:
                    candidate_pages.append(page)

        # Step 3: direct path probes.
        for path in PROBE_PATHS:
            page = self._navigate(result, visited,
                                  f"https://{domain}{path}", "path-probe")
            if page is not None:
                candidate_pages.append(page)

        # Step 4: top privacy links from each candidate page.
        for page in list(candidate_pages):
            if not page.ok or page.is_pdf:
                continue
            links = extract_links_from_tree(page.tree, page.final_url)
            for link in top_privacy_links(links, MAX_TOP_LINKS):
                if not same_site(link.url, domain):
                    continue
                self._navigate(result, visited, link.url, "top-link")

        result.fetch = FetchStats(**{
            name: count - sent[name]
            for name, count in self.browser.stats.as_dict().items()})
        return result

    # -- internals -----------------------------------------------------------

    def _navigate(self, result: CrawlResult, visited: set[str], url: str,
                  source: str) -> PageRecord | None:
        normalized = normalize_url(url)
        if normalized in visited or result.navigations >= MAX_PAGES:
            return None
        visited.add(normalized)
        result.navigations += 1
        try:
            outcome: PageResult = self.browser.goto(normalized)
        except RobotsDisallowedError:
            record = PageRecord(requested_url=normalized, source=source,
                                ok=False, error="robots-disallowed")
            result.pages.append(record)
            return record
        except FetchError as exc:
            record = PageRecord(requested_url=normalized, source=source,
                                ok=False, error=exc.reason)
            result.pages.append(record)
            return record
        # A redirect may land on an already-visited page; mark the target
        # visited so we don't fetch the same document twice.
        visited.add(outcome.final_url)
        record = PageRecord(
            requested_url=normalized,
            source=source,
            ok=outcome.ok,
            status=int(outcome.status),
            final_url=outcome.final_url,
            html=outcome.html,
            content_type=outcome.content_type,
            language=outcome.language,
        )
        result.pages.append(record)
        return record
