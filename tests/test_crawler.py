"""Tests for link extraction and the §3.1 crawl strategy."""

from repro.crawler import (
    MAX_PAGES,
    PrivacyCrawler,
    extract_links,
    footer_privacy_links,
    same_site,
    top_privacy_links,
)
from repro.web import (
    Browser,
    FetchStats,
    SimPage,
    SimulatedInternet,
    Status,
    Website,
)


def _page(body: str, footer: str = "") -> str:
    return (f"<html><body><main>{body}</main>"
            f"<footer>{footer}</footer></body></html>")


class TestLinkExtraction:
    def test_footer_links_classified(self):
        html = _page('<a href="/top">Top</a>',
                     '<a href="/privacy">Privacy Policy</a>')
        links = extract_links(html, "https://e.com/")
        by_url = {l.url: l for l in links}
        assert not by_url["https://e.com/top"].in_footer
        assert by_url["https://e.com/privacy"].in_footer

    def test_javascript_links_skipped(self):
        html = _page('<a href="javascript:void(0)">Privacy</a>')
        assert extract_links(html, "https://e.com/") == []

    def test_mailto_and_fragment_skipped(self):
        html = _page('<a href="mailto:x@e.com">mail</a><a href="#top">top</a>')
        assert extract_links(html, "https://e.com/") == []

    def test_relative_resolution(self):
        html = _page('<a href="sub/page">x</a>')
        links = extract_links(html, "https://e.com/dir/")
        assert links[0].url == "https://e.com/dir/sub/page"

    def test_footer_fallback_when_no_footer_element(self):
        anchors = "".join(f'<a href="/l{i}">L{i}</a>' for i in range(20))
        html = f"<html><body>{anchors}</body></html>"
        links = extract_links(html, "https://e.com/")
        assert links[-1].in_footer
        assert not links[0].in_footer

    def test_privacy_filters(self):
        html = _page(
            '<a href="/pc">Privacy Center</a><a href="/about">About</a>',
            '<a href="/privacy">Privacy Policy</a>'
            '<a href="/terms">Terms</a>',
        )
        links = extract_links(html, "https://e.com/")
        footer = footer_privacy_links(links)
        top = top_privacy_links(links)
        assert [l.url for l in footer] == ["https://e.com/privacy"]
        assert [l.url for l in top] == ["https://e.com/pc"]

    def test_limits_respected(self):
        footer = "".join(
            f'<a href="/p{i}">Privacy {i}</a>' for i in range(6)
        )
        links = extract_links(_page("", footer), "https://e.com/")
        assert len(footer_privacy_links(links, 3)) == 3

    def test_same_site(self):
        assert same_site("https://www.acme.com/x", "acme.com")
        assert same_site("https://acme.com/x", "acme.com")
        assert not same_site("https://other.com/x", "acme.com")


def _make_site(domain="crawl-test.com"):
    site = Website(domain=domain)
    policy = "<h1>Privacy Policy</h1><p>We collect your email address.</p>"
    site.add_page(SimPage(path="/", html=_page(
        "<h1>Home</h1>", f'<a href="/legal/privacy">Privacy Notice</a>')))
    site.add_page(SimPage(path="/legal/privacy", html=_page(policy)))
    return site


class TestCrawler:
    def _crawl(self, site):
        net = SimulatedInternet(seed=1)
        net.register(site)
        return PrivacyCrawler(Browser(internet=net)).crawl_domain(site.domain)

    def test_footer_link_followed(self):
        result = self._crawl(_make_site())
        sources = {p.source: p for p in result.pages}
        assert "footer-link" in sources
        assert result.crawl_succeeded

    def test_path_probes_attempted(self):
        result = self._crawl(_make_site())
        probed = {p.requested_url for p in result.pages
                  if p.source == "path-probe"}
        assert any(u.endswith("/privacy-policy") for u in probed)
        assert any(u.endswith("/privacy") for u in probed)

    def test_two_hop_privacy_center(self):
        site = Website(domain="center.com")
        site.add_page(SimPage(path="/", html=_page(
            "", '<a href="/privacy-center">Privacy Center</a>')))
        site.add_page(SimPage(path="/privacy-center", html=_page(
            '<a href="/real-policy">Full Privacy Policy</a>')))
        site.add_page(SimPage(path="/real-policy", html=_page(
            "<h1>Privacy Policy</h1>")))
        result = self._crawl(site)
        urls = {p.requested_url for p in result.pages}
        assert "https://center.com/real-policy" in urls

    def test_no_privacy_anywhere_fails(self):
        site = Website(domain="nopolicy.com")
        site.add_page(SimPage(path="/", html=_page(
            "", '<a href="/terms">Terms</a>')))
        result = self._crawl(site)
        assert not result.crawl_succeeded

    def test_duplicate_urls_not_refetched(self):
        site = Website(domain="dup.com")
        site.add_page(SimPage(path="/", html=_page(
            "", '<a href="/privacy">Privacy</a>'
                '<a href="/privacy">Privacy Policy</a>')))
        site.add_page(SimPage(path="/privacy", html=_page("<h1>Policy</h1>")))
        result = self._crawl(site)
        fetched = [p.requested_url for p in result.pages]
        assert fetched.count("https://dup.com/privacy") == 1

    def test_max_pages_cap(self):
        # A pathological site whose privacy pages link to ever more pages.
        site = Website(domain="deep.com")
        footer = "".join(
            f'<a href="/privacy-{i}">Privacy {i}</a>' for i in range(3)
        )
        site.add_page(SimPage(path="/", html=_page("", footer)))
        for i in range(3):
            tops = "".join(
                f'<a href="/privacy-{i}-{j}">Privacy {i}.{j}</a>'
                for j in range(5)
            )
            site.add_page(SimPage(path=f"/privacy-{i}", html=_page(tops)))
            for j in range(5):
                site.add_page(SimPage(path=f"/privacy-{i}-{j}",
                                      html=_page("<p>leaf</p>")))
        result = self._crawl(site)
        assert result.navigations <= MAX_PAGES

    def test_offsite_privacy_links_ignored(self):
        site = Website(domain="offsite.com")
        site.add_page(SimPage(path="/", html=_page(
            "", '<a href="https://elsewhere.com/privacy">Privacy</a>')))
        result = self._crawl(site)
        assert all("elsewhere" not in p.requested_url for p in result.pages)

    def test_homepage_timeout_recorded(self):
        site = _make_site("slow.com")
        site.timeout_probability = 1.0
        result = self._crawl(site)
        assert not result.crawl_succeeded
        assert "timeout" in result.errors()

    def test_blocked_site_records_403(self):
        site = _make_site("blocked.com")
        site.blocks_bots = True
        result = self._crawl(site)
        assert not result.crawl_succeeded
        homepage = result.homepage
        assert homepage.status == int(Status.FORBIDDEN)

    def test_each_crawl_counts_its_own_fetches(self):
        net = SimulatedInternet(seed=1)
        flaky = _make_site("flaky.com")
        flaky.timeout_probability = 1.0
        for site in (_make_site(), flaky):
            net.register(site)
        browser = Browser(internet=net)
        crawler = PrivacyCrawler(browser)
        first = crawler.crawl_domain("crawl-test.com")
        counted = first.fetch.as_dict()
        second = crawler.crawl_domain("flaky.com")
        # Homepage and footer link found, both probes 404; a later crawl
        # leaves an earlier result's counts as they were.
        assert counted == {**FetchStats().as_dict(), "requests": 4,
                           "successes": 2, "not_found": 2}
        assert first.fetch.as_dict() == counted
        # Every homepage and probe attempt timed out, retries included.
        assert second.fetch.requests == second.fetch.timeouts == \
            second.navigations * (browser.max_retries + 1)
        assert browser.stats.as_dict() == \
            FetchStats.total([first.fetch, second.fetch]).as_dict()
