"""Tests for the simulated internet, robots handling, and browser facade."""

import pytest

from repro.errors import FetchError, RobotsDisallowedError
from repro.web import (
    ALLOW_ALL,
    Browser,
    DENY_ALL,
    FetchStats,
    Request,
    RobotsPolicy,
    SimPage,
    SimulatedInternet,
    Status,
    Website,
    make_plain_client,
)


def _simple_net(**site_kwargs):
    net = SimulatedInternet(seed=5)
    site = Website(domain="acme.com", **site_kwargs)
    site.add_page(SimPage(path="/", html="<html><body>home</body></html>"))
    net.register(site)
    return net, site


class TestRobotsPolicy:
    def test_allow_all(self):
        assert ALLOW_ALL.allowed("/anything")

    def test_deny_all(self):
        assert not DENY_ALL.allowed("/anything")

    def test_longest_match_wins(self):
        policy = RobotsPolicy.parse(
            "User-agent: *\nDisallow: /private\nAllow: /private/public\n"
        )
        assert not policy.allowed("/private/secret")
        assert policy.allowed("/private/public/page")
        assert policy.allowed("/open")

    def test_specific_agent_group(self):
        policy = RobotsPolicy.parse(
            "User-agent: evilbot\nDisallow: /\n\nUser-agent: *\nDisallow:\n"
        )
        assert not policy.allowed("/", agent="evilbot")
        assert policy.allowed("/", agent="goodbot")

    def test_crawl_delay_parsed(self):
        policy = RobotsPolicy.parse("User-agent: *\nCrawl-delay: 2.5\n")
        assert policy.crawl_delay() == 2.5

    def test_comments_and_blank_lines_ignored(self):
        policy = RobotsPolicy.parse("# hi\n\nUser-agent: *  # all\nDisallow: /x\n")
        assert not policy.allowed("/x/y")


class TestSimulatedInternet:
    def test_unknown_domain_is_dns_error(self):
        net = SimulatedInternet()
        with pytest.raises(FetchError) as exc:
            net.fetch(Request(url="https://nosuch.example/"))
        assert exc.value.reason == "dns"

    def test_www_alias_resolves(self):
        net, _ = _simple_net()
        response = net.fetch(Request(url="https://www.acme.com/"))
        assert response.status == Status.OK

    def test_missing_page_404(self):
        net, _ = _simple_net()
        response = net.fetch(Request(url="https://acme.com/nope"))
        assert response.status == Status.NOT_FOUND
        assert not response.ok

    def test_bot_blocking(self):
        net, site = _simple_net()
        site.blocks_bots = True
        response = net.fetch(
            Request(url="https://acme.com/", user_agent="my-crawler/1.0")
        )
        assert response.status == Status.FORBIDDEN

    def test_human_agent_not_blocked(self):
        net, site = _simple_net()
        site.blocks_bots = True
        response = net.fetch(
            Request(url="https://acme.com/", user_agent="Mozilla/5.0 Firefox")
        )
        assert response.status == Status.OK

    def test_guaranteed_timeout(self):
        net, site = _simple_net()
        site.timeout_probability = 1.0
        with pytest.raises(FetchError) as exc:
            net.fetch(Request(url="https://acme.com/"))
        assert exc.value.reason == "timeout"

    def test_latency_above_budget_times_out(self):
        net, site = _simple_net()
        site.page("/").latency_ms = 60_000
        with pytest.raises(FetchError):
            net.fetch(Request(url="https://acme.com/", timeout_ms=1000))

    def test_fetch_outcomes_deterministic(self):
        net, site = _simple_net()
        site.timeout_probability = 0.5
        outcomes = []
        for attempt in range(6):
            try:
                net.fetch(Request(url="https://acme.com/"), attempt=attempt)
                outcomes.append("ok")
            except FetchError:
                outcomes.append("timeout")
        net2, site2 = _simple_net()
        site2.timeout_probability = 0.5
        outcomes2 = []
        for attempt in range(6):
            try:
                net2.fetch(Request(url="https://acme.com/"), attempt=attempt)
                outcomes2.append("ok")
            except FetchError:
                outcomes2.append("timeout")
        assert outcomes == outcomes2

    def test_stats_counted(self):
        net, _ = _simple_net()
        stats = FetchStats()
        net.fetch(Request(url="https://acme.com/"), stats=stats)
        net.fetch(Request(url="https://acme.com/nope"), stats=stats)
        assert stats.as_dict() == {**FetchStats().as_dict(), "requests": 2,
                                   "successes": 1, "not_found": 1}


class TestJsRendering:
    def test_js_content_visible_to_browser(self):
        net, site = _simple_net()
        site.page("/").js_html = "<p>late content</p>"
        site.page("/").js_delay_ms = 100
        response = net.fetch(Request(url="https://acme.com/", render_js=True))
        assert "late content" in response.body

    def test_js_content_hidden_from_plain_client(self):
        net, site = _simple_net()
        site.page("/").js_html = "<p>late content</p>"
        response = net.fetch(Request(url="https://acme.com/", render_js=False))
        assert "late content" not in response.body

    def test_slow_js_exceeds_budget(self):
        net, site = _simple_net()
        site.page("/").js_html = "<p>late content</p>"
        site.page("/").js_delay_ms = 90_000
        response = net.fetch(Request(url="https://acme.com/", render_js=True,
                                     timeout_ms=30_000))
        assert "late content" not in response.body


class TestBrowser:
    def test_follows_redirect_chain(self):
        net, site = _simple_net()
        site.add_page(SimPage(path="/a", redirect_to="/b",
                              status=Status.MOVED_PERMANENTLY))
        site.add_page(SimPage(path="/b", html="<p>final</p>"))
        browser = Browser(internet=net)
        result = browser.goto("https://acme.com/a")
        assert result.final_url.endswith("/b")
        assert result.redirects == 1
        assert "final" in result.html

    def test_redirect_loop_raises(self):
        net, site = _simple_net()
        site.add_page(SimPage(path="/a", redirect_to="/b", status=Status.FOUND))
        site.add_page(SimPage(path="/b", redirect_to="/a", status=Status.FOUND))
        browser = Browser(internet=net)
        with pytest.raises(FetchError) as exc:
            browser.goto("https://acme.com/a")
        assert exc.value.reason == "too-many-redirects"

    def test_robots_respected(self):
        net, site = _simple_net()
        site.robots = DENY_ALL
        browser = Browser(internet=net)
        with pytest.raises(RobotsDisallowedError):
            browser.goto("https://acme.com/")

    def test_robots_ignored_when_configured(self):
        net, site = _simple_net()
        site.robots = DENY_ALL
        browser = Browser(internet=net, respect_robots=False)
        assert browser.goto("https://acme.com/").ok

    def test_retry_recovers_from_transient_failure(self):
        net, site = _simple_net()
        site.timeout_probability = 0.45
        browser = Browser(internet=net, max_retries=5)
        result = browser.goto("https://acme.com/")
        assert result.ok

    def test_plain_client_has_no_js(self):
        net, site = _simple_net()
        site.page("/").js_html = "<p>late</p>"
        client = make_plain_client(net)
        assert "late" not in client.goto("https://acme.com/").html

    def test_history_recorded(self):
        net, _ = _simple_net()
        browser = Browser(internet=net)
        browser.goto("https://acme.com/")
        assert browser.history == ["https://acme.com/"]
