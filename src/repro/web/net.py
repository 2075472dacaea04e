"""The simulated internet: a deterministic domain → website registry with
failure injection at fetch time.

This is the substrate that replaces the live WWW. Fetch outcomes are
deterministic functions of ``(seed, url, attempt)``, so crawls are exactly
reproducible while still exhibiting realistic flakiness (timeouts, resets,
bot blocking, rate limiting).

The internet keeps no counters of its own. Each fetch counts into the
:class:`FetchStats` its caller passes: a browser's, and through it the
crawl's (``CrawlResult.fetch``). A run's totals are the sum of its
crawls' counts, which travel with each crawl through the pipeline cache
and back from worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro._util.rng import derive_rng
from repro.errors import FetchError
from repro.web.http import Request, Response, Status
from repro.web.robots import RobotsPolicy
from repro.web.site import SimPage, Website
from repro.web.url import parse_url

#: Counter attribute names, in a stable reporting order.
STAT_COUNTERS = ("requests", "successes", "timeouts", "resets", "blocked",
                 "not_found", "dns_failures")


@dataclass
class FetchStats:
    """Counters for observability and tests."""

    requests: int = 0
    successes: int = 0
    timeouts: int = 0
    resets: int = 0
    blocked: int = 0
    not_found: int = 0
    dns_failures: int = 0

    def merge(self, other: "FetchStats") -> "FetchStats":
        """Add ``other``'s counters into this instance (returns self)."""
        for name in STAT_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in STAT_COUNTERS}

    @property
    def failures(self) -> int:
        return self.timeouts + self.resets + self.dns_failures

    @classmethod
    def total(cls, parts: Iterable["FetchStats"]) -> "FetchStats":
        """Sum a collection of stats into a fresh instance."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined


@dataclass
class SimulatedInternet:
    """A registry of simulated websites addressable by domain.

    ``www.`` prefixes resolve to the bare domain. Unknown domains raise a
    DNS :class:`FetchError`.
    """

    seed: int = 0
    sites: dict[str, Website] = field(default_factory=dict)

    def register(self, site: Website) -> None:
        self.sites[site.domain.lower()] = site

    def site_for_host(self, host: str) -> Website | None:
        host = host.lower()
        if host in self.sites:
            return self.sites[host]
        if host.startswith("www."):
            return self.sites.get(host[4:])
        return None

    def robots_for(self, host: str) -> RobotsPolicy | None:
        site = self.site_for_host(host)
        return site.robots if site else None

    # -- fetch semantics -----------------------------------------------------

    def fetch(self, request: Request, attempt: int = 0,
              stats: FetchStats | None = None) -> Response:
        """Serve one request (no redirect following; clients do that).

        The request and its outcome are counted into ``stats``, the
        caller's own counters; the internet itself keeps none.

        Raises:
            FetchError: On DNS failure, timeout, or connection reset.
        """
        if stats is None:
            stats = FetchStats()
        stats.requests += 1
        url = parse_url(request.url)
        site = self.site_for_host(url.host)
        if site is None:
            stats.dns_failures += 1
            raise FetchError(request.url, "dns", f"cannot resolve host {url.host!r}")

        rng = derive_rng(self.seed, "fetch", request.url, attempt)
        if site.timeout_probability and rng.random() < site.timeout_probability:
            stats.timeouts += 1
            raise FetchError(request.url, "timeout")
        if site.reset_probability and rng.random() < site.reset_probability:
            stats.resets += 1
            raise FetchError(request.url, "connection-reset")

        if site.blocks_bots and _looks_like_bot(request.user_agent):
            stats.blocked += 1
            return Response(
                url=request.url,
                status=Status.FORBIDDEN,
                body="<html><body><h1>403 Forbidden</h1>"
                "<p>Automated access denied.</p></body></html>",
                elapsed_ms=50,
            )

        page = site.page(url.path)
        if page is None:
            stats.not_found += 1
            return Response(
                url=request.url,
                status=Status.NOT_FOUND,
                body="<html><body><h1>404 Not Found</h1></body></html>",
                elapsed_ms=80,
            )

        if page.latency_ms > request.timeout_ms:
            stats.timeouts += 1
            raise FetchError(request.url, "timeout")

        if page.redirect_to is not None:
            return Response(
                url=request.url,
                status=page.status if page.status.is_redirect else Status.FOUND,
                location=page.redirect_to,
                elapsed_ms=page.latency_ms,
            )

        budget_ms = request.timeout_ms - page.latency_ms
        body = page.rendered_html(request.render_js, budget_ms)
        stats.successes += 1
        return Response(
            url=request.url,
            status=page.status,
            body=body,
            content_type=page.content_type,
            headers={"content-language": page.language},
            elapsed_ms=page.latency_ms,
        )


def _looks_like_bot(user_agent: str) -> bool:
    ua = user_agent.lower()
    return any(marker in ua for marker in ("bot", "crawler", "spider", "headless"))


__all__ = ["SimulatedInternet", "FetchStats", "STAT_COUNTERS", "SimPage",
           "Website"]
