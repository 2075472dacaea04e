"""Browser facade over the simulated internet (the Playwright stand-in).

:class:`Browser` models a headless, JS-executing client: it follows
redirects, respects robots.txt (when configured), retries transient
failures, and returns a :class:`PageResult` with the final URL and rendered
markup. :class:`PlainHttpClient` is the JS-less counterpart used in
ablations — sites that load their policy dynamically look empty to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import FetchError, RobotsDisallowedError
from repro.web.http import Request, Response, Status
from repro.web.net import FetchStats, SimulatedInternet
from repro.web.url import join_url, normalize_url, parse_url

MAX_REDIRECTS = 5


@dataclass(frozen=True)
class RetryEvent:
    """One failed fetch attempt, as recorded in :attr:`Browser.retry_log`."""

    url: str
    attempt: int  # 0-based attempt number
    reason: str
    gave_up: bool  # True when this was the final attempt


@dataclass
class PageResult:
    """Outcome of a navigation."""

    requested_url: str
    final_url: str
    status: Status
    html: str = ""
    content_type: str = "text/html"
    language: str = "en"
    elapsed_ms: int = 0
    redirects: int = 0

    @property
    def ok(self) -> bool:
        """Paper's success criterion: HTTP status below 400."""
        return int(self.status) < 400

    @property
    def is_pdf(self) -> bool:
        return self.content_type == "application/pdf"


@dataclass
class Browser:
    """A redirect-following, retrying client over a simulated internet."""

    internet: SimulatedInternet
    render_js: bool = True
    user_agent: str = "Mozilla/5.0 (compatible; repro-crawler/1.0; headless)"
    timeout_ms: int = 30_000
    max_retries: int = 1
    #: Base pause before retry ``n`` is ``backoff_ms * 2**n`` (0 = no pause).
    backoff_ms: float = 0.0
    #: Scale factor turning simulated ``elapsed_ms`` into a real sleep, so
    #: benchmarks can model network-bound crawling (0 = instantaneous).
    #: Sleeping releases the GIL, which is exactly how real crawl I/O behaves
    #: and what lets the sharded executor overlap fetches across threads.
    latency_scale: float = 0.0
    respect_robots: bool = True
    #: Navigation log, usable by tests and the failure auditor.
    history: list[str] = field(default_factory=list)
    #: Failed fetch attempts (attempt numbering and the give-up marker).
    retry_log: list[RetryEvent] = field(default_factory=list)
    #: Counters of every fetch this browser sent, retries included.
    stats: FetchStats = field(default_factory=FetchStats, init=False)

    def goto(self, url: str) -> PageResult:
        """Navigate to ``url``, following redirects.

        Raises:
            FetchError: On DNS failure or persistent timeouts/resets.
            RobotsDisallowedError: If robots.txt forbids the final URL.
        """
        current = normalize_url(url)
        redirects = 0
        total_elapsed = 0
        while True:
            self._check_robots(current)
            response = self._fetch_with_retries(current)
            total_elapsed += response.elapsed_ms
            self.history.append(current)
            if response.status.is_redirect and response.location:
                redirects += 1
                if redirects > MAX_REDIRECTS:
                    raise FetchError(url, "too-many-redirects")
                current = normalize_url(str(join_url(current, response.location)))
                continue
            return PageResult(
                requested_url=normalize_url(url),
                final_url=current,
                status=response.status,
                html=response.body,
                content_type=response.content_type,
                language=response.headers.get("content-language", "en"),
                elapsed_ms=total_elapsed,
                redirects=redirects,
            )

    # -- internals -----------------------------------------------------------

    def _check_robots(self, url: str) -> None:
        if not self.respect_robots:
            return
        parsed = parse_url(url)
        robots = self.internet.robots_for(parsed.host)
        if robots is not None and not robots.allowed(parsed.path or "/",
                                                     self.user_agent):
            raise RobotsDisallowedError(url)

    def _fetch_with_retries(self, url: str) -> Response:
        request = Request(
            url=url,
            render_js=self.render_js,
            timeout_ms=self.timeout_ms,
            user_agent=self.user_agent,
        )
        last_error: FetchError | None = None
        for attempt in range(self.max_retries + 1):
            try:
                response = self.internet.fetch(request, attempt=attempt,
                                               stats=self.stats)
            except FetchError as exc:
                last_error = exc
                gave_up = attempt == self.max_retries
                self.retry_log.append(RetryEvent(url=url, attempt=attempt,
                                                 reason=exc.reason,
                                                 gave_up=gave_up))
                if not gave_up and self.backoff_ms > 0:
                    time.sleep(self.backoff_ms * (2 ** attempt) / 1000.0)
                continue
            if self.latency_scale > 0:
                time.sleep(response.elapsed_ms * self.latency_scale / 1000.0)
            return response
        assert last_error is not None
        raise last_error


def make_plain_client(internet: SimulatedInternet, **kwargs) -> Browser:
    """A JS-less HTTP client (ablation baseline for dynamic content)."""
    return Browser(internet=internet, render_js=False, **kwargs)
