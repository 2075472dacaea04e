"""HTTP request/response model for the simulated internet.

Only the subset of HTTP semantics the crawler exercises is modeled:
status codes, redirects, content types, and a latency figure used by the
fetch client's timeout logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class Status(IntEnum):
    """HTTP status codes used by the simulated web."""

    OK = 200
    MOVED_PERMANENTLY = 301
    FOUND = 302
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    TOO_MANY_REQUESTS = 429
    INTERNAL_SERVER_ERROR = 500
    SERVICE_UNAVAILABLE = 503

    @property
    def is_redirect(self) -> bool:
        return self in (Status.MOVED_PERMANENTLY, Status.FOUND)


@dataclass(frozen=True)
class Request:
    """A fetch request.

    ``render_js`` distinguishes a headless-browser fetch (Playwright-like,
    executes page scripts) from a plain HTTP GET; some simulated sites only
    reveal their policy content to JS-capable clients.
    """

    url: str
    render_js: bool = True
    timeout_ms: int = 30_000
    user_agent: str = "repro-crawler/1.0"


@dataclass
class Response:
    """A fetch response."""

    url: str
    status: Status
    body: str = ""
    content_type: str = "text/html"
    headers: dict[str, str] = field(default_factory=dict)
    elapsed_ms: int = 0
    #: Redirect target for 3xx responses.
    location: str | None = None

    @property
    def ok(self) -> bool:
        """True when status is below 400 (the paper's success criterion)."""
        return int(self.status) < 400

    @property
    def is_pdf(self) -> bool:
        return self.content_type == "application/pdf"
