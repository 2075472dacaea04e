"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch package-level failures without masking programming errors
(``TypeError``, ``ValueError`` raised by misuse still propagate normally).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class UrlError(ReproError):
    """Raised when a URL cannot be parsed or resolved."""


class FetchError(ReproError):
    """Raised when a simulated network fetch fails outright.

    Attributes:
        url: The URL that was being fetched.
        reason: Short machine-readable reason code (e.g. ``"timeout"``,
            ``"dns"``, ``"connection-reset"``).
    """

    def __init__(self, url: str, reason: str, message: str | None = None):
        super().__init__(message or f"fetch of {url!r} failed: {reason}")
        self.url = url
        self.reason = reason


class RobotsDisallowedError(FetchError):
    """Raised when robots.txt forbids fetching a URL."""

    def __init__(self, url: str):
        super().__init__(url, "robots-disallowed", f"robots.txt disallows {url!r}")


class TaxonomyError(ReproError):
    """Raised on inconsistent taxonomy definitions or unknown labels."""


class ChatModelError(ReproError):
    """Raised when a chat model cannot produce a completion."""


class TaskOutputError(ChatModelError):
    """Raised when a chatbot completion cannot be parsed as the task output.

    Attributes:
        raw_output: The completion text that failed to parse.
    """

    def __init__(self, message: str, raw_output: str = ""):
        super().__init__(message)
        self.raw_output = raw_output


class CorpusError(ReproError):
    """Raised on invalid corpus/calibration configuration."""


class ServeError(ReproError):
    """Raised on snapshot/serving failures (corrupt snapshot, bad query)."""


class SnapshotError(ServeError):
    """Raised when a corpus snapshot cannot be built, read, or verified.

    Attributes:
        reason: Machine-readable corruption/rejection class assigned at the
            raise site (``"unreadable"``, ``"not-json"``, ``"not-object"``,
            ``"schema-mismatch"``, ``"missing-records"``,
            ``"malformed-record"``, ``"fingerprint-mismatch"``,
            ``"cold-cache"`` — the cache holds no records-layer entry for
            one or more requested domains — or the default ``"invalid"``).
            The chaos harness aggregates detected corruptions by this code.
    """

    def __init__(self, message: str, *, reason: str = "invalid"):
        super().__init__(message)
        self.reason = reason


class QueryError(ServeError):
    """Raised when a query is malformed (unknown facet, bad parameters)."""


class TenancyError(ServeError):
    """Raised on invalid tenant configuration (bad quota, duplicate name)."""


class ComplianceError(ReproError):
    """Raised on malformed logical forms, rules, or compliance misuse."""


class PredicateError(ComplianceError):
    """Raised when a predicate expression cannot be parsed or validated."""


class ChaosError(ServeError):
    """Raised on invalid fault plans or chaos-harness misuse."""


class IngestError(ReproError):
    """Raised on continuous-ingestion failures (bad patch sets, scheduler
    misuse, refresh/differential verification mismatches)."""
