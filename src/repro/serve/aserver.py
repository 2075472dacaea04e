"""Asyncio front end with API-key tenancy and per-tenant admission.

The PR-5 server is a thread pool behind one bounded queue: admission is
global, so one aggressive client can consume the whole queue and starve
everyone. This module puts an event-loop front end in front of the same
worker pool and moves admission **per tenant**:

- **Identity.** Every request carries an API key;
  :class:`TenantRegistry` resolves it to a :class:`Tenant` (keys are
  deterministic digests of the tenant name, so fixtures and benches are
  reproducible). Unknown keys get an explicit ``AuthError`` response and
  a counter — never service.
- **Per-tenant admission.** Each tenant holds at most
  ``TenantQuota.max_inflight`` requests in flight; the excess is shed
  *for that tenant only* with an explicit ``TenantOverloaded`` response.
  Size the server's global queue at or above the sum of tenant caps and
  an admitted request can never hit ``queue.Full`` — the global queue
  stops being a shared failure domain, which is the fairness property
  a multi-tenant :func:`~repro.serve.loadgen.run_tenants` run asserts (a
  flooding tenant is shed while a well-behaved tenant's error rate stays
  zero).
- **Inline cache-hit fast path.** Cache hits are served directly on the
  event loop (:meth:`AnnotationServer.try_cached` — checksum-verified,
  metric-recorded), skipping the submit/queue/worker/future round trip
  entirely; only misses cross into the worker pool via
  ``asyncio.wrap_future``. A request's endpoint, tenant and shard
  counters are bumped under one metrics lock, on a hit by the front end
  and on a miss by the worker that answers it, with names formatted
  once per tenant. The fast path is disabled automatically when a fault
  injector is installed so chaos seams still see every request.
- **Windowed rate limits.** On top of the inflight cap, a tenant may
  carry ``TenantQuota.max_per_window``: at most that many requests
  admitted per ``window_s``-second fixed window, measured on an
  injectable front-end clock so tests advance time deterministically.
  Excess requests are shed for that tenant only with an explicit
  ``TenantRateLimited`` response and a
  ``serve.tenant.<name>.rate_limited`` counter.
- **Metering.** Per-tenant counters ride in the same
  :class:`~repro.serve.server.ServeMetrics` the server reports
  (``serve.tenant.<name>.requests/.ok/.shed/.errors/.rate_limited``), so
  one metrics dump answers both "how is the server" and "who is doing
  this".

Everything the blocking path promises still holds: load shedding is
explicit, cached bytes are checksum-verified, the chaos seams are intact,
and responses are byte-identical to the threaded path (the fast path
returns the same cached body ``submit`` would).
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field

from repro.errors import QueryError, TenancyError
from repro.serve.query import Query, query_kind
from repro.serve.server import (
    ERROR,
    OK,
    OVERLOADED,
    AnnotationServer,
    ServeResponse,
)


@dataclass(frozen=True)
class TenantQuota:
    """Admission knobs for one tenant.

    Two independent limits compose: ``max_inflight`` bounds *concurrency*
    (how much of the worker pool one tenant can hold at once) and
    ``max_per_window`` bounds *rate* (how many requests the tenant may
    start per ``window_s``-second fixed window, ``None`` = unlimited).
    A burst under the inflight cap can still exhaust a rate window; a
    slow trickle can run forever without touching either.
    """

    #: Requests the tenant may hold in flight; further submissions are
    #: shed for this tenant only.
    max_inflight: int = 8
    #: Requests admitted per fixed window (``None`` disables the limit).
    max_per_window: int | None = None
    #: Fixed-window length in seconds (front-end clock units).
    window_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise TenancyError(
                f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_per_window is not None and self.max_per_window < 1:
            raise TenancyError(
                f"max_per_window must be >= 1 or None, got "
                f"{self.max_per_window}")
        if self.window_s <= 0:
            raise TenancyError(
                f"window_s must be > 0, got {self.window_s}")


@dataclass(frozen=True)
class Tenant:
    """One identified client of the serving layer."""

    name: str
    api_key: str
    quota: TenantQuota = field(default_factory=TenantQuota)


def derive_api_key(name: str) -> str:
    """Deterministic API key for a tenant name (reproducible fixtures)."""
    digest = hashlib.sha256(f"repro-tenant:{name}".encode("utf-8"))
    return f"rk_{digest.hexdigest()[:24]}"


class TenantRegistry:
    """Name → tenant and api-key → tenant resolution."""

    def __init__(self):
        self._by_key: dict[str, Tenant] = {}
        self._by_name: dict[str, Tenant] = {}

    def register(self, name: str,
                 quota: TenantQuota | None = None) -> Tenant:
        if not name:
            raise TenancyError("tenant name must be non-empty")
        if name in self._by_name:
            raise TenancyError(f"tenant {name!r} already registered")
        tenant = Tenant(name=name, api_key=derive_api_key(name),
                        quota=quota or TenantQuota())
        self._by_key[tenant.api_key] = tenant
        self._by_name[name] = tenant
        return tenant

    def authenticate(self, api_key: str) -> Tenant | None:
        return self._by_key.get(api_key)

    def api_key_for(self, name: str) -> str:
        try:
            return self._by_name[name].api_key
        except KeyError:
            raise TenancyError(f"unknown tenant {name!r}")

    def tenants(self) -> list[Tenant]:
        return [self._by_name[name] for name in sorted(self._by_name)]

    def total_inflight_cap(self) -> int:
        """Queue sizing rule: a global queue at least this deep can never
        shed an admitted request."""
        return sum(t.quota.max_inflight for t in self._by_name.values())


class _TenantCounters:
    """The counter names one tenant's requests bump, formatted once.

    Each tuple is what one outcome counts for the tenant, beside the
    endpoint's counters, under one metrics lock.
    """

    __slots__ = ("outcomes", "rate_limited")

    def __init__(self, name: str):
        prefix = f"serve.tenant.{name}."
        requests, shed = prefix + "requests", prefix + "shed"
        #: Response status → the names an answer of that status bumps,
        #: whether a hit here or the worker answers it.
        self.outcomes = {OK: (requests, prefix + "ok"),
                         OVERLOADED: (requests, shed),
                         ERROR: (requests, prefix + "errors")}
        self.rate_limited = (requests, prefix + "rate_limited", shed)


class AsyncFrontEnd:
    """Event-loop request path over a started :class:`AnnotationServer`.

    All admission state (per-tenant inflight counts) lives on the event
    loop, so it needs no locks; the worker pool behind ``submit`` is the
    same threaded pool the blocking path uses.
    """

    def __init__(self, server: AnnotationServer, registry: TenantRegistry,
                 clock=time.monotonic):
        self.server = server
        self.registry = registry
        #: Injectable clock driving the fixed rate windows; tests advance
        #: it deterministically instead of sleeping.
        self._clock = clock
        self._inflight: dict[str, int] = {}
        #: tenant name → (window start, requests admitted this window).
        self._windows: dict[str, tuple[float, int]] = {}
        self._counters: dict[str, _TenantCounters] = {}

    def inflight(self, name: str) -> int:
        return self._inflight.get(name, 0)

    def swap_snapshot(self, snapshot):
        """Delegate a live snapshot swap to the backing server.

        Per-tenant admission state (inflight counts, rate windows) is
        deliberately untouched — quotas govern tenants, not content."""
        return self.server.swap_snapshot(snapshot)

    def _admit_window(self, name: str, quota: TenantQuota) -> bool:
        """Fixed-window rate check; counts (and admits) on success.

        Runs on the event loop like all admission state — no locks. A new
        window opens the first time the clock passes the previous start
        by ``window_s``; partial elapsed time never resets the count.
        """
        if quota.max_per_window is None:
            return True
        now = self._clock()
        start, used = self._windows.get(name, (None, 0))
        if start is None or now - start >= quota.window_s:
            self._windows[name] = (now, 1)
            return True
        if used >= quota.max_per_window:
            return False
        self._windows[name] = (start, used + 1)
        return True

    def queue_headroom(self) -> int:
        """Global queue depth minus the sum of tenant caps; >= 0 means an
        admitted request can never be shed by the global queue."""
        return (self.server.config.queue_depth
                - self.registry.total_inflight_cap())

    async def handle(self, api_key: str, query: Query) -> ServeResponse:
        """Authenticate, admit (or shed) and serve one query."""
        try:
            kind = query_kind(query)
        except QueryError as exc:
            return ServeResponse(status=ERROR, kind="unknown",
                                 body=str(exc))
        tenant = self.registry.authenticate(api_key)
        if tenant is None:
            self.server.metrics.increment("serve.tenant.unauthenticated")
            return ServeResponse(
                status=ERROR, kind=kind,
                body="AuthError: unknown api key")
        name = tenant.name
        counters = self._counters.get(name)
        if counters is None:
            counters = self._counters[name] = _TenantCounters(name)
        metrics = self.server.metrics
        if not self._admit_window(name, tenant.quota):
            metrics.record_shed(kind, counters.rate_limited)
            return ServeResponse(
                status=OVERLOADED, kind=kind,
                body=f"TenantRateLimited: tenant {name!r} exceeded "
                     f"{tenant.quota.max_per_window} requests per "
                     f"{tenant.quota.window_s}s window, retry later")
        if self._inflight.get(name, 0) >= tenant.quota.max_inflight:
            metrics.record_shed(kind, counters.outcomes[OVERLOADED])
            return ServeResponse(
                status=OVERLOADED, kind=kind,
                body=f"TenantOverloaded: tenant {name!r} at max inflight "
                     f"{tenant.quota.max_inflight}, retry later")
        self._inflight[name] = self._inflight.get(name, 0) + 1
        try:
            if self.server.fault_injector is None:
                response = self.server.try_cached(query,
                                                  counters.outcomes[OK])
                if response is not None:
                    return response
            return await asyncio.wrap_future(
                self.server.submit(query, counters=counters.outcomes))
        finally:
            self._inflight[name] -= 1


__all__ = [
    "AsyncFrontEnd",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "derive_api_key",
]
