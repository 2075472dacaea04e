"""Asyncio front end: tenancy, per-tenant admission, fairness, fast path."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.errors import TenancyError
from repro.pipeline.records import DomainAnnotations, TypeAnnotation
from repro.serve import (
    ERROR,
    OK,
    OVERLOADED,
    AnnotationServer,
    AsyncFrontEnd,
    DomainLookup,
    PredicateQuery,
    ResultCache,
    ServerConfig,
    TableAggregate,
    TenantQuota,
    TenantRegistry,
    WorkloadConfig,
    build_snapshot,
    derive_api_key,
    generate_workload,
    run_tenants,
)


def _snapshot(n=8):
    records = [
        DomainAnnotations(
            domain=f"site{i}.com", sector="FI" if i % 2 else "HC",
            status="annotated",
            types=[TypeAnnotation(category="Contact information",
                                  meta_category="Personal identifiers",
                                  descriptor=f"descriptor-{i % 3}",
                                  verbatim=f"verbatim {i}", line=i + 1)])
        for i in range(n)
    ]
    return build_snapshot(records)


def _workload(server, *, seed, requests):
    return generate_workload(server.index,
                             WorkloadConfig(seed=seed, requests=requests))


class TestTenantRegistry:
    def test_register_and_authenticate(self):
        registry = TenantRegistry()
        tenant = registry.register("acme", TenantQuota(max_inflight=3))
        assert tenant.api_key == derive_api_key("acme")
        assert registry.authenticate(tenant.api_key) is tenant
        assert registry.authenticate("rk_bogus") is None
        assert registry.api_key_for("acme") == tenant.api_key

    def test_duplicate_and_empty_names_rejected(self):
        registry = TenantRegistry()
        registry.register("acme")
        with pytest.raises(TenancyError):
            registry.register("acme")
        with pytest.raises(TenancyError):
            registry.register("")

    def test_bad_quota_rejected(self):
        with pytest.raises(TenancyError):
            TenantQuota(max_inflight=0)

    def test_total_inflight_cap_sums_quotas(self):
        registry = TenantRegistry()
        registry.register("a", TenantQuota(max_inflight=3))
        registry.register("b", TenantQuota(max_inflight=5))
        assert registry.total_inflight_cap() == 8


class TestHandle:
    def _front(self, server, **quotas):
        registry = TenantRegistry()
        for name, cap in (quotas or {"acme": 4}).items():
            registry.register(name, TenantQuota(max_inflight=cap))
        return AsyncFrontEnd(server, registry)

    def test_ok_response_and_metering(self):
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server)
            response = asyncio.run(front.handle(
                derive_api_key("acme"), DomainLookup(domain="site1.com")))
        assert response.status == OK
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.tenant.acme.requests"] == 1
        assert counters["serve.tenant.acme.ok"] == 1

    def test_unknown_key_gets_auth_error(self):
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server)
            response = asyncio.run(front.handle(
                "rk_not_a_key", DomainLookup(domain="site1.com")))
        assert response.status == ERROR
        assert response.body.startswith("AuthError")
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.tenant.unauthenticated"] == 1

    def test_byte_identical_to_blocking_path(self):
        query = TableAggregate(table="summary")
        with AnnotationServer(_snapshot()) as server:
            blocking = server.request(query).body
            front = self._front(server)
            async_body = asyncio.run(front.handle(
                derive_api_key("acme"), query)).body
        assert async_body == blocking

    def test_fast_path_serves_cache_hit_inline(self):
        query = DomainLookup(domain="site2.com")
        with AnnotationServer(_snapshot()) as server:
            warm = server.request(query)  # populate the cache
            assert warm.ok and not warm.cached
            front = self._front(server)
            hit = asyncio.run(front.handle(derive_api_key("acme"), query))
        assert hit.status == OK
        assert hit.cached
        assert hit.body == warm.body

    def test_per_tenant_admission_sheds_excess(self):
        """Gate the worker so requests pile up; the cap must shed the
        overflow with an explicit TenantOverloaded response."""
        gate = threading.Event()
        snapshot = _snapshot()

        class GatedServer(AnnotationServer):
            def _serve_one(self, query, kind):
                gate.wait(timeout=5.0)
                return super()._serve_one(query, kind)

        config = ServerConfig(workers=1, queue_depth=32, cache_entries=0)
        with GatedServer(snapshot, config) as server:
            front = self._front(server, acme=2)

            async def scenario():
                key = derive_api_key("acme")
                blocked = [asyncio.ensure_future(front.handle(
                    key, DomainLookup(domain=f"site{i}.com")))
                    for i in range(2)]
                await asyncio.sleep(0.05)  # let both reach the queue
                shed = await front.handle(
                    key, DomainLookup(domain="site5.com"))
                gate.set()
                served = await asyncio.gather(*blocked)
                return shed, served

            shed, served = asyncio.run(scenario())
        assert shed.status == OVERLOADED
        assert "TenantOverloaded" in shed.body
        assert all(r.status == OK for r in served)
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.tenant.acme.shed"] == 1

    def test_timed_out_requests_leave_the_pool_intact(self):
        """A client deadline cancels the pending future; the workers that
        were serving those requests must survive to serve the next one."""
        gate = threading.Event()
        server = AnnotationServer(_snapshot(),
                                  ServerConfig(workers=2, cache_entries=0))
        original = server.engine.execute

        def gated(query):
            assert gate.wait(timeout=10)
            return original(query)

        server.engine.execute = gated
        front = self._front(server)
        key = derive_api_key("acme")

        async def scenario():
            for i in range(2):  # one stuck request per worker
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(front.handle(
                        key, DomainLookup(domain=f"site{i}.com")), 0.05)
            gate.set()
            return await asyncio.wait_for(front.handle(
                key, DomainLookup(domain="site2.com")), 5)

        with server:
            response = asyncio.run(scenario())
            alive = sum(thread.is_alive() for thread in server._threads)
        assert response.ok
        assert alive == server.config.workers


class TestMultiTenantFairness:
    def test_flooder_is_shed_while_steady_tenant_stays_clean(self):
        snapshot = _snapshot(12)
        config = ServerConfig(workers=2, queue_depth=32, cache_entries=0)
        registry = TenantRegistry()
        registry.register("steady", TenantQuota(max_inflight=4))
        registry.register("flood", TenantQuota(max_inflight=2))
        with AnnotationServer(snapshot, config) as server:
            front = AsyncFrontEnd(server, registry)
            assert front.queue_headroom() >= 0
            report = run_tenants(front, {
                "steady": (_workload(server, seed=1, requests=150), 4),
                "flood": (_workload(server, seed=2, requests=300), 16),
            })
        steady = report["steady"]
        flood = report["flood"]
        assert flood.shed > 0
        assert steady.shed == 0
        assert steady.errors == 0
        assert steady.ok == steady.requests == 150
        assert flood.requests == 300
        assert flood.ok + flood.shed + flood.errors == 300

    def test_report_shape_and_determinism(self):
        snapshot = _snapshot()

        def run_once():
            registry = TenantRegistry()
            registry.register("t", TenantQuota(max_inflight=4))
            with AnnotationServer(snapshot) as server:
                front = AsyncFrontEnd(server, registry)
                return run_tenants(front, {
                    "t": (_workload(server, seed=3, requests=60), 2)})

        a, b = run_once(), run_once()
        assert a["t"].ok == b["t"].ok == 60
        assert [(o.kind, o.status, o.body) for o in a["t"].outcomes] \
            == [(o.kind, o.status, o.body) for o in b["t"].outcomes]
        assert set(a["t"].as_dict()) == {
            "requests", "ok", "shed", "errors", "timeouts", "cached",
            "wall_s", "throughput_rps", "by_kind", "latency_ms",
            "latency_ms_by_kind"}

    def test_bad_tenant_stream_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(requests=0)
        registry = TenantRegistry()
        registry.register("t")
        with AnnotationServer(_snapshot()) as server:
            front = AsyncFrontEnd(server, registry)
            with pytest.raises(ValueError, match="clients"):
                run_tenants(front, {
                    "t": (_workload(server, seed=0, requests=5), 0)})


class TestPredicateCache:
    def _predicate(self):
        return PredicateQuery(predicate=json.dumps(
            {"op": "atom", "aspect": "types",
             "category": "Contact information"}))

    def test_hit_and_miss_counters(self):
        query = self._predicate()
        cache = ResultCache(entries=16, ttl_s=3600.0)
        with AnnotationServer(_snapshot(), ServerConfig(cache_entries=0),
                              predicate_cache=cache) as server:
            first = server.request(query)
            second = server.request(query)
        assert first.ok and second.ok
        assert first.body == second.body
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.predicate_cache.miss"] == 1
        assert counters["serve.predicate_cache.hit"] == 1

    def test_survives_snapshot_refresh(self):
        """Same predicate cache across a server restart on the same
        snapshot fingerprint: the first request after 'refresh' is a hit."""
        snapshot = _snapshot()
        query = self._predicate()
        cache = ResultCache(entries=16, ttl_s=3600.0)
        with AnnotationServer(snapshot, ServerConfig(cache_entries=0),
                              predicate_cache=cache) as server:
            before = server.request(query)
        with AnnotationServer(snapshot, ServerConfig(cache_entries=0),
                              predicate_cache=cache) as refreshed:
            after = refreshed.request(query)
            counters = refreshed.metrics.as_dict()["counters"]
        assert after.body == before.body
        assert after.cached
        assert counters["serve.predicate_cache.hit"] == 1

    def test_changed_snapshot_misses(self):
        """A different corpus fingerprint must never reuse stale bodies."""
        query = self._predicate()
        cache = ResultCache(entries=16, ttl_s=3600.0)
        with AnnotationServer(_snapshot(6), ServerConfig(cache_entries=0),
                              predicate_cache=cache) as server:
            server.request(query)
        with AnnotationServer(_snapshot(9), ServerConfig(cache_entries=0),
                              predicate_cache=cache) as other:
            other.request(query)
            counters = other.metrics.as_dict()["counters"]
        assert counters["serve.predicate_cache.miss"] == 1
        assert "serve.predicate_cache.hit" not in counters

    def test_malformed_predicate_is_clean_query_error(self):
        with AnnotationServer(_snapshot()) as server:
            response = server.request(
                PredicateQuery(predicate="{not json"))
        assert response.status == ERROR
        assert response.body.startswith("predicate:")
        assert "InternalError" not in response.body


class TestWindowedRateLimit:
    def _front(self, server, quota, clock):
        registry = TenantRegistry()
        registry.register("acme", quota)
        return AsyncFrontEnd(server, registry, clock=clock)

    def test_quota_validation(self):
        with pytest.raises(TenancyError):
            TenantQuota(max_per_window=0)
        with pytest.raises(TenancyError):
            TenantQuota(max_per_window=5, window_s=0.0)
        with pytest.raises(TenancyError):
            TenantQuota(max_per_window=5, window_s=-1.0)
        TenantQuota(max_per_window=5, window_s=2.0)  # valid

    def test_excess_in_window_is_rate_limited(self):
        now = [100.0]
        quota = TenantQuota(max_inflight=8, max_per_window=3, window_s=1.0)
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server, quota, lambda: now[0])
            key = derive_api_key("acme")

            async def scenario():
                return [await front.handle(
                    key, DomainLookup(domain=f"site{i}.com"))
                    for i in range(5)]

            responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [OK, OK, OK,
                                                 OVERLOADED, OVERLOADED]
        assert all("TenantRateLimited" in r.body
                   for r in responses if r.status == OVERLOADED)
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.tenant.acme.rate_limited"] == 2
        assert counters["serve.tenant.acme.shed"] == 2
        assert counters["serve.tenant.acme.ok"] == 3

    def test_window_advance_readmits(self):
        now = [50.0]
        quota = TenantQuota(max_inflight=8, max_per_window=2, window_s=1.0)
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server, quota, lambda: now[0])
            key = derive_api_key("acme")

            async def scenario():
                first = [await front.handle(
                    key, DomainLookup(domain=f"site{i}.com"))
                    for i in range(3)]
                now[0] += 1.0  # next fixed window
                second = await front.handle(
                    key, DomainLookup(domain="site5.com"))
                return first, second

            first, second = asyncio.run(scenario())
        assert [r.status for r in first] == [OK, OK, OVERLOADED]
        assert second.status == OK

    def test_unlimited_by_default(self):
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server, TenantQuota(max_inflight=8),
                                lambda: 0.0)
            key = derive_api_key("acme")

            async def scenario():
                return [await front.handle(
                    key, DomainLookup(domain=f"site{i}.com"))
                    for i in range(6)]

            responses = asyncio.run(scenario())
        assert all(r.status == OK for r in responses)

    def test_windows_are_per_tenant(self):
        now = [10.0]
        quota = TenantQuota(max_inflight=8, max_per_window=1, window_s=1.0)
        with AnnotationServer(_snapshot()) as server:
            registry = TenantRegistry()
            registry.register("acme", quota)
            registry.register("bloom", quota)
            front = AsyncFrontEnd(server, registry, clock=lambda: now[0])

            async def scenario():
                a1 = await front.handle(derive_api_key("acme"),
                                        DomainLookup(domain="site1.com"))
                b1 = await front.handle(derive_api_key("bloom"),
                                        DomainLookup(domain="site2.com"))
                a2 = await front.handle(derive_api_key("acme"),
                                        DomainLookup(domain="site3.com"))
                return a1, b1, a2

            a1, b1, a2 = asyncio.run(scenario())
        assert a1.status == OK
        assert b1.status == OK  # bloom's window is untouched by acme
        assert a2.status == OVERLOADED

    def test_rate_limit_checked_before_inflight(self):
        """A rate-limited request must not consume inflight capacity."""
        now = [7.0]
        quota = TenantQuota(max_inflight=1, max_per_window=1, window_s=1.0)
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server, quota, lambda: now[0])
            key = derive_api_key("acme")

            async def scenario():
                ok = await front.handle(key,
                                        DomainLookup(domain="site1.com"))
                limited = await front.handle(
                    key, DomainLookup(domain="site2.com"))
                now[0] += 1.0
                readmitted = await front.handle(
                    key, DomainLookup(domain="site3.com"))
                return ok, limited, readmitted

            ok, limited, readmitted = asyncio.run(scenario())
        assert ok.status == OK
        assert limited.status == OVERLOADED
        assert "TenantRateLimited" in limited.body
        assert readmitted.status == OK
