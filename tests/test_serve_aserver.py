"""Asyncio front end: tenancy, per-tenant admission, fairness, fast path."""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import threading

import pytest

import repro.serve.server as server_mod
from repro.errors import TenancyError
from repro.pipeline.records import DomainAnnotations, TypeAnnotation
from repro.serve import (
    ERROR,
    OK,
    OVERLOADED,
    AnnotationServer,
    AspectMentions,
    AsyncFrontEnd,
    ComplianceScan,
    DomainLookup,
    FacetFilter,
    PredicateQuery,
    SectorAggregate,
    ServerConfig,
    TableAggregate,
    TenantQuota,
    TenantRegistry,
    TopDescriptors,
    WorkloadConfig,
    build_snapshot,
    derive_api_key,
    generate_workload,
    run_tenants,
    shard_for_domain,
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

    def test_request_count_counts_each_request_once(self):
        """Behind the front end a request bumps its endpoint's
        ``.requests`` and its tenant's; the total sums the endpoints'."""
        with AnnotationServer(_snapshot()) as server:
            front = self._front(server)
            key = derive_api_key("acme")

            async def scenario():
                for i in range(8):  # four misses, then four hits
                    await front.handle(
                        key, DomainLookup(domain=f"site{i % 4}.com"))

            asyncio.run(scenario())
        assert server.metrics.request_count() == 8
        assert server.metrics.request_count("domain") == 8
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.tenant.acme.requests"] == 8

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
            def _serve_one(self, gen, query, kind):
                gate.wait(timeout=5.0)
                return super()._serve_one(gen, query, kind)

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

    def test_survives_snapshot_refresh(self):
        """A predicate answered before a no-op ``swap_snapshot`` is a
        hot-cache hit after it: the generation fingerprint in the key
        does not move when the content does not."""
        snapshot = _snapshot()
        query = self._predicate()
        with AnnotationServer(snapshot) as server:
            before = server.request(query)
            swap = server.swap_snapshot(build_snapshot(snapshot.records))
            after = server.request(query)
        assert before.ok and not before.cached
        assert not swap.changed
        assert after.cached
        assert after.body == before.body

    def test_miss_parses_and_fingerprints_once(self, monkeypatch):
        """A predicate miss through the asyncio front end (inline cache
        probe, then the worker and the engine) parses its predicate once,
        and the memo does not leak into the query's payload."""
        import repro.serve.query as query_mod

        calls = []
        real_parse = query_mod.parse_predicate

        def counting_parse(raw):
            calls.append(raw)
            return real_parse(raw)

        monkeypatch.setattr(query_mod, "parse_predicate", counting_parse)
        query = self._predicate()
        with AnnotationServer(_snapshot()) as server:
            registry = TenantRegistry()
            registry.register("acme")
            front = AsyncFrontEnd(server, registry)
            response = asyncio.run(front.handle(derive_api_key("acme"),
                                                query))
        assert response.ok and not response.cached
        assert len(calls) == 1
        fresh = self._predicate()
        assert query_mod.query_payload(query) == \
            query_mod.query_payload(fresh)
        assert query_mod.query_fingerprint(query) == \
            query_mod.query_fingerprint(fresh)

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


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class TestHitPath:
    """What an inline cache hit costs, counted, and what every read
    counts, pinned."""

    QUERIES = (
        DomainLookup(domain="site1.com"),
        DomainLookup(domain="site6.com"),
        DomainLookup(domain="missing.com"),
        TableAggregate(table="summary"),
        ComplianceScan(pack="gdpr"),
        FacetFilter(facet="types", sector="FI"),
        SectorAggregate(sector="HC"),
        TopDescriptors(facet="types", k=3),
        AspectMentions(aspect="types"),
        PredicateQuery(predicate=json.dumps(
            {"op": "atom", "aspect": "types",
             "category": "Contact information"})),
    )

    def test_each_hit_takes_one_lock_one_checksum_no_sha256(
            self, monkeypatch):
        registry = TenantRegistry()
        registry.register("acme")
        key = derive_api_key("acme")
        with AnnotationServer(_snapshot(), ServerConfig(shards=4)) as server:
            front = AsyncFrontEnd(server, registry)

            async def read(query):
                return await front.handle(key, query)

            for query in self.QUERIES:  # warm-up: each one a miss
                assert not asyncio.run(read(query)).cached
            lock = _CountingLock()
            monkeypatch.setattr(server.metrics, "_lock", lock)
            checksums, sha256s = [], []
            body_digest = server_mod._body_digest
            sha256 = hashlib.sha256
            monkeypatch.setattr(
                server_mod, "_body_digest",
                lambda body: checksums.append(body) or body_digest(body))
            monkeypatch.setattr(
                hashlib, "sha256",
                lambda *a, **kw: sha256s.append(a) or sha256(*a, **kw))
            monkeypatch.setattr(server, "submit", None)  # no queue trip
            for query in self.QUERIES:
                before = lock.acquired, len(checksums), len(sha256s)
                response = asyncio.run(read(query))
                assert response.ok and response.cached, query
                assert (lock.acquired, len(checksums), len(sha256s)) == (
                    before[0] + 1, before[1] + 1, before[2]), query
                assert checksums[-1] is response.body

    def test_each_miss_takes_one_lock(self, monkeypatch):
        """A miss through the front end counts its endpoint, shard and
        tenant counters in the worker's one ``record``: one acquisition
        of the metrics lock, as a hit takes."""
        registry = TenantRegistry()
        registry.register("acme")
        key = derive_api_key("acme")
        with AnnotationServer(_snapshot(), ServerConfig(shards=4)) as server:
            front = AsyncFrontEnd(server, registry)
            lock = _CountingLock()
            monkeypatch.setattr(server.metrics, "_lock", lock)
            for number, query in enumerate(self.QUERIES, 1):
                response = asyncio.run(front.handle(key, query))
                assert response.ok and not response.cached, query
                assert lock.acquired == number, query
        counters = server.metrics.as_dict()["counters"]
        assert counters["serve.tenant.acme.requests"] == len(self.QUERIES)
        assert counters["serve.tenant.acme.ok"] == len(self.QUERIES)
        assert sum(count for name, count in counters.items()
                   if name.startswith("serve.shard.")) == 3  # the lookups

    def test_concurrent_hits_lose_no_count(self):
        """Threads serving inline hits at once, with a tiny switch
        interval: each counter a hit bumps ends at the number of hits."""
        query = DomainLookup(domain="site1.com")
        names = ("serve.tenant.t.requests", "serve.tenant.t.ok")
        misses = []

        def hammer():
            for _ in range(500):
                if server.try_cached(query, names) is None:
                    misses.append(query)

        with AnnotationServer(_snapshot(), ServerConfig(shards=4)) as server:
            assert not server.request(query).cached
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(previous)
        assert misses == []
        counters = server.metrics.as_dict()["counters"]
        shard = f"serve.shard.{shard_for_domain('site1.com', 4)}.queries"
        assert counters["serve.domain.cache.hit"] == 4000
        assert counters["serve.tenant.t.requests"] == 4000
        assert counters["serve.tenant.t.ok"] == 4000
        assert counters[shard] == 4001  # the warm-up miss, then the hits
        assert server.metrics.request_count() == 4001

    def test_read_sequence_counts_what_it_always_counted(self):
        """Hits, misses, an error, a shed, a rate-limited read and an
        unknown key on a 4-shard server. The pinned totals are the ones
        the four-lock hit path counted, less the retired
        ``serve.scatter.queries``."""
        registry = TenantRegistry()
        registry.register("acme", TenantQuota(max_inflight=1))
        registry.register("metered", TenantQuota(
            max_inflight=4, max_per_window=2, window_s=1.0))
        acme = derive_api_key("acme")
        metered = derive_api_key("metered")
        queries = [DomainLookup(domain="site1.com"),
                   TableAggregate(table="summary"),
                   ComplianceScan(pack="gdpr"),
                   FacetFilter(facet="types", sector="FI"),
                   DomainLookup(domain="missing.com")]
        with AnnotationServer(_snapshot(), ServerConfig(shards=4)) as server:
            front = AsyncFrontEnd(server, registry, clock=lambda: 0.0)

            async def scenario():
                out = []
                for query in queries:  # a miss, then a hit
                    out.append(await front.handle(acme, query))
                    out.append(await front.handle(acme, query))
                out.append(await front.handle(
                    acme, PredicateQuery(predicate="{not json")))
                # The first read is a miss in flight when the second
                # arrives, so the second is shed at acme's cap of one.
                out += await asyncio.gather(
                    front.handle(acme, DomainLookup(domain="site2.com")),
                    front.handle(acme, DomainLookup(domain="site3.com")))
                for query in queries[:3]:  # the third is rate-limited
                    out.append(await front.handle(metered, query))
                out.append(await front.handle("rk_bogus", queries[0]))
                return out

            responses = asyncio.run(scenario())
        assert [(r.status, r.cached) for r in responses] == [
            (OK, False), (OK, True)] * 5 + [
            (ERROR, False), (OK, False), (OVERLOADED, False),
            (OK, True), (OK, True), (OVERLOADED, False), (ERROR, False)]
        assert server.metrics.as_dict()["counters"] == {
            "serve.compliance.cache.hit": 1,
            "serve.compliance.cache.miss": 1,
            "serve.compliance.ok": 2,
            "serve.compliance.requests": 3,
            "serve.compliance.shed": 1,
            "serve.domain.cache.hit": 3,
            "serve.domain.cache.miss": 3,
            "serve.domain.ok": 6,
            "serve.domain.requests": 7,
            "serve.domain.shed": 1,
            "serve.filter.cache.hit": 1,
            "serve.filter.cache.miss": 1,
            "serve.filter.ok": 2,
            "serve.filter.requests": 2,
            "serve.predicate.error": 1,
            "serve.predicate.requests": 1,
            "serve.shard.0.queries": 2,
            "serve.shard.1.queries": 3,
            "serve.shard.2.queries": 1,
            "serve.shed": 2,
            "serve.table.cache.hit": 2,
            "serve.table.cache.miss": 1,
            "serve.table.ok": 3,
            "serve.table.requests": 3,
            "serve.tenant.acme.errors": 1,
            "serve.tenant.acme.ok": 11,
            "serve.tenant.acme.requests": 13,
            "serve.tenant.acme.shed": 1,
            "serve.tenant.metered.ok": 2,
            "serve.tenant.metered.rate_limited": 1,
            "serve.tenant.metered.requests": 3,
            "serve.tenant.metered.shed": 1,
            "serve.tenant.unauthenticated": 1,
        }
        assert server.metrics.request_count() == 16
