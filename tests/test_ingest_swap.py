"""Live snapshot swap: atomicity under load, generation-scoped caches."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import ServeError
from repro.ingest import run_swap_load
from repro.pipeline.records import DomainAnnotations, TypeAnnotation
from repro.serve import (
    AnnotationServer,
    AsyncFrontEnd,
    ChaosInjector,
    DomainLookup,
    FaultEvent,
    FaultPlan,
    SectorAggregate,
    ServerConfig,
    TenantQuota,
    TenantRegistry,
    TopDescriptors,
    build_snapshot,
    derive_api_key,
    oracle_answers,
    partition_snapshot,
)


def _record(domain: str, verbatim: str = "verbatim") -> DomainAnnotations:
    return DomainAnnotations(
        domain=domain, sector="FI" if len(domain) % 2 else "HC",
        status="annotated",
        types=[TypeAnnotation(category="Contact information",
                              meta_category="Personal identifiers",
                              descriptor="email address",
                              verbatim=verbatim, line=1)])


def _snapshot(n=12, stamp="v1"):
    return build_snapshot([_record(f"site{i}.com", verbatim=f"{stamp} {i}")
                           for i in range(n)])


def _workload(n=12, repeats=8):
    queries = [DomainLookup(domain=f"site{i}.com") for i in range(n)]
    queries += [SectorAggregate(sector="FI"),
                TopDescriptors(facet="types", k=3)]
    return queries * repeats


class TestSwapUnderLoad:
    def test_plain_swap_is_clean_and_effective(self):
        old, new = _snapshot(stamp="v1"), _snapshot(stamp="v2")
        with AnnotationServer(old, ServerConfig(workers=3)) as server:
            report = run_swap_load(server, _workload(), new, clients=4)
        assert report.clean, report.as_dict()
        assert report.swap_effective
        assert report.dropped == 0 and report.wrong_bytes == 0
        assert report.post_wrong == 0 and report.post_ok > 0
        assert report.requests == len(_workload())
        assert report.swap["old_fingerprint"] == old.fingerprint
        assert report.swap["new_fingerprint"] == new.fingerprint

    def test_sharded_swap_reuses_untouched_shard_indexes(self):
        old = partition_snapshot(_snapshot(stamp="v1"), 4)
        records = [_record(f"site{i}.com", verbatim=f"v1 {i}")
                   for i in range(12)]
        # edit exactly one domain: only its owning shard should rebuild
        records[3] = _record("site3.com", verbatim="rewritten")
        new = partition_snapshot(build_snapshot(records), 4)
        with AnnotationServer(old, ServerConfig(workers=3)) as server:
            report = run_swap_load(server, _workload(), new, clients=4)
        assert report.clean and report.swap_effective, report.as_dict()
        assert report.swap["shards_rebuilt"] == 1
        assert report.swap["shards_reused"] == 3

    def test_post_swap_requests_serve_new_bytes(self):
        old, new = _snapshot(stamp="v1"), _snapshot(stamp="v2")
        workload = _workload(repeats=1)
        oracle = oracle_answers(new, workload)
        with AnnotationServer(old) as server:
            server.swap_snapshot(new)
            for query, (_, body) in zip(workload, oracle):
                response = server.request(query)
                assert response.ok
                assert response.body == body

    def test_hot_cache_cannot_leak_across_generations(self):
        old, new = _snapshot(stamp="v1"), _snapshot(stamp="v2")
        query = DomainLookup(domain="site5.com")
        with AnnotationServer(old, ServerConfig(cache_entries=64)) as server:
            first = server.request(query)
            warmed = server.request(query)  # now a cache hit, old bytes
            assert warmed.cached and warmed.body == first.body
            server.swap_snapshot(new)
            after = server.request(query)
        assert not after.cached  # old entry is behind the old gen prefix
        assert after.body != first.body
        assert after.body == oracle_answers(new, [query])[0][1]

    def test_swap_counters_advance(self):
        old, new = _snapshot(stamp="v1"), _snapshot(stamp="v2")
        with AnnotationServer(old) as server:
            swap = server.swap_snapshot(new)
            counts = server.metrics.counters.counts()
        assert swap.changed
        assert counts["serve.swap.count"] == 1
        assert counts["serve.swap.shards_rebuilt"] == 1

    def test_client_failure_surfaces(self):
        # The server was never started: the harness must raise, not hang
        # (the join timeout turns a hang into a failure).
        server = AnnotationServer(_snapshot(stamp="v1"))
        raised = []

        def drive():
            try:
                run_swap_load(server, _workload(), _snapshot(stamp="v2"),
                              clients=4)
            except ServeError as exc:
                raised.append(exc)

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=10)
        assert not driver.is_alive()
        assert len(raised) == 1

    def test_noop_swap_reports_unchanged(self):
        snapshot = _snapshot()
        with AnnotationServer(snapshot) as server:
            swap = server.swap_snapshot(snapshot)
        assert not swap.changed
        assert swap.old_fingerprint == swap.new_fingerprint


class TestSwapUnderChaos:
    def test_worker_death_across_swap_keeps_bytes_clean(self):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(kind="worker-death", at_request=2),
            FaultEvent(kind="worker-death", at_request=30),))
        injector = ChaosInjector(plan)
        old, new = _snapshot(stamp="v1"), _snapshot(stamp="v2")
        server = AnnotationServer(old,
                                  ServerConfig(workers=2, cache_entries=0),
                                  clock=injector.clock,
                                  fault_injector=injector)
        injector.bind(server)
        with server:
            report = run_swap_load(server, _workload(), new, clients=4)
        assert report.clean, report.as_dict()
        assert report.swap_effective
        # crashes surface as explicit errors, never as drops or torn reads
        assert report.errors >= 1
        assert report.dropped == 0 and report.wrong_bytes == 0
        counts = server.metrics.counters.counts()
        assert counts["serve.worker.deaths"] >= 1


class TestAsyncFrontEndSwap:
    def test_front_end_delegates_and_quota_state_survives(self):
        old, new = _snapshot(stamp="v1"), _snapshot(stamp="v2")
        registry = TenantRegistry()
        registry.register("acme", TenantQuota(max_inflight=4))
        query = DomainLookup(domain="site2.com")
        oracle = oracle_answers(new, [query])[0][1]

        async def scenario(server):
            front = AsyncFrontEnd(server, registry)
            before = await front.handle(derive_api_key("acme"), query)
            swap = front.swap_snapshot(new)
            after = await front.handle(derive_api_key("acme"), query)
            return before, swap, after

        with AnnotationServer(old) as server:
            before, swap, after = asyncio.run(scenario(server))
            counters = server.metrics.as_dict()["counters"]
        assert swap.changed
        assert before.ok and after.ok
        assert after.body == oracle and before.body != after.body
        # tenant metering kept counting straight through the swap
        assert counters["serve.tenant.acme.ok"] == 2
