"""Server behavior: admission control, result cache, metrics, lifecycle."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import ServeError
from repro.pipeline.records import DomainAnnotations, TypeAnnotation
from repro.serve import (
    AnnotationServer,
    CorpusIndex,
    DomainLookup,
    LoadReport,
    Outcome,
    QueryEngine,
    ResultCache,
    ServeMetrics,
    ServerConfig,
    TableAggregate,
    TopDescriptors,
    WorkloadConfig,
    build_snapshot,
    generate_workload,
    percentile,
    run_load,
    zipf_weights,
)
from repro.serve.server import ERROR, OK, OVERLOADED


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def _snapshot(n=6):
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


class TestResultCache:
    def test_ttl_expiry_with_injected_clock(self):
        clock = FakeClock()
        cache = ResultCache(entries=8, ttl_s=10.0, clock=clock)
        cache.put("k", "body")
        clock.advance(9.999)
        assert cache.get("k") == "body"
        clock.advance(0.001)  # exactly ttl → expired
        assert cache.get("k") is None
        assert len(cache) == 0  # expired entry was dropped

    def test_lru_eviction_and_read_refresh(self):
        cache = ResultCache(entries=2, ttl_s=100.0, clock=FakeClock())
        cache.put("a", "1")
        cache.put("b", "2")
        assert cache.get("a") == "1"  # refreshes a's LRU position
        cache.put("c", "3")           # evicts b, the coldest
        assert cache.get("b") is None
        assert cache.get("a") == "1"
        assert cache.get("c") == "3"

    def test_reads_do_not_refresh_ttl(self):
        clock = FakeClock()
        cache = ResultCache(entries=8, ttl_s=10.0, clock=clock)
        cache.put("k", "body")
        clock.advance(6.0)
        assert cache.get("k") == "body"  # hot read...
        clock.advance(6.0)
        assert cache.get("k") is None    # ...still ages out at 12s > ttl

    def test_zero_entries_disables_cache(self):
        cache = ResultCache(entries=0, ttl_s=10.0, clock=FakeClock())
        cache.put("k", "body")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_put_overwrites_and_restamps(self):
        clock = FakeClock()
        cache = ResultCache(entries=8, ttl_s=10.0, clock=clock)
        cache.put("k", "old")
        clock.advance(8.0)
        cache.put("k", "new")
        clock.advance(8.0)  # 16s after first put, 8s after second
        assert cache.get("k") == "new"


class TestPercentile:
    def test_nearest_rank_on_known_samples(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_small_sets_and_empty(self):
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 99.0) == 7.0
        assert percentile([3.0, 1.0], 50.0) == 1.0  # unsorted input ok


class TestServeMetrics:
    def test_per_endpoint_counters(self):
        metrics = ServeMetrics()
        metrics.record("domain", OK, cached=False, latency_s=0.002)
        metrics.record("domain", OK, cached=True, latency_s=0.001)
        metrics.record("table", ERROR, cached=False, latency_s=0.003)
        metrics.record_shed("domain")
        counts = metrics.counters.counts()
        assert counts["serve.domain.requests"] == 3  # 2 served + 1 shed
        assert counts["serve.domain.cache.hit"] == 1
        assert counts["serve.domain.cache.miss"] == 1
        assert counts["serve.table.error"] == 1
        assert metrics.shed_count() == 1
        assert metrics.request_count("domain") == 3
        assert metrics.request_count() == 4
        assert metrics.cache_hit_rate() == 0.5

    def test_latency_percentiles_per_kind_and_overall(self):
        metrics = ServeMetrics()
        for ms in (1, 2, 3, 4):
            metrics.record("domain", OK, False, ms / 1000.0)
        metrics.record("table", OK, False, 1.0)
        assert metrics.latency_percentiles("domain")["p50"] == 0.002
        assert metrics.latency_percentiles()["p99"] == 1.0
        dump = metrics.as_dict()
        assert dump["shed"] == 0
        assert "serve.domain.requests" in dump["counters"]

    def test_latency_reservoir_is_bounded(self):
        metrics = ServeMetrics(max_samples=5)
        for n in range(20):
            metrics.record("domain", OK, False, float(n))
        assert metrics.latency_percentiles("domain")["p99"] == 4.0
        assert metrics.request_count("domain") == 20  # counters unaffected


class TestServerConfig:
    @pytest.mark.parametrize("kwargs", [{"workers": 0},
                                        {"queue_depth": 0}])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)


class TestServerLifecycle:
    def test_submit_before_start_raises(self):
        server = AnnotationServer(_snapshot())
        with pytest.raises(ServeError, match="not started"):
            server.submit(TableAggregate(table="summary"))

    def test_double_start_raises_and_stop_is_idempotent(self):
        server = AnnotationServer(_snapshot())
        with server:
            with pytest.raises(ServeError, match="already started"):
                server.start()
        server.stop()  # second stop is a no-op
        with server:   # restart after stop works
            assert server.request(TableAggregate(table="summary")).ok

    def test_stop_drains_in_flight_requests(self):
        server = AnnotationServer(_snapshot(), ServerConfig(workers=2))
        with server:
            futures = [server.submit(DomainLookup(domain="site0.com"))
                       for _ in range(20)]
        # `with` exit called stop(); every admitted future must resolve.
        assert all(f.result(timeout=5).ok for f in futures)


class TestServing:
    def test_ok_request_and_cached_second_hit(self):
        server = AnnotationServer(_snapshot())
        with server:
            first = server.request(TopDescriptors(facet="types", k=3))
            second = server.request(TopDescriptors(facet="types", k=3))
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert second.body == first.body  # byte-identical by construction
        assert server.metrics.cache_hit_rate() == 0.5

    def test_invalid_query_answers_error_not_crash(self):
        server = AnnotationServer(_snapshot())
        with server:
            response = server.request(TableAggregate(table="bogus"))
            after = server.request(TableAggregate(table="summary"))
        assert response.status == ERROR
        assert "unknown table" in response.body
        assert after.ok  # the worker survived the bad query

    def test_worker_counts_serve_identical_bytes(self):
        snapshot = _snapshot()
        probes = [DomainLookup(domain="site1.com"),
                  TopDescriptors(facet="types", k=5),
                  TableAggregate(table="table1"),
                  TableAggregate(table="summary")]
        bodies = []
        for workers in (1, 4):
            with AnnotationServer(snapshot,
                                  ServerConfig(workers=workers)) as server:
                bodies.append([server.request(q).body for q in probes])
        assert bodies[0] == bodies[1]


class TestAdmissionControl:
    def test_queue_full_sheds_with_explicit_response(self):
        # Gate the engine so exactly one request is in flight, one queued,
        # and the third must be shed — no timing races.
        server = AnnotationServer(
            _snapshot(),
            ServerConfig(workers=1, queue_depth=1, cache_entries=0))
        entered, release = threading.Event(), threading.Event()
        original = server.engine.execute

        def gated(query):
            entered.set()
            assert release.wait(timeout=10)
            return original(query)

        server.engine.execute = gated
        with server:
            in_flight = server.submit(TableAggregate(table="summary"))
            assert entered.wait(timeout=10)  # worker is inside the engine
            queued = server.submit(TableAggregate(table="table1"))
            shed = server.submit(TableAggregate(table="table2a"))
            assert shed.done()  # shed futures resolve immediately
            response = shed.result()
            assert response.status == OVERLOADED
            assert not response.ok
            assert "ServiceOverloaded" in response.body
            assert server.metrics.shed_count() == 1
            release.set()
            assert in_flight.result(timeout=10).ok
            assert queued.result(timeout=10).ok

    def test_shed_requests_count_toward_endpoint_metrics(self):
        server = AnnotationServer(
            _snapshot(),
            ServerConfig(workers=1, queue_depth=1, cache_entries=0))
        entered, release = threading.Event(), threading.Event()
        original = server.engine.execute

        def gated(query):
            entered.set()
            assert release.wait(timeout=10)
            return original(query)

        server.engine.execute = gated
        with server:
            server.submit(DomainLookup(domain="site0.com"))
            assert entered.wait(timeout=10)
            server.submit(DomainLookup(domain="site1.com"))
            server.submit(DomainLookup(domain="site2.com")).result()
            counts = server.metrics.counters.counts()
            assert counts["serve.domain.shed"] == 1
            release.set()
        assert server.metrics.request_count("domain") == 3


class TestLoadGenerator:
    def test_same_seed_same_workload(self):
        index = AnnotationServer(_snapshot()).index
        config = WorkloadConfig(seed=42, requests=200)
        assert generate_workload(index, config) == \
            generate_workload(index, config)

    def test_different_seed_different_workload(self):
        index = AnnotationServer(_snapshot()).index
        a = generate_workload(index, WorkloadConfig(seed=1, requests=200))
        b = generate_workload(index, WorkloadConfig(seed=2, requests=200))
        assert a != b

    def test_mix_covers_every_query_class(self):
        index = AnnotationServer(_snapshot()).index
        workload = generate_workload(index, WorkloadConfig(seed=0,
                                                           requests=500))
        kinds = {type(q).__name__ for q in workload}
        assert kinds == {"DomainLookup", "FacetFilter", "SectorAggregate",
                         "TopDescriptors", "AspectMentions",
                         "TableAggregate", "PredicateQuery",
                         "ComplianceScan"}

    def test_zipf_weights_decay_monotonically(self):
        weights = zipf_weights(10, 1.1)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_run_load_accounts_for_every_request(self):
        snapshot = _snapshot()
        with AnnotationServer(snapshot, ServerConfig(workers=2)) as server:
            workload = generate_workload(
                server.index, WorkloadConfig(seed=0, requests=120))
            report = run_load(server, workload, clients=4)
        assert report.requests == 120
        assert report.ok + report.shed + report.errors == 120
        assert report.errors == 0
        assert sum(report.by_kind.values()) == 120
        assert report.throughput_rps > 0
        stats = report.as_dict()
        assert stats["latency_ms"]["p50"] >= 0
        assert set(stats["latency_ms_by_kind"]) == set(report.by_kind)

    def test_empty_snapshot_serves_without_errors(self):
        with AnnotationServer(build_snapshot([])) as server:
            workload = generate_workload(
                server.index, WorkloadConfig(seed=0, requests=40))
            report = run_load(server, workload, clients=2)
        assert report.errors == 0
        assert report.ok == 40

    def test_report_percentiles_from_known_samples(self):
        report = LoadReport(outcomes=[
            Outcome(kind, OK, "", False, latency)
            for kind, latency in (("domain", 0.001), ("domain", 0.002),
                                  ("table", 0.003), ("table", 0.004))])
        assert report.percentiles_ms()["p50"] == 2.0
        assert report.percentiles_ms("table")["p99"] == 4.0

    def test_client_failure_surfaces(self):
        server = AnnotationServer(_snapshot())  # never started
        workload = generate_workload(
            server.index, WorkloadConfig(seed=0, requests=12))
        with pytest.raises(ServeError, match="not started"):
            run_load(server, workload, clients=4)


class TestLifecycleRegressions:
    """Hard edges of the start/stop contract the chaos harness leans on."""

    def test_submit_after_stop_raises_typed_error(self):
        server = AnnotationServer(_snapshot())
        server.start()
        server.stop()
        with pytest.raises(ServeError, match="not started"):
            server.submit(TableAggregate(table="summary"))

    def test_stop_with_gated_in_flight_drains_never_hangs(self):
        # Hold one request inside the engine, stop() from another thread,
        # then release: stop must join, and every future must resolve.
        server = AnnotationServer(
            _snapshot(), ServerConfig(workers=1, cache_entries=0))
        entered, release = threading.Event(), threading.Event()
        original = server.engine.execute

        def gated(query):
            entered.set()
            assert release.wait(timeout=10)
            return original(query)

        server.engine.execute = gated
        server.start()
        in_flight = server.submit(TableAggregate(table="summary"))
        queued = server.submit(DomainLookup(domain="site0.com"))
        assert entered.wait(timeout=10)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()  # stop() returned, no hang
        assert in_flight.result(timeout=5).ok
        assert queued.result(timeout=5).ok

    def test_drain_pending_errors_abandoned_requests(self):
        # White-box: a worker that died mid-shutdown can leave admitted
        # requests behind its sentinel. _drain_pending must resolve them
        # with an explicit error, never strand the future.
        from concurrent.futures import Future

        from repro.serve.server import _STOP

        server = AnnotationServer(_snapshot(), ServerConfig(workers=1))
        abandoned: Future = Future()
        server._queue.put(_STOP)
        server._queue.put((DomainLookup(domain="site0.com"), "domain",
                           abandoned, 0.0, {}))
        server._drain_pending()
        response = abandoned.result(timeout=1)
        assert response.status == ERROR
        assert response.body.startswith("ServerStopped:")
        assert server._queue.empty()  # sentinel was swallowed too

    def test_cancelled_requests_leave_the_pool_intact(self):
        # A caller may cancel a future while its request is served or
        # queued; the lone worker must survive both and serve the next.
        server = AnnotationServer(
            _snapshot(), ServerConfig(workers=1, cache_entries=0))
        entered, release = threading.Event(), threading.Event()
        original = server.engine.execute

        def gated(query):
            entered.set()
            assert release.wait(timeout=10)
            return original(query)

        server.engine.execute = gated
        with server:
            serving = server.submit(TableAggregate(table="summary"))
            assert entered.wait(timeout=10)
            queued = server.submit(DomainLookup(domain="site0.com"))
            serving.cancel()  # already running: too late to cancel
            assert queued.cancel()  # still queued: skipped, never served
            release.set()
            assert serving.result(timeout=5).ok
            after = server.submit(DomainLookup(domain="site1.com"))
            assert after.result(timeout=5).ok
            alive = sum(thread.is_alive() for thread in server._threads)
        assert alive == server.config.workers
        assert server.metrics.counters.count("serve.cancelled") == 1


class TestConcurrentSubmitters:
    def test_threads_submitting_at_once_all_get_oracle_answers(self):
        # The server is documented thread-safe; 8 OS threads submit at
        # once with a tiny switch interval to shake out lost updates.
        snapshot = _snapshot()
        server = AnnotationServer(snapshot, ServerConfig(workers=2))
        workload = generate_workload(
            server.index, WorkloadConfig(seed=3, requests=400))
        futures = [None] * len(workload)

        def submitter(first):
            for index in range(first, len(workload), 8):
                futures[index] = server.submit(workload[index])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [threading.Thread(target=submitter, args=(n,))
                           for n in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                responses = [future.result(timeout=30)
                             for future in futures]
        finally:
            sys.setswitchinterval(previous)
        assert server.metrics.request_count() == 400
        engine = QueryEngine(CorpusIndex.build(snapshot))
        for query, response in zip(workload, responses):
            if response.ok:
                assert response.body == engine.execute(query).to_json()


class TestMetricsDictShape:
    """Pin the as_dict() contract consumed by benchmarks and the CLI."""

    EXPECTED_KEYS = {"counters", "cache_hit_rate", "shed", "latency_s"}

    def test_empty_metrics_shape(self):
        dump = ServeMetrics().as_dict()
        assert set(dump) == self.EXPECTED_KEYS
        assert dump["counters"] == {}
        assert dump["cache_hit_rate"] == 0.0
        assert dump["shed"] == 0
        assert dump["latency_s"] == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample_shape_and_values(self):
        metrics = ServeMetrics()
        metrics.record("domain", OK, cached=False, latency_s=0.25)
        dump = metrics.as_dict()
        assert set(dump) == self.EXPECTED_KEYS
        assert set(dump["latency_s"]) == {"p50", "p95", "p99"}
        # One sample is every percentile.
        assert all(v == 0.25 for v in dump["latency_s"].values())
        assert dump["counters"]["serve.domain.requests"] == 1

    def test_counters_are_sorted_and_json_ready(self):
        import json

        metrics = ServeMetrics()
        metrics.record("table", OK, cached=False, latency_s=0.1)
        metrics.record("domain", ERROR, cached=False, latency_s=0.2)
        metrics.increment("serve.worker.respawns")
        dump = metrics.as_dict()
        names = list(dump["counters"])
        assert names == sorted(names)
        assert dump["counters"]["serve.worker.respawns"] == 1
        json.dumps(dump)  # round-trips without custom encoders
