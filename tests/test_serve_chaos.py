"""Chaos harness: fault plans, seams, invariants, oracle diffing."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.errors import ChaosError, SnapshotError
from repro.pipeline.records import DomainAnnotations, TypeAnnotation
from repro.serve import (
    SERVE_FAULT_CLASSES,
    SNAPSHOT_FAULT_CLASSES,
    AnnotationServer,
    ChaosInjector,
    CorpusIndex,
    DomainLookup,
    FaultEvent,
    FaultPlan,
    ResultCache,
    ServerConfig,
    SkewClock,
    TableAggregate,
    WorkerCrash,
    WorkloadConfig,
    baseline_digest,
    build_snapshot,
    corrupt_snapshot_file,
    generate_workload,
    load_snapshot,
    oracle_answers,
    run_chaos,
    snapshot_corruption_trials,
    write_snapshot,
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


class TestFaultPlan:
    def test_same_seed_same_plan_and_fingerprint(self):
        a = FaultPlan.from_seed(7, requests=200)
        b = FaultPlan.from_seed(7, requests=200)
        assert a == b
        assert a.fingerprint == b.fingerprint

    def test_different_seed_moves_fingerprint(self):
        a = FaultPlan.from_seed(7, requests=200)
        b = FaultPlan.from_seed(8, requests=200)
        assert a.fingerprint != b.fingerprint

    def test_event_change_moves_fingerprint(self):
        base = FaultPlan(seed=0, events=(
            FaultEvent(kind="slow-handler", at_request=3, magnitude=0.001),))
        moved = FaultPlan(seed=0, events=(
            FaultEvent(kind="slow-handler", at_request=4, magnitude=0.001),))
        assert base.fingerprint != moved.fingerprint

    def test_covers_requested_classes_only(self):
        plan = FaultPlan.from_seed(1, requests=100,
                                   classes=("cache-poison", "clock-skew"))
        assert plan.classes() == ("cache-poison", "clock-skew")

    def test_events_land_in_served_prefix(self):
        plan = FaultPlan.from_seed(3, requests=100)
        assert all(e.at_request < 50 for e in plan.events)

    def test_unknown_class_rejected(self):
        with pytest.raises(ChaosError, match="unknown serve fault class"):
            FaultEvent(kind="disk-on-fire", at_request=0)
        with pytest.raises(ChaosError, match="cannot schedule"):
            FaultPlan.from_seed(0, requests=10,
                                classes=("snapshot-truncate",))

    def test_empty_plan_has_no_events(self):
        plan = FaultPlan.empty()
        assert plan.events == ()
        assert plan.classes() == ()


class TestSkewClock:
    def test_skew_jumps_forward(self):
        ticks = iter([10.0, 10.0, 10.0])
        clock = SkewClock(base=lambda: next(ticks))
        assert clock() == 10.0
        clock.skew(5.0)
        assert clock() == 15.0
        assert clock.offset == 5.0

    def test_skew_expires_cache_entries(self):
        clock = SkewClock(base=lambda: 0.0)
        cache = ResultCache(entries=4, ttl_s=100.0, clock=clock)
        cache.put("k", "body")
        clock.skew(99.0)
        assert cache.get("k") == "body"
        clock.skew(2.0)  # 101s of apparent age > ttl
        assert cache.get("k") is None


class TestInjectorSeams:
    def test_worker_death_errors_request_and_pool_heals(self):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(kind="worker-death", at_request=0),))
        injector = ChaosInjector(plan)
        server = AnnotationServer(_snapshot(),
                                  ServerConfig(workers=1, cache_entries=0),
                                  clock=injector.clock,
                                  fault_injector=injector)
        injector.bind(server)
        with server:
            first = server.request(TableAggregate(table="summary"))
            second = server.request(TableAggregate(table="summary"))
        assert first.status == "error"
        assert first.body.startswith("InternalError:")
        assert second.ok  # a respawned worker picked the request up
        counts = server.metrics.counters.counts()
        assert counts["serve.worker.deaths"] == 1
        assert counts["serve.worker.respawns"] == 1

    def test_generic_engine_exception_answers_and_worker_survives(self):
        server = AnnotationServer(_snapshot(),
                                  ServerConfig(workers=1, cache_entries=0))

        def exploding(query):
            raise RuntimeError("index page fault")

        server.engine.execute = exploding
        with server:
            response = server.request(TableAggregate(table="summary"))
        assert response.status == "error"
        assert "InternalError: RuntimeError" in response.body
        assert server.metrics.counters.counts().get(
            "serve.worker.deaths", 0) == 0  # survived, no respawn needed

    def test_cache_poison_is_detected_not_served(self):
        plan = FaultPlan.empty()
        injector = ChaosInjector(plan)
        server = AnnotationServer(_snapshot(), ServerConfig(workers=1),
                                  clock=injector.clock,
                                  fault_injector=injector)
        injector.bind(server)
        query = TableAggregate(table="summary")
        with server:
            clean = server.request(query)
            key = server.cache.corrupt()
            assert key is not None
            poisoned_read = server.request(query)
        assert clean.ok and poisoned_read.ok
        assert poisoned_read.body == clean.body  # recomputed, not poisoned
        assert not poisoned_read.cached  # digest mismatch forced a miss
        assert server.cache.corruption_rejections == 1

    def test_hang_released_by_subsequent_submissions(self):
        # Driven at the injector level so the release ordering is exact:
        # the 30s magnitude must never elapse — two further submissions
        # set the gate and unblock the hung "worker" thread.
        plan = FaultPlan(seed=0, events=(
            FaultEvent(kind="worker-hang", at_request=0, magnitude=30.0),))
        injector = ChaosInjector(plan, hang_release_after=2)
        query = TableAggregate(table="summary")
        worker = threading.Thread(
            target=injector.before_serve, args=(query, "table"))
        worker.start()
        for _ in range(200):  # wait for the gate to be registered
            with injector._lock:
                registered = bool(injector._hang_gates)
            if registered:
                break
            time.sleep(0.01)
        assert registered, "hang gate never registered"
        injector.on_submit("table")
        worker.join(timeout=1.0)
        assert worker.is_alive()  # one submission is not enough
        injector.on_submit("table")
        worker.join(timeout=5.0)
        assert not worker.is_alive()  # second submission released it
        assert injector.fired == {"worker-hang": 1}

    def test_clear_releases_everything_and_stops_injecting(self):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(kind="worker-death", at_request=1),))
        injector = ChaosInjector(plan)
        server = AnnotationServer(_snapshot(),
                                  ServerConfig(workers=1, cache_entries=0),
                                  clock=injector.clock,
                                  fault_injector=injector)
        injector.bind(server)
        with server:
            assert server.request(TableAggregate(table="summary")).ok
            injector.clear()  # ordinal-1 death never fires now
            assert server.request(TableAggregate(table="summary")).ok
        assert injector.fired == {}


class TestRunChaos:
    def test_empty_plan_matches_plain_server_byte_for_byte(self):
        snapshot = _snapshot()
        workload_config = WorkloadConfig(seed=5, requests=120)
        report = run_chaos(snapshot, FaultPlan.empty(),
                           workload_config=workload_config,
                           server_config=ServerConfig(workers=2,
                                                      queue_depth=64),
                           clients=4, deadline_s=20.0)
        workload = generate_workload(CorpusIndex.build(snapshot),
                                     workload_config)
        assert report.response_digest == baseline_digest(
            snapshot, workload, ServerConfig(workers=2, queue_depth=64))
        assert report.violations() == 0
        assert report.ok == report.requests
        assert report.shed == report.errors == report.timeouts == 0

    @pytest.mark.parametrize("fault_class", SERVE_FAULT_CLASSES)
    def test_each_class_fires_with_zero_violations(self, fault_class):
        snapshot = _snapshot()
        plan = FaultPlan.from_seed(11, requests=120,
                                   classes=(fault_class,),
                                   events_per_class=2)
        report = run_chaos(
            snapshot, plan,
            workload_config=WorkloadConfig(seed=11, requests=120),
            server_config=ServerConfig(workers=2, queue_depth=16),
            clients=4, deadline_s=20.0)
        assert report.faults_fired.get(fault_class, 0) > 0
        assert report.violations() == 0
        assert report.recovered
        assert report.requests == 120
        assert (report.ok + report.shed + report.errors
                + report.timeouts) == 120

    def test_worker_death_errors_are_explained_not_violations(self):
        snapshot = _snapshot()
        plan = FaultPlan.from_seed(2, requests=100,
                                   classes=("worker-death",),
                                   events_per_class=3)
        report = run_chaos(
            snapshot, plan,
            workload_config=WorkloadConfig(seed=2, requests=100),
            server_config=ServerConfig(workers=1, queue_depth=32,
                                       cache_entries=0),
            clients=2, deadline_s=20.0)
        assert report.errors == report.faults_fired["worker-death"]
        assert report.unexplained_errors == 0
        assert report.worker_respawns == report.errors
        assert report.violations() == 0

    def test_poison_outcomes_account_for_every_poisoned_key(self):
        snapshot = _snapshot()
        plan = FaultPlan.from_seed(4, requests=150,
                                   classes=("cache-poison",),
                                   events_per_class=4)
        report = run_chaos(
            snapshot, plan,
            workload_config=WorkloadConfig(seed=4, requests=150),
            server_config=ServerConfig(workers=2, queue_depth=32),
            clients=4, deadline_s=20.0)
        outcomes = report.poison_outcomes
        # An event firing against a still-empty cache poisons no key, so
        # fired keys can trail fired events but never exceed them.
        assert outcomes["fired"] <= report.faults_fired.get(
            "cache-poison", 0)
        assert (outcomes["overwritten"] + outcomes["gone"]
                == outcomes["fired"])
        assert report.violations() == 0

    def test_report_dict_shape(self):
        report = run_chaos(
            _snapshot(), FaultPlan.empty(),
            workload_config=WorkloadConfig(seed=0, requests=20),
            server_config=ServerConfig(workers=1), clients=1,
            deadline_s=20.0)
        payload = report.as_dict()
        assert set(payload) == {
            "plan_fingerprint", "snapshot_fingerprint", "requests", "ok",
            "shed", "errors", "timeouts", "violations",
            "oracle_mismatches", "stall_violations", "recovery_failures",
            "unexplained_errors", "faults_fired", "worker_respawns",
            "cache_rejections", "poison_outcomes", "response_digest",
            "recovered"}
        assert payload["violations"] == 0

    def test_detects_a_wrong_byte(self):
        # Sabotage the server after oracle computation by poisoning the
        # digest check itself: serve a tampered body as if cached. The
        # checker must flag it — proving the oracle diff has teeth.
        snapshot = _snapshot()
        workload_config = WorkloadConfig(seed=9, requests=30)
        injector = ChaosInjector(FaultPlan.empty())
        server = AnnotationServer(snapshot, ServerConfig(workers=1),
                                  clock=injector.clock,
                                  fault_injector=injector)
        original = server.engine.execute

        class Tampered:
            def to_json(self):
                return '{"kind":"tampered","payload":{}}'

        def lying(query):
            return Tampered()

        workload = generate_workload(server.index, workload_config)
        expected = oracle_answers(snapshot, workload)
        server.engine.execute = lying
        with server:
            mismatches = 0
            for index, query in enumerate(workload):
                response = server.request(query)
                if response.ok and response.body != expected[index][1]:
                    mismatches += 1
        assert mismatches == len(workload)
        server.engine.execute = original


class TestSnapshotFaults:
    def test_truncation_always_rejected(self, tmp_path):
        snapshot = _snapshot()
        path = tmp_path / "snap.json"
        write_snapshot(snapshot, path)
        rng = random.Random(0)
        for _ in range(5):
            corrupted = tmp_path / "corrupt.json"
            corrupted.write_bytes(path.read_bytes())
            corrupt_snapshot_file(corrupted, "snapshot-truncate", rng)
            with pytest.raises(SnapshotError) as excinfo:
                load_snapshot(corrupted)
            assert excinfo.value.reason in (
                "not-json", "not-object", "schema-mismatch",
                "missing-records", "malformed-record",
                "fingerprint-mismatch")

    def test_bitflip_never_changes_served_bytes(self, tmp_path):
        snapshot = _snapshot()
        path = tmp_path / "snap.json"
        write_snapshot(snapshot, path)
        rng = random.Random(1)
        for _ in range(10):
            corrupted = tmp_path / "corrupt.json"
            corrupted.write_bytes(path.read_bytes())
            corrupt_snapshot_file(corrupted, "snapshot-bitflip", rng)
            try:
                loaded = load_snapshot(corrupted)
            except SnapshotError:
                continue  # rejected: corruption detected
            # Loaded: the flip must have been benign for record bytes.
            assert loaded.fingerprint == snapshot.fingerprint

    def test_trials_summary_accounts_for_every_trial(self, tmp_path):
        outcome = snapshot_corruption_trials(
            _snapshot(), seed=13, workdir=tmp_path, trials_per_mode=3)
        assert outcome["trials"] == 3 * len(SNAPSHOT_FAULT_CLASSES)
        assert (outcome["detected"] + outcome["benign"]
                + outcome["violations"]) == outcome["trials"]
        assert outcome["violations"] == 0
        assert sum(outcome["reasons"].values()) == outcome["detected"]
        assert set(outcome["by_mode"]) == set(SNAPSHOT_FAULT_CLASSES)

    def test_unknown_disk_mode_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(_snapshot(), path)
        with pytest.raises(ChaosError, match="unknown snapshot fault"):
            corrupt_snapshot_file(path, "gamma-ray", random.Random(0))


class TestWorkerCrashContract:
    def test_crash_is_not_a_repro_error(self):
        from repro.errors import ReproError
        assert not issubclass(WorkerCrash, ReproError)

    def test_injector_raises_crash_from_before_serve(self):
        plan = FaultPlan(seed=0, events=(
            FaultEvent(kind="worker-death", at_request=0),))
        injector = ChaosInjector(plan)
        with pytest.raises(WorkerCrash):
            injector.before_serve(DomainLookup(domain="x"), "domain")
