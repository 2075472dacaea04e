"""Deterministic fault injection for the serving layer, with invariants.

The serving stack promises two things under load: it *sheds instead of
stalls*, and it *never serves a wrong byte*. This module turns those
promises into machine-checked invariants by wrapping the PR-5 stack in a
seeded chaos harness:

- **FaultPlan** — a content-fingerprinted, fully reproducible fault
  schedule derived from a seed. Five injectable fault classes target the
  explicit seams in :class:`~repro.serve.server.AnnotationServer`:
  ``slow-handler`` (delay around ``_serve_one``), ``worker-death`` (a
  worker dies mid-request and the pool self-heals), ``worker-hang`` (a
  worker blocks while the queue backs up and sheds), ``cache-poison``
  (a :class:`~repro.serve.server.ResultCache` entry is corrupted in
  place), and ``clock-skew`` (the shared TTL clock jumps forward).
  Two more classes attack snapshot files on disk — ``snapshot-truncate``
  and ``snapshot-bitflip`` — and are exercised at load time through
  :func:`snapshot_corruption_trials`.
- **ChaosInjector** — implements the server's ``fault_injector`` seam,
  firing the plan's events by *serve ordinal* (the n-th request a worker
  picks up), so the schedule is independent of client timing.
- **run_chaos** — the invariant checker. It computes a fault-free oracle
  answer for every workload request, drives the faulty server with
  deadline-bounded closed-loop clients, and asserts three invariants:

  1. **Terminate** — every submitted request resolves with a response or
     an explicit counted error before the deadline (shed, never stall).
  2. **Never a wrong byte** — every ``ok`` response body is byte-identical
     to the oracle payload; corruption is detected and recomputed, never
     propagated.
  3. **Recover** — once faults clear, a full workload replay is
     oracle-identical again (the pool healed, poisoned entries were
     rejected, the clock skew only aged the cache).

The reusable blueprint — deterministic fault schedule + oracle diffing +
invariant ledger — is exactly the shape a training/inference serving
stack needs; nothing here knows about privacy policies beyond the query
types it replays.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro._util.artifacts import content_digest
from repro.errors import ChaosError, SnapshotError
from repro.serve.loadgen import (
    LoadReport,
    Outcome,
    WorkloadConfig,
    generate_workload,
    load_tally,
    oracle_answers,
    run_load,
)
from repro.serve.query import Query
from repro.serve.server import (
    ERROR,
    OK,
    AnnotationServer,
    ServerConfig,
    WorkerCrash,
)
from repro.serve.snapshot import CorpusSnapshot, load_snapshot, write_snapshot

#: Fault classes scheduled through the server's injector seam.
SERVE_FAULT_CLASSES = ("slow-handler", "worker-death", "worker-hang",
                       "cache-poison", "clock-skew")
#: Fault classes applied to snapshot files on disk, checked at load.
SNAPSHOT_FAULT_CLASSES = ("snapshot-truncate", "snapshot-bitflip")
#: Everything the harness knows how to inject.
FAULT_CLASSES = SERVE_FAULT_CLASSES + SNAPSHOT_FAULT_CLASSES

#: Signature prefix of responses produced by injected/internal worker
#: failures; the ledger counts these as *explained* errors when the plan
#: contains matching fault events.
_INTERNAL_PREFIX = "InternalError:"

#: How many further submissions release a hung worker early (the hang's
#: ``magnitude`` is the hard upper bound in seconds either way).
HANG_RELEASE_AFTER = 3


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` fires at serve-ordinal ``at_request``.

    ``magnitude`` is class-specific: delay seconds for ``slow-handler``,
    maximum hang seconds for ``worker-hang``, forward clock jump seconds
    for ``clock-skew``; unused (0.0) for ``worker-death`` and
    ``cache-poison``.
    """

    kind: str
    at_request: int
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SERVE_FAULT_CLASSES:
            raise ChaosError(
                f"unknown serve fault class {self.kind!r}; expected one "
                f"of {SERVE_FAULT_CLASSES} (snapshot-file faults are "
                f"exercised via snapshot_corruption_trials, not a plan)")
        if self.at_request < 0:
            raise ChaosError(
                f"fault ordinal must be >= 0, got {self.at_request}")

    def to_payload(self) -> dict:
        return {"kind": self.kind, "at_request": self.at_request,
                "magnitude": round(self.magnitude, 6)}


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule; same seed → same plan → same id."""

    seed: int
    events: tuple[FaultEvent, ...] = ()

    def to_payload(self) -> dict:
        return {"version": 1, "seed": self.seed,
                "events": [e.to_payload() for e in self.events]}

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the schedule (not of the seed alone):
        two seeds producing the same events fingerprint identically, and
        any event change moves the id."""
        return content_digest(self.to_payload())

    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({e.kind for e in self.events}))

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(seed=0, events=())

    @classmethod
    def from_seed(cls, seed: int, *, requests: int,
                  classes: tuple[str, ...] = SERVE_FAULT_CLASSES,
                  events_per_class: int = 3) -> "FaultPlan":
        """Derive a deterministic schedule from ``seed``.

        Event ordinals are drawn from the first half of the request range
        so every event lands even when later requests are shed; the same
        ``(seed, requests, classes, events_per_class)`` always yields the
        same plan.
        """
        if requests < 1:
            raise ChaosError(f"requests must be >= 1, got {requests}")
        for kind in classes:
            if kind not in SERVE_FAULT_CLASSES:
                raise ChaosError(
                    f"cannot schedule fault class {kind!r}; plannable "
                    f"classes are {SERVE_FAULT_CLASSES}")
        rng = random.Random(seed)
        window = max(1, requests // 2)
        events: list[FaultEvent] = []
        for kind in classes:  # caller-given order keeps this reproducible
            count = min(events_per_class, window)
            ordinals = sorted(rng.sample(range(window), count))
            for ordinal in ordinals:
                if kind == "slow-handler":
                    magnitude = rng.uniform(0.001, 0.004)
                elif kind == "worker-hang":
                    magnitude = rng.uniform(0.05, 0.25)
                elif kind == "clock-skew":
                    magnitude = rng.uniform(1.0, 600.0)
                else:
                    magnitude = 0.0
                events.append(FaultEvent(kind=kind, at_request=ordinal,
                                         magnitude=magnitude))
        events.sort(key=lambda e: (e.at_request, e.kind))
        return cls(seed=seed, events=tuple(events))


class SkewClock:
    """A monotonic clock the injector can jump forward deterministically.

    Serves as the server's (and therefore the result cache's TTL) clock;
    ``skew`` ages every cached entry at once, modelling NTP steps and VM
    clock jumps without wall-clock waiting.
    """

    def __init__(self, base=time.monotonic):
        self._base = base
        self._offset = 0.0
        self._lock = threading.Lock()

    def skew(self, seconds: float) -> None:
        with self._lock:
            self._offset += seconds

    @property
    def offset(self) -> float:
        with self._lock:
            return self._offset

    def __call__(self) -> float:
        with self._lock:
            return self._base() + self._offset


class ChaosInjector:
    """Implements the server's fault seam, firing a plan deterministically.

    Events fire by *serve ordinal* — the n-th request a worker begins to
    serve — which is deterministic for a given plan regardless of client
    interleaving. Hung workers are released early once
    :data:`HANG_RELEASE_AFTER` further requests have been *submitted*
    (load keeps arriving while a worker hangs, which is exactly when the
    queue must shed), and unconditionally by :meth:`clear`.
    """

    def __init__(self, plan: FaultPlan, base_clock=time.monotonic,
                 hang_release_after: int = HANG_RELEASE_AFTER):
        self.plan = plan
        self.clock = SkewClock(base_clock)
        self._events: dict[int, list[FaultEvent]] = {}
        for event in plan.events:
            self._events.setdefault(event.at_request, []).append(event)
        self._lock = threading.Lock()
        self._active = True
        self._serve_ordinal = 0
        self._submit_ordinal = 0
        self._hang_release_after = hang_release_after
        self._hang_gates: list[tuple[int, threading.Event]] = []
        self._server: AnnotationServer | None = None
        #: Fault events actually applied, by class.
        self.fired: dict[str, int] = {}
        #: Cache keys poisoned by ``cache-poison`` events.
        self.poisoned_keys: list[str] = []

    def bind(self, server: AnnotationServer) -> "ChaosInjector":
        """Attach the server whose cache ``cache-poison`` events target."""
        self._server = server
        return self

    # -- seam hooks (called by AnnotationServer) -------------------------

    def on_submit(self, kind: str) -> None:
        with self._lock:
            self._submit_ordinal += 1
            now = self._submit_ordinal
            due = [gate for release_at, gate in self._hang_gates
                   if now >= release_at]
            self._hang_gates = [(release_at, gate)
                                for release_at, gate in self._hang_gates
                                if now < release_at]
        for gate in due:
            gate.set()

    def before_serve(self, query: Query, kind: str) -> None:
        with self._lock:
            if not self._active:
                return
            ordinal = self._serve_ordinal
            self._serve_ordinal += 1
            events = self._events.get(ordinal, ())
            for event in events:
                self.fired[event.kind] = self.fired.get(event.kind, 0) + 1
        crash: FaultEvent | None = None
        for event in events:
            if event.kind == "slow-handler":
                time.sleep(event.magnitude)
            elif event.kind == "clock-skew":
                self.clock.skew(event.magnitude)
            elif event.kind == "cache-poison":
                if self._server is not None:
                    key = self._server.cache.corrupt()
                    if key is not None:
                        with self._lock:
                            self.poisoned_keys.append(key)
            elif event.kind == "worker-hang":
                gate = threading.Event()
                with self._lock:
                    release_at = (self._submit_ordinal
                                  + self._hang_release_after)
                    self._hang_gates.append((release_at, gate))
                gate.wait(timeout=event.magnitude)
            elif event.kind == "worker-death":
                crash = event
        if crash is not None:
            raise WorkerCrash(
                f"injected worker death at serve ordinal {crash.at_request}")

    # -- harness control -------------------------------------------------

    def clear(self) -> None:
        """End the fault window: stop injecting, release every hang."""
        with self._lock:
            self._active = False
            gates = [gate for _, gate in self._hang_gates]
            self._hang_gates.clear()
        for gate in gates:
            gate.set()


@dataclass
class ChaosReport:
    """The invariant ledger one chaos run leaves behind.

    Request tallies are views of ``load``, the run's :class:`LoadReport`;
    the fields here are only what the invariant checks found.
    """

    load: LoadReport
    plan_fingerprint: str = ""
    snapshot_fingerprint: str = ""
    #: Invariant 2 violations: an ``ok`` body differing from the oracle.
    oracle_mismatches: int = 0
    #: Invariant 3 violations: post-fault replay differing from oracle.
    recovery_failures: int = 0
    #: Internal errors beyond what injected worker deaths explain.
    unexplained_errors: int = 0
    faults_fired: dict = field(default_factory=dict)
    worker_respawns: int = 0
    cache_rejections: int = 0
    poison_outcomes: dict = field(default_factory=dict)

    requests = load_tally("requests")
    ok = load_tally("ok")
    shed = load_tally("shed")
    errors = load_tally("errors")
    timeouts = load_tally("timeouts")
    #: Invariant 1 violations: a request that out-waited the deadline.
    stall_violations = load_tally("timeouts")

    @property
    def recovered(self) -> bool:
        return self.recovery_failures == 0

    @property
    def response_digest(self) -> str:
        """SHA-256 over the chaos phase's ordered (index, status, body)
        stream; with an empty plan this equals the fault-free baseline."""
        return _stream_digest(self.load.outcomes)

    def violations(self) -> int:
        return (self.oracle_mismatches + self.stall_violations
                + self.recovery_failures + self.unexplained_errors)

    def as_dict(self) -> dict:
        return {
            "plan_fingerprint": self.plan_fingerprint,
            "snapshot_fingerprint": self.snapshot_fingerprint,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "violations": self.violations(),
            "oracle_mismatches": self.oracle_mismatches,
            "stall_violations": self.stall_violations,
            "recovery_failures": self.recovery_failures,
            "unexplained_errors": self.unexplained_errors,
            "faults_fired": dict(sorted(self.faults_fired.items())),
            "worker_respawns": self.worker_respawns,
            "cache_rejections": self.cache_rejections,
            "poison_outcomes": dict(sorted(self.poison_outcomes.items())),
            "response_digest": self.response_digest,
            "recovered": self.recovered,
        }


def _stream_digest(outcomes: list[Outcome]) -> str:
    digest = hashlib.sha256()
    for index, outcome in enumerate(outcomes):
        digest.update(f"{index}|{outcome.status}|{outcome.body}\n"
                      .encode("utf-8"))
    return digest.hexdigest()


def baseline_digest(snapshot: CorpusSnapshot, workload: list[Query],
                    config: ServerConfig | None = None) -> str:
    """Response-stream digest of a plain, fault-free PR-5 server run
    (one client, requests in workload order).

    An empty-plan :func:`run_chaos` must reproduce this digest exactly —
    the acceptance check that the seams themselves change nothing.
    """
    with AnnotationServer(snapshot, config) as server:
        return _stream_digest(run_load(server, workload, 1).outcomes)


def _oracle_diff(outcomes: list[Outcome],
                 expected: list[tuple[str, str]]) -> tuple[int, int]:
    """Invariant 2 over a run: ``(oracle mismatches, internal errors)``.

    An ``ok`` body must equal the oracle's; an error must be the oracle's
    own validation error or an ``InternalError`` (explained later by the
    injected worker deaths). Sheds and timeouts carry no body to check.
    """
    mismatches = internal_errors = 0
    for outcome, answer in zip(outcomes, expected):
        if outcome.status == OK:
            if answer != (OK, outcome.body):
                mismatches += 1
        elif outcome.status == ERROR and answer != (ERROR, outcome.body):
            if outcome.body.startswith(_INTERNAL_PREFIX):
                internal_errors += 1
            else:
                mismatches += 1
    return mismatches, internal_errors


def run_chaos(snapshot: CorpusSnapshot, plan: FaultPlan, *,
              workload_config: WorkloadConfig | None = None,
              server_config: ServerConfig | None = None,
              clients: int = 4, deadline_s: float = 30.0,
              shards: int = 1) -> ChaosReport:
    """Run one workload under a fault plan and check the three invariants.

    The oracle-diff protocol: every workload request's fault-free answer
    is computed up front from a plain :class:`QueryEngine` over the same
    snapshot; the chaotic run then has nothing to hide behind — each
    ``ok`` response is byte-compared against its oracle answer, each
    error must be the oracle's own validation error or an explicitly
    counted injected failure, and each request must resolve within
    ``deadline_s`` (the load driver records a miss as a timeout). After
    ``clear()`` ends the fault window, every poisoned cache key is
    re-read (each must be rejected, already overwritten by a verified
    recompute, or evicted — never served corrupt) and the whole workload
    is replayed sequentially, which must be oracle-identical again.

    ``shards > 1`` runs the same protocol against a sharded server while
    the oracle stays a *single-index* engine over the unpartitioned
    snapshot — so the diff simultaneously checks fault containment and
    scatter-gather byte-identity under fire.
    """
    workload_config = workload_config or WorkloadConfig(seed=plan.seed,
                                                        requests=400)
    injector = ChaosInjector(plan)
    if shards > 1:
        server_config = replace(server_config or ServerConfig(),
                                shards=shards)
    server = AnnotationServer(snapshot, server_config,
                              clock=injector.clock, fault_injector=injector)
    injector.bind(server)
    workload = generate_workload(server.index, workload_config)
    expected = oracle_answers(snapshot, workload)

    with server:
        load = run_load(server, workload, clients, deadline_s=deadline_s)
        injector.clear()

        # Poisoned-entry sweep: every corrupted key must now be rejected,
        # overwritten by a digest-valid recompute, or LRU-evicted.
        rejected_before = server.cache.corruption_rejections
        overwritten = 0
        gone = 0
        for key in injector.poisoned_keys:
            if server.cache.get(key) is None:
                gone += 1  # rejected just now, or evicted/expired earlier
            else:
                overwritten += 1  # digest-valid body: a fresh recompute
        poison_outcomes = {
            "fired": len(injector.poisoned_keys),
            "rejected_on_sweep": (server.cache.corruption_rejections
                                  - rejected_before),
            "overwritten": overwritten,
            "gone": gone,
        }
        replay = run_load(server, workload, 1)
    recovery_failures = sum(
        1 for outcome, answer in zip(replay.outcomes, expected)
        if (outcome.status, outcome.body) != answer)
    mismatches, internal_errors = _oracle_diff(load.outcomes, expected)
    deaths = injector.fired.get("worker-death", 0)
    return ChaosReport(
        load=load,
        plan_fingerprint=plan.fingerprint,
        snapshot_fingerprint=snapshot.fingerprint,
        oracle_mismatches=mismatches,
        recovery_failures=recovery_failures,
        unexplained_errors=max(0, internal_errors - deaths),
        faults_fired=dict(injector.fired),
        worker_respawns=server.metrics.counters.count(
            "serve.worker.respawns"),
        cache_rejections=server.cache.corruption_rejections,
        poison_outcomes=poison_outcomes)


# -- snapshot-file fault classes ----------------------------------------


def corrupt_snapshot_file(path: Path, mode: str,
                          rng: random.Random) -> None:
    """Apply one seeded on-disk corruption to a snapshot file in place."""
    data = path.read_bytes()
    if len(data) < 2:
        raise ChaosError(f"snapshot file {path} too small to corrupt")
    if mode == "snapshot-truncate":
        cut = max(1, int(len(data) * rng.uniform(0.05, 0.95)))
        path.write_bytes(data[:cut])
    elif mode == "snapshot-bitflip":
        offset = rng.randrange(len(data))
        flipped = data[offset] ^ (1 << rng.randrange(8))
        path.write_bytes(data[:offset] + bytes([flipped])
                         + data[offset + 1:])
    else:
        raise ChaosError(
            f"unknown snapshot fault class {mode!r}; expected one of "
            f"{SNAPSHOT_FAULT_CLASSES}")


def snapshot_corruption_trials(snapshot: CorpusSnapshot, *, seed: int,
                               workdir: str | Path,
                               trials_per_mode: int = 4) -> dict:
    """Seeded truncation/bit-flip trials against a written snapshot.

    The never-serve-a-wrong-byte invariant at the load seam: every
    corrupted file must either be rejected (counted by
    ``SnapshotError.reason`` class) or — when a bit flip lands in
    unfingerprinted metadata — load with the records fingerprint intact,
    so the answers it would serve are unchanged. A load that succeeds
    with a *different* records fingerprint is a violation.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    pristine = workdir / "chaos-pristine.snap.json"
    write_snapshot(snapshot, pristine)
    rng = random.Random(seed)
    outcome: dict = {"trials": 0, "detected": 0, "benign": 0,
                     "violations": 0, "reasons": {}, "by_mode": {}}
    for mode in SNAPSHOT_FAULT_CLASSES:
        mode_stats = {"trials": 0, "detected": 0, "benign": 0,
                      "violations": 0}
        for trial in range(trials_per_mode):
            target = workdir / f"chaos-{mode}-{trial}.snap.json"
            target.write_bytes(pristine.read_bytes())
            corrupt_snapshot_file(target, mode, rng)
            outcome["trials"] += 1
            mode_stats["trials"] += 1
            try:
                loaded = load_snapshot(target)
            except SnapshotError as exc:
                outcome["detected"] += 1
                mode_stats["detected"] += 1
                outcome["reasons"][exc.reason] = \
                    outcome["reasons"].get(exc.reason, 0) + 1
            else:
                if loaded.fingerprint == snapshot.fingerprint:
                    outcome["benign"] += 1
                    mode_stats["benign"] += 1
                else:
                    outcome["violations"] += 1
                    mode_stats["violations"] += 1
            finally:
                target.unlink(missing_ok=True)
        outcome["by_mode"][mode] = mode_stats
    pristine.unlink(missing_ok=True)
    outcome["reasons"] = dict(sorted(outcome["reasons"].items()))
    return outcome


__all__ = [
    "FAULT_CLASSES",
    "HANG_RELEASE_AFTER",
    "SERVE_FAULT_CLASSES",
    "SNAPSHOT_FAULT_CLASSES",
    "ChaosInjector",
    "ChaosReport",
    "FaultEvent",
    "FaultPlan",
    "SkewClock",
    "baseline_digest",
    "corrupt_snapshot_file",
    "run_chaos",
    "snapshot_corruption_trials",
]
