#!/usr/bin/env python
"""Chaos benchmark: deterministic fault injection with hard invariants.

Four phases, each with assertions (this doubles as the CI chaos job):

1. **Baseline equivalence** — an *empty* fault plan through the chaos
   harness must produce a response stream byte-identical to a plain PR-5
   server run: the fault seams themselves change nothing.
2. **Per-class fault runs** — one seeded plan per serve fault class
   (slow-handler, worker-death, worker-hang, cache-poison, clock-skew),
   each diffed request-by-request against a fault-free oracle. Every run
   must fire its faults and finish with **zero invariant violations**:
   every request terminates (shed or answered, never stalled), every
   ``ok`` body matches the oracle byte-for-byte, and the post-fault
   replay is oracle-identical (the server recovered).
3. **Snapshot corruption sweep** — seeded truncations and bit flips of
   the snapshot file; every corrupted file must be rejected at load (with
   a classified reason) or be provably benign (records fingerprint
   intact). A load that succeeds with different record bytes is a
   violation.
4. **Artifact** — per-fault-class shed/recovery/violation counts land in
   ``BENCH_chaos.json`` (written atomically)::

    PYTHONPATH=src python benchmarks/bench_chaos.py
    PYTHONPATH=src python benchmarks/bench_chaos.py --domains 12 \
        --requests 120 --out /tmp/chaos-smoke.json
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro._util import write_json_atomic
from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import PipelineOptions, run_pipeline
from repro.serve import (
    SERVE_FAULT_CLASSES,
    CorpusIndex,
    FaultPlan,
    ServerConfig,
    WorkloadConfig,
    baseline_digest,
    generate_workload,
    run_chaos,
    snapshot_corruption_trials,
    snapshot_from_result,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Domain universe size at fraction=1.0 (see repro.corpus.build).
FULL_UNIVERSE = 2892

#: Server shape per fault class. worker-hang runs against a deliberately
#: tight queue (1 worker, depth 2, 8 clients) so a hung worker forces the
#: admission controller to shed — proving shed-not-stall, not just assuming
#: it. worker-death runs single-worker so every injected death must be
#: healed by a respawn before the run can finish.
_CLASS_SETUPS = {
    "slow-handler": {"workers": 2, "queue_depth": 32, "clients": 4},
    "worker-death": {"workers": 1, "queue_depth": 32, "clients": 4},
    "worker-hang": {"workers": 1, "queue_depth": 2, "clients": 8},
    "cache-poison": {"workers": 2, "queue_depth": 32, "clients": 4},
    "clock-skew": {"workers": 2, "queue_depth": 32, "clients": 4},
}


def _build(seed: int, n_domains: int):
    fraction = min(1.0, n_domains / FULL_UNIVERSE * 1.5 + 0.005)
    corpus = build_corpus(CorpusConfig(seed=seed, fraction=fraction))
    if len(corpus.domains) < n_domains:
        raise SystemExit(
            f"corpus too small: {len(corpus.domains)} < {n_domains}")
    return corpus, corpus.domains[:n_domains]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=60,
                        help="corpus size to serve (default: 60)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default: 7)")
    parser.add_argument("--chaos-seed", type=int, default=100,
                        help="base fault-plan seed; class i uses "
                        "chaos-seed + i (default: 100)")
    parser.add_argument("--requests", type=int, default=400,
                        help="requests per chaos run (default: 400)")
    parser.add_argument("--deadline", type=float, default=30.0,
                        help="per-request termination deadline (s)")
    parser.add_argument("--corruption-trials", type=int, default=6,
                        help="on-disk trials per snapshot fault class")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_chaos.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    print(f"building corpus (seed={args.seed}, domains={args.domains})")
    corpus, domains = _build(args.seed, args.domains)
    result = run_pipeline(corpus, PipelineOptions(), domains=domains)
    snapshot = snapshot_from_result(result)
    print(f"snapshot: {snapshot.domain_count()} domains, "
          f"fingerprint {snapshot.fingerprint[:12]}…")

    # -- 1. empty plan == plain PR-5 server ------------------------------
    baseline_config = ServerConfig(workers=2, queue_depth=64)
    workload_config = WorkloadConfig(seed=args.chaos_seed,
                                     requests=args.requests)
    empty = run_chaos(snapshot, FaultPlan.empty(),
                      workload_config=workload_config,
                      server_config=baseline_config, clients=4,
                      deadline_s=args.deadline)
    workload = generate_workload(CorpusIndex.build(snapshot),
                                 workload_config)
    plain = baseline_digest(snapshot, workload, baseline_config)
    if empty.response_digest != plain:
        raise SystemExit(
            f"FAIL: empty fault plan drifted from the plain server: "
            f"{empty.response_digest[:12]} vs {plain[:12]}")
    if empty.violations() or empty.shed or empty.errors:
        raise SystemExit(
            f"FAIL: empty plan was not clean: {empty.as_dict()}")
    print(f"baseline: empty plan byte-identical to plain run "
          f"(digest {plain[:12]}…, {empty.requests} requests)")

    # -- 2. one seeded plan per fault class ------------------------------
    classes: dict[str, dict] = {}
    total_violations = 0
    for offset, fault_class in enumerate(SERVE_FAULT_CLASSES):
        setup = _CLASS_SETUPS[fault_class]
        plan = FaultPlan.from_seed(args.chaos_seed + offset,
                                   requests=args.requests,
                                   classes=(fault_class,),
                                   events_per_class=3)
        report = run_chaos(
            snapshot, plan,
            workload_config=WorkloadConfig(seed=args.chaos_seed + offset,
                                           requests=args.requests),
            server_config=ServerConfig(workers=setup["workers"],
                                       queue_depth=setup["queue_depth"]),
            clients=setup["clients"], deadline_s=args.deadline)
        fired = report.faults_fired.get(fault_class, 0)
        if fired == 0:
            raise SystemExit(
                f"FAIL: plan for {fault_class} fired no faults")
        if report.violations():
            raise SystemExit(
                f"FAIL: {fault_class} violated invariants: "
                f"{report.as_dict()}")
        if not report.recovered:
            raise SystemExit(
                f"FAIL: server did not recover after {fault_class}")
        if fault_class == "worker-death" and report.worker_respawns == 0:
            raise SystemExit("FAIL: worker deaths healed no respawns")
        if fault_class == "worker-hang" and report.shed == 0:
            raise SystemExit(
                "FAIL: hung worker shed nothing — the queue stalled "
                "instead of failing fast")
        total_violations += report.violations()
        classes[fault_class] = {
            "plan_fingerprint": report.plan_fingerprint,
            "fired": fired,
            "ok": report.ok,
            "shed": report.shed,
            "errors": report.errors,
            "timeouts": report.timeouts,
            "violations": report.violations(),
            "worker_respawns": report.worker_respawns,
            "cache_rejections": report.cache_rejections,
            "recovered": report.recovered,
        }
        print(f"{fault_class}: {fired} faults fired, {report.ok} ok / "
              f"{report.shed} shed / {report.errors} errors, "
              f"{report.worker_respawns} respawns, "
              f"violations {report.violations()}, recovered "
              f"{report.recovered}")

    # -- 3. snapshot corruption sweep ------------------------------------
    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as workdir:
        disk = snapshot_corruption_trials(
            snapshot, seed=args.chaos_seed, workdir=workdir,
            trials_per_mode=args.corruption_trials)
    if disk["violations"]:
        raise SystemExit(
            f"FAIL: {disk['violations']} corrupted snapshot(s) loaded "
            f"with changed record bytes: {disk}")
    if disk["detected"] == 0:
        raise SystemExit("FAIL: no corruption was ever detected — the "
                         "sweep exercised nothing")
    total_violations += disk["violations"]
    print(f"snapshot faults: {disk['trials']} trials, "
          f"{disk['detected']} rejected "
          f"({', '.join(f'{k}×{v}' for k, v in disk['reasons'].items())})"
          f", {disk['benign']} benign")

    # -- 4. artifact -----------------------------------------------------
    payload = {
        "corpus_domains": len(domains),
        "snapshot_fingerprint": snapshot.fingerprint,
        "requests_per_run": args.requests,
        "empty_plan": {
            "digest_match": True,
            "response_digest": empty.response_digest,
            "requests": empty.requests,
        },
        "fault_classes": classes,
        "snapshot_faults": disk,
        "total_violations": total_violations,
    }
    write_json_atomic(args.out, payload)
    print(f"zero invariant violations across "
          f"{len(SERVE_FAULT_CLASSES)} fault classes + "
          f"{disk['trials']} disk trials")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
