#!/usr/bin/env python
"""Continuous-ingestion benchmark: delta refresh vs. from-scratch rebuild.

Five phases, each with hard assertions (this doubles as the CI ingest
job):

1. **Cold bootstrap** — the watcher's first full pass over the bench
   corpus: crawl + annotate every domain through the two-layer cache,
   freeze the initial sharded serving snapshot.
2. **Delta refresh** — mutate K of N domains through the seeded policy
   change feed, run one watcher round, and patch only the owning shards.
   The counters must prove the delta was *exactly* K: K record-layer
   misses, K re-annotations, every other domain skipped on the input
   fingerprint alone; the touched shard set must equal the domain-hash
   routing set; untouched shard objects must be reused identically.
3. **Full warm rebuild** — the comparison baseline: a complete pipeline
   pass over the same (mutated) corpus, a from-scratch snapshot build,
   partition, and full index build. It runs against a *copy* of the
   cache as it stood before the delta round, so both paths pay the same
   K re-annotations and the comparison isolates the incremental
   machinery. Must be fingerprint-identical to the delta result (the
   differential proof) and **slower wall-clock** than the delta refresh.
4. **Steady state** — a second watcher round with no edits: every domain
   must skip on the input fingerprint, zero patches, zero re-annotation.
5. **Swap under load** — install the refreshed snapshot on a live
   server mid-workload: zero dropped requests, every OK body
   byte-identical to one generation's oracle, post-swap probes serving
   new-generation bytes.

Results land in ``BENCH_ingest.json`` at the repo root (written
atomically)::

    PYTHONPATH=src python benchmarks/bench_ingest.py
    PYTHONPATH=src python benchmarks/bench_ingest.py --domains 12 \
        --mutate 3 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

from repro._util import write_json_atomic
from repro.corpus import CorpusConfig, build_corpus
from repro.ingest import (
    IngestScheduler,
    PolicyChangeFeed,
    apply_patches_sharded,
    refresh_differential,
    run_swap_load,
    touched_shards,
)
from repro.pipeline import PipelineCache, PipelineOptions, run_pipeline
from repro.serve import (
    AnnotationServer,
    DomainLookup,
    SectorAggregate,
    ServerConfig,
    ShardedEngine,
    TopDescriptors,
    build_snapshot,
    partition_snapshot,
    snapshot_from_result,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Domain universe size at fraction=1.0 (see repro.corpus.build).
FULL_UNIVERSE = 2892


def _build(seed: int, n_domains: int):
    fraction = min(1.0, n_domains / FULL_UNIVERSE * 1.5 + 0.005)
    corpus = build_corpus(CorpusConfig(seed=seed, fraction=fraction))
    if len(corpus.domains) < n_domains:
        raise SystemExit(
            f"corpus too small: {len(corpus.domains)} < {n_domains}")
    return corpus, corpus.domains[:n_domains]


def _workload(snapshot, requests: int) -> list:
    domains = sorted(r.domain for r in snapshot.records)
    sectors = sorted({r.sector for r in snapshot.records})
    probes = [DomainLookup(domain=d) for d in domains]
    probes += [SectorAggregate(sector=s) for s in sectors]
    probes.append(TopDescriptors(facet="types", k=10))
    return (probes * (requests // len(probes) + 1))[:requests]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=60,
                        help="corpus size to watch (default: 60)")
    parser.add_argument("--mutate", type=int, default=3,
                        help="domains to mutate for the delta round "
                        "(default: 3)")
    parser.add_argument("--shards", type=int, default=8,
                        help="serving shard count (default: 8)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default: 7)")
    parser.add_argument("--requests", type=int, default=600,
                        help="swap-phase request count (default: 600)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_ingest.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-ingest-cache-"))
    try:
        return _run(args, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(cache_dir.with_name(cache_dir.name + "-baseline"),
                      ignore_errors=True)


def _run(args, cache_dir: Path) -> int:
    # -- 1. cold bootstrap ----------------------------------------------
    print(f"building corpus (seed={args.seed}, domains={args.domains})")
    corpus, domains = _build(args.seed, args.domains)
    options = PipelineOptions()
    cache = PipelineCache(cache_dir)
    scheduler = IngestScheduler(corpus, options, cache, domains=domains,
                                seed=args.seed)
    t0 = time.perf_counter()
    records = scheduler.bootstrap()
    bootstrap_s = time.perf_counter() - t0
    snapshot = build_snapshot(records, source="bench-ingest")
    sharded = partition_snapshot(snapshot, args.shards)
    engine = ShardedEngine(sharded)
    print(f"bootstrap: {len(records)} domains in {bootstrap_s:.2f}s, "
          f"fingerprint {sharded.fingerprint[:12]}…")

    # -- 2. delta refresh ------------------------------------------------
    feed = PolicyChangeFeed(corpus, seed=args.seed,
                            per_round=args.mutate, domains=domains)
    changed = feed.next_round()
    # Freeze the pre-delta cache state for the phase-3 baseline: a full
    # rebuild from here pays the same K re-annotations the delta round
    # pays, isolating the incremental machinery in the comparison.
    baseline_dir = cache_dir.with_name(cache_dir.name + "-baseline")
    shutil.copytree(cache_dir, baseline_dir)
    if len(changed) != args.mutate:
        raise SystemExit(
            f"FAIL: feed mutated {len(changed)}/{args.mutate} domains")
    before = scheduler.counts()
    t0 = time.perf_counter()
    rnd = scheduler.run_round()
    refresh = apply_patches_sharded(sharded, list(rnd.patches))
    new_engine = ShardedEngine(refresh.sharded, reuse_from=engine)
    delta_s = time.perf_counter() - t0
    after = scheduler.counts()

    def delta(counter: str) -> int:
        return after.get(counter, 0) - before.get(counter, 0)

    k = args.mutate
    if sorted(rnd.changed) != sorted(changed):
        raise SystemExit(
            f"FAIL: watcher saw {sorted(rnd.changed)} changed, feed "
            f"mutated {sorted(changed)}")
    if delta("cache.record.miss") != k or delta("ingest.annotated") != k:
        raise SystemExit(
            f"FAIL: delta round was not exactly-K: "
            f"{delta('cache.record.miss')} record misses / "
            f"{delta('ingest.annotated')} re-annotations for {k} edits")
    if delta("ingest.skipped") != len(domains) - k:
        raise SystemExit(
            f"FAIL: {delta('ingest.skipped')} skips for "
            f"{len(domains) - k} unchanged domains")
    expected_touched = tuple(touched_shards(list(rnd.patches), args.shards))
    if refresh.touched != expected_touched:
        raise SystemExit(
            f"FAIL: refresh touched shards {refresh.touched}, routing "
            f"says {expected_touched}")
    for i, shard in enumerate(refresh.sharded.shards):
        same = shard is sharded.shards[i]
        if same == (i in refresh.touched):
            raise SystemExit(
                f"FAIL: shard {i} object reuse disagrees with touched set")
    if new_engine.reused_shards != args.shards - len(refresh.touched):
        raise SystemExit(
            f"FAIL: engine found {new_engine.reused_shards} shards "
            f"unchanged, expected {args.shards - len(refresh.touched)}")
    print(f"delta refresh: {k} edits → {len(rnd.patches)} patches, "
          f"{len(refresh.touched)}/{args.shards} shards rebuilt, "
          f"{new_engine.reused_shards} unchanged, {delta_s:.2f}s")

    # -- 3. full warm rebuild (the baseline) -----------------------------
    t0 = time.perf_counter()
    result = run_pipeline(corpus, options, domains=domains,
                          cache=PipelineCache(baseline_dir))
    rebuilt = snapshot_from_result(result)
    rebuilt_sharded = partition_snapshot(rebuilt, args.shards)
    ShardedEngine(rebuilt_sharded)
    full_s = time.perf_counter() - t0
    if rebuilt_sharded.fingerprint != refresh.sharded.fingerprint:
        raise SystemExit(
            f"FAIL: delta refresh {refresh.sharded.fingerprint[:12]}… is "
            f"not fingerprint-identical to the from-scratch rebuild "
            f"{rebuilt_sharded.fingerprint[:12]}…")
    verdict = refresh_differential(corpus, options, cache,
                                   refresh.sharded, domains=domains)
    if not verdict["identical"]:
        raise SystemExit(f"FAIL: differential harness disagrees: {verdict}")
    if delta_s >= full_s:
        # At toy scale the K re-annotations (paid by both paths)
        # dominate and the machinery difference is within noise — only
        # enforce the wall-clock claim at bench scale.
        if args.domains >= 24:
            raise SystemExit(
                f"FAIL: delta refresh ({delta_s:.2f}s) did not beat the "
                f"full warm rebuild ({full_s:.2f}s)")
        print(f"full warm rebuild: {full_s:.2f}s (wall-clock comparison "
              f"not enforced below 24 domains)")
    else:
        print(f"full warm rebuild: {full_s:.2f}s — delta refresh is "
              f"{full_s / delta_s:.1f}x faster and fingerprint-identical")

    # -- 4. steady state --------------------------------------------------
    before = scheduler.counts()
    t0 = time.perf_counter()
    idle = scheduler.run_round()
    steady_s = time.perf_counter() - t0
    after = scheduler.counts()
    if idle.patches or delta("cache.record.miss") \
            or delta("ingest.annotated"):
        raise SystemExit(
            f"FAIL: steady-state round did work: {len(idle.patches)} "
            f"patches, {delta('cache.record.miss')} misses")
    if len(idle.skipped) != len(domains):
        raise SystemExit(
            f"FAIL: steady state skipped {len(idle.skipped)}/"
            f"{len(domains)}")
    print(f"steady state: {len(domains)} domains checked, all skipped, "
          f"{steady_s * 1000:.1f}ms")

    # -- 5. swap under load -----------------------------------------------
    workload = _workload(sharded, args.requests)
    server = AnnotationServer(sharded, ServerConfig(
        workers=4, queue_depth=256, shards=args.shards))
    with server:
        report = run_swap_load(server, workload, refresh.sharded,
                               clients=6, swap_after=len(workload) // 8)
    swap = report.as_dict()
    if not report.clean or report.errors:
        raise SystemExit(f"FAIL: swap run was not clean: {swap}")
    if not report.swap_effective:
        raise SystemExit(f"FAIL: no request provably reached the new "
                         f"generation: {swap}")
    print(f"swap under load: {swap['requests']} requests, "
          f"{swap['dropped']} dropped, {swap['wrong_bytes']} wrong bytes, "
          f"{swap['post_ok']}/{swap['post_requests']} post-swap probes on "
          f"new bytes, swap found "
          f"{swap['swap']['shards_reused']}/{args.shards} shards unchanged")

    # -- artifact ---------------------------------------------------------
    payload = {
        "config": {"domains": args.domains, "mutate": args.mutate,
                   "shards": args.shards, "seed": args.seed,
                   "requests": args.requests},
        "bootstrap_s": round(bootstrap_s, 4),
        "delta_refresh_s": round(delta_s, 4),
        "full_rebuild_s": round(full_s, 4),
        "speedup": round(full_s / delta_s, 2),
        "steady_state_ms": round(steady_s * 1000, 2),
        "patches": len(rnd.patches),
        "touched_shards": list(refresh.touched),
        "reused_indexes": new_engine.reused_shards,
        "fingerprint": refresh.sharded.fingerprint,
        "differential": verdict,
        "swap_load": swap,
        "counters": {name: count
                     for name, count in sorted(scheduler.counts().items())
                     if name.startswith(("ingest.", "cache."))},
    }
    write_json_atomic(args.out, payload)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
