#!/usr/bin/env python
"""Sharded serving benchmark: scatter-gather identity + asyncio front end.

Five phases, each with hard assertions (this doubles as the CI smoke):

1. **Sharded round trip** — partition the snapshot by domain hash, write
   the shard directory + manifest, reload with full verification, and
   require the global fingerprint to survive.
2. **Differential sweep** — serve a probe set covering *every* query
   class (point lookups, facets, aggregates, predicate queries,
   compliance scans) and require byte-identical response bodies across
   shard counts {1, 2, 4, 7}, a shuffled record order, and a cold vs.
   warm result cache — all compared against the single-index engine.
3. **Async front end vs. submit-path baseline** — the same zipfian
   closed-loop workload, from the same coroutine clients, through (a)
   ``AnnotationServer.submit`` on a single-shard server and (b) the
   asyncio front end on a sharded server; requires the async path to
   keep up with the baseline (its event-loop cache fast path skips the
   queue round trip entirely).
4. **Shard sweep** — async throughput for each shard count, recorded.
5. **Multi-tenant fairness** — one well-behaved tenant and one flooding
   tenant share a server; requires the flooder to be shed (per-tenant
   admission engaged) while the well-behaved tenant sees zero sheds and
   zero errors.

Results land in ``BENCH_serve_sharded.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serve_sharded.py
    PYTHONPATH=src python benchmarks/bench_serve_sharded.py --domains 12 \
        --requests 300 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import tempfile
import time
from pathlib import Path

from repro._util import write_json_atomic
from repro.compliance.oracle import random_predicate
from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import PipelineOptions, run_pipeline
from repro.serve import (
    AnnotationServer,
    AspectMentions,
    AsyncFrontEnd,
    ComplianceScan,
    CorpusIndex,
    DomainLookup,
    FacetFilter,
    PredicateQuery,
    QueryEngine,
    SectorAggregate,
    ServerConfig,
    TableAggregate,
    TenantQuota,
    TenantRegistry,
    TopDescriptors,
    WorkloadConfig,
    build_snapshot,
    generate_workload,
    load_sharded_snapshot,
    partition_snapshot,
    run_load,
    run_tenants,
    snapshot_from_result,
    write_sharded_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Domain universe size at fraction=1.0 (see repro.corpus.build).
FULL_UNIVERSE = 2892

SHARD_COUNTS = (1, 2, 4, 7)


def _build(seed: int, n_domains: int):
    fraction = min(1.0, n_domains / FULL_UNIVERSE * 1.5 + 0.005)
    corpus = build_corpus(CorpusConfig(seed=seed, fraction=fraction))
    if len(corpus.domains) < n_domains:
        raise SystemExit(
            f"corpus too small: {len(corpus.domains)} < {n_domains}")
    return corpus, corpus.domains[:n_domains]


def _probe_queries(snapshot, index: CorpusIndex) -> list:
    """A fixed probe set touching every query class, compliance included."""
    domains = sorted(r.domain for r in snapshot.records)
    sectors = sorted({r.sector for r in snapshot.records})
    probes = [DomainLookup(domain=d) for d in domains[:5]]
    probes.append(DomainLookup(domain="definitely-missing.invalid"))
    probes += [
        FacetFilter(facet="types", status="annotated"),
        FacetFilter(facet="purposes", sector=sectors[0]),
        SectorAggregate(sector=sectors[0]),
        SectorAggregate(sector="no-such-sector"),
        TopDescriptors(facet="types", k=10),
        TopDescriptors(facet="labels", k=5, sector=sectors[-1]),
        AspectMentions(aspect="handling", limit=25),
        AspectMentions(aspect="rights", limit=10),
    ]
    probes += [TableAggregate(table=t)
               for t in ("table1", "table2a", "table2b", "table3",
                         "summary")]
    probes += [ComplianceScan(pack="gdpr"),
               ComplianceScan(pack="ccpa", sector=sectors[0])]
    atom_pool = [atom for aspect in sorted(index.atoms_by_aspect)
                 for atom in index.atoms_by_aspect[aspect]]
    rng = random.Random(97)
    probes += [PredicateQuery.from_predicate(
        random_predicate(rng, atom_pool),
        evidence=i % 4 == 0) for i in range(12)]
    return probes


def _digest(bodies: list[str]) -> str:
    digest = hashlib.sha256()
    for body in bodies:
        digest.update(body.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _server_sweep(snapshot_or_sharded, probes, passes: int = 1,
                  shards: int = 1) -> list[str]:
    """Per-pass digest over probe bodies through an AnnotationServer."""
    digests = []
    config = ServerConfig(workers=2, shards=shards)
    with AnnotationServer(snapshot_or_sharded, config) as server:
        for _ in range(passes):
            bodies = []
            for query in probes:
                response = server.request(query)
                if not response.ok:
                    raise SystemExit(
                        f"FAIL: probe {query!r} answered "
                        f"{response.status}: {response.body}")
                bodies.append(response.body)
            digests.append(_digest(bodies))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=60,
                        help="corpus size to serve (default: 60)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default: 7)")
    parser.add_argument("--requests", type=int, default=4000,
                        help="throughput-phase request count "
                        "(default: 4000)")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop clients / coroutines "
                        "(default: 8)")
    parser.add_argument("--load-seed", type=int, default=0,
                        help="workload generator seed (default: 0)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_serve_sharded.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    # -- 1. sharded round trip ------------------------------------------
    print(f"building corpus (seed={args.seed}, domains={args.domains})")
    corpus, domains = _build(args.seed, args.domains)
    result = run_pipeline(corpus, PipelineOptions(), domains=domains)
    snapshot = snapshot_from_result(result)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-sharded-") as workdir:
        directory = Path(workdir) / "corpus.sharded"
        write_sharded_snapshot(partition_snapshot(snapshot, 4), directory)
        reloaded = load_sharded_snapshot(directory)
    sharded_io_s = time.perf_counter() - t0
    if reloaded.fingerprint != snapshot.fingerprint:
        raise SystemExit("FAIL: sharded round trip drifted the global "
                         "fingerprint")
    shard_sizes = [s.domain_count() for s in reloaded.shards]
    print(f"sharded round trip: {snapshot.domain_count()} domains over "
          f"4 shards (sizes {shard_sizes}), write+load+verify "
          f"{sharded_io_s * 1000:.1f}ms")

    # -- 2. differential sweep ------------------------------------------
    index = CorpusIndex.build(snapshot)
    probes = _probe_queries(snapshot, index)
    engine = QueryEngine(index)
    oracle_digest = _digest([engine.execute(q).to_json() for q in probes])
    shuffled = list(snapshot.records)
    random.Random(13).shuffle(shuffled)
    shuffled_snapshot = build_snapshot(shuffled)
    for shards in SHARD_COUNTS:
        cold, warm = _server_sweep(snapshot, probes, passes=2,
                                   shards=shards)
        if cold != oracle_digest or warm != oracle_digest:
            raise SystemExit(
                f"FAIL: shards={shards} drifted from the single-index "
                f"engine ({cold[:12]}/{warm[:12]} vs "
                f"{oracle_digest[:12]})")
        (reordered,) = _server_sweep(shuffled_snapshot, probes,
                                     shards=shards)
        if reordered != oracle_digest:
            raise SystemExit(
                f"FAIL: shards={shards} over shuffled record order "
                f"drifted: {reordered[:12]} vs {oracle_digest[:12]}")
    print(f"differential sweep ok: {len(probes)} probes byte-identical "
          f"across shard counts {SHARD_COUNTS}, shuffled record order, "
          f"and cold/warm cache")

    # -- 3. async front end vs. submit-path baseline --------------------
    baseline_config = ServerConfig(workers=2, queue_depth=256,
                                   cache_entries=512)
    baseline_server = AnnotationServer(snapshot, baseline_config)
    workload = generate_workload(
        baseline_server.index,
        WorkloadConfig(seed=args.load_seed, requests=args.requests))
    with baseline_server:
        baseline = run_load(baseline_server, workload,
                            clients=args.clients)
    if baseline.errors:
        raise SystemExit(
            f"FAIL: baseline run produced {baseline.errors} errors")

    def async_run(shards: int):
        config = ServerConfig(workers=2, queue_depth=256,
                              cache_entries=512, shards=shards)
        server = AnnotationServer(snapshot, config)
        registry = TenantRegistry()
        registry.register("bench",
                          TenantQuota(max_inflight=args.clients))
        front = AsyncFrontEnd(server, registry)
        with server:
            report = run_tenants(
                front, {"bench": (workload, args.clients)})["bench"]
        if report.errors or report.shed:
            raise SystemExit(
                f"FAIL: async run (shards={shards}) saw "
                f"{report.errors} errors / {report.shed} sheds")
        return report

    async_reports = {shards: async_run(shards)
                     for shards in SHARD_COUNTS}
    baseline_rps = baseline.throughput_rps
    async_rps = async_reports[1].throughput_rps
    best_shards = max(SHARD_COUNTS,
                      key=lambda s: async_reports[s].throughput_rps)
    best_rps = async_reports[best_shards].throughput_rps
    print(f"throughput: submit-path baseline {baseline_rps:.0f} req/s, "
          f"async 1-shard {async_rps:.0f} req/s, async best "
          f"{best_rps:.0f} req/s at {best_shards} shards")
    # The async front end must at least keep up with the submit path
    # on the same workload (small tolerance for noise).
    if best_rps < baseline_rps * 0.95:
        raise SystemExit(
            f"FAIL: async front end lost to the submit-path baseline: "
            f"{best_rps:.0f} < {baseline_rps:.0f} req/s")

    # -- 4. shard sweep (recorded above) --------------------------------
    shard_sweep = {
        str(shards): {
            "throughput_rps": round(report.throughput_rps, 2),
            "requests": report.requests,
            "cached": report.cached,
        }
        for shards, report in async_reports.items()}

    # -- 5. multi-tenant fairness ---------------------------------------
    fairness_config = ServerConfig(workers=2, queue_depth=64,
                                   cache_entries=0, shards=2)
    fairness_server = AnnotationServer(snapshot, fairness_config)
    registry = TenantRegistry()
    registry.register("steady", TenantQuota(max_inflight=4))
    registry.register("flood", TenantQuota(max_inflight=2))
    front = AsyncFrontEnd(fairness_server, registry)
    if front.queue_headroom() < 0:
        raise SystemExit("FAIL: global queue shallower than the sum of "
                         "tenant caps — fairness guarantee void")
    steady_requests = max(300, min(1200, args.requests // 4))

    def tenant_workload(seed: int, requests: int) -> list:
        return generate_workload(fairness_server.index, WorkloadConfig(
            seed=seed, requests=requests))

    with fairness_server:
        fairness = run_tenants(front, {
            "steady": (tenant_workload(args.load_seed + 1,
                                       steady_requests), 4),
            "flood": (tenant_workload(args.load_seed + 2,
                                      steady_requests * 2), 24),
        })
    steady = fairness["steady"]
    flood = fairness["flood"]
    if flood.shed == 0:
        raise SystemExit("FAIL: flooding tenant was never shed — "
                         "per-tenant admission control never engaged")
    if steady.shed or steady.errors:
        raise SystemExit(
            f"FAIL: well-behaved tenant was collateral damage: "
            f"{steady.shed} sheds, {steady.errors} errors")
    print(f"fairness: flood shed {flood.shed}/{flood.requests}, steady "
          f"tenant clean ({steady.ok}/{steady.requests} ok, 0 shed, "
          f"0 errors)")

    payload = {
        "corpus_domains": len(domains),
        "cpus": os.cpu_count(),
        "snapshot_fingerprint": snapshot.fingerprint,
        "sharded_io_s": round(sharded_io_s, 4),
        "shard_sizes": shard_sizes,
        "probe_digest": oracle_digest,
        "probes": len(probes),
        "shard_counts": list(SHARD_COUNTS),
        "config": {"workers": baseline_config.workers,
                   "queue_depth": baseline_config.queue_depth,
                   "cache_entries": baseline_config.cache_entries,
                   "clients": args.clients,
                   "requests": args.requests},
        "baseline_threaded": baseline.as_dict(),
        "async_1shard_rps": round(async_rps, 2),
        "async_best": {"shards": best_shards,
                       "throughput_rps": round(best_rps, 2)},
        "shard_sweep": shard_sweep,
        "fairness": {"tenants": {name: report.as_dict()
                                 for name, report in fairness.items()}},
    }
    write_json_atomic(args.out, payload)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
