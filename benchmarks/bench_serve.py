#!/usr/bin/env python
"""Serving-layer benchmark: correctness sweep + closed-loop load harness.

Four phases, each with hard assertions (this doubles as the CI serve job):

1. **Snapshot round trip** — run the pipeline over the bench corpus,
   freeze it into a snapshot, write + reload it, and require the content
   fingerprint to verify.
2. **Determinism sweep** — serve a probe set covering *every* query class
   and require byte-identical response bodies across repeated runs,
   server worker counts (1 vs 4), and a cold vs. warm hot-result cache.
3. **Throughput/latency run** — a seeded zipfian closed-loop workload;
   reports throughput and client-observed p50/p95/p99 per endpoint.
4. **Overload run** — 32 closed-loop clients against 1 worker and a
   4-deep queue; requires real load-shedding (shed > 0), every shed
   request answered with an explicit ServiceOverloaded response, shed
   counts agreeing between client and server metrics, and the request
   queue never exceeding its bound.

Results land in ``BENCH_serve.json`` at the repo root (written
atomically)::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --domains 12 \
        --requests 300 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import os
import time
from pathlib import Path

from repro._util import write_json_atomic
from repro.corpus import CorpusConfig, build_corpus
from repro.pipeline import PipelineOptions, run_pipeline
from repro.serve import (
    AnnotationServer,
    AspectMentions,
    DomainLookup,
    FacetFilter,
    SectorAggregate,
    ServerConfig,
    TableAggregate,
    TopDescriptors,
    WorkloadConfig,
    generate_workload,
    load_snapshot,
    run_load,
    snapshot_from_result,
    write_snapshot,
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


def _probe_queries(snapshot) -> list:
    """A fixed probe set touching every query class."""
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
    return probes


def _sweep_digests(snapshot, probes, workers: int,
                   passes: int = 1) -> list[str]:
    """Per-pass SHA-256 over all probe response bodies.

    The first pass runs against a cold hot-result cache, later passes
    against a warm one, so comparing pass digests proves cached results
    are byte-identical to computed ones.
    """
    digests: list[str] = []
    with AnnotationServer(snapshot,
                          ServerConfig(workers=workers)) as server:
        for _ in range(passes):
            digest = hashlib.sha256()
            for query in probes:
                response = server.request(query)
                if not response.ok:
                    raise SystemExit(
                        f"FAIL: probe {query!r} answered {response.status}: "
                        f"{response.body}")
                digest.update(response.body.encode("utf-8"))
                digest.update(b"\n")
            digests.append(digest.hexdigest())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=60,
                        help="corpus size to serve (default: 60)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default: 7)")
    parser.add_argument("--requests", type=int, default=5000,
                        help="load-phase request count (default: 5000)")
    parser.add_argument("--clients", type=int, default=8,
                        help="load-phase closed-loop clients (default: 8)")
    parser.add_argument("--load-seed", type=int, default=0,
                        help="workload generator seed (default: 0)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_serve.json",
                        help="JSON artifact path")
    args = parser.parse_args(argv)

    # -- 1. snapshot round trip -----------------------------------------
    print(f"building corpus (seed={args.seed}, domains={args.domains})")
    corpus, domains = _build(args.seed, args.domains)
    result = run_pipeline(corpus, PipelineOptions(), domains=domains)
    snapshot = snapshot_from_result(result)
    snap_path = args.out.parent / f".bench-serve-snapshot-{args.seed}.json"
    t0 = time.perf_counter()
    write_snapshot(snapshot, snap_path)
    loaded = load_snapshot(snap_path)
    snapshot_io_s = time.perf_counter() - t0
    if loaded.fingerprint != snapshot.fingerprint:
        raise SystemExit("FAIL: snapshot fingerprint drifted through disk")
    snap_path.unlink()
    print(f"snapshot: {loaded.domain_count()} domains, "
          f"fingerprint {loaded.fingerprint[:12]}…, "
          f"write+load+verify {snapshot_io_s * 1000:.1f}ms")

    # -- 2. determinism sweep -------------------------------------------
    probes = _probe_queries(loaded)
    cold, warm = _sweep_digests(loaded, probes, workers=1, passes=2)
    (w4,) = _sweep_digests(loaded, probes, workers=4)
    (rerun,) = _sweep_digests(loaded, probes, workers=1)
    if cold != warm:
        raise SystemExit(
            f"FAIL: warm hot-result cache drifted from cold responses: "
            f"{cold[:12]} vs {warm[:12]}")
    if cold != w4:
        raise SystemExit(
            f"FAIL: worker counts disagree: {cold[:12]} vs {w4[:12]}")
    if cold != rerun:
        raise SystemExit("FAIL: repeated sweeps disagree")
    print(f"determinism sweep ok: {len(probes)} probes, "
          f"digest {cold[:12]}… stable across reruns, worker counts, "
          f"and cold/warm cache")

    # -- 3. throughput/latency run --------------------------------------
    config = ServerConfig(workers=4, queue_depth=256, cache_entries=512)
    server = AnnotationServer(loaded, config)
    workload = generate_workload(
        server.index, WorkloadConfig(seed=args.load_seed,
                                     requests=args.requests))
    with server:
        report = run_load(server, workload, clients=args.clients)
    if report.errors:
        raise SystemExit(f"FAIL: load run produced {report.errors} errors")
    if report.requests != args.requests:
        raise SystemExit(
            f"FAIL: {report.requests}/{args.requests} requests completed")
    load = report.as_dict()
    print(f"load: {load['requests']} requests, "
          f"{load['throughput_rps']:.0f} req/s, "
          f"p50 {load['latency_ms']['p50']}ms / "
          f"p95 {load['latency_ms']['p95']}ms / "
          f"p99 {load['latency_ms']['p99']}ms, "
          f"cache hit rate {server.metrics.cache_hit_rate():.2f}")

    # -- 4. overload run -------------------------------------------------
    overload_config = ServerConfig(workers=1, queue_depth=4,
                                   cache_entries=0)
    overload_server = AnnotationServer(loaded, overload_config)
    overload_requests = max(500, min(2000, args.requests))
    overload_workload = generate_workload(
        overload_server.index,
        WorkloadConfig(seed=args.load_seed + 1,
                       requests=overload_requests))
    with overload_server:
        overload = run_load(overload_server, overload_workload, clients=32)
        queue_bound = overload_server._queue.maxsize
    if overload.shed == 0:
        raise SystemExit("FAIL: overload run shed nothing — admission "
                         "control never engaged")
    if overload.shed != overload_server.metrics.shed_count():
        raise SystemExit(
            f"FAIL: client saw {overload.shed} sheds, server metrics "
            f"counted {overload_server.metrics.shed_count()}")
    if overload.ok + overload.shed + overload.errors != overload.requests:
        raise SystemExit("FAIL: overload responses do not sum up — some "
                         "request vanished without an explicit answer")
    if queue_bound != overload_config.queue_depth:
        raise SystemExit("FAIL: request queue is not bounded")
    print(f"overload: {overload.requests} requests through a "
          f"{overload_config.queue_depth}-deep queue / 1 worker -> "
          f"{overload.ok} served, {overload.shed} shed with explicit "
          f"ServiceOverloaded responses")

    payload = {
        "corpus_domains": len(domains),
        "cpus": os.cpu_count(),
        "snapshot_fingerprint": loaded.fingerprint,
        "snapshot_io_s": round(snapshot_io_s, 4),
        "probe_digest": cold,
        "config": {"workers": config.workers,
                   "queue_depth": config.queue_depth,
                   "cache_entries": config.cache_entries,
                   "clients": args.clients},
        "load": load,
        "throughput_rps": load["throughput_rps"],
        "latency_ms": load["latency_ms"],
        "cache_hit_rate": round(server.metrics.cache_hit_rate(), 4),
        "overload": {
            "requests": overload.requests,
            "served": overload.ok,
            "shed": overload.shed,
            "queue_depth": overload_config.queue_depth,
            "workers": overload_config.workers,
        },
    }
    write_json_atomic(args.out, payload)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
