"""Indexed query/serving layer over the annotation corpus.

The pipeline produces records; this package makes them *consumable* at
interactive latency, offline-benchmarkable at production shape:

1. :mod:`repro.serve.snapshot` — immutable, content-fingerprinted corpus
   snapshots (from a :class:`PipelineResult`, a record list, or a warm
   pipeline cache).
2. :mod:`repro.serve.index` — inverted indexes + precomputed aggregates,
   built once at load.
3. :mod:`repro.serve.query` — typed, deterministic query API with
   canonical fingerprints.
4. :mod:`repro.serve.server` — bounded-queue serving loop with
   load-shedding, a TTL+LRU hot-result cache, and latency metrics.
5. :mod:`repro.serve.loadgen` — seeded workload generation (zipfian
   popularity, mixed query classes) and the one closed-loop load driver
   every serve number, chaos run, swap run and tenant run goes through.
6. :mod:`repro.serve.chaos` — deterministic fault injection with
   shed-never-stall / never-a-wrong-byte / recover invariants checked
   against a fault-free oracle.
7. :mod:`repro.serve.shard` — hash-partitioned snapshots and a
   scatter-gather engine whose merged answers are byte-identical to the
   single-index engine.
8. :mod:`repro.serve.aserver` — asyncio front end with API-key tenancy
   and per-tenant admission control.
"""

from repro.serve.aserver import (
    AsyncFrontEnd,
    Tenant,
    TenantQuota,
    TenantRegistry,
    derive_api_key,
)
from repro.serve.chaos import (
    FAULT_CLASSES,
    SERVE_FAULT_CLASSES,
    SNAPSHOT_FAULT_CLASSES,
    ChaosInjector,
    ChaosReport,
    FaultEvent,
    FaultPlan,
    SkewClock,
    baseline_digest,
    corrupt_snapshot_file,
    run_chaos,
    snapshot_corruption_trials,
)
from repro.serve.index import COMPLIANCE_PACKS, FACETS, TABLES, CorpusIndex
from repro.serve.loadgen import (
    DEFAULT_MIX,
    TIMEOUT,
    LoadReport,
    Outcome,
    WorkloadConfig,
    generate_workload,
    oracle_answers,
    run_load,
    run_tenants,
    zipf_weights,
)
from repro.serve.query import (
    AspectMentions,
    ComplianceScan,
    DomainLookup,
    FacetFilter,
    PredicateQuery,
    Query,
    QueryEngine,
    QueryResult,
    SectorAggregate,
    TableAggregate,
    TopDescriptors,
    query_fingerprint,
    query_kind,
    query_payload,
    validate_query,
)
from repro.serve.server import (
    ERROR,
    OK,
    OVERLOADED,
    AnnotationServer,
    ResultCache,
    ServeMetrics,
    ServeResponse,
    ServerConfig,
    SwapReport,
    WorkerCrash,
    percentile,
)
from repro.serve.shard import (
    SHARDED_SCHEMA_VERSION,
    ShardedEngine,
    ShardedSnapshot,
    engine_for,
    load_sharded_snapshot,
    merged_snapshot,
    partition_snapshot,
    shard_for_domain,
    write_sharded_snapshot,
)
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    CorpusSnapshot,
    build_snapshot,
    load_snapshot,
    snapshot_fingerprint,
    snapshot_from_cache,
    snapshot_from_result,
    write_snapshot,
)

__all__ = [
    "AsyncFrontEnd",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "derive_api_key",
    "SHARDED_SCHEMA_VERSION",
    "ShardedEngine",
    "ShardedSnapshot",
    "engine_for",
    "load_sharded_snapshot",
    "merged_snapshot",
    "partition_snapshot",
    "shard_for_domain",
    "write_sharded_snapshot",
    "FAULT_CLASSES",
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
    "SwapReport",
    "WorkerCrash",
    "COMPLIANCE_PACKS",
    "FACETS",
    "TABLES",
    "CorpusIndex",
    "DEFAULT_MIX",
    "TIMEOUT",
    "LoadReport",
    "Outcome",
    "WorkloadConfig",
    "generate_workload",
    "oracle_answers",
    "run_load",
    "run_tenants",
    "zipf_weights",
    "AspectMentions",
    "ComplianceScan",
    "DomainLookup",
    "FacetFilter",
    "PredicateQuery",
    "Query",
    "QueryEngine",
    "QueryResult",
    "SectorAggregate",
    "TableAggregate",
    "TopDescriptors",
    "query_fingerprint",
    "query_kind",
    "query_payload",
    "validate_query",
    "ERROR",
    "OK",
    "OVERLOADED",
    "AnnotationServer",
    "ResultCache",
    "ServeMetrics",
    "ServeResponse",
    "ServerConfig",
    "percentile",
    "SNAPSHOT_SCHEMA_VERSION",
    "CorpusSnapshot",
    "build_snapshot",
    "load_snapshot",
    "snapshot_fingerprint",
    "snapshot_from_cache",
    "snapshot_from_result",
    "write_snapshot",
]
