"""Continuous ingestion: incremental re-crawl, delta re-annotation, and
live snapshot refresh (DESIGN.md §15).

The bridge from batch reproduction to a system that stays current: a
deterministic watcher (:mod:`repro.ingest.scheduler`) re-crawls domains
on a policy against the simulated internet, two-tier change detection
skips unchanged domains entirely and re-annotates only genuinely changed
content through the PR-3 cache, the patch/refresh layer
(:mod:`repro.ingest.refresh`) rebuilds only the shards owning changed
domains — proven fingerprint-identical to a from-scratch build — and the
serving layer swaps the refreshed snapshot in atomically under load
(:mod:`repro.ingest.live` proves zero dropped, zero wrong-byte requests).
:mod:`repro.ingest.mutate` supplies the replayable simulated policy
changes that drive it all.
"""

from repro.ingest.live import SwapLoadReport, run_swap_load
from repro.ingest.mutate import (
    PolicyChangeFeed,
    mutable_domains,
    mutate_domain,
    touch_domain,
)
from repro.ingest.refresh import (
    RecordPatch,
    RefreshResult,
    apply_patches,
    apply_patches_sharded,
    refresh_differential,
    touched_shards,
    verify_sharded,
)
from repro.ingest.scheduler import (
    DomainState,
    IngestRound,
    IngestScheduler,
    SchedulePolicy,
    crawl_content_fingerprint,
)

__all__ = [
    "DomainState",
    "IngestRound",
    "IngestScheduler",
    "PolicyChangeFeed",
    "RecordPatch",
    "RefreshResult",
    "SchedulePolicy",
    "SwapLoadReport",
    "apply_patches",
    "apply_patches_sharded",
    "crawl_content_fingerprint",
    "mutable_domains",
    "mutate_domain",
    "refresh_differential",
    "run_swap_load",
    "touch_domain",
    "touched_shards",
    "verify_sharded",
]
