"""Incremental snapshot refresh: per-domain patches, shard-local rebuilds.

A watcher round produces a small :class:`RecordPatch` set; this module
applies it to a serving snapshot without rebuilding the world:

- :func:`apply_patches` edits a plain :class:`CorpusSnapshot` and
  re-canonicalizes through ``build_snapshot`` — the refreshed snapshot
  is *by construction* byte-identical to building from scratch over the
  same record set (same sort, same dedup, same fingerprint function).
- :func:`apply_patches_sharded` routes each patch to the shard owning
  its domain (``shard_for_domain``) and rebuilds **only touched shards**
  — their record tuples and fingerprints; untouched shard objects are
  reused identically (the same Python objects), and every unchanged
  record passes on as the same object, so a downstream
  :class:`~repro.serve.shard.ShardedEngine` built with ``reuse_from``
  patches its index with the changed records only. Records are frozen
  and keep their canonical strings, so every fingerprint below streams
  over strings already rendered and only the patched records are
  serialized, once each. The global fingerprint is recomputed over the
  merged stream and re-verified before anything is served or written:
  :func:`~repro.serve.shard.verify_sharded`, the same verifier a load
  runs, re-derives the touched shards' fingerprints, the routing
  invariant, and the global fingerprint. The disk half is
  :func:`~repro.serve.shard.write_sharded_snapshot`: shard files are
  content-named, so it writes only the touched shards' files and
  commits by replacing the manifest.
- :func:`refresh_differential` is the proof harness: the incrementally
  refreshed snapshot must fingerprint-equal a from-scratch
  ``snapshot_from_cache`` rebuild over the same warm cache.

Untouched shards keep the provenance they were originally cut with
(including a now-stale ``corpus_fingerprint`` note), and a shard file
already on disk is not rewritten for a provenance change; provenance is
free-form context, never verified content — the manifest carries the
authoritative global fingerprint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import IngestError
from repro.pipeline.records import DomainAnnotations
from repro.serve.shard import ShardedSnapshot, shard_for_domain, \
    verify_sharded
from repro.serve.snapshot import (
    CorpusSnapshot,
    build_snapshot,
    snapshot_fingerprint,
    snapshot_from_cache,
)

_DOMAIN_KEY = attrgetter("domain")

_PATCH_OPS = ("upsert", "remove")


@dataclass(frozen=True)
class RecordPatch:
    """One domain-level edit to a serving snapshot."""

    op: str  # "upsert" | "remove"
    domain: str
    record: DomainAnnotations | None = None

    def __post_init__(self) -> None:
        if self.op not in _PATCH_OPS:
            raise IngestError(
                f"unknown patch op {self.op!r}; expected one of "
                f"{_PATCH_OPS}")
        if not self.domain:
            raise IngestError("patch domain must be non-empty")
        if self.op == "upsert" and self.record is None:
            raise IngestError(
                f"upsert patch for {self.domain!r} carries no record")
        if self.op == "upsert" and self.record.domain != self.domain:
            raise IngestError(
                f"patch for {self.domain!r} carries a record for "
                f"{self.record.domain!r}")
        if self.op == "remove" and self.record is not None:
            raise IngestError(
                f"remove patch for {self.domain!r} must not carry a record")

    @classmethod
    def upsert(cls, domain: str,
               record: DomainAnnotations) -> "RecordPatch":
        return cls(op="upsert", domain=domain, record=record)

    @classmethod
    def remove(cls, domain: str) -> "RecordPatch":
        return cls(op="remove", domain=domain)


def _patched_records(records, patches,
                     context: str) -> list[DomainAnnotations]:
    by_domain = {record.domain: record for record in records}
    for patch in patches:
        if patch.op == "remove":
            if patch.domain not in by_domain:
                raise IngestError(
                    f"cannot remove {patch.domain!r}: not present in "
                    f"{context}")
            del by_domain[patch.domain]
        else:
            by_domain[patch.domain] = patch.record
    return list(by_domain.values())


def apply_patches(snapshot: CorpusSnapshot,
                  patches: list[RecordPatch]) -> CorpusSnapshot:
    """Apply a patch set to a plain snapshot; canonical by construction."""
    records = _patched_records(snapshot.records, patches, "snapshot")
    return build_snapshot(records, source=snapshot.source,
                          provenance=dict(snapshot.provenance))


@dataclass(frozen=True)
class RefreshResult:
    """An incrementally refreshed shard set + which shards were touched."""

    sharded: ShardedSnapshot
    touched: tuple[int, ...]

    @property
    def untouched(self) -> int:
        return len(self.sharded.shards) - len(self.touched)


def touched_shards(patches: list[RecordPatch],
                   shard_count: int) -> list[int]:
    """The sorted set of shard indexes a patch set lands on."""
    return sorted({shard_for_domain(p.domain, shard_count)
                   for p in patches})


def apply_patches_sharded(sharded: ShardedSnapshot,
                          patches: list[RecordPatch]) -> RefreshResult:
    """Patch only the shards owning the changed domains.

    Untouched shard snapshots are reused as the same objects; touched
    shards are rebuilt through ``build_snapshot``, which keeps the record
    objects (a carried-over record is not serialized again). The global
    fingerprint is recomputed over the merged record stream and the
    whole result is re-verified before being returned — a bad patch set
    raises instead of producing a servable-looking lie.
    """
    count = len(sharded.shards)
    if not patches:
        return RefreshResult(sharded=sharded, touched=())
    routed: dict[int, list[RecordPatch]] = {}
    for patch in patches:
        routed.setdefault(shard_for_domain(patch.domain, count),
                          []).append(patch)

    buckets: dict[int, list[DomainAnnotations]] = {}
    for index, shard_patches in routed.items():
        buckets[index] = _patched_records(
            sharded.shards[index].records, shard_patches,
            f"shard {index}")
    merged = list(heapq.merge(
        *(sorted(buckets[i], key=_DOMAIN_KEY) if i in buckets
          else sharded.shards[i].records for i in range(count)),
        key=_DOMAIN_KEY))
    fingerprint = snapshot_fingerprint(merged)

    shards = list(sharded.shards)
    for index, bucket in buckets.items():
        shards[index] = build_snapshot(
            bucket, source=sharded.source,
            provenance={**sharded.provenance, "shard": index,
                        "shards": count,
                        "corpus_fingerprint": fingerprint})
    refreshed = ShardedSnapshot(shards=tuple(shards),
                                fingerprint=fingerprint,
                                source=sharded.source,
                                provenance=dict(sharded.provenance))
    # Untouched shards were verified when they were first built/loaded
    # and are reused as the same objects, so only the touched shards'
    # fingerprints are re-derived; routing and the global fingerprint
    # are always checked over every shard.
    verify_sharded(refreshed, shards=sorted(routed))
    return RefreshResult(sharded=refreshed, touched=tuple(sorted(routed)))


def refresh_differential(corpus, options, cache, refreshed, *,
                         domains=None) -> dict:
    """The differential proof: incremental refresh ≡ from-scratch build.

    Rebuilds a snapshot straight from the warm cache (the ground truth a
    full pipeline re-run would checkpoint) and compares fingerprints with
    the incrementally refreshed snapshot — sharded sets are additionally
    checked through their merged record stream. Returns a JSON-ready
    verdict payload; ``identical`` is the acceptance bit.
    """
    rebuilt = snapshot_from_cache(corpus, options, cache, domains=domains)
    if isinstance(refreshed, ShardedSnapshot):
        incremental = refreshed.fingerprint
        merged = snapshot_fingerprint(refreshed.records())
    else:
        incremental = refreshed.fingerprint
        merged = incremental
    return {
        "incremental_fingerprint": incremental,
        "merged_fingerprint": merged,
        "rebuild_fingerprint": rebuilt.fingerprint,
        "identical": incremental == merged == rebuilt.fingerprint,
    }


__all__ = [
    "RecordPatch",
    "RefreshResult",
    "apply_patches",
    "apply_patches_sharded",
    "refresh_differential",
    "touched_shards",
    "verify_sharded",
]
