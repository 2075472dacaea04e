"""Incremental snapshot refresh: per-domain patches, shard-local rebuilds.

A watcher round produces a small :class:`RecordPatch` set; this module
applies it to a serving snapshot without rebuilding the world:

- :func:`apply_patches` edits a :class:`CorpusSnapshot` and
  re-canonicalizes through ``build_snapshot`` — the refreshed snapshot
  is *by construction* byte-identical to building from scratch over the
  same record set (same sort, same dedup, same fingerprint function).
- :func:`apply_patches_sharded` is that plain refresh re-cut. A
  :class:`~repro.serve.shard.ShardedSnapshot` is the snapshot it was cut
  from, so its records are patched as :func:`apply_patches` patches them
  (one canonical sort, one global fingerprint, no merge of the shards),
  then :func:`~repro.serve.shard.partition_snapshot` cuts the result
  with its own bucketing, building **only the shards the patches route
  to** and reusing every other shard as the same object. So the
  refreshed set's records and fingerprint are, by construction, those of
  ``apply_patches(sharded, patches)``, and each shard holds the records,
  so the fingerprint, that a from-scratch cut gives it. Every unchanged
  record passes on as the same object, so a
  downstream :class:`~repro.serve.shard.ShardedEngine` built with
  ``reuse_from`` patches its index with the changed records only.
  Records are frozen and keep their canonical strings, so each digest
  streams over strings already rendered — the global one once, each
  touched shard's once — and only the patched records are serialized,
  once each. Nothing is re-derived: the untouched shards were verified
  when first built or loaded, and a load still runs the full
  :func:`~repro.serve.shard.verify_sharded`. The disk half is
  :func:`~repro.serve.shard.write_sharded_snapshot`: shard files are
  content-named, so it writes only the touched shards' files and
  commits by replacing the manifest.
- :func:`refresh_differential` is the proof harness: the fingerprint
  re-derived from the incrementally refreshed snapshot's records, sharded
  or not, must equal the one it carries and that of a from-scratch
  ``snapshot_from_cache`` rebuild over the same warm cache.

Untouched shards keep the provenance they were originally cut with
(including a now-stale ``corpus_fingerprint`` note), and a shard file
already on disk is not rewritten for a provenance change; provenance is
free-form context, never verified content — the manifest carries the
authoritative global fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IngestError
from repro.pipeline.records import DomainAnnotations
from repro.serve.shard import (
    ShardedSnapshot,
    partition_snapshot,
    shard_for_domain,
    verify_sharded,
)
from repro.serve.snapshot import (
    CorpusSnapshot,
    build_snapshot,
    snapshot_fingerprint,
    snapshot_from_cache,
)

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


def _patched(snapshot: CorpusSnapshot, patches: list[RecordPatch],
             where) -> CorpusSnapshot:
    """``snapshot`` with ``patches`` applied, canonicalized and
    fingerprinted; ``where(domain)`` names the place a removed domain is
    missing from."""
    by_domain = {record.domain: record for record in snapshot.records}
    for patch in patches:
        if patch.op == "upsert":
            by_domain[patch.domain] = patch.record
        elif by_domain.pop(patch.domain, None) is None:
            raise IngestError(
                f"cannot remove {patch.domain!r}: not present in "
                f"{where(patch.domain)}")
    return build_snapshot(list(by_domain.values()), source=snapshot.source,
                          provenance=dict(snapshot.provenance))


def apply_patches(snapshot: CorpusSnapshot,
                  patches: list[RecordPatch]) -> CorpusSnapshot:
    """Apply a patch set to a plain snapshot; canonical by construction."""
    return _patched(snapshot, patches, lambda domain: "snapshot")


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
    """The plain refresh re-cut: patch the snapshot's records, rebuild
    only the shards the patches route to.

    ``sharded`` is patched, canonicalized and fingerprinted once, as
    :func:`apply_patches` patches a plain snapshot; ``partition_snapshot``
    then buckets the result and builds the touched shards, reusing every
    untouched shard snapshot as the same object. A removal of an absent
    domain raises an :class:`~repro.errors.IngestError` naming the
    domain's shard.
    """
    if not patches:
        return RefreshResult(sharded=sharded, touched=())
    count = sharded.shard_count
    touched = touched_shards(patches, count)
    refreshed = _patched(
        sharded, patches,
        lambda domain: f"shard {shard_for_domain(domain, count)}")
    kept = {index: shard for index, shard in enumerate(sharded.shards)
            if index not in touched}
    return RefreshResult(
        sharded=partition_snapshot(refreshed, count, reuse=kept),
        touched=tuple(touched))


def refresh_differential(corpus, options, cache, refreshed, *,
                         domains=None) -> dict:
    """The differential proof: incremental refresh ≡ from-scratch build.

    Rebuilds a snapshot straight from the warm cache (the ground truth a
    full pipeline re-run would checkpoint), re-derives the fingerprint of
    the incrementally refreshed snapshot's records (sharded or not), and
    compares both with the fingerprint it carries. Returns a JSON-ready
    verdict payload; ``identical`` is the acceptance bit.
    """
    rebuilt = snapshot_from_cache(corpus, options, cache, domains=domains)
    derived = snapshot_fingerprint(list(refreshed.records))
    return {
        "incremental_fingerprint": refreshed.fingerprint,
        "merged_fingerprint": derived,
        "rebuild_fingerprint": rebuilt.fingerprint,
        "identical": refreshed.fingerprint == derived == rebuilt.fingerprint,
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
