"""Immutable, versioned corpus snapshots — the serving layer's input.

A :class:`CorpusSnapshot` freezes a pipeline run's annotation records into
a single self-describing artifact that the query/serving layer can load
without re-running any pipeline stage. Design points:

- **Canonical layout.** Records are stored sorted by domain (first record
  wins for duplicate domains), so the snapshot's bytes are independent of
  corpus order, worker count, executor backend, and cache state — the
  same annotated corpus always snapshots to the same file.
- **Content fingerprinting.** ``fingerprint`` is the SHA-256 of the
  canonical record payload list — the digest
  :func:`repro._util.artifacts.content_digest` gives — streamed over each
  frozen record's canonical string, which is rendered once and kept on
  the record (:meth:`DomainAnnotations.canonical`), so a record a
  refresh carries over is never serialized again. :func:`load_snapshot`
  recomputes it over the records it decoded and verifies it, so a
  truncated or hand-edited snapshot is rejected instead of silently
  serving wrong answers.
- **Atomic writes.** :func:`write_snapshot` goes through temp-file +
  ``os.replace``; a crash mid-write never leaves a torn snapshot where a
  server could pick it up.
- **Three sources.** Build from a live :class:`PipelineResult`, from a
  plain record list (e.g. ``tests/golden/records.jsonl``), or straight
  out of a warm PR-3 ``--cache-dir`` without touching crawl/annotate code
  paths at all (:func:`snapshot_from_cache`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro._util.artifacts import write_json_atomic
from repro.errors import SnapshotError
from repro.pipeline.records import DomainAnnotations

#: Bump when the snapshot payload layout changes; old snapshots are then
#: rejected at load with an explicit error instead of misparsed.
SNAPSHOT_SCHEMA_VERSION = 1


def _canonical_records(records) -> tuple[DomainAnnotations, ...]:
    """Records sorted by domain, the first record of a domain winning."""
    by_domain: dict[str, DomainAnnotations] = {}
    for record in records:
        by_domain.setdefault(record.domain, record)
    return tuple(by_domain[domain] for domain in sorted(by_domain))


def _records_digest(records) -> str:
    """SHA-256 of the canonical JSON list of ``records``' payloads.

    Streamed over each record's memoized canonical string: a canonical
    JSON list renders as ``[`` + its items joined by ``,`` + ``]``, so
    this is ``content_digest`` of the payload list, and a record is
    rendered at most once however many fingerprints cover it.
    """
    digest = hashlib.sha256(b"[")
    separator = b""
    for record in records:
        digest.update(separator)
        digest.update(record.canonical().encode("utf-8"))
        separator = b","
    digest.update(b"]")
    return digest.hexdigest()


def snapshot_fingerprint(records: list[DomainAnnotations]) -> str:
    """Content fingerprint of a record set's canonical snapshot payload."""
    return _records_digest(_canonical_records(records))


@dataclass(frozen=True)
class CorpusSnapshot:
    """An immutable, content-fingerprinted view of an annotation corpus."""

    #: Records in canonical (domain-sorted, deduplicated) order.
    records: tuple[DomainAnnotations, ...]
    #: SHA-256 over the canonical record payloads.
    fingerprint: str
    #: Where the records came from (``pipeline-result`` / ``cache`` /
    #: ``records`` / the loaded file's recorded source).
    source: str = "records"
    #: Free-form provenance (corpus seed, fraction, options fingerprint).
    provenance: dict = field(default_factory=dict)

    def domain_count(self) -> int:
        return len(self.records)

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return dict(sorted(counts.items()))

    def to_payload(self) -> dict:
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "provenance": self.provenance,
            "domains": self.domain_count(),
            "statuses": self.status_counts(),
            "records": [json.loads(r.canonical()) for r in self.records],
        }


def build_snapshot(records: list[DomainAnnotations], *,
                   source: str = "records",
                   provenance: dict | None = None) -> CorpusSnapshot:
    """Put a record list in canonical order and fingerprint it.

    The snapshot holds the given (frozen) record objects themselves, so
    a record kept across snapshot generations is rendered once.
    """
    canonical = _canonical_records(records)
    return CorpusSnapshot(records=canonical,
                          fingerprint=_records_digest(canonical),
                          source=source,
                          provenance=dict(provenance or {}))


def snapshot_from_result(result, *, provenance: dict | None = None
                         ) -> CorpusSnapshot:
    """Snapshot a live :class:`~repro.pipeline.runner.PipelineResult`."""
    extra = {
        "prompt_tokens": result.prompt_tokens,
        "completion_tokens": result.completion_tokens,
    }
    extra.update(provenance or {})
    return build_snapshot(result.records, source="pipeline-result",
                          provenance=extra)


def snapshot_from_cache(corpus, options, cache, *,
                        domains: list[str] | None = None) -> CorpusSnapshot:
    """Snapshot straight out of a warm PR-3 cache, no pipeline run.

    Every domain must have a checkpointed records-layer entry for the
    exact ``(corpus, options)`` fingerprints; otherwise the cache is not
    warm for this configuration and a typed
    ``SnapshotError(reason="cold-cache")`` lists the missing domains
    rather than silently serving a partial corpus.
    """
    from repro.pipeline.cache import CacheKeys

    keys = CacheKeys(corpus, options)
    wanted = list(dict.fromkeys(domains if domains is not None
                                else corpus.domains))
    records: list[DomainAnnotations] = []
    missing: list[str] = []
    for domain in wanted:
        entry = cache.load_record(keys.record_key(domain))
        if entry is None:
            missing.append(domain)
        else:
            records.append(entry.record)
    if missing:
        shown = ", ".join(missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        raise SnapshotError(
            f"cache holds no records-layer entry for {len(missing)} of "
            f"{len(wanted)} domains: {shown}{more}; run the pipeline with "
            f"this cache directory first (same corpus seed/fraction and "
            f"options)", reason="cold-cache")
    return build_snapshot(records, source="cache", provenance={
        "options_fingerprint": keys.options_fp,
        "lexicon_fingerprint": keys.lexicon_fp,
    })


def write_snapshot(snapshot: CorpusSnapshot, path: str | Path) -> Path:
    """Write a snapshot atomically (compact JSON; safe for live readers)."""
    return write_json_atomic(path, snapshot.to_payload(), indent=None,
                             sort_keys=True)


def load_snapshot(path: str | Path) -> CorpusSnapshot:
    """Load and verify a snapshot written by :func:`write_snapshot`.

    Raises :class:`~repro.errors.SnapshotError` on unreadable files,
    schema mismatches, and — crucially — on any fingerprint mismatch
    between the stored records and the stored fingerprint. Each rejection
    carries a machine-readable corruption class in ``SnapshotError.reason``
    (``unreadable``, ``not-json``, ``not-object``, ``schema-mismatch``,
    ``missing-records``, ``malformed-record``, ``fingerprint-mismatch``)
    so the chaos harness can assert not just *that* a corrupted file was
    rejected but *how* the corruption was classified.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}",
                            reason="unreadable") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"snapshot {path} is not valid JSON: {exc}",
            reason="not-json") from exc
    if not isinstance(payload, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object",
                            reason="not-object")
    if payload.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot {path} has schema {payload.get('schema')!r}, "
            f"expected {SNAPSHOT_SCHEMA_VERSION}", reason="schema-mismatch")
    raw_records = payload.get("records")
    if not isinstance(raw_records, list):
        raise SnapshotError(f"snapshot {path} carries no record list",
                            reason="missing-records")
    try:
        records = tuple(DomainAnnotations.from_payload(r)
                        for r in raw_records)
    except (KeyError, TypeError) as exc:
        raise SnapshotError(
            f"snapshot {path} holds a malformed record: {exc}",
            reason="malformed-record") from exc
    # Over the decoded records, whose canonical strings stay memoized: a
    # key the decoder drops cannot ride along under the fingerprint.
    actual = _records_digest(records)
    stored = payload.get("fingerprint")
    if actual != stored:
        raise SnapshotError(
            f"snapshot {path} failed fingerprint verification: stored "
            f"{str(stored)[:12]}…, recomputed {actual[:12]}… — the file "
            f"was truncated or modified after writing",
            reason="fingerprint-mismatch")
    return CorpusSnapshot(records=records, fingerprint=actual,
                          source=str(payload.get("source", "records")),
                          provenance=dict(payload.get("provenance") or {}))


__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "CorpusSnapshot",
    "build_snapshot",
    "load_snapshot",
    "snapshot_fingerprint",
    "snapshot_from_cache",
    "snapshot_from_result",
    "write_snapshot",
]
