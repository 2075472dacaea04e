"""Sharded snapshots and the sharded query engine.

Horizontal structure for the serving layer: a :class:`CorpusSnapshot`
is partitioned by **domain hash** into N independently-loadable shards.
A :class:`ShardedSnapshot` *is* the snapshot it was cut from — a
:class:`CorpusSnapshot` subclass holding its records, fingerprint,
source and provenance — plus the shard snapshots, so every reader of a
snapshot reads a shard set as it is. Shards are the unit of files,
refresh and verification; they are only a storage layout for serving,
which indexes the snapshot's records once:

- **Routing.** ``shard_for_domain`` is a stable SHA-256 placement (never
  Python's randomized ``hash``), so a domain's shard is a pure function
  of ``(domain, shard_count)`` — the same on every host, every process,
  every run — and is memoized, so a domain is hashed once per shard
  count, not once per lookup. ``ShardedEngine.route`` names the one
  shard a ``DomainLookup`` reads, for per-shard traffic counters.
- **One index.** :class:`ShardedEngine` is a
  :class:`~repro.serve.query.QueryEngine` over one
  :class:`~repro.serve.index.CorpusIndex` of the snapshot's records, so
  every query class runs through the one engine and its answers are
  byte-identical to the unsharded engine by construction.
- **Patched swaps.** Given the previous generation's engine
  (``reuse_from``), the index is
  :meth:`~repro.serve.index.CorpusIndex.patched` from that engine's
  index: only the records that changed are re-indexed, compiled and
  rule-checked, whichever shards they sit on.

The on-disk layout is a directory: a ``manifest.json`` naming the shard
files, their fingerprints, and the **global** corpus fingerprint, plus
one ordinary verified snapshot file per shard, named by its index and
content fingerprint (``shard-0003-<fingerprint>.snap.json``).
:func:`write_sharded_snapshot` is the one writer: it adds the shard
files not yet present, replaces the manifest last (the one commit
point), then deletes the files the manifest no longer names, so a crash
at any point leaves the previous generation or the new one.
:func:`load_sharded_snapshot` rebuilds the snapshot's records by the
one k-way merge of the shards, and :func:`verify_sharded` is the one
verifier, which every load runs: shard fingerprints, the routing
invariant (each domain lives in its hash-assigned shard), that the
shards hold exactly the snapshot's records, and the recomputed global
fingerprint — a torn, reordered, or misassembled shard set is rejected,
never served. An in-memory refresh merges and re-derives nothing: it is
the plain refresh re-cut by :func:`partition_snapshot`
(:mod:`repro.ingest.refresh`).
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from repro._util.artifacts import write_json_atomic
from repro.errors import SnapshotError
from repro.pipeline.records import DomainAnnotations
from repro.serve.index import CorpusIndex
from repro.serve.query import DomainLookup, Query, QueryEngine
from repro.serve.snapshot import (
    CorpusSnapshot,
    build_snapshot,
    load_snapshot,
    snapshot_fingerprint,
    write_snapshot,
)

#: Bump when the sharded directory layout changes.
SHARDED_SCHEMA_VERSION = 1

#: Manifest filename inside a sharded snapshot directory.
MANIFEST_NAME = "manifest.json"

_DOMAIN_KEY = attrgetter("domain")


@functools.lru_cache(maxsize=1 << 14)
def shard_for_domain(domain: str, shards: int) -> int:
    """Stable shard placement: SHA-256 of the domain, mod shard count.

    Deliberately not Python's ``hash`` (randomized per process) — the
    placement must agree across hosts, restarts, and writers/readers of
    the same sharded directory. A pure function of its arguments, so
    memoized (bounded): the partitioner, the verifier and each routed
    lookup share one hash per domain and shard count.
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class ShardedSnapshot(CorpusSnapshot):
    """A snapshot together with the N per-shard snapshots cut from it.

    It *is* the snapshot the shards were cut from: its records, its
    ``fingerprint`` (the content id query answers are keyed by, so
    re-sharding the same corpus at a different N never moves it), its
    source and provenance. Every reader of a :class:`CorpusSnapshot`
    reads a shard set as it is; only ``shards`` is added.
    """

    shards: tuple[CorpusSnapshot, ...] = field(kw_only=True)

    @property
    def shard_count(self) -> int:
        return len(self.shards)


def _buckets(records, shards: int) -> list[list[DomainAnnotations]]:
    """``records`` grouped by the shard each domain hashes to, in order."""
    buckets: list[list[DomainAnnotations]] = [[] for _ in range(shards)]
    for record in records:
        buckets[shard_for_domain(record.domain, shards)].append(record)
    return buckets


def partition_snapshot(snapshot: CorpusSnapshot, shards: int, *,
                       reuse: dict[int, CorpusSnapshot] | None = None
                       ) -> ShardedSnapshot:
    """Cut one snapshot into N hash-routed shard snapshots.

    The result keeps ``snapshot``'s records tuple, fingerprint, source
    and provenance. Each shard is a full-fledged verified snapshot (its
    own fingerprint over its own records); shard provenance records the
    placement so a shard file found on disk is self-describing. ``reuse``
    maps shard indexes to shard snapshots that already hold the records
    ``snapshot`` routes there; those are kept as the same objects, not
    built again (a delta refresh passes the shards its patches do not
    touch).
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    reuse = reuse or {}
    shard_snapshots = tuple(
        reuse[index] if index in reuse else
        build_snapshot(bucket, source=snapshot.source,
                       provenance={**snapshot.provenance,
                                   "shard": index, "shards": shards,
                                   "corpus_fingerprint":
                                       snapshot.fingerprint})
        for index, bucket in enumerate(_buckets(snapshot.records, shards)))
    return ShardedSnapshot(records=snapshot.records,
                           fingerprint=snapshot.fingerprint,
                           source=snapshot.source,
                           provenance=dict(snapshot.provenance),
                           shards=shard_snapshots)


# -- disk layout ---------------------------------------------------------


def _shard_filename(index: int, fingerprint: str) -> str:
    return f"shard-{index:04d}-{fingerprint}.snap.json"


def write_sharded_snapshot(sharded: ShardedSnapshot,
                           directory: str | Path) -> list[str]:
    """Write a shard set into ``directory``; the manifest is the commit.

    The one sharded writer, for a new directory, a re-partition and a
    delta refresh alike. A shard file is named by its index and content
    fingerprint, so no write ever replaces a file the current manifest
    names: the shard files not already present are written first, the
    manifest is replaced last (atomically — the one commit point), and
    only then are the shard files the new manifest does not name deleted.
    A crash at any point leaves a directory that loads as the previous
    generation or the new one. Returns the shard file names written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    files = []
    for index, shard in enumerate(sharded.shards):
        name = _shard_filename(index, shard.fingerprint)
        if not (directory / name).exists():
            write_snapshot(shard, directory / name)
            written.append(name)
        files.append({"file": name, "fingerprint": shard.fingerprint,
                      "domains": shard.domain_count()})
    manifest = {
        "schema": SHARDED_SCHEMA_VERSION,
        "fingerprint": sharded.fingerprint,
        "shards": sharded.shard_count,
        "source": sharded.source,
        "provenance": sharded.provenance,
        "domains": sharded.domain_count(),
        "files": files,
    }
    write_json_atomic(directory / MANIFEST_NAME, manifest, indent=None,
                      sort_keys=True)
    named = {entry["file"] for entry in files}
    for path in directory.glob("shard-*.snap.json"):
        if path.name not in named:
            path.unlink()
    return written


def load_sharded_snapshot(directory: str | Path) -> ShardedSnapshot:
    """Load and fully re-verify a sharded snapshot directory.

    Follows the manifest's file names, so a directory of any writer
    version with this schema loads. Every rejection is a
    :class:`~repro.errors.SnapshotError` with a machine-readable reason:
    the manifest itself (``unreadable``/``not-json``/``not-object``/
    ``schema-mismatch``/``missing-shards``), each shard file (all the
    single-snapshot reasons, plus ``shard-fingerprint-mismatch`` against
    the manifest), then :func:`verify_sharded` for the routing invariant
    (``shard-misrouted``) and the global fingerprint
    (``fingerprint-mismatch``) over the snapshot's records, which are the
    k-way merge of the shards' records.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(
            f"cannot read sharded manifest {manifest_path}: {exc}",
            reason="unreadable") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"sharded manifest {manifest_path} is not valid JSON: {exc}",
            reason="not-json") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(
            f"sharded manifest {manifest_path} is not a JSON object",
            reason="not-object")
    if manifest.get("schema") != SHARDED_SCHEMA_VERSION:
        raise SnapshotError(
            f"sharded manifest {manifest_path} has schema "
            f"{manifest.get('schema')!r}, expected "
            f"{SHARDED_SCHEMA_VERSION}", reason="schema-mismatch")
    files = manifest.get("files")
    count = manifest.get("shards")
    if not isinstance(files, list) or not files \
            or not isinstance(count, int) or len(files) != count:
        raise SnapshotError(
            f"sharded manifest {manifest_path} names "
            f"{len(files) if isinstance(files, list) else 'no'} shard "
            f"files but declares shards={count!r}",
            reason="missing-shards")

    shards: list[CorpusSnapshot] = []
    for index, entry in enumerate(files):
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("file"), str):
            raise SnapshotError(
                f"sharded manifest {manifest_path} entry {index} names "
                f"no shard file", reason="missing-shards")
        shard = load_snapshot(directory / entry["file"])
        if shard.fingerprint != entry.get("fingerprint"):
            raise SnapshotError(
                f"shard {index} ({entry['file']}) fingerprints "
                f"{shard.fingerprint[:12]}…, manifest expected "
                f"{str(entry.get('fingerprint'))[:12]}…",
                reason="shard-fingerprint-mismatch")
        shards.append(shard)
    # The one k-way merge: each shard is domain-sorted, and shards that
    # pass the routing check share no domain.
    sharded = ShardedSnapshot(
        records=tuple(heapq.merge(*(s.records for s in shards),
                                  key=_DOMAIN_KEY)),
        fingerprint=str(manifest.get("fingerprint")),
        source=str(manifest.get("source", "records")),
        provenance=dict(manifest.get("provenance") or {}),
        shards=tuple(shards))
    # ``load_snapshot`` has just re-derived every shard's fingerprint.
    verify_sharded(sharded, shards=())
    return sharded


def verify_sharded(sharded: ShardedSnapshot, *, shards=None) -> None:
    """Re-verify a shard set: shard fingerprints, routing, the records
    the shards hold, global fingerprint.

    Re-derives the fingerprint of each selected shard (every shard by
    default; a load passes none, since each file was verified as it was
    read), checks that every record of every shard sits on the shard its
    domain hashes to and that the shards hold exactly the snapshot's
    records, and re-derives the global fingerprint over those records.
    Reasons: ``shard-fingerprint-mismatch``, ``shard-misrouted``,
    ``shard-records-mismatch`` and ``fingerprint-mismatch``.
    """
    count = sharded.shard_count
    selected = range(count) if shards is None else sorted(set(shards))
    for index in selected:
        shard = sharded.shards[index]
        actual = snapshot_fingerprint(list(shard.records))
        if actual != shard.fingerprint:
            raise SnapshotError(
                f"shard {index} fingerprints {actual[:12]}…, carries "
                f"{shard.fingerprint[:12]}…",
                reason="shard-fingerprint-mismatch")
    for index, shard in enumerate(sharded.shards):
        for record in shard.records:
            assigned = shard_for_domain(record.domain, count)
            if assigned != index:
                raise SnapshotError(
                    f"domain {record.domain!r} sits in shard {index} but "
                    f"hashes to shard {assigned} of {count} — the shard "
                    f"set was misassembled or cut at a different shard "
                    f"count", reason="shard-misrouted")
    for index, (shard, bucket) in enumerate(
            zip(sharded.shards, _buckets(sharded.records, count))):
        if shard.records != tuple(bucket):
            raise SnapshotError(
                f"shard {index} does not hold the records the snapshot "
                f"routes to it ({shard.domain_count()} held, "
                f"{len(bucket)} routed) — the shards were cut from other "
                f"records", reason="shard-records-mismatch")
    actual = snapshot_fingerprint(list(sharded.records))
    if actual != sharded.fingerprint:
        raise SnapshotError(
            f"sharded snapshot carries global fingerprint "
            f"{sharded.fingerprint[:12]}… but its records fingerprint "
            f"{actual[:12]}…", reason="fingerprint-mismatch")


# -- sharded engine -------------------------------------------------------


class ShardedEngine(QueryEngine):
    """A :class:`~repro.serve.query.QueryEngine` over a shard set.

    ``index`` is one :class:`~repro.serve.index.CorpusIndex` over the
    snapshot's records, so ``execute`` is byte-identical to
    ``QueryEngine(CorpusIndex.build(sharded)).execute`` for every query
    class — the differential suite and ``bench_serve_sharded`` hold it to
    that. The shards add the routed-shard counters and ``reused_shards``.

    ``reuse_from`` is the live-swap seam: pass the engine serving the
    *previous* generation (sharded or not) and the index is patched from
    its index instead of built (:meth:`CorpusIndex.patched`), so only the
    records that changed are re-indexed. ``reused_shards`` counts the
    shards whose content fingerprint the previous engine also served.
    The new engine keeps no reference to ``reuse_from``, so a replaced
    generation is freed as soon as its last reader lets go.
    """

    def __init__(self, sharded: ShardedSnapshot,
                 reuse_from: "QueryEngine | None" = None):
        self.shard_fingerprints = [s.fingerprint for s in sharded.shards]
        served = set(getattr(reuse_from, "shard_fingerprints", ()))
        self.reused_shards = sum(f in served for f in self.shard_fingerprints)
        super().__init__(CorpusIndex.patched(
            reuse_from and reuse_from.index, sharded))

    @property
    def shard_count(self) -> int:
        return len(self.shard_fingerprints)

    def route(self, query: Query) -> int | None:
        """The one shard a domain lookup reads, or ``None`` for a query
        over the whole corpus."""
        if isinstance(query, DomainLookup):
            return shard_for_domain(query.domain, self.shard_count)
        return None


__all__ = [
    "MANIFEST_NAME",
    "SHARDED_SCHEMA_VERSION",
    "ShardedEngine",
    "ShardedSnapshot",
    "load_sharded_snapshot",
    "partition_snapshot",
    "shard_for_domain",
    "verify_sharded",
    "write_sharded_snapshot",
]
