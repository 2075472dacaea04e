"""Sharded snapshots and the sharded query engine.

Horizontal structure for the serving layer: a :class:`CorpusSnapshot`
is partitioned by **domain hash** into N independently-loadable shards,
each of which builds its own :class:`~repro.serve.index.CorpusIndex`
(inverted indexes, atom posting lists, per-rule verdict rows). Only the
index *build* is split across shards; the query path is not:

- **Routing.** ``shard_for_domain`` is a stable SHA-256 placement (never
  Python's randomized ``hash``), so a domain's shard is a pure function
  of ``(domain, shard_count)`` — the same on every host, every process,
  every run. ``ShardedEngine.route`` names the one shard a
  ``DomainLookup`` reads, for per-shard traffic counters.
- **One merged index.** :class:`ShardedEngine` is a
  :class:`~repro.serve.query.QueryEngine` whose index is
  :meth:`CorpusIndex.merge` of its shard indexes, taken once at build
  time: equal field for field to ``CorpusIndex.build`` over the
  unsharded snapshot, so every query class runs through the one engine
  and its answers are byte-identical by construction.
- **Incremental rebuilds.** A shard index is a pure function of its
  shard's records, so a refreshed shard set adopts the previous
  engine's index for every shard whose content fingerprint is unchanged
  (``reuse_from``) and builds only the touched ones before the merge;
  a touched shard takes the compiled forms and verdict rows of the
  records the previous generation held from that generation's index,
  so only the patched records are compiled and evaluated.

The on-disk layout is a directory: a ``manifest.json`` naming the shard
files, their fingerprints, and the **global** corpus fingerprint, plus
one ordinary verified snapshot file per shard, named by its index and
content fingerprint (``shard-0003-<fingerprint>.snap.json``).
:func:`write_sharded_snapshot` is the one writer: it adds the shard
files not yet present, replaces the manifest last (the one commit
point), then deletes the files the manifest no longer names, so a crash
at any point leaves the previous generation or the new one.
:func:`verify_sharded` is the one verifier, for a load and an in-memory
refresh alike: shard fingerprints, the routing invariant (each domain
lives in its hash-assigned shard), and the recomputed global
fingerprint — a torn, reordered, or misassembled shard set is rejected,
never served.
"""

from __future__ import annotations

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


def shard_for_domain(domain: str, shards: int) -> int:
    """Stable shard placement: SHA-256 of the domain, mod shard count.

    Deliberately not Python's ``hash`` (randomized per process) — the
    placement must agree across hosts, restarts, and writers/readers of
    the same sharded directory.
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class ShardedSnapshot:
    """N per-shard snapshots plus the global corpus fingerprint.

    ``fingerprint`` is the fingerprint of the *unsharded* snapshot the
    shards were cut from — the content id query answers are keyed by —
    so re-sharding the same corpus at a different N never moves it.
    """

    shards: tuple[CorpusSnapshot, ...]
    fingerprint: str
    source: str = "records"
    provenance: dict = field(default_factory=dict)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def domain_count(self) -> int:
        return sum(s.domain_count() for s in self.shards)

    def records(self) -> list[DomainAnnotations]:
        """All records, in global canonical (domain-sorted) order."""
        return list(heapq.merge(*(s.records for s in self.shards),
                                key=_DOMAIN_KEY))


def partition_snapshot(snapshot: CorpusSnapshot,
                       shards: int) -> ShardedSnapshot:
    """Cut one snapshot into N hash-routed shard snapshots.

    Each shard is a full-fledged verified snapshot (its own fingerprint
    over its own records); shard provenance records the placement so a
    shard file found on disk is self-describing.
    """
    if shards < 1:
        raise SnapshotError(f"shard count must be >= 1, got {shards}")
    buckets: list[list[DomainAnnotations]] = [[] for _ in range(shards)]
    for record in snapshot.records:
        buckets[shard_for_domain(record.domain, shards)].append(record)
    shard_snapshots = tuple(
        build_snapshot(bucket, source=snapshot.source,
                       provenance={**snapshot.provenance,
                                   "shard": index, "shards": shards,
                                   "corpus_fingerprint":
                                       snapshot.fingerprint})
        for index, bucket in enumerate(buckets))
    return ShardedSnapshot(shards=shard_snapshots,
                           fingerprint=snapshot.fingerprint,
                           source=snapshot.source,
                           provenance=dict(snapshot.provenance))


def merged_snapshot(sharded: ShardedSnapshot) -> CorpusSnapshot:
    """Reassemble the single-index snapshot a shard set was cut from.

    The merged stream is already canonical (each shard is domain-sorted
    and deduplicated, and shards share no domain), and
    ``sharded.fingerprint`` is by construction its fingerprint, so
    nothing is re-serialized or re-hashed here.
    """
    return CorpusSnapshot(records=tuple(sharded.records()),
                          fingerprint=sharded.fingerprint,
                          source=sharded.source,
                          provenance=dict(sharded.provenance))


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
    (``shard-misrouted``) and the global fingerprint over the merged
    record stream (``fingerprint-mismatch``).
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
    sharded = ShardedSnapshot(
        shards=tuple(shards), fingerprint=str(manifest.get("fingerprint")),
        source=str(manifest.get("source", "records")),
        provenance=dict(manifest.get("provenance") or {}))
    # ``load_snapshot`` has just re-derived every shard's fingerprint.
    verify_sharded(sharded, shards=())
    return sharded


def verify_sharded(sharded: ShardedSnapshot, *, shards=None) -> None:
    """Re-verify a shard set: shard fingerprints, routing, global
    fingerprint.

    Re-derives the fingerprint of each selected shard (every shard by
    default; a refresh passes the shards it rebuilt, a load none, since
    each file was verified as it was read), checks that every record of
    every shard sits on the shard its domain hashes to, and re-derives
    the global fingerprint over the merged record stream. Reasons:
    ``shard-fingerprint-mismatch``, ``shard-misrouted`` and
    ``fingerprint-mismatch``.
    """
    count = len(sharded.shards)
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
    actual = snapshot_fingerprint(sharded.records())
    if actual != sharded.fingerprint:
        raise SnapshotError(
            f"sharded snapshot carries global fingerprint "
            f"{sharded.fingerprint[:12]}… but its merged records "
            f"fingerprint {actual[:12]}…", reason="fingerprint-mismatch")


# -- sharded engine -------------------------------------------------------


class ShardedEngine(QueryEngine):
    """A :class:`~repro.serve.query.QueryEngine` over a shard set.

    Each shard gets its own part index
    (:meth:`~repro.serve.index.CorpusIndex.build_part`, no tables);
    ``index`` is their :meth:`~repro.serve.index.CorpusIndex.merge`, a
    real ``CorpusIndex`` equal to one built over the unsharded snapshot,
    so ``execute`` is byte-identical to
    ``QueryEngine(CorpusIndex.build(snapshot)).execute`` for every query
    class — the differential suite and ``bench_serve_sharded`` hold it to
    that.

    ``reuse_from`` is the incremental-refresh seam: pass the engine built
    over the *previous* snapshot generation and any shard whose content
    fingerprint is unchanged adopts the old engine's already-built shard
    index instead of rebuilding it, and a rebuilt shard takes the forms
    and verdict rows of the records the old engine held (as the same
    objects) from its merged index. Safe because a shard index is a pure
    function of the shard snapshot's records (which determine its
    fingerprint), a form and its rows are pure functions of the frozen
    record, and all are read-only after build; ``reused_shards`` reports
    how many rebuilds were skipped. The new engine keeps no reference to
    ``reuse_from``, so a replaced generation is freed as soon as its last
    reader lets go.
    """

    def __init__(self, sharded: ShardedSnapshot,
                 reuse_from: "ShardedEngine | None" = None):
        reusable: dict[str, CorpusIndex] = {}
        previous = None
        if reuse_from is not None:
            previous = reuse_from.index
            for index in reuse_from.shard_indexes:
                reusable[index.snapshot.fingerprint] = index
        self.reused_shards = 0
        self.shard_indexes = []
        for shard in sharded.shards:
            cached = reusable.get(shard.fingerprint)
            if cached is not None:
                self.shard_indexes.append(cached)
                self.reused_shards += 1
            else:
                self.shard_indexes.append(
                    CorpusIndex.build_part(shard, previous))
        super().__init__(CorpusIndex.merge(self.shard_indexes,
                                           merged_snapshot(sharded)))

    @property
    def shard_count(self) -> int:
        return len(self.shard_indexes)

    def route(self, query: Query) -> int | None:
        """The one shard a domain lookup reads, or ``None`` for a query
        over the whole corpus."""
        if isinstance(query, DomainLookup):
            return shard_for_domain(query.domain, self.shard_count)
        return None


def engine_for(snapshot: "CorpusSnapshot | ShardedSnapshot",
               reuse_from: ShardedEngine | None = None):
    """Query engine for either snapshot shape; answers are byte-identical.

    ``reuse_from`` is passed to :class:`ShardedEngine` for a sharded
    snapshot (see its incremental-refresh seam).
    """
    if isinstance(snapshot, ShardedSnapshot):
        return ShardedEngine(snapshot, reuse_from=reuse_from)
    return QueryEngine(CorpusIndex.build(snapshot))


__all__ = [
    "MANIFEST_NAME",
    "SHARDED_SCHEMA_VERSION",
    "ShardedEngine",
    "ShardedSnapshot",
    "engine_for",
    "load_sharded_snapshot",
    "merged_snapshot",
    "partition_snapshot",
    "shard_for_domain",
    "verify_sharded",
    "write_sharded_snapshot",
]
