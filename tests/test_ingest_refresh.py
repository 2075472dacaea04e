"""Patch/refresh layer: canonical patches, shard-local rebuilds, disk delta."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import IngestError, SnapshotError
from repro.ingest import (
    RecordPatch,
    apply_patches,
    apply_patches_sharded,
    touched_shards,
    verify_sharded,
)
from repro.pipeline.records import DomainAnnotations, TypeAnnotation
from repro.serve import (
    DomainLookup,
    SectorAggregate,
    ShardedEngine,
    ShardedSnapshot,
    build_snapshot,
    load_sharded_snapshot,
    partition_snapshot,
    shard_for_domain,
    write_sharded_snapshot,
)


def _record(domain: str, verbatim: str = "verbatim") -> DomainAnnotations:
    return DomainAnnotations(
        domain=domain, sector="FI", status="annotated",
        types=[TypeAnnotation(category="Contact information",
                              meta_category="Personal identifiers",
                              descriptor="email address",
                              verbatim=verbatim, line=1)])


def _snapshot(n=12):
    return build_snapshot([_record(f"site{i}.com") for i in range(n)])


def _manifest_files(directory) -> list[str]:
    """The shard file names a sharded directory's manifest lists."""
    manifest = json.loads((directory / "manifest.json").read_text())
    return [entry["file"] for entry in manifest["files"]]


class TestRecordPatch:
    def test_validation(self):
        record = _record("site0.com")
        with pytest.raises(IngestError):
            RecordPatch(op="replace", domain="site0.com")
        with pytest.raises(IngestError):
            RecordPatch(op="upsert", domain="", record=record)
        with pytest.raises(IngestError):
            RecordPatch(op="upsert", domain="site0.com")  # no record
        with pytest.raises(IngestError):
            RecordPatch.upsert("other.com", record)  # domain mismatch
        with pytest.raises(IngestError):
            RecordPatch(op="remove", domain="site0.com", record=record)

    def test_classmethods(self):
        record = _record("site0.com")
        assert RecordPatch.upsert("site0.com", record).op == "upsert"
        assert RecordPatch.remove("site0.com").record is None


class TestApplyPatches:
    def test_upsert_new_equals_from_scratch(self):
        snapshot = _snapshot(6)
        extra = _record("zzz-new.com")
        patched = apply_patches(snapshot,
                                [RecordPatch.upsert("zzz-new.com", extra)])
        scratch = build_snapshot(list(snapshot.records) + [extra])
        assert patched.fingerprint == scratch.fingerprint
        assert patched.records == scratch.records

    def test_upsert_replace_and_remove(self):
        snapshot = _snapshot(6)
        updated = _record("site2.com", verbatim="rewritten policy")
        patched = apply_patches(snapshot, [
            RecordPatch.upsert("site2.com", updated),
            RecordPatch.remove("site4.com"),
        ])
        domains = [r.domain for r in patched.records]
        assert "site4.com" not in domains
        by_domain = {r.domain: r for r in patched.records}
        assert by_domain["site2.com"].types[0].verbatim == \
            "rewritten policy"
        assert patched.fingerprint != snapshot.fingerprint

    def test_remove_missing_raises(self):
        with pytest.raises(IngestError, match="not present"):
            apply_patches(_snapshot(4),
                          [RecordPatch.remove("never-was.com")])

    def test_empty_patchset_is_identity(self):
        snapshot = _snapshot(5)
        assert apply_patches(snapshot, []).fingerprint == \
            snapshot.fingerprint


class TestApplyPatchesSharded:
    def _patches(self):
        return [
            RecordPatch.upsert("site1.com",
                               _record("site1.com", verbatim="edited")),
            RecordPatch.remove("site5.com"),
            RecordPatch.upsert("fresh.example",
                               _record("fresh.example")),
        ]

    def test_touches_only_owning_shards(self):
        sharded = partition_snapshot(_snapshot(12), 4)
        patches = self._patches()
        result = apply_patches_sharded(sharded, patches)
        assert list(result.touched) == touched_shards(patches, 4)
        for i, shard in enumerate(result.sharded.shards):
            if i in result.touched:
                assert shard is not sharded.shards[i]
            else:
                assert shard is sharded.shards[i]
        assert result.untouched == 4 - len(result.touched)

    def test_merged_equals_plain_apply(self):
        snapshot = _snapshot(12)
        sharded = partition_snapshot(snapshot, 4)
        patches = self._patches()
        result = apply_patches_sharded(sharded, patches)
        plain = apply_patches(snapshot, patches)
        assert result.sharded.fingerprint == plain.fingerprint
        assert result.sharded.records() == list(plain.records)
        scratch = partition_snapshot(plain, 4)
        assert [s.fingerprint for s in result.sharded.shards] == \
            [s.fingerprint for s in scratch.shards]

    def test_empty_patchset_returns_same_object(self):
        sharded = partition_snapshot(_snapshot(8), 3)
        result = apply_patches_sharded(sharded, [])
        assert result.sharded is sharded
        assert result.touched == ()

    def test_remove_missing_names_shard(self):
        sharded = partition_snapshot(_snapshot(8), 3)
        missing = "never-was.com"
        with pytest.raises(IngestError, match="shard"):
            apply_patches_sharded(sharded, [RecordPatch.remove(missing)])


class TestVerifySharded:
    def test_clean_set_passes(self):
        verify_sharded(partition_snapshot(_snapshot(10), 3))

    def test_global_fingerprint_lie_detected(self):
        sharded = partition_snapshot(_snapshot(10), 3)
        bad = dataclasses.replace(sharded, fingerprint="0" * 64)
        with pytest.raises(SnapshotError) as excinfo:
            verify_sharded(bad)
        assert excinfo.value.reason == "fingerprint-mismatch"

    def test_shard_fingerprint_lie_detected(self):
        sharded = partition_snapshot(_snapshot(10), 3)
        lying = dataclasses.replace(sharded.shards[1],
                                    fingerprint="f" * 64)
        bad = dataclasses.replace(
            sharded, shards=(sharded.shards[0], lying) + sharded.shards[2:])
        with pytest.raises(SnapshotError) as excinfo:
            verify_sharded(bad)
        assert excinfo.value.reason == "shard-fingerprint-mismatch"

    def test_misrouted_record_detected(self):
        sharded = partition_snapshot(_snapshot(10), 3)
        stray = next(r for r in sharded.shards[1].records
                     if shard_for_domain(r.domain, 3) == 1)
        moved = build_snapshot(list(sharded.shards[0].records) + [stray])
        bad = ShardedSnapshot(
            shards=(moved,) + sharded.shards[1:],
            fingerprint=sharded.fingerprint)
        with pytest.raises(SnapshotError) as excinfo:
            verify_sharded(bad)
        assert excinfo.value.reason == "shard-misrouted"

    def test_scoped_verify_skips_unselected_shards(self):
        sharded = partition_snapshot(_snapshot(10), 3)
        lying = dataclasses.replace(sharded.shards[0],
                                    fingerprint="f" * 64)
        bad = dataclasses.replace(sharded,
                                  shards=(lying,) + sharded.shards[1:])
        verify_sharded(bad, shards=[1, 2])  # shard 0's lie not inspected
        with pytest.raises(SnapshotError):
            verify_sharded(bad, shards=[0])


class TestWriteShardedRefresh:
    def test_rewrites_only_touched_files(self, tmp_path):
        sharded = partition_snapshot(_snapshot(12), 4)
        directory = tmp_path / "serving"
        write_sharded_snapshot(sharded, directory)
        before = _manifest_files(directory)
        stamps = {name: (directory / name).read_bytes() for name in before}

        result = apply_patches_sharded(sharded, [
            RecordPatch.upsert("site1.com",
                               _record("site1.com", verbatim="edited"))])
        written = write_sharded_snapshot(result.sharded, directory)
        after = _manifest_files(directory)
        assert written == [after[i] for i in result.touched]
        for index, name in enumerate(before):
            if index in result.touched:
                assert after[index] != name
                assert not (directory / name).exists()
            else:
                assert after[index] == name
                assert (directory / name).read_bytes() == stamps[name]

    def test_refreshed_directory_loads_and_verifies(self, tmp_path):
        sharded = partition_snapshot(_snapshot(12), 4)
        directory = tmp_path / "serving"
        write_sharded_snapshot(sharded, directory)
        result = apply_patches_sharded(sharded, [
            RecordPatch.remove("site3.com"),
            RecordPatch.upsert("added.example", _record("added.example")),
        ])
        write_sharded_snapshot(result.sharded, directory)
        loaded = load_sharded_snapshot(directory)
        assert loaded.fingerprint == result.sharded.fingerprint
        assert loaded.records() == result.sharded.records()

    def test_cold_directory_writes_everything(self, tmp_path):
        sharded = partition_snapshot(_snapshot(8), 3)
        written = write_sharded_snapshot(sharded, tmp_path / "fresh")
        assert written == _manifest_files(tmp_path / "fresh")
        assert len(written) == 3
        loaded = load_sharded_snapshot(tmp_path / "fresh")
        assert loaded.fingerprint == sharded.fingerprint


class TestShardedEngineReuse:
    def test_reused_indexes_answer_byte_identically(self):
        sharded = partition_snapshot(_snapshot(12), 4)
        engine = ShardedEngine(sharded)
        result = apply_patches_sharded(sharded, [
            RecordPatch.upsert("site1.com",
                               _record("site1.com", verbatim="edited"))])
        reusing = ShardedEngine(result.sharded, reuse_from=engine)
        fresh = ShardedEngine(result.sharded)
        assert reusing.reused_shards == 4 - len(result.touched)
        queries = [DomainLookup(domain=f"site{i}.com") for i in range(12)]
        queries += [DomainLookup(domain="fresh.example"),
                    SectorAggregate(sector="FI")]
        for query in queries:
            assert reusing.execute(query).to_json() == \
                fresh.execute(query).to_json()

    def test_reuse_from_unrelated_engine_rebuilds(self):
        """Unchanged shards are counted by content fingerprint: only
        shards with equal content (here, at most empty ones) count, and
        the index patched from an unrelated engine answers as a fresh
        one."""
        sharded = partition_snapshot(_snapshot(12), 4)
        other_sharded = partition_snapshot(_snapshot(5), 4)
        other = ShardedEngine(other_sharded)
        engine = ShardedEngine(sharded, reuse_from=other)
        reusable = sum(
            1 for mine, theirs in zip(sharded.shards, other_sharded.shards)
            if mine.fingerprint == theirs.fingerprint)
        assert engine.reused_shards == reusable
        fresh = ShardedEngine(sharded)
        for i in range(12):
            query = DomainLookup(domain=f"site{i}.com")
            assert engine.execute(query).to_json() == \
                fresh.execute(query).to_json()
