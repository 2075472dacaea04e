"""Sharded serving: routing, round trips, one-index byte-identity.

The differential suite is the contract: for every query class, a
sharded deployment's responses must be byte-identical to the
single-index :class:`QueryEngine` — across shard counts, record order,
disk round trips, cold and warm caches, and under chaos fire.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import weakref
from pathlib import Path

import pytest

import repro.serve.shard as shard_mod
from repro.compliance.oracle import random_predicate
from repro.errors import SnapshotError
from repro.ingest import RecordPatch, apply_patches_sharded
from repro.pipeline.records import DomainAnnotations, HandlingAnnotation, \
    TypeAnnotation, read_jsonl
from repro.serve import (
    AnnotationServer,
    AspectMentions,
    ComplianceScan,
    CorpusIndex,
    CorpusSnapshot,
    DomainLookup,
    FacetFilter,
    FaultPlan,
    PredicateQuery,
    QueryEngine,
    SectorAggregate,
    ServerConfig,
    ShardedEngine,
    TableAggregate,
    TopDescriptors,
    WorkloadConfig,
    build_snapshot,
    load_sharded_snapshot,
    load_snapshot,
    partition_snapshot,
    run_chaos,
    shard_for_domain,
    write_sharded_snapshot,
    write_snapshot,
)

GOLDEN_RECORDS = Path(__file__).parent / "golden" / "records.jsonl"

SHARD_COUNTS = (1, 2, 4, 7)


def _shard_paths(directory):
    """The shard files a sharded directory's manifest names, in order."""
    manifest = json.loads((directory / "manifest.json").read_text())
    return [directory / entry["file"] for entry in manifest["files"]]


def _snapshot(n=10):
    records = [
        DomainAnnotations(
            domain=f"site{i}.com", sector="FI" if i % 2 else "HC",
            status="annotated",
            types=[TypeAnnotation(category="Contact information",
                                  meta_category="Personal identifiers",
                                  descriptor=f"descriptor-{i % 3}",
                                  verbatim=f"verbatim {i}", line=i + 1)],
            handling=[HandlingAnnotation(group="Data retention",
                                         label="retention-period",
                                         verbatim=f"retained {i}",
                                         line=i + 2)])
        for i in range(n)
    ]
    return build_snapshot(records)


@pytest.fixture(scope="module")
def golden_snapshot():
    if not GOLDEN_RECORDS.exists():
        pytest.fail("tests/golden/records.jsonl missing")
    return build_snapshot(read_jsonl(GOLDEN_RECORDS), source="golden")


def _probe_queries(snapshot, index):
    """Every query class, including seeded random predicates."""
    domains = sorted(r.domain for r in snapshot.records)
    sectors = sorted({r.sector for r in snapshot.records})
    probes = [DomainLookup(domain=d) for d in domains]
    probes.append(DomainLookup(domain="missing.invalid"))
    probes += [
        FacetFilter(facet="types", status="annotated"),
        FacetFilter(facet="purposes", sector=sectors[0]),
        FacetFilter(facet="labels", category="Data retention"),
        SectorAggregate(sector=sectors[0]),
        SectorAggregate(sector="no-such-sector"),
        TopDescriptors(facet="types", k=10),
        TopDescriptors(facet="labels", k=5, sector=sectors[-1]),
        AspectMentions(aspect="types", limit=7),
        AspectMentions(aspect="handling", limit=25),
        ComplianceScan(pack="gdpr"),
        ComplianceScan(pack="ccpa"),
        ComplianceScan(pack="gdpr", sector=sectors[0]),
    ]
    probes += [TableAggregate(table=t)
               for t in ("table1", "table2a", "table2b", "table3",
                         "summary")]
    atom_pool = [atom for aspect in sorted(index.atoms_by_aspect)
                 for atom in index.atoms_by_aspect[aspect]]
    rng = random.Random(23)
    probes += [PredicateQuery.from_predicate(
        random_predicate(rng, atom_pool), evidence=i % 3 == 0)
        for i in range(15)]
    return probes


class TestShardRouting:
    def test_routing_is_stable_and_covers_all_shards(self):
        domains = [f"site{i}.com" for i in range(200)]
        for n in (2, 4, 7):
            placed = {shard_for_domain(d, n) for d in domains}
            assert placed == set(range(n))
            again = [shard_for_domain(d, n) for d in domains]
            assert again == [shard_for_domain(d, n) for d in domains]

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(SnapshotError):
            shard_for_domain("a.com", 0)
        with pytest.raises(SnapshotError):
            partition_snapshot(_snapshot(), 0)


class TestPartition:
    def test_partition_preserves_domains_and_fingerprint(self):
        snapshot = _snapshot()
        sharded = partition_snapshot(snapshot, 3)
        assert sharded.shard_count == 3
        assert sharded.fingerprint == snapshot.fingerprint
        assert sharded.domain_count() == snapshot.domain_count()
        # The shard set is the snapshot it was cut from, field by field:
        # records, fingerprint, source and provenance.
        assert isinstance(sharded, CorpusSnapshot)
        for field in dataclasses.fields(CorpusSnapshot):
            assert getattr(sharded, field.name) == \
                getattr(snapshot, field.name), field.name
        assert sharded.records is snapshot.records

    def test_every_record_lands_on_its_hash_shard(self):
        sharded = partition_snapshot(_snapshot(), 4)
        for i, shard in enumerate(sharded.shards):
            for record in shard.records:
                assert shard_for_domain(record.domain, 4) == i

    def test_empty_shards_are_allowed(self):
        # More shards than domains guarantees at least one empty shard.
        sharded = partition_snapshot(_snapshot(3), 7)
        assert sharded.shard_count == 7
        assert sharded.domain_count() == 3


class TestShardedDisk:
    def test_round_trip(self, tmp_path):
        snapshot = _snapshot()
        sharded = partition_snapshot(snapshot, 3)
        directory = tmp_path / "corpus.sharded"
        write_sharded_snapshot(sharded, directory)
        loaded = load_sharded_snapshot(directory)
        assert loaded.fingerprint == snapshot.fingerprint
        assert loaded.shard_count == 3

    def test_write_snapshot_of_a_shard_set_is_the_plain_file(self,
                                                            tmp_path):
        """A shard set written as one snapshot file is, byte for byte,
        the file of the snapshot it was cut from, and loads back with
        its fingerprint."""
        snapshot = _snapshot()
        sharded = partition_snapshot(snapshot, 3)
        plain = write_snapshot(snapshot, tmp_path / "plain.snap.json")
        cut = write_snapshot(sharded, tmp_path / "sharded.snap.json")
        assert cut.read_bytes() == plain.read_bytes()
        loaded = load_snapshot(cut)
        assert loaded.fingerprint == sharded.fingerprint
        assert loaded.records == sharded.records

    def test_missing_shard_file_detected(self, tmp_path):
        directory = tmp_path / "corpus.sharded"
        write_sharded_snapshot(partition_snapshot(_snapshot(), 3),
                               directory)
        _shard_paths(directory)[1].unlink()
        with pytest.raises(SnapshotError) as excinfo:
            load_sharded_snapshot(directory)
        assert excinfo.value.reason == "unreadable"

    def test_tampered_shard_detected(self, tmp_path):
        directory = tmp_path / "corpus.sharded"
        write_sharded_snapshot(partition_snapshot(_snapshot(), 3),
                               directory)
        shard_path = _shard_paths(directory)[0]
        payload = json.loads(shard_path.read_text())
        payload["records"] = payload["records"][:-1]
        shard_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError) as excinfo:
            load_sharded_snapshot(directory)
        assert excinfo.value.reason in ("shard-fingerprint-mismatch",
                                        "fingerprint-mismatch")

    def test_misrouted_record_detected(self, tmp_path):
        snapshot = _snapshot()
        sharded = partition_snapshot(snapshot, 2)
        directory = tmp_path / "corpus.sharded"
        # Swap the two shards' files so every record is on the wrong
        # shard, then patch the manifest fingerprints to match the
        # swapped bytes — only the routing invariant can catch this.
        write_sharded_snapshot(sharded, directory)
        path0, path1 = _shard_paths(directory)
        data0, data1 = path0.read_text(), path1.read_text()
        path0.write_text(data1)
        path1.write_text(data0)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entries = manifest["files"]
        entries[0]["fingerprint"], entries[1]["fingerprint"] = \
            entries[1]["fingerprint"], entries[0]["fingerprint"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError) as excinfo:
            load_sharded_snapshot(directory)
        assert excinfo.value.reason == "shard-misrouted"

    def test_truncated_manifest_detected(self, tmp_path):
        directory = tmp_path / "corpus.sharded"
        write_sharded_snapshot(partition_snapshot(_snapshot(), 2),
                               directory)
        (directory / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotError) as excinfo:
            load_sharded_snapshot(directory)
        assert excinfo.value.reason == "not-json"


def _edited(sharded):
    """A refresh of ``sharded`` that edits every record (every non-empty
    shard moves)."""
    return apply_patches_sharded(sharded, [
        RecordPatch.upsert(record.domain,
                           dataclasses.replace(record, sector="XX"))
        for record in sharded.records]).sharded


def _listing(directory):
    return sorted(path.name for path in directory.iterdir())


def _named(directory):
    """``manifest.json`` plus every file the manifest names."""
    return sorted(["manifest.json"]
                  + [path.name for path in _shard_paths(directory)])


class TestShardedWriter:
    """One writer for full and delta writes; the manifest is the commit."""

    @pytest.mark.parametrize("change", ["refresh", "repartition"])
    def test_crash_before_manifest_keeps_previous_generation(
            self, tmp_path, monkeypatch, change):
        old = partition_snapshot(_snapshot(12), 4)
        new = _edited(old)
        if change == "repartition":
            new = partition_snapshot(new, 3)
        probe = tmp_path / "probe"
        write_sharded_snapshot(old, probe)
        pending = len(write_sharded_snapshot(new, probe))
        assert pending >= 3
        # Kill the writer before each of its shard-file writes, and once
        # more after the last one (at the manifest write).
        crashes = [("write_snapshot", k) for k in range(pending)] \
            + [("write_json_atomic", 0)]
        for name, point in crashes:
            directory = tmp_path / f"crash-{name}-{point}"
            write_sharded_snapshot(old, directory)
            real = getattr(shard_mod, name)
            calls = []

            def crashing(*args, real=real, point=point, calls=calls,
                         **kwargs):
                if len(calls) == point:
                    raise OSError("writer killed")
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(shard_mod, name, crashing)
            with pytest.raises(OSError, match="writer killed"):
                write_sharded_snapshot(new, directory)
            monkeypatch.setattr(shard_mod, name, real)
            loaded = load_sharded_snapshot(directory)
            assert loaded.fingerprint == old.fingerprint, (name, point)
            assert loaded.records == old.records, (name, point)
            # The next write completes the interrupted one.
            write_sharded_snapshot(new, directory)
            loaded = load_sharded_snapshot(directory)
            assert loaded.fingerprint == new.fingerprint
            assert loaded.shard_count == new.shard_count
            assert _listing(directory) == _named(directory)

    def test_directory_holds_only_manifest_and_named_files(self, tmp_path):
        directory = tmp_path / "serving"
        sharded = partition_snapshot(_snapshot(12), 4)
        write_sharded_snapshot(sharded, directory)
        for round_ in range(3):
            record = sharded.records[round_]
            sharded = apply_patches_sharded(sharded, [RecordPatch.upsert(
                record.domain, dataclasses.replace(record, sector="XX"))
            ]).sharded
            written = write_sharded_snapshot(sharded, directory)
            assert len(written) == 1
            assert _listing(directory) == _named(directory)
        resharded = partition_snapshot(sharded, 7)
        write_sharded_snapshot(resharded, directory)
        assert _listing(directory) == _named(directory)
        assert len(_shard_paths(directory)) == 7
        loaded = load_sharded_snapshot(directory)
        assert loaded.fingerprint == sharded.fingerprint
        assert loaded.shard_count == 7

    def test_manifest_naming_unfingerprinted_files_loads(self, tmp_path):
        """A directory whose manifest names ``shard-000N.snap.json``
        files (the earlier layout, same schema) still loads, and the
        next write replaces those files."""
        sharded = partition_snapshot(_snapshot(), 3)
        directory = tmp_path / "legacy"
        write_sharded_snapshot(sharded, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for index, entry in enumerate(manifest["files"]):
            legacy = f"shard-{index:04d}.snap.json"
            (directory / entry["file"]).rename(directory / legacy)
            entry["file"] = legacy
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_sharded_snapshot(directory)
        assert loaded.fingerprint == sharded.fingerprint
        assert loaded.records == sharded.records
        assert len(write_sharded_snapshot(loaded, directory)) == 3
        assert _listing(directory) == _named(directory)
        assert not (directory / "shard-0000.snap.json").exists()


class TestMergedViews:
    """ShardedEngine's index is one index over the merged records."""

    def test_merged_views_match_single_index(self, golden_snapshot):
        """Every CorpusIndex field of the sharded engine's index equals
        the single index's, at every shard count."""
        single = CorpusIndex.build(golden_snapshot)
        for shards in SHARD_COUNTS:
            merged = ShardedEngine(
                partition_snapshot(golden_snapshot, shards)).index
            assert type(merged) is CorpusIndex
            for field in dataclasses.fields(CorpusIndex):
                assert getattr(merged, field.name) == \
                    getattr(single, field.name), (shards, field.name)
            assert merged.fingerprint == single.fingerprint
        server = AnnotationServer(golden_snapshot, ServerConfig(shards=4))
        assert isinstance(server.index, CorpusIndex)

    def test_domain_lookup_routes_to_one_shard(self):
        snapshot = _snapshot()
        engine = ShardedEngine(partition_snapshot(snapshot, 4))
        for record in snapshot.records:
            shard = engine.route(DomainLookup(domain=record.domain))
            assert shard == shard_for_domain(record.domain, 4)
        assert engine.route(TableAggregate(table="summary")) is None


class TestReplacedEngineIsFreed:
    """A ShardedEngine holds no reference cycle, so dropping the last
    reference frees it at once — not at the next cyclic collection."""

    def test_bare_engine_freed_on_del(self):
        gc.disable()
        try:
            engine = ShardedEngine(partition_snapshot(_snapshot(), 4))
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_swapped_out_generation_freed_at_swap(self):
        server = AnnotationServer(_snapshot(12), ServerConfig(shards=4))
        edited = dataclasses.replace(server.index.by_domain["site1.com"],
                                     sector="ED")
        refresh = apply_patches_sharded(
            server.sharded, [RecordPatch.upsert("site1.com", edited)])
        gc.disable()
        try:
            ref = weakref.ref(server.engine)
            report = server.swap_snapshot(refresh.sharded)
            assert report.changed and report.shards_reused == 3
            assert ref() is None
        finally:
            gc.enable()


class TestDifferential:
    """Byte-identity of every query class across shard counts."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_engine_byte_identical_to_single_index(self, golden_snapshot,
                                                   shards):
        index = CorpusIndex.build(golden_snapshot)
        single = QueryEngine(index)
        engine = ShardedEngine(partition_snapshot(golden_snapshot, shards))
        for query in _probe_queries(golden_snapshot, index):
            assert engine.execute(query).to_json() == \
                single.execute(query).to_json(), query

    def test_shuffled_record_order_is_byte_identical(self, golden_snapshot):
        index = CorpusIndex.build(golden_snapshot)
        single = QueryEngine(index)
        records = list(golden_snapshot.records)
        random.Random(5).shuffle(records)
        engine = ShardedEngine(partition_snapshot(build_snapshot(records),
                                                  4))
        for query in _probe_queries(golden_snapshot, index):
            assert engine.execute(query).to_json() == \
                single.execute(query).to_json(), query

    @pytest.mark.parametrize("shards", (2, 7))
    def test_served_cold_and_warm_byte_identical(self, golden_snapshot,
                                                 shards):
        """Through the full server: sharded, cold cache, then warm."""
        index = CorpusIndex.build(golden_snapshot)
        single = QueryEngine(index)
        probes = _probe_queries(golden_snapshot, index)
        expected = [single.execute(q).to_json() for q in probes]
        config = ServerConfig(workers=2, shards=shards)
        with AnnotationServer(golden_snapshot, config) as server:
            cold = [server.request(q).body for q in probes]
            warm = [server.request(q).body for q in probes]
        assert cold == expected
        assert warm == expected

    def test_disk_round_trip_is_byte_identical(self, golden_snapshot,
                                               tmp_path):
        index = CorpusIndex.build(golden_snapshot)
        single = QueryEngine(index)
        directory = tmp_path / "corpus.sharded"
        write_sharded_snapshot(partition_snapshot(golden_snapshot, 4),
                               directory)
        engine = ShardedEngine(load_sharded_snapshot(directory))
        for query in _probe_queries(golden_snapshot, index):
            assert engine.execute(query).to_json() == \
                single.execute(query).to_json(), query


class TestShardedChaos:
    def test_sharded_chaos_run_has_zero_violations(self):
        """Fault containment AND sharded byte-identity, simultaneously:
        a sharded server under fire is oracle-diffed against a fault-free
        single-index engine."""
        report = run_chaos(
            _snapshot(12), FaultPlan.from_seed(11, requests=150),
            workload_config=WorkloadConfig(seed=4, requests=150),
            server_config=ServerConfig(workers=2, queue_depth=16, shards=3))
        assert report.violations() == 0, report.as_dict()
