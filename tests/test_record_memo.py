"""Frozen records, their memoized canonical JSON, and delta-cost swaps.

A :class:`DomainAnnotations` record is frozen and renders its canonical
JSON once; a swap patches the previous generation's index with the
records that changed. These tests pin that the memo changes no byte (the
streamed fingerprint equals the old payload-list digest), that a decoded
record is fingerprinted as decoded, that the patched index equals a
fresh build, and that a K-record refresh plus swap serializes, compiles
and re-indexes only the K patched records and derives each record-set
digest once, whatever N is, sharded or not.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.serve.index as index_mod
import repro.serve.snapshot as snapshot_mod
from repro._util.artifacts import canonical_json, content_digest, \
    write_json_atomic
from repro.errors import SnapshotError
from repro.ingest import RecordPatch, apply_patches, apply_patches_sharded, \
    verify_sharded
from repro.pipeline.records import (
    DomainAnnotations,
    HandlingAnnotation,
    RightsAnnotation,
    TypeAnnotation,
    read_jsonl,
)
from repro.serve import (
    AnnotationServer,
    CorpusIndex,
    ServerConfig,
    build_snapshot,
    load_sharded_snapshot,
    partition_snapshot,
    shard_for_domain,
    snapshot_fingerprint,
    write_sharded_snapshot,
)

GOLDEN_RECORDS = Path(__file__).parent / "golden" / "records.jsonl"

_text = st.text(min_size=1, max_size=12)
_line = st.integers(min_value=1, max_value=60)

_records = st.builds(
    DomainAnnotations,
    # A small pool, so generated sets carry duplicate domains.
    domain=st.sampled_from(["a.com", "b.net", "c.org", "d.io"]),
    sector=st.sampled_from(["FI", "HC"]),
    status=st.sampled_from(["annotated", "crawl-failed"]),
    types=st.lists(st.builds(TypeAnnotation, category=_text,
                             meta_category=_text, descriptor=_text,
                             verbatim=_text, line=_line,
                             novel=st.booleans()), max_size=3),
    handling=st.lists(st.builds(
        HandlingAnnotation, group=_text, label=_text, verbatim=_text,
        line=_line, period_text=st.none() | _text,
        period_days=st.none() | st.integers(1, 3650)), max_size=2),
    rights=st.lists(st.builds(RightsAnnotation, group=_text, label=_text,
                              verbatim=_text, line=_line), max_size=2),
    fallback_aspects=st.lists(st.sampled_from(["types", "rights"]),
                              max_size=2),
    policy_words=st.integers(min_value=0, max_value=5000))


def _record(domain: str, verbatim: str = "we collect your email") \
        -> DomainAnnotations:
    return DomainAnnotations(
        domain=domain, sector="FI", status="annotated",
        types=[TypeAnnotation(category="Contact information",
                              meta_category="Personal identifiers",
                              descriptor="email address",
                              verbatim=verbatim, line=1)],
        rights=[RightsAnnotation(group="User access", label="View",
                                 verbatim="you may view your data",
                                 line=2)])


def _payload_digest(records) -> str:
    """The fingerprint as the round trip defined it: the first record
    of each domain, in domain order, as ``json.loads(to_json())``."""
    first: dict[str, DomainAnnotations] = {}
    for record in records:
        first.setdefault(record.domain, record)
    return content_digest([json.loads(first[domain].to_json())
                           for domain in sorted(first)])


class TestCanonicalMemo:
    @given(st.lists(_records, max_size=6))
    @example([])
    @example([_record("dup.com", "first"), _record("dup.com", "second"),
              _record("aa.com")])
    @example([_record("über.de", "Wir erheben Ihre E-Mail-Adresse — 个人信息"),
              _record("ascii.com")])
    @settings(max_examples=60, deadline=None)
    def test_streamed_fingerprint_equals_payload_digest(self, records):
        assert snapshot_fingerprint(records) == _payload_digest(records)
        assert build_snapshot(records).fingerprint == \
            _payload_digest(records)

    @given(_records)
    @example(_record("ünï.com", "données personnelles ✓"))
    @settings(max_examples=60, deadline=None)
    def test_memo_is_canonical_rendering_of_to_json(self, record):
        text = record.canonical()
        assert text == canonical_json(json.loads(record.to_json()))
        assert record.canonical() is text

    def test_build_snapshot_keeps_the_given_records(self):
        records = [_record(f"site{i}.com") for i in (3, 1, 2)]
        snapshot = build_snapshot(records + [_record("site1.com", "dup")])
        assert [r.domain for r in snapshot.records] == \
            ["site1.com", "site2.com", "site3.com"]
        assert snapshot.records[0] is records[1]
        assert snapshot.records[1] is records[2]
        assert snapshot.records[2] is records[0]

    def test_record_is_frozen(self):
        record = _record("a.com")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.status = "no-annotations"
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.types = ()
        assert isinstance(record.types, tuple)
        edited = dataclasses.replace(record, sector="HC")
        assert edited.canonical() != record.canonical()
        assert json.loads(edited.canonical())["sector"] == "HC"


class TestShardedLoad:
    def test_unknown_key_cannot_ride_under_a_shard_fingerprint(
            self, tmp_path):
        """A record with a key the decoder drops, fingerprinted, named
        and listed over its raw payload, is rejected: the decoded
        records do not have that fingerprint."""
        sharded = partition_snapshot(
            build_snapshot([_record(f"site{i}.com") for i in range(8)]), 2)
        directory = tmp_path / "serving"
        write_sharded_snapshot(sharded, directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["files"][0]
        old = directory / entry["file"]
        payload = json.loads(old.read_text())
        payload["records"][0]["smuggled"] = "not a record field"
        fingerprint = content_digest(payload["records"])
        payload["fingerprint"] = fingerprint
        name = f"shard-0000-{fingerprint}.snap.json"
        write_json_atomic(directory / name, payload, indent=None,
                          sort_keys=True)
        old.unlink()
        entry.update(file=name, fingerprint=fingerprint)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError) as excinfo:
            load_sharded_snapshot(directory)
        assert excinfo.value.reason in ("malformed-record",
                                        "fingerprint-mismatch")

    def test_loaded_records_keep_their_canonical_strings(
            self, tmp_path, monkeypatch):
        sharded = partition_snapshot(
            build_snapshot([_record(f"site{i}.com") for i in range(8)]), 2)
        write_sharded_snapshot(sharded, tmp_path)
        loaded = load_sharded_snapshot(tmp_path)
        for record in loaded.records:
            assert record.canonical() == \
                canonical_json(json.loads(record.to_json()))
        calls = []
        original = DomainAnnotations.to_json
        monkeypatch.setattr(DomainAnnotations, "to_json",
                            lambda self: calls.append(self) or original(self))
        verify_sharded(loaded)
        assert calls == []


@pytest.mark.parametrize("shards", [1, 4])
def test_reused_forms_and_rows_equal_a_fresh_build(shards):
    """A swap patches the previous generation's index, and the result is
    the index a from-scratch build gives, field for field, through an
    edit, a removal, a launch and an equal copy, sharded or not."""
    golden = read_jsonl(GOLDEN_RECORDS)
    snapshot = build_snapshot(golden)
    served = partition_snapshot(snapshot, shards) if shards > 1 else snapshot
    server = AnnotationServer(served, ServerConfig(shards=shards))
    first, second, third = (record.domain for record in golden[:3])
    edited = dataclasses.replace(
        golden[0], rights=golden[0].rights[1:], status="no-annotations")
    launched = dataclasses.replace(golden[1], domain="zz-launched.example")
    patches = [
        RecordPatch.upsert(first, edited),
        RecordPatch.remove(second),
        RecordPatch.upsert(launched.domain, launched),
        RecordPatch.upsert(third, dataclasses.replace(golden[2]))]
    if shards > 1:
        refreshed = apply_patches_sharded(served, patches).sharded
    else:
        refreshed = apply_patches(served, patches)
    report = server.swap_snapshot(refreshed)
    assert report.shards_rebuilt >= 1
    rebuilt = CorpusIndex.build(refreshed)
    for field in dataclasses.fields(CorpusIndex):
        assert getattr(server.index, field.name) == \
            getattr(rebuilt, field.name), field.name


def _delta_costs(n: int, shards: int,
                 monkeypatch) -> tuple[int, int, list[str], list[str], int]:
    """Serializations and record-set digests in one 3-patch refresh, the
    records its swap compiles and whose contributions it applies, and the
    k-way merges of a shard set in the refresh and the swap, over ``n``
    records served in ``shards`` shards (1: an unsharded server)."""
    snapshot = build_snapshot([_record(f"site{i}.com") for i in range(n)])
    served = partition_snapshot(snapshot, shards) if shards > 1 else snapshot
    server = AnnotationServer(served, ServerConfig(shards=shards))
    patches = [RecordPatch.upsert(f"site{i}.com",
                                  _record(f"site{i}.com", f"edit {i}"))
               for i in (0, 1, 2)]
    serialized: list[str] = []
    digests: list[int] = []
    compiled: list[str] = []
    contributed: list[str] = []
    merges: list[int] = []
    to_json = DomainAnnotations.to_json
    merge = heapq.merge
    records_digest = snapshot_mod._records_digest
    compile_record = index_mod.compile_record
    record_contribution = index_mod.record_contribution
    monkeypatch.setattr(
        DomainAnnotations, "to_json",
        lambda self: serialized.append(self.domain) or to_json(self))
    monkeypatch.setattr(
        snapshot_mod, "_records_digest",
        lambda records: digests.append(1) or records_digest(records))
    monkeypatch.setattr(
        index_mod, "compile_record",
        lambda record: compiled.append(record.domain)
        or compile_record(record))
    monkeypatch.setattr(
        index_mod, "record_contribution",
        lambda record, form: contributed.append(record.domain)
        or record_contribution(record, form))
    monkeypatch.setattr(
        heapq, "merge",
        lambda *iterables, **kwargs: merges.append(1)
        or merge(*iterables, **kwargs))
    if shards > 1:
        refreshed = apply_patches_sharded(served, patches).sharded
    else:
        refreshed = apply_patches(served, patches)
    refresh_serialized, refresh_digests = len(serialized), len(digests)
    report = server.swap_snapshot(refreshed)
    assert report.shards_reused + report.shards_rebuilt == shards
    assert len(serialized) == refresh_serialized  # the swap renders none
    monkeypatch.undo()
    return (refresh_serialized, refresh_digests, sorted(compiled),
            sorted(contributed), len(merges))


def test_refresh_and_swap_cost_the_delta_not_the_corpus(monkeypatch):
    patched = ["site0.com", "site1.com", "site2.com"]
    for shards in (4, 1):
        small = _delta_costs(12, shards, monkeypatch)
        large = _delta_costs(48, shards, monkeypatch)
        # Each patched record is serialized at most once, and only the
        # patched records are compiled, at either corpus size.
        assert small[0] <= 3, shards
        assert small[2] == patched, shards
        # The refresh derives each digest once: the patched record set's,
        # and each touched shard's.
        touched = {shard_for_domain(d, shards) for d in patched} \
            if shards > 1 else set()
        assert small[1] == 1 + len(touched), shards
        # The swap takes away each replaced record's contribution and
        # adds its new one's; no other record is re-indexed.
        assert small[3] == sorted(patched * 2), shards
        # A shard set is the snapshot it was cut from: neither the
        # refresh nor the swap merges its shards back together.
        assert small[4] == 0, shards
        assert small == large, shards
