"""Answer bodies joined from JSON rendered once per record.

A compliance scan's body is joined from verdict-row fragments the index
renders when a row enters it (``CorpusIndex.compliance_fragments``),
and a found lookup's body wraps its record's memoized canonical string.
These tests hold both to ``canonical_json`` of the reference payload
through random launches, retirements, edits and sector moves, patched
sharded and unsharded; hold a logical form's fingerprint from parts to
the digest of its decoded payload; and count that a cold build renders
each row once, a K-record swap only the K records' rows, and a scan or
lookup miss encodes no row and no record.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serve.index as index_mod
from repro._util.artifacts import canonical_json, content_digest
from repro.compliance.logic import LogicalForm, compile_record, \
    form_fingerprint
from repro.compliance.rules import RULE_PACKS, scan_payload
from repro.ingest import RecordPatch, apply_patches, apply_patches_sharded
from repro.pipeline.records import (
    DomainAnnotations,
    HandlingAnnotation,
    PurposeAnnotation,
    RightsAnnotation,
    TypeAnnotation,
    read_jsonl,
)
from repro.serve import (
    AnnotationServer,
    ComplianceScan,
    CorpusIndex,
    DomainLookup,
    QueryEngine,
    ServerConfig,
    ShardedEngine,
    build_snapshot,
    partition_snapshot,
)

GOLDEN = read_jsonl(Path(__file__).parent / "golden" / "records.jsonl")

#: Sectors records move between; ``XX`` is never held.
SECTORS = ("FI", "HC", "ED")
ABSENT_SECTOR = "XX"

#: Rules per record: every pack's rules, one verdict row each.
RULES_PER_RECORD = sum(len(pack.rules) for pack in RULE_PACKS.values())

#: Annotation pools drawn from the golden corpus, so generated records
#: satisfy, violate and leave unknown the packs' rules in varied ways.
_POOLS = {name: sorted({a for record in GOLDEN for a in getattr(record, name)},
                       key=repr)
          for name in ("types", "purposes", "handling", "rights")}

_content = st.builds(
    DomainAnnotations,
    domain=st.just("placeholder"),
    sector=st.sampled_from(SECTORS),
    status=st.sampled_from(["annotated", "annotated", "no-annotations",
                            "crawl-failed"]),
    types=st.lists(st.sampled_from(_POOLS["types"]), max_size=5),
    purposes=st.lists(st.sampled_from(_POOLS["purposes"]), max_size=4),
    handling=st.lists(st.sampled_from(_POOLS["handling"]), max_size=2),
    rights=st.lists(st.sampled_from(_POOLS["rights"]), max_size=3))

_pick = st.integers(0, 1_000)
_step = st.lists(st.one_of(
    st.tuples(st.just("launch"), _content),
    st.tuples(st.just("retire"), _pick),
    st.tuples(st.just("edit"), _pick, _content),
    st.tuples(st.just("move"), _pick, st.sampled_from(SECTORS))),
    min_size=1, max_size=3)


def _apply(edits, records: dict[str, DomainAnnotations],
           launched: list[int]) -> None:
    """Run one swap's edits on ``records`` (domain → record)."""
    for edit in edits:
        domains = sorted(records)
        if edit[0] == "launch":
            launched[0] += 1
            domain = f"zz-launched-{launched[0]}.example"
            records[domain] = dataclasses.replace(edit[1], domain=domain)
            continue
        if not domains:
            continue
        domain = domains[edit[1] % len(domains)]
        if edit[0] == "retire":
            del records[domain]
        elif edit[0] == "edit":
            records[domain] = dataclasses.replace(edit[2], domain=domain)
        else:
            records[domain] = dataclasses.replace(records[domain],
                                                  sector=edit[2])


def _scan_reference(index: CorpusIndex, query: ComplianceScan) -> str:
    pack = RULE_PACKS[query.pack]
    return canonical_json({"kind": "compliance", "payload": scan_payload(
        pack, index.compliance_rows[pack.name], list(index.logical_forms),
        rule_id=query.rule, sector=query.sector)})


def _lookup_reference(index: CorpusIndex, domain: str) -> str:
    record = index.by_domain.get(domain)
    payload = {"domain": domain, "found": record is not None}
    if record is not None:
        payload["record"] = json.loads(record.canonical())
    return canonical_json({"kind": "domain", "payload": payload})


def _assert_bodies(engine: QueryEngine, retired: set[str]) -> None:
    """Every scan slice and every lookup of a held or absent domain
    serves the bytes of its reference payload."""
    index = engine.index
    for name, pack in RULE_PACKS.items():
        for rule in (None, *pack.rule_ids()):
            for sector in (None, *SECTORS, ABSENT_SECTOR):
                query = ComplianceScan(pack=name, rule=rule, sector=sector)
                result = engine.execute(query)
                expected = _scan_reference(index, query)
                assert result.to_json() == expected, (name, rule, sector)
                assert result.payload == json.loads(expected)["payload"]
    for domain in sorted(index.by_domain.keys() | retired) + ["absent.io"]:
        result = engine.execute(DomainLookup(domain=domain))
        assert result.to_json() == _lookup_reference(index, domain), domain


def _check_bodies(initial, shards, steps) -> None:
    records = {record.domain: record for record in GOLDEN[:2]}
    for number, content in enumerate(initial):
        domain = f"site{number}.example"
        records[domain] = dataclasses.replace(content, domain=domain)
    retired: set[str] = set()
    launched = [0]
    engine = None
    for edits in [()] + steps:
        before = set(records)
        _apply(edits, records, launched)
        retired |= before - set(records)
        snapshot = build_snapshot(list(records.values()))
        if shards is None:
            engine = QueryEngine(CorpusIndex.patched(engine and engine.index,
                                                     snapshot))
        else:
            engine = ShardedEngine(partition_snapshot(snapshot, shards),
                                   reuse_from=engine)
        _assert_bodies(engine, retired)


@given(initial=st.lists(_content, min_size=1, max_size=5),
       shards=st.sampled_from([None, 2, 4]),
       steps=st.lists(_step, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bodies_equal_the_reference_payloads(initial, shards, steps):
    _check_bodies(initial, shards, steps)


@pytest.mark.slow
@given(initial=st.lists(_content, min_size=1, max_size=8),
       shards=st.sampled_from([None, 1, 2, 4, 7]),
       steps=st.lists(_step, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bodies_equal_the_reference_payloads_deep(initial, shards, steps):
    """The slow lane re-runs the swap sequences at 10x the examples."""
    _check_bodies(initial, shards, steps)


# -- the fingerprint from parts -------------------------------------------

#: Any text at all: quotes, backslashes, control and non-Latin-1
#: characters all have to be escaped as ``canonical_json`` escapes them.
_text = st.text(max_size=12)
_line = st.integers(min_value=0, max_value=60)

_records = st.builds(
    DomainAnnotations,
    domain=_text, sector=_text, status=st.sampled_from(
        ["annotated", "no-annotations", "crawl-failed"]),
    types=st.lists(st.builds(TypeAnnotation, category=_text,
                             meta_category=_text, descriptor=_text,
                             verbatim=_text, line=_line,
                             novel=st.booleans()), max_size=3),
    purposes=st.lists(st.builds(PurposeAnnotation, category=_text,
                                meta_category=_text, descriptor=_text,
                                verbatim=_text, line=_line,
                                novel=st.booleans()), max_size=2),
    handling=st.lists(st.builds(
        HandlingAnnotation, group=_text, label=_text, verbatim=_text,
        line=_line, period_text=st.none() | _text,
        period_days=st.none() | st.integers(1, 3650)), max_size=2),
    rights=st.lists(st.builds(RightsAnnotation, group=_text, label=_text,
                              verbatim=_text, line=_line), max_size=2))


def _assert_fingerprint(record: DomainAnnotations) -> None:
    form = compile_record(record)
    assert form_fingerprint(form) == content_digest(form.core_payload())
    assert form.fingerprint == form_fingerprint(form)
    decoded = LogicalForm.from_json(form.to_json())
    assert decoded.fingerprint == form.fingerprint


@given(_records)
@settings(max_examples=100, deadline=None)
def test_fingerprint_from_parts_equals_the_payload_digest(record):
    _assert_fingerprint(record)


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: r.domain)
def test_golden_fingerprint_from_parts_equals_the_payload_digest(record):
    _assert_fingerprint(record)


# -- what is rendered, counted --------------------------------------------


def _corpus(n: int) -> list[DomainAnnotations]:
    """``n`` records cycling through the golden contents."""
    return [dataclasses.replace(GOLDEN[i % len(GOLDEN)],
                                domain=f"site{i:02d}.example")
            for i in range(n)]


def _count_fragments(monkeypatch) -> list[str]:
    rendered: list[str] = []
    original = index_mod.verdict_fragment
    monkeypatch.setattr(
        index_mod, "verdict_fragment",
        lambda domain, row: rendered.append(domain)
        or original(domain, row))
    return rendered


@pytest.mark.parametrize("n", [12, 48])
def test_cold_build_renders_each_row_once(n, monkeypatch):
    records = _corpus(n)
    rendered = _count_fragments(monkeypatch)
    CorpusIndex.build(build_snapshot(records))
    assert sorted(rendered) == sorted(
        record.domain for record in records for _ in range(RULES_PER_RECORD))


@pytest.mark.parametrize("shards", [4, 1])
def test_swap_renders_only_the_patched_rows(shards, monkeypatch):
    """A K = 3 swap renders 3 × (rules per record) row fragments, at
    N = 12 and at N = 48."""
    patched = ["site00.example", "site05.example", "site07.example"]
    patches = [RecordPatch.upsert(domain, dataclasses.replace(
        record, domain=domain)) for domain, record in zip(patched, GOLDEN[3:])]
    for n in (12, 48):
        snapshot = build_snapshot(_corpus(n))
        if shards > 1:
            served = partition_snapshot(snapshot, shards)
            refreshed = apply_patches_sharded(served, patches).sharded
        else:
            served = snapshot
            refreshed = apply_patches(served, patches)
        server = AnnotationServer(served, ServerConfig(shards=shards))
        rendered = _count_fragments(monkeypatch)
        server.swap_snapshot(refreshed)
        monkeypatch.undo()
        assert sorted(rendered) == sorted(patched * RULES_PER_RECORD), n


def test_a_miss_encodes_no_row_and_no_record(monkeypatch):
    """Scan and lookup misses join JSON the index holds: the encoder
    never sees a verdict row or a record, and nothing is decoded."""
    engine = QueryEngine(CorpusIndex.build(build_snapshot(_corpus(12))))
    queries = [ComplianceScan(pack=name, rule=rule, sector=sector)
               for name, pack in RULE_PACKS.items()
               for rule in (None, pack.rule_ids()[0])
               for sector in (None, "FI", ABSENT_SECTOR)]
    queries += [DomainLookup(domain=domain)
                for domain in ("site00.example", "site11.example",
                               "absent.io")]
    for pack in RULE_PACKS.values():
        pack.fingerprint()  # computed once per pack, not per answer
    encoded: list[object] = []
    decoded: list[str] = []
    encode, decode = json.JSONEncoder.encode, json.JSONDecoder.decode
    monkeypatch.setattr(json.JSONEncoder, "encode",
                        lambda self, o: encoded.append(o) or encode(self, o))
    monkeypatch.setattr(json.JSONDecoder, "decode",
                        lambda self, s, **kw: decoded.append(s)
                        or decode(self, s, **kw))
    for query in queries:
        engine.execute(query).to_json()
    monkeypatch.undo()
    assert decoded == []
    assert encoded  # the strings and headers around the joined JSON
    assert not any(_holds_row_or_record(obj) for obj in encoded)


def _holds_row_or_record(obj) -> bool:
    """Whether ``obj`` is or holds a verdict row or a record payload."""
    if isinstance(obj, dict):
        return "verdict" in obj or "types" in obj or any(
            _holds_row_or_record(value) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_holds_row_or_record(value) for value in obj)
    return False
