"""The patched index: every live swap's index equals a cold build.

A swap builds the next generation's index with
:meth:`CorpusIndex.patched` from the previous generation's, taking away
the contributions of the records that left or changed and adding those
of the new ones. These tests run random sequences of launches,
retirements, edits, equal copies and re-partitions through a server,
sharded at S ∈ {1, 2, 4, 7} and unsharded, and require after every swap
that the served index equals ``CorpusIndex.build`` of the new snapshot
field for field, and that the replaced index still equals the build of
its own snapshot: the patch never writes to the generation in-flight
readers hold. The index renders its tables from integer partials; a
last test holds them to the analysis module's tables over the record
stream.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.tables import (
    table1_summary,
    table2a_types,
    table2b_purposes,
    table3_practices,
)
from repro.ingest import RecordPatch, apply_patches, apply_patches_sharded
from repro.pipeline.records import DomainAnnotations, read_jsonl
from repro.serve import (
    AnnotationServer,
    CorpusIndex,
    CorpusSnapshot,
    ShardedSnapshot,
    build_snapshot,
    partition_snapshot,
)

GOLDEN = read_jsonl(Path(__file__).parent / "golden" / "records.jsonl")

#: Annotation pools drawn from the golden corpus, so generated records
#: share taxonomy categories, descriptors and labels (and so postings,
#: counters and table cells) with each other.
_POOLS = {name: sorted({a for record in GOLDEN for a in getattr(record, name)},
                       key=repr)
          for name in ("types", "purposes", "handling", "rights")}

_content = st.builds(
    DomainAnnotations,
    domain=st.just("placeholder"),
    sector=st.sampled_from(["FI", "HC", "ED"]),
    status=st.sampled_from(["annotated", "annotated", "no-annotations",
                            "crawl-failed"]),
    types=st.lists(st.sampled_from(_POOLS["types"]), max_size=5),
    purposes=st.lists(st.sampled_from(_POOLS["purposes"]), max_size=4),
    handling=st.lists(st.sampled_from(_POOLS["handling"]), max_size=2),
    rights=st.lists(st.sampled_from(_POOLS["rights"]), max_size=2),
    fallback_aspects=st.lists(st.sampled_from(["types", "rights"]),
                              max_size=1),
    hallucinations_filtered=st.integers(0, 2))

_pick = st.integers(0, 1_000)
_edit = st.one_of(
    st.tuples(st.just("launch"), _content),
    st.tuples(st.just("retire"), _pick),
    st.tuples(st.just("modify"), _pick, _content),
    st.tuples(st.just("copy"), _pick))
_shards = st.sampled_from([None, 1, 2, 4, 7])
_step = st.one_of(st.lists(_edit, min_size=1, max_size=3),
                  st.tuples(st.just("repartition"), _shards))


def _patches(edits, records: dict[str, DomainAnnotations],
             launched: list[int]) -> list[RecordPatch]:
    """One swap's patches, with ``records`` (domain → record) kept up to
    date; at most one patch per domain, and a domain launched and retired
    in one swap gets none."""
    served = set(records)
    patches: dict[str, RecordPatch] = {}
    for edit in edits:
        domains = sorted(records)
        if edit[0] == "launch":
            launched[0] += 1
            domain = f"zz-launched-{launched[0]}.example"
            records[domain] = dataclasses.replace(edit[1], domain=domain)
            patches[domain] = RecordPatch.upsert(domain, records[domain])
        elif not domains:
            continue
        elif edit[0] == "retire":
            domain = domains[edit[1] % len(domains)]
            del records[domain]
            if domain in served:
                patches[domain] = RecordPatch.remove(domain)
            else:
                del patches[domain]
        else:
            domain = domains[edit[1] % len(domains)]
            records[domain] = (dataclasses.replace(edit[2], domain=domain)
                               if edit[0] == "modify"
                               else dataclasses.replace(records[domain]))
            patches[domain] = RecordPatch.upsert(domain, records[domain])
    return list(patches.values())


def _assert_fields_equal(index: CorpusIndex, reference: CorpusIndex,
                         what: str) -> None:
    for field in dataclasses.fields(CorpusIndex):
        assert getattr(index, field.name) == \
            getattr(reference, field.name), (what, field.name)
    # Dict equality ignores key order; the atom catalog's is kept.
    assert list(index.atoms_by_aspect) == sorted(index.atoms_by_aspect), what


@given(initial=st.lists(_content, min_size=1, max_size=6),
       shards=_shards, steps=st.lists(_step, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_patched_index_equals_a_cold_build(initial, shards, steps):
    _check_swaps(initial, shards, steps)


@pytest.mark.slow
@given(initial=st.lists(_content, min_size=1, max_size=8),
       shards=_shards, steps=st.lists(_step, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_patched_index_equals_a_cold_build_deep(initial, shards, steps):
    """The slow lane re-runs the swap sequences at 10x the examples."""
    _check_swaps(initial, shards, steps)


def _unsharded(snapshot: CorpusSnapshot) -> CorpusSnapshot:
    """``snapshot`` as a plain snapshot: a shard set without its shards."""
    return CorpusSnapshot(records=snapshot.records,
                          fingerprint=snapshot.fingerprint,
                          source=snapshot.source,
                          provenance=snapshot.provenance)


def _check_swaps(initial, shards, steps) -> None:
    """Serve ``initial`` (after two golden records), run ``steps`` as
    swaps, and compare every generation's index with a cold build."""
    records = {record.domain: record for record in GOLDEN[:2]}
    for number, content in enumerate(initial):
        domain = f"site{number}.example"
        records[domain] = dataclasses.replace(content, domain=domain)
    snapshot = build_snapshot(list(records.values()))
    served = partition_snapshot(snapshot, shards) if shards else snapshot
    server = AnnotationServer(served)
    reference = CorpusIndex.build(snapshot)
    _assert_fields_equal(server.index, reference, "initial")
    launched = [0]
    for step in steps:
        if step[0] == "repartition":
            shards = step[1]
            served = partition_snapshot(served, shards) if shards \
                else _unsharded(served)
        else:
            patches = _patches(step, records, launched)
            if isinstance(served, ShardedSnapshot):
                served = apply_patches_sharded(served, patches).sharded
            else:
                served = apply_patches(served, patches)
        previous = server.index
        report = server.swap_snapshot(served)
        if shards:
            assert report.shards_reused + report.shards_rebuilt == shards
        # The replaced generation is as it was: nothing wrote to it.
        _assert_fields_equal(previous, reference, "previous")
        reference = CorpusIndex.build(served)
        _assert_fields_equal(server.index, reference, step)


def _coverage_payload(stat) -> dict:
    return {"covered": stat.covered, "total": stat.total,
            "coverage": round(stat.coverage, 6),
            "mean": round(stat.mean, 6), "sd": round(stat.sd, 6)}


def _analysis_tables(records: list[DomainAnnotations]) -> dict:
    """Tables 1, 2a, 2b and 3 in the served payload shape, from the
    analysis module (a two-pass SD, ``most_common`` tie-breaks)."""
    table1 = table1_summary(records)
    tables = {"table1": {
        "total": table1.total,
        "meta_counts": dict(sorted(table1.meta_counts.items())),
        "rows": [{"meta_category": row.meta_category,
                  "category": row.category,
                  "unique_annotations": row.unique_annotations,
                  "top_descriptors": [
                      {"descriptor": d.descriptor, "count": d.count,
                       "share": round(d.share, 6)}
                      for d in row.top_descriptors]}
                 for row in table1.rows]}}
    for name, table in (("table2a", table2a_types),
                        ("table2b", table2b_purposes),
                        ("table3", table3_practices)):
        tables[name] = {
            row_name: {"overall": _coverage_payload(row.overall),
                       "sectors": {sector: _coverage_payload(stat)
                                   for sector, stat
                                   in sorted(row.by_sector.items())}}
            for row_name, row in sorted(table(records).items())}
    return tables


@given(contents=st.lists(_content, max_size=12))
@settings(max_examples=40, deadline=None)
def test_tables_from_partials_equal_the_analysis_tables(contents):
    snapshot = build_snapshot(
        GOLDEN[:3] + [dataclasses.replace(content, domain=f"site{i}.example")
                      for i, content in enumerate(contents)])
    served = CorpusIndex.build(snapshot).aggregates
    for name, payload in _analysis_tables(list(snapshot.records)).items():
        assert served[name] == payload, name
