"""Answer-keyed caching: a live swap keeps every answer it did not change.

The hot-result cache keys an answer by the content id of the records it
reads (:func:`repro.serve.query.query_scope`) plus the query
fingerprint: a domain lookup by its record's digest, a sector-scoped
filter, top-descriptor list, compliance scan or sector aggregate by its
sector's digest, and everything else by the snapshot fingerprint. The
unit cases pin which reads hit after a swap; the differential drives
random launch, retire, modify, sector-move and no-op swaps through a
started server, sharded and unsharded, and requires every body, hit or
miss, to equal a fresh engine's over the served snapshot; the count
test pins that a swap hashes only its new records and the sectors whose
domain list it wrote.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.index as index_mod
from repro.errors import QueryError
from repro.pipeline.records import DomainAnnotations, read_jsonl
from repro.serve import (
    TABLES,
    AnnotationServer,
    AspectMentions,
    ComplianceScan,
    CorpusIndex,
    DomainLookup,
    FacetFilter,
    PredicateQuery,
    QueryEngine,
    SectorAggregate,
    ServerConfig,
    TableAggregate,
    TopDescriptors,
    build_snapshot,
    partition_snapshot,
)

GOLDEN = read_jsonl(Path(__file__).parent / "golden" / "records.jsonl")
ANNOTATED = [record for record in GOLDEN if record.status == "annotated"]

SECTORS = ("FI", "HC", "ED")

_PREDICATE = json.dumps({"op": "atom", "aspect": "types",
                         "category": "Contact info"})


def _corpus() -> dict[str, DomainAnnotations]:
    """Two domains in each of three sectors, with golden content."""
    records = {}
    for number, sector in enumerate(SECTORS * 2):
        domain = f"{sector.lower()}{number // len(SECTORS)}.example"
        records[domain] = dataclasses.replace(
            ANNOTATED[number % len(ANNOTATED)], domain=domain, sector=sector)
    return records


def _edited(record: DomainAnnotations) -> DomainAnnotations:
    return dataclasses.replace(record, rights=record.rights[1:],
                               policy_words=record.policy_words + 1)


def _sector_queries(sector: str) -> list:
    return [FacetFilter(facet="types", category="Contact info",
                        sector=sector),
            TopDescriptors(facet="purposes", k=3, sector=sector),
            ComplianceScan(pack="gdpr", sector=sector),
            SectorAggregate(sector=sector)]


def _corpus_queries() -> list:
    return [FacetFilter(facet="types", category="Personal identifier"),
            FacetFilter(status="annotated"),
            FacetFilter(),
            TopDescriptors(facet="types", k=5),
            ComplianceScan(pack="ccpa"),
            AspectMentions(aspect="rights", limit=4),
            PredicateQuery(predicate=_PREDICATE)] \
        + [TableAggregate(table=table) for table in TABLES]


def _served(records: dict, shards: int | None):
    snapshot = build_snapshot(list(records.values()))
    return (partition_snapshot(snapshot, shards) if shards else snapshot,
            snapshot)


def _fresh(snapshot, query) -> str:
    return QueryEngine(CorpusIndex.build(snapshot)).execute(query).to_json()


def _swapped(records: dict, change, queries: list, shards: int | None):
    """Serve ``records``, read every query (so the cache holds each
    answer), swap to ``change(records)``, then read each again: the
    responses after the swap, and the new snapshot."""
    served, _ = _served(records, shards)
    with AnnotationServer(served, ServerConfig(shards=shards or 1)) \
            as server:
        for query in queries:
            assert server.request(query).ok, query
        after = dict(records)
        change(after)
        served, snapshot = _served(after, shards)
        server.swap_snapshot(served)
        return [server.request(query) for query in queries], snapshot


@pytest.mark.parametrize("shards", [None, 4])
class TestAfterOneSwap:
    def test_untouched_lookup_hits_and_replaced_lookup_misses(self, shards):
        records = _corpus()
        queries = [DomainLookup(domain) for domain in records]

        def change(after):
            after["fi0.example"] = _edited(after["fi0.example"])

        responses, snapshot = _swapped(records, change, queries, shards)
        for query, response in zip(queries, responses):
            assert response.ok
            assert response.cached == (query.domain != "fi0.example"), query
            assert response.body == _fresh(snapshot, query), query
        edited = json.loads(responses[0].body)["payload"]["record"]
        assert edited["policy_words"] == \
            records["fi0.example"].policy_words + 1

    def test_retired_domain_answers_not_found(self, shards):
        records = _corpus()
        query = DomainLookup("hc1.example")
        (response,), snapshot = _swapped(
            records, lambda after: after.pop("hc1.example"), [query], shards)
        assert response.ok and not response.cached
        assert json.loads(response.body)["payload"] == \
            {"domain": "hc1.example", "found": False}
        assert response.body == _fresh(snapshot, query)

    def test_launched_domain_is_not_answered_from_not_found(self, shards):
        records = _corpus()
        query = DomainLookup("launched.example")

        def launch(after):
            after[query.domain] = dataclasses.replace(
                ANNOTATED[0], domain=query.domain, sector="ED")

        (response,), snapshot = _swapped(records, launch, [query], shards)
        assert response.ok and not response.cached
        assert json.loads(response.body)["payload"]["found"] is True
        assert response.body == _fresh(snapshot, query)

    @pytest.mark.parametrize("change, changed_sectors", [
        (lambda after: after.update(
            {"fi1.example": _edited(after["fi1.example"])}), {"FI"}),
        # hc0 moves to FI: both sectors' domain lists change.
        (lambda after: after.update(
            {"hc0.example": dataclasses.replace(after["hc0.example"],
                                                sector="FI")}),
         {"FI", "HC"}),
        (lambda after: after.pop("ed1.example"), {"ED"}),
        (lambda after: None, set()),
    ], ids=["edit", "move", "retire", "no-op"])
    def test_sector_answers_hit_exactly_when_their_sector_is_unchanged(
            self, shards, change, changed_sectors):
        queries = [query for sector in SECTORS
                   for query in _sector_queries(sector)]
        responses, snapshot = _swapped(_corpus(), change, queries, shards)
        for query, response in zip(queries, responses):
            assert response.ok, query
            assert response.cached == (query.sector not in changed_sectors), \
                query
            assert response.body == _fresh(snapshot, query), query

    def test_corpus_answers_miss_after_a_content_change(self, shards):
        queries = _corpus_queries()

        def change(after):
            after["ed0.example"] = _edited(after["ed0.example"])

        responses, snapshot = _swapped(_corpus(), change, queries, shards)
        for query, response in zip(queries, responses):
            assert response.ok and not response.cached, query
            assert response.body == _fresh(snapshot, query), query
        responses, _ = _swapped(_corpus(), lambda after: None, queries,
                                shards)
        assert all(response.cached for response in responses)


# -- differential --------------------------------------------------------

#: Annotation pools drawn from the golden corpus, so generated records
#: share categories, descriptors and labels, and so answers.
_POOLS = {name: sorted({a for record in GOLDEN for a in getattr(record, name)},
                       key=repr)
          for name in ("types", "purposes", "handling", "rights")}

_content = st.builds(
    DomainAnnotations,
    domain=st.just("placeholder"),
    sector=st.sampled_from(SECTORS),
    status=st.sampled_from(["annotated", "annotated", "no-annotations",
                            "crawl-failed"]),
    types=st.lists(st.sampled_from(_POOLS["types"]), max_size=4),
    purposes=st.lists(st.sampled_from(_POOLS["purposes"]), max_size=3),
    handling=st.lists(st.sampled_from(_POOLS["handling"]), max_size=2),
    rights=st.lists(st.sampled_from(_POOLS["rights"]), max_size=2))

_pick = st.integers(0, 1_000)
_edit = st.one_of(
    st.tuples(st.just("launch"), _content),
    st.tuples(st.just("retire"), _pick),
    st.tuples(st.just("modify"), _pick, _content),
    st.tuples(st.just("move"), _pick, st.sampled_from(SECTORS)))
#: One swap's edits; an empty list swaps in the same content.
_swap = st.lists(_edit, max_size=3)
_shards = st.sampled_from([None, 1, 2, 4])

_LAUNCHED = "zz-launched-{}.example"


def _apply(edits, records: dict, launched: list[int]) -> None:
    for edit in edits:
        if edit[0] == "launch":
            launched[0] += 1
            domain = _LAUNCHED.format(launched[0])
            records[domain] = dataclasses.replace(edit[1], domain=domain)
            continue
        if not records:
            continue
        domain = sorted(records)[edit[1] % len(records)]
        if edit[0] == "retire":
            del records[domain]
        elif edit[0] == "modify":
            records[domain] = dataclasses.replace(edit[2], domain=domain)
        else:
            records[domain] = dataclasses.replace(records[domain],
                                                  sector=edit[2])


def _pool(domains) -> list:
    """Every kind and scope: lookups of served, not-yet-launched and
    never-served domains, every sector and one that never has domains,
    corpus-wide reads, and two malformed queries."""
    lookups = sorted(set(domains) | {_LAUNCHED.format(n) for n in (1, 2, 3)}
                     | {"absent.example", GOLDEN[0].domain})
    sectors = SECTORS + (GOLDEN[0].sector, "ZZ")
    return ([DomainLookup(domain) for domain in lookups]
            + [query for sector in sectors
               for query in _sector_queries(sector)]
            + [FacetFilter(facet="labels", status="annotated", sector="HC"),
               ComplianceScan(pack="ccpa", rule="ccpa.sale-opt-out",
                              sector="FI"),
               PredicateQuery(predicate=json.dumps(
                   {"op": "not", "test": json.loads(_PREDICATE)}),
                   evidence=True),
               DomainLookup(""),
               TopDescriptors(facet="types", k=0, sector="FI")]
            + _corpus_queries())


def _expected(engine: QueryEngine, query) -> tuple[str, str]:
    try:
        return "ok", engine.execute(query).to_json()
    except QueryError as exc:
        return "error", str(exc)


@given(initial=st.lists(_content, min_size=1, max_size=6), shards=_shards,
       swaps=st.lists(_swap, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_every_answer_equals_a_fresh_engine(initial, shards, swaps):
    _check_swaps(initial, shards, swaps)


@pytest.mark.slow
@given(initial=st.lists(_content, min_size=1, max_size=10), shards=_shards,
       swaps=st.lists(_swap, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_every_answer_equals_a_fresh_engine_deep(initial, shards, swaps):
    """The slow lane runs longer swap sequences at 10x the examples."""
    _check_swaps(initial, shards, swaps)


def _check_swaps(initial, shards, swaps) -> None:
    """Serve ``initial`` (after one golden record), then after the start
    and after each swap read the pool twice, the first time through the
    inline fast path and the second through the worker queue."""
    records = {GOLDEN[0].domain: GOLDEN[0]}
    for number, content in enumerate(initial):
        domain = f"site{number}.example"
        records[domain] = dataclasses.replace(content, domain=domain)
    pool = _pool(records)
    launched = [0]
    served, snapshot = _served(records, shards)
    with AnnotationServer(served, ServerConfig(shards=shards or 1)) \
            as server:
        for edits in [None] + swaps:
            if edits is not None:
                _apply(edits, records, launched)
                served, snapshot = _served(records, shards)
                report = server.swap_snapshot(served)
            engine = QueryEngine(CorpusIndex.build(snapshot))
            for query in pool:
                expected = _expected(engine, query)
                first = server.try_cached(query) \
                    or server.submit(query).result(timeout=30)
                second = server.submit(query).result(timeout=30)
                assert (first.status, first.body) == expected, query
                assert (second.status, second.body) == expected, query
                # Within one generation a second read always hits, and
                # a swap to the same content keeps every answer.
                assert second.cached == second.ok, query
                if edits is not None and not report.changed:
                    assert first.cached == first.ok, query


# -- cost ----------------------------------------------------------------


@pytest.mark.parametrize("shards", [None, 4])
def test_a_swap_hashes_its_new_records_and_written_sectors(shards,
                                                           monkeypatch):
    """A cold build hashes every record once and every sector once; a
    swap of K = 3 records hashes exactly those 3 records and the sectors
    whose domain list it wrote, at either corpus size."""
    hashed_records: list[str] = []
    hashed_sectors: list[str] = []
    digest = DomainAnnotations.digest
    sector_digest = index_mod._sector_digest

    def counting_digest(record):
        if "_digest" not in vars(record):
            hashed_records.append(record.domain)
        return digest(record)

    def counting_sector_digest(domains, by_domain):
        hashed_sectors.append(by_domain[domains[0]].sector)
        return sector_digest(domains, by_domain)

    monkeypatch.setattr(DomainAnnotations, "digest", counting_digest)
    monkeypatch.setattr(index_mod, "_sector_digest", counting_sector_digest)
    for size in (12, 48):
        records = {}
        for number in range(size):
            domain = f"site{number:02d}.example"
            records[domain] = dataclasses.replace(
                ANNOTATED[number % len(ANNOTATED)], domain=domain,
                sector=SECTORS[number % len(SECTORS)])
        served, _ = _served(records, shards)
        server = AnnotationServer(served, ServerConfig(shards=shards or 1))
        assert sorted(hashed_records) == sorted(records)
        assert sorted(hashed_sectors) == sorted(SECTORS)
        del hashed_records[:], hashed_sectors[:]
        # An edit in FI, a move from HC to FI, and a launch into FI: ED
        # is untouched.
        assert records["site00.example"].sector == "FI"
        assert records["site01.example"].sector == "HC"
        records["site00.example"] = _edited(records["site00.example"])
        records["site01.example"] = dataclasses.replace(
            records["site01.example"], sector="FI")
        records["zz-new.example"] = dataclasses.replace(
            ANNOTATED[0], domain="zz-new.example", sector="FI")
        served, _ = _served(records, shards)
        server.swap_snapshot(served)
        assert sorted(hashed_records) == \
            ["site00.example", "site01.example", "zz-new.example"], size
        assert sorted(hashed_sectors) == ["FI", "HC"], size
        del hashed_records[:], hashed_sectors[:]
