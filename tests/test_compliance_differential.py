"""Differential harness: indexed compliance serving vs brute-force oracle.

The indexed path (set algebra over posting lists, precomputed verdict
rows, the server's hot-result cache) must be *byte-identical* to
:class:`repro.compliance.ReferenceEvaluator`, which recompiles every
record on every query. Seeded random predicate queries and every
pack/rule/sector scan are pushed through a live
:class:`AnnotationServer` twice — cold cache, then warm — and each
response body is compared against the oracle's canonical rendering.
The set-algebra evaluator is also checked directly: its domain set must
equal the brute-force ``holds`` set, on a single index and on a sharded
snapshot's merged index, for the seeded predicates plus hand-written
corner cases.

The slow lane additionally rebuilds the corpus through serial and
process-parallel pipeline executions and checks both snapshots serve
the same bytes.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from repro._util.artifacts import canonical_json
from repro.compliance import (
    AllOf,
    AnyOf,
    Atom,
    AtomTest,
    Negate,
    ReferenceEvaluator,
    SameSegment,
    random_predicate,
)
from repro.pipeline.records import read_jsonl
from repro.serve import (
    AnnotationServer,
    ComplianceScan,
    PredicateQuery,
    build_snapshot,
)
from repro.serve.index import COMPLIANCE_PACKS, CorpusIndex

GOLDEN_DIR = Path(__file__).parent / "golden"

#: How many seeded random predicates the differential sweep runs.
N_PREDICATES = 40


@pytest.fixture(scope="module")
def golden_records():
    path = GOLDEN_DIR / "records.jsonl"
    if not path.exists():
        pytest.fail("tests/golden/records.jsonl missing; regenerate with "
                    "`pytest tests/test_golden_corpus.py --update-golden`")
    return read_jsonl(path)


@pytest.fixture(scope="module")
def golden_snapshot(golden_records):
    return build_snapshot(list(golden_records), source="golden")


@pytest.fixture(scope="module")
def oracle(golden_records):
    return ReferenceEvaluator(list(golden_records))


@pytest.fixture(scope="module")
def atom_pool(golden_snapshot):
    """Real atoms from the compiled corpus, plus misses, for generators."""
    index = CorpusIndex.build(golden_snapshot)
    pool = [atom for atoms in index.atoms_by_aspect.values()
            for atom in atoms]
    assert pool, "golden corpus compiled to zero atoms"
    return pool


def oracle_body(kind: str, payload: dict) -> str:
    """The byte-exact response body the server must produce."""
    return canonical_json({"kind": kind, "payload": payload})


def assert_served_matches(server, query, expected: str, label: str) -> None:
    cold = server.request(query)
    warm = server.request(query)
    assert cold.ok and warm.ok, f"[{label}] serve failed"
    assert cold.body == expected, f"[{label}] cold response drifted"
    assert warm.body == expected, f"[{label}] warm (cached) drifted"


def test_random_predicates_match_oracle_cold_and_warm(golden_snapshot,
                                                      oracle, atom_pool):
    rng = random.Random(20240807)
    with AnnotationServer(golden_snapshot) as server:
        hits = 0
        for i in range(N_PREDICATES):
            pred = random_predicate(rng, atom_pool)
            for evidence in (False, True):
                query = PredicateQuery.from_predicate(pred,
                                                      evidence=evidence)
                payload = oracle.predicate(pred, evidence=evidence)
                assert_served_matches(
                    server, query, oracle_body("predicate", payload),
                    f"predicate #{i} evidence={evidence}")
                hits += payload["count"]
    assert hits > 0, "sweep never matched a domain — generator is too cold"


def _sectors(golden_records):
    return sorted({r.sector for r in golden_records})[:2]


def test_every_scan_slice_matches_oracle_cold_and_warm(golden_snapshot,
                                                       golden_records,
                                                       oracle):
    from repro.compliance import get_pack

    with AnnotationServer(golden_snapshot) as server:
        for pack_name in COMPLIANCE_PACKS:
            rules = [None] + get_pack(pack_name).rule_ids()
            sectors = [None] + _sectors(golden_records)
            for rule in rules:
                for sector in sectors:
                    query = ComplianceScan(pack=pack_name, rule=rule,
                                           sector=sector)
                    expected = oracle_body(
                        "compliance",
                        oracle.scan(pack_name, rule_id=rule, sector=sector))
                    assert_served_matches(
                        server, query, expected,
                        f"scan {pack_name}/{rule}/{sector}")


#: An atom test no policy satisfies.
MATCHES_NOTHING = AtomTest(aspect="types", category="No Such Category",
                           negated=None)


def _exact(atom: Atom) -> AtomTest:
    return AtomTest(aspect=atom.aspect, category=atom.category,
                    name=atom.name, negated=atom.negated)


def _apart(forms):
    """``(domain, a, b)``: two atoms one domain asserts, never on a shared
    line of that domain."""
    for form in forms:
        lines: dict[Atom, set[int]] = {}
        for clause in form.clauses:
            for atom in clause.atoms():
                lines.setdefault(atom, set()).add(clause.line)
        for a, b in itertools.combinations(form.atoms(), 2):
            if not lines[a] & lines[b]:
                return form.domain, a, b
    raise AssertionError("no domain asserts two atoms on distinct lines")


def hand_written_predicates(forms) -> list:
    """Edge cases of the set algebra a seeded sweep may not draw."""
    _, a, b = _apart(forms)
    some = _exact(a)
    return [
        Negate(MATCHES_NOTHING),
        SameSegment((_exact(a), _exact(b))),
        Negate(Negate(some)),
        AllOf((some, MATCHES_NOTHING)),
        AnyOf((some, MATCHES_NOTHING)),
    ]


def test_pruning_never_drops_a_match(golden_snapshot, atom_pool):
    """The set-algebra evaluator is exact, not a superset: over a single
    index and over the merged index of a 4-shard snapshot, its domains
    are exactly those whose compiled form ``holds`` the predicate."""
    from repro.compliance import holds
    from repro.serve import QueryEngine, ShardedEngine, partition_snapshot

    single = CorpusIndex.build(golden_snapshot)
    merged = ShardedEngine(partition_snapshot(golden_snapshot, 4)).index
    rng = random.Random(987654)
    preds = [random_predicate(rng, atom_pool) for _ in range(N_PREDICATES)]
    preds += hand_written_predicates(single.logical_forms)
    for label, index in (("single", single), ("sharded", merged)):
        engine = QueryEngine(index)
        for i, pred in enumerate(preds):
            brute = {form.domain for form in index.logical_forms
                     if holds(pred, form)}
            exact = index.satisfying_domains(pred)
            assert exact == brute, (
                f"{label} predicate #{i}: extra {sorted(exact - brute)}, "
                f"missing {sorted(brute - exact)}")
            result = engine.execute(PredicateQuery.from_predicate(pred))
            assert result.payload["domains"] == sorted(brute)


def test_hand_written_cases_test_what_they_claim(golden_snapshot):
    """Each hand-written case reaches the corner it is named for."""
    index = CorpusIndex.build(golden_snapshot)
    forms = index.logical_forms
    negated_nothing, apart, double, all_of, any_of = \
        hand_written_predicates(forms)
    bare = {form.domain for form in forms if not form.clauses}
    assert bare, "golden corpus has no domain without clauses"
    assert index.satisfying_domains(negated_nothing) == set(index.by_domain)
    domain, _, _ = _apart(forms)
    assert domain in index.satisfying_domains(AllOf(apart.tests))
    assert domain not in index.satisfying_domains(apart)
    some = double.test.test
    assert index.satisfying_domains(double) == \
        index.satisfying_domains(some) != set()
    assert index.satisfying_domains(all_of) == set()
    assert index.satisfying_domains(any_of) == \
        index.satisfying_domains(some)


def test_shuffled_record_order_serves_identical_bytes(golden_records,
                                                      oracle):
    """Snapshot canonicalisation: build order cannot leak into answers."""
    shuffled = list(golden_records)
    random.Random(7).shuffle(shuffled)
    snapshot = build_snapshot(shuffled, source="golden")
    query = ComplianceScan(pack="gdpr")
    expected = oracle_body("compliance", oracle.scan("gdpr"))
    with AnnotationServer(snapshot) as server:
        assert_served_matches(server, query, expected, "shuffled build")


@pytest.mark.slow
def test_serial_and_process_built_snapshots_serve_identical_bytes(
        small_corpus):
    """The acceptance bar end to end: snapshots built from a serial and a
    process-parallel pipeline run serve byte-identical compliance answers,
    and both match the oracle over the run's own records."""
    from repro.pipeline import ExecutorOptions, PipelineOptions, run_pipeline
    from tests.test_golden_corpus import GOLDEN_DOMAINS

    serial = run_pipeline(small_corpus, PipelineOptions(),
                          domains=GOLDEN_DOMAINS)
    parallel = run_pipeline(
        small_corpus, PipelineOptions(), domains=GOLDEN_DOMAINS,
        executor=ExecutorOptions(workers=4, shard_size=4,
                                 backend="process"))
    snapshots = [build_snapshot(r.records, source="pipeline-result")
                 for r in (serial, parallel)]
    assert snapshots[0].fingerprint == snapshots[1].fingerprint
    reference = ReferenceEvaluator(list(serial.records))
    pool_index = CorpusIndex.build(snapshots[0])
    pool = [atom for atoms in pool_index.atoms_by_aspect.values()
            for atom in atoms]
    rng = random.Random(13)
    queries = [ComplianceScan(pack=name) for name in COMPLIANCE_PACKS]
    expected = {id(q): oracle_body("compliance", reference.scan(q.pack))
                for q in queries}
    preds = [random_predicate(rng, pool) for _ in range(10)]
    for pred in preds:
        queries.append(PredicateQuery.from_predicate(pred))
        expected[id(queries[-1])] = oracle_body(
            "predicate", reference.predicate(pred))
    for snapshot in snapshots:
        with AnnotationServer(snapshot) as server:
            for query in queries:
                assert_served_matches(server, query, expected[id(query)],
                                      f"{snapshot.source} {query}")
