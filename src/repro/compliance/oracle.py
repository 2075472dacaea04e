"""Brute-force reference evaluator — the differential-testing oracle.

:class:`ReferenceEvaluator` answers every predicate query and compliance
scan by walking the raw :class:`~repro.pipeline.records.DomainAnnotations`
list: each record is compiled *at query time* and each domain decided
by :func:`~repro.compliance.predicate.holds` — no posting lists, no set
algebra, no precomputed verdict rows, no result cache. It is
deliberately the slowest correct implementation.

The fast path (:class:`repro.serve.index.CorpusIndex` +
:class:`repro.serve.query.QueryEngine`) must return byte-identical
payloads for every query; ``tests/test_compliance_differential.py`` and
``benchmarks/bench_compliance.py`` enforce exactly that. Both paths
share only the evidence and payload-shaping helpers — everything the
index layer adds (set algebra over postings, precomputation, caching,
slicing) is covered by the diff; evidence order and dedup are pinned by
``tests/golden/compliance_predicates.json`` instead.
"""

from __future__ import annotations

import random

from repro.compliance.logic import ATOM_ASPECTS, Atom, LogicalForm, \
    compile_record
from repro.compliance.predicate import (
    AllOf,
    AnyOf,
    AtomTest,
    Negate,
    Predicate,
    SameSegment,
    holds,
    predicate_fingerprint,
    predicate_payload,
    support_spans,
)
from repro.compliance.rules import MAX_EVIDENCE_SPANS, get_pack, scan_forms
from repro.pipeline.records import DomainAnnotations


def predicate_answer_payload(pred: Predicate, matched: list[LogicalForm],
                             total: int, *, evidence: bool) -> dict:
    """Canonical payload for one predicate answer (shared shape)."""
    payload = {
        "predicate": predicate_payload(pred),
        "predicate_fingerprint": predicate_fingerprint(pred),
        "scanned": total,
        "count": len(matched),
        "domains": [form.domain for form in matched],
    }
    if evidence:
        payload["evidence"] = {
            form.domain: support_spans(pred, form)[:MAX_EVIDENCE_SPANS]
            for form in matched}
    return payload


class ReferenceEvaluator:
    """Answers compliance queries by scanning raw records, per query."""

    def __init__(self, records: list[DomainAnnotations]):
        # Canonical (domain-sorted, first-duplicate-wins) record order —
        # the same layout a snapshot freezes, so answers line up.
        by_domain: dict[str, DomainAnnotations] = {}
        for record in records:
            by_domain.setdefault(record.domain, record)
        self._records = [by_domain[domain] for domain in sorted(by_domain)]

    def _compiled(self) -> list[LogicalForm]:
        """Recompile everything — per call, on purpose (brute force)."""
        return [compile_record(record) for record in self._records]

    def predicate(self, pred: Predicate, *, evidence: bool = False) -> dict:
        """Domains whose compiled form satisfies ``pred``."""
        forms = self._compiled()
        matched = [form for form in forms if holds(pred, form)]
        return predicate_answer_payload(pred, matched, len(forms),
                                        evidence=evidence)

    def scan(self, pack_name: str, *, rule_id: str | None = None,
             sector: str | None = None) -> dict:
        """Rule-pack verdicts for every (selected) domain."""
        return scan_forms(get_pack(pack_name), self._compiled(),
                          rule_id=rule_id, sector=sector)


def random_atom_test(rng: random.Random, pool: list[Atom]) -> AtomTest:
    """One seeded atom test, biased toward atoms the corpus asserts.

    ~15% of draws test a category nothing matches, so differential
    sweeps exercise the empty-answer path too.
    """
    if rng.random() < 0.15:
        return AtomTest(aspect=rng.choice(ATOM_ASPECTS),
                        category="No Such Category",
                        name=None,
                        negated=rng.choice([False, True, None]))
    atom = rng.choice(pool)
    return AtomTest(
        aspect=atom.aspect,
        category=atom.category if rng.random() < 0.8 else None,
        name=atom.name if rng.random() < 0.6 else None,
        negated=rng.choice([atom.negated, atom.negated, None]),
    )


def random_predicate(rng: random.Random, pool: list[Atom],
                     depth: int = 0) -> Predicate:
    """One seeded random predicate tree over a corpus's atom pool.

    The workhorse of the differential suites and the compliance bench:
    same ``rng`` state + same pool → same predicate, so sweeps are
    reproducible from a single seed.
    """
    if depth >= 2 or rng.random() < 0.4:
        return random_atom_test(rng, pool)
    op = rng.choice(["all", "any", "not", "segment"])
    if op == "not":
        return Negate(random_predicate(rng, pool, depth + 1))
    n = rng.randint(1, 3)
    if op == "segment":
        return SameSegment(tuple(random_atom_test(rng, pool)
                                 for _ in range(n)))
    node = AllOf if op == "all" else AnyOf
    return node(tuple(random_predicate(rng, pool, depth + 1)
                      for _ in range(n)))


__all__ = [
    "ReferenceEvaluator",
    "predicate_answer_payload",
    "random_atom_test",
    "random_predicate",
]
