"""Compliance query layer: compile annotations to an evaluable logic.

The chatbot pipeline answers "what does domain X's policy say"; this
package (PolicyLR-style, see PAPERS.md) makes the corpus answer *policy
questions*:

1. :mod:`repro.compliance.logic` — compile each domain's
   :class:`~repro.pipeline.records.DomainAnnotations` into a canonical,
   content-fingerprinted :class:`LogicalForm` (atoms over
   aspect × category × name × negation, conjunctive clauses per verbatim
   segment).
2. :mod:`repro.compliance.predicate` — a closed predicate language
   (atom tests, and/or/not, same-segment conjunction) with canonical
   JSON payloads, pure evaluation, and evidence-span extraction.
3. :mod:`repro.compliance.rules` — declarative GDPR/CCPA-style rule
   packs yielding ``satisfied``/``violated``/``unknown`` verdicts with
   evidence back to verbatim segments.
4. :mod:`repro.compliance.oracle` — the brute-force record-scan
   reference evaluator the indexed serving path is differentially
   tested against.

Compilation is deterministic, so every compiled form, query answer, and
verdict is golden-pinnable; the serving integration lives in
:mod:`repro.serve` (atom and clause posting lists that answer
predicates by set algebra, ``PredicateQuery`` / ``ComplianceScan``
query classes, the ``compliance`` CLI subcommand).
"""

from repro.compliance.logic import (
    ATOM_ASPECTS,
    Atom,
    AtomEvidence,
    Clause,
    CompiledCorpus,
    EvidenceSpan,
    LogicalForm,
    compile_corpus,
    compile_record,
)
from repro.compliance.oracle import (
    ReferenceEvaluator,
    predicate_answer_payload,
    random_atom_test,
    random_predicate,
)
from repro.compliance.predicate import (
    OPT_OUT_CHOICE_LABELS,
    AllOf,
    AnyOf,
    AtomTest,
    Negate,
    Predicate,
    SameSegment,
    holds,
    matching_atoms,
    parse_predicate,
    predicate_fingerprint,
    predicate_from_payload,
    predicate_payload,
    predicate_to_json,
    refute_spans,
    support_spans,
)
from repro.compliance.rules import (
    CCPA_PACK,
    GDPR_PACK,
    MAX_EVIDENCE_SPANS,
    RULE_PACKS,
    VERDICTS,
    ComplianceRule,
    RulePack,
    evaluate_rule,
    get_pack,
    load_rule_pack,
    pack_from_payload,
    pack_rows,
    rule_from_payload,
    scan_forms,
    scan_payload,
)

__all__ = [
    "ATOM_ASPECTS",
    "Atom",
    "AtomEvidence",
    "Clause",
    "CompiledCorpus",
    "EvidenceSpan",
    "LogicalForm",
    "compile_corpus",
    "compile_record",
    "ReferenceEvaluator",
    "predicate_answer_payload",
    "random_atom_test",
    "random_predicate",
    "OPT_OUT_CHOICE_LABELS",
    "AllOf",
    "AnyOf",
    "AtomTest",
    "Negate",
    "Predicate",
    "SameSegment",
    "holds",
    "matching_atoms",
    "parse_predicate",
    "predicate_fingerprint",
    "predicate_from_payload",
    "predicate_payload",
    "predicate_to_json",
    "refute_spans",
    "support_spans",
    "CCPA_PACK",
    "GDPR_PACK",
    "MAX_EVIDENCE_SPANS",
    "RULE_PACKS",
    "VERDICTS",
    "ComplianceRule",
    "RulePack",
    "evaluate_rule",
    "get_pack",
    "load_rule_pack",
    "pack_from_payload",
    "pack_rows",
    "rule_from_payload",
    "scan_forms",
    "scan_payload",
]
