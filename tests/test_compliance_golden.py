"""Golden regression for compiled logical forms and rule-pack verdicts.

``tests/golden/compliance_forms.json`` pins every golden domain's
compiled :class:`LogicalForm` (fingerprint included);
``tests/golden/compliance_verdicts.json`` pins the full GDPR and CCPA
scan payloads as served; ``tests/golden/compliance_predicates.json``
pins the served bytes of seeded predicate answers, with and without
evidence. The engine and the oracle share the evidence helpers, so only
this file catches a change to evidence order or dedup. Bless an
*intentional* compiler, rule or evidence change with::

    PYTHONPATH=src python -m pytest tests/test_compliance_golden.py \
        --update-golden

The sabotage tests prove the diff has teeth: a deliberately corrupted
compiler output or record mutation must be caught, never absorbed.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro._util.artifacts import canonical_json
from repro.compliance import (
    OPT_OUT_CHOICE_LABELS,
    AllOf,
    AnyOf,
    Atom,
    AtomTest,
    Negate,
    ReferenceEvaluator,
    compile_corpus,
    compile_record,
    random_predicate,
)
from repro.pipeline.records import read_jsonl
from repro.serve import (
    AnnotationServer,
    ComplianceScan,
    PredicateQuery,
    build_snapshot,
)
from repro.serve.index import COMPLIANCE_PACKS

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FORMS = GOLDEN_DIR / "compliance_forms.json"
GOLDEN_VERDICTS = GOLDEN_DIR / "compliance_verdicts.json"
GOLDEN_PREDICATES = GOLDEN_DIR / "compliance_predicates.json"

#: Seed and size of the random predicate set the predicate golden pins.
PREDICATE_SEED = 20241018
N_GOLDEN_PREDICATES = 40


@pytest.fixture(scope="module")
def golden_records():
    path = GOLDEN_DIR / "records.jsonl"
    if not path.exists():
        pytest.fail("tests/golden/records.jsonl missing; regenerate with "
                    "`pytest tests/test_golden_corpus.py --update-golden`")
    return read_jsonl(path)


@pytest.fixture(scope="module")
def compiled(golden_records):
    return compile_corpus(list(golden_records))


@pytest.fixture(scope="module")
def served_scans(golden_records):
    """Every pack's full scan, as served through the query layer."""
    snapshot = build_snapshot(list(golden_records), source="golden")
    with AnnotationServer(snapshot) as server:
        responses = {name: server.request(ComplianceScan(pack=name))
                     for name in COMPLIANCE_PACKS}
    assert all(r.ok for r in responses.values())
    return {name: json.loads(r.body) for name, r in responses.items()}


@pytest.fixture(scope="module")
def golden_forms(request, compiled):
    if request.config.getoption("--update-golden"):
        payload = {
            "corpus_fingerprint": compiled.fingerprint,
            "forms": {form.domain: json.loads(form.to_json())
                      for form in compiled.forms},
        }
        GOLDEN_FORMS.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if not GOLDEN_FORMS.exists():
        pytest.fail("tests/golden/compliance_forms.json missing; regenerate "
                    "with `pytest tests/test_compliance_golden.py "
                    "--update-golden`")
    return json.loads(GOLDEN_FORMS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_verdicts(request, served_scans):
    if request.config.getoption("--update-golden"):
        GOLDEN_VERDICTS.write_text(
            json.dumps({"scans": served_scans}, indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
    if not GOLDEN_VERDICTS.exists():
        pytest.fail("tests/golden/compliance_verdicts.json missing; "
                    "regenerate with `pytest "
                    "tests/test_compliance_golden.py --update-golden`")
    return json.loads(GOLDEN_VERDICTS.read_text(encoding="utf-8"))


def golden_predicates(forms) -> list:
    """The pinned predicate set: seeded random trees over the corpus's
    atoms, plus the opt-out example of :mod:`repro.compliance.predicate`."""
    pool = sorted({atom for form in forms for atom in form.atoms()},
                  key=Atom.key)
    rng = random.Random(PREDICATE_SEED)
    preds = [random_predicate(rng, pool) for _ in range(N_GOLDEN_PREDICATES)]
    preds.append(AllOf((
        AtomTest(aspect="purposes", category="Data sharing"),
        AtomTest(aspect="purposes", name="targeted advertising"),
        Negate(AnyOf(tuple(
            AtomTest(aspect="rights", category="User choices", name=label)
            for label in OPT_OUT_CHOICE_LABELS))),
    )))
    return preds


@pytest.fixture(scope="module")
def golden_predicate_answers(request, golden_records, compiled):
    if request.config.getoption("--update-golden"):
        queries = [PredicateQuery.from_predicate(pred, evidence=evidence)
                   for pred in golden_predicates(compiled.forms)
                   for evidence in (False, True)]
        snapshot = build_snapshot(list(golden_records), source="golden")
        with AnnotationServer(snapshot) as server:
            responses = [server.request(query) for query in queries]
        assert all(r.ok for r in responses)
        answers = [{"predicate": query.predicate,
                    "evidence": query.evidence,
                    "body": json.loads(response.body)}
                   for query, response in zip(queries, responses)]
        GOLDEN_PREDICATES.write_text(
            json.dumps({"seed": PREDICATE_SEED, "answers": answers},
                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not GOLDEN_PREDICATES.exists():
        pytest.fail("tests/golden/compliance_predicates.json missing; "
                    "regenerate with `pytest "
                    "tests/test_compliance_golden.py --update-golden`")
    return json.loads(GOLDEN_PREDICATES.read_text(encoding="utf-8"))


def test_corpus_fingerprint_matches_golden(compiled, golden_forms):
    assert compiled.fingerprint == golden_forms["corpus_fingerprint"]


def test_every_compiled_form_matches_golden(compiled, golden_forms):
    assert {f.domain for f in compiled.forms} == set(golden_forms["forms"])
    for form in compiled.forms:
        assert json.loads(form.to_json()) == \
            golden_forms["forms"][form.domain], (
                f"compiled form drifted for {form.domain}")


def test_served_scans_match_golden(served_scans, golden_verdicts):
    for name in COMPLIANCE_PACKS:
        assert served_scans[name] == golden_verdicts["scans"][name], (
            f"served {name} scan drifted from "
            f"tests/golden/compliance_verdicts.json")


def test_served_predicate_answers_match_golden(golden_records,
                                              golden_predicate_answers):
    """Every pinned predicate answer is served byte for byte: domain
    lists, evidence spans, their order and their dedup."""
    answers = golden_predicate_answers["answers"]
    assert len(answers) == 2 * (N_GOLDEN_PREDICATES + 1)
    snapshot = build_snapshot(list(golden_records), source="golden")
    with AnnotationServer(snapshot) as server:
        for i, entry in enumerate(answers):
            response = server.request(PredicateQuery(
                predicate=entry["predicate"], evidence=entry["evidence"]))
            assert response.ok, f"predicate #{i}: {response.body}"
            assert response.body == canonical_json(entry["body"]), (
                f"predicate #{i} evidence={entry['evidence']} drifted from "
                f"tests/golden/compliance_predicates.json")


def test_oracle_agrees_with_golden_verdicts(golden_records, golden_verdicts):
    """The golden files pin the *oracle's* answers too — serve and oracle
    cannot drift apart without one of them tripping this file."""
    oracle = ReferenceEvaluator(list(golden_records))
    for name in COMPLIANCE_PACKS:
        assert oracle.scan(name) == \
            golden_verdicts["scans"][name]["payload"]


# -- sabotage: the diff must have teeth ----------------------------------


def _sabotaged_records(records):
    """Three distinct corruptions of the first annotated record."""
    annotated = next(r for r in records if r.status == "annotated"
                     and r.annotation_count() > 0)
    rest = [r for r in records if r is not annotated]

    if annotated.types:
        aspect, mutated_list = "types", list(annotated.types)
    else:
        aspect, mutated_list = "rights", list(annotated.rights)
    victim = mutated_list[0]

    # 1. dropped annotation
    yield "dropped annotation", rest + [_replace(annotated, aspect,
                                                 mutated_list[1:])]
    # 2. edited verbatim evidence
    edited = dataclasses.replace(victim, verbatim=victim.verbatim + " NOT")
    yield "edited verbatim", rest + [_replace(annotated, aspect,
                                              [edited] + mutated_list[1:])]
    # 3. flipped status
    yield "flipped status", rest + [_status(annotated, "no-annotations")]


def _replace(record, aspect, new_list):
    kwargs = {a: list(getattr(record, a))
              for a in ("types", "purposes", "handling", "rights")}
    kwargs[aspect] = new_list
    from repro.pipeline.records import DomainAnnotations

    return DomainAnnotations(domain=record.domain, sector=record.sector,
                             status=record.status, **kwargs)


def _status(record, status):
    from repro.pipeline.records import DomainAnnotations

    return DomainAnnotations(domain=record.domain, sector=record.sector,
                             status=status, types=list(record.types),
                             purposes=list(record.purposes),
                             handling=list(record.handling),
                             rights=list(record.rights))


def test_sabotaged_compiler_input_is_caught(golden_records, golden_forms):
    """Every corruption moves the corpus fingerprint AND at least one
    pinned form — a silent pass here would mean the golden diff is
    blind."""
    for label, sabotaged in _sabotaged_records(list(golden_records)):
        corrupt = compile_corpus(sabotaged)
        assert corrupt.fingerprint != golden_forms["corpus_fingerprint"], (
            f"sabotage {label!r} did not move the corpus fingerprint")
        drifted = [
            form.domain for form in corrupt.forms
            if json.loads(form.to_json())
            != golden_forms["forms"][form.domain]
        ]
        assert drifted, f"sabotage {label!r} matched every golden form"


def test_sabotaged_verdicts_are_caught(golden_records, golden_verdicts):
    """A sabotaged corpus must also change at least one served verdict
    payload (rules read evidence, so corruption reaches verdicts)."""
    caught = 0
    for label, sabotaged in _sabotaged_records(list(golden_records)):
        snapshot = build_snapshot(list(sabotaged), source="golden")
        with AnnotationServer(snapshot) as server:
            response = server.request(ComplianceScan(pack="gdpr"))
        assert response.ok
        if json.loads(response.body) != golden_verdicts["scans"]["gdpr"]:
            caught += 1
    assert caught >= 2, (
        "verdict golden caught too few sabotages — evidence spans are "
        "not reaching the payloads")


def test_evidence_spans_point_at_real_segments(served_scans, golden_records):
    """Every evidence span in a served verdict quotes a verbatim string
    that actually appears in that domain's record."""
    verbatims = {
        r.domain: {a.verbatim for aspect in ("types", "purposes",
                                             "handling", "rights")
                   for a in getattr(r, aspect)}
        for r in golden_records}
    checked = 0
    for name in COMPLIANCE_PACKS:
        for rule in served_scans[name]["payload"]["rules"]:
            for domain, row in rule["verdicts"].items():
                for span in row["evidence"]:
                    assert span["verbatim"] in verbatims[domain], (
                        f"{rule['id']}/{domain}: fabricated evidence")
                    checked += 1
    assert checked > 0, "no evidence spans served at all"


def test_compile_record_agrees_with_corpus_compile(golden_records, compiled):
    by_domain = compiled.by_domain()
    for record in golden_records:
        assert compile_record(record) == by_domain[record.domain]
