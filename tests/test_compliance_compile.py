"""Property suite for the logical-form compiler.

Three properties pin the compiler's canonicalisation contract:

1. **Order invariance** — a record's compiled form (and fingerprint) is
   a pure function of its annotation *content*; shuffling any annotation
   list changes nothing.
2. **Round-trip** — every compiled form survives
   ``LogicalForm.from_json(form.to_json())`` exactly, fingerprint
   included, and a tampered serialisation fails fingerprint
   verification.
3. **Mutation sensitivity** — any mutation that changes an annotation's
   content (descriptor, verbatim, line, detail fields like retention
   periods) moves the fingerprint. The golden diff has no blind spots.

Predicate payloads get the same treatment: every generated tree
round-trips through its canonical JSON, and evaluation agrees with a
naive model of the semantics.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro._util.artifacts import canonical_json
from repro.compliance import (
    AllOf,
    AnyOf,
    Atom,
    AtomTest,
    LogicalForm,
    Negate,
    SameSegment,
    compile_corpus,
    compile_record,
    holds,
    matching_atoms,
    parse_predicate,
    predicate_from_payload,
    predicate_payload,
    predicate_to_json,
    support_spans,
)
from repro.errors import ComplianceError
from repro.pipeline.records import (
    DomainAnnotations,
    HandlingAnnotation,
    PurposeAnnotation,
    RightsAnnotation,
    TypeAnnotation,
)

#: The mutation sentinel — outside every strategy alphabet below, so a
#: mutated field value is guaranteed fresh (no dedup collision can mask
#: the change).
SENTINEL = "§mutated§"

_WORDS = st.text(alphabet="abcdefgh ", min_size=1, max_size=20)
#: Some verbatims carry negation triggers so compilation exercises the
#: negated-atom path.
_VERBATIMS = st.one_of(
    _WORDS,
    st.sampled_from([
        "we do not sell your personal information",
        "we will never share your email address",
        "your data is retained for two years",
    ]),
)
_CATEGORIES = st.sampled_from(["Contact data", "Location data",
                               "Data sharing", "Advertising & sales"])
_NAMES = st.sampled_from(["email address", "precise location",
                          "data for sale", "targeted advertising"])
_GROUPS = st.sampled_from(["Data retention", "Data protection",
                           "User choices", "User access"])
_LABELS = st.sampled_from(["Limited", "Indefinitely", "Generic",
                           "Opt-out via link", "Full delete", "View"])
_LINES = st.integers(min_value=0, max_value=30)


@st.composite
def type_annotations(draw):
    return TypeAnnotation(category=draw(_CATEGORIES),
                          meta_category=draw(_WORDS),
                          descriptor=draw(_NAMES),
                          verbatim=draw(_VERBATIMS),
                          line=draw(_LINES),
                          novel=draw(st.booleans()))


@st.composite
def purpose_annotations(draw):
    return PurposeAnnotation(category=draw(_CATEGORIES),
                             meta_category=draw(_WORDS),
                             descriptor=draw(_NAMES),
                             verbatim=draw(_VERBATIMS),
                             line=draw(_LINES),
                             novel=draw(st.booleans()))


@st.composite
def handling_annotations(draw):
    period_days = draw(st.one_of(st.none(),
                                 st.integers(min_value=1, max_value=3650)))
    return HandlingAnnotation(group=draw(_GROUPS), label=draw(_LABELS),
                              verbatim=draw(_VERBATIMS), line=draw(_LINES),
                              period_text=draw(st.one_of(st.none(), _WORDS)),
                              period_days=period_days)


@st.composite
def rights_annotations(draw):
    return RightsAnnotation(group=draw(_GROUPS), label=draw(_LABELS),
                            verbatim=draw(_VERBATIMS), line=draw(_LINES))


@st.composite
def records(draw, min_annotations=0):
    record = DomainAnnotations(
        domain=draw(st.sampled_from(["acme.com", "initech.io", "hooli.net"])),
        sector=draw(st.sampled_from(["CD", "FI", "HC"])),
        status="annotated",
        types=draw(st.lists(type_annotations(), max_size=4)),
        purposes=draw(st.lists(purpose_annotations(), max_size=4)),
        handling=draw(st.lists(handling_annotations(), max_size=4)),
        rights=draw(st.lists(rights_annotations(), max_size=4)),
    )
    if record.annotation_count() < min_annotations:
        record = dataclasses.replace(record, types=record.types + tuple(draw(
            st.lists(type_annotations(), min_size=min_annotations,
                     max_size=min_annotations))))
    return record


@st.composite
def atom_tests(draw):
    return AtomTest(
        aspect=draw(st.sampled_from(["types", "purposes", "handling",
                                     "rights"])),
        category=draw(st.one_of(st.none(), _CATEGORIES, _GROUPS)),
        name=draw(st.one_of(st.none(), _NAMES, _LABELS)),
        negated=draw(st.sampled_from([False, True, None])),
    )


def predicates():
    return st.recursive(
        atom_tests(),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                lambda ts: AllOf(tuple(ts))),
            st.lists(children, min_size=1, max_size=3).map(
                lambda ts: AnyOf(tuple(ts))),
            children.map(Negate),
            st.lists(atom_tests(), min_size=1, max_size=3).map(
                lambda ts: SameSegment(tuple(ts))),
        ),
        max_leaves=8,
    )


# -- property 1: order invariance ----------------------------------------


@given(record=records(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compile_is_order_invariant(record, seed):
    import random

    rng = random.Random(seed)
    aspects = {}
    for aspect in ("types", "purposes", "handling", "rights"):
        aspects[aspect] = list(getattr(record, aspect))
        rng.shuffle(aspects[aspect])
    shuffled = DomainAnnotations(
        domain=record.domain, sector=record.sector, status=record.status,
        **aspects)
    assert compile_record(shuffled) == compile_record(record)
    assert compile_record(shuffled).fingerprint == \
        compile_record(record).fingerprint


@given(record=records())
def test_compiled_form_is_canonical(record):
    form = compile_record(record)
    lines = [clause.line for clause in form.clauses]
    assert lines == sorted(lines)
    for clause in form.clauses:
        keys = [entry.atom.key() for entry in clause.entries]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys), "duplicate atom in clause"
        assert clause.entries, "empty clause"


@given(record_lists=st.lists(records(), min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_corpus_fingerprint_ignores_record_order(record_lists, seed):
    import random

    shuffled = list(record_lists)
    random.Random(seed).shuffle(shuffled)
    # First-duplicate-wins: only compare when domains are unique, where
    # order genuinely cannot matter.
    if len({r.domain for r in record_lists}) == len(record_lists):
        assert compile_corpus(shuffled).fingerprint == \
            compile_corpus(record_lists).fingerprint


# -- property 2: round-trip ----------------------------------------------


@given(record=records())
def test_logical_form_round_trips_through_json(record):
    form = compile_record(record)
    back = LogicalForm.from_json(form.to_json())
    assert back == form
    assert back.fingerprint == form.fingerprint
    assert back.to_json() == form.to_json()


@given(record=records(min_annotations=1))
def test_tampered_serialization_fails_verification(record):
    import json

    form = compile_record(record)
    payload = json.loads(form.to_json())
    payload["sector"] = payload["sector"] + "X"
    with pytest.raises(ComplianceError, match="fingerprint"):
        LogicalForm.from_payload(payload)


@given(record=records())
def test_memoized_atoms_and_tokens_leave_the_form_unchanged(record):
    """``atoms()`` and ``token()`` are computed once and kept on the
    frozen objects; the memo must never reach equality, hashing,
    payloads or fingerprints."""
    form = compile_record(record)
    atoms = form.atoms()
    tokens = [atom.token() for atom in atoms]
    assert form.atoms() is atoms
    assert [atom.token() for atom in atoms] == tokens
    fresh = compile_record(record)
    assert form == fresh and fresh == form
    assert hash(form) == hash(fresh)
    assert form.to_json() == fresh.to_json()
    assert form.fingerprint == fresh.fingerprint
    assert LogicalForm.from_json(form.to_json()) == form
    assert atoms == tuple(sorted(
        {atom for clause in form.clauses for atom in clause.atoms()},
        key=Atom.key))
    for atom, token in zip(atoms, tokens):
        twin = Atom.from_payload(atom.to_payload())
        assert twin == atom and hash(twin) == hash(atom)
        assert token == canonical_json(atom.to_payload()) == twin.token()


@given(test=atom_tests(), record=records())
def test_matching_atoms_equals_a_full_scan(test, record):
    atoms = compile_record(record).atoms()
    assert matching_atoms(test, atoms) == \
        [atom for atom in atoms if test.matches(atom)]


# -- property 3: mutation sensitivity ------------------------------------


def _mutations(record):
    """Every single-field content mutation of one annotation, as fresh
    records. SENTINEL/huge-value mutations cannot collide with any
    generated value, so each one changes the record's content set."""
    for aspect in ("types", "purposes", "handling", "rights"):
        annotations = getattr(record, aspect)
        for i, ann in enumerate(annotations):
            fields = [f.name for f in dataclasses.fields(ann)]
            for name in fields:
                value = getattr(ann, name)
                if isinstance(value, bool):
                    continue  # flips can collide with a sibling duplicate
                if isinstance(value, str):
                    mutated = dataclasses.replace(
                        ann, **{name: value + SENTINEL})
                elif isinstance(value, int):
                    mutated = dataclasses.replace(
                        ann, **{name: value + 10_000})
                else:  # None detail field: give it a fresh value
                    mutated = dataclasses.replace(ann, **{name: 10_000})
                copies = list(annotations)
                copies[i] = mutated
                yield name, DomainAnnotations(
                    domain=record.domain, sector=record.sector,
                    status=record.status,
                    types=copies if aspect == "types" else record.types,
                    purposes=copies if aspect == "purposes"
                    else record.purposes,
                    handling=copies if aspect == "handling"
                    else record.handling,
                    rights=copies if aspect == "rights" else record.rights)


@given(record=records(min_annotations=1))
@settings(max_examples=50)
def test_any_content_mutation_moves_the_fingerprint(record):
    fingerprint = compile_record(record).fingerprint
    for field_name, mutated in _mutations(record):
        assert compile_record(mutated).fingerprint != fingerprint, (
            f"mutating {field_name!r} left the fingerprint unchanged")


@given(record=records(min_annotations=1))
def test_status_and_identity_mutations_move_the_fingerprint(record):
    fingerprint = compile_record(record).fingerprint
    for mutated in (
        DomainAnnotations(domain=record.domain + SENTINEL,
                          sector=record.sector, status=record.status,
                          types=record.types, purposes=record.purposes,
                          handling=record.handling, rights=record.rights),
        DomainAnnotations(domain=record.domain, sector=record.sector,
                          status="no-annotations", types=record.types,
                          purposes=record.purposes,
                          handling=record.handling, rights=record.rights),
    ):
        assert compile_record(mutated).fingerprint != fingerprint


# -- predicate payloads and semantics ------------------------------------


@given(pred=predicates())
def test_predicate_round_trips_through_payload_and_json(pred):
    assert predicate_from_payload(predicate_payload(pred)) == pred
    assert parse_predicate(predicate_to_json(pred)) == pred


@given(pred=predicates(), record=records())
def test_boolean_structure_agrees_with_naive_semantics(pred, record):
    form = compile_record(record)
    if isinstance(pred, AllOf):
        assert holds(pred, form) == all(holds(t, form) for t in pred.tests)
    elif isinstance(pred, AnyOf):
        assert holds(pred, form) == any(holds(t, form) for t in pred.tests)
    elif isinstance(pred, Negate):
        assert holds(pred, form) == (not holds(pred.test, form))
    elif isinstance(pred, SameSegment):
        # A segment conjunction is at least as strong as the whole-policy
        # conjunction of its tests.
        if holds(pred, form):
            assert holds(AllOf(pred.tests), form)


@given(test=atom_tests(), record=records())
def test_atom_support_spans_iff_holds(test, record):
    from repro.compliance import Atom

    form = compile_record(record)
    spans = support_spans(test, form)
    assert bool(spans) == holds(test, form)
    for span in spans:
        assert test.matches(Atom.from_payload(span["atom"]))
        assert any(clause.line == span["line"] for clause in form.clauses)


@pytest.mark.slow
@given(record=records(min_annotations=1))
@settings(max_examples=300, deadline=None)
def test_mutation_sensitivity_deep(record):
    """The slow lane re-runs mutation sensitivity at 6x the examples."""
    fingerprint = compile_record(record).fingerprint
    for field_name, mutated in _mutations(record):
        assert compile_record(mutated).fingerprint != fingerprint, (
            f"mutating {field_name!r} left the fingerprint unchanged")
