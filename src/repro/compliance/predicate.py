"""Predicate expressions over compiled logical forms.

The query language the compliance layer evaluates: a small, closed AST
whose leaves test atoms and whose internal nodes combine them —

- :class:`AtomTest` — "the domain asserts an atom matching these
  constraints" (aspect required; category/name optional; ``negated``
  defaults to ``False`` so a plain test never matches a negated
  mention, and can be set to ``None`` to match either polarity).
- :class:`AllOf` / :class:`AnyOf` / :class:`Negate` — boolean structure.
- :class:`SameSegment` — conjunction *within one clause*: some single
  verbatim segment must assert atoms matching every inner test ("shares
  location **for advertising** in the same sentence").

Example — the ROADMAP's predicate, "domains that share data with third
parties for targeted advertising and offer no opt-out"::

    AllOf((
        AtomTest(aspect="purposes", category="Data sharing"),
        AtomTest(aspect="purposes", name="targeted advertising"),
        Negate(AnyOf(tuple(
            AtomTest(aspect="rights", category="User choices", name=label)
            for label in OPT_OUT_CHOICE_LABELS))),
    ))

Every node round-trips through a canonical JSON payload
(:func:`predicate_payload` / :func:`predicate_from_payload`), giving
predicates content fingerprints and letting them travel through the
serve layer as plain strings. Evaluation (:func:`holds`) is a pure
function of ``(predicate, LogicalForm)``; :func:`support_spans` /
:func:`refute_spans` walk the same tree to collect the verbatim
evidence behind an outcome.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Union

from repro._util.artifacts import canonical_json, content_digest
from repro.compliance.logic import ATOM_ASPECTS, Atom, LogicalForm
from repro.errors import PredicateError

#: User-choice labels that give users an actual control over their data.
#: ("Do not use" is deliberately excluded — "stop using the service" is
#: not an opt-out.)
OPT_OUT_CHOICE_LABELS = ("Opt-in", "Opt-out via contact",
                         "Opt-out via link", "Privacy settings")


@dataclass(frozen=True)
class AtomTest:
    """Leaf test: does any atom match these constraints?"""

    aspect: str
    category: str | None = None
    name: str | None = None
    #: ``False`` (default) matches only positive atoms, ``True`` only
    #: negated ones, ``None`` either polarity.
    negated: bool | None = False

    def matches(self, atom: Atom) -> bool:
        if atom.aspect != self.aspect:
            return False
        if self.category is not None and atom.category != self.category:
            return False
        if self.name is not None and atom.name != self.name:
            return False
        if self.negated is not None and atom.negated != self.negated:
            return False
        return True


@dataclass(frozen=True)
class AllOf:
    """Conjunction over the whole policy."""

    tests: tuple["Predicate", ...]


@dataclass(frozen=True)
class AnyOf:
    """Disjunction over the whole policy."""

    tests: tuple["Predicate", ...]


@dataclass(frozen=True)
class Negate:
    """Negation-as-absence: the inner predicate does not hold."""

    test: "Predicate"


@dataclass(frozen=True)
class SameSegment:
    """Some single clause satisfies every inner atom test at once."""

    tests: tuple[AtomTest, ...]


Predicate = Union[AtomTest, AllOf, AnyOf, Negate, SameSegment]


# -- payloads ------------------------------------------------------------


def predicate_payload(pred: Predicate) -> dict:
    """Canonical dict rendering of a predicate tree."""
    if isinstance(pred, AtomTest):
        return {"op": "atom", "aspect": pred.aspect,
                "category": pred.category, "name": pred.name,
                "negated": pred.negated}
    if isinstance(pred, AllOf):
        return {"op": "all",
                "tests": [predicate_payload(t) for t in pred.tests]}
    if isinstance(pred, AnyOf):
        return {"op": "any",
                "tests": [predicate_payload(t) for t in pred.tests]}
    if isinstance(pred, Negate):
        return {"op": "not", "test": predicate_payload(pred.test)}
    if isinstance(pred, SameSegment):
        return {"op": "segment",
                "tests": [predicate_payload(t) for t in pred.tests]}
    raise PredicateError(f"unknown predicate node {type(pred).__name__}")


def predicate_fingerprint(pred: Predicate) -> str:
    """Content-addressed identity of a predicate tree."""
    return content_digest(predicate_payload(pred))


def _require_keys(payload: dict, allowed: set[str]) -> None:
    extra = set(payload) - allowed
    if extra:
        raise PredicateError(
            f"predicate node carries unknown keys {sorted(extra)}; "
            f"allowed: {sorted(allowed)}")


def _atom_from_payload(payload: dict) -> AtomTest:
    _require_keys(payload, {"op", "aspect", "category", "name", "negated"})
    aspect = payload.get("aspect")
    if aspect not in ATOM_ASPECTS:
        raise PredicateError(
            f"atom test: unknown aspect {aspect!r}; expected one of "
            f"{ATOM_ASPECTS}")
    for field_name in ("category", "name"):
        value = payload.get(field_name)
        if value is not None and not isinstance(value, str):
            raise PredicateError(
                f"atom test: {field_name} must be a string or null, "
                f"got {value!r}")
    negated = payload.get("negated", False)
    if negated is not None and not isinstance(negated, bool):
        raise PredicateError(
            f"atom test: negated must be true/false/null, got {negated!r}")
    return AtomTest(aspect=aspect, category=payload.get("category"),
                    name=payload.get("name"), negated=negated)


def _tests_from_payload(payload: dict, op: str) -> tuple[Predicate, ...]:
    tests = payload.get("tests")
    if not isinstance(tests, list) or not tests:
        raise PredicateError(f"{op!r} node needs a non-empty 'tests' list")
    return tuple(predicate_from_payload(t) for t in tests)


def predicate_from_payload(payload) -> Predicate:
    """Parse and validate one predicate payload (inverse of
    :func:`predicate_payload`)."""
    if not isinstance(payload, dict):
        raise PredicateError(
            f"predicate node must be an object, got {type(payload).__name__}")
    op = payload.get("op")
    if op == "atom":
        return _atom_from_payload(payload)
    if op == "all":
        _require_keys(payload, {"op", "tests"})
        return AllOf(tests=_tests_from_payload(payload, op))
    if op == "any":
        _require_keys(payload, {"op", "tests"})
        return AnyOf(tests=_tests_from_payload(payload, op))
    if op == "not":
        _require_keys(payload, {"op", "test"})
        if "test" not in payload:
            raise PredicateError("'not' node needs a 'test' child")
        return Negate(test=predicate_from_payload(payload["test"]))
    if op == "segment":
        _require_keys(payload, {"op", "tests"})
        tests = _tests_from_payload(payload, op)
        bad = [t for t in tests if not isinstance(t, AtomTest)]
        if bad:
            raise PredicateError(
                "'segment' children must all be atom tests (a segment "
                "conjunction ranges over one clause's atoms)")
        return SameSegment(tests=tests)  # type: ignore[arg-type]
    raise PredicateError(
        f"unknown predicate op {op!r}; expected one of "
        f"('atom', 'all', 'any', 'not', 'segment')")


def parse_predicate(raw: str) -> Predicate:
    """Parse a predicate from its JSON string rendering."""
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, TypeError) as exc:
        raise PredicateError(f"predicate is not valid JSON: {exc}") from exc
    return predicate_from_payload(payload)


def predicate_to_json(pred: Predicate) -> str:
    return canonical_json(predicate_payload(pred))


# -- evaluation ----------------------------------------------------------


def holds(pred: Predicate, form: LogicalForm) -> bool:
    """Pure evaluation of a predicate against one logical form."""
    if isinstance(pred, AtomTest):
        return any(pred.matches(atom) for atom in form.atoms())
    if isinstance(pred, AllOf):
        return all(holds(t, form) for t in pred.tests)
    if isinstance(pred, AnyOf):
        return any(holds(t, form) for t in pred.tests)
    if isinstance(pred, Negate):
        return not holds(pred.test, form)
    if isinstance(pred, SameSegment):
        return any(
            all(any(test.matches(atom) for atom in clause.atoms())
                for test in pred.tests)
            for clause in form.clauses)
    raise PredicateError(f"unknown predicate node {type(pred).__name__}")


#: One evidence span before it is rendered: ``(line, atom, verbatim)``.
_Span = tuple[int, Atom, str]

_ASPECT = attrgetter("aspect")
_ASPECT_CATEGORY = attrgetter("aspect", "category")


def matching_atoms(test: AtomTest, atoms: Sequence[Atom]) -> list[Atom]:
    """The atoms of key-sorted ``atoms`` that ``test`` matches.

    Sorted by key, the atoms a test can match form one run: its
    aspect's, or its aspect and category's. Bisection finds the run.
    """
    if test.category is None:
        key, value = _ASPECT, test.aspect
    else:
        key, value = _ASPECT_CATEGORY, (test.aspect, test.category)
    run = atoms[bisect_left(atoms, value, key=key):
                bisect_right(atoms, value, key=key)]
    return [atom for atom in run if test.matches(atom)]


def _atom_spans(test: AtomTest, form: LogicalForm) -> list[_Span]:
    return [(clause.line, entry.atom, span.verbatim)
            for clause in form.clauses
            for entry in clause.entries if test.matches(entry.atom)
            for span in entry.spans]


def _segment_spans(pred: SameSegment, form: LogicalForm) -> list[_Span]:
    spans = []
    for clause in form.clauses:
        if all(any(test.matches(atom) for atom in clause.atoms())
               for test in pred.tests):
            spans.extend((clause.line, entry.atom, span.verbatim)
                         for entry in clause.entries
                         if any(test.matches(entry.atom)
                                for test in pred.tests)
                         for span in entry.spans)
    return spans


def _support(pred: Predicate, form: LogicalForm) -> list[_Span]:
    # A false node has no support and a true node no refutation (by
    # induction on the tree), so only the two nodes whose answer
    # depends on *every* child ask :func:`holds`.
    if isinstance(pred, AtomTest):
        return _atom_spans(pred, form)
    if isinstance(pred, AllOf):
        if not holds(pred, form):
            return []
        return _merge(_support(t, form) for t in pred.tests)
    if isinstance(pred, AnyOf):
        return _merge(_support(t, form) for t in pred.tests)
    if isinstance(pred, Negate):
        return _refute(pred.test, form)
    if isinstance(pred, SameSegment):
        return _segment_spans(pred, form)
    raise PredicateError(f"unknown predicate node {type(pred).__name__}")


def _refute(pred: Predicate, form: LogicalForm) -> list[_Span]:
    if isinstance(pred, (AtomTest, SameSegment)):
        return []
    if isinstance(pred, AllOf):
        return _merge(_refute(t, form) for t in pred.tests)
    if isinstance(pred, AnyOf):
        if holds(pred, form):
            return []
        return _merge(_refute(t, form) for t in pred.tests)
    if isinstance(pred, Negate):
        return _support(pred.test, form)
    raise PredicateError(f"unknown predicate node {type(pred).__name__}")


def _merge(span_lists) -> list[_Span]:
    """Deduplicate + canonically sort evidence spans.

    The order is (line, canonical JSON of the atom payload, verbatim),
    and the atom's JSON is rendered once per atom (:meth:`Atom.token`).
    """
    seen = {(span[0], span[1].token(), span[2]): span
            for spans in span_lists for span in spans}
    return [seen[key] for key in sorted(seen)]


def _render(spans: list[_Span]) -> list[dict]:
    return [{"atom": atom.to_payload(), "line": line, "verbatim": verbatim}
            for line, atom, verbatim in spans]


def support_spans(pred: Predicate, form: LogicalForm) -> list[dict]:
    """Evidence spans behind a *true* outcome (empty if it is false).

    A true :class:`Negate` is supported by nothing (absence has no
    evidence span) unless its child is false *because* positive evidence
    refutes it — in which case :func:`refute_spans` of the child speaks.
    """
    return _render(_support(pred, form))


def refute_spans(pred: Predicate, form: LogicalForm) -> list[dict]:
    """Evidence spans behind a *false* outcome.

    Only positive assertions can refute (absence is span-less): a false
    ``Negate`` is refuted by its child's support, a false conjunction by
    whatever refutes its failing children.
    """
    return _render(_refute(pred, form))


__all__ = [
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
]
