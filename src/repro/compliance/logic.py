"""Canonical logical forms compiled from annotation records.

PolicyLR-style lowering: each domain's :class:`DomainAnnotations` record
is compiled into an evaluable logical representation —

- **Atoms** are the indivisible assertions a policy makes: one per
  ``aspect × category × name × negation`` combination (data types and
  purposes keep their taxonomy category + normalized descriptor;
  handling/rights practices keep their group + label). An atom is
  *negated* when its verbatim evidence sits inside a negation scope
  (:func:`repro.chatbot.negation.find_negation_scopes`) — "we do not sell
  your personal information" compiles to a negated ``data for sale``
  atom, not a positive one.
- **Clauses** group the atoms asserted by one verbatim policy segment
  (one source line): within a clause the atoms hold *conjunctively* —
  the segment says all of them at once — which is what lets predicate
  queries require co-occurrence ("shares location *for advertising* in
  the same segment"). Each atom keeps its evidence spans (verbatim text
  plus the annotation detail fields) so verdicts can point back to the
  exact policy sentence.
- A **LogicalForm** is a domain's sorted clause set. Across clauses the
  semantics are disjunctive-evidence: the domain asserts the union of
  everything its segments say.

Compilation is a pure function of the record: every collection is sorted
and deduplicated, so the compiled form — and its content
``fingerprint`` — is invariant under annotation order, and *any* change
to an annotation's content (category, descriptor, line, verbatim, even
detail fields like retention periods) moves the fingerprint. That is the
property the golden suite and the differential harness pin.

Forms and atoms are frozen, so what is derived from them alone is
computed once and kept on the object: a form's sorted atom set
(:meth:`LogicalForm.atoms`) and an atom's rendered key
(:meth:`Atom.token`). The memo is not a field, so equality, hashing and
payloads never see it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring

from repro._util.artifacts import canonical_json, content_digest
from repro.chatbot.negation import find_negation_scopes
from repro.errors import ComplianceError
from repro.pipeline.records import DomainAnnotations

#: The four record aspects that compile into atoms.
ATOM_ASPECTS = ("types", "purposes", "handling", "rights")


@dataclass(frozen=True)
class Atom:
    """One indivisible policy assertion: aspect × category × name × ¬."""

    aspect: str    # "types" | "purposes" | "handling" | "rights"
    category: str  # taxonomy category or practice group
    name: str      # normalized descriptor or practice label
    negated: bool = False

    def key(self) -> tuple[str, str, str, bool]:
        """Total sort order for atoms."""
        return (self.aspect, self.category, self.name, self.negated)

    def token(self) -> str:
        """Canonical JSON of :meth:`to_payload`, rendered once.

        The posting-list key, and the atom part of the evidence sort key
        (:func:`repro.compliance.predicate.support_spans` orders spans by
        line, then this string, then verbatim).
        """
        try:
            return self._token
        except AttributeError:
            token = canonical_json(self.to_payload())
            object.__setattr__(self, "_token", token)
            return token

    def to_payload(self) -> dict:
        return {"aspect": self.aspect, "category": self.category,
                "name": self.name, "negated": self.negated}

    @classmethod
    def from_payload(cls, payload: dict) -> "Atom":
        try:
            return cls(aspect=payload["aspect"],
                       category=payload["category"],
                       name=payload["name"],
                       negated=bool(payload["negated"]))
        except (KeyError, TypeError) as exc:
            raise ComplianceError(
                f"malformed atom payload {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class EvidenceSpan:
    """One verbatim evidence occurrence behind an atom.

    ``detail`` carries the annotation fields the atom identity does not
    (meta-category, novel flag, retention periods) as a canonical JSON
    string — sortable, hashable, and part of the fingerprint, so no
    record mutation can hide from the golden diff.
    """

    verbatim: str
    detail: str = "{}"

    def to_payload(self) -> dict:
        return {"verbatim": self.verbatim,
                "detail": json.loads(self.detail)}

    @classmethod
    def from_payload(cls, payload: dict) -> "EvidenceSpan":
        try:
            return cls(verbatim=payload["verbatim"],
                       detail=canonical_json(payload["detail"]))
        except (KeyError, TypeError) as exc:
            raise ComplianceError(
                f"malformed evidence span {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class AtomEvidence:
    """One atom asserted by one clause, with its evidence spans."""

    atom: Atom
    spans: tuple[EvidenceSpan, ...]

    def to_payload(self) -> dict:
        payload = self.atom.to_payload()
        payload["spans"] = [s.to_payload() for s in self.spans]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "AtomEvidence":
        spans = payload.get("spans")
        if not isinstance(spans, list):
            raise ComplianceError(
                f"malformed atom-evidence payload {payload!r}: no spans")
        return cls(atom=Atom.from_payload(payload),
                   spans=tuple(sorted(
                       (EvidenceSpan.from_payload(s) for s in spans),
                       key=lambda s: (s.verbatim, s.detail))))


@dataclass(frozen=True)
class Clause:
    """The conjunction of atoms one verbatim segment (line) asserts."""

    line: int
    entries: tuple[AtomEvidence, ...]  # sorted by atom key, unique atoms

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(entry.atom for entry in self.entries)

    def to_payload(self) -> dict:
        return {"line": self.line,
                "atoms": [e.to_payload() for e in self.entries]}

    @classmethod
    def from_payload(cls, payload: dict) -> "Clause":
        atoms = payload.get("atoms")
        if not isinstance(atoms, list) or "line" not in payload:
            raise ComplianceError(
                f"malformed clause payload {payload!r}")
        entries = tuple(sorted(
            (AtomEvidence.from_payload(a) for a in atoms),
            key=lambda e: e.atom.key()))
        return cls(line=int(payload["line"]), entries=entries)


@dataclass(frozen=True)
class LogicalForm:
    """One domain's compiled, content-fingerprinted logical form."""

    domain: str
    sector: str
    status: str
    clauses: tuple[Clause, ...]  # sorted by line
    fingerprint: str = field(compare=False, default="")

    def atoms(self) -> tuple[Atom, ...]:
        """Sorted unique atoms across all clauses (computed once)."""
        try:
            return self._atoms
        except AttributeError:
            atoms = tuple(sorted({entry.atom for clause in self.clauses
                                  for entry in clause.entries},
                                 key=Atom.key))
            object.__setattr__(self, "_atoms", atoms)
            return atoms

    def core_payload(self) -> dict:
        """The fingerprinted content (everything but the fingerprint)."""
        return {
            "domain": self.domain,
            "sector": self.sector,
            "status": self.status,
            "clauses": [c.to_payload() for c in self.clauses],
        }

    def to_payload(self) -> dict:
        payload = self.core_payload()
        payload["fingerprint"] = self.fingerprint
        return payload

    def to_json(self) -> str:
        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, payload: dict) -> "LogicalForm":
        if not isinstance(payload, dict):
            raise ComplianceError(
                f"logical-form payload is not an object: {payload!r}")
        try:
            clauses = tuple(sorted(
                (Clause.from_payload(c) for c in payload["clauses"]),
                key=lambda c: c.line))
            form = cls(domain=payload["domain"], sector=payload["sector"],
                       status=payload["status"], clauses=clauses)
        except (KeyError, TypeError) as exc:
            raise ComplianceError(
                f"malformed logical-form payload: {exc}") from exc
        fingerprint = form_fingerprint(form)
        stored = payload.get("fingerprint", "")
        if stored and stored != fingerprint:
            raise ComplianceError(
                f"logical form for {form.domain!r} failed fingerprint "
                f"verification: stored {str(stored)[:12]}…, recomputed "
                f"{fingerprint[:12]}…")
        return cls(domain=form.domain, sector=form.sector,
                   status=form.status, clauses=form.clauses,
                   fingerprint=fingerprint)

    @classmethod
    def from_json(cls, raw: str) -> "LogicalForm":
        return cls.from_payload(json.loads(raw))


def _scalar_json(value) -> str:
    """:func:`canonical_json` of a scalar, with no encoder for the usual
    string or integer."""
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is int:
        return str(value)
    return canonical_json(value)


def form_fingerprint(form: LogicalForm) -> str:
    """``content_digest(form.core_payload())``, from parts that are
    already canonical JSON.

    Each entry is its atom's :meth:`Atom.token` with the spans appended,
    and each span embeds its ``detail`` string as it stands, so no detail
    is decoded and nothing is encoded twice; the keys are written in the
    sorted order :func:`canonical_json` gives them. Exact whenever every
    detail is canonical JSON, as :func:`compile_record` and
    :meth:`EvidenceSpan.from_payload` make it. The one fingerprint of
    both, so a compiled form and a decoded one agree.
    """
    clauses = []
    for clause in form.clauses:
        entries = []
        for entry in clause.entries:
            spans = ",".join([
                f'{{"detail":{span.detail},'
                f'"verbatim":{_scalar_json(span.verbatim)}}}'
                for span in entry.spans])
            entries.append(f'{entry.atom.token()[:-1]},"spans":[{spans}]}}')
        clauses.append(f'{{"atoms":[{",".join(entries)}],'
                       f'"line":{_scalar_json(clause.line)}}}')
    text = (f'{{"clauses":[{",".join(clauses)}],'
            f'"domain":{_scalar_json(form.domain)},'
            f'"sector":{_scalar_json(form.sector)},'
            f'"status":{_scalar_json(form.status)}}}')
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _atom_negated(verbatim: str) -> bool:
    """An atom is negated when its evidence carries a negation scope.

    The record's verbatim string is the evidence sentence the annotation
    was extracted from; a negation trigger inside it ("we do not sell
    ...") scopes to the end of that sentence, covering the mention.
    """
    return bool(find_negation_scopes(verbatim))


def _detail(**fields) -> str:
    """Canonical detail string; ``None`` values are kept (they are part
    of the annotation's content and must move the fingerprint when they
    change)."""
    return canonical_json(fields)


def _record_spans(record: DomainAnnotations
                  ) -> list[tuple[int, Atom, EvidenceSpan]]:
    """Every ``(line, atom, span)`` triple a record asserts."""
    spans: list[tuple[int, Atom, EvidenceSpan]] = []
    for t in record.types:
        spans.append((t.line,
                      Atom("types", t.category, t.descriptor,
                           _atom_negated(t.verbatim)),
                      EvidenceSpan(t.verbatim,
                                   _detail(meta_category=t.meta_category,
                                           novel=t.novel))))
    for p in record.purposes:
        spans.append((p.line,
                      Atom("purposes", p.category, p.descriptor,
                           _atom_negated(p.verbatim)),
                      EvidenceSpan(p.verbatim,
                                   _detail(meta_category=p.meta_category,
                                           novel=p.novel))))
    for h in record.handling:
        spans.append((h.line,
                      Atom("handling", h.group, h.label,
                           _atom_negated(h.verbatim)),
                      EvidenceSpan(h.verbatim,
                                   _detail(period_text=h.period_text,
                                           period_days=h.period_days))))
    for r in record.rights:
        spans.append((r.line,
                      Atom("rights", r.group, r.label,
                           _atom_negated(r.verbatim)),
                      EvidenceSpan(r.verbatim, _detail())))
    return spans


def compile_record(record: DomainAnnotations) -> LogicalForm:
    """Lower one annotation record into its canonical logical form.

    Equal atoms share one object across the form's clauses, so each
    distinct atom's :meth:`Atom.token` is rendered once.
    """
    by_line: dict[int, dict[Atom, set[EvidenceSpan]]] = {}
    shared: dict[Atom, Atom] = {}
    for line, atom, span in _record_spans(record):
        atom = shared.setdefault(atom, atom)
        by_line.setdefault(line, {}).setdefault(atom, set()).add(span)
    clauses = tuple(
        Clause(line=line, entries=tuple(
            AtomEvidence(atom=atom, spans=tuple(sorted(
                spans, key=lambda s: (s.verbatim, s.detail))))
            for atom, spans in sorted(by_line[line].items(),
                                      key=lambda kv: kv[0].key())))
        for line in sorted(by_line))
    form = LogicalForm(domain=record.domain, sector=record.sector,
                       status=record.status, clauses=clauses)
    return LogicalForm(domain=form.domain, sector=form.sector,
                       status=form.status, clauses=form.clauses,
                       fingerprint=form_fingerprint(form))


@dataclass(frozen=True)
class CompiledCorpus:
    """Every domain's logical form, in canonical (domain-sorted) order."""

    forms: tuple[LogicalForm, ...]
    fingerprint: str

    def by_domain(self) -> dict[str, LogicalForm]:
        return {form.domain: form for form in self.forms}

    def domain_count(self) -> int:
        return len(self.forms)


def compile_corpus(records: list[DomainAnnotations]) -> CompiledCorpus:
    """Compile a record list (domain-sorted, first duplicate wins)."""
    by_domain: dict[str, DomainAnnotations] = {}
    for record in records:
        by_domain.setdefault(record.domain, record)
    forms = tuple(compile_record(by_domain[domain])
                  for domain in sorted(by_domain))
    return CompiledCorpus(
        forms=forms,
        fingerprint=content_digest([f.fingerprint for f in forms]))


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
]
