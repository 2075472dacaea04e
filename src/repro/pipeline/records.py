"""Annotation records and their JSONL serialization.

These are the pipeline's durable outputs — the structured dataset the
paper releases (AIPAN-3k). Every record carries the verbatim evidence
string and source line so downstream analysis (and Table 6) can show each
annotation in context.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from repro._util.artifacts import canonical_json


@dataclass(frozen=True)
class TypeAnnotation:
    """One unique collected-data-type annotation for a domain."""

    category: str
    meta_category: str
    descriptor: str
    verbatim: str
    line: int
    novel: bool = False


@dataclass(frozen=True)
class PurposeAnnotation:
    """One unique data-collection-purpose annotation for a domain."""

    category: str
    meta_category: str
    descriptor: str
    verbatim: str
    line: int
    novel: bool = False


@dataclass(frozen=True)
class HandlingAnnotation:
    """One data retention/protection practice annotation."""

    group: str  # "Data retention" | "Data protection"
    label: str
    verbatim: str
    line: int
    period_text: str | None = None
    period_days: int | None = None


@dataclass(frozen=True)
class RightsAnnotation:
    """One user choices/access practice annotation."""

    group: str  # "User choices" | "User access"
    label: str
    verbatim: str
    line: int


#: Fields holding annotations, and all fields holding a sequence (a
#: record stores each as a tuple).
_ANNOTATION_FIELDS = ("types", "purposes", "handling", "rights")
_SEQUENCE_FIELDS = _ANNOTATION_FIELDS + ("fallback_aspects",
                                         "extracted_aspects")


@dataclass(frozen=True)
class DomainAnnotations:
    """Everything the pipeline produced for one domain.

    Frozen, so a record cannot drift from the fingerprint it was
    published under, and a snapshot generation can hand its records to
    the next one as they are; an edit is ``dataclasses.replace``.
    Sequence fields are tuples (a list passed in is converted), which
    render as the same JSON lists. The canonical JSON (:meth:`canonical`)
    and its :meth:`digest` are computed once and kept on the object
    outside its fields, as ``Atom.token`` keeps its string: equality,
    hashing and payloads never see them, and ``dataclasses.replace``
    starts without them.
    """

    domain: str
    sector: str
    status: str  # "annotated" | "no-annotations" | "extract-failed" | "crawl-failed"
    types: tuple[TypeAnnotation, ...] = ()
    purposes: tuple[PurposeAnnotation, ...] = ()
    handling: tuple[HandlingAnnotation, ...] = ()
    rights: tuple[RightsAnnotation, ...] = ()
    #: Aspects for which the full-text annotation fallback was activated.
    fallback_aspects: tuple[str, ...] = ()
    #: Aspects with extracted section text.
    extracted_aspects: tuple[str, ...] = ()
    #: Word count of the substantive policy text.
    policy_words: int = 0
    #: Annotations removed by the hallucination verifier.
    hallucinations_filtered: int = 0

    def __post_init__(self) -> None:
        for name in _SEQUENCE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # -- queries -----------------------------------------------------------

    def has_any_annotation(self) -> bool:
        return bool(self.types or self.purposes or self.handling or self.rights)

    def annotation_count(self) -> int:
        return (len(self.types) + len(self.purposes) + len(self.handling)
                + len(self.rights))

    def type_categories(self) -> set[str]:
        return {t.category for t in self.types}

    def descriptor_count(self, category: str) -> int:
        return len({t.descriptor for t in self.types if t.category == category})

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        """One JSONL line: the bytes ``json.dumps(dataclasses.asdict(self),
        ensure_ascii=False)`` renders, without ``asdict``'s recursive copy
        (an annotation's ``vars`` holds exactly its fields, in order)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in _ANNOTATION_FIELDS:
            payload[name] = [vars(a) for a in payload[name]]
        return json.dumps(payload, ensure_ascii=False)

    def canonical(self) -> str:
        """``canonical_json(json.loads(self.to_json()))``, rendered once.

        The unit a snapshot fingerprint streams over, and the body a
        domain lookup and a snapshot file parse back.
        """
        try:
            return self._canonical
        except AttributeError:
            text = canonical_json(json.loads(self.to_json()))
            object.__setattr__(self, "_canonical", text)
            return text

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical`, computed once: the record's
        content id, which the serving cache keys a domain lookup by."""
        try:
            return self._digest
        except AttributeError:
            value = hashlib.sha256(
                self.canonical().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", value)
            return value

    @classmethod
    def from_payload(cls, data: dict) -> "DomainAnnotations":
        """The record a decoded JSON object describes; keys it does not
        name are ignored, and a missing optional field takes its default."""
        return cls(
            domain=data["domain"],
            sector=data["sector"],
            status=data["status"],
            types=tuple(TypeAnnotation(**t) for t in data.get("types", ())),
            purposes=tuple(PurposeAnnotation(**p)
                           for p in data.get("purposes", ())),
            handling=tuple(HandlingAnnotation(**h)
                           for h in data.get("handling", ())),
            rights=tuple(RightsAnnotation(**r)
                         for r in data.get("rights", ())),
            fallback_aspects=data.get("fallback_aspects", ()),
            extracted_aspects=data.get("extracted_aspects", ()),
            policy_words=data.get("policy_words", 0),
            hallucinations_filtered=data.get("hallucinations_filtered", 0),
        )

    @classmethod
    def from_json(cls, raw: str) -> "DomainAnnotations":
        return cls.from_payload(json.loads(raw))


def write_jsonl(records: list[DomainAnnotations], path: str | Path) -> None:
    """Write annotation records to a JSONL file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_jsonl(path: str | Path) -> list[DomainAnnotations]:
    """Read annotation records from a JSONL file."""
    records: list[DomainAnnotations] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(DomainAnnotations.from_json(line))
    return records
