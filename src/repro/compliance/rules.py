"""Declarative rule packs: GDPR/CCPA-style checks over logical forms.

A :class:`ComplianceRule` pairs an optional applicability predicate with
a requirement predicate, both expressed in the
:mod:`repro.compliance.predicate` language. Scanning a rule against a
domain's :class:`~repro.compliance.logic.LogicalForm` yields a
three-valued verdict:

- ``unknown`` — the record holds no evaluable policy (crawl/extract
  failed, or no annotations survived); absence of evidence is not
  evidence of absence.
- ``satisfied`` — the requirement holds (or the rule does not apply,
  flagged with ``"applicable": false``).
- ``violated`` — the rule applies and the requirement fails.

Each verdict carries evidence spans back to the verbatim policy
segments: the atoms supporting a satisfied requirement, or the positive
assertions refuting a violated one (plus the spans that made the rule
applicable, so a violation report always shows *why* the rule fired).

The packs are reproductions of the *shape* of GDPR/CCPA obligations as
they project onto this corpus's annotation schema — storage limitation,
security, access/erasure/portability rights, marketing consent, sale
opt-outs — not legal advice. Packs and rules are content-fingerprinted
like every other artifact, so editing a rule moves every downstream
cache key and golden file.
"""

from __future__ import annotations

from dataclasses import dataclass

import json
from pathlib import Path

from repro._util.artifacts import canonical_json, content_digest
from repro.compliance.logic import LogicalForm
from repro.compliance.predicate import (
    OPT_OUT_CHOICE_LABELS,
    AllOf,
    AnyOf,
    AtomTest,
    Negate,
    Predicate,
    holds,
    predicate_from_payload,
    predicate_payload,
    refute_spans,
    support_spans,
)
from repro.errors import ComplianceError

#: Verdict values, in payload order.
VERDICTS = ("satisfied", "violated", "unknown")

#: Evidence spans attached to one verdict are capped here (deterministic:
#: spans are canonically sorted before the cut).
MAX_EVIDENCE_SPANS = 8


@dataclass(frozen=True)
class ComplianceRule:
    """One declarative check: *when* it applies and *what* must hold."""

    id: str
    title: str
    severity: str  # "must" | "should"
    requirement: Predicate
    applies_when: Predicate | None = None

    def to_payload(self) -> dict:
        payload = {
            "id": self.id,
            "title": self.title,
            "severity": self.severity,
            "requirement": predicate_payload(self.requirement),
        }
        payload["applies_when"] = (
            predicate_payload(self.applies_when)
            if self.applies_when is not None else None)
        return payload


@dataclass(frozen=True)
class RulePack:
    """A named, ordered, content-fingerprinted collection of rules."""

    name: str
    title: str
    rules: tuple[ComplianceRule, ...]

    def __post_init__(self) -> None:
        ids = [rule.id for rule in self.rules]
        if len(set(ids)) != len(ids):
            raise ComplianceError(
                f"rule pack {self.name!r} has duplicate rule ids")

    def rule(self, rule_id: str) -> ComplianceRule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise ComplianceError(
            f"rule pack {self.name!r} has no rule {rule_id!r}")

    def rule_ids(self) -> list[str]:
        return [rule.id for rule in self.rules]

    def to_payload(self) -> dict:
        return {"name": self.name, "title": self.title,
                "rules": [rule.to_payload() for rule in self.rules]}

    def fingerprint(self) -> str:
        """Content digest of :meth:`to_payload`, computed once (a pack is
        frozen; the memo is not a field)."""
        try:
            return self._fingerprint
        except AttributeError:
            fingerprint = content_digest(self.to_payload())
            object.__setattr__(self, "_fingerprint", fingerprint)
            return fingerprint


# -- payload round-trip (user-supplied packs) ----------------------------

_RULE_SEVERITIES = ("must", "should")


def rule_from_payload(payload) -> ComplianceRule:
    """Rebuild one rule from its ``to_payload`` shape.

    The exact inverse of :meth:`ComplianceRule.to_payload`: a rule
    round-tripped through JSON fingerprints identically to the original.
    Schema problems raise :class:`ComplianceError` with the offending
    field named.
    """
    if not isinstance(payload, dict):
        raise ComplianceError(
            f"rule payload must be an object, got {type(payload).__name__}")
    for field in ("id", "title", "severity"):
        value = payload.get(field)
        if not isinstance(value, str) or not value:
            raise ComplianceError(
                f"rule payload needs a non-empty string {field!r}")
    if payload["severity"] not in _RULE_SEVERITIES:
        raise ComplianceError(
            f"rule {payload['id']!r}: severity must be one of "
            f"{_RULE_SEVERITIES}, got {payload['severity']!r}")
    unknown = set(payload) - {"id", "title", "severity", "requirement",
                              "applies_when"}
    if unknown:
        raise ComplianceError(
            f"rule {payload['id']!r}: unknown fields {sorted(unknown)}")
    if "requirement" not in payload:
        raise ComplianceError(
            f"rule {payload['id']!r} is missing its requirement predicate")
    try:
        requirement = predicate_from_payload(payload["requirement"])
        applies_when = (
            predicate_from_payload(payload["applies_when"])
            if payload.get("applies_when") is not None else None)
    except ComplianceError as exc:
        raise ComplianceError(f"rule {payload['id']!r}: {exc}") from exc
    return ComplianceRule(id=payload["id"], title=payload["title"],
                          severity=payload["severity"],
                          requirement=requirement,
                          applies_when=applies_when)


def pack_from_payload(payload) -> RulePack:
    """Rebuild a rule pack from its ``to_payload`` shape.

    Round-trip exact: ``pack_from_payload(pack.to_payload())`` carries
    the same fingerprint as ``pack``. Built-in pack names are reserved —
    a user pack shadowing ``gdpr``/``ccpa`` would make scan payloads
    (which carry only the pack *name* plus fingerprint) ambiguous.
    """
    if not isinstance(payload, dict):
        raise ComplianceError(
            f"rule pack payload must be an object, got "
            f"{type(payload).__name__}")
    for field in ("name", "title"):
        value = payload.get(field)
        if not isinstance(value, str) or not value:
            raise ComplianceError(
                f"rule pack payload needs a non-empty string {field!r}")
    unknown = set(payload) - {"name", "title", "rules"}
    if unknown:
        raise ComplianceError(
            f"rule pack {payload['name']!r}: unknown fields "
            f"{sorted(unknown)}")
    rules = payload.get("rules")
    if not isinstance(rules, list) or not rules:
        raise ComplianceError(
            f"rule pack {payload['name']!r} needs a non-empty rules list")
    return RulePack(name=payload["name"], title=payload["title"],
                    rules=tuple(rule_from_payload(r) for r in rules))


def load_rule_pack(path: str | Path) -> RulePack:
    """Load a user-supplied rule pack from a JSON file.

    The file holds one ``RulePack.to_payload()`` object (see
    ``repro-pipeline compliance --pack gdpr`` output, or DESIGN.md §13
    for the predicate payload grammar). I/O and parse failures surface
    as :class:`ComplianceError` so the CLI can report them cleanly.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ComplianceError(
            f"cannot read rule pack {str(path)!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplianceError(
            f"rule pack {str(path)!r} is not valid JSON: {exc}") from exc
    pack = pack_from_payload(payload)
    if pack.name in RULE_PACKS:
        raise ComplianceError(
            f"rule pack {str(path)!r} shadows built-in pack "
            f"{pack.name!r}; pick a distinct name")
    return pack


# -- verdict computation -------------------------------------------------


def evaluate_rule(rule: ComplianceRule, form: LogicalForm) -> dict:
    """One rule against one domain: verdict + evidence, JSON-ready."""
    if form.status != "annotated":
        return {"verdict": "unknown", "applicable": None,
                "reason": form.status, "evidence": []}
    if rule.applies_when is not None and not holds(rule.applies_when, form):
        return {"verdict": "satisfied", "applicable": False,
                "evidence": []}
    if holds(rule.requirement, form):
        spans = support_spans(rule.requirement, form)
        return {"verdict": "satisfied", "applicable": True,
                "evidence": spans[:MAX_EVIDENCE_SPANS]}
    # With nothing to refute, a violation shows why the rule applied.
    spans = refute_spans(rule.requirement, form) or (
        support_spans(rule.applies_when, form)
        if rule.applies_when is not None else [])
    return {"verdict": "violated", "applicable": True,
            "evidence": spans[:MAX_EVIDENCE_SPANS]}


def pack_rows(pack: RulePack, forms: list[LogicalForm]
              ) -> dict[str, dict[str, dict]]:
    """``rule id → domain → verdict row`` for a compiled corpus slice."""
    return {rule.id: {form.domain: evaluate_rule(rule, form)
                      for form in forms}
            for rule in pack.rules}


def scan_payload(pack: RulePack, rows: dict[str, dict[str, dict]],
                 forms: list[LogicalForm], *,
                 rule_id: str | None = None,
                 sector: str | None = None) -> dict:
    """Shape one compliance-scan answer from precomputed verdict rows.

    ``rows`` may cover the whole corpus; the payload is sliced down to
    ``sector``/``rule_id`` here, and slicing then shaping is byte-equal
    to computing the slice directly (the differential suite's bar). The
    reference the served body (:func:`scan_json`) is held to.
    """
    selected = [form for form in forms
                if sector is None or form.sector == sector]
    domains = [form.domain for form in selected]
    rules = ([pack.rule(rule_id)] if rule_id is not None
             else list(pack.rules))
    rule_payloads = []
    for rule in rules:
        verdicts = {domain: rows[rule.id][domain] for domain in domains}
        counts = {verdict: 0 for verdict in VERDICTS}
        for row in verdicts.values():
            counts[row["verdict"]] += 1
        rule_payloads.append({
            "id": rule.id,
            "title": rule.title,
            "severity": rule.severity,
            "counts": counts,
            "verdicts": verdicts,
        })
    payload = {
        "pack": pack.name,
        "pack_fingerprint": pack.fingerprint(),
        "domains": len(domains),
        "rules": rule_payloads,
    }
    if sector is not None:
        payload["sector"] = sector
    return payload


def verdict_fragment(domain: str, row: dict) -> str:
    """One verdict row as it sits in a scan's ``verdicts`` object: the
    canonical JSON ``"<domain>":{row}``."""
    return f"{canonical_json(domain)}:{canonical_json(row)}"


def scan_json(pack: RulePack, rows: dict[str, dict[str, dict]],
              fragments: dict[str, dict[str, str]], domains: list[str], *,
              rule_id: str | None = None,
              sector: str | None = None) -> str:
    """``canonical_json`` of the :func:`scan_payload` over ``domains``,
    joined from each row's :func:`verdict_fragment` in ``fragments``
    (``rule id → domain → fragment``), so no row is encoded here.

    ``domains`` are the selected domains in sorted order, the order
    ``canonical_json`` gives a ``verdicts`` object's keys; ``rows`` give
    the per-rule counts. Every other key and value is rendered by
    ``canonical_json`` and appended in sorted key order.
    """
    rules = [pack.rule(rule_id)] if rule_id is not None else pack.rules
    parts = []
    for rule in rules:
        verdicts = rows[rule.id]
        counts = dict.fromkeys(VERDICTS, 0)
        for domain in domains:
            counts[verdicts[domain]["verdict"]] += 1
        rendered = fragments[rule.id]
        head = canonical_json({"counts": counts, "id": rule.id,
                               "severity": rule.severity,
                               "title": rule.title})
        parts.append(f'{head[:-1]},"verdicts":'
                     f'{{{",".join([rendered[d] for d in domains])}}}}}')
    head = canonical_json({"domains": len(domains), "pack": pack.name,
                           "pack_fingerprint": pack.fingerprint()})
    tail = "" if sector is None else f',"sector":{canonical_json(sector)}'
    return f'{head[:-1]},"rules":[{",".join(parts)}]{tail}}}'


def scan_forms(pack: RulePack, forms: list[LogicalForm], *,
               rule_id: str | None = None,
               sector: str | None = None) -> dict:
    """Scan a rule pack over logical forms in one pass (no precompute)."""
    selected = [form for form in forms
                if sector is None or form.sector == sector]
    rules = ([pack.rule(rule_id)] if rule_id is not None
             else list(pack.rules))
    rows = {rule.id: {form.domain: evaluate_rule(rule, form)
                      for form in selected}
            for rule in rules}
    return scan_payload(pack, rows, forms, rule_id=rule_id, sector=sector)


# -- the packs -----------------------------------------------------------

#: "The policy states data is collected" — the applicability trigger for
#: most obligations.
_COLLECTS_DATA = AtomTest(aspect="types")

#: "The policy offers some user opt-out/consent control."
_OFFERS_CHOICE = AnyOf(tuple(
    AtomTest(aspect="rights", category="User choices", name=label)
    for label in OPT_OUT_CHOICE_LABELS))

_MENTIONS_SALE = AtomTest(aspect="purposes", category="Data sharing",
                          name="data for sale")

GDPR_PACK = RulePack(
    name="gdpr",
    title="GDPR-style obligations (storage, security, data-subject rights)",
    rules=(
        ComplianceRule(
            id="gdpr.storage-limitation",
            title="Retention is disclosed and not indefinite (Art. 5(1)(e))",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AllOf((
                AtomTest(aspect="handling", category="Data retention"),
                Negate(AtomTest(aspect="handling",
                                category="Data retention",
                                name="Indefinitely")),
            )),
        ),
        ComplianceRule(
            id="gdpr.security-measures",
            title="Technical/organisational safeguards are stated (Art. 32)",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AtomTest(aspect="handling",
                                 category="Data protection"),
        ),
        ComplianceRule(
            id="gdpr.right-of-access",
            title="Users can view or correct their data (Art. 15/16)",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AnyOf((
                AtomTest(aspect="rights", category="User access",
                         name="View"),
                AtomTest(aspect="rights", category="User access",
                         name="Edit"),
            )),
        ),
        ComplianceRule(
            id="gdpr.right-to-erasure",
            title="Users can delete their data (Art. 17)",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AnyOf((
                AtomTest(aspect="rights", category="User access",
                         name="Full delete"),
                AtomTest(aspect="rights", category="User access",
                         name="Partial delete"),
            )),
        ),
        ComplianceRule(
            id="gdpr.data-portability",
            title="Users can export their data (Art. 20)",
            severity="should",
            applies_when=_COLLECTS_DATA,
            requirement=AtomTest(aspect="rights", category="User access",
                                 name="Export"),
        ),
        ComplianceRule(
            id="gdpr.marketing-consent",
            title="Marketing/advertising use comes with a user choice "
                  "(Art. 6/21)",
            severity="must",
            applies_when=AtomTest(aspect="purposes",
                                  category="Advertising & sales"),
            requirement=_OFFERS_CHOICE,
        ),
    ),
)

CCPA_PACK = RulePack(
    name="ccpa",
    title="CCPA-style obligations (notice, sale opt-out, know/delete)",
    rules=(
        ComplianceRule(
            id="ccpa.notice-at-collection",
            title="Collected categories come with stated purposes "
                  "(§1798.100)",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AtomTest(aspect="purposes"),
        ),
        ComplianceRule(
            id="ccpa.sale-opt-out",
            title="Data sale is disclosed with an opt-out path "
                  "(§1798.120)",
            severity="must",
            applies_when=_MENTIONS_SALE,
            requirement=AnyOf((
                AtomTest(aspect="rights", category="User choices",
                         name="Opt-out via link"),
                AtomTest(aspect="rights", category="User choices",
                         name="Opt-out via contact"),
            )),
        ),
        ComplianceRule(
            id="ccpa.right-to-know",
            title="Users can learn what is collected about them "
                  "(§1798.110)",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AnyOf((
                AtomTest(aspect="rights", category="User access",
                         name="View"),
                AtomTest(aspect="rights", category="User access",
                         name="Export"),
            )),
        ),
        ComplianceRule(
            id="ccpa.right-to-delete",
            title="Users can request deletion (§1798.105)",
            severity="must",
            applies_when=_COLLECTS_DATA,
            requirement=AnyOf((
                AtomTest(aspect="rights", category="User access",
                         name="Full delete"),
                AtomTest(aspect="rights", category="User access",
                         name="Partial delete"),
            )),
        ),
        ComplianceRule(
            id="ccpa.no-sharing-without-choice",
            title="Third-party sharing for advertising offers a choice "
                  "(§1798.121)",
            severity="should",
            applies_when=AllOf((
                AtomTest(aspect="purposes", category="Data sharing"),
                AtomTest(aspect="purposes",
                         category="Advertising & sales"),
            )),
            requirement=_OFFERS_CHOICE,
        ),
    ),
)

#: Registry served by the query layer and the CLI.
RULE_PACKS: dict[str, RulePack] = {
    GDPR_PACK.name: GDPR_PACK,
    CCPA_PACK.name: CCPA_PACK,
}


def get_pack(name: str) -> RulePack:
    try:
        return RULE_PACKS[name]
    except KeyError:
        raise ComplianceError(
            f"unknown rule pack {name!r}; available: "
            f"{sorted(RULE_PACKS)}")


__all__ = [
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
    "scan_json",
    "scan_payload",
    "verdict_fragment",
]
