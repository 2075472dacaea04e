"""Typed queries over an indexed corpus snapshot.

Eight query classes cover the ways downstream consumers read the corpus
(the Polisis-style interface surface plus the PolicyLR-style compliance
surface):

- :class:`DomainLookup` — one domain's full annotation record.
- :class:`FacetFilter` — domains matching category/descriptor/sector/
  status filters (set intersection over the inverted indexes).
- :class:`SectorAggregate` — one sector's coverage profile.
- :class:`TopDescriptors` — top-k descriptors by mention count, corpus
  wide or within a sector.
- :class:`AspectMentions` — the verbatim evidence segments behind an
  aspect, with their domains and source lines.
- :class:`TableAggregate` — the precomputed Table-1/2a/2b/3 payloads and
  the corpus summary.
- :class:`PredicateQuery` — domains whose compiled logical form
  satisfies a :mod:`repro.compliance.predicate` expression, answered
  exactly by set algebra over the index's atom and clause postings
  (:meth:`~repro.serve.index.CorpusIndex.satisfying_domains`).
- :class:`ComplianceScan` — GDPR/CCPA-style rule-pack verdicts
  (``satisfied``/``violated``/``unknown`` with evidence spans), sliced
  from precomputed verdict rows by pack/rule/sector.

Every query is a frozen dataclass with a canonical dict rendering
(:func:`query_payload`); :func:`query_fingerprint` hashes that rendering,
so equal queries share one fingerprint however the object was built.
:func:`query_scope` names the records a query's answer reads, declared
per query class: one domain's record, one sector's records, or the whole
corpus. The server's hot-result cache keys an answer by the digest of
its scope's records plus the query fingerprint, so a live swap that
leaves those records alone leaves the cached answer valid. The
fingerprint, the scope and a predicate's parse are memoized on the
query object, outside its fields, so a request parses and hashes its
query once however many layers ask. Execution is pure and
deterministic: the same query against the same records always yields
the same :class:`QueryResult`, whose :meth:`QueryResult.to_json` is
byte-stable.
:class:`QueryEngine` is the only executor: a sharded snapshot is served
by the same handlers over one index of its records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Union

from repro._util.artifacts import canonical_json, content_digest
from repro.compliance.oracle import predicate_answer_payload
from repro.compliance.predicate import (
    Predicate,
    parse_predicate,
    predicate_to_json,
)
from repro.compliance.rules import get_pack, scan_json
from repro.errors import PredicateError, QueryError
from repro.serve.index import COMPLIANCE_PACKS, FACETS, TABLES, CorpusIndex

#: Aspect values accepted by :class:`AspectMentions`.
_ASPECTS = ("types", "purposes", "handling", "rights")


@dataclass(frozen=True)
class DomainLookup:
    """Point lookup: one domain's full record (or ``found: false``)."""

    domain: str


@dataclass(frozen=True)
class FacetFilter:
    """Faceted domain filter; all given constraints must hold at once."""

    facet: str = "types"
    category: str | None = None
    descriptor: str | None = None
    sector: str | None = None
    status: str | None = None


@dataclass(frozen=True)
class SectorAggregate:
    """One sector's status mix, annotation totals, and top descriptors."""

    sector: str


@dataclass(frozen=True)
class TopDescriptors:
    """Top-k descriptors for a facet, corpus-wide or within one sector."""

    facet: str = "types"
    k: int = 10
    sector: str | None = None


@dataclass(frozen=True)
class AspectMentions:
    """Verbatim mention segments for one aspect (bounded by ``limit``)."""

    aspect: str
    limit: int = 50


@dataclass(frozen=True)
class TableAggregate:
    """A precomputed aggregate table (``table1``/``2a``/``2b``/``3``/
    ``summary``)."""

    table: str = "summary"


@dataclass(frozen=True)
class PredicateQuery:
    """Domains whose compiled logical form satisfies a predicate.

    ``predicate`` is the canonical-JSON rendering of a
    :data:`~repro.compliance.predicate.Predicate` AST (see
    :func:`~repro.compliance.predicate.predicate_to_json`); keeping the
    query field a string keeps the dataclass hashable and the payload a
    plain dict. Build from an AST with :meth:`from_predicate`.
    """

    predicate: str
    evidence: bool = False

    @classmethod
    def from_predicate(cls, pred: Predicate,
                       evidence: bool = False) -> "PredicateQuery":
        return cls(predicate=predicate_to_json(pred), evidence=evidence)

    def parsed(self) -> Predicate:
        """The predicate AST, parsed once per query object."""
        try:
            return self._parsed
        except AttributeError:
            try:
                pred = parse_predicate(self.predicate)
            except PredicateError as exc:
                raise QueryError(f"predicate: {exc}")
            object.__setattr__(self, "_parsed", pred)
            return pred


@dataclass(frozen=True)
class ComplianceScan:
    """Rule-pack verdicts per domain, optionally one rule / one sector."""

    pack: str = "gdpr"
    rule: str | None = None
    sector: str | None = None


Query = Union[DomainLookup, FacetFilter, SectorAggregate, TopDescriptors,
              AspectMentions, TableAggregate, PredicateQuery,
              ComplianceScan]

#: Stable endpoint names, used for cache keys and per-endpoint metrics.
_KINDS = {
    DomainLookup: "domain",
    FacetFilter: "filter",
    SectorAggregate: "sector",
    TopDescriptors: "top-descriptors",
    AspectMentions: "aspect",
    TableAggregate: "table",
    PredicateQuery: "predicate",
    ComplianceScan: "compliance",
}


def query_kind(query: Query) -> str:
    """The endpoint name a query belongs to."""
    try:
        return _KINDS[type(query)]
    except KeyError:
        raise QueryError(f"unknown query type {type(query).__name__}")


#: Scope kinds (:func:`query_scope`): one domain's record, one sector's.
RECORD = "record"
SECTOR = "sector"


def _in_sector(query) -> tuple[str, str] | None:
    return None if query.sector is None else (SECTOR, query.sector)


#: What each query class's answer reads, as a function of the query.
#: Declared per class, never inferred from a ``sector`` field, since a
#: kind with one could still read more than its sector. Why each scope
#: holds: a lookup renders its one record; a sector aggregate counts its
#: sector's records; a filter, top-descriptor list or scan with a sector
#: answers only from that sector's domains, and whether a domain is in a
#: posting list, a counter or a verdict row depends on its own record
#: alone. Everything else reads the corpus: aspect mention lists, tables
#: (the summary embeds the snapshot fingerprint), predicates (a negation
#: ranges over every domain), and unsectored filters, lists and scans.
_SCOPES = {
    DomainLookup: lambda query: (RECORD, query.domain),
    SectorAggregate: lambda query: (SECTOR, query.sector),
    FacetFilter: _in_sector,
    TopDescriptors: _in_sector,
    ComplianceScan: _in_sector,
    AspectMentions: lambda query: None,
    TableAggregate: lambda query: None,
    PredicateQuery: lambda query: None,
}


def query_scope(query: Query) -> tuple[str, str] | None:
    """The records ``query``'s answer reads, computed once per object.

    ``(RECORD, domain)`` is that domain's record, ``(SECTOR, sector)``
    that sector's records, and ``None`` the whole corpus. The answer is a
    pure function of those records, so it may be reused for as long as
    they stay the same.
    """
    try:
        return query._scope
    except AttributeError:
        try:
            make = _SCOPES[type(query)]
        except KeyError:
            raise QueryError(f"unknown query type {type(query).__name__}")
        scope = make(query)
        object.__setattr__(query, "_scope", scope)
        return scope


def validate_query(query: Query) -> Predicate | None:
    """Reject malformed queries before they reach the execution path.

    A :class:`PredicateQuery` is validated by parsing it; its parsed
    predicate is returned so execution need not parse it again. Every
    other kind returns ``None``.
    """
    kind = query_kind(query)
    if isinstance(query, (FacetFilter, TopDescriptors)) \
            and query.facet not in FACETS:
        raise QueryError(f"{kind}: unknown facet {query.facet!r}; "
                         f"expected one of {FACETS}")
    if isinstance(query, TopDescriptors) and query.k < 1:
        raise QueryError(f"top-descriptors: k must be >= 1, got {query.k}")
    if isinstance(query, AspectMentions):
        if query.aspect not in _ASPECTS:
            raise QueryError(f"aspect: unknown aspect {query.aspect!r}; "
                             f"expected one of {_ASPECTS}")
        if query.limit < 1:
            raise QueryError(f"aspect: limit must be >= 1, got {query.limit}")
    if isinstance(query, TableAggregate) and query.table not in TABLES:
        raise QueryError(f"table: unknown table {query.table!r}; "
                         f"expected one of {TABLES}")
    if isinstance(query, DomainLookup) and not query.domain:
        raise QueryError("domain: empty domain name")
    if isinstance(query, SectorAggregate) and not query.sector:
        raise QueryError("sector: empty sector name")
    if isinstance(query, PredicateQuery):
        return query.parsed()
    if isinstance(query, ComplianceScan):
        if query.pack not in COMPLIANCE_PACKS:
            raise QueryError(f"compliance: unknown pack {query.pack!r}; "
                             f"expected one of {COMPLIANCE_PACKS}")
        if query.rule is not None \
                and query.rule not in get_pack(query.pack).rule_ids():
            raise QueryError(
                f"compliance: pack {query.pack!r} has no rule "
                f"{query.rule!r}; expected one of "
                f"{get_pack(query.pack).rule_ids()}")
    return None


def query_payload(query: Query) -> dict:
    """Canonical dict rendering of a query's fields (``None`` dropped)."""
    payload = {"kind": query_kind(query)}
    for spec in fields(query):
        value = getattr(query, spec.name)
        if value is not None:
            payload[spec.name] = value
    if isinstance(query, PredicateQuery):
        # Normalise the predicate string through a parse/re-render pass so
        # formatting variants of the same AST share one cache key.
        payload["predicate"] = predicate_to_json(query.parsed())
    return payload


def query_fingerprint(query: Query) -> str:
    """Content-addressed cache key for a query, computed once per object.

    Two structurally equal queries always fingerprint identically, and
    any parameter change moves the key — the same contract the pipeline
    cache keys obey.
    """
    try:
        return query._fingerprint
    except AttributeError:
        fingerprint = content_digest(query_payload(query))
        object.__setattr__(query, "_fingerprint", fingerprint)
        return fingerprint


class QueryResult:
    """One deterministic query answer.

    ``payload`` is a JSON-ready dict built exclusively from sorted index
    structures; ``to_json`` renders it canonically, so equal results are
    byte-equal. An answer whose body was built first (``body``, the
    canonical JSON of the whole result: a compliance scan joined from
    the index's row fragments, a found lookup around its record's
    canonical string) serves that body and decodes its payload only when
    it is read.
    """

    __slots__ = ("kind", "_payload", "_body")

    def __init__(self, kind: str, payload: dict | None = None, *,
                 body: str | None = None):
        self.kind = kind
        self._payload = payload
        self._body = body

    @property
    def payload(self) -> dict:
        if self._payload is None:
            self._payload = json.loads(self._body)["payload"]
        return self._payload

    def to_json(self) -> str:
        if self._body is not None:
            return self._body
        return canonical_json({"kind": self.kind, "payload": self._payload})

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.kind == other.kind and self.to_json() == other.to_json()

    __hash__ = None

    def __repr__(self) -> str:
        return f"QueryResult(kind={self.kind!r}, payload={self.payload!r})"


class QueryEngine:
    """Executes typed queries against a built :class:`CorpusIndex`.

    The one query path for both snapshot shapes: a sharded deployment
    (:class:`repro.serve.shard.ShardedEngine`) runs these same handlers
    over one ``CorpusIndex`` of its snapshot's records, built or patched
    (:meth:`CorpusIndex.patched`) exactly as an unsharded one is.
    """

    def __init__(self, index: "CorpusIndex"):
        self.index = index

    def execute(self, query: Query) -> QueryResult:
        pred = validate_query(query)
        kind = query_kind(query)
        handler = getattr(self, "_run_" + kind.replace("-", "_"))
        payload = handler(query) if pred is None else handler(query, pred)
        if isinstance(payload, str):  # the payload's canonical JSON
            return QueryResult(kind, body=f'{{"kind":{canonical_json(kind)},'
                                          f'"payload":{payload}}}')
        return QueryResult(kind=kind, payload=payload)

    # -- handlers --------------------------------------------------------
    # Each returns the answer's payload, or its canonical JSON where that
    # is joined from JSON the index already holds.

    def _run_domain(self, query: DomainLookup) -> dict | str:
        record = self.index.by_domain.get(query.domain)
        if record is None:
            return {"domain": query.domain, "found": False}
        return (f'{{"domain":{canonical_json(query.domain)},"found":true,'
                f'"record":{record.canonical()}}}')

    def _run_filter(self, query: FacetFilter) -> dict:
        candidates: set[str] | None = None

        def narrow(domains: list[str] | None) -> None:
            nonlocal candidates
            pool = set(domains or ())
            candidates = pool if candidates is None else candidates & pool

        if query.category is not None:
            narrow(self.index.domains_by_category[query.facet]
                   .get(query.category))
        if query.descriptor is not None:
            narrow(self.index.domains_by_descriptor[query.facet]
                   .get(query.descriptor))
        if query.sector is not None:
            narrow(self.index.domains_by_sector.get(query.sector))
        if query.status is not None:
            narrow(self.index.domains_by_status.get(query.status))
        if candidates is None:  # no constraints: the whole corpus
            candidates = set(self.index.by_domain)
        domains = sorted(candidates)
        return {"facet": query.facet, "count": len(domains),
                "domains": domains}

    def _run_sector(self, query: SectorAggregate) -> dict:
        domains = self.index.domains_by_sector.get(query.sector, [])
        records = [self.index.by_domain[d] for d in domains]
        statuses: dict[str, int] = {}
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        return {
            "sector": query.sector,
            "found": bool(domains),
            "domains": len(domains),
            "statuses": dict(sorted(statuses.items())),
            "annotations": {
                "types": sum(len(r.types) for r in records),
                "purposes": sum(len(r.purposes) for r in records),
                "handling": sum(len(r.handling) for r in records),
                "rights": sum(len(r.rights) for r in records),
            },
            "top_types": [
                {"descriptor": name, "count": count}
                for name, count in self.index.top_descriptors(
                    "types", 5, sector=query.sector)
            ],
        }

    def _run_top_descriptors(self, query: TopDescriptors) -> dict:
        top = self.index.top_descriptors(query.facet, query.k,
                                         sector=query.sector)
        payload = {
            "facet": query.facet,
            "k": query.k,
            "descriptors": [{"descriptor": name, "count": count}
                            for name, count in top],
        }
        if query.sector is not None:
            payload["sector"] = query.sector
        return payload

    def _run_aspect(self, query: AspectMentions) -> dict:
        segments = self.index.segments_by_aspect.get(query.aspect, [])
        return {
            "aspect": query.aspect,
            "total": len(segments),
            "mentions": [
                {"domain": domain, "line": line, "verbatim": verbatim}
                for domain, line, verbatim in segments[:query.limit]
            ],
        }

    def _run_table(self, query: TableAggregate) -> dict:
        return {"table": query.table,
                "data": self.index.aggregates[query.table]}

    def _run_predicate(self, query: PredicateQuery, pred: Predicate) -> dict:
        domains = self.index.satisfying_domains(pred)
        matched = [form for form in self.index.logical_forms
                   if form.domain in domains]
        return predicate_answer_payload(
            pred, matched, len(self.index.logical_forms),
            evidence=query.evidence)

    def _run_compliance(self, query: ComplianceScan) -> str:
        index = self.index
        if query.sector is None:
            domains = [form.domain for form in index.logical_forms]
        else:
            domains = index.domains_by_sector.get(query.sector, [])
        pack = get_pack(query.pack)
        return scan_json(pack, index.compliance_rows[pack.name],
                         index.compliance_fragments[pack.name], domains,
                         rule_id=query.rule, sector=query.sector)


__all__ = [
    "AspectMentions",
    "ComplianceScan",
    "DomainLookup",
    "FacetFilter",
    "PredicateQuery",
    "Query",
    "QueryEngine",
    "QueryResult",
    "SectorAggregate",
    "TableAggregate",
    "TopDescriptors",
    "query_fingerprint",
    "query_kind",
    "query_payload",
    "query_scope",
    "validate_query",
]
