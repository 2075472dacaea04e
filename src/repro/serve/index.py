"""Inverted indexes and precomputed aggregates over a corpus snapshot.

Built exactly once when a snapshot is loaded into a server; afterwards
every query class resolves from dict/list lookups:

- ``domain → record`` point lookups,
- ``sector → domains`` and ``status → domains`` facets,
- taxonomy inversions (``category → domains``, ``descriptor → domains``,
  ``label → domains``) for types, purposes, and handling/rights labels,
- ``aspect → mention segments`` (every annotation keeps its verbatim
  evidence and source line, so aspect queries can return the segment
  stream without touching the records again),
- the paper's Table-1/2a/2b/3 aggregates plus a corpus summary, computed
  eagerly so ``TableAggregate`` queries are O(1) payload fetches, and
- the **compliance layer**: every record's compiled
  :class:`~repro.compliance.logic.LogicalForm`, posting lists over
  compiled atoms (``atom token → sorted domains`` and ``atom token →
  sorted (domain, line) clauses``) that answer predicate queries by
  exact set algebra (:meth:`CorpusIndex.satisfying_domains`), and
  precomputed rule-pack verdict rows so a ``ComplianceScan`` is a
  slice, not a scan.

Everything is stored sorted (domains lexicographically, counts descending
with lexicographic tie-breaks), which is what makes query results
byte-stable across snapshot rebuilds and server worker counts.

A sharded corpus is indexed shard by shard (:meth:`CorpusIndex.build_part`
leaves out the tables, and takes the forms and verdict rows of records
the previous generation already indexed from that generation) and then
combined once, at build time, by :meth:`CorpusIndex.merge` into an index
equal field for field to :meth:`CorpusIndex.build` over the whole
snapshot, so one query engine serves both shapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from repro.analysis.stats import CategoryBreakdown
from repro.analysis.tables import (
    Table1,
    table1_summary,
    table2a_types,
    table2b_purposes,
    table3_practices,
)
from repro.compliance.logic import Atom, LogicalForm, compile_record
from repro.compliance.predicate import (
    AllOf,
    AnyOf,
    AtomTest,
    Negate,
    Predicate,
    SameSegment,
    matching_atoms,
)
from repro.compliance.rules import RULE_PACKS, pack_rows
from repro.errors import QueryError
from repro.pipeline.records import DomainAnnotations
from repro.serve.snapshot import CorpusSnapshot
from repro.taxonomy import Aspect

#: Annotation facets exposed to faceted queries.
FACETS = ("types", "purposes", "labels")

#: Tables served as precomputed aggregates.
TABLES = ("table1", "table2a", "table2b", "table3", "summary")


def _round(value: float) -> float:
    """Stable float rendering for aggregate payloads."""
    return round(value, 6)


def _coverage_payload(stat) -> dict:
    return {
        "covered": stat.covered,
        "total": stat.total,
        "coverage": _round(stat.coverage),
        "mean": _round(stat.mean),
        "sd": _round(stat.sd),
    }


def breakdown_payload(rows: dict[str, CategoryBreakdown]) -> dict:
    """JSON-ready rendering of an analysis breakdown, sorted throughout."""
    return {
        name: {
            "overall": _coverage_payload(row.overall),
            "sectors": {sector: _coverage_payload(stat)
                        for sector, stat in sorted(row.by_sector.items())},
        }
        for name, row in sorted(rows.items())
    }


def table1_payload(table: Table1) -> dict:
    return {
        "total": table.total,
        "meta_counts": dict(sorted(table.meta_counts.items())),
        "rows": [
            {
                "meta_category": row.meta_category,
                "category": row.category,
                "unique_annotations": row.unique_annotations,
                "top_descriptors": [
                    {"descriptor": d.descriptor, "count": d.count,
                     "share": _round(d.share)}
                    for d in row.top_descriptors
                ],
            }
            for row in table.rows
        ],
    }


def _sorted_counter(counter: Counter) -> list[tuple[str, int]]:
    """Counter items ordered by count desc, then name — a total order."""
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))


def _merge_sorted(maps: list[dict[str, list]]) -> dict[str, list]:
    """Union keyed sorted lists drawn from disjoint domain slices.

    No domain appears in two slices, so merging the slices' sorted lists
    gives exactly the sorted list one index over the whole corpus holds;
    no dedup pass is needed. ``sorted`` finds the k sorted runs in the
    concatenation and merges them.
    """
    keys = sorted(set().union(*maps))
    return {key: sorted(chain.from_iterable(m.get(key, ()) for m in maps))
            for key in keys}


def _atom_catalog(catalog: dict[str, set[Atom]]) -> dict[str, list[Atom]]:
    """Aspect → sorted unique atoms, aspects in sorted order."""
    return {aspect: sorted(atoms, key=Atom.key)
            for aspect, atoms in sorted(catalog.items())}


@dataclass
class CorpusIndex:
    """All lookup structures for one snapshot; build once, read-only after."""

    snapshot: CorpusSnapshot
    by_domain: dict[str, DomainAnnotations] = field(default_factory=dict)
    domains_by_sector: dict[str, list[str]] = field(default_factory=dict)
    domains_by_status: dict[str, list[str]] = field(default_factory=dict)
    #: facet → category → sorted domains mentioning it.
    domains_by_category: dict[str, dict[str, list[str]]] = \
        field(default_factory=dict)
    #: facet → descriptor/label → sorted domains mentioning it.
    domains_by_descriptor: dict[str, dict[str, list[str]]] = \
        field(default_factory=dict)
    #: facet → descriptor/label → total mention count (corpus-wide).
    descriptor_counts: dict[str, Counter] = field(default_factory=dict)
    #: facet → sector → descriptor/label → mention count.
    descriptor_counts_by_sector: dict[str, dict[str, Counter]] = \
        field(default_factory=dict)
    #: aspect value → sorted (domain, line, verbatim) mention segments.
    segments_by_aspect: dict[str, list[tuple[str, int, str]]] = \
        field(default_factory=dict)
    #: table name → JSON-ready aggregate payload.
    aggregates: dict[str, dict] = field(default_factory=dict)
    #: compiled logical forms, in canonical (domain-sorted) order.
    logical_forms: tuple[LogicalForm, ...] = ()
    #: atom token → sorted domains asserting that atom (posting lists).
    domains_by_atom: dict[str, list[str]] = field(default_factory=dict)
    #: atom token → sorted (domain, line) clauses asserting that atom
    #: (a compiled form has one clause per source line).
    clauses_by_atom: dict[str, list[tuple[str, int]]] = \
        field(default_factory=dict)
    #: aspect → sorted unique atoms seen in the corpus (the atom catalog
    #: wildcard atom tests are matched against).
    atoms_by_aspect: dict[str, list[Atom]] = field(default_factory=dict)
    #: pack name → rule id → domain → precomputed verdict row.
    compliance_rows: dict[str, dict[str, dict[str, dict]]] = \
        field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """The served snapshot's content fingerprint — the id generation-
        scoped caches and the shard-index reuse path key on."""
        return self.snapshot.fingerprint

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, snapshot: CorpusSnapshot) -> "CorpusIndex":
        """Every lookup structure over ``snapshot``, the tables included."""
        index = cls.build_part(snapshot, None)
        index._build_aggregates()
        return index

    @classmethod
    def build_part(cls, snapshot: CorpusSnapshot,
                   reuse_from: "CorpusIndex | None") -> "CorpusIndex":
        """What :meth:`merge` reads of one slice of a corpus: everything
        :meth:`build` makes but the table aggregates, which a merge
        rebuilds from the whole record stream.

        ``reuse_from`` is an index over an earlier generation, or
        ``None``: a record it holds as the same (frozen) object keeps the
        compiled form and verdict rows that index holds for it, so only
        the records new to the slice are compiled and meet the rule
        packs.
        """
        index = cls(snapshot=snapshot)
        sector_sets: dict[str, set[str]] = {}
        status_sets: dict[str, set[str]] = {}
        cat_sets: dict[str, dict[str, set[str]]] = {f: {} for f in FACETS}
        desc_sets: dict[str, dict[str, set[str]]] = {f: {} for f in FACETS}
        index.descriptor_counts = {f: Counter() for f in FACETS}
        index.descriptor_counts_by_sector = {f: {} for f in FACETS}
        aspect_segments: dict[str, list[tuple[str, int, str]]] = {}

        def mention(facet: str, domain: str, sector: str, category: str,
                    name: str, aspect: Aspect, line: int,
                    verbatim: str) -> None:
            cat_sets[facet].setdefault(category, set()).add(domain)
            desc_sets[facet].setdefault(name, set()).add(domain)
            index.descriptor_counts[facet][name] += 1
            index.descriptor_counts_by_sector[facet].setdefault(
                sector, Counter())[name] += 1
            aspect_segments.setdefault(aspect.value, []).append(
                (domain, line, verbatim))

        for record in snapshot.records:
            domain = record.domain
            index.by_domain[domain] = record
            sector_sets.setdefault(record.sector, set()).add(domain)
            status_sets.setdefault(record.status, set()).add(domain)
            for t in record.types:
                mention("types", domain, record.sector, t.category,
                        t.descriptor, Aspect.TYPES, t.line, t.verbatim)
            for p in record.purposes:
                mention("purposes", domain, record.sector, p.category,
                        p.descriptor, Aspect.PURPOSES, p.line, p.verbatim)
            for h in record.handling:
                mention("labels", domain, record.sector, h.group, h.label,
                        Aspect.HANDLING, h.line, h.verbatim)
            for r in record.rights:
                mention("labels", domain, record.sector, r.group, r.label,
                        Aspect.RIGHTS, r.line, r.verbatim)

        def freeze(sets: dict[str, set[str]]) -> dict[str, list[str]]:
            return {name: sorted(domains)
                    for name, domains in sorted(sets.items())}

        index.domains_by_sector = freeze(sector_sets)
        index.domains_by_status = freeze(status_sets)
        index.domains_by_category = {f: freeze(cat_sets[f]) for f in FACETS}
        index.domains_by_descriptor = {f: freeze(desc_sets[f])
                                       for f in FACETS}
        index.segments_by_aspect = {
            value: sorted(segments)
            for value, segments in sorted(aspect_segments.items())
        }
        index._build_compliance(reuse_from)
        return index

    @classmethod
    def merge(cls, parts: list["CorpusIndex"],
              snapshot: CorpusSnapshot) -> "CorpusIndex":
        """Combine indexes built over a domain partition of ``snapshot``.

        ``parts`` index disjoint slices of ``snapshot``'s records that
        together cover all of them (a shard set). The result equals
        ``CorpusIndex.build(snapshot)`` field for field: sorted domain
        lists, segment streams and atom postings k-way merge; counters
        add; verdict rows union; logical forms merge by domain. Table
        aggregates are not merged but built from ``snapshot``'s record
        stream (see :meth:`_build_aggregates`), so the parts carry none
        (:meth:`build_part`).
        """
        index = cls(snapshot=snapshot)
        index.by_domain = {record.domain: record
                           for record in snapshot.records}
        index.domains_by_sector = _merge_sorted(
            [part.domains_by_sector for part in parts])
        index.domains_by_status = _merge_sorted(
            [part.domains_by_status for part in parts])
        index.domains_by_category = {
            f: _merge_sorted([part.domains_by_category[f] for part in parts])
            for f in FACETS}
        index.domains_by_descriptor = {
            f: _merge_sorted([part.domains_by_descriptor[f]
                              for part in parts])
            for f in FACETS}
        index.descriptor_counts = {f: Counter() for f in FACETS}
        # Per facet, only sectors some part has a mention in (as in build).
        index.descriptor_counts_by_sector = {f: {} for f in FACETS}
        catalog: dict[str, set[Atom]] = {}
        for part in parts:
            for f in FACETS:
                index.descriptor_counts[f].update(part.descriptor_counts[f])
                by_sector = index.descriptor_counts_by_sector[f]
                for sector, counts \
                        in part.descriptor_counts_by_sector[f].items():
                    by_sector.setdefault(sector, Counter()).update(counts)
            for aspect, atoms in part.atoms_by_aspect.items():
                catalog.setdefault(aspect, set()).update(atoms)
        index.segments_by_aspect = _merge_sorted(
            [part.segments_by_aspect for part in parts])
        index._build_aggregates()
        index.logical_forms = tuple(sorted(
            chain.from_iterable(part.logical_forms for part in parts),
            key=attrgetter("domain")))
        index.domains_by_atom = _merge_sorted(
            [part.domains_by_atom for part in parts])
        index.clauses_by_atom = _merge_sorted(
            [part.clauses_by_atom for part in parts])
        index.atoms_by_aspect = _atom_catalog(catalog)
        index.compliance_rows = {
            name: {rule.id: {domain: row for part in parts
                             for domain, row
                             in part.compliance_rows[name][rule.id].items()}
                   for rule in pack.rules}
            for name, pack in RULE_PACKS.items()}
        return index

    def _build_compliance(self, reuse_from: "CorpusIndex | None") -> None:
        """Compile every record; build atom postings + pack verdict rows,
        taking both from ``reuse_from`` for the records it holds."""
        records = self.snapshot.records
        kept: dict[str, LogicalForm] = {}
        if reuse_from is not None:
            forms = {form.domain: form for form in reuse_from.logical_forms}
            kept = {record.domain: forms[record.domain] for record in records
                    if reuse_from.by_domain.get(record.domain) is record}
        self.logical_forms = tuple(
            kept.get(record.domain) or compile_record(record)
            for record in records)
        atom_sets: dict[str, set[str]] = {}
        clause_lists: dict[str, list[tuple[str, int]]] = {}
        catalog: dict[str, set[Atom]] = {}
        for form in self.logical_forms:
            for atom in form.atoms():
                atom_sets.setdefault(atom.token(), set()).add(form.domain)
                catalog.setdefault(atom.aspect, set()).add(atom)
            for clause in form.clauses:
                for entry in clause.entries:
                    clause_lists.setdefault(entry.atom.token(), []).append(
                        (form.domain, clause.line))
        self.domains_by_atom = {token: sorted(domains)
                                for token, domains
                                in sorted(atom_sets.items())}
        self.clauses_by_atom = {token: sorted(clauses)
                                for token, clauses
                                in sorted(clause_lists.items())}
        self.atoms_by_aspect = _atom_catalog(catalog)
        fresh = [form for form in self.logical_forms
                 if form.domain not in kept]
        self.compliance_rows = {}
        for name, pack in RULE_PACKS.items():
            rows = pack_rows(pack, fresh)
            if kept:
                for rule_id, verdicts in rows.items():
                    previous = reuse_from.compliance_rows[name][rule_id]
                    verdicts.update((domain, previous[domain])
                                    for domain in kept)
            self.compliance_rows[name] = rows

    # -- compliance lookups ----------------------------------------------

    def _matched_atoms(self, test: AtomTest) -> list[Atom]:
        """The catalog atoms ``test`` matches."""
        return matching_atoms(test, self.atoms_by_aspect.get(test.aspect, []))

    def atom_domains(self, test: AtomTest) -> set[str]:
        """The domains asserting an atom ``test`` matches: the union of
        the postings of the catalog atoms it matches."""
        domains: set[str] = set()
        for atom in self._matched_atoms(test):
            domains.update(self.domains_by_atom[atom.token()])
        return domains

    def satisfying_domains(self, pred: Predicate) -> set[str]:
        """Exactly the domains whose compiled form satisfies ``pred``.

        Set algebra over the postings, with the semantics of
        :func:`repro.compliance.predicate.holds`: an atom test is
        :meth:`atom_domains`, all-of intersects, any-of unites, not is
        the complement over ``by_domain``, and same-segment intersects
        the (domain, line) clause postings of its tests, so its atoms
        must share one clause.
        """
        if isinstance(pred, AtomTest):
            return self.atom_domains(pred)
        if isinstance(pred, AllOf):
            domains = set(self.by_domain)
            for test in pred.tests:
                domains &= self.satisfying_domains(test)
            return domains
        if isinstance(pred, AnyOf):
            domains = set()
            for test in pred.tests:
                domains |= self.satisfying_domains(test)
            return domains
        if isinstance(pred, Negate):
            return set(self.by_domain) - self.satisfying_domains(pred.test)
        if isinstance(pred, SameSegment):
            if not pred.tests:  # an empty conjunction: any clause holds it
                return {form.domain for form in self.logical_forms
                        if form.clauses}
            clauses: set[tuple[str, int]] | None = None
            for test in pred.tests:
                pool = set(chain.from_iterable(
                    self.clauses_by_atom[atom.token()]
                    for atom in self._matched_atoms(test)))
                clauses = pool if clauses is None else clauses & pool
            return {domain for domain, _ in clauses}
        raise QueryError(
            f"unknown predicate node {type(pred).__name__}")

    def _build_aggregates(self) -> None:
        """The Table-1/2a/2b/3 + summary payloads for the snapshot.

        Always computed from the snapshot's canonical record stream, for
        a merged index too: the tables hold order-sensitive float
        reductions (``CoverageStat.sd`` sums in record order) and
        insertion-order tie-breaks (``Counter.most_common``), so merging
        per-part payloads would not be byte-stable.
        """
        records = list(self.snapshot.records)
        annotated = [r for r in records if r.status == "annotated"]
        self.aggregates = {
            "table1": table1_payload(table1_summary(records)),
            "table2a": breakdown_payload(table2a_types(records)),
            "table2b": breakdown_payload(table2b_purposes(records)),
            "table3": breakdown_payload(table3_practices(records)),
            "summary": {
                "fingerprint": self.snapshot.fingerprint,
                "domains": len(records),
                "statuses": self.snapshot.status_counts(),
                "annotated": len(annotated),
                "sectors": {sector: len(domains) for sector, domains
                            in self.domains_by_sector.items()},
                "annotations": {
                    "types": sum(len(r.types) for r in records),
                    "purposes": sum(len(r.purposes) for r in records),
                    "handling": sum(len(r.handling) for r in records),
                    "rights": sum(len(r.rights) for r in records),
                },
                "fallback_domains": sum(1 for r in records
                                        if r.fallback_aspects),
                "hallucinations_filtered": sum(r.hallucinations_filtered
                                               for r in records),
            },
        }

    # -- read helpers ----------------------------------------------------

    def top_descriptors(self, facet: str, k: int,
                        sector: str | None = None) -> list[tuple[str, int]]:
        """Top-k descriptors by mention count (count desc, name asc)."""
        if sector is None:
            counter = self.descriptor_counts[facet]
        else:
            counter = self.descriptor_counts_by_sector[facet].get(
                sector, Counter())
        return _sorted_counter(counter)[:k]


__all__ = [
    "FACETS",
    "TABLES",
    "CorpusIndex",
    "breakdown_payload",
    "table1_payload",
]

# Re-exported for callers that treat the index as the compliance surface.
COMPLIANCE_PACKS = tuple(sorted(RULE_PACKS))
