"""Inverted indexes and precomputed aggregates over a corpus snapshot.

Built once when a snapshot is loaded into a server, and patched, never
rebuilt, when a live swap replaces it; every query class resolves from
dict/list lookups:

- ``domain → record`` point lookups,
- ``sector → domains`` and ``status → domains`` facets,
- taxonomy inversions (``category → domains``, ``descriptor → domains``,
  ``label → domains``) for types, purposes, and handling/rights labels,
- ``aspect → mention segments`` (every annotation keeps its verbatim
  evidence and source line, so aspect queries can return the segment
  stream without touching the records again),
- the paper's Table-1/2a/2b/3 aggregates plus a corpus summary, rendered
  eagerly from integer partials so ``TableAggregate`` queries are O(1)
  payload fetches,
- the **compliance layer**: every record's compiled
  :class:`~repro.compliance.logic.LogicalForm`, posting lists over
  compiled atoms (``atom token → sorted domains`` and ``atom token →
  sorted (domain, line) clauses``) that answer predicate queries by
  exact set algebra (:meth:`CorpusIndex.satisfying_domains`), and
  precomputed rule-pack verdict rows, each also rendered once to its
  canonical JSON fragment, so a ``ComplianceScan`` is a slice joined
  from JSON, not a scan re-encoded, and
- a content digest per sector, over its records' digests, which the
  server's hot-result cache keys sector-scoped answers by.

Every list is stored sorted (domains lexicographically, counts descending
with lexicographic tie-breaks), which is what makes query results
byte-stable across snapshot rebuilds and server worker counts. Dict keys
are not: they keep insertion order, which a patch and a cold build do not
share, so a reader that needs an order sorts the keys (JSON payloads sort
theirs). The one exception is the atom catalog, kept in aspect order
because seeded predicate pools are drawn from it in dict order.

Every structure is a sum of per-record parts, and
:func:`record_contribution` is the one definition of a record's part:
its domain in sorted domain lists, its entries in sorted segment, clause
and mention lists, and its counts in counters and table partials.
:meth:`CorpusIndex.patched` builds the next generation from the previous
one, copy-on-write: it takes away the parts of the records that left or
were replaced and adds those of the new records, so only the new records
are compiled and rule-checked and a swap costs the records that changed,
not the corpus. :meth:`CorpusIndex.build` is the same patch applied to
an empty index, which makes the patched index equal to a cold build
field for field. A sharded snapshot is indexed the same way over its
records; shards are only its storage layout. The index keeps the
snapshot's fingerprint, not the snapshot, so a sharded generation's
index equals a cold build over the plain snapshot field for field.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from repro._util.artifacts import content_digest
from repro.analysis.stats import unique_counts
from repro.analysis.tables import COVERAGE_TABLES
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
from repro.compliance.rules import RULE_PACKS, pack_rows, verdict_fragment
from repro.errors import QueryError
from repro.pipeline.records import DomainAnnotations
from repro.serve.snapshot import CorpusSnapshot
from repro.taxonomy import DATA_TYPE_TAXONOMY

#: Annotation facets exposed to faceted queries.
FACETS = ("types", "purposes", "labels")

#: Tables served as precomputed aggregates.
TABLES = ("table1", "table2a", "table2b", "table3", "summary")

#: Annotation field → (facet, category attribute, name attribute).
_MENTIONS = {
    "types": ("types", "category", "descriptor"),
    "purposes": ("purposes", "category", "descriptor"),
    "handling": ("labels", "group", "label"),
    "rights": ("labels", "group", "label"),
}

#: Fields keyed by facet first, and the facet-level container each facet
#: keeps even when empty.
_FACETED = {"domains_by_category": dict, "domains_by_descriptor": dict,
            "descriptor_counts": Counter,
            "descriptor_counts_by_sector": dict}

#: Coverage table → row name → the ``unique_counts`` kind it counts.
_COVERAGE_KINDS = {table: {name: kind for kind, names in blocks
                           for name in names}
                   for table, blocks in COVERAGE_TABLES.items()}

_DOMAIN = attrgetter("domain")


def _round(value: float) -> float:
    """Stable float rendering for aggregate payloads."""
    return round(value, 6)


def _cell(cells: Counter, row: str, scope: str | None, total: int) -> dict:
    """One coverage-table cell from its integer partials: ``n`` of
    ``total`` domains in ``scope`` (a sector, or ``None`` for all) mention
    ``row``, with unique-count sum ``s1`` and square sum ``s2`` (only a
    covered domain has a count, so ``n`` is also the covered count). The
    mean is ``s1 / n`` and the sample SD the square root of the exact
    quotient ``(n·s2 − s1²) / (n(n − 1))``."""
    n = cells[(row, scope, "n")]
    s1, s2 = cells[(row, scope, "s1")], cells[(row, scope, "s2")]
    return {"covered": n, "total": total,
            "coverage": _round(n / total if total else 0.0),
            "mean": _round(s1 / n if n else 0.0),
            "sd": _round(math.sqrt((n * s2 - s1 * s1) / (n * (n - 1)))
                         if n > 1 else 0.0)}


def _sector_digest(domains: list[str],
                   by_domain: dict[str, DomainAnnotations]) -> str:
    """Content id of one sector's records: the digest of its (domain,
    record digest) pairs, in domain order."""
    return content_digest([(domain, by_domain[domain].digest())
                           for domain in domains])


def record_contribution(record: DomainAnnotations,
                        form: LogicalForm) -> tuple[dict, dict]:
    """The one definition of what ``record``, compiled to ``form``, adds
    to a :class:`CorpusIndex`; a cold build and a patch both apply it.

    Returns ``(lists, counts)``, each keyed by the path of a container (a
    field name and the keys below it). ``lists`` maps a path to key → the
    record's rows in that sorted list, sorted: its domain in a domain
    list, its entries (tuples that start with the domain) in a segment,
    clause or mention list. ``counts`` maps a path to name → the record's
    amount, never zero.
    """
    domain, sector = record.domain, record.sector
    one = [domain]
    segments: dict[str, list] = {}
    clauses: dict[str, list] = {}
    lists = {("domains_by_sector",): {sector: one},
             ("domains_by_status",): {record.status: one},
             ("domains_by_atom",): dict.fromkeys(
                 (atom.token() for atom in form.atoms()), one),
             ("segments_by_aspect",): segments,
             ("clauses_by_atom",): clauses}
    summary: dict[str, int] = {}
    counts = {("table_partials", "summary"): summary}
    for name, (facet, category_of, name_of) in _MENTIONS.items():
        annotations = getattr(record, name)
        if not annotations:
            continue
        summary[name] = len(annotations)
        categories = lists.setdefault(("domains_by_category", facet), {})
        labels = lists.setdefault(("domains_by_descriptor", facet), {})
        total = counts.setdefault(("descriptor_counts", facet), {})
        local = counts.setdefault(
            ("descriptor_counts_by_sector", facet, sector), {})
        for annotation in annotations:
            label = getattr(annotation, name_of)
            categories[getattr(annotation, category_of)] = one
            labels[label] = one
            total[label] = total.get(label, 0) + 1
            local[label] = local.get(label, 0) + 1
        segments[name] = sorted((domain, a.line, a.verbatim)
                                for a in annotations)
    for clause in form.clauses:
        for entry in clause.entries:
            clauses.setdefault(entry.atom.token(), []).append(
                (domain, clause.line))
    if record.fallback_aspects:
        summary["fallback_domains"] = 1
    if record.hallucinations_filtered:
        summary["hallucinations_filtered"] = record.hallucinations_filtered
    if record.status == "annotated" and record.has_any_annotation():
        counts[("table_partials", "population")] = {sector: 1}
        meta = counts[("table_partials", "meta")] = {}
        for position, t in enumerate(record.types):
            lists.setdefault(("table1_mentions", t.category), {}) \
                .setdefault(t.descriptor, []).append((domain, position))
            meta[t.meta_category] = meta.get(t.meta_category, 0) + 1
        for table, blocks in COVERAGE_TABLES.items():
            kinds = _COVERAGE_KINDS[table]
            cells = counts[("table_partials", table)] = {}
            for kind, _ in blocks:
                for row, count in unique_counts(record, kind).items():
                    if kinds.get(row) == kind:
                        for scope in (None, sector):
                            cells[(row, scope, "n")] = 1
                            cells[(row, scope, "s1")] = count
                            cells[(row, scope, "s2")] = count * count
    return lists, counts


class _Writer:
    """Copy-on-write edits to an index that starts out sharing every
    container with the generation it was copied from.

    A container is copied the first time it is written, and only then;
    ``fresh`` holds (by identity) every container made or copied here, so
    the previous generation is never written to, and ``paths`` the
    writable container at each path walked.
    """

    def __init__(self, index: "CorpusIndex"):
        self.root = vars(index)
        self.fresh: dict[int, object] = {}
        self.paths: dict[tuple, object] = {}

    def child(self, parent, key, make):
        """``parent[key]`` made writable: copied if it is still shared,
        made by ``make`` if missing. ``parent`` must be writable."""
        node = parent.get(key)
        if node is None or id(node) not in self.fresh:
            node = parent[key] = make() if node is None else node.copy()
            self.fresh[id(node)] = node
        return node

    def writable(self, path: tuple, make=dict):
        """The container at ``path`` made writable (a missing parent is
        made as a dict)."""
        node = self.paths.get(path)
        if node is None:
            parent = self.writable(path[:-1]) if len(path) > 1 else self.root
            node = self.paths[path] = self.child(parent, path[-1], make)
        return node

    def prune(self, path: tuple) -> None:
        """Drop the emptied container at ``path`` from its parent; a
        field, and a faceted field's facet-level container, stay. (No
        container holds containers that can empty, so one level is
        all.)"""
        if len(path) > (2 if path[0] in _FACETED else 1):
            del self.writable(path[:-1])[path[-1]]
            del self.paths[path]

    def apply(self, part: tuple[dict, dict], sign: int) -> None:
        """Add (``sign`` 1) or take away (``sign`` -1) one record's
        contribution (:func:`record_contribution`)."""
        lists, counts = part
        for path, streams in lists.items():
            parent = self.writable(path)
            for key, rows in streams.items():
                stream = self.child(parent, key, list)
                # A record's rows are one run of the sorted list.
                at = bisect_left(stream, rows[0])
                if sign > 0:
                    stream[at:at] = rows
                else:
                    del stream[at:at + len(rows)]
                    if not stream:
                        del parent[key]
            if not parent:
                self.prune(path)
        for path, amounts in counts.items():
            counter = self.writable(path, Counter)
            for key, amount in amounts.items():
                value = counter.get(key, 0) + sign * amount
                if value:
                    counter[key] = value
                else:
                    del counter[key]
            if not counter:
                self.prune(path)


@dataclass
class CorpusIndex:
    """All lookup structures for one snapshot; read-only once built."""

    #: The served snapshot's content fingerprint — the id the hot cache
    #: keys an answer over the whole corpus by.
    fingerprint: str
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
    #: Table 1's data-type mentions in the annotated population:
    #: category → descriptor → sorted (domain, position in the record's
    #: types). A descriptor's count is its list's length; its first
    #: entry breaks ties by first occurrence, as ``most_common`` does.
    table1_mentions: dict[str, dict[str, list[tuple[str, int]]]] = \
        field(default_factory=dict)
    #: The integer partials the table payloads are rendered from:
    #: ``population`` (sector → annotated population), ``meta`` (Table 1
    #: meta-category counts), ``summary`` (annotation and fallback
    #: totals) and, per coverage table, (row, sector or None for
    #: overall, ``"n"``/``"s1"``/``"s2"``) → covered count, sum of unique
    #: counts, sum of their squares.
    table_partials: dict[str, Counter] = field(default_factory=dict)
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
    #: aspect (in sorted order) → sorted unique atoms seen in the corpus
    #: (the atom catalog wildcard atom tests are matched against).
    atoms_by_aspect: dict[str, list[Atom]] = field(default_factory=dict)
    #: pack name → rule id → domain → precomputed verdict row.
    compliance_rows: dict[str, dict[str, dict[str, dict]]] = \
        field(default_factory=dict)
    #: pack name → rule id → domain → that row's canonical JSON fragment
    #: (:func:`~repro.compliance.rules.verdict_fragment`), rendered once
    #: when the row enters the index; a scan's body joins them.
    compliance_fragments: dict[str, dict[str, dict[str, str]]] = \
        field(default_factory=dict)
    #: sector → content id of its records (:func:`_sector_digest`); the
    #: hot-result cache keys a sector-scoped answer by it.
    sector_digests: dict[str, str] = field(default_factory=dict)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, snapshot: CorpusSnapshot) -> "CorpusIndex":
        """Every lookup structure over ``snapshot``: the patch of an empty
        index by every record."""
        empty = cls(fingerprint=snapshot.fingerprint, **{
            name: {facet: make() for facet in FACETS}
            for name, make in _FACETED.items()})
        return cls.patched(empty, snapshot)

    @classmethod
    def patched(cls, previous: "CorpusIndex | None",
                snapshot: CorpusSnapshot) -> "CorpusIndex":
        """The index over ``snapshot``, from ``previous`` plus the delta.

        The delta is the records ``previous`` does not hold as the same
        (frozen) object, and the domains that are gone. Every structure
        loses the replaced records' contributions and gains the new
        ones', copy-on-write: ``previous`` is never written to (in-flight
        readers still hold it) and the result keeps no reference to it.
        Only the new records are compiled and meet the rule packs. Equal
        field for field to ``CorpusIndex.build(snapshot)``, which is what
        a ``previous`` of ``None`` gives.
        """
        if previous is None:
            return cls.build(snapshot)
        old = previous.by_domain
        added = [record for record in snapshot.records
                 if old.get(record.domain) is not record]
        removed = sorted((old.keys() - map(_DOMAIN, snapshot.records))
                         | {record.domain for record in added
                            if record.domain in old})
        index = dataclasses.replace(previous,
                                    fingerprint=snapshot.fingerprint)
        writer = _Writer(index)
        by_domain = writer.writable(("by_domain",))
        forms = list(previous.logical_forms)
        touched: dict[str, Atom] = {}
        for domain in removed:
            form = forms.pop(bisect_left(forms, domain, key=_DOMAIN))
            writer.apply(record_contribution(by_domain.pop(domain), form),
                         -1)
            touched.update((atom.token(), atom) for atom in form.atoms())
        new_forms = [compile_record(record) for record in added]
        for record, form in zip(added, new_forms):
            insort(forms, form, key=_DOMAIN)
            writer.apply(record_contribution(record, form), 1)
            touched.update((atom.token(), atom) for atom in form.atoms())
            by_domain[record.domain] = record
        index.logical_forms = tuple(forms)
        for token, atom in touched.items():
            asserted = token in index.domains_by_atom
            if asserted != (token in previous.domains_by_atom):
                path = ("atoms_by_aspect", atom.aspect)
                catalog = writer.writable(path, list)
                at = bisect_left(catalog, atom.key(), key=Atom.key)
                if asserted:
                    catalog.insert(at, atom)
                else:
                    del catalog[at]
                    if not catalog:
                        writer.prune(path)
        # An aspect added above went to the end: restore aspect order.
        index.atoms_by_aspect = dict(sorted(index.atoms_by_aspect.items()))
        for name, pack in RULE_PACKS.items():
            for rule_id, verdicts in pack_rows(pack, new_forms).items():
                rows = writer.writable(("compliance_rows", name, rule_id))
                fragments = writer.writable(
                    ("compliance_fragments", name, rule_id))
                for domain in removed:
                    del rows[domain]
                    del fragments[domain]
                rows.update(verdicts)
                for domain, row in verdicts.items():
                    fragments[domain] = verdict_fragment(domain, row)
        # Only the sectors whose domain list the patch wrote are hashed.
        sectors = {old[domain].sector for domain in removed} \
            | {record.sector for record in added}
        if sectors:
            digests = writer.writable(("sector_digests",))
            for sector in sectors:
                domains = index.domains_by_sector.get(sector)
                if domains is None:
                    del digests[sector]
                else:
                    digests[sector] = _sector_digest(domains, by_domain)
        index.aggregates = index._render_aggregates()
        return index

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

    # -- table aggregates ------------------------------------------------

    def _render_aggregates(self) -> dict[str, dict]:
        """The Table-1/2a/2b/3 + summary payloads, from the partials.

        Byte-equal to the analysis tables over the record stream: counts
        and sums are exact integers, Table 1 breaks count ties by first
        occurrence, and a cell's SD is the exact-quotient form of
        :func:`_cell`, equal to the two-pass float after the payload's
        rounding. Bounded by the taxonomy and the sectors, not by N.
        """
        partials = self.table_partials
        population = partials.get("population", Counter())
        total = sum(population.values())
        aggregates = {"table1": self._render_table1()}
        for table, kinds in _COVERAGE_KINDS.items():
            cells = partials.get(table, Counter())
            aggregates[table] = {
                row: {"overall": _cell(cells, row, None, total),
                      "sectors": {sector: _cell(cells, row, sector, size)
                                  for sector, size
                                  in sorted(population.items())}}
                for row in sorted(kinds)}
        summary = partials.get("summary", Counter())
        aggregates["summary"] = {
            "fingerprint": self.fingerprint,
            "domains": len(self.by_domain),
            "statuses": {status: len(domains) for status, domains
                         in sorted(self.domains_by_status.items())},
            "annotated": len(self.domains_by_status.get("annotated", ())),
            "sectors": {sector: len(domains) for sector, domains
                        in sorted(self.domains_by_sector.items())},
            "annotations": {name: summary[name] for name in _MENTIONS},
            "fallback_domains": summary["fallback_domains"],
            "hallucinations_filtered": summary["hallucinations_filtered"],
        }
        return aggregates

    def _render_table1(self) -> dict:
        """Table 1 (data types): counts per category, top-3 descriptors."""
        rows = []
        for meta in DATA_TYPE_TAXONOMY.meta_categories:
            for category in meta.categories:
                ranked = sorted(
                    self.table1_mentions.get(category.name, {}).items(),
                    key=lambda kv: (-len(kv[1]), kv[1][0]))
                size = sum(len(mentions) for _, mentions in ranked)
                rows.append({
                    "meta_category": meta.name,
                    "category": category.name,
                    "unique_annotations": size,
                    "top_descriptors": [
                        {"descriptor": descriptor, "count": len(mentions),
                         "share": _round(len(mentions) / size)}
                        for descriptor, mentions in ranked[:3]],
                })
        rows.sort(key=lambda row: -row["unique_annotations"])
        meta_counts = self.table_partials.get("meta", Counter())
        return {"total": sum(meta_counts.values()),
                "meta_counts": dict(sorted(meta_counts.items())),
                "rows": rows}

    # -- read helpers ----------------------------------------------------

    def top_descriptors(self, facet: str, k: int,
                        sector: str | None = None) -> list[tuple[str, int]]:
        """Top-k descriptors by mention count (count desc, then name: a
        total order)."""
        if sector is None:
            counter = self.descriptor_counts[facet]
        else:
            counter = self.descriptor_counts_by_sector[facet].get(
                sector, Counter())
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


__all__ = [
    "FACETS",
    "TABLES",
    "CorpusIndex",
    "record_contribution",
]

# Re-exported for callers that treat the index as the compliance surface.
COMPLIANCE_PACKS = tuple(sorted(RULE_PACKS))
