"""Builders for the paper's evaluation tables.

Each function consumes pipeline annotation records and returns structured
rows mirroring a table of the paper:

- :func:`table1_summary` — Table 1/Table 4 (annotation counts, top-3
  descriptors per category).
- :func:`table2a_types` — Table 2a (meta-category breakdown of data types).
- :func:`table2b_purposes` — Table 2b (purpose breakdown incl. meta rows).
- :func:`table3_practices` — Table 3 (handling/rights label coverage).
- :func:`table5_types_full` — Table 5 (per-category data-type breakdown).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.stats import (
    CategoryBreakdown,
    annotated_records,
    breakdown,
)
from repro.pipeline.records import DomainAnnotations
from repro.taxonomy import DATA_TYPE_TAXONOMY, PURPOSE_TAXONOMY
from repro.taxonomy.labels import (
    ACCESS_LABELS,
    CHOICE_LABELS,
    PROTECTION_LABELS,
    RETENTION_LABELS,
)


@dataclass
class DescriptorShare:
    """One descriptor with its within-category frequency share."""

    descriptor: str
    count: int
    share: float


@dataclass
class Table1Row:
    """One category row of Table 1 / Table 4."""

    meta_category: str
    category: str
    unique_annotations: int
    top_descriptors: list[DescriptorShare]


@dataclass
class Table1:
    """Annotation counts per taxonomy level."""

    total: int
    meta_counts: dict[str, int]
    rows: list[Table1Row]


def table1_summary(records: list[DomainAnnotations], facet: str = "types",
                   top_n: int = 3) -> Table1:
    """Table 1/4: unique annotation counts + top descriptors per category."""
    population = annotated_records(records)
    taxonomy = DATA_TYPE_TAXONOMY if facet == "types" else PURPOSE_TAXONOMY
    per_category: dict[str, Counter] = {}
    meta_counts: Counter = Counter()
    total = 0
    for record in population:
        annotations = record.types if facet == "types" else record.purposes
        for annotation in annotations:
            per_category.setdefault(annotation.category,
                                    Counter())[annotation.descriptor] += 1
            meta_counts[annotation.meta_category] += 1
            total += 1
    rows: list[Table1Row] = []
    for meta in taxonomy.meta_categories:
        for category in meta.categories:
            counter = per_category.get(category.name, Counter())
            cat_total = sum(counter.values())
            top = [
                DescriptorShare(descriptor=d, count=c,
                                share=c / cat_total if cat_total else 0.0)
                for d, c in counter.most_common(top_n)
            ]
            rows.append(
                Table1Row(
                    meta_category=meta.name,
                    category=category.name,
                    unique_annotations=cat_total,
                    top_descriptors=top,
                )
            )
    rows.sort(key=lambda r: -r.unique_annotations)
    return Table1(total=total, meta_counts=dict(meta_counts), rows=rows)


def table1_practice_counts(records: list[DomainAnnotations]) -> dict[str, dict[str, int]]:
    """Table 1's handling/rights blocks: label counts per group."""
    population = annotated_records(records)
    counts: dict[str, Counter] = {}
    for record in population:
        for h in record.handling:
            counts.setdefault(h.group, Counter())[h.label] += 1
        for r in record.rights:
            counts.setdefault(r.group, Counter())[r.label] += 1
    return {group: dict(counter) for group, counter in counts.items()}


#: Tables 2a, 2b and 3 as ``(kind, names)`` blocks of coverage rows (see
#: :func:`~repro.analysis.stats.breakdown`); a later block's row replaces an
#: earlier block's of the same name.
COVERAGE_TABLES = {
    "table2a": (("types-meta",
                 [m.name for m in DATA_TYPE_TAXONOMY.meta_categories]),),
    "table2b": (("purposes-meta",
                 [m.name for m in PURPOSE_TAXONOMY.meta_categories]),
                ("purposes", [c.name for c in PURPOSE_TAXONOMY.categories()])),
    "table3": (("labels", RETENTION_LABELS.names() + PROTECTION_LABELS.names()
                + CHOICE_LABELS.names() + ACCESS_LABELS.names()),),
}


def _coverage_table(records: list[DomainAnnotations],
                    table: str) -> dict[str, CategoryBreakdown]:
    population = annotated_records(records)
    result: dict[str, CategoryBreakdown] = {}
    for kind, names in COVERAGE_TABLES[table]:
        result.update(breakdown(population, kind, names))
    return result


def table2a_types(records: list[DomainAnnotations]) -> dict[str, CategoryBreakdown]:
    """Table 2a: data-type coverage by meta-category."""
    return _coverage_table(records, "table2a")


def table2b_purposes(records: list[DomainAnnotations]) -> dict[str, CategoryBreakdown]:
    """Table 2b: purpose coverage (meta-categories and categories)."""
    return _coverage_table(records, "table2b")


def table3_practices(records: list[DomainAnnotations]) -> dict[str, CategoryBreakdown]:
    """Table 3: handling/rights label coverage with sector breakdowns."""
    return _coverage_table(records, "table3")


def table5_types_full(records: list[DomainAnnotations]) -> dict[str, CategoryBreakdown]:
    """Table 5: data-type coverage for all 34 categories."""
    population = annotated_records(records)
    names = [c.name for c in DATA_TYPE_TAXONOMY.categories()]
    return breakdown(population, "types", names)
