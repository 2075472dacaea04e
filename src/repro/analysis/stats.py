"""Coverage and unique-mention statistics over annotation records.

Implements the measurements behind Tables 2/3/5: *coverage* is the share
of annotated companies with at least one annotation in a category; for
covered companies the *mean/SD* of the number of unique descriptors is
reported; per-sector breakdowns identify the highest/lowest sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.pipeline.records import DomainAnnotations


@dataclass
class CoverageStat:
    """Coverage and unique-mention statistics for one (category, scope)."""

    covered: int = 0
    total: int = 0
    counts: list[int] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Coverage as a fraction of the population."""
        return self.covered / self.total if self.total else 0.0

    @property
    def mean(self) -> float:
        return sum(self.counts) / len(self.counts) if self.counts else 0.0

    @property
    def sd(self) -> float:
        if len(self.counts) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((c - mu) ** 2 for c in self.counts) / (len(self.counts) - 1)
        )

    def add(self, count: int) -> None:
        self.total += 1
        if count > 0:
            self.covered += 1
            self.counts.append(count)


@dataclass
class CategoryBreakdown:
    """Overall + per-sector statistics for one category."""

    name: str
    overall: CoverageStat
    by_sector: dict[str, CoverageStat]

    def sectors_by_coverage(self) -> list[tuple[str, CoverageStat]]:
        """Sectors sorted by within-sector coverage, descending."""
        return sorted(
            self.by_sector.items(), key=lambda kv: -kv[1].coverage
        )

    def top_sectors(self, n: int = 3) -> list[tuple[str, CoverageStat]]:
        return self.sectors_by_coverage()[:n]

    def lowest_sector(self) -> tuple[str, CoverageStat]:
        return self.sectors_by_coverage()[-1]


def unique_counts(record: DomainAnnotations, kind: str) -> dict[str, int]:
    """Unique descriptor/label counts per category for one record."""
    counts: dict[str, set] = {}
    if kind == "types":
        for t in record.types:
            counts.setdefault(t.category, set()).add(t.descriptor)
    elif kind == "types-meta":
        for t in record.types:
            counts.setdefault(t.meta_category, set()).add(t.descriptor)
    elif kind == "purposes":
        for p in record.purposes:
            counts.setdefault(p.category, set()).add(p.descriptor)
    elif kind == "purposes-meta":
        for p in record.purposes:
            counts.setdefault(p.meta_category, set()).add(p.descriptor)
    elif kind == "labels":
        for h in record.handling:
            counts.setdefault(h.label, set()).add(h.label)
        for r in record.rights:
            counts.setdefault(r.label, set()).add(r.label)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {category: len(values) for category, values in counts.items()}


def breakdown(records: list[DomainAnnotations], kind: str,
              categories: list[str]) -> dict[str, CategoryBreakdown]:
    """Compute per-category coverage breakdowns over annotated records.

    ``kind`` selects the annotation facet: ``types``, ``types-meta``,
    ``purposes``, ``purposes-meta``, or ``labels``.
    """
    result = {
        name: CategoryBreakdown(
            name=name,
            overall=CoverageStat(),
            by_sector={},
        )
        for name in categories
    }
    for record in records:
        counts = unique_counts(record, kind)
        for name in categories:
            count = counts.get(name, 0)
            row = result[name]
            row.overall.add(count)
            row.by_sector.setdefault(record.sector, CoverageStat()).add(count)
    return result


def annotated_records(records: list[DomainAnnotations]) -> list[DomainAnnotations]:
    """The §5 population: companies with at least one annotation."""
    return [r for r in records if r.status == "annotated"
            and r.has_any_annotation()]
