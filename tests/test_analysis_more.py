"""Further analysis-layer tests: sector rankings and breakdown internals."""

import dataclasses

from repro.analysis import CategoryBreakdown, CoverageStat, breakdown
from repro.pipeline import DomainAnnotations, TypeAnnotation


def _record(domain, sector, categories):
    return DomainAnnotations(
        domain=domain, sector=sector, status="annotated",
        types=[
            TypeAnnotation(category=c, meta_category="M", descriptor=f"{c}-d",
                           verbatim="v", line=1)
            for c in categories
        ],
    )


class TestSectorRanking:
    def _rows(self):
        records = [
            _record("a", "IT", ["X"]),
            _record("b", "IT", ["X"]),
            _record("c", "EN", ["X"]),
            _record("d", "EN", []),
            _record("e", "FS", []),
        ]
        # Give every record at least one annotation so all count as
        # annotated population members.
        records = [
            record if record.types else dataclasses.replace(
                record, rights=[], types=[
                    TypeAnnotation(category="Y", meta_category="M",
                                   descriptor="y", verbatim="v", line=1)
                ])
            for record in records]
        return breakdown(records, "types", ["X"])

    def test_ranking_order(self):
        row = self._rows()["X"]
        ranked = row.sectors_by_coverage()
        assert ranked[0][0] == "IT"  # 2/2
        assert ranked[-1][0] == "FS"  # 0/1

    def test_top_and_lowest_helpers(self):
        row = self._rows()["X"]
        assert row.top_sectors(1)[0][0] == "IT"
        assert row.lowest_sector()[0] == "FS"


class TestCoverageStatEdge:
    def test_single_sample_sd_zero(self):
        stat = CoverageStat()
        stat.add(3)
        assert stat.sd == 0.0
        assert stat.mean == 3.0

    def test_breakdown_with_no_records(self):
        rows = breakdown([], "types", ["X"])
        assert rows["X"].overall.total == 0
        assert rows["X"].overall.coverage == 0.0


class TestCategoryBreakdownDataclass:
    def test_fields(self):
        row = CategoryBreakdown(name="X", overall=CoverageStat(), by_sector={})
        assert row.name == "X"
