"""Unit tests for the fluent query pipeline."""

import pytest

from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.query.algebra import Query, mo_rows
from repro.reduction.reducer import reduce_mo

NOW_T = SNAPSHOT_TIMES[-1]


@pytest.fixture
def reduced():
    mo = build_paper_mo()
    return reduce_mo(mo, paper_specification(mo), NOW_T)


class TestQueryPipeline:
    def test_select_then_aggregate(self, reduced):
        rows = (
            Query()
            .select("URL.domain_grp = '.com'")
            .aggregate({"Time": "year", "URL": "domain_grp"})
            .rows(reduced, NOW_T)
        )
        totals = {row["Time"]: row["Dwell_time"] for row in rows}
        assert totals == {"1999": 689 + 2489, "2000": 955}

    def test_project_step(self, reduced):
        rows = (
            Query()
            .aggregate({"Time": "year", "URL": "domain_grp"})
            .project(["URL"], ["Number_of"])
            .rows(reduced, NOW_T)
        )
        assert all(set(row) == {"fact", "URL", "Number_of", "granularity"} for row in rows)

    def test_immutable_builder(self, reduced):
        base = Query().select("URL.domain_grp = '.com'")
        with_agg = base.aggregate({"Time": "year", "URL": "domain_grp"})
        assert base.run(reduced, NOW_T).n_facts == 3
        assert with_agg.run(reduced, NOW_T).n_facts == 2

    def test_empty_pipeline_is_identity(self, reduced):
        assert Query().run(reduced, NOW_T) is reduced

    def test_mo_rows_shape(self, reduced):
        rows = mo_rows(reduced)
        assert len(rows) == reduced.n_facts
        assert rows == sorted(rows, key=lambda r: r["fact"])
        for row in rows:
            assert "Time" in row and "URL" in row and "granularity" in row

    def test_mo_rows_equal_per_fact_reads(self, reduced):
        # The column reads give exactly what per-fact lookups give: the
        # same keys in the same order, values and granularity tuples.
        expected = [
            {
                "fact": fact_id,
                **{
                    name: reduced.direct_value(fact_id, name)
                    for name in reduced.schema.dimension_names
                },
                **{
                    name: reduced.measure_value(fact_id, name)
                    for name in reduced.schema.measure_names
                },
                "granularity": reduced.gran(fact_id),
            }
            for fact_id in sorted(reduced.facts())
        ]
        rows = mo_rows(reduced)
        assert rows == expected
        assert [list(row) for row in rows] == [list(row) for row in expected]
        assert mo_rows(reduced.empty_like()) == []
