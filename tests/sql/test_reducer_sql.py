"""Parity tests: SQL reduction vs the in-memory reducer (Definition 2)."""

import datetime as dt

import pytest

from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.reduction.reducer import reduce_mo
from repro.sql.loader import SqlWarehouse
from repro.sql.query_sql import storage_profile
from repro.sql.reducer_sql import reduce_warehouse


@pytest.fixture
def mo():
    return build_paper_mo()


@pytest.fixture
def spec(mo):
    return paper_specification(mo)


def cells_and_measures(mo):
    return sorted(
        (
            mo.direct_cell(f),
            tuple(mo.measure_value(f, m) for m in mo.schema.measure_names),
        )
        for f in mo.facts()
    )


class TestParity:
    @pytest.mark.parametrize("at", SNAPSHOT_TIMES)
    def test_single_shot_reduction(self, mo, spec, at):
        warehouse = SqlWarehouse.from_mo(mo)
        reduce_warehouse(warehouse, spec, at)
        expected = reduce_mo(mo, spec, at, backend="interpretive")
        actual = warehouse.to_mo(mo)
        assert cells_and_measures(actual) == cells_and_measures(expected)

    def test_progressive_reduction(self, mo, spec):
        warehouse = SqlWarehouse.from_mo(mo)
        for at in SNAPSHOT_TIMES:
            reduce_warehouse(warehouse, spec, at)
        expected = reduce_mo(
            mo, spec, SNAPSHOT_TIMES[-1], backend="interpretive"
        )
        actual = warehouse.to_mo(mo)
        assert cells_and_measures(actual) == cells_and_measures(expected)

    def test_member_counts_tracked(self, mo, spec):
        warehouse = SqlWarehouse.from_mo(mo)
        reduce_warehouse(warehouse, spec, SNAPSHOT_TIMES[-1])
        profile = storage_profile(warehouse)
        assert profile["fact_rows"] == 4
        assert profile["source_facts"] == 7
        assert profile["granularity_histogram"] == {
            ("day", "url"): 1,
            ("month", "domain"): 1,
            ("quarter", "domain"): 2,
        }

    def test_moved_counts(self, mo, spec):
        warehouse = SqlWarehouse.from_mo(mo)
        moved = reduce_warehouse(warehouse, spec, SNAPSHOT_TIMES[-1])
        assert moved == {"a1": 2, "a2": 4}

    def test_idempotent(self, mo, spec):
        warehouse = SqlWarehouse.from_mo(mo)
        at = SNAPSHOT_TIMES[-1]
        reduce_warehouse(warehouse, spec, at)
        first = storage_profile(warehouse)
        reduce_warehouse(warehouse, spec, at)
        second = storage_profile(warehouse)
        assert first == second

    def test_late_insert_merges_into_existing_aggregate(self, mo, spec):
        warehouse = SqlWarehouse.from_mo(mo)
        at = SNAPSHOT_TIMES[-1]
        reduce_warehouse(warehouse, spec, at)
        warehouse.insert_facts(
            [
                (
                    "late",
                    {"Time": "1999/12/31", "URL": "http://www.cnn.com/"},
                    {
                        "Number_of": 1,
                        "Dwell_time": 11,
                        "Delivery_time": 1,
                        "Datasize": 2,
                    },
                    1,
                )
            ]
        )
        reduce_warehouse(warehouse, spec, at)
        rows = warehouse.connection.execute(
            "SELECT m_Dwell_time, n_members FROM facts "
            "WHERE d_Time = '1999Q4' AND d_URL = 'cnn.com'"
        ).fetchall()
        assert rows == [(2489 + 11, 3)]
