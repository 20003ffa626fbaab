"""Parity tests: SQL predicate translation vs in-memory conservative
selection."""

import datetime as dt

import pytest

from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.query.selection import select
from repro.reduction.reducer import reduce_mo
from repro.sql.loader import SqlWarehouse
from repro.sql.query_sql import select_fact_ids

NOW_T = SNAPSHOT_TIMES[-1]

PREDICATES = [
    "URL.domain_grp = '.com'",
    "URL.domain = 'cnn.com'",
    "URL.domain != 'cnn.com'",
    "URL.domain IN {'cnn.com', 'gatech.edu'}",
    "Time.month <= '1999/12'",
    "Time.month < '1999/12'",
    "Time.month = '1999/12'",
    "Time.quarter >= '2000Q1'",
    "Time.quarter <= NOW - 4 quarters",
    "Time.week <= '1999W48'",
    "Time.week <= '2000W01'",
    "Time.day > '1999/12/31'",
    "Time.year = '1999'",
    "NOW - 12 months <= Time.month AND Time.month <= NOW - 6 months",
    "URL.domain_grp = '.com' AND Time.year = '1999'",
    "URL.domain_grp = '.com' OR Time.year = '2000'",
    "NOT URL.domain_grp = '.com'",
    "NOT (URL.domain_grp = '.com' AND Time.month <= NOW - 6 months)",
    "NOT Time.month <= '1999/12'",
    "NOT Time.month = '1999/12'",
    "NOT Time.week <= '1999W48'",
    "NOT Time.week != '2000W01'",
    "NOT URL.domain IN {'cnn.com', 'gatech.edu'}",
    "NOT NOT Time.quarter <= NOW - 4 quarters",
    "TRUE",
    "FALSE",
    "URL.T = T",
]


@pytest.fixture(scope="module")
def detailed():
    return build_paper_mo()


@pytest.fixture(scope="module")
def reduced(detailed):
    return reduce_mo(detailed, paper_specification(detailed), NOW_T)


class TestParityOnDetailedMo:
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_same_fact_sets(self, detailed, predicate):
        warehouse = SqlWarehouse.from_mo(detailed)
        expected = sorted(select(detailed, predicate, NOW_T).fact_ids)
        actual = select_fact_ids(warehouse, predicate, NOW_T)
        assert actual == expected, predicate


class TestParityOnReducedMo:
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_same_cells(self, reduced, predicate):
        warehouse = SqlWarehouse.from_mo(reduced)
        expected = sorted(
            reduced.direct_cell(f)
            for f in select(reduced, predicate, NOW_T).fact_ids
        )
        actual_ids = select_fact_ids(warehouse, predicate, NOW_T)
        back = warehouse.to_mo(reduced)
        actual = sorted(back.direct_cell(f) for f in actual_ids)
        assert actual == expected, predicate
