"""Property-based parity: the SQLite backend vs the in-memory engine."""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.selection import select
from repro.reduction.reducer import reduce_mo
from repro.sql.loader import SqlWarehouse
from repro.sql.query_sql import aggregate_rows, select_fact_ids
from repro.sql.reducer_sql import reduce_warehouse

from .strategies import evaluation_times, mos_with_specs, small_mos

SETTINGS = settings(max_examples=15, deadline=None)

PREDICATE_POOL = [
    "URL.domain_grp = '.com'",
    "URL.domain != 'site0.com'",
    "URL.domain IN {'site0.com', 'site1.edu'}",
    "Time.month <= NOW - 3 months",
    "Time.quarter <= NOW - 2 quarters",
    "Time.year = '1999'",
    "Time.week <= '1999W30'",
    "Time.week > '1999W30' AND Time.week <= '2000W10'",
    "Time.month IN {'1999/03', '1999/07', '2000/01'}",
    "URL.domain_grp = '.edu' AND Time.month <= NOW - 2 months",
    "URL.domain_grp = '.com' OR Time.year = '2000'",
    "NOT (URL.domain_grp = '.com' AND Time.month <= NOW - 3 months)",
    "NOT Time.quarter = '1999Q3'",
]


def content(mo):
    return sorted(
        (
            mo.direct_cell(f),
            mo.measure_value(f, "Number_of"),
            mo.measure_value(f, "Dwell_time"),
            mo.measure_value(f, "Peak"),
        )
        for f in mo.facts()
    )


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_sql_reduction_matches_in_memory(pair, at):
    mo, spec = pair
    warehouse = SqlWarehouse.from_mo(mo)
    reduce_warehouse(warehouse, spec, at)
    expected = reduce_mo(mo, spec, at, backend="interpretive")
    actual = warehouse.to_mo(mo)
    assert content(actual) == content(expected)


@SETTINGS
@given(
    pair=mos_with_specs(),
    at=evaluation_times(),
    gap=st.integers(min_value=30, max_value=400),
)
def test_sql_progressive_reduction_matches(pair, at, gap):
    mo, spec = pair
    later = at + dt.timedelta(days=gap)
    warehouse = SqlWarehouse.from_mo(mo)
    reduce_warehouse(warehouse, spec, at)
    reduce_warehouse(warehouse, spec, later)
    expected = reduce_mo(mo, spec, later, backend="interpretive")
    actual = warehouse.to_mo(mo)
    assert content(actual) == content(expected)


@SETTINGS
@given(
    mo=small_mos(),
    at=evaluation_times(),
    predicate=st.sampled_from(PREDICATE_POOL),
)
def test_sql_selection_matches_in_memory(mo, at, predicate):
    warehouse = SqlWarehouse.from_mo(mo)
    expected = sorted(select(mo, predicate, at).fact_ids)
    actual = select_fact_ids(warehouse, predicate, at)
    assert actual == expected


@SETTINGS
@given(
    pair=mos_with_specs(),
    at=evaluation_times(),
    predicate=st.sampled_from(PREDICATE_POOL),
)
def test_sql_selection_matches_on_reduced_data(pair, at, predicate):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    warehouse = SqlWarehouse.from_mo(reduced)
    expected = sorted(
        reduced.direct_cell(f) for f in select(reduced, predicate, at).fact_ids
    )
    back = warehouse.to_mo(reduced)
    actual = sorted(
        back.direct_cell(f) for f in select_fact_ids(warehouse, predicate, at)
    )
    assert actual == expected


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_sql_aggregation_matches_in_memory(pair, at):
    from repro.query.aggregation import aggregate

    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    warehouse = SqlWarehouse.from_mo(reduced)
    for granularity in (
        {"Time": "month", "URL": "domain"},
        {"Time": "year", "URL": "domain_grp"},
    ):
        expected_mo = aggregate(reduced, granularity)
        expected = sorted(
            (expected_mo.direct_cell(f), expected_mo.measure_value(f, "Dwell_time"))
            for f in expected_mo.facts()
        )
        rows = aggregate_rows(
            warehouse, granularity, at, measures=["Dwell_time"]
        )
        actual = sorted(((r["Time"], r["URL"]), r["Dwell_time"]) for r in rows)
        assert actual == expected
