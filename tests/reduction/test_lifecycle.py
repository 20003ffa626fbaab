"""Unit tests for timelines and the warehouse harness."""

import datetime as dt

import pytest

from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.reduction.lifecycle import Warehouse, run_timeline
from repro.reduction.reducer import reduce_mo


@pytest.fixture
def mo():
    return build_paper_mo()


@pytest.fixture
def spec(mo):
    return paper_specification(mo)


class TestRunTimeline:
    def test_cumulative_equals_declarative(self, mo, spec):
        cumulative = run_timeline(mo, spec, SNAPSHOT_TIMES, cumulative=True)
        declarative = run_timeline(mo, spec, SNAPSHOT_TIMES, cumulative=False)
        for at in SNAPSHOT_TIMES:
            left = sorted(
                cumulative[at].direct_cell(f) for f in cumulative[at].facts()
            )
            right = sorted(
                declarative[at].direct_cell(f) for f in declarative[at].facts()
            )
            assert left == right

    def test_descending_times_rejected(self, mo, spec):
        with pytest.raises(ValueError, match="ascending"):
            run_timeline(mo, spec, list(reversed(SNAPSHOT_TIMES)))

    def test_fact_counts_non_increasing(self, mo, spec):
        snapshots = run_timeline(mo, spec, SNAPSHOT_TIMES)
        counts = [snapshots[at].n_facts for at in SNAPSHOT_TIMES]
        assert counts == sorted(counts, reverse=True)


class TestWarehouse:
    def test_load_and_advance(self, mo, spec):
        warehouse = Warehouse(mo.empty_like(), spec)
        facts = [
            (
                fact_id,
                dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
                {
                    name: mo.measure_value(fact_id, name)
                    for name in mo.schema.measure_names
                },
            )
            for fact_id in sorted(mo.facts())
        ]
        assert warehouse.load(facts) == 7
        warehouse.advance_to(SNAPSHOT_TIMES[2])
        assert warehouse.fact_count() == 4
        expected = reduce_mo(
            mo, spec, SNAPSHOT_TIMES[2], backend="interpretive"
        )
        assert warehouse.granularity_histogram() == expected.granularity_histogram()

    def test_clock_cannot_go_backwards(self, mo, spec):
        warehouse = Warehouse(mo, spec)
        warehouse.advance_to(SNAPSHOT_TIMES[1])
        with pytest.raises(ValueError, match="backwards"):
            warehouse.advance_to(SNAPSHOT_TIMES[0])

    def test_history_recorded(self, mo, spec):
        warehouse = Warehouse(mo, spec)
        warehouse.advance_to(SNAPSHOT_TIMES[1])
        warehouse.advance_to(SNAPSHOT_TIMES[2])
        assert len(warehouse.history) == 2
        assert warehouse.history[0]["facts_before"] == 7
        assert warehouse.history[0]["facts_after"] == 6

    def test_incremental_load_between_reductions(self, mo, spec):
        warehouse = Warehouse(mo.copy(), spec)
        warehouse.advance_to(SNAPSHOT_TIMES[1])
        warehouse.load(
            [
                (
                    "late_fact",
                    {"Time": "2000/1/20", "URL": "http://www.cnn.com/"},
                    {
                        "Number_of": 1,
                        "Dwell_time": 10,
                        "Delivery_time": 1,
                        "Datasize": 1,
                    },
                )
            ]
        )
        warehouse.advance_to(SNAPSHOT_TIMES[2])
        # The late fact folded into the 2000/01 cnn.com month cell.
        by_cell = {
            warehouse.mo.direct_cell(f): f for f in warehouse.mo.facts()
        }
        month_fact = by_cell[("2000/01", "cnn.com")]
        assert warehouse.mo.measure_value(month_fact, "Number_of") == 3

