"""Moderate-scale smoke test: one year of clicks, every reduction path.

Not a micro-benchmark — this guards against superlinear blowups and
drift between ``reduce_mo``, the subcube store, and the SQL reducer at a
size an actual user would start at.
"""

import datetime as dt

import pytest

from repro.engine.store import SubcubeStore
from repro.reduction import reduce_mo
from repro.spec.specification import ReductionSpecification
from repro.sql.loader import SqlWarehouse
from repro.sql.reducer_sql import reduce_warehouse
from repro.workload import (
    ClickstreamConfig,
    build_clickstream_mo,
    tiered_retention_actions,
)

NOW = dt.date(2001, 3, 1)


@pytest.fixture(scope="module")
def big_mo():
    return build_clickstream_mo(
        ClickstreamConfig(
            start=dt.date(2000, 1, 1),
            end=dt.date(2000, 12, 31),
            domains_per_group=3,
            urls_per_domain=3,
            clicks_per_day=20,
            seed=8080,
        )
    )


@pytest.fixture(scope="module")
def big_spec(big_mo):
    return ReductionSpecification(
        tiered_retention_actions(big_mo, detail_months=2, month_years=2),
        big_mo.dimensions,
    )


@pytest.fixture(scope="module")
def reduced(big_mo, big_spec):
    return reduce_mo(big_mo, big_spec, NOW)


class TestScale:
    def test_volume(self, big_mo):
        assert big_mo.n_facts == 366 * 20

    def test_reduction(self, big_mo, reduced):
        assert reduced.n_facts < big_mo.n_facts / 5
        assert reduced.total("Number_of") == big_mo.n_facts

    def test_store_agrees(self, big_mo, big_spec, reduced):
        store = SubcubeStore(big_mo, big_spec)
        store.load(
            (
                fact_id,
                dict(
                    zip(big_mo.schema.dimension_names, big_mo.direct_cell(fact_id))
                ),
                {
                    name: big_mo.measure_value(fact_id, name)
                    for name in big_mo.schema.measure_names
                },
            )
            for fact_id in big_mo.facts()
        )
        store.synchronize(NOW)
        materialized = store.materialize()
        assert sorted(
            materialized.direct_cell(f) for f in materialized.facts()
        ) == sorted(reduced.direct_cell(f) for f in reduced.facts())

    def test_sql_agrees(self, big_mo, big_spec, reduced):
        warehouse = SqlWarehouse.from_mo(big_mo)
        reduce_warehouse(warehouse, big_spec, NOW)
        back = warehouse.to_mo(big_mo)
        assert sorted(back.direct_cell(f) for f in back.facts()) == sorted(
            reduced.direct_cell(f) for f in reduced.facts()
        )
        assert back.total("Dwell_time") == big_mo.total("Dwell_time")
