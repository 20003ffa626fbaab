"""Cross-backend integration tests: the full pipeline, three ways.

The same retail workload, policy, and queries run through:

1. the in-memory monolithic engine (``reduce_mo`` + query algebra),
2. the subcube store (Section 7 architecture),
3. the SQLite star-schema backend,

and every pair must agree on the final state and the query answers —
including across multiple progressive reductions with interleaved bulk
loads.
"""

import datetime as dt

import pytest

from repro.engine.queryproc import SubcubeQuery, query_store
from repro.engine.store import SubcubeStore
from repro.query.aggregation import aggregate
from repro.query.selection import select
from repro.reduction.reducer import reduce_mo
from repro.spec.specification import ReductionSpecification
from repro.sql.loader import SqlWarehouse
from repro.sql.query_sql import aggregate_rows
from repro.sql.reducer_sql import reduce_warehouse
from repro.workload import (
    RetailConfig,
    build_retail_mo,
    introduction_policy_actions,
)

CONFIG = RetailConfig(
    start=dt.date(1997, 6, 1),
    end=dt.date(2000, 6, 30),
    categories_per_department=2,
    skus_per_category=2,
    cities_per_region=1,
    stores_per_city=2,
    sales_per_day=2,
    seed=31,
)

TIMES = [dt.date(2000, 1, 10), dt.date(2000, 9, 10), dt.date(2001, 3, 10)]


@pytest.fixture(scope="module")
def mo():
    return build_retail_mo(CONFIG)


@pytest.fixture(scope="module")
def spec(mo):
    return ReductionSpecification(
        introduction_policy_actions(mo), mo.dimensions
    )


def facts_of(mo):
    return [
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


def content(mo):
    return sorted(
        (
            mo.direct_cell(f),
            tuple(mo.measure_value(f, m) for m in mo.schema.measure_names),
        )
        for f in mo.facts()
    )


class TestThreeWayAgreement:
    def test_progressive_reduction_state(self, mo, spec):
        in_memory = mo
        store = SubcubeStore(mo, spec)
        store.load(facts_of(mo))
        warehouse = SqlWarehouse.from_mo(mo)
        for at in TIMES:
            in_memory = reduce_mo(in_memory, spec, at, backend="interpretive")
            store.synchronize(at)
            reduce_warehouse(warehouse, spec, at)

            expected = content(in_memory)
            assert content(store.materialize()) == expected
            assert content(warehouse.to_mo(mo)) == expected

    def test_query_agreement_after_reduction(self, mo, spec):
        at = TIMES[-1]
        reduced = reduce_mo(mo, spec, at, backend="interpretive")

        predicate = "Product.department = 'grocery'"
        granularity = {
            "Time": "year",
            "Product": "department",
            "Store": "region",
        }

        # In-memory answer.
        memory_answer = aggregate(
            select(reduced, predicate, at), granularity
        )
        expected = sorted(
            (
                memory_answer.direct_cell(f),
                memory_answer.measure_value(f, "Revenue"),
            )
            for f in memory_answer.facts()
        )

        # Subcube-store answer.
        store = SubcubeStore(mo, spec)
        store.load(facts_of(mo))
        store.synchronize(at)
        store_answer = query_store(
            store, SubcubeQuery(predicate, granularity), at
        )
        assert (
            sorted(
                (
                    store_answer.direct_cell(f),
                    store_answer.measure_value(f, "Revenue"),
                )
                for f in store_answer.facts()
            )
            == expected
        )

        # SQL answer.
        warehouse = SqlWarehouse.from_mo(reduced)
        rows = aggregate_rows(
            warehouse, granularity, at, predicate=predicate, measures=["Revenue"]
        )
        sql_answer = sorted(
            ((r["Time"], r["Product"], r["Store"]), r["Revenue"]) for r in rows
        )
        assert sql_answer == expected

    def test_interleaved_loads(self, mo, spec):
        """Bulk loads between reductions: all backends stay in lockstep."""
        all_facts = facts_of(mo)
        half = len(all_facts) // 2

        in_memory = mo.empty_like()
        store = SubcubeStore(mo, spec)
        warehouse = SqlWarehouse(mo)

        for fact_id, coordinates, measures in all_facts[:half]:
            in_memory.insert_fact(fact_id, coordinates, measures)
        store.load(all_facts[:half])
        warehouse.insert_facts(
            (f, c, m, 1) for f, c, m in all_facts[:half]
        )

        in_memory = reduce_mo(
            in_memory, spec, TIMES[0], backend="interpretive"
        )
        store.synchronize(TIMES[0])
        reduce_warehouse(warehouse, spec, TIMES[0])

        for fact_id, coordinates, measures in all_facts[half:]:
            in_memory.insert_fact(fact_id, coordinates, measures)
        store.load(all_facts[half:])
        warehouse.insert_facts(
            (f, c, m, 1) for f, c, m in all_facts[half:]
        )

        in_memory = reduce_mo(
            in_memory, spec, TIMES[1], backend="interpretive"
        )
        store.synchronize(TIMES[1])
        reduce_warehouse(warehouse, spec, TIMES[1])

        expected = content(in_memory)
        assert content(store.materialize()) == expected
        assert content(warehouse.to_mo(mo)) == expected

    def test_totals_invariant_throughout(self, mo, spec):
        at = TIMES[-1]
        reduced = reduce_mo(mo, spec, at)
        store = SubcubeStore(mo, spec)
        store.load(facts_of(mo))
        store.synchronize(at)
        for measure in mo.schema.measure_names:
            assert reduced.total(measure) == mo.total(measure)
            assert store.materialize().total(measure) == mo.total(measure)
