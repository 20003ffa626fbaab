"""Property-based equivalence: subcube store == monolithic reducer."""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queryproc import SubcubeQuery, query_store
from repro.engine.store import SubcubeStore
from repro.query.aggregation import aggregate
from repro.query.algebra import mo_rows
from repro.reduction.reducer import reduce_mo

from .strategies import evaluation_times, mos_with_specs

SETTINGS = settings(max_examples=20, deadline=None)


def load_all(store, mo):
    store.load(
        (
            fact_id,
            dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
            {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
        )
        for fact_id in sorted(mo.facts())
    )


def cells(mo):
    return sorted(mo.direct_cell(f) for f in mo.facts())


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_store_equals_reducer_after_sync(pair, at):
    mo, spec = pair
    store = SubcubeStore(mo, spec)
    load_all(store, mo)
    store.synchronize(at)
    materialized = store.materialize()
    expected = reduce_mo(mo, spec, at, backend="interpretive")
    assert cells(materialized) == cells(expected)
    for measure in mo.schema.measure_names:
        assert materialized.total(measure) == expected.total(measure)


@SETTINGS
@given(
    pair=mos_with_specs(),
    at=evaluation_times(),
    steps=st.lists(st.integers(min_value=5, max_value=120), max_size=4),
)
def test_incremental_sync_equals_single_sync(pair, at, steps):
    mo, spec = pair
    incremental = SubcubeStore(mo, spec)
    load_all(incremental, mo)
    current = at
    for step in steps:
        incremental.synchronize(current)
        current = current + dt.timedelta(days=step)
    incremental.synchronize(current)

    direct = SubcubeStore(mo, spec)
    load_all(direct, mo)
    direct.synchronize(current)
    assert cells(incremental.materialize()) == cells(direct.materialize())


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_unsynchronized_query_equals_synchronized(pair, at):
    mo, spec = pair
    query = SubcubeQuery(None, {"Time": "quarter", "URL": "domain_grp"})
    stale = SubcubeStore(mo, spec)
    load_all(stale, mo)  # never synchronized at all
    lazy_answer = mo_rows(query_store(stale, query, at, assume_synchronized=False))

    fresh = SubcubeStore(mo, spec)
    load_all(fresh, mo)
    fresh.synchronize(at)
    eager_answer = mo_rows(query_store(fresh, query, at))
    assert lazy_answer == eager_answer


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_store_query_equals_monolithic_query(pair, at):
    mo, spec = pair
    query = SubcubeQuery(None, {"Time": "year", "URL": "domain_grp"})
    store = SubcubeStore(mo, spec)
    load_all(store, mo)
    store.synchronize(at)
    store_answer = {
        (row["Time"], row["URL"]): row["Dwell_time"]
        for row in mo_rows(query_store(store, query, at))
    }
    reduced = reduce_mo(mo, spec, at, backend="interpretive")
    mono = aggregate(reduced, {"Time": "year", "URL": "domain_grp"})
    mono_answer = {
        mono.direct_cell(f): mono.measure_value(f, "Dwell_time")
        for f in mono.facts()
    }
    assert store_answer == mono_answer
