"""Property-based equivalence: subcube store == monolithic reducer, and
the store's one-pass query == the two-step subcube evaluation."""

import datetime as dt
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import (
    MOBuilder,
    dimension_from_rows,
    dimension_type_from_chains,
)
from repro.core.facts import Provenance, aggregate_fact_id
from repro.core.hierarchy import TOP
from repro.engine.queryproc import SubcubeQuery, query_store
from repro.engine.store import SubcubeStore
from repro.query.aggregation import (
    AggregationApproach,
    aggregate,
    result_mo,
)
from repro.query.algebra import mo_rows
from repro.query.compare import Approach
from repro.query.selection import select
from repro.reduction.reducer import reduce_mo
from repro.spec.predicate import satisfies
from repro.timedim.builder import build_sparse_time_dimension
from repro.timedim.calendar import day_value

from .strategies import URL_ROWS, evaluation_times, mos_with_specs, spec_for

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


# ----------------------------------------------------------------------
# query_store's one pass against the literal two-step evaluation
# ----------------------------------------------------------------------
#
# The reference below is Section 7.3's evaluation as separate stages:
# one subresult MO per cube, their union folded cell by cell into a
# union MO, and a second aggregation over that union.  Its group-by,
# its folds and Figure 9's repair step of the unsynchronized state are
# written out here fact by fact, independent of the production helpers,
# so the one pass has to reproduce every fact order, float sum and
# provenance set of the staged evaluation.

PREDICATES = (
    None,
    "URL.domain_grp = '.com'",
    "URL.domain = 'site0.com'",
    "Time.month <= NOW - 3 months",
    "Time.quarter >= NOW - 4 quarters",
    "URL.domain_grp = '.edu' AND Time.month <= NOW - 6 months",
)

#: Requested granularities.  Half are coarse, where several cubes'
#: partials land in one cell; the fine ones make ``LUB`` regroup them.
GRANULARITIES = st.one_of(
    st.fixed_dictionaries(
        {
            "Time": st.sampled_from(["quarter", "year", TOP]),
            "URL": st.sampled_from(["domain", "domain_grp", TOP]),
        }
    ),
    st.fixed_dictionaries(
        {
            "Time": st.sampled_from(
                ["day", "week", "month", "quarter", "year", TOP]
            ),
            "URL": st.sampled_from(["url", "domain", "domain_grp", TOP]),
        }
    ),
)

#: Evaluation times from the middle of the facts' two years to half a
#: year past them, so the facts spread over every cube.
QUERY_TIMES = st.integers(min_value=0, max_value=540).map(
    lambda days: dt.date(2000, 1, 1) + dt.timedelta(days=days)
)


def _reference_aggregate_facts(mo, fact_ids, granularity, approach):
    requested = mo.schema.validate_granularity(granularity)
    names = mo.schema.dimension_names
    ids = list(dict.fromkeys(fact_ids))
    strict = approach is AggregationApproach.STRICT
    grouping = []
    for name, category in zip(names, requested):
        dimension = mo.dimensions[name]
        directs = [mo.direct_value(fact_id, name) for fact_id in ids]
        available = {
            direct: dimension.finest_available(direct, category)
            for direct in directs
        }
        if approach is AggregationApproach.LUB:
            common = dimension.dimension_type.hierarchy.lub(
                {found for found, _ in available.values()} | {category}
            )
            value_for = {
                direct: dimension.ancestor_at(direct, common)
                for direct in available
            }
        else:
            value_for = {
                direct: None if strict and found != category else value
                for direct, (found, value) in available.items()
            }
        grouping.append([value_for[direct] for direct in directs])
    groups = {}
    for cell, fact_id in zip(zip(*grouping), ids):
        if strict and None in cell:
            continue
        groups.setdefault(cell, []).append(fact_id)
    return result_mo(
        mo,
        requested,
        (
            (
                cell,
                [
                    mo.measures[name].aggregate(
                        [mo.measure_value(member, name) for member in members]
                    )
                    for name in mo.schema.measure_names
                ],
                Provenance(
                    frozenset().union(
                        *[mo.provenance(member).members for member in members]
                    )
                ),
            )
            for cell, members in groups.items()
        ),
    )


def _reference_merge(target, rows):
    """Fill the empty *target* with ``(cell, values, provenance)`` rows,
    one fact per cell: rows sharing a cell fold pairwise in arrival
    order, and a cell that receives a further row moves to the end."""
    parts_of = {}
    for cell, values, provenance in rows:
        parts = parts_of.pop(cell, [])
        parts.append((values, provenance))
        parts_of[cell] = parts
    aggregates = [
        target.measures[name].aggregate
        for name in target.schema.measure_names
    ]
    merged = []
    for cell, parts in parts_of.items():
        values = parts[0][0]
        for more, _ in parts[1:]:
            values = [
                aggregate([so_far, value])
                for aggregate, so_far, value in zip(aggregates, values, more)
            ]
        provenance = Provenance(
            frozenset().union(*[part[1].members for part in parts])
        )
        merged.append((aggregate_fact_id(cell), cell, values, provenance))
    target.adopt_rows(merged)
    return target


def _reference_row(mo, fact_id, cell):
    return (
        cell,
        [mo.measure_value(fact_id, name) for name in mo.schema.measure_names],
        mo.provenance(fact_id),
    )


def _reference_effective_content(store, cube, at):
    """Figure 9's repair step, fact by fact: the cube's and its parents'
    facts that satisfy the cube's predicate, rolled up to its
    granularity."""
    definition = cube.definition
    names = cube.mo.schema.dimension_names
    rows = []
    for source in [
        cube.mo, *(store.cube(name).mo for name in definition.parents)
    ]:
        for fact_id in source.facts():
            if not satisfies(source, fact_id, definition.predicate, at):
                continue
            cell = tuple(
                source.dimensions[name].try_ancestor_at(
                    source.direct_value(fact_id, name), category
                )
                for name, category in zip(names, definition.granularity)
            )
            if None not in cell:
                rows.append(_reference_row(source, fact_id, cell))
    return _reference_merge(cube.mo.empty_like(), rows)


def _reference_query_store(store, query, at, synchronized):
    subresults = []
    for definition in store.definitions:
        cube = store.cube(definition.name)
        effective = (
            cube.mo
            if synchronized
            else _reference_effective_content(store, cube, at)
        )
        if query.predicate is None:
            selected = list(effective.facts())
        else:
            selected = select(
                effective, query.predicate, at, query.approach
            ).facts()
        subresults.append(
            _reference_aggregate_facts(
                effective, selected, query.granularity, query.aggregation
            )
        )
    union = _reference_merge(
        store.bottom_cube.mo.empty_like(),
        (
            _reference_row(subresult, fact_id, subresult.direct_cell(fact_id))
            for subresult in subresults
            for fact_id in subresult.facts()
        ),
    )
    return _reference_aggregate_facts(
        union, union.facts(), query.granularity, query.aggregation
    )


def _facts(mo):
    return [
        (
            fact_id,
            mo.direct_cell(fact_id),
            [
                repr(mo.measure_value(fact_id, name))
                for name in mo.schema.measure_names
            ],
            mo.provenance(fact_id),
        )
        for fact_id in mo.facts()
    ]


@settings(max_examples=100, deadline=None)
@given(
    pair=mos_with_specs(40, float_measures=True),
    at=QUERY_TIMES,
    synced_days_before=st.sampled_from([0, 0, 45, 200]),
    predicate=st.sampled_from(PREDICATES),
    granularity=GRANULARITIES,
    approach=st.sampled_from([Approach.CONSERVATIVE, Approach.LIBERAL]),
    aggregation=st.sampled_from(list(AggregationApproach)),
)
def test_one_pass_query_equals_two_step_reference(
    pair, at, synced_days_before, predicate, granularity, approach,
    aggregation,
):
    mo, spec = pair
    store = SubcubeStore(mo, spec)
    load_all(store, mo)
    store.synchronize(at - dt.timedelta(days=synced_days_before))
    synchronized = synced_days_before == 0
    query = SubcubeQuery(predicate, granularity, approach, aggregation)
    actual = query_store(
        store, query, at, assume_synchronized=synchronized
    )
    expected = _reference_query_store(store, query, at, synchronized)
    assert _facts(actual) == _facts(expected)
    assert mo_rows(actual) == mo_rows(expected)


ONE_FACT_PER_CUBE_AT = dt.date(2001, 2, 15)


def _one_fact_per_cube(peaks, dwell_times):
    """A store holding one fact in each of its three cubes, all on one
    URL: 1999-01-05 in the quarter cube, 2000-12-20 in the month cube
    and 2001-02-10 in the bottom cube at 2001-02-15."""
    days = [dt.date(1999, 1, 5), dt.date(2000, 12, 20), dt.date(2001, 2, 10)]
    builder = (
        MOBuilder("Click")
        .with_prebuilt_dimension(build_sparse_time_dimension(days))
        .with_prebuilt_dimension(
            dimension_from_rows(
                dimension_type_from_chains(
                    "URL", [["url", "domain", "domain_grp"]]
                ),
                URL_ROWS,
            )
        )
        .with_measure("Number_of")
        .with_measure("Dwell_time")
        .with_measure("Peak", aggregate="max")
    )
    for index, (day, peak, dwell) in enumerate(
        zip(days, peaks, dwell_times)
    ):
        builder.with_fact(
            f"f{index}",
            {"Time": day_value(day), "URL": URL_ROWS[0]["url"]},
            {"Number_of": 1, "Dwell_time": dwell, "Peak": peak},
        )
    mo = builder.build()
    store = SubcubeStore(mo, spec_for(mo, 1, 4))
    load_all(store, mo)
    store.synchronize(ONE_FACT_PER_CUBE_AT)
    assert sorted(
        store.cube(definition.name).mo.n_facts
        for definition in store.definitions
    ) == [1, 1, 1]
    return store


@pytest.mark.parametrize(
    "peaks", list(itertools.product([0.0, -0.0], repeat=3))
)
@pytest.mark.parametrize(
    "granularity",
    [{"Time": TOP, "URL": TOP}, {"Time": "day", "URL": "url"}],
    ids=["grand_total", "finest"],
)
@pytest.mark.parametrize("aggregation", list(AggregationApproach))
def test_partials_fold_in_cube_order(peaks, granularity, aggregation):
    # Each cube's partial is its one fact, so the cross-cube fold alone
    # decides which signed zero ``max`` keeps and how the sums round;
    # at the finest granularity only ``LUB`` gathers the three cells.
    store = _one_fact_per_cube(peaks, [1e16, 1.0, -1e16])
    query = SubcubeQuery(None, granularity, aggregation=aggregation)
    actual = query_store(store, query, ONE_FACT_PER_CUBE_AT)
    expected = _reference_query_store(
        store, query, ONE_FACT_PER_CUBE_AT, synchronized=True
    )
    assert _facts(actual) == _facts(expected)
