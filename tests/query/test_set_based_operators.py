"""The set-based select and the one-pass group-by against their
fact-at-a-time references.

``aggregate`` is ``aggregate_facts`` over every fact, so comparing the two
would compare the implementation with itself.  The references here are
the loops the operators replaced: one validated insert per result row,
one ``Provenance.merge`` per member, one predicate walk per fact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.facts import Provenance, aggregate_fact_id
from repro.core.mo import MultidimensionalObject
from repro.core.rowcheck import RowValidator
from repro.core.schema import FactSchema
from repro.errors import DimensionError, FactError
from repro.query.aggregation import (
    AggregationApproach,
    aggregate,
    aggregate_facts,
)
from repro.query.compare import Approach
from repro.query.selection import CompiledPredicate, bind_query_predicate
from repro.reduction.reducer import reduce_mo
from repro.spec.predicate import satisfies

from ..properties.strategies import evaluation_times, mos_with_specs

SETTINGS = settings(max_examples=40, deadline=None)

TIME_CATEGORIES = ["day", "week", "month", "quarter", "year", "__top__"]
URL_CATEGORIES = ["url", "domain", "domain_grp", "__top__"]

#: NOT, OR, and atoms over two dimensions, at categories the reduced
#: facts only partly reach (so the two approaches disagree).
PREDICATES = [
    "NOT (Time.month <= NOW - 3 months)",
    "URL.domain_grp = '.com' OR Time.year = '1999'",
    "NOT URL.domain = 'site0.com' AND Time.quarter <= NOW - 2 quarters",
    "NOT (URL.url = 'http://www.site1.edu/p0' OR Time.day <= NOW - 200 days)",
    "Time.week <= NOW - 30 weeks AND URL.domain IN {'site0.com', 'site1.edu'}",
]


def content(mo):
    """Everything an answer is: fact order, cells, measures, provenance,
    per-fact granularity, and the result dimensions."""
    return (
        [
            (
                fact_id,
                mo.direct_cell(fact_id),
                [mo.measure_value(fact_id, m) for m in mo.schema.measure_names],
                mo.provenance(fact_id).members,
                mo.gran(fact_id),
            )
            for fact_id in mo.facts()
        ],
        {
            name: (
                dimension.bottom_category,
                {c: dimension.values(c) for c in dimension.categories},
                {v: dimension.parents(v) for v in dimension.all_values()},
            )
            for name, dimension in mo.dimensions.items()
        },
    )


def finest_available(dimension, direct, category):
    hierarchy = dimension.dimension_type.hierarchy
    if dimension.try_ancestor_at(direct, category) is not None and hierarchy.le(
        dimension.category_of(direct), category
    ):
        return category, dimension.try_ancestor_at(direct, category)
    candidates = [
        c
        for c in hierarchy
        if hierarchy.le(category, c)
        and dimension.try_ancestor_at(direct, c) is not None
    ]
    chosen = [
        c for c in candidates if not any(hierarchy.lt(o, c) for o in candidates)
    ][0]
    return chosen, dimension.ancestor_at(direct, chosen)


def reference_aggregate(mo, granularity, approach):
    """Definition 6 fact by fact, through validated inserts."""
    names = mo.schema.dimension_names
    requested = mo.schema.validate_granularity(granularity)
    per_fact = {}
    seen = {name: set() for name in names}
    for fact_id in mo.facts():
        pairs = [
            finest_available(
                mo.dimensions[name], mo.direct_value(fact_id, name), category
            )
            for name, category in zip(names, requested)
        ]
        if approach is AggregationApproach.STRICT and any(
            found != category for (found, _), category in zip(pairs, requested)
        ):
            continue
        for name, (found, _) in zip(names, pairs):
            seen[name].add(found)
        per_fact[fact_id] = tuple(value for _, value in pairs)
    if approach is AggregationApproach.LUB:
        common = [
            mo.dimensions[name].dimension_type.hierarchy.lub(
                seen[name] | {category}
            )
            for name, category in zip(names, requested)
        ]
        per_fact = {
            fact_id: tuple(
                mo.dimensions[name].ancestor_at(
                    mo.direct_value(fact_id, name), category
                )
                for name, category in zip(names, common)
            )
            for fact_id in per_fact
        }
    dimensions = {}
    for name, category in zip(names, requested):
        dimension = mo.dimensions[name]
        hierarchy = dimension.dimension_type.hierarchy
        if category in (hierarchy.bottom, "__top__"):
            dimensions[name] = dimension
        else:
            dimensions[name] = dimension._build_subdimension(
                frozenset(
                    c for c in hierarchy.user_categories if hierarchy.le(category, c)
                )
                | {"__top__"}
            )
    result = MultidimensionalObject(
        FactSchema(
            mo.schema.fact_type,
            [dimensions[name].dimension_type for name in names],
            mo.schema.measure_types,
        ),
        dimensions,
    )
    groups = {}
    for fact_id, cell in per_fact.items():
        groups.setdefault(cell, []).append(fact_id)
    for cell, members in groups.items():
        provenance = Provenance()
        for member in members:
            provenance = provenance.merge(mo.provenance(member))
        result.insert_aggregate_fact(
            aggregate_fact_id(cell),
            dict(zip(names, cell)),
            {
                name: mo.measures[name].aggregate(
                    [mo.measure_value(member, name) for member in members]
                )
                for name in mo.schema.measure_names
            },
            provenance,
        )
    return result


def outcome(function):
    try:
        return content(function())
    except DimensionError as error:
        return type(error)


@SETTINGS
@given(
    pair=mos_with_specs(),
    at=evaluation_times(),
    time_category=st.sampled_from(TIME_CATEGORIES),
    url_category=st.sampled_from(URL_CATEGORIES),
    approach=st.sampled_from(list(AggregationApproach)),
    data=st.data(),
)
def test_aggregate_facts_equals_the_reference_on_the_restriction(
    pair, at, time_category, url_category, approach, data
):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    # Any order, repeats allowed: the restriction keeps first occurrences.
    keep = data.draw(st.lists(st.sampled_from(sorted(reduced.facts()))))
    granularity = {"Time": time_category, "URL": url_category}
    restricted = reduced.restrict_to_facts(keep)
    expected = outcome(
        lambda: reference_aggregate(restricted, granularity, approach)
    )
    assert (
        outcome(lambda: aggregate_facts(reduced, keep, granularity, approach))
        == expected
    )
    assert outcome(lambda: aggregate(restricted, granularity, approach)) == expected


@SETTINGS
@given(
    pair=mos_with_specs(),
    at=evaluation_times(),
    time_category=st.sampled_from(TIME_CATEGORIES),
    url_category=st.sampled_from(URL_CATEGORIES),
    approach=st.sampled_from(list(AggregationApproach)),
)
def test_adopted_rows_pass_the_validation_production_skips(
    pair, at, time_category, url_category, approach
):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    try:
        result = aggregate(
            reduced, {"Time": time_category, "URL": url_category}, approach
        )
    except DimensionError:
        return
    validator = RowValidator(result.schema, result.dimensions)
    names = result.schema.dimension_names
    for fact_id in result.facts():
        cell = result.direct_cell(fact_id)
        canonical = validator.validate_row(
            fact_id,
            dict(zip(names, cell)),
            {m: result.measure_value(fact_id, m) for m in result.schema.measure_names},
            bottom_only=False,
        )
        assert tuple(canonical[name] for name in names) == cell


@SETTINGS
@given(
    pair=mos_with_specs(),
    at=evaluation_times(),
    text=st.sampled_from(PREDICATES),
    approach=st.sampled_from([Approach.CONSERVATIVE, Approach.LIBERAL]),
)
def test_set_based_select_equals_the_per_fact_walk(pair, at, text, approach):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    bound = bind_query_predicate(reduced, text)
    plan = CompiledPredicate(bound, reduced.dimensions, at)
    expected = [
        fact_id
        for fact_id in reduced.facts()
        if satisfies(reduced, fact_id, bound, at, approach)
    ]
    assert plan.satisfying_facts(reduced, approach) == expected
    # The verdict tables are warm now; the answer may not depend on that,
    # nor on which MO over the same dimensions filled them.
    assert plan.satisfying_facts(reduced, approach) == expected
    assert plan.satisfying_facts(mo, approach) == [
        fact_id
        for fact_id in mo.facts()
        if satisfies(mo, fact_id, bound, at, approach)
    ]


def test_aggregate_facts_rejects_unknown_facts():
    from repro.experiments.paper_example import build_paper_mo

    mo = build_paper_mo()
    with pytest.raises(FactError):
        aggregate_facts(mo, ["fact_0", "nope"], {"Time": "month", "URL": "domain"})
