"""Property-based tests of the reduction semantics (Definition 2)."""

import datetime as dt

from hypothesis import given, settings

from repro.reduction.reducer import reduce_mo

from .strategies import evaluation_times, mos_with_specs

SETTINGS = settings(max_examples=30, deadline=None)


def cells(mo):
    return sorted(mo.direct_cell(f) for f in mo.facts())


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_distributive_totals_preserved(pair, at):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    assert reduced.total("Number_of") == mo.total("Number_of")
    assert reduced.total("Dwell_time") == mo.total("Dwell_time")
    assert reduced.total("Peak") == mo.total("Peak")  # MAX is distributive


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_fact_count_never_grows(pair, at):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    assert reduced.n_facts <= mo.n_facts


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_idempotent_at_fixed_time(pair, at):
    mo, spec = pair
    once = reduce_mo(mo, spec, at)
    twice = reduce_mo(once, spec, at)
    assert cells(once) == cells(twice)


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times(), gap=...)
def test_composition_equals_direct(pair, at, gap: bool):
    """reduce(reduce(O, t1), t2) == reduce(O, t2) for Growing specs."""
    mo, spec = pair
    later = at + dt.timedelta(days=200 if gap else 40)
    composed = reduce_mo(reduce_mo(mo, spec, at), spec, later)
    direct = reduce_mo(mo, spec, later)
    assert cells(composed) == cells(direct)
    assert composed.total("Dwell_time") == direct.total("Dwell_time")


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_granularity_never_decreases(pair, at):
    """The Growing property observed on facts (Equation 17)."""
    mo, spec = pair
    later = at + dt.timedelta(days=150)
    first = reduce_mo(mo, spec, at)
    second = reduce_mo(first, spec, later)
    schema = mo.schema
    # Sources can only move to coarser cells: match via provenance.
    source_to_gran_first = {}
    for fact in first.facts():
        for member in first.provenance(fact).members:
            source_to_gran_first[member] = first.gran(fact)
    for fact in second.facts():
        gran_second = second.gran(fact)
        for member in second.provenance(fact).members:
            assert schema.le_granularity(
                source_to_gran_first[member], gran_second
            )


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_provenance_partitions_sources(pair, at):
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    members = sorted(
        m for f in reduced.facts() for m in reduced.provenance(f).members
    )
    assert members == sorted(mo.fact_ids)


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_facts_characterized_by_their_cells(pair, at):
    """Cell(f, t) values characterize the original facts (Eq. 12)."""
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    for fact in reduced.facts():
        cell = reduced.direct_cell(fact)
        for member in reduced.provenance(fact).members:
            for name, value in zip(mo.schema.dimension_names, cell):
                assert mo.characterized_by(member, name, value)


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_legal_delete_has_no_observable_effect(pair, at):
    """Definition 4's guarantee: if an action may be deleted, reducing
    with or without it gives the same result on that MO at that time."""
    mo, spec = pair
    reduced = reduce_mo(mo, spec, at)
    for action in spec.actions:
        smaller, problems = spec.try_delete([action.name], reduced, at)
        if problems:
            continue  # rejected deletions are out of scope here
        with_action = reduce_mo(reduced, spec, at)
        without_action = reduce_mo(reduced, smaller, at)
        assert cells(with_action) == cells(without_action), action.name
