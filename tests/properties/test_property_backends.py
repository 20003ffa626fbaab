"""Property-based equivalence of the reduction kernel and its oracle.

The interpretive reducer is the executable form of Definition 2; the
columnar kernel — what a bare ``reduce_mo`` runs — must be
*bit-for-bit* identical to it: same fact ids in the same order, same
cells, same provenance, same measure values.  The subcube store's
insert+synchronize pipeline must agree observationally (cells and
measures; its fact ids are cube-scoped by construction).
"""

import datetime as dt

from hypothesis import given, settings

from repro.engine.store import SubcubeStore
from repro.reduction import BACKENDS, reduce_mo

from .strategies import evaluation_times, mos_with_specs

SETTINGS = settings(max_examples=25, deadline=None)


def assert_identical(left, right):
    assert list(left.facts()) == list(right.facts())
    for fact_id in left.facts():
        assert left.direct_cell(fact_id) == right.direct_cell(fact_id)
        assert left.provenance(fact_id) == right.provenance(fact_id)
        for name in left.schema.measure_names:
            assert left.measure_value(fact_id, name) == right.measure_value(
                fact_id, name
            )


def observable(mo):
    """Cell -> measures, the backend-independent view of a reduced MO."""
    out = {}
    for fact_id in mo.facts():
        cell = mo.direct_cell(fact_id)
        out[cell] = {
            name: mo.measure_value(fact_id, name)
            for name in mo.schema.measure_names
        }
    return out


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


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_explicit_backend_dispatch_is_bit_for_bit(pair, at):
    mo, spec = pair
    interpretive = reduce_mo(mo, spec, at, backend="interpretive")
    assert_identical(reduce_mo(mo, spec, at, backend="columnar"), interpretive)
    assert_identical(reduce_mo(mo, spec, at), interpretive)


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_store_pipeline_agrees_with_every_backend(pair, at):
    mo, spec = pair
    store = SubcubeStore(mo, spec)
    load_all(store, mo)
    store.synchronize(at)
    expected = observable(store.materialize())
    for backend in BACKENDS:
        assert observable(reduce_mo(mo, spec, at, backend=backend)) == expected


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_incremental_store_agrees_after_now_advances(pair, at):
    mo, spec = pair
    store = SubcubeStore(mo, spec)
    load_all(store, mo)
    for step in (0, 40, 200):
        current = at + dt.timedelta(days=step)
        store.synchronize(current)
        assert observable(store.materialize()) == observable(
            reduce_mo(mo, spec, current, backend="columnar")
        )
