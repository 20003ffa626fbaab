"""Property-based equivalence: shard-parallel vs serial, bit for bit.

The shard plan is mode-independent, so a ``mode="serial"`` executor
exercises the full partition/merge machinery deterministically per
hypothesis example; true process fan-out (fork, pipes, worker faults)
is covered by the deterministic suites under ``tests/parallel``.  The
SQLite backend's fact ids are cell-scoped, so parity with it is checked
at the observable (cell -> measures) level, like the serial SQL suite.
"""

from hypothesis import given, settings

from repro.parallel import ShardExecutor, reduce_mo_sharded
from repro.reduction import BACKENDS, reduce_mo
from repro.sql.loader import SqlWarehouse
from repro.sql.reducer_sql import reduce_warehouse

from .strategies import evaluation_times, mos_with_specs
from .test_property_backends import assert_identical, observable

SETTINGS = settings(max_examples=15, deadline=None)

WORKER_COUNTS = (1, 2, 4)


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_sharded_reduction_is_bit_for_bit(pair, at):
    mo, spec = pair
    for backend in BACKENDS:
        serial = reduce_mo(mo, spec, at, backend=backend)
        for workers in WORKER_COUNTS:
            executor = ShardExecutor(workers=workers, mode="serial")
            assert_identical(
                reduce_mo_sharded(
                    mo, spec, at, executor=executor, backend=backend
                ),
                serial,
            )


@SETTINGS
@given(pair=mos_with_specs(), at=evaluation_times())
def test_sharded_reduction_matches_sql_observably(pair, at):
    mo, spec = pair
    warehouse = SqlWarehouse.from_mo(mo)
    reduce_warehouse(warehouse, spec, at)
    sql_view = observable(warehouse.to_mo(mo))
    executor = ShardExecutor(workers=4, mode="serial")
    assert (
        observable(reduce_mo_sharded(mo, spec, at, executor=executor))
        == sql_view
    )

