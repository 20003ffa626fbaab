"""Experiment B8: the columnar kernel and incremental synchronization.

Asserts two shape claims about this repo's batch engine (how fast either
runs is ``benchmarks/pipeline/``'s question, not this file's):

* ``reduce_mo``'s default, the columnar kernel, matches the interpretive
  reference on the clickstream workload fact for fact;
* incremental synchronization examines strictly fewer facts than a full
  rescan across a two-step NOW advance (proved by the examined counter,
  not just by move counts).
"""

import datetime as dt

from repro.engine.store import SYNC_LAST_EXAMINED, SubcubeStore
from repro.reduction.reducer import reduce_mo

from conftest import BENCH_NOW, emit


def test_b8_default_is_the_columnar_kernel(clickstream_mo, clickstream_spec):
    """``reduce_mo`` runs the columnar kernel by default, and it must
    match the interpretive reference exactly."""
    mo, spec = clickstream_mo, clickstream_spec
    default = reduce_mo(mo, spec, BENCH_NOW)
    interpretive = reduce_mo(mo, spec, BENCH_NOW, backend="interpretive")
    assert list(default.facts()) == list(interpretive.facts())


def test_b8_incremental_sync_examines_fewer(
    benchmark, clickstream_mo, clickstream_spec, clickstream_facts
):
    mo, spec = clickstream_mo, clickstream_spec
    t1 = BENCH_NOW
    t2 = t1 + dt.timedelta(days=45)
    t3 = t2 + dt.timedelta(days=45)

    def trajectory(incremental):
        store = SubcubeStore(mo, spec)
        store.load(clickstream_facts)
        store.synchronize(t1, incremental=incremental)
        examined = []
        for at in (t2, t3):
            store.synchronize(at, incremental=incremental)
            examined.append(
                int(store.metrics.value(SYNC_LAST_EXAMINED) or 0)
            )
        return store, examined

    store_incremental, examined_incremental = trajectory(True)
    store_full, examined_full = trajectory(False)

    def snapshot(store):
        return {
            name: sorted(
                (f, cube.mo.direct_cell(f)) for f in cube.mo.facts()
            )
            for name, cube in store.cubes.items()
        }

    # Equivalence: the incremental path lands in the same state.
    assert snapshot(store_incremental) == snapshot(store_full)
    emit(
        "B8 incremental sync examined",
        [
            f"step {i + 1}: incremental={a} full={b}"
            for i, (a, b) in enumerate(zip(examined_incremental, examined_full))
        ],
    )
    # The acceptance claim: strictly fewer facts examined over the
    # two-step advance, and on no step more than the full rescan.
    assert sum(examined_incremental) < sum(examined_full)
    assert all(
        a <= b for a, b in zip(examined_incremental, examined_full)
    )

    benchmark.pedantic(lambda: trajectory(True), rounds=1, iterations=1)
