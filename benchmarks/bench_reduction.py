"""Experiment B7: reduction-engine cost.

Times ``reduce_mo`` as a function of fact count and action count, and the
incremental mode (reducing an already-reduced MO), asserting the shapes a
user cares about: cost grows roughly linearly in facts, and re-reducing
already-aggregated data is much cheaper than the first pass.
"""

import datetime as dt

import pytest

from repro.reduction.reducer import reduce_mo
from repro.spec.specification import ReductionSpecification
from repro.workload import (
    ClickstreamConfig,
    build_clickstream_mo,
    tiered_retention_actions,
)

from conftest import BENCH_NOW, emit


def workload(clicks_per_day: int):
    config = ClickstreamConfig(
        start=dt.date(2000, 1, 1),
        end=dt.date(2000, 12, 31),
        domains_per_group=2,
        urls_per_domain=2,
        clicks_per_day=clicks_per_day,
        seed=77,
    )
    mo = build_clickstream_mo(config)
    spec = ReductionSpecification(
        tiered_retention_actions(mo, detail_months=2, month_years=1),
        mo.dimensions,
    )
    return mo, spec


@pytest.mark.parametrize("clicks_per_day", [2, 4, 8])
def test_b7_reduce_scales_with_facts(benchmark, clicks_per_day):
    mo, spec = workload(clicks_per_day)
    reduced = benchmark.pedantic(
        reduce_mo, args=(mo, spec, BENCH_NOW), rounds=3, iterations=1
    )
    emit(
        f"B7 reduce {mo.n_facts} facts",
        [f"facts {mo.n_facts} -> {reduced.n_facts}"],
    )
    assert reduced.n_facts < mo.n_facts


def test_b7_incremental_cheaper_than_first_pass(benchmark):
    import time

    mo, spec = workload(6)
    # Pin the interpretive backend: the claim under test is about the
    # row-wise engine's incremental shape, not the columnar default.
    start = time.perf_counter()
    first = reduce_mo(mo, spec, BENCH_NOW, backend="interpretive")
    first_pass = time.perf_counter() - start

    def incremental():
        return reduce_mo(
            first, spec, BENCH_NOW + dt.timedelta(days=30),
            backend="interpretive",
        )

    benchmark.pedantic(incremental, rounds=3, iterations=1)
    start = time.perf_counter()
    incremental()
    second_pass = time.perf_counter() - start
    emit(
        "B7 first vs incremental pass",
        [f"first={first_pass * 1000:.0f}ms incremental={second_pass * 1000:.0f}ms"],
    )
    assert second_pass < first_pass


def test_b7_action_count_overhead(benchmark):
    """Each extra action adds one predicate evaluation per fact; cost
    should stay near-linear in the number of actions."""
    mo, spec = workload(4)
    from repro.spec.action import Action

    extra = [
        Action.parse(
            mo.schema,
            f"a[Time.month, URL.domain] o[Time.month <= NOW - {k} months "
            f"AND URL.domain_grp = '.com']",
            f"extra_{k}",
        )
        for k in range(3, 9)
    ]
    wide = ReductionSpecification(
        (*spec.actions, *extra), mo.dimensions, validate=False
    )
    narrow_result = reduce_mo(mo, spec, BENCH_NOW)
    wide_result = benchmark.pedantic(
        reduce_mo, args=(mo, wide, BENCH_NOW), rounds=3, iterations=1
    )
    emit(
        "B7 action-count overhead",
        [
            f"2 actions -> {narrow_result.n_facts} facts; "
            f"8 actions -> {wide_result.n_facts} facts"
        ],
    )
    # The extra month-level actions are all dominated by the tiered spec,
    # so the result is unchanged — only the evaluation cost differs.
    assert wide_result.n_facts == narrow_result.n_facts

