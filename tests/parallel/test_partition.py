"""Shard planning: exact fact coverage, serial order, and cost balance.

The balance test uses a deliberately *skewed* load — one giant
signature group next to a handful of stragglers — because that is the
case splitpoint-style partitioning must handle: the giant group has to
be split contiguously (in serial fact order) and spread across shards,
weighted by the per-action selectivity estimates from
``analysis/cost.py``, or one worker ends up doing all the work.
"""

import datetime as dt

import pytest

from repro.core.builder import (
    MOBuilder,
    dimension_from_rows,
    dimension_type_from_chains,
)
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.parallel.partition import (
    OVERSIZE_FACTOR,
    action_weights,
    plan_reduction_shards,
)
from repro.timedim.builder import build_sparse_time_dimension
from repro.timedim.calendar import day_value

from ..properties.strategies import URL_ROWS, spec_for

MO = build_paper_mo()
SPEC = paper_specification(MO)
NOW = SNAPSHOT_TIMES[1]


def plan_for(workers):
    return plan_reduction_shards(MO, list(SPEC.actions), NOW, workers)


def test_plan_partitions_facts_exactly_once():
    plan = plan_for(4)
    serial = list(MO.facts())
    spread = [fact for shard in plan.shards for fact in shard.fact_ids]
    assert sorted(spread) == sorted(serial)
    index = {fact: position for position, fact in enumerate(serial)}
    for shard in plan.shards:
        order = [index[fact] for fact in shard.fact_ids]
        assert order == sorted(order), "shard facts must stay serial-ordered"


def test_single_worker_plan_is_the_identity():
    plan = plan_for(1)
    assert len(plan.shards) == 1
    assert plan.shards[0].fact_ids == tuple(MO.facts())
    assert plan.skew == pytest.approx(1.0)
    assert plan.n_facts == MO.n_facts


def test_pruned_action_indices_are_valid():
    plan = plan_for(4)
    assert plan.pruned_actions >= 0
    for shard in plan.shards:
        assert all(0 <= i < plan.n_actions for i in shard.action_indices)
        assert len(set(shard.action_indices)) == len(shard.action_indices)


def skewed_mo(giant=48, singles=8):
    """One giant signature group (old `.com` facts sharing a day) plus
    a tail of recent facts no action admits."""
    old_day, recent_day = dt.date(1999, 1, 4), dt.date(1999, 6, 28)
    builder = (
        MOBuilder("Click")
        .with_prebuilt_dimension(
            build_sparse_time_dimension([old_day, recent_day])
        )
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
    com = [row["url"] for row in URL_ROWS if row["domain_grp"] == ".com"]
    edu = [row["url"] for row in URL_ROWS if row["domain_grp"] == ".edu"]
    for i in range(giant):
        builder.with_fact(
            f"g{i:03d}",
            {"Time": day_value(old_day), "URL": com[i % len(com)]},
            {"Number_of": 1, "Dwell_time": 10, "Peak": 5},
        )
    for i in range(singles):
        builder.with_fact(
            f"s{i:03d}",
            {"Time": day_value(recent_day), "URL": edu[i % len(edu)]},
            {"Number_of": 1, "Dwell_time": 20, "Peak": 3},
        )
    return builder.build()


def test_skewed_giant_group_is_split_and_balanced():
    mo = skewed_mo()
    spec = spec_for(mo, detail_months=2, coarse_quarters=8)
    actions = list(spec.actions)
    now = dt.date(1999, 7, 1)

    weights = action_weights(actions, mo.dimensions)
    assert len(weights) == len(actions)
    assert all(0.0 < weight <= 1.0 for weight in weights)

    plan = plan_reduction_shards(mo, actions, now, 4)
    assert all(shard.fact_ids for shard in plan.shards), (
        "a skewed load must still fill every shard"
    )
    # The giant group was split contiguously across (nearly) all shards…
    giant_shards = sum(
        any(fact.startswith("g") for fact in shard.fact_ids)
        for shard in plan.shards
    )
    assert giant_shards >= 3
    # …and the cost-weighted loads stay near the mean: after splitting,
    # no unit exceeds ~OVERSIZE_FACTOR x target, so LPT lands well
    # under that bound.
    assert plan.skew <= OVERSIZE_FACTOR + 0.25
    mean = sum(shard.weight for shard in plan.shards) / len(plan.shards)
    assert max(shard.weight for shard in plan.shards) <= plan.skew * mean * (
        1 + 1e-9
    )

