"""Experiment B3: soundness-check performance.

Section 5.2 argues the ``|A|^2`` NonCrossing check "offers ample
performance" because action sets are small and checks run only on update;
this bench measures the actual scaling in the number of actions and the
cost of the Growing check with its bounded-horizon sampling.
"""

import pytest

from repro.checks.growing import check_growing
from repro.checks.noncrossing import check_noncrossing
from repro.checks.prover import Prover, ProverConfig
from repro.experiments.paper_example import build_paper_mo
from repro.spec.action import Action

from conftest import emit


def make_actions(mo, count: int):
    """A family of pairwise-ordered monthly/quarterly/yearly actions."""
    actions = []
    tiers = [
        ("month", "domain"),
        ("quarter", "domain"),
        ("quarter", "domain_grp"),
        ("year", "domain_grp"),
    ]
    for index in range(count):
        time_category, url_category = tiers[min(index // 4, 3)]
        months = 3 + 2 * index
        actions.append(
            Action.parse(
                mo.schema,
                f"a[Time.{time_category}, URL.{url_category}] "
                f"o[Time.{time_category} <= NOW - {months} months]",
                f"tier_{index}",
            )
        )
    return actions


@pytest.mark.parametrize("count", [4, 8, 16])
def test_b3_noncrossing_scaling(benchmark, count):
    mo = build_paper_mo()
    actions = make_actions(mo, count)
    config = ProverConfig(horizon_years=3)
    violations = benchmark.pedantic(
        lambda: check_noncrossing(actions, Prover(mo.dimensions, config)),
        rounds=2,
        iterations=1,
    )
    emit(f"B3 noncrossing |A|={count}", [f"violations={len(violations)}"])
    assert not violations  # the family is pairwise ordered or disjoint


def test_b3_growing_check_cost(benchmark):
    mo = build_paper_mo()
    from repro.experiments.paper_example import action_a1, action_a2

    actions = [action_a1(mo), action_a2(mo)]
    config = ProverConfig(horizon_years=3)
    violations = benchmark.pedantic(
        lambda: check_growing(actions, Prover(mo.dimensions, config)),
        rounds=2,
        iterations=1,
    )
    assert not violations


def test_b3_growing_violation_detection_cost(benchmark):
    mo = build_paper_mo()
    from repro.experiments.paper_example import action_a1

    config = ProverConfig(horizon_years=3)
    violations = benchmark.pedantic(
        lambda: check_growing([action_a1(mo)], Prover(mo.dimensions, config)),
        rounds=2,
        iterations=1,
    )
    assert violations
