"""Unit tests for the static cost and selectivity estimator."""

import datetime as dt

from repro.analysis import estimate_costs
from repro.checks.prover import Prover, ProverConfig
from repro.spec.action import Action

PROVER = ProverConfig(reference=dt.date(2001, 1, 1), horizon_years=2)

# The paper MO has 5 materialized days and 4 bottom URLs -> 20 cells.
PAPER_BOTTOM_CELLS = 20


def act(mo, name, granularity, predicate):
    text = f"p(a[{granularity}] o[{predicate}](O))"
    return Action.parse(mo.schema, text, name)


def costs_for(mo, *specs):
    actions = [
        act(mo, name, granularity, predicate)
        for name, granularity, predicate in specs
    ]
    return estimate_costs(actions, Prover(mo.dimensions, PROVER))


class TestEstimates:
    def test_unconstrained_action_admits_everything(self, paper_mo):
        (cost,) = costs_for(
            paper_mo, ("all", "Time.month, URL.domain", "TRUE")
        )
        assert cost.total_cells == PAPER_BOTTOM_CELLS
        assert cost.admitted_cells == PAPER_BOTTOM_CELLS
        assert cost.selectivity == 1.0
        assert cost.granularity == ("month", "domain")

    def test_categorical_selectivity(self, paper_mo):
        # Three of the four URLs are .com: 3 urls x 5 days = 15 cells.
        (cost,) = costs_for(
            paper_mo,
            ("com", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
        )
        assert cost.admitted_cells == 15
        assert cost.selectivity == 15 / PAPER_BOTTOM_CELLS

    def test_time_window_prunes_days(self, paper_mo):
        # Only the three 1999 days fall before the 1999/12 month bound.
        (cost,) = costs_for(
            paper_mo,
            ("old", "Time.month, URL.domain", "Time.month <= '1999/12'"),
        )
        assert cost.admitted_cells == 3 * 4

    def test_unsatisfiable_action_costs_nothing(self, paper_mo):
        (cost,) = costs_for(
            paper_mo, ("never", "Time.month, URL.domain", "FALSE")
        )
        assert cost.admitted_cells == 0
        assert cost.selectivity == 0.0
        assert cost.output_cells == 0

    def test_rollup_bounds_output(self, paper_mo):
        (cost,) = costs_for(
            paper_mo, ("all", "Time.month, URL.domain", "TRUE")
        )
        assert cost.rollup_factor is not None and cost.rollup_factor > 1
        assert cost.output_cells is not None
        assert cost.output_cells <= cost.admitted_cells

    def test_ungrounded_degrades_to_none(self, paper_mo):
        action = act(
            paper_mo, "x", "Time.month, URL.domain", "URL.domain_grp = '.com'"
        )
        (cost,) = estimate_costs([action], Prover(None, PROVER))
        assert cost.admitted_cells is None
        assert cost.selectivity is None
        assert cost.to_dict()["admitted_cells"] is None

    def test_results_in_input_order(self, paper_mo):
        costs = costs_for(
            paper_mo,
            ("b", "Time.month, URL.domain", "TRUE"),
            ("a", "Time.day, URL.url", "TRUE"),
        )
        assert [cost.action for cost in costs] == ["b", "a"]
