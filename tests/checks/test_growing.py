"""Unit tests for the Growing check (Sections 4.3 and 5.3)."""

import pytest

from repro.checks.growing import check_growing, is_growing
from repro.checks.prover import Prover, ProverConfig
from repro.experiments.paper_example import (
    action_a1,
    action_a2,
    build_paper_mo,
    growing_example_actions,
)
from repro.spec.action import Action


@pytest.fixture
def mo():
    return build_paper_mo()


class TestPaperFigure2:
    def test_a1_alone_violates(self, mo):
        violations = check_growing([action_a1(mo)], Prover(mo.dimensions))
        assert violations
        assert violations[0].action == "a1"

    def test_a1_with_a2_is_growing(self, mo):
        assert is_growing([action_a1(mo), action_a2(mo)], Prover(mo.dimensions))

    def test_violation_message_names_leaving_days(self, mo):
        (violation,) = check_growing([action_a1(mo)], Prover(mo.dimensions))[:1]
        assert "stops selecting days" in str(violation)


class TestSection53Example:
    """The worked Equations 24-29 example: g1 is shrinking; g2 (.com) and
    g3 (.edu) jointly catch it because the URL domain groups cover the
    whole dimension."""

    def test_full_rule_set_is_growing(self, mo):
        g1, g2, g3 = growing_example_actions(mo)
        assert is_growing([g1, g2, g3], Prover(mo.dimensions))

    def test_dropping_edu_catcher_breaks_it(self, mo):
        g1, g2, g3 = growing_example_actions(mo)
        violations = check_growing([g1, g2], Prover(mo.dimensions))
        assert violations
        assert violations[0].action == "g1"
        # The witness cell is a .edu URL, exactly the uncovered region.
        assert violations[0].cell["URL"] == "http://www.cc.gatech.edu/"

    def test_dropping_com_catcher_breaks_it(self, mo):
        g1, g2, g3 = growing_example_actions(mo)
        violations = check_growing([g1, g3], Prover(mo.dimensions))
        assert violations
        assert violations[0].cell["URL"] != "http://www.cc.gatech.edu/"


class TestGeneralBehaviour:
    def test_growing_actions_always_pass(self, mo):
        assert is_growing([action_a2(mo)], Prover(mo.dimensions))
        fixed = Action.parse(
            mo.schema, "a[Time.month, URL.domain] o[Time.month <= '1999/12']"
        )
        assert is_growing([fixed], Prover(mo.dimensions))

    def test_empty_specification_growing(self, mo):
        assert is_growing([], Prover(mo.dimensions))

    def test_catcher_must_be_ge_in_every_dimension(self, mo):
        shrinking = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[NOW - 12 months <= Time.month "
            "AND Time.month <= NOW - 6 months]",
            "shrink",
        )
        # Same time coverage, but URL target *below* the shrinking action's.
        weak_catcher = Action.parse(
            mo.schema,
            "a[Time.quarter, URL.url] o[Time.quarter <= NOW - 4 quarters]",
            "weak",
        )
        assert not is_growing([shrinking, weak_catcher], Prover(mo.dimensions))

    def test_catcher_window_must_reach_the_edge(self, mo):
        shrinking = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[NOW - 12 months <= Time.month "
            "AND Time.month <= NOW - 6 months]",
            "shrink",
        )
        # Catches only data older than 3 years: a gap remains between
        # 12 months and 3 years.
        late_catcher = Action.parse(
            mo.schema,
            "a[Time.quarter, URL.domain] o[Time.year <= NOW - 3 years]",
            "late",
        )
        assert not is_growing([shrinking, late_catcher], Prover(mo.dimensions))

    def test_own_disjunct_can_catch(self, mo):
        # One action whose second disjunct catches its first.
        action = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[(NOW - 12 months <= Time.month AND "
            "Time.month <= NOW - 6 months) OR Time.month <= NOW - 12 months]",
            "self_catching",
        )
        assert is_growing([action], Prover(mo.dimensions))

    def test_config_horizon_respected(self, mo):
        config = ProverConfig(horizon_years=2)
        violations = check_growing([action_a1(mo)], Prover(mo.dimensions, config))
        assert violations


class TestStrategyFamilies:
    """The property-test strategies skip validation for speed; pin the
    soundness of every spec family they can emit here."""

    def test_tiered_family_sound(self, mo):
        from tests.properties.strategies import spec_for

        for detail_months in (1, 4, 8):
            for coarse_quarters in (1, 3, 6):
                spec = spec_for(mo, detail_months, coarse_quarters)
                assert not spec.violations(), (detail_months, coarse_quarters)

    def test_windowed_family_sound(self, mo):
        from tests.properties.strategies import windowed_spec_for

        for k in (3, 6, 9):
            spec = windowed_spec_for(mo, k)
            assert not spec.violations(), k
