"""Unit tests for the NonCrossing check (Sections 4.3 and 5.2)."""

import pytest

from repro.checks.noncrossing import (
    check_noncrossing,
    is_noncrossing,
    noncrossing_pair,
)
from repro.checks.prover import Prover
from repro.experiments.paper_example import (
    action_a1,
    action_a2,
    action_a3,
    action_a4,
    build_paper_mo,
)
from repro.spec.action import Action


@pytest.fixture
def mo():
    return build_paper_mo()


class TestPaperExamples:
    def test_a1_a2_noncrossing_because_ordered(self, mo):
        assert noncrossing_pair(action_a1(mo), action_a2(mo), Prover(mo.dimensions))

    def test_a2_a3_crossing(self, mo):
        """The paper's first NonCrossing violation: fact_1 satisfies both
        predicates but the granularities are incomparable."""
        assert not noncrossing_pair(action_a2(mo), action_a3(mo), Prover(mo.dimensions))

    def test_a2_a4_crossing_parallel_branch(self, mo):
        """The paper's second example: a4 aggregates into the week branch."""
        assert not noncrossing_pair(action_a2(mo), action_a4(mo), Prover(mo.dimensions))

    def test_full_set_check(self, mo):
        violations = check_noncrossing(
            [action_a1(mo), action_a2(mo), action_a3(mo)], Prover(mo.dimensions)
        )
        assert {(v.first, v.second) for v in violations} == {("a2", "a3")}

    def test_is_noncrossing(self, mo):
        assert is_noncrossing([action_a1(mo), action_a2(mo)], Prover(mo.dimensions))
        assert not is_noncrossing([action_a2(mo), action_a4(mo)], Prover(mo.dimensions))


class TestDisjointPredicates:
    def test_disjoint_categorical_predicates_never_cross(self, mo):
        com = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[URL.domain_grp = '.com']",
            "com",
        )
        edu = Action.parse(
            mo.schema,
            "a[Time.week, URL.domain] o[URL.domain_grp = '.edu']",
            "edu",
        )
        # Incomparable granularities (week vs month) but disjoint regions.
        assert not com.comparable(edu)
        assert noncrossing_pair(com, edu, Prover(mo.dimensions))

    def test_disjoint_time_windows_never_cross(self, mo):
        early = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[Time.month <= '1999/06']",
            "early",
        )
        late = Action.parse(
            mo.schema,
            "a[Time.week, URL.domain] o[Time.week >= '2000W01']",
            "late",
        )
        assert noncrossing_pair(early, late, Prover(mo.dimensions))

    def test_time_fixed_overlap_crosses(self, mo):
        first = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[Time.month <= '2000/01']",
            "first",
        )
        second = Action.parse(
            mo.schema,
            "a[Time.week, URL.domain] o[Time.week <= '2000W01']",
            "second",
        )
        assert not noncrossing_pair(first, second, Prover(mo.dimensions))

    def test_now_relative_vs_fixed_eventual_overlap(self, mo):
        sliding = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[Time.month <= NOW - 6 months]",
            "sliding",
        )
        fixed_weeks = Action.parse(
            mo.schema,
            "a[Time.week, URL.domain] o[Time.week = '2000W10']",
            "fixed_weeks",
        )
        # Eventually NOW - 6 months passes 2000W10, so they overlap.
        assert not noncrossing_pair(sliding, fixed_weeks, Prover(mo.dimensions))

    def test_same_granularity_never_crosses(self, mo):
        first = Action.parse(
            mo.schema, "a[Time.month, URL.domain] o[TRUE]", "f1"
        )
        second = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[URL.domain_grp = '.com']",
            "f2",
        )
        assert noncrossing_pair(first, second, Prover(mo.dimensions))

    def test_without_dimensions_errs_toward_crossing(self, mo):
        com = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[URL.url = 'http://www.cnn.com/'"
            " AND Time.month <= '1999/12']",
            "com2",
            enforce_evaluability=False,
        )
        edu = Action.parse(
            mo.schema,
            "a[Time.week, URL.domain] o[URL.domain = 'gatech.edu' AND "
            "Time.month <= '1999/12']",
            "edu2",
            enforce_evaluability=False,
        )
        # With dimension instances the url/domain regions are provably
        # disjoint; without them the checker must assume overlap.
        assert noncrossing_pair(com, edu, Prover(mo.dimensions))
        assert not noncrossing_pair(com, edu, Prover())
