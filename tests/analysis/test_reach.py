"""Unit tests for reachability: unsatisfiable and union-covered actions."""

import datetime as dt

from repro.analysis import reachability
from repro.checks.prover import Prover, ProverConfig
from repro.spec.action import Action

PROVER = ProverConfig(reference=dt.date(2001, 1, 1), horizon_years=2)


def act(mo, name, granularity, predicate):
    text = f"p(a[{granularity}] o[{predicate}](O))"
    return Action.parse(mo.schema, text, name)


def reach_for(mo, *specs):
    actions = [
        act(mo, name, granularity, predicate)
        for name, granularity, predicate in specs
    ]
    return reachability(actions, Prover(mo.dimensions, PROVER))


class TestUnsatisfiable:
    def test_contradictory_predicate(self, paper_mo):
        result = reach_for(
            paper_mo,
            (
                "never",
                "Time.month, URL.domain",
                "URL.domain_grp = '.com' AND URL.domain_grp = '.edu'",
            ),
            ("live", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
        )
        assert result.unsatisfiable == ("never",)
        assert result.live == ("live",)
        assert not result.dead

    def test_false_predicate(self, paper_mo):
        result = reach_for(
            paper_mo, ("nope", "Time.month, URL.domain", "FALSE")
        )
        assert result.unsatisfiable == ("nope",)


class TestUnionCoverage:
    def test_jointly_covered_action_is_dead(self, paper_mo):
        # Neither catcher alone covers the victim (SDR106 would stay
        # silent) but their union does: .com plus .edu is the whole
        # domain_grp category.
        result = reach_for(
            paper_mo,
            ("com", "Time.month, URL.domain_grp", "URL.domain_grp = '.com'"),
            ("edu", "Time.month, URL.domain_grp", "URL.domain_grp = '.edu'"),
            ("victim", "Time.month, URL.domain_grp", "TRUE"),
        )
        assert result.dead == {"victim": ("com", "edu")}
        assert set(result.live) == {"com", "edu"}

    def test_window_gap_keeps_action_live(self, paper_mo):
        # The catchers tile the value space but leave a time gap, so a
        # cell in the gap is only the victim's.
        result = reach_for(
            paper_mo,
            (
                "old_com",
                "Time.month, URL.domain_grp",
                "URL.domain_grp = '.com' AND Time.month <= NOW - 12 months",
            ),
            ("edu", "Time.month, URL.domain_grp", "URL.domain_grp = '.edu'"),
            ("victim", "Time.month, URL.domain_grp", "TRUE"),
        )
        assert "victim" in result.live
        assert not result.dead

    def test_finer_action_cannot_catch(self, paper_mo):
        # A strictly finer granularity is not >= the victim's, so it can
        # never determine the same fact's final granularity.
        result = reach_for(
            paper_mo,
            ("fine", "Time.day, URL.url", "TRUE"),
            ("victim", "Time.month, URL.domain", "TRUE"),
        )
        assert "victim" in result.live
        assert "fine" in result.dead  # the coarser TRUE action covers it

    def test_to_dict_shape(self, paper_mo):
        result = reach_for(
            paper_mo,
            ("com", "Time.month, URL.domain_grp", "URL.domain_grp = '.com'"),
            ("edu", "Time.month, URL.domain_grp", "URL.domain_grp = '.edu'"),
            ("victim", "Time.month, URL.domain_grp", "TRUE"),
        )
        payload = result.to_dict()
        assert payload["dead"] == {"victim": ["com", "edu"]}
        assert payload["unsatisfiable"] == []
        assert sorted(payload["live"]) == ["com", "edu"]
