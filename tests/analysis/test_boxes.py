"""Unit tests for the box domain: exactness, regions, containment.

A box is a DNF disjunct's profile read through the analysis' prover."""

import datetime as dt

from repro.checks.prover import Prover, ProverConfig, window_modelled_exactly
from repro.spec.action import Action
from repro.spec.ranges import profiles_of

PROVER = ProverConfig(reference=dt.date(2001, 1, 1), horizon_years=2)

COM_URLS = frozenset(
    {
        "http://www.cnn.com/",
        "http://www.cnn.com/health",
        "http://www.amazon.com/exec/obidos/tg/browse/",
    }
)


def act(mo, name, granularity, predicate):
    text = f"p(a[{granularity}] o[{predicate}](O))"
    return Action.parse(mo.schema, text, name)


class TestBoxes:
    def test_one_box_per_disjunct(self, paper_mo):
        action = act(
            paper_mo,
            "x",
            "Time.month, URL.domain",
            "URL.domain = 'cnn.com' OR URL.domain = 'gatech.edu'",
        )
        prover = Prover(paper_mo.dimensions)
        boxes = prover.profiles(action)
        assert len(boxes) == 2
        assert all(box.action is action for box in boxes)
        assert prover.profiles(action) is boxes

    def test_region_grounds_to_bottom_values(self, paper_mo):
        action = act(
            paper_mo, "x", "Time.month, URL.domain", "URL.domain_grp = '.com'"
        )
        prover = Prover(paper_mo.dimensions)
        box = prover.profiles(action)[0]
        assert prover.regions(box) == {"URL": COM_URLS}

    def test_unconstrained_dimension_is_none(self, paper_mo):
        action = act(
            paper_mo, "x", "Time.month, URL.domain", "Time.month <= '1999/12'"
        )
        prover = Prover(paper_mo.dimensions)
        box = prover.profiles(action)[0]
        assert prover.regions(box) == {"URL": None}

    def test_exact_box(self, paper_mo):
        action = act(
            paper_mo,
            "x",
            "Time.month, URL.domain",
            "URL.domain_grp = '.com' AND Time.month <= NOW - 6 months",
        )
        prover = Prover(paper_mo.dimensions)
        box = prover.profiles(action)[0]
        assert prover.exact(box)
        assert window_modelled_exactly(box)

    def test_symbolic_region_is_not_exact(self, paper_mo):
        action = act(
            paper_mo, "x", "Time.month, URL.domain", "URL.domain_grp = '.com'"
        )
        # Without dimension instances the region cannot be grounded.
        prover = Prover()
        box = prover.profiles(action)[0]
        assert not prover.exact(box)


class TestContainment:
    def profile(self, mo, predicate):
        action = act(mo, "x", "Time.month, URL.domain", predicate)
        return profiles_of(action)[0]

    def test_region_containment(self, paper_mo):
        inner = self.profile(paper_mo, "URL.domain = 'cnn.com'")
        outer = self.profile(paper_mo, "URL.domain_grp = '.com'")
        prover = Prover(paper_mo.dimensions)
        assert prover.region_contained(inner, outer)
        assert not prover.region_contained(outer, inner)

    def test_unconstrained_outer_contains_anything(self, paper_mo):
        inner = self.profile(paper_mo, "URL.domain = 'cnn.com'")
        outer = self.profile(paper_mo, "Time.month <= '1999/12'")
        assert Prover(paper_mo.dimensions).region_contained(inner, outer)

    def test_profile_containment_needs_window_too(self, paper_mo):
        inner = self.profile(
            paper_mo,
            "URL.domain = 'cnn.com' AND Time.month <= NOW - 12 months",
        )
        outer = self.profile(
            paper_mo,
            "URL.domain_grp = '.com' AND Time.month <= NOW - 6 months",
        )
        # The inner window (older than 12 months) sits inside the outer
        # (older than 6 months) at every evaluation time.
        prover = Prover(paper_mo.dimensions, PROVER)
        assert prover.contained(inner, outer)
        assert not prover.contained(outer, inner)

    def test_symbolic_outer_refused(self, paper_mo):
        inner = self.profile(paper_mo, "URL.domain = 'cnn.com'")
        outer = self.profile(paper_mo, "URL.domain_grp = '.com'")
        # Ungrounded outer regions must refuse, not guess.
        assert not Prover(None, PROVER).contained(inner, outer)
