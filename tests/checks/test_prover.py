"""Unit tests for the bounded decision procedure."""

import datetime as dt

import pytest

from repro.checks.prover import (
    Prover,
    ProverConfig,
    interval_covered,
    regions_overlap,
    time_independent,
)
from repro.experiments.paper_example import (
    action_a1,
    action_a2,
    build_paper_mo,
)
from repro.spec.action import Action
from repro.spec.ranges import profiles_of


@pytest.fixture
def mo():
    return build_paper_mo()


def profile_of(mo, source: str, name: str = "p"):
    (profile,) = profiles_of(Action.parse(mo.schema, source, name))
    return profile


class TestIntervalCovered:
    def test_single_piece(self):
        assert interval_covered((5.0, 10.0), [(0.0, 20.0)])

    def test_union_of_pieces(self):
        assert interval_covered((5.0, 10.0), [(5.0, 7.0), (8.0, 12.0)])

    def test_gap_detected(self):
        assert not interval_covered((5.0, 10.0), [(5.0, 7.0), (9.0, 12.0)])

    def test_none_piece_covers_everything(self):
        assert interval_covered((5.0, 10.0), [None])

    def test_empty_target_trivially_covered(self):
        assert interval_covered((10.0, 5.0), [])

    def test_empty_pieces_fail(self):
        assert not interval_covered((5.0, 10.0), [])
        assert not interval_covered((5.0, 10.0), [(7.0, 6.0)])


class TestSampleTimes:
    def test_horizon_covers_absolute_bounds(self, mo):
        profile = profile_of(mo, "a[Time.month, URL.domain] o[Time.month = '1995/06']")
        times = Prover().horizon([profile])
        assert min(times) <= dt.date(1995, 6, 1)
        assert max(times) >= dt.date(1995, 6, 30)

    def test_default_horizon_around_reference(self, mo):
        profile = profile_of(
            mo, "a[Time.month, URL.domain] o[Time.month <= NOW - 6 months]"
        )
        config = ProverConfig(reference=dt.date(2010, 1, 1))
        times = Prover(config=config).horizon([profile])
        assert times[0] <= dt.date(2010, 1, 1) <= times[-1]

    def test_time_independent(self, mo):
        fixed = profile_of(
            mo, "a[Time.month, URL.domain] o[Time.month <= '1999/12']"
        )
        sliding = profile_of(
            mo, "a[Time.month, URL.domain] o[Time.month <= NOW - 6 months]"
        )
        assert time_independent(fixed)
        assert not time_independent(sliding)


class TestRegions:
    def test_regions_overlap_with_common_values(self, mo):
        p1 = profiles_of(action_a1(mo))[0]
        p2 = profiles_of(action_a2(mo))[0]
        prover = Prover(mo.dimensions)
        assert regions_overlap(prover.regions(p1), prover.regions(p2))

    def test_disjoint_regions(self, mo):
        com = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.com']", "c"
        )
        edu = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.edu']", "e"
        )
        prover = Prover(mo.dimensions)
        assert not regions_overlap(prover.regions(com), prover.regions(edu))

    def test_enumerate_product(self, mo):
        com = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.com']", "c"
        )
        cells = Prover(mo.dimensions).cells(com, cap=100)
        assert cells is not None
        assert len(cells) == 3  # the three .com urls

    def test_enumerate_respects_cap(self, mo):
        com = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.com']", "c"
        )
        assert Prover(mo.dimensions).cells(com, cap=2) is None


class TestOverlap:
    def test_paper_pair_overlaps(self, mo):
        p1 = profiles_of(action_a1(mo))[0]
        p2 = profiles_of(action_a2(mo))[0]
        assert Prover(mo.dimensions).overlaps(p1, p2)

    def test_categorically_disjoint_pair(self, mo):
        com = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.com']", "c"
        )
        edu = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.edu']", "e"
        )
        assert not Prover(mo.dimensions).overlaps(com, edu)

    def test_time_disjoint_fixed_pair(self, mo):
        early = profile_of(
            mo, "a[Time.day, URL.url] o[Time.month <= '1998/12']", "early"
        )
        late = profile_of(
            mo, "a[Time.day, URL.url] o[Time.month >= '1999/06']", "late"
        )
        assert not Prover(mo.dimensions).overlaps(early, late)

    def test_relative_windows_with_disjoint_offsets(self, mo):
        recent = profile_of(
            mo,
            "a[Time.day, URL.url] o[Time.month >= NOW - 3 months]",
            "recent",
        )
        ancient = profile_of(
            mo,
            "a[Time.day, URL.url] o[Time.year <= NOW - 3 years]",
            "ancient",
        )
        assert not Prover(mo.dimensions).overlaps(recent, ancient)

    def test_witness_exists_exactly_when_overlapping(self, mo):
        com = profile_of(
            mo, "a[Time.day, URL.url] o[URL.domain_grp = '.com']", "c"
        )
        edu = profile_of(
            mo,
            "a[Time.day, URL.url] o[URL.domain_grp = '.edu' AND "
            "Time.month <= NOW - 6 months]",
            "e",
        )
        recent = profile_of(
            mo, "a[Time.day, URL.url] o[Time.month >= NOW - 3 months]", "r"
        )
        prover = Prover(mo.dimensions)
        for p1, p2 in [(com, edu), (edu, recent), (com, recent), (edu, edu)]:
            witness = prover.witness(p1, p2)
            assert (witness is not None) == prover.overlaps(p1, p2)
        assert prover.witness(com, edu) is None  # disjoint regions
        assert prover.witness(edu, recent) is None  # disjoint windows
        assert prover.witness(com, recent) is not None
