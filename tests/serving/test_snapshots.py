"""MVCC snapshot manager: versioning, pinning, isolation, integrity."""

import pytest

from repro.core.hierarchy import TOP
from repro.engine.queryproc import SubcubeQuery, plan_cache
from repro.engine.store import SubcubeStore
from repro import sanitize
from repro.errors import ServingError, SnapshotMutationError
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.serving import SnapshotManager, store_fingerprint

from ..engine.durableutil import facts_of

GRAND_TOTAL = SubcubeQuery(None, {"Time": TOP, "URL": TOP})
COM_BY_DOMAIN = SubcubeQuery(
    "URL.domain_grp = '.com'", {"Time": "year", "URL": "domain"}
)


def rows_of(mo):
    return sorted(
        (mo.direct_cell(f), mo.measure_value(f, "Number_of"))
        for f in mo.facts()
    )


@pytest.fixture
def store():
    mo = build_paper_mo()
    store = SubcubeStore(mo, paper_specification(mo))
    store.load(facts_of(mo))
    store.synchronize(SNAPSHOT_TIMES[0])
    return store


@pytest.fixture
def manager():
    return SnapshotManager()


class TestPublish:
    def test_versions_are_sequential(self, store, manager):
        first = manager.publish(store)
        second = manager.publish(store)
        assert (first.version, second.version) == (1, 2)
        assert manager.version == 2
        assert manager.current() is second

    def test_snapshot_matches_the_store_at_publication(self, store, manager):
        snapshot = manager.publish(store)
        assert snapshot.fingerprint == store_fingerprint(snapshot.store)
        assert snapshot.total_facts() == store.total_facts()
        assert snapshot.last_sync == store.last_sync
        assert snapshot.verify_integrity()

    def test_unpinned_predecessor_is_retired_on_publish(self, store, manager):
        manager.publish(store)
        manager.publish(store)
        assert manager.live_versions() == [2]


class TestPinning:
    def test_acquire_before_any_publish_raises(self, manager):
        with pytest.raises(ServingError, match="no snapshot"):
            manager.acquire()

    def test_acquire_release_round_trip(self, store, manager):
        manager.publish(store)
        snapshot = manager.acquire()
        assert snapshot.pins == 1
        manager.release(snapshot)
        assert snapshot.pins == 0
        assert manager.live_versions() == [1]  # current is never retired

    def test_over_release_raises(self, store, manager):
        manager.publish(store)
        snapshot = manager.acquire()
        manager.release(snapshot)
        with pytest.raises(ServingError, match="released more times"):
            manager.release(snapshot)

    def test_pinned_superseded_version_survives_publish(self, store, manager):
        manager.publish(store)
        pinned = manager.acquire()
        manager.publish(store)
        assert manager.live_versions() == [1, 2]
        assert pinned.verify_integrity()
        manager.release(pinned)
        assert manager.live_versions() == [2]

    def test_pinned_context_manager_pairs_acquire_release(
        self, store, manager
    ):
        manager.publish(store)
        with manager.pinned() as snapshot:
            assert snapshot.pins == 1
        assert snapshot.pins == 0


class TestIsolation:
    def test_reader_on_version_n_is_unperturbed_by_n_plus_one(self, store):
        manager = SnapshotManager()
        manager.publish(store)
        pinned = manager.acquire()
        before = rows_of(pinned.query(GRAND_TOTAL, SNAPSHOT_TIMES[0]))

        # The live store moves on: more data, a later synchronization.
        store.load(
            [(
                "late_fact",
                {
                    "Time": "2000/1/20",
                    "URL": "http://www.cc.gatech.edu/",
                },
                {
                    "Number_of": 5,
                    "Dwell_time": 10,
                    "Delivery_time": 1,
                    "Datasize": 8,
                },
            )]
        )
        store.synchronize(SNAPSHOT_TIMES[-1])
        fresh = manager.publish(store)

        after = rows_of(pinned.query(GRAND_TOTAL, SNAPSHOT_TIMES[0]))
        assert after == before
        assert pinned.verify_integrity()
        assert fresh.fingerprint != pinned.fingerprint
        # The new version sees the extra clicks; the pinned one never will.
        fresh_total = rows_of(fresh.query(GRAND_TOTAL, SNAPSHOT_TIMES[-1]))
        assert sum(count for _, count in fresh_total) == (
            sum(count for _, count in before) + 5
        )
        manager.release(pinned)

    def test_mutating_a_snapshot_is_detected_as_torn(self, store, manager):
        snapshot = manager.publish(store)
        snapshot.store.bottom_cube.mo  # reads are fine
        assert snapshot.verify_integrity()
        # Simulate corruption: write into the frozen store.  With the
        # mutation sanitizer armed the write itself is refused; without
        # it the tamper lands and the fingerprint check catches it.
        if sanitize.enabled(sanitize.MUTATION):
            with pytest.raises(SnapshotMutationError):
                snapshot.store.last_sync = SNAPSHOT_TIMES[-1]
            assert snapshot.verify_integrity()
        else:
            snapshot.store.last_sync = SNAPSHOT_TIMES[-1]
            assert not snapshot.verify_integrity()

    def test_snapshot_queries_do_not_touch_the_live_plan_cache(self, store):
        manager = SnapshotManager()
        snapshot = manager.publish(store)
        snapshot.query(COM_BY_DOMAIN, SNAPSHOT_TIMES[0])
        live = plan_cache(store)
        assert live.n_bound == 0  # the live store never saw the predicate


class TestWarmPlans:
    def test_bound_predicates_carry_to_the_next_version(self, store):
        manager = SnapshotManager()
        first = manager.publish(store)
        first.query(COM_BY_DOMAIN, SNAPSHOT_TIMES[0])
        assert plan_cache(first.store).n_bound == 1

        second = manager.publish(store)
        warmed = plan_cache(second.store)
        assert COM_BY_DOMAIN.predicate in warmed._bound
        # Compiled verdict tables are id-keyed: never carried.
        assert warmed.n_plans == 0


LATE_FACT = (
    "late_fact",
    {"Time": "2000/1/20", "URL": "http://www.cc.gatech.edu/"},
    {"Number_of": 5, "Dwell_time": 10, "Delivery_time": 1, "Datasize": 8},
)


class TestSharing:
    """Version N+1 shares the cubes a step did not touch with version N."""

    def day_step(self, store, manager, index=0):
        # One more click on a recent day: it lands in (and stays in) the
        # bottom cube, and nothing else is old enough to fold.
        fact_id, coordinates, measures = LATE_FACT
        store.load([(f"{fact_id}_{index}", coordinates, measures)])
        store.synchronize(store.last_sync)
        return manager.publish(store)

    def test_untouched_cubes_are_the_same_object_across_versions(
        self, store, manager
    ):
        manager.publish(store)
        previous = manager.acquire()
        current = self.day_step(store, manager)
        bottom = store.bottom_cube.name
        for name in store.cubes:
            shared = current.store.cube(name).mo is previous.store.cube(name).mo
            assert shared == (name != bottom)
        # Neither version reads the live store's own (mutable) MO.
        assert current.store.cube(bottom).mo is not store.bottom_cube.mo
        manager.release(previous)

    def test_pinned_version_verifies_across_ten_further_publishes(
        self, store, manager
    ):
        manager.publish(store)
        pinned = manager.acquire()
        before = rows_of(pinned.query(GRAND_TOTAL, SNAPSHOT_TIMES[0]))
        for index in range(10):
            assert self.day_step(store, manager, index).verify_integrity()
        assert pinned.verify_integrity()
        assert rows_of(pinned.query(GRAND_TOTAL, SNAPSHOT_TIMES[0])) == before
        assert pinned.fingerprint != manager.current().fingerprint
        manager.release(pinned)

    def test_tampering_with_a_shared_cube_tears_every_version_sharing_it(
        self, store, manager
    ):
        store.synchronize(SNAPSHOT_TIMES[1])  # K1 holds facts from here on
        first = manager.publish(store)
        manager.acquire()  # keeps the first version alive
        second = self.day_step(store, manager)
        shared = second.store.cube("K1").mo
        assert shared is first.store.cube("K1").mo and shared.n_facts
        victim = next(iter(shared.facts()))
        if sanitize.enabled(sanitize.MUTATION):
            with pytest.raises(SnapshotMutationError):
                shared.delete_fact(victim)
            assert first.verify_integrity() and second.verify_integrity()
        # A write through internals bumps no mutation counter, so the
        # memoized fingerprint cannot see it; verify_integrity() must.
        shared.measures["Number_of"]._values[victim] = -1
        assert store_fingerprint(second.store) == second.fingerprint
        assert not first.verify_integrity()
        assert not second.verify_integrity()
