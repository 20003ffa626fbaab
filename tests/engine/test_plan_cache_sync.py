"""Scoped plan-cache invalidation on sync (regression suite).

A synchronization used to be allowed to blow the whole plan cache away;
now invalidation is scoped (:meth:`QueryPlanCache.note_sync`): bound
predicate ASTs always stay warm, compiled verdict tables are released
only for evaluation times before the sync — and only when some cube
actually received migrated facts.  Serving snapshots rely on this to
keep their caches warm across NOW advances.
"""

import pytest

from repro.engine.queryproc import SubcubeQuery, plan_cache, query_store
from repro.engine.store import SubcubeStore
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)

from .durableutil import facts_of

COM_PREDICATE = "URL.domain_grp = '.com'"
COM_QUERY = SubcubeQuery(COM_PREDICATE, {"Time": "year", "URL": "domain"})

# The paper trajectory: nothing migrates at [0], facts migrate at [1].
T_QUIET, T_MIGRATING, T_LATER = SNAPSHOT_TIMES


@pytest.fixture
def store():
    mo = build_paper_mo()
    store = SubcubeStore(mo, paper_specification(mo))
    store.load(facts_of(mo))
    store.synchronize(T_QUIET)
    return store


def warm(store, now):
    query_store(store, COM_QUERY, now)
    return plan_cache(store)


def test_bound_predicates_survive_a_migrating_sync(store):
    cache = warm(store, T_QUIET)
    assert cache.n_bound == 1 and cache.n_plans == 1

    moved = store.synchronize(T_MIGRATING)
    assert any(moved.values()), "the paper workload must migrate here"

    # The parsed, schema-bound AST is still warm; re-querying after the
    # sync never re-parses (no new bound-cache miss).
    assert cache.n_bound == 1
    misses_before = store.metrics.value(
        "repro_query_plan_cache_misses_total", {"cache": "bound"}
    )
    query_store(store, COM_QUERY, T_MIGRATING)
    misses_after = store.metrics.value(
        "repro_query_plan_cache_misses_total", {"cache": "bound"}
    )
    assert misses_after == misses_before


def test_migrating_sync_releases_only_stale_time_plans(store):
    cache = warm(store, T_QUIET)
    assert cache.n_plans == 1  # compiled at T_QUIET

    store.synchronize(T_MIGRATING)
    # T_QUIET predates the sync: its verdict tables are unreachable.
    assert cache.n_plans == 0

    # Plans compiled at or after the sync time survive the next
    # migrating sync only if still current; ones at the sync time do.
    warm(store, T_MIGRATING)
    warm(store, T_LATER)
    assert cache.n_plans == 2
    moved = store.synchronize(T_LATER)
    assert any(moved.values())
    assert cache.n_plans == 1  # the T_MIGRATING plan was released
    assert (COM_PREDICATE in cache._bound)


def test_zero_migration_sync_releases_nothing(store):
    cache = warm(store, T_QUIET)
    assert cache.n_plans == 1

    # Re-synchronizing at the same time examines but moves nothing.
    moved = store.synchronize(T_QUIET)
    assert not any(moved.values())
    assert cache.n_plans == 1
    assert cache.n_bound == 1


def test_rebuild_clears_the_cache_completely(store):
    cache = warm(store, T_QUIET)
    assert cache.n_bound == 1 and cache.n_plans == 1

    store.rebuild(store.specification, T_MIGRATING)
    assert cache.n_bound == 0
    assert cache.n_plans == 0


def test_cached_answers_stay_correct_across_syncs(store):
    """The warm cache is an optimization, never a semantic change."""

    def rows(mo):
        return sorted(
            (mo.direct_cell(f), mo.measure_value(f, "Number_of"))
            for f in mo.facts()
        )

    # A twin store whose cache is cleared before every query.
    mo = build_paper_mo()
    cold = SubcubeStore(mo, paper_specification(mo))
    cold.load(facts_of(mo))
    cold.synchronize(T_QUIET)

    for at in (T_QUIET, T_MIGRATING, T_LATER):
        store.synchronize(at)
        cold.synchronize(at)
        plan_cache(cold).clear()  # the cold twin recompiles every time
        assert rows(query_store(store, COM_QUERY, at)) == rows(
            query_store(cold, COM_QUERY, at)
        )


def test_cold_predicate_texts_cannot_grow_the_cache_without_bound(store):
    """One-off constants (``URL.url = '<user input>'``) are evicted least
    recently used, text and plans together; a hot text stays compiled."""
    from repro.engine.queryproc import MAX_CACHED_TEXTS

    cache = warm(store, T_QUIET)
    hot_plan = cache.plan_for_text(COM_PREDICATE, T_QUIET)
    granularity = {"Time": "year", "URL": "url"}
    for index in range(1000):
        cold = SubcubeQuery(f"URL.url = 'http://cold/{index}'", granularity)
        query_store(store, cold, T_QUIET)
        if index % 50 == 0:
            query_store(store, COM_QUERY, T_QUIET)
    assert cache.n_bound <= MAX_CACHED_TEXTS
    assert cache.n_plans <= MAX_CACHED_TEXTS
    assert cache.plan_for_text(COM_PREDICATE, T_QUIET) is hot_plan
    metrics = store.metrics
    assert (
        metrics.value("repro_query_plan_cache_misses_total", {"cache": "bound"})
        == 1001
    )
    assert (
        metrics.value("repro_query_plan_cache_misses_total", {"cache": "plan"})
        == 1001
    )
