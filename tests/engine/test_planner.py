"""Unit tests for the subcube query planner."""

import datetime as dt

import pytest

from repro.engine.planner import explain_plan
from repro.engine.queryproc import SubcubeQuery, query_store
from repro.engine.store import SubcubeStore
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.query.algebra import mo_rows


@pytest.fixture
def store():
    mo = build_paper_mo()
    store = SubcubeStore(mo, paper_specification(mo))
    store.load(
        (
            fact_id,
            dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
            {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
        )
        for fact_id in mo.facts()
    )
    return store


QUERY = SubcubeQuery(None, {"Time": "month", "URL": "domain_grp"})

#: The pipeline benchmark's eight request shapes, with this example's
#: constants.
BENCHMARK_SHAPES = [
    SubcubeQuery(None, {"Time": "__top__", "URL": "__top__"}),
    SubcubeQuery("URL.domain_grp = '.com'", {"Time": "year", "URL": "domain_grp"}),
    SubcubeQuery(None, {"Time": "month", "URL": "domain"}),
    SubcubeQuery("Time.month >= NOW - 2 months", {"Time": "day", "URL": "domain"}),
    SubcubeQuery("URL.domain = 'cnn.com'", {"Time": "quarter", "URL": "domain"}),
    SubcubeQuery(
        "URL.domain_grp = '.edu' AND Time.year = '2000'",
        {"Time": "month", "URL": "domain_grp"},
    ),
    SubcubeQuery("Time.year = '1999'", {"Time": "day", "URL": "url"}),
    SubcubeQuery(
        "URL.url = 'http://www.cnn.com/health'", {"Time": "month", "URL": "url"}
    ),
]


def _bound_misses(store):
    return (
        store.metrics.value(
            "repro_query_plan_cache_misses_total", {"cache": "bound"}
        )
        or 0
    )


def _check_plans_match_queries(store, at, assume_synchronized):
    for query in BENCHMARK_SHAPES:
        expected_misses = _bound_misses(store) + (query.predicate is not None)
        plan = explain_plan(store, query, at, assume_synchronized)
        # The plan runs the path it describes: the store's cached,
        # compiled predicate, bound once however many cubes it visits.
        assert _bound_misses(store) == expected_misses
        direct = query_store(store, query, at, assume_synchronized)
        assert _bound_misses(store) == expected_misses
        assert mo_rows(plan.result) == mo_rows(direct)
        assert list(plan.result.facts()) == list(direct.facts())
        assert plan.combined_rows == direct.n_facts


class TestPlan:
    def test_steps_cover_all_cubes(self, store):
        at = SNAPSHOT_TIMES[-1]
        store.synchronize(at)
        plan = explain_plan(store, QUERY, at)
        assert [s.cube for s in plan.steps] == ["K0", "K1", "K2"]
        assert plan.synchronized

    def test_scanned_counts_match_cubes(self, store):
        at = SNAPSHOT_TIMES[-1]
        store.synchronize(at)
        plan = explain_plan(store, QUERY, at)
        by_cube = {s.cube: s for s in plan.steps}
        assert by_cube["K0"].facts_scanned == 1
        assert by_cube["K1"].facts_scanned == 1
        assert by_cube["K2"].facts_scanned == 2

    def test_exactness_flags(self, store):
        at = SNAPSHOT_TIMES[-1]
        store.synchronize(at)
        plan = explain_plan(store, QUERY, at)
        by_cube = {s.cube: s for s in plan.steps}
        # The quarter cube cannot answer a month query exactly.
        assert not by_cube["K2"].answers_at_requested_granularity
        assert by_cube["K1"].answers_at_requested_granularity

    def test_plan_result_matches_query_store(self, store):
        at = SNAPSHOT_TIMES[-1]
        store.synchronize(at)
        _check_plans_match_queries(store, at, assume_synchronized=True)

    def test_unsynchronized_plan_result_matches_query_store(self, store):
        store.synchronize(SNAPSHOT_TIMES[0])  # everything still in K0
        _check_plans_match_queries(
            store, SNAPSHOT_TIMES[-1], assume_synchronized=False
        )

    def test_unsynchronized_plan_reports_parent_pulls(self, store):
        store.synchronize(SNAPSHOT_TIMES[0])  # everything still in K0
        at = SNAPSHOT_TIMES[-1]
        plan = explain_plan(store, QUERY, at, assume_synchronized=False)
        assert not plan.synchronized
        pulled = sum(s.pulled_from_parents for s in plan.steps)
        assert pulled > 0
        # Correctness is unaffected.
        store.synchronize(at)
        fresh = query_store(store, QUERY, at)
        assert mo_rows(plan.result) == mo_rows(fresh)

    def test_render(self, store):
        at = SNAPSHOT_TIMES[-1]
        store.synchronize(at)
        text = explain_plan(store, QUERY, at).render()
        assert "scan K2" in text
        assert "combine 3 subresults" in text
        assert "coarser than requested" in text
