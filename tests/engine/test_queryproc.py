"""Unit tests for query processing over subcubes (Section 7.3)."""

import datetime as dt

import pytest

from repro.engine.queryproc import (
    SubcubeQuery,
    effective_content,
    query_store,
)
from repro.engine.store import SubcubeStore
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.query.aggregation import aggregate
from repro.query.algebra import mo_rows
from repro.query.selection import select
from repro.reduction.reducer import reduce_mo


def facts_of(mo):
    return [
        (
            fact_id,
            dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
            {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
        )
        for fact_id in sorted(mo.facts())
    ]


@pytest.fixture
def mo():
    return build_paper_mo()


@pytest.fixture
def store(mo):
    store = SubcubeStore(mo, paper_specification(mo))
    store.load(facts_of(mo))
    return store


def monolithic_answer(mo, spec, query, at):
    reduced = reduce_mo(mo, spec, at, backend="interpretive")
    selected = (
        select(reduced, query.predicate, at)
        if query.predicate
        else reduced
    )
    return aggregate(selected, dict(query.granularity), query.aggregation)


QUERIES = [
    SubcubeQuery(None, {"Time": "year", "URL": "domain_grp"}),
    SubcubeQuery("URL.domain_grp = '.com'", {"Time": "quarter", "URL": "domain"}),
    SubcubeQuery("Time.year = '2000'", {"Time": "month", "URL": "domain_grp"}),
]


class TestSynchronizedQueries:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("at", SNAPSHOT_TIMES)
    def test_matches_monolithic(self, mo, store, query, at):
        store.synchronize(at)
        expected = monolithic_answer(mo, store.specification, query, at)
        actual = query_store(store, query, at)
        assert _content(actual) == _content(expected)


class TestUnsynchronizedQueries:
    @pytest.mark.parametrize("query", QUERIES)
    def test_stale_store_still_answers_correctly(self, mo, store, query):
        store.synchronize(SNAPSHOT_TIMES[0])  # everything still in K0
        at = SNAPSHOT_TIMES[2]
        expected = monolithic_answer(mo, store.specification, query, at)
        actual = query_store(store, query, at, assume_synchronized=False)
        assert _content(actual) == _content(expected)

    def test_effective_content_pulls_from_parents(self, store):
        store.synchronize(SNAPSHOT_TIMES[1])  # K1 holds the month facts
        at = SNAPSHOT_TIMES[2]
        quarter_cube = store.cube("K2")
        assert quarter_cube.n_facts == 0  # stale
        effective = effective_content(store, quarter_cube, at)
        assert sorted(effective.direct_cell(f) for f in effective.facts()) == [
            ("1999Q4", "amazon.com"),
            ("1999Q4", "cnn.com"),
        ]

    def test_no_double_counting(self, mo, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        at = SNAPSHOT_TIMES[2]
        query = SubcubeQuery(None, {"Time": "year", "URL": "domain_grp"})
        result = query_store(store, query, at, assume_synchronized=False)
        assert result.total("Number_of") == 7


def _content(mo):
    return sorted(
        (
            row["Time"],
            row["URL"],
            row["Number_of"],
            row["Dwell_time"],
        )
        for row in mo_rows(mo)
    )


class TestQueryPlanCache:
    def test_plan_cache_attaches_once(self, store):
        from repro.engine.queryproc import QueryPlanCache, plan_cache

        plans = plan_cache(store)
        assert isinstance(plans, QueryPlanCache)
        assert plan_cache(store) is plans

    def test_bound_predicates_and_plans_are_reused(self, store):
        from repro.engine.queryproc import plan_cache

        plans = plan_cache(store)
        at = SNAPSHOT_TIMES[1]
        text = "URL.domain_grp = '.com'"
        first = plans.plan_for_text(text, at)
        assert plans.plan_for_text(text, at) is first
        assert plans.n_bound == 1
        assert plans.n_plans == 1
        # A different time compiles a new plan over the same bound AST.
        later = plans.plan_for_text(text, SNAPSHOT_TIMES[2])
        assert later is not first
        assert plans.n_bound == 1
        assert plans.n_plans == 2

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("at", SNAPSHOT_TIMES)
    def test_planned_queries_match_unplanned(self, mo, store, query, at):
        from repro.engine.queryproc import plan_cache

        store.synchronize(at)
        planned = query_store(store, query, at, plans=plan_cache(store))
        unplanned = query_store(store, query, at, plans=None)
        assert _content(planned) == _content(unplanned)

    def test_planned_effective_content_matches(self, store):
        from repro.engine.queryproc import plan_cache

        store.synchronize(SNAPSHOT_TIMES[1])
        at = SNAPSHOT_TIMES[2]
        quarter_cube = store.cube("K2")
        with_plans = effective_content(
            store, quarter_cube, at, plans=plan_cache(store)
        )
        without = effective_content(store, quarter_cube, at, plans=None)
        assert sorted(
            with_plans.direct_cell(f) for f in with_plans.facts()
        ) == sorted(without.direct_cell(f) for f in without.facts())


def _answer(mo):
    """An answer in full: fact order, cells, measures, provenance."""
    return [
        (
            fact_id,
            mo.direct_cell(fact_id),
            [mo.measure_value(fact_id, m) for m in mo.schema.measure_names],
            mo.provenance(fact_id).members,
            mo.gran(fact_id),
        )
        for fact_id in mo.facts()
    ]


PREDICATE_QUERIES = QUERIES + [
    SubcubeQuery(
        "NOT URL.domain = 'cnn.com' OR Time.quarter = '1999Q4'",
        {"Time": "month", "URL": "domain"},
    ),
]


class TestDerivedLookupsFollowTheDimensions:
    def test_new_values_show_up_and_old_answers_keep_their_dimensions(
        self, store
    ):
        at = SNAPSHOT_TIMES[0]
        store.synchronize(at)
        query = SubcubeQuery(
            "Time.year = '2000'", {"Time": "month", "URL": "domain"}
        )
        before = query_store(store, query, at)
        frozen = _answer(before)
        old_time = before.dimensions["Time"]
        old_months = old_time.values("month")
        assert "2000/02" not in old_months

        time = store.bottom_cube.mo.dimensions["Time"]
        url = store.bottom_cube.mo.dimensions["URL"]
        time.add_value("month", "2000/02", ["2000Q1"])
        time.add_value("week", "2000W06")
        time.add_value("day", "2000/02/10", ["2000/02", "2000W06"])
        url.add_value("domain", "bbc.com", [".com"])
        url.add_value("url", "http://www.bbc.com/", ["bbc.com"])
        store.load(
            [
                (
                    "fact_new",
                    {"Time": "2000/02/10", "URL": "http://www.bbc.com/"},
                    {
                        "Number_of": 1,
                        "Dwell_time": 5,
                        "Delivery_time": 1,
                        "Datasize": 2,
                    },
                )
            ]
        )
        after = query_store(store, query, at)
        new_rows = [row for row in _answer(after) if row not in frozen]
        assert [row[1] for row in new_rows] == [("2000/02", "bbc.com")]
        assert new_rows[0][3] == frozenset({"fact_new"})
        assert "2000/02" in after.dimensions["Time"].values("month")
        # The earlier answer is a finished object: same rows, and its
        # dimensions did not grow under it.
        assert _answer(before) == frozen
        assert before.dimensions["Time"] is old_time
        assert old_time.values("month") == old_months
        assert "bbc.com" not in before.dimensions["URL"]


class TestSnapshotsAnswerThroughTheSamePath:
    @pytest.mark.parametrize("query", PREDICATE_QUERIES)
    def test_a_sealed_snapshot_still_answers(self, store, query, monkeypatch):
        from repro.serving.snapshots import SnapshotManager

        at = SNAPSHOT_TIMES[2]
        store.synchronize(at)
        expected = _answer(query_store(store, query, at))
        monkeypatch.setenv("REPRO_SANITIZE", "mutation")
        snapshot = SnapshotManager().publish(store)
        assert snapshot.store.bottom_cube.mo._sealed
        assert _answer(snapshot.query(query, at)) == expected
        assert (
            _answer(snapshot.query(query, at, assume_synchronized=False))
            == expected
        )
        assert snapshot.verify_integrity()

    def test_eight_threads_on_one_snapshot_agree_with_serial(self, store):
        import sys
        import threading

        from repro.serving.snapshots import SnapshotManager

        at = SNAPSHOT_TIMES[2]
        store.synchronize(at)
        snapshot = SnapshotManager().publish(store)
        serial = [_answer(snapshot.query(q, at)) for q in PREDICATE_QUERIES]
        # Cold tables again, so the threads race to fill them.
        from repro.engine.queryproc import plan_cache

        plan_cache(snapshot.store).clear()
        for dimension in snapshot.store.bottom_cube.mo.dimensions.values():
            dimension._available_cache.clear()
            dimension._subdimension_cache.clear()
        answers: dict[int, list] = {}
        start = threading.Barrier(8)

        def reader(index: int) -> None:
            start.wait(timeout=30)
            answers[index] = [
                [_answer(snapshot.query(q, at)) for q in PREDICATE_QUERIES]
                for _ in range(25)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == list(range(8))
        for rounds in answers.values():
            assert all(answer == serial for answer in rounds)


class TestUnsynchronizedEqualsSynchronized:
    @pytest.mark.parametrize("query", PREDICATE_QUERIES)
    @pytest.mark.parametrize("stale_at", SNAPSHOT_TIMES[:2])
    def test_same_rows_before_and_after_the_sync(
        self, store, query, stale_at
    ):
        store.synchronize(stale_at)
        at = SNAPSHOT_TIMES[2]
        lazy = query_store(store, query, at, assume_synchronized=False)
        store.synchronize(at)
        synced = query_store(store, query, at)
        # Fact order may differ (the repair step visits parents after
        # the cube itself); rows, measures and provenance may not.
        assert sorted(_answer(lazy)) == sorted(_answer(synced))
