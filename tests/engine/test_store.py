"""Unit tests for the subcube store (Figure 6 architecture)."""

import datetime as dt
import functools
from dataclasses import replace

import pytest

from repro.core.facts import Provenance
from repro.engine.store import SubcubeStore
from repro.errors import AuditError, EngineError

from .durableutil import fingerprint
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.reduction.reducer import reduce_mo
from repro.spec.action import Action
from repro.spec.specification import ReductionSpecification
from repro.workload import (
    ClickstreamConfig,
    build_clickstream_mo,
    generate_clicks,
    grouped_retention_actions,
)


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


class TestLoading:
    def test_all_data_enters_bottom_cube(self, store):
        assert store.bottom_cube.n_facts == 7
        assert store.total_facts() == 7

    def test_cube_lookup(self, store):
        assert store.cube("K1").granularity == ("month", "domain")
        with pytest.raises(EngineError):
            store.cube("K9")


class TestSynchronization:
    def test_figure_3_distribution(self, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        shape = {name: cube.n_facts for name, cube in store.cubes.items()}
        assert shape == {"K0": 3, "K1": 3, "K2": 0}
        store.synchronize(SNAPSHOT_TIMES[2])
        shape = {name: cube.n_facts for name, cube in store.cubes.items()}
        assert shape == {"K0": 1, "K1": 1, "K2": 2}

    def test_matches_monolithic_reducer(self, mo, store):
        for at in SNAPSHOT_TIMES:
            store.synchronize(at)
            expected = reduce_mo(
                mo, store.specification, at, backend="interpretive"
            )
            materialized = store.materialize()
            assert sorted(
                materialized.direct_cell(f) for f in materialized.facts()
            ) == sorted(expected.direct_cell(f) for f in expected.facts())
            for measure in mo.schema.measure_names:
                assert materialized.total(measure) == expected.total(measure)

    def test_idempotent(self, store):
        store.synchronize(SNAPSHOT_TIMES[2])
        before = {n: c.n_facts for n, c in store.cubes.items()}
        moved = store.synchronize(SNAPSHOT_TIMES[2])
        assert sum(moved.values()) == 0
        assert {n: c.n_facts for n, c in store.cubes.items()} == before

    def test_clock_monotone(self, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        with pytest.raises(EngineError, match="backwards"):
            store.synchronize(SNAPSHOT_TIMES[0])

    def test_incremental_load_then_sync(self, mo, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        store.load(
            [
                (
                    "late",
                    {"Time": "1999/12/31", "URL": "http://www.cnn.com/"},
                    {
                        "Number_of": 1,
                        "Dwell_time": 7,
                        "Delivery_time": 1,
                        "Datasize": 2,
                    },
                )
            ]
        )
        store.synchronize(SNAPSHOT_TIMES[2])
        materialized = store.materialize()
        by_cell = {
            materialized.direct_cell(f): f for f in materialized.facts()
        }
        merged = by_cell[("1999Q4", "cnn.com")]
        assert materialized.measure_value(merged, "Number_of") == 3
        assert materialized.measure_value(merged, "Dwell_time") == 2489 + 7


class TestRebuild:
    def test_rebuild_after_insert(self, mo, store):
        at = SNAPSHOT_TIMES[2]
        store.synchronize(at)
        bigger = store.specification.insert(
            [
                Action.parse(
                    mo.schema,
                    "a[Time.year, URL.domain_grp] o[Time.year <= NOW - 5 years]",
                    "to_year",
                )
            ]
        )
        store.rebuild(bigger, at)
        assert any(
            d.granularity == ("year", "domain_grp") for d in store.definitions
        )
        expected = reduce_mo(mo, bigger, at, backend="interpretive")
        materialized = store.materialize()
        assert sorted(
            materialized.direct_cell(f) for f in materialized.facts()
        ) == sorted(expected.direct_cell(f) for f in expected.facts())

    def test_rebuild_refuses_disaggregation(self, mo, store):
        at = SNAPSHOT_TIMES[2]
        store.synchronize(at)
        # A specification without a2 would claim the quarter facts at a
        # lower level — irreversibility forbids the rebuild.
        weaker = ReductionSpecification(
            (
                Action.parse(
                    mo.schema,
                    "a[Time.month, URL.domain] o[Time.month <= '1999/12']",
                    "only_month",
                ),
            ),
            mo.dimensions,
        )
        with pytest.raises(EngineError, match="disaggregate"):
            store.rebuild(weaker, at)


class TestIncomparableCubes:
    """The extended scenario adds a (week, domain) cube that is
    granularity-incomparable with the (month, domain) one; facts must
    still partition correctly and match the monolithic reducer."""

    def test_week_branch_store_matches_reducer(self):
        import datetime as dt

        from repro.experiments.figures import (
            build_extended_mo,
            extended_specification,
        )

        mo = build_extended_mo()
        spec = extended_specification(mo)
        store = SubcubeStore(mo, spec)
        store.load(facts_of(mo))
        for at in (
            dt.date(2000, 6, 5),
            dt.date(2000, 12, 5),
            dt.date(2001, 2, 5),
        ):
            store.synchronize(at)
            expected = reduce_mo(mo, spec, at, backend="interpretive")
            materialized = store.materialize()
            assert sorted(
                materialized.direct_cell(f) for f in materialized.facts()
            ) == sorted(expected.direct_cell(f) for f in expected.facts())

    def test_week_facts_never_enter_month_cube(self):
        import datetime as dt

        from repro.experiments.figures import (
            build_extended_mo,
            extended_specification,
        )

        mo = build_extended_mo()
        spec = extended_specification(mo)
        store = SubcubeStore(mo, spec)
        store.load(facts_of(mo))
        store.synchronize(dt.date(2001, 2, 5))
        week_cube = next(
            store.cube(d.name)
            for d in store.definitions
            if d.granularity == ("week", "domain")
        )
        month_cube = next(
            store.cube(d.name)
            for d in store.definitions
            if d.granularity == ("month", "domain")
        )
        assert week_cube.n_facts > 0
        for fact_id in month_cube.facts():
            assert month_cube.mo.gran(fact_id) == ("month", "domain")
        for fact_id in week_cube.facts():
            assert week_cube.mo.gran(fact_id) == ("week", "domain")


MEASURE_ROW = {
    "Number_of": 1,
    "Dwell_time": 7,
    "Delivery_time": 1,
    "Datasize": 2,
}


class _ExplodingStore(SubcubeStore):
    """A store whose migration hook raises after N migrations: a failure
    after some facts of a synchronization have already left their cube."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_after = None
        self.migrations = 0

    def _migrate_fault(self):
        self.migrations += 1
        if self.fail_after is not None and self.migrations > self.fail_after:
            raise RuntimeError("simulated mid-sync failure")


class TestTransactionalLoad:
    def test_failed_batch_is_all_or_nothing(self, mo, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        before = fingerprint(store)
        dirty_before = set(store._dirty)
        total_before = store.total_facts()
        batch = [
            # A brand-new cell...
            (
                "late",
                {"Time": "1999/12/31", "URL": "http://www.cnn.com/"},
                dict(MEASURE_ROW),
            ),
            # ...a fact merging into an existing bottom-cube cell...
            (
                "merge",
                {"Time": "2000/1/4", "URL": "http://www.cnn.com/"},
                dict(MEASURE_ROW),
            ),
            # ...and a fact that cannot insert (no URL coordinate).
            ("bad", {"Time": "1999/12/31"}, dict(MEASURE_ROW)),
        ]
        with pytest.raises(EngineError, match="lacks a coordinate"):
            store.load(batch)
        assert fingerprint(store) == before
        assert store._dirty == dirty_before
        assert store.total_facts() == total_before

    def test_failed_batch_restores_merged_measures_exactly(self, mo, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        bottom = store.bottom_cube
        target_id = bottom.cell_fact_id(
            {"Time": "2000/1/4", "URL": "http://www.cnn.com/"}
        )
        dwell_before = bottom.mo.measure_value(target_id, "Dwell_time")
        batch = [
            (
                "merge",
                {"Time": "2000/1/4", "URL": "http://www.cnn.com/"},
                dict(MEASURE_ROW),
            ),
            ("bad", {"Time": "1999/12/31"}, dict(MEASURE_ROW)),
        ]
        with pytest.raises(EngineError):
            store.load(batch)
        # The merge was rolled back to the exact prior aggregate, not
        # merely deleted (the original partial-application bug).
        assert bottom.mo.measure_value(target_id, "Dwell_time") == dwell_before
        assert bottom.mo.provenance(target_id).members == {"fact_4"}

    def test_successful_retry_after_failed_batch(self, mo, store):
        batch = [("bad", {"Time": "1999/12/31"}, dict(MEASURE_ROW))]
        with pytest.raises(EngineError):
            store.load(batch)
        store.synchronize(SNAPSHOT_TIMES[2])
        shape = {name: cube.n_facts for name, cube in store.cubes.items()}
        assert shape == {"K0": 1, "K1": 1, "K2": 2}


class TestTransactionalSync:
    def _exploding(self, mo):
        store = _ExplodingStore(mo, paper_specification(mo))
        store.load(facts_of(mo))
        return store

    def test_mid_sync_failure_rolls_back_bit_for_bit(self, mo):
        store = self._exploding(mo)
        store.synchronize(SNAPSHOT_TIMES[1])
        before = fingerprint(store)
        store.fail_after = store.migrations + 1
        with pytest.raises(RuntimeError, match="simulated"):
            store.synchronize(SNAPSHOT_TIMES[2])
        assert fingerprint(store) == before
        assert store.last_sync == SNAPSHOT_TIMES[1]

    def test_retry_after_failure_matches_clean_run(self, mo):
        store = self._exploding(mo)
        store.synchronize(SNAPSHOT_TIMES[1])
        store.fail_after = store.migrations + 1
        with pytest.raises(RuntimeError):
            store.synchronize(SNAPSHOT_TIMES[2])
        store.fail_after = None
        store.synchronize(SNAPSHOT_TIMES[2])

        clean = SubcubeStore(mo, paper_specification(mo))
        clean.load(facts_of(mo))
        clean.synchronize(SNAPSHOT_TIMES[1])
        clean.synchronize(SNAPSHOT_TIMES[2])
        assert fingerprint(store) == fingerprint(clean)

    def test_dirty_set_survives_failed_sync(self, mo):
        store = self._exploding(mo)
        store.synchronize(SNAPSHOT_TIMES[1])
        store.load(
            [
                (
                    "late",
                    {"Time": "1999/12/31", "URL": "http://www.cnn.com/"},
                    dict(MEASURE_ROW),
                )
            ]
        )
        dirty_before = set(store._dirty)
        assert dirty_before
        store.fail_after = store.migrations
        with pytest.raises(RuntimeError):
            store.synchronize(SNAPSHOT_TIMES[2])
        assert store._dirty == dirty_before


def _clickstream_store(store_class=SubcubeStore):
    """A small click-stream store synchronized on 2000-11-30, plus the
    facts of 2000-12-01, the month rollover that folds a whole month."""
    config = ClickstreamConfig(
        start=dt.date(2000, 6, 1),
        end=dt.date(2000, 12, 1),
        domains_per_group=2,
        urls_per_domain=2,
        clicks_per_day=3,
        seed=7,
    )
    template = build_clickstream_mo(replace(config, clicks_per_day=0))
    spec = ReductionSpecification(
        grouped_retention_actions(template, detail_months=3, coarse_years=2),
        template.dimensions,
    )
    facts = list(generate_clicks(config))
    rollover = [f for f in facts if f[1]["Time"] == "2000/12/01"]
    store = store_class(template, spec)
    store.load([f for f in facts if f[1]["Time"] != "2000/12/01"])
    store.synchronize(dt.date(2000, 11, 30))
    store.load(rollover)
    return store


class TestBatchPlacement:
    """Synchronization places every candidate fact in one batch pass; these
    pin what that pass must keep of the one-fact-at-a-time behaviour."""

    def _moves(self, make, at):
        store = make()
        store.migrations = 0
        store.synchronize(at)
        return store.migrations, fingerprint(store)

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_fault_in_first_full_sync_rolls_back(self, mo, position):
        def make():
            store = _ExplodingStore(mo, paper_specification(mo))
            store.load(facts_of(mo))
            return store

        at = SNAPSHOT_TIMES[1]
        moves, clean = self._moves(make, at)
        assert moves >= 3
        store = make()
        before, dirty = fingerprint(store), set(store._dirty)
        store.fail_after = {"first": 0, "middle": moves // 2, "last": moves - 1}[
            position
        ]
        with pytest.raises(RuntimeError, match="simulated"):
            store.synchronize(at)
        assert fingerprint(store) == before
        assert store._dirty == dirty
        store.fail_after = None
        store.synchronize(at)
        assert fingerprint(store) == clean

    def test_fault_during_month_rollover_rolls_back(self):
        at = dt.date(2000, 12, 1)
        make = functools.partial(_clickstream_store, _ExplodingStore)
        moves, clean = self._moves(make, at)
        assert moves > 10
        store = make()
        before, dirty = fingerprint(store), set(store._dirty)
        store.migrations = 0
        store.fail_after = moves // 2
        with pytest.raises(RuntimeError, match="simulated"):
            store.synchronize(at)
        assert fingerprint(store) == before
        assert store._dirty == dirty
        store.fail_after = None
        store.synchronize(at)
        assert fingerprint(store) == clean

    def test_crossing_specification_raises_before_any_move(self):
        from repro.experiments.figures import build_extended_mo
        from repro.experiments.paper_example import action_a1, action_a2

        mo = build_extended_mo()
        gatech = "URL.domain = 'gatech.edu'"
        spec = ReductionSpecification(
            (
                action_a1(mo),
                action_a2(mo),
                Action.parse(
                    mo.schema,
                    f"a[Time.month, URL.domain] o[{gatech} AND "
                    "Time.month <= NOW - 6 months]",
                    "gatech_month",
                ),
                Action.parse(
                    mo.schema,
                    f"a[Time.week, URL.domain] o[{gatech} AND "
                    "Time.week <= NOW - 10 weeks]",
                    "gatech_week",
                ),
            ),
            mo.dimensions,
            validate=False,
        )
        store = _ExplodingStore(mo, spec)
        store.load(facts_of(mo))
        before = fingerprint(store)
        # The .com facts sort before the gatech cell the two actions
        # both claim; one at a time, they would have moved first.
        with pytest.raises(EngineError, match="crossing"):
            store.synchronize(SNAPSHOT_TIMES[2])
        assert store.migrations == 0
        assert fingerprint(store) == before

    def test_irreversible_rebuild_raises_before_any_move(self, mo):
        store = _ExplodingStore(mo, paper_specification(mo))
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[2])
        store.migrations = 0
        weaker = ReductionSpecification(
            (
                Action.parse(
                    mo.schema,
                    "a[Time.month, URL.domain] o[Time.month <= '1999/12']",
                    "only_month",
                ),
            ),
            mo.dimensions,
        )
        with pytest.raises(EngineError, match="disaggregate"):
            store.rebuild(weaker, SNAPSHOT_TIMES[2])
        assert store.migrations == 0

    def test_float_fold_into_existing_cell_matches_pairwise_merges(
        self, mo, store
    ):
        at = SNAPSHOT_TIMES[1]
        store.synchronize(at)
        target = store.cube("K1")
        cell_id = target.cell_fact_id({"Time": "1999/12", "URL": "cnn.com"})
        existing = target.mo.measure_value(cell_id, "Dwell_time")
        late = [
            ("late_b", "http://www.cnn.com/health", 1e16),
            ("late_a", "http://www.cnn.com/", 0.1),
        ]
        store.load(
            [
                (
                    fact_id,
                    {"Time": "1999/12/04", "URL": url},
                    {**MEASURE_ROW, "Dwell_time": dwell},
                )
                for fact_id, url, dwell in late
            ]
        )
        store.synchronize(at)
        # One move at a time, the sources merge in fact-id order (here,
        # URL order), each one pairwise into the running value.
        aggregate = target.mo.measures["Dwell_time"].aggregate
        expected = existing
        for _, _, dwell in sorted(late, key=lambda fact: fact[1]):
            expected = aggregate([expected, dwell])
        assert target.mo.measure_value(cell_id, "Dwell_time") == expected
        # The values make the fold order observable: folding the sources
        # first, or in load order, gives a different float.
        assert expected != aggregate([existing, aggregate([0.1, 1e16])])
        assert expected != aggregate([aggregate([existing, 1e16]), 0.1])
        assert target.mo.provenance(cell_id).members >= {"late_a", "late_b"}


class TestRebuildAtomicity:
    def test_failed_rebuild_leaves_the_store_untouched(self, mo, store):
        at = SNAPSHOT_TIMES[2]
        store.synchronize(at)
        before = fingerprint(store)
        old_spec = store.specification
        from repro.spec.action import Action
        from repro.spec.specification import ReductionSpecification

        weaker = ReductionSpecification(
            (
                Action.parse(
                    mo.schema,
                    "a[Time.month, URL.domain] o[Time.month <= '1999/12']",
                    "only_month",
                ),
            ),
            mo.dimensions,
        )
        with pytest.raises(EngineError, match="disaggregate"):
            store.rebuild(weaker, at)
        assert fingerprint(store) == before
        assert store.specification is old_spec
        # The store still works: an idempotent re-sync moves nothing.
        moved = store.synchronize(at)
        assert sum(moved.values()) == 0


class TestVerify:
    def test_clean_store_passes(self, store):
        store.synchronize(SNAPSHOT_TIMES[2])
        report = store.verify()
        assert report.ok
        assert report.facts == 4
        assert report.sources == 7

    def test_empty_provenance_is_a_violation(self, store):
        # An empty Provenance cannot enter through the insert API (it is
        # falsy and gets defaulted), so corrupt the fact table directly.
        cube = store.bottom_cube
        victim = next(iter(cube.facts()))
        cube.mo._facts[victim] = Provenance(frozenset())
        report = store.verify()
        assert any("empty provenance" in v for v in report.violations)

    def test_double_claimed_source_is_a_violation(self, store):
        cube = store.cube("K1")
        cube.mo.insert_aggregate_fact(
            "thief",
            {"Time": "1999/11", "URL": "cnn.com"},
            dict(MEASURE_ROW),
            Provenance(frozenset({"fact_0"})),
        )
        report = store.verify()
        assert any("claimed by both" in v for v in report.violations)

    def test_wrong_granularity_is_a_violation(self, store):
        cube = store.cube("K1")  # holds (month, domain)
        cube.mo.insert_aggregate_fact(
            "misfiled",
            {"Time": "1999/11/23", "URL": "http://www.cnn.com/"},
            dict(MEASURE_ROW),
            Provenance(frozenset({"stray"})),
        )
        report = store.verify()
        assert any("granularity" in v for v in report.violations)

    def test_sources_baseline_checks_conservation(self, mo, store):
        store.synchronize(SNAPSHOT_TIMES[2])
        sources = {
            fact_id: measures for fact_id, _, measures in facts_of(mo)
        }
        assert store.verify(sources).ok
        # A source the store never saw must be reported as lost.
        sources["phantom"] = dict(MEASURE_ROW)
        report = store.verify(sources)
        assert any("phantom" in v for v in report.violations)

    def test_sources_baseline_checks_measure_aggregates(self, mo, store):
        store.synchronize(SNAPSHOT_TIMES[2])
        sources = {
            fact_id: dict(measures)
            for fact_id, _, measures in facts_of(mo)
        }
        sources["fact_1"]["Dwell_time"] += 1000  # falsify the baseline
        report = store.verify(sources)
        assert any("Dwell_time" in v for v in report.violations)

    def test_strict_mode_raises_audit_error(self, store):
        cube = store.cube("K1")
        cube.mo.insert_aggregate_fact(
            "thief",
            {"Time": "1999/11", "URL": "cnn.com"},
            dict(MEASURE_ROW),
            Provenance(frozenset({"fact_0"})),
        )
        with pytest.raises(AuditError) as excinfo:
            store.verify(strict=True)
        assert excinfo.value.violations
