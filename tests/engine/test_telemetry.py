"""Telemetry invariants: what the engine's metrics must always satisfy.

The observability layer is only trustworthy if its numbers obey the same
algebra as the engine itself: a sync can never migrate more facts than it
examined, totals only grow, gauges pin the *last* run (including the
full-rescan fallback), and the counters the CLI prints reconcile with the
independently computed :class:`~repro.engine.durable.AuditReport`.
"""

import datetime as dt
import json

import pytest

from repro.cli import main
from repro.engine.durable import (
    JOURNAL_FSYNC,
    JOURNAL_RECORDS,
    RECOVERY_REPLAYED,
    SNAPSHOT_WRITES,
    DurableStore,
    open_durable,
)
from repro.engine.store import (
    SYNC_EXAMINED,
    SYNC_LAST_EXAMINED,
    SYNC_LAST_MIGRATED,
    SYNC_LAST_SKIPPED,
    SYNC_MIGRATED,
    SYNC_RUNS,
    SYNC_SKIPPED,
    SYNC_UNDO_LOG,
    SubcubeStore,
)
from repro.errors import EngineError
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.io import dump_mo, dump_specification


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


def value(store, name, labels=None):
    return int(store.metrics.value(name, labels) or 0)


class TestSyncInvariants:
    def test_examined_at_least_migrated_every_sync(self, store):
        for at in SNAPSHOT_TIMES:
            store.synchronize(at)
            assert value(store, SYNC_LAST_EXAMINED) >= value(
                store, SYNC_LAST_MIGRATED
            )

    def test_totals_are_monotonic_and_sum_the_runs(self, store):
        examined_runs = []
        migrated_runs = []
        previous_examined = 0
        for at in SNAPSHOT_TIMES:
            store.synchronize(at)
            examined_runs.append(value(store, SYNC_LAST_EXAMINED))
            migrated_runs.append(value(store, SYNC_LAST_MIGRATED))
            total = value(store, SYNC_EXAMINED)
            assert total >= previous_examined
            previous_examined = total
        assert value(store, SYNC_EXAMINED) == sum(examined_runs)
        assert value(store, SYNC_MIGRATED) == sum(migrated_runs)
        assert value(store, SYNC_RUNS, {"mode": "full"}) + value(
            store, SYNC_RUNS, {"mode": "incremental"}
        ) == len(SNAPSHOT_TIMES)

    def test_full_scan_examines_all_and_skips_none(self, store):
        store.synchronize(SNAPSHOT_TIMES[0])
        assert value(store, SYNC_LAST_EXAMINED) == store.total_facts()
        assert value(store, SYNC_LAST_SKIPPED) == 0
        assert value(store, SYNC_RUNS, {"mode": "full"}) == 1

    def test_incremental_mode_is_labelled_and_skips(self, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        store.synchronize(SNAPSHOT_TIMES[1] + dt.timedelta(days=31))
        assert value(store, SYNC_RUNS, {"mode": "incremental"}) == 1
        assert value(store, SYNC_LAST_SKIPPED) > 0
        assert value(store, SYNC_SKIPPED) == value(store, SYNC_LAST_SKIPPED)

    def test_full_rescan_fallback_pins_last_examined(
        self, store, monkeypatch
    ):
        """An unbounded suspect-region analysis falls back to a full
        rescan — the examined gauge must pin the *whole* store, not the
        zero-region count the analysis would have suggested."""
        store.synchronize(SNAPSHOT_TIMES[1])
        monkeypatch.setattr("repro.engine.store.GRANULE_DAYS", {})
        total = store.total_facts()
        store.synchronize(SNAPSHOT_TIMES[1] + dt.timedelta(days=31))
        assert value(store, SYNC_LAST_EXAMINED) == total
        assert value(store, SYNC_LAST_SKIPPED) == 0
        assert value(store, SYNC_RUNS, {"mode": "full"}) == 2
        assert value(store, SYNC_RUNS, {"mode": "incremental"}) == 0

    def test_undo_log_gauge_covers_migrations(self, store):
        store.synchronize(SNAPSHOT_TIMES[1])
        migrated = value(store, SYNC_LAST_MIGRATED)
        # Each migration touches a source and a target before-image, but
        # merges share targets — the log is at least as large as the
        # number of migrations and at most twice it.
        undo = value(store, SYNC_UNDO_LOG)
        assert migrated <= undo <= 2 * migrated

    def test_failed_sync_records_nothing(self, store, monkeypatch):
        store.synchronize(SNAPSHOT_TIMES[0])
        examined_before = value(store, SYNC_EXAMINED)
        runs_before = value(store, SYNC_RUNS, {"mode": "full"})

        def boom():
            raise EngineError("injected migration failure")

        monkeypatch.setattr(store, "_migrate_fault", boom)
        with pytest.raises(EngineError, match="injected"):
            store.synchronize(SNAPSHOT_TIMES[2])
        # Rolled-back runs leave every counter and gauge untouched.
        assert value(store, SYNC_EXAMINED) == examined_before
        assert value(store, SYNC_RUNS, {"mode": "full"}) == runs_before
        assert value(store, SYNC_LAST_EXAMINED) == store.total_facts()


class TestDurableTelemetry:
    def test_journal_and_snapshot_counters(self, mo, tmp_path):
        store = DurableStore.create(
            str(tmp_path / "store"), mo, paper_specification(mo)
        )
        try:
            store.load(facts_of(mo))
            store.synchronize(SNAPSHOT_TIMES[1])
            store.snapshot()
            records = sum(
                sample["value"]
                for family in store.metrics.snapshot()["metrics"]
                if family["name"] == JOURNAL_RECORDS
                for sample in family["samples"]
            )
            assert records == store.journal_lsn
            assert value(store, JOURNAL_FSYNC) > 0
            assert value(store, SNAPSHOT_WRITES) == 1
        finally:
            store.close()

    def test_recovery_gauges_and_examined_survive_reopen(self, mo, tmp_path):
        path = str(tmp_path / "store")
        store = DurableStore.create(path, mo, paper_specification(mo))
        try:
            store.load(facts_of(mo))
            store.synchronize(SNAPSHOT_TIMES[1])
            examined = value(store, SYNC_LAST_EXAMINED)
            store.snapshot()
        finally:
            store.close()
        reopened, report = open_durable(path)
        try:
            assert value(reopened, RECOVERY_REPLAYED) == report.replayed
            # The pinned gauge is part of the persistent store state.
            assert value(reopened, SYNC_LAST_EXAMINED) == examined
        finally:
            reopened.close()


class TestCliReconciliation:
    @pytest.fixture
    def stored(self, tmp_path, mo):
        mo_file = tmp_path / "mo.json"
        spec_file = tmp_path / "spec.txt"
        with open(mo_file, "w") as stream:
            dump_mo(mo, stream)
        with open(spec_file, "w") as stream:
            dump_specification(paper_specification(mo), stream)
        return mo_file, spec_file

    def test_reduce_stats_reconciles_with_audit_report(
        self, stored, tmp_path, capsys
    ):
        """`repro reduce --stats` totals must equal what an independent
        audit of the materialized durable store counts."""
        mo_file, spec_file = stored
        durable_path = tmp_path / "dstore"
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--durable",
                str(durable_path),
                "--stats",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        totals = {
            family["name"]: family["samples"][0]["value"]
            for family in document["metrics"]
            if family["name"].startswith("repro_reduce_facts_")
        }
        store, _ = open_durable(str(durable_path))
        try:
            report = store.verify()
        finally:
            store.close()
        assert report.ok
        assert totals["repro_reduce_facts_output_total"] == report.facts
        assert totals["repro_reduce_facts_input_total"] == report.sources
        assert (
            totals["repro_reduce_facts_deleted_total"]
            == report.sources - report.facts
        )
