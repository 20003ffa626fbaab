"""Unit tests for the write-ahead journal, snapshots, and recovery."""

import datetime as dt
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.durable import (
    JOURNAL_FILE,
    MANIFEST_FILE,
    SNAPSHOT_DIR,
    DurableStore,
    Journal,
    _crc,
    open_durable,
)
from repro.engine.faults import FaultInjector, InjectedFault
from repro.engine.telemetry import JOURNAL_BYTES
from repro.errors import DurabilityError, RecoveryError, ReproError
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    action_a2,
    action_a4,
    action_a8,
    build_paper_mo,
    paper_specification,
)
from repro.io import mo_to_dict
from repro.serving import SnapshotManager, store_fingerprint
from repro.spec.action import Action
from repro.spec.specification import ReductionSpecification

from .durableutil import facts_of, fingerprint, shape


@pytest.fixture
def mo():
    return build_paper_mo()


@pytest.fixture
def spec(mo):
    return paper_specification(mo)


def make_store(path, mo, spec, **kwargs):
    # Unit tests are hermetic: a REPRO_FAILPOINTS schedule in the
    # environment (the CI fault-injection job) must not fire here.
    kwargs.setdefault("faults", FaultInjector())
    return DurableStore.create(str(path), mo, spec, **kwargs)


def recover(path):
    # Recovery must never inherit the test environment's failpoints.
    return open_durable(str(path), faults=FaultInjector())


def snapshot_files(path):
    return sorted(os.listdir(os.path.join(str(path), SNAPSHOT_DIR)))


def to_year_action(mo):
    return Action.parse(
        mo.schema,
        "a[Time.year, URL.domain_grp] o[Time.year <= NOW - 5 years]",
        "to_year",
    )


class TestJournal:
    def test_append_and_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("load", {"facts": []})
        journal.append("sync_begin", {"at": "2000-04-05"}, sync=True)
        journal.close()
        records, valid_bytes, discarded = Journal.scan(path)
        assert [(r.lsn, r.op) for r in records] == [
            (1, "load"),
            (2, "sync_begin"),
        ]
        assert valid_bytes == os.path.getsize(path)
        assert discarded == 0

    def test_line_is_the_canonical_encoding_of_body_plus_crc(self, tmp_path):
        # Compatibility pin: the spliced line is byte-identical to
        # dumping the record with its checksum, the encoding every
        # journal on disk already uses.
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, fsync=False)
        data = {
            "facts": [
                {
                    "id": "f\u00e9",  # non-ASCII is escaped, so 1 char == 1 byte
                    "coordinates": {"URL": "http://x/", "Time": "2000/1/2"},
                    "measures": {"Number_of": 1, "Dwell_time": 2.5},
                }
            ]
        }
        journal.append("load", data, sync=True)
        journal.close()
        body = {"lsn": 1, "op": "load", "data": data}
        expected = json.dumps(
            {**body, "crc": _crc(body)}, sort_keys=True, separators=(",", ":")
        )
        with open(path, "rb") as stream:
            written = stream.read()
        assert written == (expected + "\n").encode("utf-8")
        assert journal.metrics.value(JOURNAL_BYTES) == len(written)
        assert [r.data for r in Journal.scan(path)[0]] == [data]

    def test_scan_discards_torn_final_record(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("load", {"facts": []})
        journal.close()
        good_size = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"lsn": 2, "op": "syn')  # no newline: torn
        records, valid_bytes, discarded = Journal.scan(path)
        assert len(records) == 1
        assert valid_bytes == good_size
        assert discarded == 1

    def test_scan_discards_from_checksum_failure_onwards(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("load", {"facts": []})
        journal.append("sync_begin", {"at": "2000-04-05"})
        journal.append("sync_commit", {"at": "2000-04-05"})
        journal.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        # Corrupt record 2's payload without fixing its checksum: record 3
        # must be distrusted too, even though it still checksums.
        lines[1] = lines[1].replace("2000-04-05", "2000-04-06")
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines) + "\n")
        records, _, discarded = Journal.scan(path)
        assert [r.lsn for r in records] == [1]
        assert discarded == 2

    def test_scan_requires_contiguous_lsns(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("load", {"facts": []})
        journal.append("sync_begin", {"at": "2000-04-05"})
        journal.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(lines[1] + "\n")  # journal now starts at lsn 2
        records, valid_bytes, discarded = Journal.scan(path)
        assert records == []
        assert valid_bytes == 0
        assert discarded == 1

    def test_truncate_to_drops_torn_tail_before_appending(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("load", {"facts": []})
        journal.close()
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("{torn")
        records, valid_bytes, _ = Journal.scan(path)
        reopened = Journal(
            path, fsync=False, next_lsn=2, truncate_to=valid_bytes
        )
        reopened.append("sync_begin", {"at": "2000-04-05"})
        reopened.close()
        records, _, discarded = Journal.scan(path)
        assert [r.lsn for r in records] == [1, 2]
        assert discarded == 0


class TestCreate:
    def test_create_lays_out_the_directory(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        store.close()
        names = set(os.listdir(tmp_path / "d"))
        assert {
            "meta.json",
            "template.json",
            "spec.txt",
            JOURNAL_FILE,
            SNAPSHOT_DIR,
        } <= names

    def test_create_refuses_an_existing_store(self, tmp_path, mo, spec):
        make_store(tmp_path / "d", mo, spec).close()
        with pytest.raises(DurabilityError, match="open_durable"):
            make_store(tmp_path / "d", mo, spec)

    def test_context_manager_closes_the_journal(self, tmp_path, mo, spec):
        with make_store(tmp_path / "d", mo, spec) as store:
            store.load(facts_of(mo))
        assert store._journal._stream.closed


class TestRecovery:
    def test_journal_only_round_trip(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        expected = fingerprint(store)
        store.close()
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert report.snapshot_lsn is None
        assert report.replayed == 2  # the load and the committed sync
        assert report.discarded == 0
        assert recovered.verify(strict=True).ok
        recovered.close()

    def test_snapshot_plus_tail_round_trip(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        store.snapshot()
        snapshot_lsn = store.journal_lsn
        store.synchronize(SNAPSHOT_TIMES[2])
        expected = fingerprint(store)
        assert shape(store) == {"K0": 1, "K1": 1, "K2": 2}
        store.close()
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert report.snapshot_lsn == snapshot_lsn
        assert report.replayed == 1  # only the post-snapshot sync
        assert recovered.verify(strict=True).ok
        recovered.close()

    def test_recovered_store_accepts_new_work(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.close()
        recovered, _ = recover(tmp_path / "d")
        recovered.synchronize(SNAPSHOT_TIMES[2])
        expected = fingerprint(recovered)
        recovered.close()
        again, _ = recover(tmp_path / "d")
        assert fingerprint(again) == expected
        again.close()

    def test_torn_journal_tail_is_discarded_and_truncated(
        self, tmp_path, mo, spec
    ):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        expected = fingerprint(store)
        store.close()
        journal_path = tmp_path / "d" / JOURNAL_FILE
        with open(journal_path, "a", encoding="utf-8") as stream:
            stream.write('{"lsn": 99, "op": "migr')
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert report.discarded == 1
        # The reopened journal truncated the torn bytes, so new records
        # land on a clean line boundary and the next recovery is clean.
        recovered.synchronize(SNAPSHOT_TIMES[2])
        expected = fingerprint(recovered)
        recovered.close()
        again, report = recover(tmp_path / "d")
        assert fingerprint(again) == expected
        assert report.discarded == 0
        again.close()

    def test_damaged_manifest_falls_back_to_snapshot_scan(
        self, tmp_path, mo, spec
    ):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        store.snapshot()
        expected = fingerprint(store)
        store.close()
        with open(tmp_path / "d" / MANIFEST_FILE, "w") as stream:
            stream.write("not json{")
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert report.snapshot_lsn is not None
        recovered.close()

    def test_corrupt_newest_snapshot_falls_back_to_older(
        self, tmp_path, mo, spec
    ):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        store.snapshot()
        older_lsn = store.journal_lsn
        store.synchronize(SNAPSHOT_TIMES[1])
        store.snapshot()
        expected = fingerprint(store)
        store.close()
        snapshots = sorted(os.listdir(tmp_path / "d" / SNAPSHOT_DIR))
        newest = tmp_path / "d" / SNAPSHOT_DIR / snapshots[-1]
        document = json.loads(newest.read_text())
        document["snapshot"]["last_sync"] = "1990-01-01"  # breaks the crc
        newest.write_text(json.dumps(document))
        recovered, report = recover(tmp_path / "d")
        # The older snapshot plus journal replay reconstructs the state.
        assert fingerprint(recovered) == expected
        assert report.snapshot_lsn == older_lsn
        assert report.replayed == 1
        recovered.close()

    def test_snapshot_laid_out_as_before_the_fact_blocks_still_restores(
        self, tmp_path, mo, spec
    ):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        store.snapshot()
        expected = fingerprint(store)
        store.close()
        # Rewrite the document the way earlier versions wrote it: a full
        # MO document per cube (dimensions included), default separators.
        (name,) = snapshot_files(tmp_path / "d")
        newest = tmp_path / "d" / SNAPSHOT_DIR / name
        body = json.loads(newest.read_text())["snapshot"]
        body["cubes"] = {
            cube_name: mo_to_dict(cube.mo)
            for cube_name, cube in store.cubes.items()
        }
        newest.write_text(
            json.dumps({"crc": _crc(body), "snapshot": body}, sort_keys=True)
        )
        recovered, report = recover(tmp_path / "d")
        assert report.snapshot_lsn == body["lsn"]
        assert report.replayed == 0
        assert fingerprint(recovered) == expected
        recovered.close()

    def test_open_durable_rejects_a_non_store(self, tmp_path):
        with pytest.raises(RecoveryError, match="meta.json"):
            open_durable(str(tmp_path))

    def test_open_durable_rejects_unknown_format(self, tmp_path, mo, spec):
        make_store(tmp_path / "d", mo, spec).close()
        with open(tmp_path / "d" / "meta.json", "w") as stream:
            json.dump({"format": 99}, stream)
        with pytest.raises(RecoveryError, match="format"):
            open_durable(str(tmp_path / "d"))


class TestSnapshotRetention:
    def five_snapshots(self, path, mo, spec, **kwargs):
        store = make_store(path, mo, spec, **kwargs)
        facts = facts_of(mo)
        for index in range(5):
            store.load(facts[index : index + 1])
            store.snapshot()
        return store

    def test_only_the_newest_two_documents_are_kept(self, tmp_path, mo, spec):
        store = self.five_snapshots(tmp_path / "d", mo, spec)
        kept = snapshot_files(tmp_path / "d")
        assert kept == [
            f"snap-{lsn:012d}.json" for lsn in (4, 5)
        ]
        manifest = json.loads((tmp_path / "d" / MANIFEST_FILE).read_text())
        assert manifest["file"] == kept[-1]
        store.close()

    def test_the_kept_fallback_recovers_a_corrupt_newest(
        self, tmp_path, mo, spec
    ):
        store = self.five_snapshots(tmp_path / "d", mo, spec)
        expected = fingerprint(store)
        store.close()
        newest = tmp_path / "d" / SNAPSHOT_DIR / snapshot_files(tmp_path / "d")[-1]
        newest.write_text(newest.read_text().replace("fact_", "fict_", 1))
        recovered, report = recover(tmp_path / "d")
        assert report.snapshot_lsn == 4
        assert report.replayed == 1  # the fifth load, from the journal
        assert fingerprint(recovered) == expected
        recovered.close()

    def test_crash_before_the_manifest_leaves_the_previous_pair(
        self, tmp_path, mo, spec
    ):
        faults = FaultInjector()
        store = self.five_snapshots(tmp_path / "d", mo, spec, faults=faults)
        pair = snapshot_files(tmp_path / "d")
        store.load(facts_of(mo)[5:6])
        expected = fingerprint(store)
        faults.arm("snapshot.manifest")
        with pytest.raises(InjectedFault):
            store.snapshot()
        store.close()
        # The new document is in place but unpublished; nothing was
        # pruned, and the manifest still names the previous newest.
        assert snapshot_files(tmp_path / "d")[:2] == pair
        manifest = json.loads((tmp_path / "d" / MANIFEST_FILE).read_text())
        assert manifest["file"] == pair[-1]
        recovered, _ = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        recovered.close()


class TestAbortedTransactions:
    def test_failed_load_writes_an_abort_and_recovery_skips_it(
        self, tmp_path, mo, spec
    ):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        before = fingerprint(store)
        bad_batch = facts_of(mo)[:1]
        bad_batch[0] = (
            "bad",
            {"Time": "1999/12/31"},  # missing the URL coordinate
            bad_batch[0][2],
        )
        with pytest.raises(ReproError):
            store.load(bad_batch)
        assert fingerprint(store) == before
        assert "bad" not in store.source_measures
        store.close()
        records, _, _ = Journal.scan(str(tmp_path / "d" / JOURNAL_FILE))
        assert [r.op for r in records] == ["load", "load", "abort"]
        assert records[-1].data["undoes"] == 2
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == before
        assert report.aborted == 1
        assert recovered.verify(strict=True).ok
        recovered.close()

    def test_failed_sync_writes_an_abort(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        with pytest.raises(ReproError, match="backwards"):
            store.synchronize(SNAPSHOT_TIMES[0])
        # The backwards check fires before sync_begin, so nothing extra
        # was journaled; recovery still lands on the committed state.
        expected = fingerprint(store)
        store.close()
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert report.interrupted_sync is None
        recovered.close()


class TestInterruptedSync:
    def test_crash_mid_sync_recovers_to_pre_sync_state(
        self, tmp_path, mo, spec
    ):
        faults = FaultInjector()
        store = make_store(tmp_path / "d", mo, spec, faults=faults)
        store.load(facts_of(mo))
        pre = fingerprint(store)
        faults.arm("sync.migrate", at_hit=2)
        with pytest.raises(InjectedFault):
            store.synchronize(SNAPSHOT_TIMES[1])
        # The live store rolled back; the journal holds the orphan txn.
        assert fingerprint(store) == pre
        store.close()
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == pre
        assert report.interrupted_sync == SNAPSHOT_TIMES[1]
        assert recovered.verify(strict=True).ok
        # Re-running the interrupted sync is idempotent and lands on the
        # same state an uninterrupted run produces.
        recovered.synchronize(report.interrupted_sync)
        assert shape(recovered) == {"K0": 3, "K1": 3, "K2": 0}
        recovered.close()

        clean = make_store(tmp_path / "clean", mo, spec, fsync=False)
        clean.load(facts_of(mo))
        clean.synchronize(SNAPSHOT_TIMES[1])
        assert fingerprint(recovered) == fingerprint(clean)
        clean.close()



def journal_ops(path):
    records, _, _ = Journal.scan(str(path / JOURNAL_FILE))
    return [record.op for record in records]


#: A store written by the engine version that journaled every moved fact
#: as a ``migrate`` record.  Its script: create with the paper
#: specification, load facts 0-3, sync at SNAPSHOT_TIMES[0], snapshot,
#: load facts 4-6, sync at SNAPSHOT_TIMES[1] and at SNAPSHOT_TIMES[2].
MIGRATE_JOURNAL_STORE = os.path.join(
    os.path.dirname(__file__), "fixtures", "migrate_journal_store"
)


class TestLogicalJournal:
    """A committed sync is journaled as its inputs and replayed by
    running it again."""

    def test_load_and_sync_journal_only_their_inputs(
        self, tmp_path, mo, spec
    ):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        moved = store.synchronize(SNAPSHOT_TIMES[1])
        assert sum(moved.values()) > 0
        store.close()
        assert journal_ops(tmp_path / "d") == [
            "load", "sync_begin", "sync_commit"
        ]

    @pytest.mark.parametrize("field", ["moved", "examined"])
    def test_a_commit_replay_cannot_reproduce_fails_recovery(
        self, tmp_path, mo, spec, field
    ):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        store.close()
        path = tmp_path / "d" / JOURNAL_FILE
        lines = path.read_text(encoding="utf-8").splitlines()
        body = json.loads(lines[-1])
        del body["crc"]
        assert body["op"] == "sync_commit"
        if field == "moved":
            body["data"]["moved"]["K1"] += 1
        else:
            body["data"]["examined"] += 1
        lines[-1] = json.dumps({**body, "crc": _crc(body)})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            RecoveryError, match=f"sync committed at lsn {body['lsn']} "
        ):
            recover(tmp_path / "d")

    def test_journal_with_migrate_records_still_recovers(
        self, tmp_path, mo, spec
    ):
        path = tmp_path / "old"
        shutil.copytree(MIGRATE_JOURNAL_STORE, path)
        assert "migrate" in journal_ops(path)
        recovered, report = recover(path)
        facts = facts_of(mo)
        clean = make_store(tmp_path / "clean", mo, spec, fsync=False)
        clean.load(facts[:4])
        clean.synchronize(SNAPSHOT_TIMES[0])
        clean.load(facts[4:])
        clean.synchronize(SNAPSHOT_TIMES[1])
        clean.synchronize(SNAPSHOT_TIMES[2])
        assert report.snapshot_lsn == 3
        assert report.replayed == 3  # the second load and both syncs
        assert fingerprint(recovered) == fingerprint(clean)
        assert recovered.verify(strict=True).ok
        recovered.close()
        clean.close()

    def test_replayed_float_sums_are_bit_for_bit(self, tmp_path, mo, spec):
        # Three day cells of one (month, domain) cell, loaded out of
        # fact-id order with measures whose float sum depends on the
        # order they are added in.
        _, _, row = facts_of(mo)[0]
        facts = [
            (
                fact_id,
                {"Time": day, "URL": url},
                {**row, "Dwell_time": dwell},
            )
            for fact_id, day, url, dwell in (
                ("c", "1999/12/31", "http://www.cnn.com/", 0.1),
                ("a", "1999/12/4", "http://www.cnn.com/", 0.2),
                ("b", "1999/12/4", "http://www.cnn.com/health", 0.3),
            )
        ]
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts)
        store.snapshot()
        store.synchronize(SNAPSHOT_TIMES[1])
        expected = fingerprint(store)
        store.close()
        recovered, report = recover(tmp_path / "d")
        assert report.replayed == 1
        assert fingerprint(recovered) == expected
        recovered.close()


class TestAbsoluteTimeSpecification:
    """A specification with an absolute time literal (the paper's a8,
    ``Time.month <= '1999/12'``) survives every place its text is
    written: spec.txt, snapshot headers and rebuild records."""

    def test_store_reopens(self, tmp_path, mo, spec):
        with_a8 = spec.insert([action_a8(mo)])
        store = make_store(tmp_path / "d", mo, with_a8, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        store.snapshot()
        expected = fingerprint(store)
        store.close()
        recovered, _ = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert recovered.specification.action_names == with_a8.action_names
        recovered.close()

    def test_store_reopens_from_spec_txt(self, tmp_path, mo):
        only_a8 = ReductionSpecification((action_a8(mo),), mo.dimensions)
        make_store(tmp_path / "d", mo, only_a8, fsync=False).close()
        recovered, _ = recover(tmp_path / "d")
        assert recovered.specification.action_names == ("a8",)
        recovered.close()

    @pytest.mark.parametrize("crash", [None, "snapshot.write"])
    def test_crash_after_rebuild_recovers(self, tmp_path, mo, spec, crash):
        faults = FaultInjector()
        store = make_store(tmp_path / "d", mo, spec, faults=faults)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        with_a8 = spec.insert([action_a8(mo)])
        if crash is None:
            store.rebuild(with_a8, SNAPSHOT_TIMES[1])
        else:
            # The rebuild record is durable, its snapshot never written:
            # recovery re-runs the rebuild from the record's spec text.
            faults.arm(crash)
            with pytest.raises(InjectedFault):
                store.rebuild(with_a8, SNAPSHOT_TIMES[1])
        expected = fingerprint(store)
        store.close()  # the fd only: the process "dies" here
        recovered, report = recover(tmp_path / "d")
        if crash is None:
            assert report.snapshot_lsn == recovered.journal_lsn
        else:
            assert report.snapshot_lsn is None
        assert fingerprint(recovered) == expected
        assert recovered.specification.action_names == with_a8.action_names
        assert recovered.verify(strict=True).ok
        recovered.close()


class TestSpecificationAdmission:
    """A specification recovery could not read back never enters a
    durable store: the paper's a4 is built without the evaluability check
    the specification loader enforces."""

    def test_create_refuses_and_writes_nothing(self, tmp_path, mo):
        only_a4 = ReductionSpecification((action_a4(mo),), mo.dimensions)
        with pytest.raises(DurabilityError, match="would not reopen"):
            make_store(tmp_path / "d", mo, only_a4)
        for name in (JOURNAL_FILE, "spec.txt"):
            assert not os.path.exists(tmp_path / "d" / name)

    def test_rebuild_refuses_and_changes_nothing(self, tmp_path, mo):
        only_a2 = ReductionSpecification((action_a2(mo),), mo.dimensions)
        store = make_store(tmp_path / "d", mo, only_a2, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[2])
        before = fingerprint(store)
        journal = (tmp_path / "d" / JOURNAL_FILE).read_bytes()
        only_a4 = ReductionSpecification((action_a4(mo),), mo.dimensions)
        with pytest.raises(DurabilityError, match="would not reopen"):
            store.rebuild(only_a4, SNAPSHOT_TIMES[2])
        assert fingerprint(store) == before
        assert store.specification is only_a2
        assert (tmp_path / "d" / JOURNAL_FILE).read_bytes() == journal
        store.close()
        recovered, _ = recover(tmp_path / "d")
        assert fingerprint(recovered) == before
        assert recovered.specification.action_names == ("a2",)
        recovered.close()


class TestRetiredJournalOps:
    """Records of the retired sharded sync fail recovery loudly."""

    @pytest.mark.parametrize(
        "records",
        [
            [("sync_begin_sharded", {"at": "2000-04-05", "incremental": True})],
            [
                ("sync_begin", {"at": "2000-04-05", "incremental": True}),
                (
                    "sync_commit_sharded",
                    {
                        "at": "2000-04-05",
                        "moved": {},
                        "examined": 0,
                        "segments": [],
                    },
                ),
            ],
        ],
        ids=["sync_begin_sharded", "sync_commit_sharded"],
    )
    def test_sharded_sync_record_is_an_unknown_op(
        self, tmp_path, mo, spec, records
    ):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        next_lsn = store.journal_lsn + 1
        store.close()
        journal = Journal(
            str(tmp_path / "d" / JOURNAL_FILE), fsync=False, next_lsn=next_lsn
        )
        for op, data in records:
            lsn = journal.append(op, data, sync=True)
        journal.close()
        with pytest.raises(
            RecoveryError, match=f"unknown journal op '{op}' at lsn {lsn}"
        ):
            recover(tmp_path / "d")


class TestRebuild:
    def test_rebuild_survives_recovery(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[2])
        bigger = spec.insert([to_year_action(mo)])
        store.rebuild(bigger, SNAPSHOT_TIMES[2])
        store.synchronize(SNAPSHOT_TIMES[2])
        expected = fingerprint(store)
        store.close()
        recovered, _ = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        assert recovered.specification.action_names == bigger.action_names
        assert recovered.verify(strict=True).ok
        recovered.close()

    def test_rebuild_journals_a_snapshot_immediately(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec)
        store.load(facts_of(mo))
        bigger = spec.insert([to_year_action(mo)])
        store.rebuild(bigger, SNAPSHOT_TIMES[1])
        store.close()
        snapshots = os.listdir(tmp_path / "d" / SNAPSHOT_DIR)
        assert snapshots, "rebuild must publish a snapshot"
        recovered, report = recover(tmp_path / "d")
        assert report.snapshot_lsn == recovered.journal_lsn
        recovered.close()


class TestAuditBaseline:
    def test_verify_uses_the_journal_derived_sources(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[2])
        store.close()
        recovered, _ = recover(tmp_path / "d")
        report = recovered.verify()
        assert report.ok
        assert report.sources == 7
        assert report.checked_measures > 0
        recovered.close()

    def test_verify_detects_a_lost_fact(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.synchronize(SNAPSHOT_TIMES[1])
        # Simulate corruption: drop a resident fact behind the store's back.
        cube = next(c for c in store.cubes.values() if c.n_facts)
        victim = next(iter(cube.facts()))
        cube.mo.delete_fact(victim)
        report = store.verify()
        assert not report.ok
        assert any("in no resident" in v for v in report.violations)
        store.close()

    def test_record_reduce_is_informational(self, tmp_path, mo, spec):
        store = make_store(tmp_path / "d", mo, spec, fsync=False)
        store.load(facts_of(mo))
        store.record_reduce(SNAPSHOT_TIMES[1], facts=7)
        expected = fingerprint(store)
        store.close()
        recovered, report = recover(tmp_path / "d")
        assert fingerprint(recovered) == expected
        recovered.close()


# ----------------------------------------------------------------------
# Memo coherence: the per-cube fact blocks behind snapshot(), the
# version fingerprint and the MVCC freeze never go stale, whichever
# route a mutation takes.
# ----------------------------------------------------------------------

SYNC_TIMES = SNAPSHOT_TIMES + tuple(
    dt.date(2001 + year, month, 5) for year in range(3) for month in (3, 9)
)
MUTATION_ROUTES = (
    "load", "failed_load", "sync", "failed_sync", "rebuild", "reopen"
)


def assert_blocks_coherent(store, path):
    # Memoized fingerprint == recomputation from content.
    version = SnapshotManager().publish(store)
    assert version.fingerprint == store_fingerprint(store)
    assert version.verify_integrity()
    # The document spliced from the memoized texts says what the cubes
    # hold, and checksums the way recovery re-derives it.
    store.snapshot()
    newest = os.path.join(path, SNAPSHOT_DIR, snapshot_files(path)[-1])
    with open(newest, encoding="utf-8") as stream:
        document = json.load(stream)
    body = document["snapshot"]
    assert document["crc"] == _crc(body)
    assert set(body["cubes"]) == set(store.cubes)
    for name, cube in store.cubes.items():
        assert body["cubes"][name] == {"facts": mo_to_dict(cube.mo)["facts"]}
    # A store recovered from it is the same store, by the uncached oracle.
    recovered, report = recover(path)
    try:
        assert report.snapshot_lsn == body["lsn"]
        assert fingerprint(recovered) == fingerprint(store)
        assert store_fingerprint(recovered) == store_fingerprint(store)
    finally:
        recovered.close()


@settings(max_examples=15, deadline=None)
@given(routes=st.lists(st.sampled_from(MUTATION_ROUTES), min_size=1, max_size=6))
def test_fact_block_memo_is_coherent_under_every_mutation_route(routes):
    mo = build_paper_mo()
    spec = paper_specification(mo)
    facts = facts_of(mo)
    faults = FaultInjector()
    clock = 0
    with tempfile.TemporaryDirectory() as path:
        store = DurableStore.create(path, mo, spec, fsync=False, faults=faults)
        store.load(facts)
        assert_blocks_coherent(store, path)
        for step, route in enumerate(routes):
            fact_id, coordinates, measures = facts[step % len(facts)]
            batch = [(f"{fact_id}#{step}", coordinates, measures)]
            if route == "load":
                store.load(batch)
            elif route == "failed_load":
                # The first row is inserted, the second is rejected, and
                # _UndoLog takes the first one back out.
                batch.append((f"bad#{step}", {"Time": "1999/12/31"}, measures))
                with pytest.raises(ReproError):
                    store.load(batch)
            elif route == "sync":
                clock = min(clock + 1, len(SYNC_TIMES) - 1)
                store.synchronize(SYNC_TIMES[clock])
            elif route == "failed_sync":
                store.load(batch)
                target = min(clock + 1, len(SYNC_TIMES) - 1)
                faults.arm("sync.migrate")
                try:
                    store.synchronize(SYNC_TIMES[target])
                    clock = target  # nothing migrated, so nothing failed
                except InjectedFault:
                    pass  # rolled back; the clock did not advance
                finally:
                    faults.disarm("sync.migrate")
            elif route == "rebuild":
                store.rebuild(
                    spec.insert([to_year_action(mo)]), SYNC_TIMES[clock]
                )
            else:
                store.close()
                store, _ = open_durable(path, fsync=False, faults=faults)
            assert_blocks_coherent(store, path)
        store.close()
