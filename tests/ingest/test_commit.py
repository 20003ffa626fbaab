"""Group commit: one journal record and one fsync per batch."""

import json
import os

import pytest

from repro.engine.durable import DurableStore, JOURNAL_FILE
from repro.engine.store import SubcubeStore
from repro.engine.telemetry import (
    INGEST_BATCHES,
    INGEST_COMMIT_SECONDS,
    INGEST_FACTS,
    JOURNAL_FSYNC,
)
from repro.errors import IngestError
from repro.experiments.paper_example import build_paper_mo, paper_specification
from repro.ingest import ErrorPolicy, StreamingLoader
from repro.obs import metrics as obs_metrics
from tests.engine.durableutil import facts_of, fingerprint

MO = build_paper_mo()
SPEC = paper_specification(MO)
ALL_FACTS = facts_of(MO)


def journal_ops(path):
    with open(os.path.join(path, JOURNAL_FILE), encoding="utf-8") as stream:
        return [json.loads(line)["op"] for line in stream if line.strip()]


def durable(tmp_path, name):
    registry = obs_metrics.MetricsRegistry()
    store = DurableStore.create(
        str(tmp_path / name), MO.empty_like(), SPEC, metrics=registry
    )
    return store, registry


def memory_store():
    return SubcubeStore(MO, SPEC, metrics=obs_metrics.MetricsRegistry())


class TestGroupCommit:
    def test_one_journal_record_and_fsync_per_batch(self, tmp_path):
        store, registry = durable(tmp_path, "batched")
        loader = StreamingLoader(store, batch_size=3)
        tally = loader.ingest(iter(ALL_FACTS))
        store.close()
        assert tally["committed"] == len(ALL_FACTS) == 7
        assert loader.committed_batches == 3  # 3 + 3 + 1
        assert journal_ops(str(tmp_path / "batched")) == ["load"] * 3
        assert registry.value(JOURNAL_FSYNC) == 3

    def test_per_fact_journaling_costs_one_fsync_each(self, tmp_path):
        store, registry = durable(tmp_path, "per_fact")
        for triple in ALL_FACTS:
            store.load([triple])
        store.close()
        assert journal_ops(str(tmp_path / "per_fact")) == ["load"] * 7
        assert registry.value(JOURNAL_FSYNC) == 7

    def test_streaming_equals_one_shot_fingerprint(self, tmp_path):
        streamed, _ = durable(tmp_path, "streamed")
        StreamingLoader(streamed, batch_size=2).ingest(iter(ALL_FACTS))
        one_shot, _ = durable(tmp_path, "one_shot")
        one_shot.load(ALL_FACTS)
        try:
            assert fingerprint(streamed) == fingerprint(one_shot)
        finally:
            streamed.close()
            one_shot.close()


class TestFlushTriggers:
    def test_size_trigger_commits_whole_batches(self):
        loader = StreamingLoader(memory_store(), batch_size=3)
        committed = [loader.add(*triple) for triple in ALL_FACTS[:6]]
        assert committed == [0, 0, 3, 0, 0, 3]
        assert loader.committed_batches == 2

    def test_timer_trigger_uses_oldest_buffered_row(self):
        clock = iter([0.0, 0.005, 0.02]).__next__
        loader = StreamingLoader(
            memory_store(), batch_size=100, flush_ms=10.0, clock=clock
        )
        assert loader.add(*ALL_FACTS[0]) == 0  # oldest=0.0, now 0.005
        assert loader.add(*ALL_FACTS[1]) == 2  # now 0.02: 20ms >= 10ms
        assert loader.committed_batches == 1

    def test_final_flush_commits_the_tail(self):
        loader = StreamingLoader(memory_store(), batch_size=100)
        for triple in ALL_FACTS:
            assert loader.add(*triple) == 0
        assert loader.flush() == len(ALL_FACTS)
        assert loader.flush() == 0  # empty buffer is a no-op

    def test_trigger_telemetry(self):
        store = memory_store()
        loader = StreamingLoader(store, batch_size=3)
        loader.ingest(iter(ALL_FACTS))
        registry = store.metrics
        assert registry.value(INGEST_BATCHES, {"trigger": "size"}) == 2
        assert registry.value(INGEST_BATCHES, {"trigger": "final"}) == 1
        assert registry.value(INGEST_FACTS, {"outcome": "committed"}) == 7
        snapshot = registry.snapshot()
        assert any(
            family["name"] == INGEST_COMMIT_SECONDS
            for family in snapshot["metrics"]
        )

    def test_parameters_validated(self):
        with pytest.raises(IngestError, match="batch size"):
            StreamingLoader(memory_store(), batch_size=0)
        with pytest.raises(IngestError, match="flush-ms"):
            StreamingLoader(memory_store(), flush_ms=-1)


class TestErrorHandling:
    @staticmethod
    def poisoned(position):
        rows = [list(triple) for triple in ALL_FACTS]
        rows[position] = ("bad", {"Time": "1999/11/23"}, {})
        return [tuple(row) for row in rows]

    def test_reject_keeps_prior_batches_committed(self):
        store = memory_store()
        loader = StreamingLoader(store, batch_size=2)
        with pytest.raises(IngestError):
            loader.ingest(iter(self.poisoned(5)))
        # Two full batches (4 facts) landed before the poison pill; the
        # fifth row sits unflushed in the buffer, never committed.
        assert loader.committed_facts == 4
        reference = memory_store()
        reference.load(ALL_FACTS[:4])
        assert fingerprint(store) == fingerprint(reference)

    def test_skip_policy_commits_the_rest(self):
        store = memory_store()
        loader = StreamingLoader(store, batch_size=2)
        tally = loader.ingest(iter(self.poisoned(5)), ErrorPolicy("skip"))
        assert tally == {"committed": 6, "skipped": 1, "dead_lettered": 0}
        assert store.metrics.value(INGEST_FACTS, {"outcome": "skipped"}) == 1

