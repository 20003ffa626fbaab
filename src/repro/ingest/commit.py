"""Group commit: one fsync'd journal record per batch, not per fact.

A :class:`StreamingLoader` buffers validated rows in a
:class:`~repro.ingest.batch.FactBatchBuffer` and flushes each full
batch through one ``SubcubeStore.load`` call.  On a durable store that
is exactly one ``load`` journal record — written and fsynced *before*
any insert — so a batch is atomic under crash: recovery replays all of
it or none of it, never a prefix.  The fsync cost amortizes over the
batch (``benchmarks/pipeline`` counts them as ``engine.durable.fsyncs``).

Flush triggers, in the order checked on every :meth:`add`:

* ``size`` — the buffer reached ``batch_size`` rows;
* ``timer`` — ``flush_ms`` elapsed since the oldest buffered row (the
  latency bound for trickle streams);
* ``final`` — :meth:`flush` at end of stream.

Failpoints: ``ingest.batch`` fires before the commit record is written
(crash loses the whole in-flight batch), ``ingest.commit`` after the
store committed (crash must replay the full batch on recovery).
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from ..engine.faults import PASSIVE, FaultInjector
from ..engine.telemetry import (
    INGEST_BATCHES,
    INGEST_COMMIT_SECONDS,
    INGEST_FACTS,
)
from ..errors import DimensionError, FactError, IngestError, MeasureError
from .batch import FactBatchBuffer
from .sources import BadRow, ErrorPolicy, SourceRow

_FACTS_HELP = (
    "Facts seen by the ingest path, by outcome "
    "(committed|skipped|dead_lettered)."
)
_BATCHES_HELP = "Group commits, by flush trigger (size|timer|final)."


class StreamingLoader:
    """Batched, group-committed streaming loads into a store.

    Works against any ``SubcubeStore`` (plain or durable): batching is a
    pure win either way — fewer journal records and fsyncs on the
    durable path, fewer load spans and telemetry increments on both.
    """

    def __init__(
        self,
        store,
        *,
        batch_size: int = 4096,
        flush_ms: float | None = None,
        faults: FaultInjector | None = None,
        clock=time.monotonic,
    ) -> None:
        if batch_size < 1:
            raise IngestError(f"batch size must be >= 1, got {batch_size}")
        if flush_ms is not None and flush_ms < 0:
            raise IngestError(f"flush-ms must be >= 0, got {flush_ms}")
        self.store = store
        self.metrics = store.metrics
        template = store.bottom_cube.mo
        self.buffer = FactBatchBuffer(template.schema, template.dimensions)
        self.batch_size = batch_size
        self.flush_ms = flush_ms
        self._faults = (
            faults
            if faults is not None
            else getattr(store, "_faults", PASSIVE)
        )
        self._clock = clock
        self._oldest: float | None = None
        self.committed_facts = 0
        self.committed_batches = 0

    def add(
        self,
        fact_id: str,
        coordinates: Mapping[str, str],
        measures: Mapping[str, object],
    ) -> int:
        """Validate and buffer one row; flush if a trigger is due.

        Returns the number of facts committed by this call (0, or a
        whole batch).  A row that fails validation raises before
        touching the buffer; every batch committed so far stays
        committed.
        """
        self.buffer.add(fact_id, coordinates, measures)
        if self._oldest is None:
            self._oldest = self._clock()
        if len(self.buffer) >= self.batch_size:
            return self.flush(trigger="size")
        if (
            self.flush_ms is not None
            and (self._clock() - self._oldest) * 1000.0 >= self.flush_ms
        ):
            return self.flush(trigger="timer")
        return 0

    def flush(self, trigger: str = "final") -> int:
        """Group-commit the buffered rows as one store load.

        One journal record, one fsync, all-or-nothing; a no-op on an
        empty buffer.
        """
        if not len(self.buffer):
            return 0
        self._faults.hit("ingest.batch")
        staged = self.buffer.drain()
        self._oldest = None
        started = time.perf_counter()
        self.store.load(staged)
        elapsed = time.perf_counter() - started
        self._faults.hit("ingest.commit")
        self.committed_facts += len(staged)
        self.committed_batches += 1
        self.metrics.counter(
            INGEST_BATCHES, {"trigger": trigger}, help=_BATCHES_HELP
        ).inc()
        self.metrics.counter(
            INGEST_FACTS, {"outcome": "committed"}, help=_FACTS_HELP
        ).inc(len(staged))
        self.metrics.histogram(
            INGEST_COMMIT_SECONDS,
            help="Wall-clock seconds per ingest group commit.",
        ).observe(elapsed)
        return len(staged)

    # ------------------------------------------------------------------
    # Stream drivers
    # ------------------------------------------------------------------

    def ingest(
        self,
        rows: Iterable,
        policy: ErrorPolicy | None = None,
    ) -> dict[str, int]:
        """Drive a whole row stream through the loader.

        *rows* yields :class:`SourceRow`/:class:`BadRow` items (the
        source adapters) or plain ``(id, coordinates, measures)``
        triples (programmatic ingest).  Refused rows — format-bad or
        model-invalid — go to *policy* (default: reject).  Ends with a
        ``final`` flush; returns the outcome tally.
        """
        policy = policy or ErrorPolicy()
        for row in rows:
            self._ingest_one(row, policy)
        self.flush(trigger="final")
        self._record_policy(policy)
        return {
            "committed": self.committed_facts,
            "skipped": policy.skipped,
            "dead_lettered": policy.dead_lettered,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _ingest_one(self, row, policy: ErrorPolicy) -> str:
        if isinstance(row, BadRow):
            return policy.handle(row)
        if isinstance(row, SourceRow):
            line, triple = row.line, (
                row.fact_id, row.coordinates, row.measures
            )
        else:
            line, triple = 0, row
        fact_id, coordinates, measures = triple
        try:
            self.add(fact_id, coordinates, measures)
        except (DimensionError, FactError, MeasureError) as exc:
            return policy.handle(BadRow(line, str(exc), fact_id))
        return "committed"

    def _record_policy(self, policy: ErrorPolicy) -> None:
        """Bulk-record the policy outcomes (per stream, not per row)."""
        for outcome, count in (
            ("skipped", policy.skipped),
            ("dead_lettered", policy.dead_lettered),
        ):
            if count:
                self.metrics.counter(
                    INGEST_FACTS, {"outcome": outcome}, help=_FACTS_HELP
                ).inc(count)
