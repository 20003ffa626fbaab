"""Metric families of the engine layer (sync, store, query, durability).

The single registry of every ``repro_sync_*`` / ``repro_store_*`` /
``repro_query_*`` / ``repro_journal_*`` / ``repro_snapshot_*`` /
``repro_recovery_*`` / ``repro_disjoint_*`` metric name.  Use sites
import these constants rather than repeating the strings — the
self-check pass (``repro selfcheck``, rule RL005) enforces that every
metric literal lives in exactly one ``telemetry``/``obs`` module and is
catalogued in ``docs/observability.md``, so names cannot silently
drift between the code, the dashboards, and the docs.
"""

from __future__ import annotations

# Synchronization (SubcubeStore.synchronize) ------------------------------
SYNC_RUNS = "repro_sync_runs_total"
SYNC_EXAMINED = "repro_sync_facts_examined_total"
SYNC_MIGRATED = "repro_sync_facts_migrated_total"
SYNC_SKIPPED = "repro_sync_facts_skipped_total"
SYNC_LAST_EXAMINED = "repro_sync_last_examined"
SYNC_LAST_MIGRATED = "repro_sync_last_migrated"
SYNC_LAST_SKIPPED = "repro_sync_last_skipped"
SYNC_UNDO_LOG = "repro_sync_undo_log_size"
SYNC_SECONDS = "repro_sync_seconds"

# Store lifecycle ---------------------------------------------------------
STORE_LOADED = "repro_store_facts_loaded_total"
STORE_REBUILDS = "repro_store_rebuilds_total"

# Query processor ---------------------------------------------------------
# The plan cache has two layers, distinguished by the ``cache`` label:
# ``bound`` (predicate text -> bound AST) and ``plan`` ((predicate,
# time) -> compiled verdict tables).  Row counters carry a ``stage``
# label naming the operator: ``scanned``, ``subresult``, ``result``.
QUERY_RUNS = "repro_query_runs_total"
QUERY_CACHE_HITS = "repro_query_plan_cache_hits_total"
QUERY_CACHE_MISSES = "repro_query_plan_cache_misses_total"
QUERY_ROWS = "repro_query_rows_total"
QUERY_SECONDS = "repro_query_seconds"

# Durability --------------------------------------------------------------
JOURNAL_RECORDS = "repro_journal_records_total"
JOURNAL_BYTES = "repro_journal_bytes_total"
JOURNAL_FSYNC = "repro_journal_fsync_total"
SNAPSHOT_WRITES = "repro_snapshot_writes_total"
RECOVERY_REPLAYED = "repro_recovery_replayed_records"
RECOVERY_DISCARDED = "repro_recovery_discarded_records"
RECOVERY_ABORTED = "repro_recovery_aborted_transactions"

# Streaming ingest (repro.ingest) -----------------------------------------
# Incremented per batch/stream (never per fact), labelled by outcome:
# ``committed`` facts reached the store, ``skipped``/``dead_lettered``
# fell to the error policy.
INGEST_FACTS = "repro_ingest_facts_total"
#: Group commits, labelled by what triggered the flush
#: (``size`` | ``timer`` | ``final``).
INGEST_BATCHES = "repro_ingest_batches_total"
#: Wall-clock seconds per group commit (journal record + inserts).
INGEST_COMMIT_SECONDS = "repro_ingest_commit_seconds"

# Disjoint-predicate construction -----------------------------------------
#: Wall-clock seconds spent building the disjoint action set.
DISJOINT_BUILD_SECONDS = "repro_disjoint_build_seconds"
