"""Crash-safe persistence for the subcube store.

The paper's reduction semantics (Definition 2) *irreversibly* deletes
detail facts once they are aggregated, and the Section 7.2 architecture
migrates facts between mutable subcubes on every ``NOW`` advance — so a
process crash mid-``synchronize`` would silently lose facts that were
removed from a fine cube but never inserted into their target.  This
module makes every store mutation durable and atomic:

* an append-only **write-ahead journal** (``journal.jsonl``) of the
  inputs that determine the state: one JSON record per line for
  ``load``, ``sync_begin``, ``sync_commit``, ``rebuild``, ``reduce``,
  and ``abort``, each with a monotonically increasing LSN and a CRC-32
  checksum, fsynced at commit points.  A synchronization is a
  deterministic function of the store, the specification and ``NOW``
  (Definition 2), so the journal records when it ran, never what moved;
* **atomic snapshots** (``snapshots/snap-<lsn>.json`` + a ``CURRENT``
  manifest): every cube's facts (its memoized
  :class:`~repro.engine.subcube.FactBlock` text — dimensions live in
  ``template.json``, written once), written temp-file-first and
  published with ``os.replace`` so a crash never corrupts the previous
  snapshot; the newest :data:`SNAPSHOTS_KEPT` documents are retained;
* **recovery** (:func:`open_durable`): load the latest valid snapshot,
  replay the journal tail (a committed synchronization by running it
  again and checking its ``moved``/``examined`` counts against the
  commit record), discard torn or checksum-failing trailing records,
  and skip uncommitted transactions — the recovered store is
  always bit-for-bit equal to a pre- or post-operation state, never
  anything in between (property-tested per failpoint in
  ``tests/engine/test_crash_recovery.py``);
* deterministic **fault injection** (:mod:`repro.engine.faults`): every
  dangerous site consults a named failpoint, so tests can kill the
  process at each of them and prove recovery.

Layout of a durable store directory::

    meta.json        {"format": 1}
    template.json    the empty warehouse (schema + dimension values)
    spec.txt         the specification the store was created with
    journal.jsonl    the write-ahead journal
    snapshots/       snap-<lsn>.json snapshot documents (newest two)
    CURRENT          manifest naming the latest published snapshot

Measure values and coordinates must be JSON-serializable (strings,
numbers, booleans) for a store to be durable — the same restriction
:func:`repro.io.mo_to_dict` already imposes.
"""

from __future__ import annotations

import datetime as _dt
import io as _stdio
import json
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from ..core.facts import Provenance
from ..core.mo import MultidimensionalObject
from ..errors import DurabilityError, RecoveryError, ReproError
from ..io import (
    atomic_write,
    canonical_json,
    dump_specification,
    fsync_directory,
    load_specification,
    mo_from_dict,
    mo_to_dict,
)
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..spec.specification import ReductionSpecification
from .faults import PASSIVE, FaultInjector, InjectedFault
from .store import SYNC_LAST_EXAMINED, SubcubeStore

FORMAT_VERSION = 1

# Durability metric families (registered in engine/telemetry.py,
# catalogued in docs/observability.md).
from .telemetry import (  # noqa: E402
    JOURNAL_BYTES,
    JOURNAL_FSYNC,
    JOURNAL_RECORDS,
    RECOVERY_ABORTED,
    RECOVERY_DISCARDED,
    RECOVERY_REPLAYED,
    SNAPSHOT_WRITES,
)

META_FILE = "meta.json"
TEMPLATE_FILE = "template.json"
SPEC_FILE = "spec.txt"
JOURNAL_FILE = "journal.jsonl"
SNAPSHOT_DIR = "snapshots"
MANIFEST_FILE = "CURRENT"

#: Snapshot documents retained after a publish: the current one and one
#: fallback.  The journal is never truncated, so any kept snapshot plus
#: replay reconstructs the state.
SNAPSHOTS_KEPT = 2


def _crc(body: Mapping[str, object]) -> int:
    """CRC-32 over the canonical JSON encoding of a record body."""
    return zlib.crc32(canonical_json(body).encode("utf-8"))


class JournalRecord(NamedTuple):
    lsn: int
    op: str
    data: dict


class Journal:
    """The append-only write-ahead journal, one checksummed record per line.

    A record line is the canonical JSON of ``{"lsn", "op", "data"}`` plus
    a ``crc`` field computed over the other three.  Appends go through
    the ``journal.append``/``journal.torn``/``journal.fsync`` failpoints;
    ``sync=True`` marks a commit point and fsyncs the file.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: bool = True,
        faults: FaultInjector = PASSIVE,
        next_lsn: int = 1,
        truncate_to: int | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        self.path = path
        self._fsync = fsync
        self._faults = faults
        self._next_lsn = next_lsn
        #: Shared with the owning store once a :class:`DurableStore`
        #: adopts this journal, so journal and sync telemetry land in one
        #: registry.
        self.metrics = (
            metrics if metrics is not None else obs_metrics.MetricsRegistry()
        )
        if truncate_to is not None and os.path.exists(path):
            if os.path.getsize(path) > truncate_to:
                # Drop the torn/corrupt tail so new appends start on a
                # clean line boundary.
                with open(path, "r+b") as stream:
                    stream.truncate(truncate_to)
        self._stream = open(path, "a", encoding="utf-8")

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def append(self, op: str, data: dict, *, sync: bool = False) -> int:
        self._faults.hit("journal.append")
        lsn = self._next_lsn
        body = canonical_json({"lsn": lsn, "op": op, "data": data})
        # ``crc`` sorts before ``data``/``lsn``/``op``, so splicing it in
        # front yields the canonical encoding of the whole record.
        line = f'{{"crc":{zlib.crc32(body.encode("utf-8"))},{body[1:]}\n'
        try:
            self._faults.hit("journal.torn")
        except InjectedFault:
            # Simulate a torn write: a prefix of the record reaches the
            # file, then the process dies.  Recovery must discard it.
            self._stream.write(line[: max(1, len(line) // 2)])
            self._stream.flush()
            raise
        try:
            # Disk failpoints model the write itself failing (full disk,
            # I/O error), so they raise from inside the same handler a
            # real OSError would.
            self._faults.hit("disk.enospc")
            self._faults.hit("disk.eio")
            self._stream.write(line)
            self._stream.flush()
        except OSError as exc:
            raise DurabilityError(
                f"journal append failed at lsn {lsn}: {exc}"
            ) from exc
        if sync and self._fsync:
            self._faults.hit("journal.fsync")
            os.fsync(self._stream.fileno())
            self.metrics.counter(
                JOURNAL_FSYNC, help="fsync() calls on the journal file."
            ).inc()
        self._next_lsn = lsn + 1
        self.metrics.counter(
            JOURNAL_RECORDS,
            {"op": op},
            help="Records appended to the journal, by operation.",
        ).inc()
        # json.dumps escapes non-ASCII, so characters written == bytes.
        self.metrics.counter(
            JOURNAL_BYTES, help="Bytes appended to the journal."
        ).inc(len(line))
        return lsn

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    @staticmethod
    def scan(path: str) -> tuple[list[JournalRecord], int, int]:
        """Read and validate a journal file.

        Returns ``(records, valid_bytes, discarded)``: the prefix of
        records that parse, checksum, and carry contiguous LSNs starting
        at 1; the byte length of that valid prefix (so the caller can
        truncate a torn tail before appending); and how many trailing
        lines were discarded as torn or corrupt.
        """
        records: list[JournalRecord] = []
        valid_bytes = 0
        discarded = 0
        if not os.path.exists(path):
            return records, 0, 0
        with open(path, "rb") as stream:
            blob = stream.read()
        offset = 0
        expected_lsn = 1
        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            if newline < 0:
                discarded += 1  # torn final record, no line terminator
                break
            line = blob[offset:newline]
            try:
                record = json.loads(line.decode("utf-8"))
                crc = record.pop("crc")
                if not isinstance(record.get("data"), dict):
                    raise ValueError("data must be an object")
                if crc != _crc(record):
                    raise ValueError("checksum mismatch")
                if record.get("lsn") != expected_lsn:
                    raise ValueError("non-contiguous lsn")
                op = record["op"]
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                # The journal is only trusted up to its first bad record:
                # everything from here on may be an artifact of the crash.
                discarded += sum(
                    1 for piece in blob[offset:].split(b"\n") if piece
                )
                break
            records.append(JournalRecord(expected_lsn, op, record["data"]))
            expected_lsn += 1
            offset = newline + 1
            valid_bytes = offset
        return records, valid_bytes, discarded


@dataclass
class RecoveryReport:
    """What :func:`open_durable` found and did."""

    snapshot_lsn: int | None = None
    last_lsn: int = 0
    replayed: int = 0
    discarded: int = 0
    aborted: int = 0
    interrupted_sync: _dt.date | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "last_lsn": self.last_lsn,
            "replayed": self.replayed,
            "discarded": self.discarded,
            "aborted": self.aborted,
            "interrupted_sync": (
                self.interrupted_sync.isoformat()
                if self.interrupted_sync
                else None
            ),
        }


class DurableStore(SubcubeStore):
    """A :class:`SubcubeStore` whose every mutation is journaled.

    Mutations follow write-ahead discipline: the journal record is
    appended before the in-memory change (``load``, ``sync_begin``), and
    a transaction only becomes durable when its commit record (``load``
    itself, or ``sync_commit``) is fsynced.
    Recovery ignores transactions whose commit never reached the disk,
    so a crashed process resumes at the last committed state.
    """

    def __init__(
        self,
        template: MultidimensionalObject,
        specification: ReductionSpecification,
        path: str,
        *,
        journal: Journal,
        fsync: bool = True,
        faults: FaultInjector | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        super().__init__(template, specification, metrics=metrics)
        # The journal reports into the store's registry from here on, so
        # one snapshot carries both sync and durability telemetry.
        journal.metrics = self.metrics
        self.path = path
        self._fsync_enabled = fsync
        self._faults = _resolve_faults(faults)
        self._journal = journal
        #: Source fact id -> its measure values as loaded, reconstructed
        #: from the journal on recovery; the baseline for :meth:`verify`.
        self._source_measures: dict[str, dict[str, object]] = {}
        self._replaying = False
        self._pending_load_prior: dict[str, dict[str, object] | None] = {}
        self._pending_load_lsn: int | None = None
        self._sync_begin_lsn: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        template: MultidimensionalObject,
        specification: ReductionSpecification,
        *,
        fsync: bool = True,
        faults: FaultInjector | None = None,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> "DurableStore":
        """Initialize a fresh durable store directory.

        A specification that :func:`open_durable` could not read back
        is refused before anything is written.
        """
        journal_path = os.path.join(path, JOURNAL_FILE)
        if os.path.exists(journal_path):
            raise DurabilityError(
                f"{path!r} already holds a durable store; use open_durable()"
            )
        _check_reopens(specification, template)
        os.makedirs(os.path.join(path, SNAPSHOT_DIR), exist_ok=True)
        with atomic_write(os.path.join(path, META_FILE), fsync=fsync) as s:
            json.dump({"format": FORMAT_VERSION}, s)
        with atomic_write(os.path.join(path, TEMPLATE_FILE), fsync=fsync) as s:
            json.dump(
                mo_to_dict(template.empty_like()), s, sort_keys=True
            )
        with atomic_write(os.path.join(path, SPEC_FILE), fsync=fsync) as s:
            dump_specification(specification, s)
        injector = _resolve_faults(faults)
        journal = Journal(journal_path, fsync=fsync, faults=injector)
        return cls(
            template,
            specification,
            path,
            journal=journal,
            fsync=fsync,
            faults=injector,
            metrics=metrics,
        )

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def journal_lsn(self) -> int:
        return self._journal.last_lsn

    @property
    def source_measures(self) -> Mapping[str, Mapping[str, object]]:
        return self._source_measures

    # ------------------------------------------------------------------
    # Journaling hooks (write-ahead discipline)
    # ------------------------------------------------------------------

    def _journal_load(
        self,
        staged: list[tuple[str, dict[str, str], dict[str, object]]],
    ) -> None:
        prior = {
            fact_id: self._source_measures.get(fact_id)
            for fact_id, _, _ in staged
        }
        if not self._replaying:
            self._pending_load_lsn = self._journal.append(
                "load",
                {
                    "facts": [
                        {
                            "id": fact_id,
                            "coordinates": coordinates,
                            "measures": measures,
                        }
                        for fact_id, coordinates, measures in staged
                    ]
                },
                sync=True,
            )
        self._pending_load_prior = prior
        for fact_id, _, measures in staged:
            self._source_measures[fact_id] = dict(measures)

    def _load_fault(self, index: int, fact_id: str) -> None:
        if not self._replaying:
            self._faults.hit("load.insert")

    def _journal_load_failed(self, exc: BaseException) -> None:
        for fact_id, prior in self._pending_load_prior.items():
            if prior is None:
                self._source_measures.pop(fact_id, None)
            else:
                self._source_measures[fact_id] = prior
        self._pending_load_prior = {}
        if self._replaying or isinstance(exc, InjectedFault):
            # An injected fault models a dead process: nothing more is
            # written, and recovery decides the batch's fate.
            return
        if self._pending_load_lsn is not None:
            self._journal.append(
                "abort",
                {"undoes": self._pending_load_lsn, "reason": str(exc)},
                sync=True,
            )
            self._pending_load_lsn = None

    def _journal_sync_begin(self, now: _dt.date, incremental: bool) -> None:
        if self._replaying:
            return
        self._sync_begin_lsn = self._journal.append(
            "sync_begin",
            {"at": now.isoformat(), "incremental": incremental},
        )

    def _migrate_fault(self) -> None:
        if not self._replaying:
            self._faults.hit("sync.migrate")

    def _journal_sync_commit(
        self, now: _dt.date, moved: Mapping[str, int], examined: int
    ) -> None:
        if self._replaying:
            return
        self._journal.append(
            "sync_commit",
            {
                "at": now.isoformat(),
                "moved": dict(moved),
                "examined": examined,
            },
            sync=True,
        )

    def _journal_sync_failed(self, exc: BaseException) -> None:
        if self._replaying or isinstance(exc, InjectedFault):
            return
        if self._sync_begin_lsn is not None:
            self._journal.append(
                "abort",
                {"undoes": self._sync_begin_lsn, "reason": str(exc)},
                sync=True,
            )
            self._sync_begin_lsn = None

    def _journal_rebuild(self, now: _dt.date) -> None:
        if self._replaying:
            return
        spec_stream = _stdio.StringIO()
        dump_specification(self._specification, spec_stream)
        self._journal.append(
            "rebuild",
            {"at": now.isoformat(), "spec": spec_stream.getvalue()},
            sync=True,
        )
        # Replay could re-run the rebuild from this record, but that
        # re-places every fact; publishing a snapshot right away makes
        # the new cube set the recovery baseline and spares recovery it.
        self.snapshot()

    def rebuild(
        self, specification: ReductionSpecification, now: _dt.date
    ) -> None:
        """:meth:`SubcubeStore.rebuild`, refusing (before it changes the
        store or the journal) a specification recovery could not read."""
        if not self._replaying:
            _check_reopens(specification, self._template)
        super().rebuild(specification, now)

    def record_reduce(self, at: _dt.date, **info: object) -> int:
        """Journal a ``reduce`` audit record (CLI ``reduce --durable``)."""
        return self._journal.append(
            "reduce", {"at": at.isoformat(), **info}, sync=True
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> str:
        """Atomically publish a snapshot covering the journal so far.

        Write-temp → fsync → ``os.replace`` for the snapshot document,
        then the same dance for the ``CURRENT`` manifest; a crash at any
        point leaves the previous snapshot (or none) fully intact.
        """
        with trace.span("snapshot.write") as write_span:
            self._faults.hit("snapshot.write")
            lsn = self._journal.last_lsn
            spec_stream = _stdio.StringIO()
            dump_specification(self._specification, spec_stream)
            header = canonical_json(
                {
                    "format": FORMAT_VERSION,
                    "lsn": lsn,
                    "last_sync": (
                        self.last_sync.isoformat() if self.last_sync else None
                    ),
                    "last_sync_examined": int(
                        self.metrics.value(SYNC_LAST_EXAMINED) or 0
                    ),
                    "dirty": sorted(self._dirty),
                    "spec": spec_stream.getvalue(),
                }
            )
            rederived = encoded = facts = 0
            parts = []
            for name, cube in sorted(self.cubes.items()):
                stale = cube.block_stale
                block = cube.frozen_block()
                if stale:
                    rederived += 1
                    encoded += block.encoded
                facts += len(block.fragments)
                parts.append(f'{json.dumps(name)}:{{"facts":{block.text}}}')
            # ``cubes`` sorts before every header key and each block text
            # is canonical already, so the splice *is* the sorted compact
            # encoding of the body that _crc() re-derives at recovery.
            body = f'{{"cubes":{{{",".join(parts)}}},{header[1:]}'
            body_bytes = body.encode("utf-8")
            crc = zlib.crc32(body_bytes)
            prefix = f'{{"crc":{crc},"snapshot":'
            write_span.set_attribute(
                "bytes", len(prefix) + len(body_bytes) + 1
            )
            write_span.set_attribute("cubes_rederived", rederived)
            write_span.set_attribute("facts_encoded", encoded)
            write_span.set_attribute("facts_reused", facts - encoded)
            directory = os.path.join(self.path, SNAPSHOT_DIR)
            os.makedirs(directory, exist_ok=True)
            filename = f"snap-{lsn:012d}.json"
            final_path = os.path.join(directory, filename)
            tmp_path = final_path + ".tmp"
            # A full or failing disk surfaces here as a realistic OSError
            # (never a half-published snapshot: the write-temp → rename
            # protocol below leaves the previous snapshot untouched).
            self._faults.hit("disk.enospc")
            self._faults.hit("disk.eio")
            with open(tmp_path, "w", encoding="utf-8") as stream:
                stream.write(f"{prefix}{body}}}")
                stream.flush()
                self._faults.hit("snapshot.fsync")
                if self._fsync_enabled:
                    os.fsync(stream.fileno())
            self._faults.hit("snapshot.rename")
            os.replace(tmp_path, final_path)
            if self._fsync_enabled:
                fsync_directory(directory)
            self._faults.hit("snapshot.manifest")
            with atomic_write(
                os.path.join(self.path, MANIFEST_FILE),
                fsync=self._fsync_enabled,
            ) as stream:
                json.dump({"file": filename, "lsn": lsn, "crc": crc}, stream)
            _prune_snapshots(directory)
            self.metrics.counter(
                SNAPSHOT_WRITES, help="Snapshots atomically published."
            ).inc()
            return final_path

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def verify(self, sources=None, *, strict: bool = False):
        """Audit invariants against the journal-derived source baseline."""
        if sources is None:
            sources = self._source_measures
        return super().verify(sources, strict=strict)


def _check_reopens(
    specification: ReductionSpecification,
    template: MultidimensionalObject,
) -> None:
    """The admission gate of a durable store's specification: its text
    must load back, evaluability enforced, against the store's schema
    and dimensions — exactly what recovery will do with it."""
    text = _stdio.StringIO()
    dump_specification(specification, text)
    try:
        load_specification(
            _stdio.StringIO(text.getvalue()),
            template.schema,
            template.dimensions,
        )
    except ReproError as exc:
        raise DurabilityError(
            f"specification would not reopen from the store: {exc}"
        ) from exc


def _resolve_faults(faults: FaultInjector | None) -> FaultInjector:
    if faults is not None:
        return faults
    if os.environ.get("REPRO_FAILPOINTS"):
        return FaultInjector.from_environment()
    return PASSIVE


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------

def open_durable(
    path: str,
    *,
    fsync: bool = True,
    faults: FaultInjector | None = None,
    metrics: obs_metrics.MetricsRegistry | None = None,
) -> tuple[DurableStore, RecoveryReport]:
    """Recover a durable store from its directory.

    Loads the newest valid snapshot (falling back through older ones if
    the manifest or the newest document is damaged), replays the journal
    tail, truncates torn trailing bytes, and reports what happened.  An
    interrupted synchronization — ``sync_begin`` without a matching
    ``sync_commit`` — is *not* applied: the store recovers to the
    pre-sync state and the report carries the interrupted time so the
    caller can re-run it idempotently.
    """
    meta_path = os.path.join(path, META_FILE)
    if not os.path.exists(meta_path):
        raise RecoveryError(f"{path!r} is not a durable store (no meta.json)")
    try:
        with open(meta_path, encoding="utf-8") as stream:
            meta = json.load(stream)
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"cannot read {meta_path!r}: {exc}") from exc
    if meta.get("format") != FORMAT_VERSION:
        raise RecoveryError(
            f"unsupported durable store format {meta.get('format')!r}"
        )
    try:
        with open(
            os.path.join(path, TEMPLATE_FILE), encoding="utf-8"
        ) as stream:
            template = mo_from_dict(json.load(stream))
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"cannot load store template: {exc}") from exc

    journal_path = os.path.join(path, JOURNAL_FILE)
    records, valid_bytes, discarded = Journal.scan(journal_path)
    snapshot = _load_latest_snapshot(path)

    if snapshot is not None:
        spec_text = snapshot["spec"]
        snapshot_lsn = int(snapshot["lsn"])
    else:
        try:
            with open(
                os.path.join(path, SPEC_FILE), encoding="utf-8"
            ) as stream:
                spec_text = stream.read()
        except OSError as exc:
            raise RecoveryError(f"cannot load specification: {exc}") from exc
        snapshot_lsn = 0

    try:
        specification = load_specification(
            _stdio.StringIO(spec_text), template.schema, template.dimensions
        )
    except ReproError as exc:
        raise RecoveryError(f"cannot parse specification: {exc}") from exc

    injector = _resolve_faults(faults)
    journal = Journal(
        journal_path,
        fsync=fsync,
        faults=injector,
        next_lsn=(records[-1].lsn + 1) if records else 1,
        truncate_to=valid_bytes,
    )
    store = DurableStore(
        template,
        specification,
        path,
        journal=journal,
        fsync=fsync,
        faults=injector,
        metrics=metrics,
    )
    report = RecoveryReport(
        snapshot_lsn=snapshot_lsn if snapshot is not None else None,
        last_lsn=records[-1].lsn if records else 0,
        discarded=discarded,
    )
    store._replaying = True
    try:
        with trace.span(
            "recover.open", path=path, records=len(records)
        ) as recover_span:
            if snapshot is not None:
                _restore_snapshot(store, snapshot)
            _replay(store, records, snapshot_lsn, report)
            recover_span.set_attribute("replayed", report.replayed)
            recover_span.set_attribute("discarded", report.discarded)
    except RecoveryError:
        raise
    except ReproError as exc:
        raise RecoveryError(f"journal replay failed: {exc}") from exc
    finally:
        store._replaying = False
    metrics = store.metrics
    metrics.gauge(
        RECOVERY_REPLAYED,
        help="Journal records the last recovery replayed.",
    ).set(report.replayed)
    metrics.gauge(
        RECOVERY_DISCARDED,
        help="Torn or corrupt trailing records the last recovery dropped.",
    ).set(report.discarded)
    metrics.gauge(
        RECOVERY_ABORTED,
        help="Uncommitted transactions the last recovery skipped.",
    ).set(report.aborted)
    return store, report


def _snapshot_files(directory: str) -> list[str]:
    """Published snapshot documents in *directory*, newest first."""
    return sorted(
        (
            name
            for name in os.listdir(directory)
            if name.startswith("snap-") and name.endswith(".json")
        ),
        reverse=True,
    )


def _prune_snapshots(directory: str) -> None:
    """Delete all but the newest :data:`SNAPSHOTS_KEPT` snapshots."""
    try:
        stale = _snapshot_files(directory)[SNAPSHOTS_KEPT:]
    except OSError:
        return
    for name in stale:
        try:
            os.remove(os.path.join(directory, name))
        except OSError:
            pass


def _load_latest_snapshot(path: str) -> dict | None:
    """The newest snapshot body that exists and checksums, else None.

    Tries the ``CURRENT`` manifest first, then falls back to scanning
    the snapshot directory newest-first — a crash between publishing a
    snapshot and updating the manifest must not hide the older ones.
    """
    directory = os.path.join(path, SNAPSHOT_DIR)
    candidates: list[str] = []
    manifest_path = os.path.join(path, MANIFEST_FILE)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, encoding="utf-8") as stream:
                manifest = json.load(stream)
            candidates.append(os.path.join(directory, manifest["file"]))
        except (OSError, ValueError, KeyError, TypeError):
            pass
    if os.path.isdir(directory):
        candidates.extend(
            os.path.join(directory, name)
            for name in _snapshot_files(directory)
        )
    for candidate in candidates:
        try:
            with open(candidate, encoding="utf-8") as stream:
                document = json.load(stream)
            body = document["snapshot"]
            if document["crc"] != _crc(body):
                continue
            if body.get("format") != FORMAT_VERSION:
                continue
            return body
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return None


def _restore_snapshot(store: DurableStore, snapshot: Mapping) -> None:
    for name, cube_document in snapshot["cubes"].items():
        try:
            cube = store.cube(name)
        except ReproError as exc:
            raise RecoveryError(
                f"snapshot names unknown cube {name!r}: {exc}"
            ) from exc
        for fact in cube_document["facts"]:
            cube.mo.insert_aggregate_fact(
                fact["id"],
                fact["coordinates"],
                fact["measures"],
                Provenance(frozenset(fact["members"])),
            )
    if snapshot.get("last_sync"):
        store.last_sync = _dt.date.fromisoformat(snapshot["last_sync"])
    store.metrics.gauge(SYNC_LAST_EXAMINED).set(
        int(snapshot.get("last_sync_examined", 0))
    )
    store._dirty = set(snapshot.get("dirty", ()))


def _replay(
    store: DurableStore,
    records: Iterable[JournalRecord],
    snapshot_lsn: int,
    report: RecoveryReport,
) -> None:
    aborted = {
        record.data.get("undoes")
        for record in records
        if record.op == "abort"
    }
    open_sync: JournalRecord | None = None
    for record in records:
        if record.op == "load":
            # Source-measure bookkeeping spans the whole journal, even
            # the part a snapshot already covers.
            if record.lsn not in aborted:
                for fact in record.data["facts"]:
                    store._source_measures[fact["id"]] = dict(
                        fact["measures"]
                    )
        if record.lsn <= snapshot_lsn:
            continue
        if record.op == "load":
            if record.lsn in aborted:
                report.aborted += 1
                continue
            facts = [
                (fact["id"], fact["coordinates"], fact["measures"])
                for fact in record.data["facts"]
            ]
            try:
                store.load(facts)
            except ReproError:
                # The batch failed before its crash too (deterministic);
                # the rollback inside load() already undid the staging.
                report.aborted += 1
                continue
            report.replayed += 1
        elif record.op == "sync_begin":
            open_sync = record
        elif record.op == "sync_commit":
            if open_sync is None:
                raise RecoveryError(
                    f"sync_commit at lsn {record.lsn} without sync_begin"
                )
            _replay_sync(store, open_sync, record)
            open_sync = None
            report.replayed += 1
        elif record.op == "abort":
            if (
                open_sync is not None
                and record.data.get("undoes") == open_sync.lsn
            ):
                open_sync = None
                report.aborted += 1
        elif record.op == "rebuild":
            specification = load_specification(
                _stdio.StringIO(record.data["spec"]),
                store._template.schema,
                store._template.dimensions,
            )
            store.rebuild(
                specification, _dt.date.fromisoformat(record.data["at"])
            )
            report.replayed += 1
        elif record.op in ("reduce", "migrate"):
            # ``reduce`` is an informational audit record.  ``migrate``,
            # one per moved fact in older journals, is re-derived by
            # its ``sync_commit``.
            continue
        else:
            raise RecoveryError(
                f"unknown journal op {record.op!r} at lsn {record.lsn}"
            )
    if open_sync is not None:
        # sync_begin without sync_commit: the transaction never became
        # durable.  Leave the store at the pre-sync state; the caller
        # can re-run synchronize(at) idempotently.
        report.interrupted_sync = _dt.date.fromisoformat(open_sync.data["at"])


def _replay_sync(
    store: DurableStore, begin: JournalRecord, commit: JournalRecord
) -> None:
    """Re-run a committed synchronization and check it did what the live
    run journaled: the same per-cube ``moved`` counts and ``examined``."""
    moved = store.synchronize(
        _dt.date.fromisoformat(commit.data["at"]),
        incremental=begin.data["incremental"],
    )
    examined = int(store.metrics.value(SYNC_LAST_EXAMINED) or 0)
    journaled = (commit.data["moved"], commit.data["examined"])
    if (moved, examined) != journaled:
        raise RecoveryError(
            f"replaying the sync committed at lsn {commit.lsn} moved "
            f"{moved} and examined {examined}; the journal records "
            f"{journaled[0]} and {journaled[1]}"
        )
