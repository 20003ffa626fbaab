"""The serving service: one store, versioned snapshots, guarded refresh.

A :class:`ServingService` ties the layers together:

* queries run against the :class:`~repro.serving.snapshots.SnapshotManager`'s
  current version, pinned for the duration of the query — concurrent
  refreshes never perturb an in-flight read;
* :meth:`ServingService.refresh` advances the live store (synchronize,
  then a durable snapshot when the store is durable) and publishes the
  next version — all behind a :class:`~repro.serving.breaker.CircuitBreaker`;
* any refresh failure (injected ENOSPC on the journal, a torn-write
  failpoint in the durable snapshot, a crashed sync) leaves the
  published version untouched: the service degrades to stale read-only
  answers instead of dying, and recovers automatically once the breaker
  re-closes and a refresh succeeds.

The live store may be *ahead* of the published snapshot after a partial
failure (synchronize committed, durable snapshot failed).  That is safe
under MVCC — readers only ever see published versions — and the next
successful refresh publishes the reconciled state (synchronize is
idempotent at a fixed time).
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Mapping

from ..core.mo import MultidimensionalObject
from ..engine.faults import PASSIVE, FaultInjector
from ..engine.queryproc import SubcubeQuery
from ..engine.store import SubcubeStore
from ..errors import ReproError, ServingError
from ..obs import metrics as obs_metrics
from . import telemetry
from .breaker import CircuitBreaker
from .snapshots import SnapshotManager, StoreSnapshot

_REFRESH_HELP = "Refresh attempts, by outcome (ok|failed|rejected)."


class ServingService:
    """Snapshot-isolated reads over a live, refreshing store."""

    def __init__(
        self,
        store: SubcubeStore,
        *,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.store = store
        self.metrics = store.metrics
        self.faults = (
            faults
            if faults is not None
            else getattr(store, "_faults", PASSIVE)
        )
        self.snapshots = SnapshotManager(self.metrics)
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(
                metrics=self.metrics,
                **({"clock": clock} if clock is not None else {}),
            )
        )
        self._last_refresh_error: str | None = None
        self.snapshots.publish(store)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        return self.snapshots.version

    @property
    def degraded(self) -> bool:
        """Whether reads are currently stale-snapshot-only (breaker not
        closed, so refreshes are suspended or probing)."""
        return self.breaker.state != "closed"

    def acquire(self) -> StoreSnapshot:
        return self.snapshots.acquire()

    def release(self, snapshot: StoreSnapshot) -> None:
        self.snapshots.release(snapshot)

    def query(
        self, query: SubcubeQuery, now: _dt.date
    ) -> tuple[MultidimensionalObject, StoreSnapshot, bool]:
        """Evaluate *query* against a pinned snapshot.

        Returns ``(result, snapshot, degraded)``; *degraded* marks an
        answer served while the breaker is open — correct as of the
        snapshot's sync time, but possibly stale.
        """
        degraded = self.degraded
        if degraded:
            self.metrics.counter(
                telemetry.DEGRADED,
                help="Responses served stale while the breaker was open.",
            ).inc()
        with self.snapshots.pinned() as snapshot:
            result = snapshot.query(query, now)
        return result, snapshot, degraded

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def refresh(self, now: _dt.date) -> StoreSnapshot | None:
        """Synchronize the live store to *now* and publish version N+1.

        Returns the new snapshot, or ``None`` when the breaker rejected
        the attempt (service stays on version N).  A failed attempt
        records a breaker failure, keeps version N published, and
        re-raises nothing — degradation, not death.
        """
        if not self.breaker.allow():
            self.metrics.counter(
                telemetry.REFRESHES, {"status": "rejected"},
                help=_REFRESH_HELP,
            ).inc()
            return None
        try:
            self.faults.hit("sync.slow")
            self.store.synchronize(now)
            durable_snapshot = getattr(self.store, "snapshot", None)
            if callable(durable_snapshot):
                durable_snapshot()
        except (ReproError, OSError) as exc:
            self.breaker.record_failure()
            self._last_refresh_error = f"{type(exc).__name__}: {exc}"
            self.metrics.counter(
                telemetry.REFRESHES, {"status": "failed"}, help=_REFRESH_HELP
            ).inc()
            return None
        snapshot = self.snapshots.publish(self.store)
        self.breaker.record_success()
        self._last_refresh_error = None
        self.metrics.counter(
            telemetry.REFRESHES, {"status": "ok"}, help=_REFRESH_HELP
        ).inc()
        return snapshot

    def require_refresh(self, now: _dt.date) -> StoreSnapshot:
        """:meth:`refresh`, but a rejection/failure raises (CLI paths)."""
        snapshot = self.refresh(now)
        if snapshot is None:
            detail = self._last_refresh_error or "breaker open"
            raise ServingError(f"refresh to {now} did not publish: {detail}")
        return snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> Mapping[str, object]:
        current = self.snapshots.current()
        return {
            "version": self.version,
            "fingerprint": current.fingerprint if current else None,
            "last_sync": (
                current.last_sync.isoformat()
                if current and current.last_sync
                else None
            ),
            "facts": current.total_facts() if current else 0,
            "breaker": self.breaker.state,
            "degraded": self.degraded,
            "live_versions": self.snapshots.live_versions(),
            "last_refresh_error": self._last_refresh_error,
        }
