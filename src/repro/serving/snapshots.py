"""MVCC-style store snapshots: readers on version N, sync publishes N+1.

A :class:`StoreSnapshot` is an immutable twin of a
:class:`~repro.engine.store.SubcubeStore` taken at a publication point
(right after a committed synchronization, mirroring the durable engine's
atomic snapshot protocol: build the complete new state off to the side,
then swap a single pointer).  A :class:`SnapshotManager` versions the
snapshots and refcounts readers: ``acquire`` pins the current version so
it survives being superseded mid-query, ``publish`` installs the next
version without waiting for readers, and a superseded version is retired
as soon as its last pin drops.  No reader ever observes a half-published
("torn") version — the swap is one assignment under a lock, and every
snapshot carries a content fingerprint the chaos suite re-verifies.
"""

from __future__ import annotations

import datetime as _dt
import json
import threading
import zlib
from contextlib import contextmanager
from typing import Iterator

from .. import sanitize
from ..core.mo import MultidimensionalObject
from ..engine.queryproc import SubcubeQuery, plan_cache, query_store
from ..engine.store import SubcubeStore
from ..engine.subcube import FactBlock
from ..errors import ServingError
from ..obs import metrics as obs_metrics
from . import telemetry


def store_fingerprint(store: SubcubeStore) -> str:
    """A content hash of a store's visible state (cubes + sync clock).

    Two stores with equal fingerprints are observably identical; a
    snapshot whose recomputed fingerprint differs from the one taken at
    publication has been mutated after publish — a torn version.  Each
    cube contributes the CRC of its memoized fact block, so only cubes
    mutated since the last call are re-serialized.
    """
    return _fingerprint(
        store,
        {name: cube.frozen_block().crc for name, cube in store.cubes.items()},
    )


def _fingerprint(store: SubcubeStore, cube_crcs: dict[str, int]) -> str:
    """Hash per-cube fact-block CRCs with everything the cubes share.

    The dimension digests are recomputed from content on every call;
    only the fact-block CRCs may come from a memo.
    """
    schema = store._template.schema
    canonical = json.dumps(
        {
            "cubes": cube_crcs,
            "dimensions": {
                name: dimension.digest()
                for name, dimension in store._template.dimensions.items()
            },
            "fact_type": schema.fact_type,
            "last_sync": (
                store.last_sync.isoformat() if store.last_sync else None
            ),
            "measures": [
                [mt.name, mt.aggregate.name] for mt in schema.measure_types
            ],
        },
        sort_keys=True,
    )
    return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


def _freeze(store: SubcubeStore) -> SubcubeStore:
    """An immutable twin of *store* sharing every frozen fact block.

    The clone's cubes hold the live cubes' memoized frozen MOs — a cube
    untouched since the previous publish is the *same* object in both
    versions, only mutated cubes are copied — and the clone gets its own
    private metrics registry, so queries against the snapshot never
    write into the live store's gauges.
    """
    clone = SubcubeStore(store._template, store._specification)
    for name, cube in store._cubes.items():
        clone._cubes[name].share_frozen(cube)
    clone.last_sync = store.last_sync
    clone._dirty = set(store._dirty)
    return clone


class StoreSnapshot:
    """One published, immutable store version.

    Instances are created by :meth:`SnapshotManager.publish` only.  The
    pin count is owned by the manager (mutated under the manager's
    lock); readers treat the snapshot as strictly read-only.
    """

    __slots__ = ("version", "fingerprint", "last_sync", "pins", "_store")

    def __init__(self, version: int, store: SubcubeStore) -> None:
        self.version = version
        self._store = _freeze(store)
        self.fingerprint = store_fingerprint(self._store)
        self.last_sync: _dt.date | None = self._store.last_sync
        self.pins = 0
        # The plan cache must exist before the mutation sanitizer seals
        # the frozen store: sealing blocks the lazy attach, and queries
        # against the sealed version still need somewhere to put plans.
        plan_cache(self._store)
        sanitize.seal_if_enabled(self._store)

    @property
    def store(self) -> SubcubeStore:
        """The frozen store (read-only by convention)."""
        return self._store

    def total_facts(self) -> int:
        return self._store.total_facts()

    def query(
        self,
        query: SubcubeQuery,
        now: _dt.date,
        *,
        assume_synchronized: bool = True,
    ) -> MultidimensionalObject:
        """Evaluate *query* against this version.

        Uses the snapshot's own plan cache, so repeated queries against
        one version compile each (predicate, time) pair once.
        """
        return query_store(
            self._store,
            query,
            now,
            assume_synchronized=assume_synchronized,
        )

    def warm_plans_from(self, predecessor: "StoreSnapshot") -> None:
        """Carry the predecessor's parsed predicate ASTs forward.

        Bound ASTs depend only on schema and dimensions, which every
        version shares, so a new version starts with the previous
        version's warm bindings instead of a cold cache (compiled
        verdict tables are *not* carried — they key on the predecessor's
        predicate object identities).
        """
        mine = plan_cache(self._store)
        theirs = getattr(predecessor._store, "_plan_cache", None)
        if theirs is not None:
            mine._bound.update(theirs._bound)

    def verify_integrity(self) -> bool:
        """Whether the snapshot still hashes to its publication state.

        Every fact block is re-derived from the cubes' content, past the
        memos, so a write that bumped no mutation counter is caught too.
        """
        recomputed = _fingerprint(
            self._store,
            {
                name: FactBlock.of(cube.mo).crc
                for name, cube in self._store.cubes.items()
            },
        )
        return recomputed == self.fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StoreSnapshot(v{self.version}, facts={self.total_facts()}, "
            f"fp={self.fingerprint}, pins={self.pins})"
        )


class SnapshotManager:
    """Versioned, refcounted snapshot publication.

    Thread-safe: the asyncio server's worker threads acquire/release
    concurrently with the refresh loop's publish.  The manager never
    blocks publication on readers — superseded versions stay alive
    until their last pin drops, then retire.
    """

    def __init__(
        self, registry: obs_metrics.MetricsRegistry | None = None
    ) -> None:
        self._lock = threading.Lock()
        self._current: StoreSnapshot | None = None
        self._live: dict[int, StoreSnapshot] = {}
        self._next_version = 1
        self.metrics = (
            registry if registry is not None else obs_metrics.MetricsRegistry()
        )

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    def publish(self, store: SubcubeStore) -> StoreSnapshot:
        """Freeze *store* as the next version and make it current.

        Freezing the mutated cubes happens outside the lock; the swap
        itself is a single assignment, so readers see either the old
        version or the new one, never a mixture.
        """
        with self._lock:
            version = self._next_version
            self._next_version += 1
        snapshot = StoreSnapshot(version, store)
        with self._lock:
            previous = self._current
            if previous is not None:
                snapshot.warm_plans_from(previous)
            self._current = snapshot
            self._live[snapshot.version] = snapshot
            if previous is not None and previous.pins == 0:
                self._retire(previous)
            self._publish_metrics(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def current(self) -> StoreSnapshot | None:
        """The current version, unpinned (peek only)."""
        return self._current

    @property
    def version(self) -> int:
        snapshot = self._current
        return snapshot.version if snapshot is not None else 0

    def acquire(self) -> StoreSnapshot:
        """Pin and return the current version.

        The returned snapshot stays alive — even across later
        publishes — until the matching :meth:`release`.
        """
        with self._lock:
            snapshot = self._current
            if snapshot is None:
                raise ServingError("no snapshot has been published yet")
            snapshot.pins += 1
            self.metrics.gauge(
                telemetry.SNAPSHOT_PINS,
                help="Reader pins across all live snapshots.",
            ).inc()
            return snapshot

    def release(self, snapshot: StoreSnapshot) -> None:
        """Drop one pin; retire the version if superseded and unpinned."""
        with self._lock:
            if snapshot.pins <= 0:
                raise ServingError(
                    f"version {snapshot.version} released more times than "
                    "acquired"
                )
            snapshot.pins -= 1
            self.metrics.gauge(
                telemetry.SNAPSHOT_PINS,
                help="Reader pins across all live snapshots.",
            ).dec()
            if (
                snapshot.pins == 0
                and self._current is not snapshot
                and snapshot.version in self._live
            ):
                self._retire(snapshot)

    @contextmanager
    def pinned(self) -> Iterator[StoreSnapshot]:
        """``with manager.pinned() as snapshot:`` acquire/release pair."""
        snapshot = self.acquire()
        try:
            yield snapshot
        finally:
            self.release(snapshot)

    def live_versions(self) -> list[int]:
        """The versions currently alive (current + pinned superseded)."""
        with self._lock:
            return sorted(self._live)

    # ------------------------------------------------------------------
    # Internals (callers hold the lock)
    # ------------------------------------------------------------------

    def _retire(self, snapshot: StoreSnapshot) -> None:
        del self._live[snapshot.version]
        self.metrics.counter(
            telemetry.SNAPSHOTS_RETIRED,
            help="Superseded snapshots retired after their last unpin.",
        ).inc()
        self.metrics.gauge(
            telemetry.SNAPSHOTS_LIVE,
            help="Snapshot versions alive (current + pinned superseded).",
        ).set(len(self._live))

    def _publish_metrics(self, snapshot: StoreSnapshot) -> None:
        self.metrics.counter(
            telemetry.SNAPSHOTS_PUBLISHED,
            help="Snapshot versions published since startup.",
        ).inc()
        self.metrics.gauge(
            telemetry.SNAPSHOT_VERSION,
            help="Version number of the snapshot currently served.",
        ).set(snapshot.version)
        self.metrics.gauge(
            telemetry.SNAPSHOTS_LIVE,
            help="Snapshot versions alive (current + pinned superseded).",
        ).set(len(self._live))
