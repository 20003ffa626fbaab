"""Snapshot-isolated concurrent serving over the subcube engine.

The layers, bottom up:

* :mod:`~repro.serving.snapshots` — MVCC-style versioned, refcounted
  store snapshots: readers pin version N while a refresh publishes N+1;
* :mod:`~repro.serving.breaker` — a deterministic circuit breaker that
  degrades the service to stale read-only answers when refreshes fail;
* :mod:`~repro.serving.service` — the store + snapshots + breaker
  composite with the guarded ``refresh`` path;
* :mod:`~repro.serving.server` / :mod:`~repro.serving.client` — an
  asyncio JSON-line protocol with per-request deadlines, bounded
  admission (429 backpressure), and a retrying client with seeded
  exponential backoff.

See ``docs/serving.md`` for the protocol and failure semantics.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .client import RetryPolicy, ServingClient
from .server import QueryServer, ServerConfig
from .service import ServingService
from .snapshots import SnapshotManager, StoreSnapshot, store_fingerprint

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "QueryServer",
    "RetryPolicy",
    "ServerConfig",
    "ServingClient",
    "ServingService",
    "SnapshotManager",
    "StoreSnapshot",
    "store_fingerprint",
]
