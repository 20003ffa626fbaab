"""Metric families of the serving layer (``repro_serving_*``).

Every family reports into the serving service's registry (the same
per-store registry the sync/query/durability counters live in, so one
Prometheus scrape or ``stats`` op covers the whole server).  Catalogued
in ``docs/observability.md``.
"""

from __future__ import annotations

from ..obs import metrics as obs_metrics

# Request path -------------------------------------------------------------
#: Requests finished, by operation and terminal status
#: (``ok|rejected|deadline|error|degraded``).
REQUESTS = "repro_serving_requests_total"
#: End-to-end request latency (admission to response write), seconds.
REQUEST_SECONDS = "repro_serving_request_seconds"
#: Requests waiting for an execution slot right now.
QUEUE_DEPTH = "repro_serving_queue_depth"
#: Requests executing right now.
INFLIGHT = "repro_serving_inflight"
#: Requests turned away, by reason (``overload|deadline|handler``).
REJECTED = "repro_serving_rejected_total"
#: Responses served from a stale snapshot while the breaker was open.
DEGRADED = "repro_serving_degraded_responses_total"

# Snapshot lifecycle -------------------------------------------------------
#: Version number of the snapshot currently served.
SNAPSHOT_VERSION = "repro_serving_snapshot_version"
#: Snapshot versions alive (current + superseded-but-pinned).
SNAPSHOTS_LIVE = "repro_serving_snapshots_live"
#: Reader pins across all live snapshots.
SNAPSHOT_PINS = "repro_serving_snapshot_pins"
#: Snapshots published since the server started.
SNAPSHOTS_PUBLISHED = "repro_serving_snapshots_published_total"
#: Superseded snapshots retired after their last reader unpinned.
SNAPSHOTS_RETIRED = "repro_serving_snapshots_retired_total"

# Refresh / breaker --------------------------------------------------------
#: Synchronize-and-publish refresh attempts, by outcome
#: (``ok|failed|rejected``; rejected = the breaker refused the attempt).
REFRESHES = "repro_serving_refresh_total"
#: Circuit-breaker state: 0 = closed, 1 = open, 2 = half-open.
BREAKER_STATE = "repro_serving_breaker_state"
#: Breaker state transitions, labelled ``from``/``to``.
BREAKER_TRANSITIONS = "repro_serving_breaker_transitions_total"

#: Latency buckets for the request histogram: sub-millisecond to the
#: multi-second deadline range.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

# Block sanitizer ----------------------------------------------------------
#: Event-loop stalls past the ``REPRO_SANITIZE=block`` threshold.
LOOP_STALLS = "repro_serving_loop_stalls_total"
#: Worst event-loop stall the block sanitizer has observed, seconds.
LOOP_STALL_SECONDS = "repro_serving_loop_stall_seconds"

#: Numeric encoding of breaker states for the gauge.
BREAKER_STATE_CODES = {"closed": 0, "open": 1, "half_open": 2}


def request_histogram(
    registry: obs_metrics.MetricsRegistry,
) -> obs_metrics.Histogram:
    """The request-latency histogram in *registry* (create on first use)."""
    return registry.histogram(
        REQUEST_SECONDS,
        buckets=LATENCY_BUCKETS,
        help="End-to-end request latency in seconds.",
    )
