"""Shard-execution metrics (catalogued in docs/observability.md).

One :func:`record_shard_plan` call per sharded reduce, labelled
``op="reduce"``: shard and worker counts, facts routed, the action
evaluations pruned by signature routing, the plan's cost skew, and every
task's wall time.
"""

from __future__ import annotations

from typing import Sequence

from ..obs import metrics as obs_metrics

SHARD_WORKERS = "repro_shard_workers"
SHARD_PLAN_SHARDS = "repro_shard_plan_shards"
SHARD_FACTS_ROUTED = "repro_shard_facts_routed_total"
SHARD_PRUNED_ACTIONS = "repro_shard_pruned_actions_total"
SHARD_COST_SKEW = "repro_shard_cost_skew"
SHARD_WORKER_SECONDS = "repro_shard_worker_seconds"


def record_shard_plan(
    op: str,
    *,
    workers: int,
    shards: int,
    facts_routed: int,
    pruned_actions: int,
    skew: float,
    task_seconds: Sequence[float] = (),
    registry: obs_metrics.MetricsRegistry | None = None,
) -> None:
    """Record one sharded execution into *registry* (default: active)."""
    metrics = registry if registry is not None else obs_metrics.get_registry()
    labels = {"op": op}
    metrics.gauge(
        SHARD_WORKERS, labels, help="Workers the last sharded run used."
    ).set(workers)
    metrics.gauge(
        SHARD_PLAN_SHARDS, labels, help="Shards in the last executed plan."
    ).set(shards)
    metrics.counter(
        SHARD_FACTS_ROUTED,
        labels,
        help="Facts routed to shards across sharded runs.",
    ).inc(facts_routed)
    metrics.counter(
        SHARD_PRUNED_ACTIONS,
        labels,
        help="Per-shard action evaluations removed by signature routing.",
    ).inc(pruned_actions)
    metrics.gauge(
        SHARD_COST_SKEW,
        labels,
        help="max/mean shard cost weight of the last plan (1.0 = balanced).",
    ).set(skew)
    histogram = metrics.histogram(
        SHARD_WORKER_SECONDS,
        labels,
        buckets=obs_metrics.TIME_BUCKETS,
        help="Per-task worker wall time in seconds.",
    )
    for seconds in task_seconds:
        histogram.observe(seconds)
