"""Shared metric names and recording helpers for the reduction paths.

All three reduction paths — the interpretive oracle, the columnar
kernel, and the SQL reducer — report the same counter families with the
same semantics, so the differential suite can assert that their
telemetry agrees exactly:

* ``repro_reduce_runs_total{backend=...}`` — one per completed run;
* ``repro_reduce_facts_input_total`` / ``..._output_total`` /
  ``..._deleted_total`` — fact flow per run (``deleted`` is input minus
  output, Definition 2's irreversible loss);
* ``repro_reduce_action_admitted_total{action=...}`` — per action, the
  number of input facts whose direct cell satisfies the action's
  predicate at the evaluation time.  Deliberately *not* exclusive
  attribution and *not* granularity-guarded: plain predicate admission
  is the one notion every backend (including SQL's set-based pass) can
  compute natively and identically;
* ``repro_reduce_seconds{backend=...}`` — run duration histogram.

Counters are recorded only for successful runs (a crossing-specification
error propagates before anything is written), and every family is
written even when the count is zero so the exported families are
identical across backends.
"""

from __future__ import annotations

from typing import Sequence

from ..obs import metrics as obs_metrics
from ..spec.action import Action

REDUCE_RUNS = "repro_reduce_runs_total"
REDUCE_INPUT = "repro_reduce_facts_input_total"
REDUCE_OUTPUT = "repro_reduce_facts_output_total"
REDUCE_DELETED = "repro_reduce_facts_deleted_total"
REDUCE_ADMITTED = "repro_reduce_action_admitted_total"
REDUCE_SECONDS = "repro_reduce_seconds"

_HELP_RUNS = "Completed reduce runs, by backend."
_HELP_INPUT = "Facts entering reduce runs."
_HELP_OUTPUT = "Facts remaining after reduce runs."
_HELP_DELETED = "Facts irreversibly removed by reduce runs (input - output)."
_HELP_ADMITTED = (
    "Input facts whose direct cell satisfied the action's predicate."
)
_HELP_SECONDS = "Reduce run duration in seconds, by backend."


def record_run(
    backend: str,
    facts_in: int,
    facts_out: int,
    seconds: float,
    registry: obs_metrics.MetricsRegistry | None = None,
) -> None:
    """Record the dispatcher-level counters for one successful run."""
    registry = registry if registry is not None else obs_metrics.get_registry()
    registry.counter(REDUCE_RUNS, {"backend": backend}, help=_HELP_RUNS).inc()
    registry.counter(REDUCE_INPUT, help=_HELP_INPUT).inc(facts_in)
    registry.counter(REDUCE_OUTPUT, help=_HELP_OUTPUT).inc(facts_out)
    registry.counter(REDUCE_DELETED, help=_HELP_DELETED).inc(
        facts_in - facts_out
    )
    registry.histogram(
        REDUCE_SECONDS,
        {"backend": backend},
        buckets=obs_metrics.TIME_BUCKETS,
        help=_HELP_SECONDS,
    ).observe(seconds)


def record_admitted(
    actions: Sequence[Action],
    counts: Sequence[int],
    registry: obs_metrics.MetricsRegistry | None = None,
) -> None:
    """Record per-action admission counts (zero counts included, so the
    exported label sets match across backends)."""
    registry = registry if registry is not None else obs_metrics.get_registry()
    for action, count in zip(actions, counts):
        registry.counter(
            REDUCE_ADMITTED, {"action": action.name}, help=_HELP_ADMITTED
        ).inc(count)
