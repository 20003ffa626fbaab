"""Shard-parallel batch reduction, kept for the pipeline benchmark.

:func:`~repro.parallel.reduce.reduce_mo_sharded` computes ``reduce_mo``
over cost-balanced worker shards and merges the result **bit-for-bit
identical** to the serial kernel (property-tested).  It is not a
production path: no CLI verb, store or service reaches it.  The
benchmark's ``parallel.reduce`` layer times it beside the serial kernel
and gates on their equality (see ``docs/performance.md``).

* :mod:`.footprint` grounds every action's per-disjunct footprint (exact
  day window x grounded value regions) at the evaluation time and routes
  facts to action signatures;
* :mod:`.partition` packs signature groups into cost-balanced shards
  (:func:`~repro.analysis.cost.estimate_costs` weights, LPT packing,
  contiguous time-range splits for oversized groups);
* :mod:`.executor` fans work over ``concurrent.futures`` worker
  processes (``fork`` start method) with a deterministic serial twin;
* :mod:`.forksafe` resets module-level caches in forked children;
* :mod:`.telemetry` reports per-plan counters (facts routed, pruned
  actions, cost skew, per-task wall time) into the metrics registry.

Footprints are a *performance* device only: the merge step is correct
for any partition of the facts, so a skewed plan degrades speed, never
results.
"""

from .executor import ShardExecutor
from .partition import ShardPlan, plan_reduction_shards
from .reduce import reduce_mo_sharded

__all__ = [
    "ShardExecutor",
    "ShardPlan",
    "plan_reduction_shards",
    "reduce_mo_sharded",
]
