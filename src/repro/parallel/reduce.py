"""Shard-parallel reduction, bit-for-bit equal to the serial reducer.

Workers do the expensive half of Definition 2 — computing each fact's
target cell — and return only the resulting *grouping* (target cell →
member fact ids, in shard-local serial order) plus per-action admitted
counts.  The parent merges the groupings back into the single grouping
the serial reducer would have produced (members re-sorted by serial
fact index, groups ordered by first-encounter) and materializes the
output once with
:func:`~repro.reduction.reducer.materialize_groups` — so aggregation
order, fact ids, provenance, and fact-iteration order are the serial
ones *by construction*, regardless of worker count or execution mode.

Per-shard action pruning is sound because a pruned action's footprint
excludes every fact of the shard (see :mod:`.footprint`): it neither
changes any fact's target cell nor contributes admitted counts.
"""

from __future__ import annotations

import datetime as _dt
import time
from typing import Iterable

from ..core.mo import MultidimensionalObject
from ..engine.faults import PASSIVE, FaultInjector
from ..errors import ReproError
from ..obs import trace
from ..reduction import telemetry
from ..reduction.columnar import reduction_groups_columnar
from ..reduction.reducer import (
    BACKENDS,
    _interpretive_groups,
    materialize_groups,
)
from ..spec.action import Action
from ..spec.specification import ReductionSpecification
from .executor import ShardExecutor
from .partition import plan_reduction_shards
from .telemetry import record_shard_plan


def _group_task(payload: dict, task: int) -> tuple[list[tuple], list[int]]:
    """Worker: one shard's grouping plus full-index admitted counts."""
    shard = payload["plan"].shards[task]
    actions: list[Action] = payload["actions"]
    if not shard.fact_ids:
        return [], [0] * len(actions)
    sub = payload["mo"].restrict_to_facts(shard.fact_ids)
    live = [actions[index] for index in shard.action_indices]
    if payload["backend"] == "columnar":
        groups, counts = reduction_groups_columnar(sub, live, payload["now"])
    else:
        groups, counts = _interpretive_groups(sub, live, payload["now"])
    full_counts = [0] * len(actions)
    for index, count in zip(shard.action_indices, counts):
        full_counts[index] = count
    return list(groups.items()), full_counts


def reduce_mo_sharded(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    now: _dt.date,
    *,
    executor: ShardExecutor,
    backend: str = "columnar",
    faults: FaultInjector = PASSIVE,
) -> MultidimensionalObject:
    """``reduce_mo`` over cost-balanced shards (same result, any mode)."""
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown reducer backend {backend!r}; expected one of {BACKENDS}"
        )
    actions = (
        list(specification.actions)
        if isinstance(specification, ReductionSpecification)
        else list(specification)
    )
    start = time.perf_counter()
    with trace.span(
        "reduce.sharded", backend=backend, workers=executor.workers
    ) as span:
        plan = plan_reduction_shards(mo, actions, now, executor.workers)
        faults.hit("shard.plan")
        payload = {
            "mo": mo,
            "actions": actions,
            "now": now,
            "plan": plan,
            "backend": backend,
        }
        with executor.session(payload) as session:
            results, task_seconds = session.run(
                _group_task, list(range(len(plan.shards)))
            )
        serial_index = {
            fact_id: index for index, fact_id in enumerate(mo.facts())
        }
        merged: dict[tuple[str, ...], list[str]] = {}
        crossing: set[tuple[str, ...]] = set()
        admitted = [0] * len(actions)
        for groups, counts in results:
            for index, count in enumerate(counts):
                admitted[index] += count
            for cell, members in groups:
                existing = merged.get(cell)
                if existing is None:
                    merged[cell] = members
                else:
                    existing.extend(members)
                    crossing.add(cell)
        for cell in crossing:
            merged[cell].sort(key=serial_index.__getitem__)
        ordered = dict(
            sorted(
                merged.items(), key=lambda item: serial_index[item[1][0]]
            )
        )
        reduced = materialize_groups(mo, ordered)
        span.set_attribute("facts_in", mo.n_facts)
        span.set_attribute("facts_out", reduced.n_facts)
    telemetry.record_run(
        f"sharded-{backend}",
        mo.n_facts,
        reduced.n_facts,
        time.perf_counter() - start,
    )
    telemetry.record_admitted(actions, admitted)
    record_shard_plan(
        "reduce",
        workers=executor.workers,
        shards=len(plan.shards),
        facts_routed=plan.n_facts,
        pruned_actions=plan.pruned_actions,
        skew=plan.skew,
        task_seconds=task_seconds,
    )
    return reduced

