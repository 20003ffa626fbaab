"""Static selectivity and cost estimates from hierarchy cardinalities.

For each action the estimator bounds, at the prover's reference time, the
number of bottom cells the predicate admits: materialized days inside the
exact day window times the grounded region size per non-time dimension.
Dividing by the instance's total bottom-cell count gives a selectivity;
the rollup factor — the ratio of bottom-category to target-category
cardinalities along each dimension — bounds the output size after
aggregation.  Every estimate degrades to ``None`` instead of guessing
when a region cannot be grounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..checks.prover import Prover, region_is_symbolic
from ..core.dimension import Dimension
from ..spec.action import Action, is_time_dimension_type
from ..spec.ranges import ConjunctProfile
from ..timedim.calendar import first_day


@dataclass(frozen=True)
class ActionCost:
    """Static cost estimate of one action (upper bounds, reference time)."""

    action: str
    granularity: tuple[str, ...]
    #: Upper bound on admitted bottom cells; ``None`` when ungroundable.
    admitted_cells: int | None
    total_cells: int | None
    selectivity: float | None
    #: Bottom-to-target cardinality ratio (>= 1).
    rollup_factor: float | None
    #: Upper bound on cells remaining after aggregation to the target.
    output_cells: int | None

    def to_dict(self) -> dict[str, object]:
        return {
            "action": self.action,
            "granularity": list(self.granularity),
            "admitted_cells": self.admitted_cells,
            "total_cells": self.total_cells,
            "selectivity": self.selectivity,
            "rollup_factor": self.rollup_factor,
            "output_cells": self.output_cells,
        }


def _bottom_days(dimension: Dimension) -> list[float]:
    return [
        float(first_day(dimension.bottom_category, value).toordinal())
        for value in dimension.values(dimension.bottom_category)
    ]


def _category_count(dimension: Dimension, category: str) -> int | None:
    try:
        return max(1, len(dimension.values(category)))
    except Exception:
        return None


def _profile_cells(
    profile: ConjunctProfile, action: Action, prover: Prover
) -> int | None:
    """Upper bound on bottom cells this disjunct admits at the reference."""
    dimensions = prover.dimensions
    regions = prover.regions(profile)
    cells = 1
    for name in action.schema.dimension_names:
        dimension = dimensions.get(name)
        if dimension is None:
            return None
        if is_time_dimension_type(action.schema.dimension_type(name)):
            window = prover.window(profile, prover.config.reference)
            days = _bottom_days(dimension)
            if window is None:
                cells *= len(days)
            else:
                lo, hi = window
                cells *= sum(1 for day in days if lo <= day <= hi)
            continue
        region = regions.get(name)
        if region_is_symbolic(region):
            return None
        if region is None:
            cells *= len(dimension.values(dimension.bottom_category))
        else:
            cells *= len(region)
    return cells


def estimate_costs(
    actions: Sequence[Action], prover: Prover
) -> tuple[ActionCost, ...]:
    """One static cost estimate per action, in input order."""
    return tuple(_estimate(action, prover) for action in actions)


def _estimate(action: Action, prover: Prover) -> ActionCost:
    dimensions = prover.dimensions
    schema = action.schema
    names = schema.dimension_names
    total: int | None = None
    rollup: float | None = None
    admitted: int | None = None
    if dimensions is not None and all(n in dimensions for n in names):
        total = 1
        rollup = 1.0
        for name, target in zip(names, action.cat()):
            dimension = dimensions[name]
            bottom = len(dimension.values(dimension.bottom_category))
            total *= bottom
            target_count = _category_count(dimension, target)
            if rollup is not None and target_count is not None:
                rollup *= max(1.0, bottom / target_count)
            else:
                rollup = None
        admitted = 0
        for profile in prover.live(action):
            cells = _profile_cells(profile, action, prover)
            if cells is None:
                admitted = None
                break
            admitted += cells
        if admitted is not None and total is not None:
            admitted = min(admitted, total)
    selectivity = None
    if admitted is not None and total:
        selectivity = admitted / total
    output = None
    if admitted is not None and rollup:
        output = math.ceil(admitted / rollup)
    return ActionCost(
        action=action.name,
        granularity=action.cat(),
        admitted_cells=admitted,
        total_cells=total,
        selectivity=selectivity,
        rollup_factor=rollup,
        output_cells=output,
    )
