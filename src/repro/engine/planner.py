"""Query planning reports for the subcube engine (Figure 8's plan view).

``explain_plan`` describes how a :class:`SubcubeQuery` will evaluate over
a store at a given time — which cubes contribute, how many facts each
subquery touches and returns, whether the cube can answer at the
requested granularity or only coarser, and what the final combination
step does.  It performs the evaluation it describes, so the row counts
are real, and the returned plan carries the final answer for callers who
want both.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Mapping

from ..core.mo import MultidimensionalObject
from .queryproc import (
    SubcubeQuery,
    combine_subresults,
    effective_content,
    plan_cache,
    query_cube,
)
from .store import SubcubeStore


@dataclass(frozen=True)
class CubePlanStep:
    """One per-cube subquery of the evaluation plan."""

    cube: str
    granularity: tuple[str, ...]
    facts_scanned: int
    facts_returned: int
    answers_at_requested_granularity: bool
    pulled_from_parents: int

    def __str__(self) -> str:
        grain = "/".join(self.granularity)
        exactness = (
            "at requested granularity"
            if self.answers_at_requested_granularity
            else "coarser than requested"
        )
        pulled = (
            f", {self.pulled_from_parents} pulled from parents"
            if self.pulled_from_parents
            else ""
        )
        return (
            f"scan {self.cube} ({grain}): {self.facts_scanned} facts"
            f"{pulled} -> {self.facts_returned} rows ({exactness})"
        )


@dataclass(frozen=True)
class QueryPlan:
    """The full plan: per-cube steps plus the combining aggregation."""

    query: str
    at: _dt.date
    synchronized: bool
    steps: tuple[CubePlanStep, ...]
    combined_rows: int
    result: MultidimensionalObject

    def render(self) -> str:
        lines = [
            f"plan for {self.query} at {self.at} "
            f"({'synchronized' if self.synchronized else 'unsynchronized'})"
        ]
        for step in self.steps:
            lines.append(f"  {step}")
        lines.append(
            f"  combine {len(self.steps)} subresults by distributive "
            f"re-aggregation -> {self.combined_rows} rows"
        )
        return "\n".join(lines)


def explain_plan(
    store: SubcubeStore,
    query: SubcubeQuery,
    now: _dt.date,
    assume_synchronized: bool = True,
) -> QueryPlan:
    """Evaluate *query* step by step and report the plan."""
    requested = store.bottom_cube.mo.schema.validate_granularity(
        dict(query.granularity)
    )
    plans = plan_cache(store)
    steps: list[CubePlanStep] = []
    subresults: list[MultidimensionalObject] = []
    for definition in store.definitions:
        cube = store.cube(definition.name)
        if assume_synchronized:
            effective = cube.mo
            pulled = 0
        else:
            effective = effective_content(store, cube, now, plans)
            pulled = max(0, effective.n_facts - cube.n_facts)
        subresult = query_cube(effective, query, now, plans)
        subresults.append(subresult)
        exact = _answers_exactly(subresult, requested)
        steps.append(
            CubePlanStep(
                cube=definition.name,
                granularity=definition.granularity,
                facts_scanned=effective.n_facts,
                facts_returned=subresult.n_facts,
                answers_at_requested_granularity=exact,
                pulled_from_parents=pulled,
            )
        )
    result = combine_subresults(store, subresults, query, now)
    query_text = (
        f"a[{', '.join(f'{k}.{v}' for k, v in query.granularity.items())}]"
        + (f"(o[{query.predicate}])" if query.predicate else "")
    )
    return QueryPlan(
        query=query_text,
        at=now,
        synchronized=assume_synchronized,
        steps=tuple(steps),
        combined_rows=result.n_facts,
        result=result,
    )


def _answers_exactly(
    subresult: MultidimensionalObject, requested: Mapping[str, str] | tuple
) -> bool:
    if subresult.n_facts == 0:
        return True
    requested_tuple = tuple(requested)
    return all(
        subresult.gran(fact_id) == requested_tuple
        for fact_id in subresult.facts()
    )
