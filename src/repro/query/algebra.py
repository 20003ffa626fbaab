"""A small fluent facade over the Section 6 operators.

The paper's language is deliberately no more powerful than commercial OLAP
tools: selection, projection, aggregate formation.  :class:`Query` chains
them lazily and exposes the results as plain rows for reports and
benchmarks::

    rows = (
        Query()
        .select("Time.month <= '2000/05'")
        .aggregate({"Time": "month", "URL": "domain_grp"})
        .project(["Time", "URL"], ["Number_of"])
        .rows(mo, now)
    )
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.mo import MultidimensionalObject
from .aggregation import AggregationApproach, aggregate
from .compare import Approach
from .projection import project
from .selection import select


@dataclass(frozen=True)
class _Step:
    kind: str
    payload: tuple


class Query:
    """An immutable pipeline of selection/aggregation/projection steps."""

    def __init__(self, steps: tuple[_Step, ...] = ()) -> None:
        self._steps = steps

    def select(
        self, predicate: str, approach: Approach = Approach.CONSERVATIVE
    ) -> "Query":
        return Query((*self._steps, _Step("select", (predicate, approach))))

    def aggregate(
        self,
        granularity: Mapping[str, str],
        approach: AggregationApproach = AggregationApproach.AVAILABILITY,
    ) -> "Query":
        return Query(
            (*self._steps, _Step("aggregate", (dict(granularity), approach)))
        )

    def project(
        self,
        dimensions: Sequence[str],
        measures: Sequence[str] | None = None,
    ) -> "Query":
        return Query(
            (*self._steps, _Step("project", (tuple(dimensions), measures)))
        )

    def run(
        self, mo: MultidimensionalObject, now: _dt.date
    ) -> MultidimensionalObject:
        """Apply the pipeline to *mo* at evaluation time *now*."""
        current = mo
        for step in self._steps:
            if step.kind == "select":
                predicate, approach = step.payload
                current = select(current, predicate, now, approach)
            elif step.kind == "aggregate":
                granularity, approach = step.payload
                current = aggregate(current, granularity, approach)
            else:
                dimensions, measures = step.payload
                current = project(current, list(dimensions), measures)
        return current

    def rows(
        self, mo: MultidimensionalObject, now: _dt.date
    ) -> list[dict[str, object]]:
        """Run the pipeline and flatten the result MO into report rows."""
        return mo_rows(self.run(mo, now))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Query({[s.kind for s in self._steps]!r})"


def mo_rows(mo: MultidimensionalObject) -> list[dict[str, object]]:
    """One dict per fact, in fact-id order: dimension values, measures,
    and granularity.

    Reads whole columns, and looks each distinct value's category up
    once.
    """
    fact_ids = sorted(mo.facts())
    names = mo.schema.dimension_names
    cells = [mo.relations[name].values_of(fact_ids) for name in names]
    grans = []
    for name, values in zip(names, cells):
        category_of = mo.dimensions[name].category_of
        category = {
            value: category_of(value) for value in dict.fromkeys(values)
        }
        grans.append(map(category.__getitem__, values))
    keys = ("fact", *names, *mo.schema.measure_names, "granularity")
    measures = [
        mo.measure(name).values_of(fact_ids)
        for name in mo.schema.measure_names
    ]
    columns = [fact_ids, *cells, *measures, zip(*grans)]
    return [dict(zip(keys, row)) for row in zip(*columns)]
