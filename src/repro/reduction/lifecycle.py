"""Progressive reduction over time: timelines and a warehouse harness.

The reduction of Definition 2 is a snapshot operator; real warehouses
apply it repeatedly as ``NOW`` advances and new data arrives.  For Growing
specifications the two views agree — reducing yesterday's reduction today
equals reducing the original today — which :func:`run_timeline` makes easy
to exercise and the test suite property-checks.
"""

from __future__ import annotations

import datetime as _dt
from typing import Iterable, Mapping

from ..core.mo import MultidimensionalObject
from ..spec.specification import ReductionSpecification
from .reducer import reduce_mo


def run_timeline(
    mo: MultidimensionalObject,
    specification: ReductionSpecification,
    times: Iterable[_dt.date],
    cumulative: bool = True,
) -> dict[_dt.date, MultidimensionalObject]:
    """Snapshots of the reduced MO at each time in *times* (ascending).

    With ``cumulative=True`` each snapshot reduces the previous one (the
    operational mode of a live warehouse); with ``False`` each reduces the
    original MO directly (the declarative semantics).  For a Growing
    specification both produce identical snapshots.
    """
    snapshots: dict[_dt.date, MultidimensionalObject] = {}
    current = mo
    previous: _dt.date | None = None
    for now in times:
        if previous is not None and now < previous:
            raise ValueError("timeline times must be ascending")
        source = current if cumulative else mo
        current = reduce_mo(source, specification, now)
        snapshots[now] = current
        previous = now
    return snapshots


class Warehouse:
    """A live warehouse: bulk loads + periodic specification-driven
    reduction, with storage accounting.

    This is the harness behind the storage-gain benchmarks (the paper's
    headline claim): load click facts day by day, advance the clock,
    reduce, and watch the fact count stay bounded while totals are
    preserved.
    """

    def __init__(
        self,
        mo: MultidimensionalObject,
        specification: ReductionSpecification,
    ) -> None:
        self._mo = mo
        self._specification = specification
        self._clock: _dt.date | None = None
        self.history: list[dict[str, object]] = []

    @property
    def mo(self) -> MultidimensionalObject:
        return self._mo

    @property
    def specification(self) -> ReductionSpecification:
        return self._specification

    @property
    def clock(self) -> _dt.date | None:
        return self._clock

    def load(
        self,
        facts: Iterable[tuple[str, Mapping[str, str], Mapping[str, object]]],
    ) -> int:
        """Bulk-load user facts (bottom granularity); returns the count."""
        count = 0
        for fact_id, coordinates, measures in facts:
            self._mo.insert_fact(fact_id, coordinates, measures)
            count += 1
        return count

    def advance_to(self, now: _dt.date) -> MultidimensionalObject:
        """Move the clock to *now* and apply the reduction."""
        if self._clock is not None and now < self._clock:
            raise ValueError(
                f"warehouse clock cannot move backwards ({self._clock} -> {now})"
            )
        self._clock = now
        before = self._mo.n_facts
        self._mo = reduce_mo(self._mo, self._specification, now)
        self.history.append(
            {
                "time": now,
                "facts_before": before,
                "facts_after": self._mo.n_facts,
            }
        )
        return self._mo

    def update_specification(
        self, specification: ReductionSpecification
    ) -> None:
        """Swap in an updated specification (e.g. after insert/delete)."""
        self._specification = specification

    def fact_count(self) -> int:
        return self._mo.n_facts

    def granularity_histogram(self) -> dict[tuple[str, ...], int]:
        return self._mo.granularity_histogram()
