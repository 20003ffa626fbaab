"""The reduction operator: ``O'(t)`` from ``O`` and ``V`` (Definition 2).

Facts sharing the same ``Cell(f, t)`` merge into one fact mapped directly
to that cell's values; each measure of the merged fact is the default
aggregate over the members' values.  Facts whose cell equals their current
direct cell are carried over unchanged (identity, provenance, and id),
matching the figures in the paper where untouched facts keep their names.
"""

from __future__ import annotations

import datetime as _dt
import time
from typing import Iterable

from ..core.facts import Provenance, aggregate_fact_id
from ..core.mo import MultidimensionalObject
from ..errors import ReproError
from ..obs import trace
from ..spec.action import Action
from ..spec.specification import ReductionSpecification
from . import telemetry
from .auxiliary import cell as cell_of

#: The selectable reducer backends: the columnar kernel (the default, at
#: every size) and the interpretive Definition 2 oracle it is checked
#: against.
BACKENDS = ("columnar", "interpretive")


def reduce_mo(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    now: _dt.date,
    backend: str = "columnar",
) -> MultidimensionalObject:
    """The reduced MO ``O'(t)`` per Definition 2 (a new object; ``mo`` is
    untouched).

    ``backend`` selects the evaluation strategy — both produce bit-for-bit
    identical results (property-tested):

    * ``"columnar"`` (default) — batch kernels over the interned column
      layout (:func:`repro.reduction.columnar.reduce_mo_columnar`);
    * ``"interpretive"`` — the per-fact AST-walking reference below, the
      oracle the tests and the benchmark's correctness gate compare
      against.
    """
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown reducer backend {backend!r}; expected one of {BACKENDS}"
        )
    start = time.perf_counter()
    with trace.span("reduce.run", backend=backend) as active:
        if backend == "columnar":
            from .columnar import reduce_mo_columnar

            reduced = reduce_mo_columnar(mo, specification, now)
        else:
            reduced = _reduce_interpretive(mo, specification, now)
        active.set_attribute("facts_in", mo.n_facts)
        active.set_attribute("facts_out", reduced.n_facts)
    telemetry.record_run(
        backend, mo.n_facts, reduced.n_facts, time.perf_counter() - start
    )
    return reduced


def _reduce_interpretive(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    now: _dt.date,
) -> MultidimensionalObject:
    """The per-fact AST-walking reference reducer."""
    actions = (
        list(specification.actions)
        if isinstance(specification, ReductionSpecification)
        else list(specification)
    )
    groups, admitted_counts = _interpretive_groups(mo, actions, now)
    reduced = materialize_groups(mo, groups)
    telemetry.record_admitted(actions, admitted_counts)
    return reduced


def _interpretive_groups(
    mo: MultidimensionalObject,
    actions: list[Action],
    now: _dt.date,
) -> tuple[dict[tuple[str, ...], list[str]], list[int]]:
    """Definition 2's grouping plus per-action admitted counts."""
    admitted_counts = [0] * len(actions)
    groups: dict[tuple[str, ...], list[str]] = {}
    for fact_id in mo.facts():
        admitted: list[int] = []
        target_cell = cell_of(mo, actions, fact_id, now, admitted)
        for index in admitted:
            admitted_counts[index] += 1
        groups.setdefault(target_cell, []).append(fact_id)
    return groups, admitted_counts


def materialize_groups(
    mo: MultidimensionalObject,
    groups: dict[tuple[str, ...], list[str]],
) -> MultidimensionalObject:
    """Build ``O'`` from a grouping (the second half of Definition 2).

    Group insertion order determines fact-iteration order of the result,
    and member order determines aggregation order, so callers (including
    the shard-parallel merge) must hand both in serial fact order to get
    the reference result bit-for-bit.
    """
    schema = mo.schema
    reduced = mo.empty_like()
    for target_cell, members in groups.items():
        coordinates = dict(zip(schema.dimension_names, target_cell))
        if len(members) == 1 and mo.direct_cell(members[0]) == target_cell:
            original = members[0]
            reduced.insert_aggregate_fact(
                original,
                coordinates,
                {
                    name: mo.measure_value(original, name)
                    for name in schema.measure_names
                },
                mo.provenance(original),
            )
            continue
        provenance = Provenance()
        for member in members:
            provenance = provenance.merge(mo.provenance(member))
        measures = {
            name: mo.measures[name].aggregate_over(members)
            for name in schema.measure_names
        }
        fact_id = aggregate_fact_id(target_cell)
        reduced.insert_aggregate_fact(fact_id, coordinates, measures, provenance)
    return reduced


def reduction_groups(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    now: _dt.date,
) -> dict[tuple[str, ...], list[str]]:
    """The grouping Definition 2 induces, without materializing ``O'``.

    Useful for storage forecasting ("how many facts would remain?") and
    for tests that inspect which original facts merge.
    """
    actions = (
        list(specification.actions)
        if isinstance(specification, ReductionSpecification)
        else list(specification)
    )
    return _interpretive_groups(mo, actions, now)[0]


def responsible_action(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    fact_id: str,
    now: _dt.date,
) -> Action | None:
    """The action responsible for the fact's current aggregation level.

    Section 4 requires being able to tell users *why* data is aggregated
    the way it is: the responsible action is one whose predicate the fact
    satisfies and whose target granularity equals the maximum specified
    granularity.  ``None`` when the fact is simply at its own granularity
    (no action fired).
    """
    from ..spec.predicate import satisfies

    actions = (
        list(specification.actions)
        if isinstance(specification, ReductionSpecification)
        else list(specification)
    )
    gran = mo.gran(fact_id)
    candidates = [
        action
        for action in actions
        if action.cat() == gran and satisfies(mo, fact_id, action.predicate, now)
    ]
    return candidates[0] if candidates else None
