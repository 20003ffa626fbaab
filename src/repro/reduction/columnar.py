"""Columnar reduction: the batch kernel behind ``reduce_mo``.

Where the interpretive reducer (the Definition 2 oracle) walks every
action predicate per fact, this kernel — the one production reducer —
restructures the whole pass around the columnar fact table
(:mod:`repro.core.columnar`):

1. encode facts once into interned code columns;
2. deduplicate coordinate rows into distinct direct cells (one ``unique``
   kernel instead of a per-fact dict probe);
3. admit each action over *distinct cells* via per-distinct-value verdict
   vectors broadcast by code (``conjunct_mask``);
4. pick the ``<=_V``-maximal satisfied granularity per distinct cell and
   roll codes up through cached per-(dimension, category) ancestor
   columns;
5. group rows by target cell and fold measures in row order.

The output is bit-for-bit identical to ``reduce_mo`` (property-tested):
same facts, same ids, same provenance, same measure fold order, same
crossing-specification error.  Stages 1-3 (:func:`admit_cells`) also
place the subcube store's facts when it synchronizes.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Iterable, Mapping

from ..core.columnar import ColumnarFactTable
from ..core.facts import Provenance, aggregate_fact_id
from ..core.mo import MultidimensionalObject
from ..errors import SpecSemanticsError
from ..obs import trace
from ..query.compare import atom_compare
from ..spec.action import Action, resolve_terms
from ..spec.specification import ReductionSpecification
from . import telemetry


def reduce_mo_columnar(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    now: _dt.date,
) -> MultidimensionalObject:
    """Drop-in replacement for ``reduce_mo`` over the columnar kernel."""
    actions = (
        list(specification.actions)
        if isinstance(specification, ReductionSpecification)
        else list(specification)
    )
    schema = mo.schema
    names = schema.dimension_names
    table, inverse, targets, admitted_counts = _columnar_plan(mo, actions, now)

    with trace.span("reduce.columnar.fold") as fold_span:
        # Group rows by target cell, preserving first-encounter order (the
        # same group order the interpretive reducer produces).
        groups: dict[tuple[str, ...], list[int]] = {}
        for row, cell_index in enumerate(inverse):
            groups.setdefault(targets[cell_index], []).append(row)

        reduced = mo.empty_like()
        measure_names = schema.measure_names
        fact_ids = table.fact_ids
        provenances = table.provenances
        value_columns = [table.values_of(name) for name in names]
        code_columns = [table.codes[name] for name in names]
        measure_columns = [
            table.measure_columns[name] for name in measure_names
        ]
        aggregates = [table.aggregate_of(name) for name in measure_names]
        insert = reduced.insert_aggregate_fact
        for target_cell, rows in groups.items():
            coordinates = dict(zip(names, target_cell))
            if len(rows) == 1:
                row = rows[0]
                direct = tuple(
                    [vc[cc[row]] for vc, cc in zip(value_columns, code_columns)]
                )
                if direct == target_cell:
                    insert(
                        fact_ids[row],
                        coordinates,
                        {
                            name: column[row]
                            for name, column in zip(
                                measure_names, measure_columns
                            )
                        },
                        provenances[row],
                    )
                    continue
            # Provenance merging is a set union, hence order-insensitive:
            # one batched union replaces the chain of pairwise merges
            # without changing the result.
            provenance = Provenance(
                frozenset().union(*[provenances[row].members for row in rows])
            )
            measures = {
                name: aggregate([column[row] for row in rows])
                for name, column, aggregate in zip(
                    measure_names, measure_columns, aggregates
                )
            }
            insert(
                aggregate_fact_id(target_cell),
                coordinates,
                measures,
                provenance,
            )
        fold_span.set_attribute("groups", len(groups))
    telemetry.record_admitted(actions, admitted_counts)
    return reduced


def reduction_groups_columnar(
    mo: MultidimensionalObject,
    specification: ReductionSpecification | Iterable[Action],
    now: _dt.date,
) -> tuple[dict[tuple[str, ...], list[str]], list[int]]:
    """Grouping plus per-action admitted counts via the columnar plan.

    Groups are keyed by target cell in first-encounter (row) order with
    members in row order — exactly the grouping the interpretive reducer
    produces, so a parent process can materialize the merged result with
    :func:`repro.reduction.reducer.materialize_groups`.
    """
    actions = (
        list(specification.actions)
        if isinstance(specification, ReductionSpecification)
        else list(specification)
    )
    table, inverse, targets, admitted_counts = _columnar_plan(mo, actions, now)
    fact_ids = table.fact_ids
    groups: dict[tuple[str, ...], list[str]] = {}
    for row, cell_index in enumerate(inverse):
        groups.setdefault(targets[cell_index], []).append(fact_ids[row])
    return groups, admitted_counts


def _columnar_plan(
    mo: MultidimensionalObject,
    actions: list[Action],
    now: _dt.date,
):
    """Phases 1-4: encode, admit, count, and plan target cells.

    Returns ``(table, inverse, targets, admitted_counts)`` where
    ``targets[inverse[row]]`` is row's target cell.
    """
    schema = mo.schema
    names = schema.dimension_names
    with trace.span("reduce.columnar.encode") as encode_span:
        table = mo.to_columnar()
        inverse, distinct = table.distinct_cells()
        n_cells = len(distinct)
        encode_span.set_attribute("rows", len(inverse))
        encode_span.set_attribute("distinct_cells", n_cells)

    with trace.span("reduce.columnar.admit", actions=len(actions)):
        admitted = admit_cells(table, distinct, actions, now)

    # Per-action admission telemetry: each distinct cell's verdict counts
    # once per row mapping to it, so the totals equal the per-fact counts
    # the interpretive reducer reports.
    weights = [0] * n_cells
    for cell_index in inverse:
        weights[cell_index] += 1
    admitted_counts = [
        sum(weight for weight, bit in zip(weights, verdict) if bit)
        for verdict in admitted
    ]

    # Target granularity per distinct cell: the <=_V-maximal granularity
    # among admitted actions, seeded with the cell's own granularity.
    # The decision depends only on (base granularity, admitted-action
    # bits), both of which range over a handful of combinations, so the
    # <=_V scans are memoized per combination, not per cell.
    with trace.span("reduce.columnar.plan") as plan_span:
        category_columns = [table.category_column(name) for name in names]
        if admitted:
            admitted_by_cell = list(zip(*admitted))
        else:
            admitted_by_cell = [()] * n_cells
        decisions: dict[tuple, tuple[str, ...]] = {}
        targets: list[tuple[str, ...]] = []
        rollups: dict[tuple[str, ...], list[list[str | None]]] = {}
        for cell_index, cell in enumerate(distinct):
            base = tuple(
                [column[code] for column, code in zip(category_columns, cell)]
            )
            bits = admitted_by_cell[cell_index]
            best = decisions.get((base, bits))
            if best is None:
                best = base
                for action, bit in zip(actions, bits):
                    if not bit:
                        continue
                    granularity = action.cat()
                    if schema.le_granularity(best, granularity):
                        best = granularity
                    elif not schema.le_granularity(granularity, best):
                        values = dict(
                            zip(
                                names,
                                (
                                    table.decode(n, c)
                                    for n, c in zip(names, cell)
                                ),
                            )
                        )
                        raise SpecSemanticsError(
                            f"cell {values!r}: incomparable target "
                            f"granularities {best!r} and "
                            f"{granularity!r}; the specification "
                            "is crossing"
                        )
                decisions[(base, bits)] = best
            columns = rollups.get(best)
            if columns is None:
                columns = [
                    table.rollup_column(name, category)
                    for name, category in zip(names, best)
                ]
                rollups[best] = columns
            values_out = []
            for name, column, code in zip(names, columns, cell):
                ancestor = column[code]
                if ancestor is None:
                    cell_values = dict(
                        zip(
                            names,
                            (table.decode(n, c) for n, c in zip(names, cell)),
                        )
                    )
                    raise SpecSemanticsError(
                        f"cell {cell_values!r} cannot be characterized at "
                        f"{name}.{dict(zip(names, best))[name]}"
                    )
                values_out.append(ancestor)
            targets.append(tuple(values_out))
        plan_span.set_attribute("decisions", len(decisions))
    return table, inverse, targets, admitted_counts


def admit_cells(
    table: ColumnarFactTable,
    distinct: list[tuple[int, ...]],
    actions: list[Action],
    now: _dt.date,
) -> list[list[bool]]:
    """Batch admission: one verdict vector per action over *distinct*.

    ``admit_cells(...)[a][c]`` says whether distinct cell ``c`` (a code
    tuple of *table*) satisfies action ``a``'s predicate at *now*.  The
    subcube store places its facts with this same stage.
    """
    admitted: list[list[bool]] = []
    for action in actions:
        conjuncts = _conjunct_predicates(action, table.dimensions, now)
        if not conjuncts:
            admitted.append([False] * len(distinct))
            continue
        verdict = table.conjunct_mask(distinct, conjuncts[0])
        for predicates in conjuncts[1:]:
            mask = table.conjunct_mask(distinct, predicates)
            verdict = [a or b for a, b in zip(verdict, mask)]
        admitted.append(verdict)
    return admitted


def _conjunct_predicates(
    action: Action,
    dimensions: Mapping[str, object],
    now: _dt.date,
) -> list[dict[str, Callable[[str], bool]]]:
    """Per DNF conjunct of *action*: one per-value admission predicate per
    dimension it constrains, with every ``NOW`` term resolved at *now*.

    :meth:`repro.core.columnar.ColumnarFactTable.conjunct_mask` calls
    each predicate once per distinct value of its dimension and
    broadcasts the verdicts by code.
    """
    out: list[dict[str, Callable[[str], bool]]] = []
    for atoms in action.conjuncts():
        per_dimension: dict[str, list] = {}
        for atom in atoms:
            rights = resolve_terms(atom, now)
            right = rights if atom.op == "in" else rights[0]
            per_dimension.setdefault(atom.ref.dimension, []).append(
                (atom, right)
            )
        predicates: dict[str, Callable[[str], bool]] = {}
        for name, dim_atoms in per_dimension.items():

            def admit(
                value: str,
                dimension=dimensions[name],
                dim_atoms=dim_atoms,
            ) -> bool:
                return all(
                    atom_compare(
                        dimension, value, atom.ref.category, atom.op, right
                    )
                    for atom, right in dim_atoms
                )

            predicates[name] = admit
        out.append(predicates)
    return out
