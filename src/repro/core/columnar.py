"""Columnar, interned fact storage with batch kernels.

The dict-of-dicts :class:`~repro.core.mo.MultidimensionalObject` is the
faithful model structure; this module is its performance twin: facts as
parallel columns, one integer-coded coordinate column per dimension (the
codes index a per-dimension value interner) plus one value list per
measure.  The layout enables the batch kernels the reduction and subcube
engines need:

* :meth:`ColumnarFactTable.distinct_cells` — deduplicate coordinate rows
  into distinct direct cells by interning code tuples in a dict;
* :meth:`ColumnarFactTable.conjunct_mask` — batch predicate admission:
  evaluate a per-dimension value predicate once per *distinct value* and
  broadcast the verdicts over all distinct cells by code;
* :meth:`ColumnarFactTable.rollup_column` — batch roll-up: the ancestor
  of every distinct value at a target category, computed once per code;
* :meth:`ColumnarFactTable.aggregate_rows` — group-by-cell measure
  aggregation folding values in row order (bit-for-bit identical to
  ``Measure.aggregate_over`` on the same member order).

Conversion is zero-copy in the sense that matters: measure values and
:class:`~repro.core.facts.Provenance` objects are shared with the source
MO, never rebuilt, so a round-trip costs only the column bookkeeping.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import FactError
from .dimension import Dimension
from .facts import Provenance
from .schema import FactSchema


class ColumnarFactTable:
    """An interned, column-oriented view of an MO's fact set.

    Rows preserve the source MO's fact-iteration (= insertion) order, so
    every fold over a row subset reproduces the member order the row-wise
    engines use — that is what keeps the columnar reducer bit-for-bit
    equal to ``reduce_mo``.
    """

    def __init__(
        self,
        schema: FactSchema,
        dimensions: Mapping[str, Dimension],
    ) -> None:
        self.schema = schema
        self.dimensions = dict(dimensions)
        names = self.dimension_names = schema.dimension_names
        self.measure_names = schema.measure_names
        self.fact_ids: list[str] = []
        self.provenances: list[Provenance] = []
        #: Per-dimension integer code columns (one code per row).
        self.codes: dict[str, array] = {name: array("q") for name in names}
        #: Per-dimension interner: code -> value (append-only).
        self._values: dict[str, list[str]] = {name: [] for name in names}
        self._indexes: dict[str, dict[str, int]] = {name: {} for name in names}
        #: Per-measure value columns (objects shared with the source MO).
        self.measure_columns: dict[str, list[object]] = {
            name: [] for name in schema.measure_names
        }
        self._aggregates = {
            mt.name: mt.aggregate for mt in schema.measure_types
        }
        #: Lazily filled (dimension, category) -> per-code ancestor values.
        self._rollups: dict[tuple[str, str], list[str | None]] = {}

    # ------------------------------------------------------------------
    # Construction and export
    # ------------------------------------------------------------------

    @classmethod
    def from_mo(cls, mo) -> "ColumnarFactTable":
        """Column-encode every fact of *mo* in iteration order."""
        table = cls(mo.schema, mo.dimensions)
        table.append_facts(mo, list(mo._facts))
        return table

    def append_facts(self, mo, fact_ids: Sequence[str]) -> int:
        """Column-encode the given facts of *mo*, in the given order.

        *mo* shares this table's schema and dimensions; measure values
        and provenance objects are shared, not copied.  Returns the
        number of rows appended.
        """
        # Same-package fast path: read the relation/measure dicts directly
        # instead of paying a method call per (fact, column) pair.
        for name in self.dimension_names:
            value_of = mo.relations[name]._value_of
            self.extend_codes(name, [value_of[fact_id] for fact_id in fact_ids])
        for name in self.measure_names:
            values = mo.measures[name]._values
            self.measure_columns[name].extend(
                [values[fact_id] for fact_id in fact_ids]
            )
        provenances = mo._facts
        self.fact_ids.extend(fact_ids)
        self.provenances.extend([provenances[fact_id] for fact_id in fact_ids])
        return len(fact_ids)

    def extend_codes(self, dimension_name: str, values: Iterable[str]) -> int:
        """Append one interned code per value to a dimension's code column.

        The interning loop behind :meth:`append_facts` and
        :meth:`append_rows`: values are canonical dimension values
        (callers validate), codes are assigned first-seen order.  Cached
        roll-up columns for the dimension are extended in place for any
        values the interner has not seen before, so a warm cache survives
        appends.
        """
        column = self.codes[dimension_name]
        interner = self._values[dimension_name]
        index = self._indexes[dimension_name]
        append = column.append
        first_new = len(interner)
        appended = 0
        for value in values:
            code = index.get(value)
            if code is None:
                code = len(interner)
                index[value] = code
                interner.append(value)
            append(code)
            appended += 1
        if len(interner) > first_new and self._rollups:
            fresh = interner[first_new:]
            dimension = self.dimensions[dimension_name]
            for (name, category), cached in self._rollups.items():
                if name == dimension_name:
                    cached.extend(
                        dimension.try_ancestor_at(value, category)
                        for value in fresh
                    )
        return appended

    def append_rows(
        self,
        fact_ids: Sequence[str],
        coordinates: Mapping[str, Sequence[str]],
        measures: Mapping[str, Sequence[object]],
        provenances: Sequence[Provenance] | None = None,
    ) -> int:
        """Append a column batch of facts in insertion order.

        *coordinates* and *measures* are column-oriented — one value
        sequence per dimension/measure, every sequence exactly
        ``len(fact_ids)`` long.  Coordinate values must already be
        canonical (the batch buffer validates before flushing); no
        per-fact Python objects are created beyond default provenances.
        Returns the number of rows appended.
        """
        n = len(fact_ids)
        for name in self.schema.dimension_names:
            column = coordinates.get(name)
            if column is None:
                raise FactError(
                    f"append_rows lacks a coordinate column for {name!r}"
                )
            if len(column) != n:
                raise FactError(
                    f"coordinate column {name!r} has {len(column)} values "
                    f"for {n} facts"
                )
        for name in self.schema.measure_names:
            column = measures.get(name)
            if column is None:
                raise FactError(
                    f"append_rows lacks a measure column for {name!r}"
                )
            if len(column) != n:
                raise FactError(
                    f"measure column {name!r} has {len(column)} values "
                    f"for {n} facts"
                )
        if provenances is None:
            provenances = [Provenance.of(fact_id) for fact_id in fact_ids]
        elif len(provenances) != n:
            raise FactError(
                f"append_rows got {len(provenances)} provenances for {n} facts"
            )
        self.fact_ids.extend(fact_ids)
        self.provenances.extend(provenances)
        for name in self.schema.dimension_names:
            self.extend_codes(name, coordinates[name])
        for name in self.schema.measure_names:
            self.measure_columns[name].extend(measures[name])
        return n

    def to_mo(self, template=None):
        """Rebuild a row-wise MO (``template.empty_like()`` shaped, or a
        fresh MO over this table's schema and dimensions)."""
        from .mo import MultidimensionalObject

        if template is not None:
            out = template.empty_like()
        else:
            out = MultidimensionalObject(self.schema, self.dimensions)
        names = self.schema.dimension_names
        measure_names = self.schema.measure_names
        for row in range(len(self.fact_ids)):
            out.insert_aggregate_fact(
                self.fact_ids[row],
                {
                    name: self._values[name][self.codes[name][row]]
                    for name in names
                },
                {
                    name: self.measure_columns[name][row]
                    for name in measure_names
                },
                self.provenances[row],
            )
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.fact_ids)

    def __len__(self) -> int:
        return len(self.fact_ids)

    def values_of(self, dimension_name: str) -> Sequence[str]:
        """The interner of *dimension_name*: distinct values by code."""
        return self._values[dimension_name]

    def decode(self, dimension_name: str, code: int) -> str:
        return self._values[dimension_name][code]

    def row_cell(self, row: int) -> tuple[str, ...]:
        """The direct cell (value tuple) of one row."""
        return tuple(
            [
                self._values[name][self.codes[name][row]]
                for name in self.dimension_names
            ]
        )

    def row_measures(self, row: int) -> dict[str, object]:
        return {
            name: self.measure_columns[name][row]
            for name in self.measure_names
        }

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------

    def distinct_cells(
        self,
    ) -> tuple[list[int], list[tuple[int, ...]]]:
        """Deduplicate coordinate rows into distinct code tuples.

        Returns ``(inverse, distinct)``: ``inverse[row]`` indexes into
        ``distinct``, a list of per-dimension code tuples in first-encounter
        (row) order.  Callers rely only on the row -> cell mapping.
        """
        names = self.schema.dimension_names
        if not names:
            return [0] * self.n_rows, [()] if self.n_rows else []
        seen: dict[tuple[int, ...], int] = {}
        inverse: list[int] = []
        distinct: list[tuple[int, ...]] = []
        for key in zip(*(self.codes[name] for name in names)):
            cell_index = seen.get(key)
            if cell_index is None:
                cell_index = len(distinct)
                seen[key] = cell_index
                distinct.append(key)
            inverse.append(cell_index)
        return inverse, distinct

    def conjunct_mask(
        self,
        distinct: Sequence[tuple[int, ...]],
        dimension_predicates: Mapping[str, Callable[[str], bool]],
    ) -> list[bool]:
        """Batch admission of one conjunct over all distinct cells.

        Each predicate is evaluated once per *distinct value* of its
        dimension (the vectorized per-value verdict cache); verdicts are
        then broadcast over the distinct cells by code.  An empty mapping
        admits everything (an empty conjunct is TRUE).
        """
        if not dimension_predicates:
            return [True] * len(distinct)
        names = self.schema.dimension_names
        mask = [True] * len(distinct)
        for name, predicate in dimension_predicates.items():
            bits = [predicate(value) for value in self._values[name]]
            di = names.index(name)
            mask = [
                admitted and bits[cell[di]]
                for admitted, cell in zip(mask, distinct)
            ]
        return mask

    def rollup_column(
        self, dimension_name: str, category: str
    ) -> list[str | None]:
        """Batch roll-up: ancestor at *category* for every distinct value.

        Indexed by code; ``None`` where the value cannot be characterized
        at *category* (too coarse, or on a parallel branch).  Cached per
        (dimension, category).
        """
        key = (dimension_name, category)
        column = self._rollups.get(key)
        if column is None:
            dimension = self.dimensions[dimension_name]
            column = [
                dimension.try_ancestor_at(value, category)
                for value in self._values[dimension_name]
            ]
            self._rollups[key] = column
        return column

    def category_column(self, dimension_name: str) -> list[str]:
        """The category of every distinct value of *dimension_name*."""
        dimension = self.dimensions[dimension_name]
        return [
            dimension.category_of(value)
            for value in self._values[dimension_name]
        ]

    def aggregate_of(self, measure_name: str):
        """The default :class:`AggregateFunction` of one measure."""
        try:
            return self._aggregates[measure_name]
        except KeyError:
            raise FactError(f"unknown measure {measure_name!r}") from None

    def aggregate_rows(self, measure_name: str, rows: Iterable[int]) -> object:
        """Fold a measure over *rows* with its default aggregate.

        Values fold in the given row order — the same member order the
        row-wise reducers use, so results match ``aggregate_over`` exactly
        (including order-sensitive float folds).
        """
        aggregate = self.aggregate_of(measure_name)
        column = self.measure_columns[measure_name]
        return aggregate(column[row] for row in rows)
