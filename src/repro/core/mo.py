"""The multidimensional object (MO) — the paper's central data structure.

``O = (S, F, D, R, M)``: a fact schema, a set of facts, one dimension per
dimension type, one fact-dimension relation per dimension, and a set of
measures (Section 3).  The MO supports both user-level insertion (facts at
bottom granularity) and the internal any-granularity insertion exploited by
the reduction engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import FactError, QueryError, SchemaError
from .dimension import ALL_VALUE, Dimension
from .facts import FactDimensionRelation, Provenance
from .measures import Measure
from .rowcheck import RowValidator
from .schema import FactSchema


class MultidimensionalObject:
    """An instance ``O = (S, F, D, R, M)`` of a fact schema."""

    #: Set (per instance) by the mutation sanitizer when this MO belongs
    #: to a published snapshot; mutators then raise instead of writing.
    _sealed = False

    #: Lazily attached per instance on first insert: the shared
    #: memoizing row validator (one code path with bulk ingest).
    _validator: RowValidator | None = None

    def __init__(
        self,
        schema: FactSchema,
        dimensions: Mapping[str, Dimension],
    ) -> None:
        missing = set(schema.dimension_names) - set(dimensions)
        if missing:
            raise SchemaError(f"MO is missing dimensions {sorted(missing)!r}")
        for name in schema.dimension_names:
            if dimensions[name].dimension_type.name != name:
                raise SchemaError(
                    f"dimension instance {dimensions[name].name!r} bound to "
                    f"schema dimension {name!r}"
                )
        self.schema = schema
        self.dimensions: dict[str, Dimension] = {
            name: dimensions[name] for name in schema.dimension_names
        }
        self.relations: dict[str, FactDimensionRelation] = {
            name: FactDimensionRelation(name) for name in schema.dimension_names
        }
        self.measures: dict[str, Measure] = {
            mt.name: Measure(mt.name, mt.aggregate)
            for mt in schema.measure_types
        }
        self._facts: dict[str, Provenance] = {}
        #: Bumped by every fact mutation (``_insert``, ``delete_fact``,
        #: ``adopt_rows``; ``SubCube.clear`` carries it over to the
        #: replacement MO), so an unchanged count means an unchanged fact
        #: set.
        self.mutations = 0

    # ------------------------------------------------------------------
    # Facts
    # ------------------------------------------------------------------

    @property
    def fact_ids(self) -> frozenset[str]:
        return frozenset(self._facts)

    def facts(self) -> Iterator[str]:
        return iter(self._facts)

    @property
    def n_facts(self) -> int:
        return len(self._facts)

    def __contains__(self, fact_id: str) -> bool:
        return fact_id in self._facts

    def provenance(self, fact_id: str) -> Provenance:
        try:
            return self._facts[fact_id]
        except KeyError:
            raise FactError(f"unknown fact {fact_id!r}") from None

    def insert_fact(
        self,
        fact_id: str,
        coordinates: Mapping[str, str],
        measure_values: Mapping[str, object],
    ) -> str:
        """Insert a user fact: coordinates must be bottom-category values.

        Unknown coordinates are not defaulted — the model disallows missing
        values; callers wanting "unknown" must pass :data:`ALL_VALUE`
        explicitly, which the paper sanctions via the pair ``(f, T)``.
        """
        return self._insert(fact_id, coordinates, measure_values, bottom_only=True)

    def insert_aggregate_fact(
        self,
        fact_id: str,
        coordinates: Mapping[str, str],
        measure_values: Mapping[str, object],
        provenance: Provenance | None = None,
    ) -> str:
        """Insert a fact at any granularity (reduction-engine internal)."""
        return self._insert(
            fact_id, coordinates, measure_values, bottom_only=False,
            provenance=provenance,
        )

    def _insert(
        self,
        fact_id: str,
        coordinates: Mapping[str, str],
        measure_values: Mapping[str, object],
        bottom_only: bool,
        provenance: Provenance | None = None,
    ) -> str:
        if self._sealed:
            from ..sanitize import check_unsealed

            check_unsealed(self, f"insert of fact {fact_id!r}")
        if fact_id in self._facts:
            raise FactError(f"fact {fact_id!r} already exists")
        validator = self._validator
        if validator is None:
            validator = self._validator = RowValidator(
                self.schema, self.dimensions
            )
        canonical = validator.validate_row(
            fact_id, coordinates, measure_values, bottom_only=bottom_only
        )
        self.mutations += 1
        for name in self.schema.dimension_names:
            self.relations[name].link(fact_id, canonical[name])
        for name in self.schema.measure_names:
            self.measures[name].set(fact_id, measure_values[name])
        self._facts[fact_id] = provenance or Provenance.of(fact_id)
        return fact_id

    def delete_fact(self, fact_id: str) -> None:
        if self._sealed:
            from ..sanitize import check_unsealed

            check_unsealed(self, f"delete of fact {fact_id!r}")
        if fact_id not in self._facts:
            raise FactError(f"unknown fact {fact_id!r}")
        self.mutations += 1
        for relation in self.relations.values():
            relation.unlink(fact_id)
        for measure in self.measures.values():
            measure.discard(fact_id)
        del self._facts[fact_id]

    # ------------------------------------------------------------------
    # Characterization and granularity
    # ------------------------------------------------------------------

    def direct_value(self, fact_id: str, dimension_name: str) -> str:
        """The value *fact_id* maps to directly in *dimension_name*."""
        return self.relations[dimension_name].value_of(fact_id)

    def direct_cell(self, fact_id: str) -> tuple[str, ...]:
        """The fact's direct values, ordered like the schema's dimensions."""
        return tuple(
            self.relations[name].value_of(fact_id)
            for name in self.schema.dimension_names
        )

    def characterized_by(self, fact_id: str, dimension_name: str, value: str) -> bool:
        """The paper's ``f ~> v``: direct or ancestor characterization."""
        direct = self.direct_value(fact_id, dimension_name)
        return self.dimensions[dimension_name].le_value(direct, value)

    def characterizing_value(
        self, fact_id: str, dimension_name: str, category: str
    ) -> str | None:
        """The value of *category* characterizing the fact, or ``None``.

        ``None`` signals that the fact's data is too coarse (or on a
        parallel branch) to characterize it at *category* — the situation
        the query algebra's varying-granularity semantics must handle.
        """
        direct = self.direct_value(fact_id, dimension_name)
        return self.dimensions[dimension_name].try_ancestor_at(direct, category)

    def gran(self, fact_id: str) -> tuple[str, ...]:
        """The fact's current granularity (the paper's ``Gran``, Eq. 10)."""
        return tuple(
            self.dimensions[name].category_of(self.relations[name].value_of(fact_id))
            for name in self.schema.dimension_names
        )

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    def measure(self, name: str) -> Measure:
        try:
            return self.measures[name]
        except KeyError:
            raise QueryError(f"unknown measure {name!r}") from None

    def measure_value(self, fact_id: str, measure_name: str) -> object:
        return self.measure(measure_name)[fact_id]

    def total(self, measure_name: str) -> object | None:
        """Default-aggregate of a measure over all facts (None when empty)."""
        measure = self.measure(measure_name)
        if not self._facts:
            return None
        return measure.aggregate_over(self._facts)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def empty_like(self) -> "MultidimensionalObject":
        """A fresh MO with the same schema and dimensions, no facts."""
        return MultidimensionalObject(self.schema, self.dimensions)

    def to_columnar(self):
        """Export the fact set as a :class:`~repro.core.columnar.ColumnarFactTable`.

        The export is zero-copy for the payload: measure values and
        provenance objects are shared, only coordinate codes are built.
        Row order is this MO's fact-iteration order.
        """
        from .columnar import ColumnarFactTable

        return ColumnarFactTable.from_mo(self)

    @classmethod
    def from_columnar(cls, table) -> "MultidimensionalObject":
        """Import a columnar table back into a row-wise MO."""
        return table.to_mo()

    def copy(self) -> "MultidimensionalObject":
        clone = self.empty_like()
        for fact_id, provenance in self._facts.items():
            clone._facts[fact_id] = provenance
        for name, relation in self.relations.items():
            clone.relations[name] = relation.copy()
        for name, measure in self.measures.items():
            clone.measures[name] = measure.copy()
        return clone

    def restrict_to_facts(self, fact_ids: Iterable[str]) -> "MultidimensionalObject":
        """The MO restricted to *fact_ids* (selection's F', R', M', Eq. 36).

        Fact-iteration order of the result follows *fact_ids* (first
        occurrence wins, duplicates ignored): a restriction of a serial
        fact stream preserves that stream's order, which the shard-parallel
        reducer's bit-for-bit merge relies on.  Values are copied verbatim
        from this MO — they are already canonical, so the per-fact
        normalization of :meth:`insert_aggregate_fact` is skipped.
        """
        out = self.empty_like()
        facts = self._facts
        out_facts = out._facts
        relation_pairs = [
            (out.relations[name]._value_of, self.relations[name]._value_of)
            for name in self.schema.dimension_names
        ]
        measure_pairs = [
            (out.measures[name]._values, self.measures[name]._values)
            for name in self.schema.measure_names
        ]
        unknown: set[str] = set()
        for fact_id in fact_ids:
            if fact_id in out_facts:
                continue
            provenance = facts.get(fact_id)
            if provenance is None:
                unknown.add(fact_id)
                continue
            out_facts[fact_id] = provenance
            for dst, src in relation_pairs:
                dst[fact_id] = src[fact_id]
            for dst, src in measure_pairs:
                dst[fact_id] = src[fact_id]
        if unknown:
            raise FactError(f"unknown facts {sorted(unknown)!r}")
        return out

    def adopt_rows(
        self,
        rows: Iterable[
            tuple[str, Sequence[str], Sequence[object], Provenance]
        ],
    ) -> None:
        """Append ``(fact id, cell, measure values, provenance)`` rows
        derived from an MO that already validated them.

        Cells are ordered like the schema's dimensions, measure values
        like its measures, and every value is canonical in this MO's
        dimensions — the caller's contract, as in :meth:`restrict_to_facts`,
        because nothing here re-checks it (the query operators build
        their results through this; anything arriving from outside the
        program goes through :meth:`insert_fact` /
        :meth:`insert_aggregate_fact`).
        """
        if self._sealed:
            from ..sanitize import check_unsealed

            check_unsealed(self, "adoption of derived rows")
        facts = self._facts
        columns = [
            self.relations[name]._value_of
            for name in self.schema.dimension_names
        ]
        measure_columns = [
            self.measures[name]._values for name in self.schema.measure_names
        ]
        self.mutations += 1
        for fact_id, cell, measure_values, provenance in rows:
            if fact_id in facts:
                raise FactError(f"fact {fact_id!r} already exists")
            facts[fact_id] = provenance
            for column, value in zip(columns, cell):
                column[fact_id] = value
            for column, value in zip(measure_columns, measure_values):
                column[fact_id] = value

    def granularity_histogram(self) -> dict[tuple[str, ...], int]:
        """Fact count per current granularity — handy for storage reports."""
        histogram: dict[tuple[str, ...], int] = {}
        for fact_id in self._facts:
            g = self.gran(fact_id)
            histogram[g] = histogram.get(g, 0) + 1
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MO({self.schema.fact_type}, facts={self.n_facts}, "
            f"dims={list(self.schema.dimension_names)!r})"
        )


def unknown_coordinates(schema: FactSchema) -> dict[str, str]:
    """Coordinates mapping every dimension to ``T`` (all-unknown fact)."""
    return {name: ALL_VALUE for name in schema.dimension_names}
