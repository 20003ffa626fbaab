"""A physical subcube: one disjoint action's worth of facts.

Each subcube is itself a small MO over the warehouse's dimensions, with a
fixed target granularity and the disjoint predicate that describes (at any
evaluation time) exactly which cells it owns.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Mapping, NamedTuple, Sequence

from ..core.facts import Provenance, aggregate_fact_id
from ..core.mo import MultidimensionalObject
from ..errors import EngineError
from ..io import canonical_json, mo_facts_to_list
from .disjoint import DisjointAction


class FactBlock(NamedTuple):
    """A subcube's facts frozen at one mutation count.

    What the durable snapshot writes (``text``), what the version
    fingerprint hashes (``crc``) and what a published version reads
    (``mo``) are derived together, once per change, by
    :meth:`SubCube.frozen_block`.
    """

    #: An immutable copy of the cube's MO (never handed to a writer).
    mo: MultidimensionalObject
    #: Canonical compact JSON of the facts, sorted by id.
    text: str
    #: CRC-32 of ``text``.
    crc: int

    @classmethod
    def of(cls, mo: MultidimensionalObject) -> "FactBlock":
        """Derive the block from *mo*'s content (no memo involved)."""
        frozen = mo.copy()
        text = canonical_json(mo_facts_to_list(frozen))
        return cls(frozen, text, zlib.crc32(text.encode("utf-8")))


class SubCube:
    """One subcube ``K_i`` of the Section 7 architecture."""

    #: Set (per instance) by the mutation sanitizer when this cube
    #: belongs to a published snapshot (see :mod:`repro.sanitize`).
    _sealed = False

    def __init__(
        self,
        definition: DisjointAction,
        template: MultidimensionalObject,
    ) -> None:
        self.definition = definition
        self._mo = template.empty_like()
        #: ``(mutation count, block)`` of the last :meth:`frozen_block`.
        self._block: tuple[int, FactBlock] | None = None

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def granularity(self) -> tuple[str, ...]:
        return self.definition.granularity

    @property
    def mo(self) -> MultidimensionalObject:
        return self._mo

    @property
    def n_facts(self) -> int:
        return self._mo.n_facts

    def facts(self) -> Iterator[str]:
        return self._mo.facts()

    def _normalized_cell(
        self, coordinates: Mapping[str, str]
    ) -> tuple[str, ...]:
        """The canonical cell tuple, with typed errors for bad input."""
        mo = self._mo
        try:
            return tuple(
                mo.dimensions[name].normalize_value(coordinates[name])
                for name in mo.schema.dimension_names
            )
        except KeyError as exc:
            raise EngineError(
                f"{self.name}: cell lacks a coordinate for dimension "
                f"{exc.args[0]!r}"
            ) from None

    def cell_fact_id(self, coordinates: Mapping[str, str]) -> str:
        """The fact id the given cell is (or would be) stored under.

        Cube fact ids are cell-keyed, so callers can compute the id a
        pending insert will land on — the transactional store uses this
        to record before-images without mutating anything.
        """
        return aggregate_fact_id((self.name, *self._normalized_cell(coordinates)))

    def insert_at_granularity(
        self,
        coordinates: Mapping[str, str],
        measures: Mapping[str, object],
        provenance: Provenance,
    ) -> str:
        """Insert (or merge into) the fact owning the given cell.

        The cell must already be at the cube's granularity; a colliding
        cell aggregates the measures — the "one final aggregation" step of
        Section 7.2 when a cube has several parents.
        """
        return self.fold_at_granularity(coordinates, [measures], [provenance])

    def fold_at_granularity(
        self,
        coordinates: Mapping[str, str],
        rows: Sequence[Mapping[str, object]],
        provenances: Sequence[Provenance],
    ) -> str:
        """Fold measure *rows* (with their *provenances*) into the fact
        owning the given cell, deleting and inserting it once.

        The cell's existing fact folds first, then the rows in order,
        pairwise: the values a chain of single inserts produces, even
        for float sums, whatever the Python version's ``sum`` does.
        """
        mo = self._mo
        schema = mo.schema
        cell = self._normalized_cell(coordinates)
        for name, category, value in zip(
            schema.dimension_names, self.granularity, cell
        ):
            if mo.dimensions[name].category_of(value) != category:
                raise EngineError(
                    f"{self.name}: value {value!r} of {name!r} is not at the "
                    f"cube granularity {category!r}"
                )
        fact_id = aggregate_fact_id((self.name, *cell))
        if fact_id in mo:
            existing = {
                name: mo.measure_value(fact_id, name)
                for name in schema.measure_names
            }
            rows = [existing, *rows]
            provenances = [mo.provenance(fact_id), *provenances]
            mo.delete_fact(fact_id)
        if len(rows) == 1:
            folded = dict(rows[0])
            provenance = provenances[0]
        else:
            folded = {}
            for name in schema.measure_names:
                aggregate = mo.measures[name].aggregate
                value = rows[0][name]
                for row in rows[1:]:
                    value = aggregate([value, row[name]])
                folded[name] = value
            provenance = Provenance(
                frozenset().union(*[p.members for p in provenances])
            )
        mo.insert_aggregate_fact(
            fact_id, dict(zip(schema.dimension_names, cell)), folded, provenance
        )
        return fact_id

    def remove(self, fact_id: str) -> None:
        self._mo.delete_fact(fact_id)

    def clear(self) -> None:
        if self._sealed:
            from ..sanitize import check_unsealed

            check_unsealed(self, f"clear of cube {self.name!r}")
        mutations = self._mo.mutations
        self._mo = self._mo.empty_like()
        self._mo.mutations = mutations + 1

    def frozen_block(self) -> FactBlock:
        """The cube's :class:`FactBlock`, re-derived only after a mutation."""
        mutations = self._mo.mutations
        memo = self._block
        if memo is None or memo[0] != mutations:
            memo = self._block = (mutations, FactBlock.of(self._mo))
        return memo[1]

    def share_frozen(self, live: "SubCube") -> None:
        """Hold *live*'s frozen MO (and its block) instead of a copy."""
        block = live.frozen_block()
        self._mo = block.mo
        self._block = (block.mo.mutations, block)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        granularity = "/".join(self.granularity)
        return f"SubCube({self.name}, gran={granularity}, facts={self.n_facts})"
