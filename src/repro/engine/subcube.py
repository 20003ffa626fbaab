"""A physical subcube: one disjoint action's worth of facts.

Each subcube is itself a small MO over the warehouse's dimensions, with a
fixed target granularity and the disjoint predicate that describes (at any
evaluation time) exactly which cells it owns.
"""

from __future__ import annotations

import json
import zlib
from itertools import repeat
from typing import Iterator, Mapping, NamedTuple, Sequence

from ..core.facts import Provenance, aggregate_fact_id
from ..core.mo import MultidimensionalObject
from ..errors import EngineError
from .disjoint import DisjointAction

#: The one encoder every fact fragment goes through: the settings of
#: :func:`repro.io.canonical_json`, built once instead of per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Where one encoded fact ends and the next begins in an encoded fact
#: list.  Sorted keys put ``coordinates`` first in every fact, and the
#: unescaped ``"`` cannot occur inside a JSON string.
_FACT_START = '{"coordinates":'
_BOUNDARY = "," + _FACT_START


def _encode_facts(
    mo: MultidimensionalObject, fact_ids: list[str]
) -> list[str]:
    """Each fact's entry of :func:`repro.io.mo_facts_to_list`, encoded
    canonically on its own (the list's encoding is these joined).

    The list is encoded in one call and split at the fact boundaries."""
    if not fact_ids:
        return []
    schema = mo.schema
    dimensions = schema.dimension_names
    measures = schema.measure_names
    cells = zip(
        *[mo.relations[name].values_of(fact_ids) for name in dimensions]
    )
    values = (
        zip(*[mo.measures[name].values_of(fact_ids) for name in measures])
        if measures
        else repeat(())
    )
    text = _ENCODER.encode(
        [
            {
                "id": fact_id,
                "coordinates": dict(zip(dimensions, cell)),
                "measures": dict(zip(measures, row)),
                "members": sorted(provenance.members),
            }
            for fact_id, provenance, cell, row in zip(
                fact_ids, map(mo.provenance, fact_ids), cells, values
            )
        ]
    )
    first, *rest = text[1:-1].split(_BOUNDARY)
    return [first, *[_FACT_START + fragment for fragment in rest]]


class FactBlock(NamedTuple):
    """A subcube's facts frozen at one mutation count.

    What the durable snapshot writes (``text``), what the version
    fingerprint hashes (``crc``) and what a published version reads
    (``mo``) are derived together, once per change, by
    :meth:`SubCube.frozen_block`.
    """

    #: An immutable copy of the cube's MO (never handed to a writer).
    mo: MultidimensionalObject
    #: Canonical compact JSON of the facts, sorted by id: byte for byte
    #: ``canonical_json(mo_facts_to_list(mo))``.
    text: str
    #: CRC-32 of ``text``.
    crc: int
    #: Each fact's canonical JSON by fact id; ``text`` is their join in
    #: sorted id order.  Never changed after the block is built.
    fragments: dict[str, str]
    #: How many fragments deriving this block encoded (the rest were
    #: reused from the previous block).
    encoded: int

    @classmethod
    def of(cls, mo: MultidimensionalObject) -> "FactBlock":
        """Derive the block from *mo*'s content (no memo involved)."""
        frozen = mo.copy()
        fact_ids = list(frozen.facts())
        fragments = dict(zip(fact_ids, _encode_facts(frozen, fact_ids)))
        return cls._assemble(frozen, fragments, len(fragments))

    def advanced(
        self, mo: MultidimensionalObject, changed: set[str]
    ) -> "FactBlock":
        """The block of *mo*, whose facts differ from this block's at most
        at the *changed* ids: those are re-encoded, every other fragment
        is reused."""
        frozen = mo.copy()
        fragments = dict(self.fragments)
        for fact_id in changed:
            fragments.pop(fact_id, None)
        present = [fact_id for fact_id in changed if fact_id in frozen]
        fragments.update(zip(present, _encode_facts(frozen, present)))
        return self._assemble(frozen, fragments, len(present))

    @classmethod
    def _assemble(
        cls,
        frozen: MultidimensionalObject,
        fragments: dict[str, str],
        encoded: int,
    ) -> "FactBlock":
        joined = ",".join(map(fragments.__getitem__, sorted(fragments)))
        text = f"[{joined}]"
        return cls(
            frozen, text, zlib.crc32(text.encode("utf-8")), fragments, encoded
        )


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
        #: From the cube's first block on, its MO's ``_changed`` names
        #: the facts written since.
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
        self._block = None

    @property
    def block_stale(self) -> bool:
        """Whether the next :meth:`frozen_block` derives a new block."""
        memo = self._block
        return memo is None or memo[0] != self._mo.mutations

    def frozen_block(self) -> FactBlock:
        """The cube's :class:`FactBlock`, re-derived only after a mutation
        and then re-encoding only the facts written since the last one."""
        mo = self._mo
        memo = self._block
        if memo is None or memo[0] != mo.mutations:
            changed = mo._changed
            if changed is None:
                block = FactBlock.of(mo)
                if memo is None:
                    # The cube's own MO (created by __init__ or clear):
                    # record the facts written from this block on.
                    mo._changed = set()
            else:
                block = memo[1].advanced(mo, changed)
                changed.clear()
            memo = self._block = (mo.mutations, block)
        return memo[1]

    def share_frozen(self, live: "SubCube") -> None:
        """Hold *live*'s frozen MO (and its block) instead of a copy.

        The frozen MO records no changed facts, and holding a block
        means this cube never starts it recording, so were it ever
        written (a torn version) the cube would re-derive its block
        from content, never from fragments another version shares.
        """
        block = live.frozen_block()
        self._mo = block.mo
        self._block = (block.mo.mutations, block)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        granularity = "/".join(self.granularity)
        return f"SubCube({self.name}, gran={granularity}, facts={self.n_facts})"
