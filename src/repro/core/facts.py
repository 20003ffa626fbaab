"""Facts and fact-dimension relations (Section 3).

Facts are objects with unique identity; we represent them by string ids.
A fact-dimension relation ``R_i`` links each fact to exactly one dimension
value per dimension (missing values map to the top value ``T``).  Facts
inserted by users must map to bottom-category values; facts produced by the
reduction facilities may map to values in any category — the model's
"more general capability" that data reduction exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..errors import FactError


class FactDimensionRelation:
    """One relation ``R_i = {(f, v)}`` between facts and one dimension.

    The paper requires each fact to appear exactly once per dimension, so
    the relation is a function from fact id to value.
    """

    def __init__(self, dimension_name: str) -> None:
        self.dimension_name = dimension_name
        self._value_of: dict[str, str] = {}

    def link(self, fact_id: str, value: str) -> None:
        existing = self._value_of.get(fact_id)
        if existing is not None and existing != value:
            raise FactError(
                f"fact {fact_id!r} already maps to {existing!r} in dimension "
                f"{self.dimension_name!r}; facts map to one value per dimension"
            )
        self._value_of[fact_id] = value

    def unlink(self, fact_id: str) -> None:
        self._value_of.pop(fact_id, None)

    def value_of(self, fact_id: str) -> str:
        try:
            return self._value_of[fact_id]
        except KeyError:
            raise FactError(
                f"fact {fact_id!r} has no value in dimension "
                f"{self.dimension_name!r}"
            ) from None

    def values_of(self, fact_ids: Iterable[str]) -> list[str]:
        """The values of *fact_ids*, in their order (one column read)."""
        try:
            return list(map(self._value_of.__getitem__, fact_ids))
        except KeyError as error:
            raise FactError(
                f"fact {error.args[0]!r} has no value in dimension "
                f"{self.dimension_name!r}"
            ) from None

    def __contains__(self, fact_id: str) -> bool:
        return fact_id in self._value_of

    def __len__(self) -> int:
        return len(self._value_of)

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(self._value_of.items())

    def copy(self) -> "FactDimensionRelation":
        clone = FactDimensionRelation(self.dimension_name)
        clone._value_of = dict(self._value_of)
        return clone


@dataclass(frozen=True)
class Provenance:
    """Which original facts an (aggregated) fact stands for.

    Definition 2 models a reduced fact as a *set* of original facts; we keep
    that set so users can ask why data is aggregated the way it is (the
    paper calls out exactly this requirement in Section 4).
    """

    members: frozenset[str] = field(default_factory=frozenset)

    @staticmethod
    def of(fact_id: str) -> "Provenance":
        return Provenance(frozenset({fact_id}))

    def merge(self, other: "Provenance") -> "Provenance":
        return Provenance(self.members | other.members)

    def __len__(self) -> int:
        return len(self.members)


def aggregate_fact_id(cell: Mapping[str, str] | tuple[str, ...]) -> str:
    """Deterministic id for the aggregated fact of a cell.

    Using a deterministic id means repeated reductions of the same cell at
    later times coalesce naturally onto one fact, which mirrors the paper's
    "one new fact per cell" semantics.
    """
    # Every engine caller passes a tuple; the ``typing`` instance check
    # is the slow one, so it only runs for the other callers.
    if not isinstance(cell, tuple) and isinstance(cell, Mapping):
        cell = [f"{k}={cell[k]}" for k in sorted(cell)]
    return "agg|" + "|".join(cell)
