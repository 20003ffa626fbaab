"""Measures and distributive aggregate functions (Section 3).

A measure maps facts to values in some domain and carries a *default
aggregate function* that the paper requires to be distributive: the
aggregate of a union of multisets must be computable from the aggregates of
the parts.  This is what makes both gradual re-aggregation (Definition 2)
and the two-step subcube combination of Section 7.3 sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..errors import MeasureError


@dataclass(frozen=True)
class AggregateFunction:
    """A named aggregate over multisets of measure values.

    ``fold`` combines a non-empty iterable of values into one value.  For a
    distributive function, folding partial aggregates gives the same result
    as folding all the raw values, which we rely on (and property-test).
    """

    name: str
    fold: Callable[[Iterable], object]
    distributive: bool = True

    def __call__(self, values: Iterable) -> object:
        vals = list(values)
        if not vals:
            raise MeasureError(f"aggregate {self.name!r} applied to an empty multiset")
        return self.fold(vals)


SUM = AggregateFunction("sum", lambda vs: sum(vs))
COUNT = AggregateFunction("count", lambda vs: sum(vs))
MIN = AggregateFunction("min", min)
MAX = AggregateFunction("max", max)

#: AVG is *algebraic*, not distributive; it is here only so that the schema
#: validation has a concrete non-distributive function to reject, mirroring
#: the paper's restriction to distributive defaults.
AVG = AggregateFunction(
    "avg", lambda vs: sum(vs) / len(list(vs)), distributive=False
)

_REGISTRY: dict[str, AggregateFunction] = {
    f.name: f for f in (SUM, COUNT, MIN, MAX, AVG)
}


def resolve_aggregate(name: str) -> AggregateFunction:
    """Look up an aggregate function by name (case-insensitive)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise MeasureError(f"unknown aggregate function {name!r}") from None


def register_aggregate(function: AggregateFunction) -> None:
    """Register a user-defined aggregate function by its name."""
    _REGISTRY[function.name.lower()] = function


class Measure:
    """A measure instance: fact id -> value, typed by a measure type name."""

    def __init__(
        self,
        name: str,
        aggregate: AggregateFunction,
        values: Mapping[str, object] | None = None,
    ) -> None:
        if not aggregate.distributive:
            raise MeasureError(
                f"measure {name!r}: default aggregate must be distributive"
            )
        self.name = name
        self.aggregate = aggregate
        self._values: dict[str, object] = dict(values or {})

    def __getitem__(self, fact_id: str) -> object:
        try:
            return self._values[fact_id]
        except KeyError:
            raise MeasureError(
                f"measure {self.name!r} has no value for fact {fact_id!r}"
            ) from None

    def __contains__(self, fact_id: str) -> bool:
        return fact_id in self._values

    def __len__(self) -> int:
        return len(self._values)

    def set(self, fact_id: str, value: object) -> None:
        self._values[fact_id] = value

    def discard(self, fact_id: str) -> None:
        self._values.pop(fact_id, None)

    def items(self) -> Iterable[tuple[str, object]]:
        return self._values.items()

    def aggregate_over(self, fact_ids: Iterable[str]) -> object:
        """Apply the default aggregate to the multiset ``{M(f) | f in ids}``."""
        return self.aggregate_each([fact_ids])[0]

    def aggregate_each(
        self, groups: Iterable[Iterable[str]]
    ) -> list[object]:
        """:meth:`aggregate_over` for each of *groups*, in one call.

        Every group folds its members' values in member order.
        """
        value_of = self._values.__getitem__
        try:
            multisets = [list(map(value_of, members)) for members in groups]
        except KeyError as error:
            raise MeasureError(
                f"measure {self.name!r} has no value for fact "
                f"{error.args[0]!r}"
            ) from None
        return list(map(self.aggregate, multisets))

    def restrict(self, fact_ids: Iterable[str]) -> "Measure":
        """The measure restricted to *fact_ids* (used by selection, Eq. 36)."""
        keep = set(fact_ids)
        return Measure(
            self.name,
            self.aggregate,
            {fid: v for fid, v in self._values.items() if fid in keep},
        )

    def copy(self) -> "Measure":
        return Measure(self.name, self.aggregate, self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Measure({self.name}, agg={self.aggregate.name}, n={len(self)})"
