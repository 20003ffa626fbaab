"""Fact schemas, dimension types, and measure types (Section 3).

An *n*-dimensional fact schema is a triple ``S = (F, D, M)`` of a fact type
name, *n* dimension types, and *m* measure types.  A dimension type is a
poset of category types with top and bottom elements; measure types carry a
distributive default aggregate function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import SchemaError
from .hierarchy import TOP, Hierarchy
from .measures import AggregateFunction, resolve_aggregate


@dataclass(frozen=True)
class DimensionType:
    """A named dimension type ``T = (C, <=_T, T_T, _|_T)``.

    The hierarchy owns the category-type poset; this class contributes the
    dimension-type name used to qualify categories in specifications (e.g.
    ``Time.month``).
    """

    name: str
    hierarchy: Hierarchy

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise SchemaError(f"invalid dimension type name {self.name!r}")

    @property
    def bottom(self) -> str:
        return self.hierarchy.bottom

    @property
    def top(self) -> str:
        return self.hierarchy.top

    @property
    def categories(self) -> frozenset[str]:
        return self.hierarchy.categories

    def has_category(self, category: str) -> bool:
        return category in self.hierarchy

    def le(self, low: str, high: str) -> bool:
        """Category order ``low <=_T high`` within this dimension type."""
        return self.hierarchy.le(low, high)

    def is_linear(self) -> bool:
        return self.hierarchy.is_linear()

    def qualify(self, category: str) -> str:
        """Render ``Dim.category`` as used in the specification language."""
        if category == TOP:
            return f"{self.name}.T"
        return f"{self.name}.{category}"


@dataclass(frozen=True)
class MeasureType:
    """A named measure type with its distributive default aggregate."""

    name: str
    aggregate: AggregateFunction = field(default_factory=lambda: resolve_aggregate("sum"))

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("measure type must have a name")
        if not self.aggregate.distributive:
            raise SchemaError(
                f"default aggregate of measure {self.name!r} must be "
                f"distributive; {self.aggregate.name!r} is not"
            )


class FactSchema:
    """An *n*-dimensional fact schema ``S = (F, D, M)``."""

    def __init__(
        self,
        fact_type: str,
        dimension_types: Iterable[DimensionType],
        measure_types: Iterable[MeasureType],
    ) -> None:
        if not fact_type:
            raise SchemaError("fact schema must name its fact type")
        dims = tuple(dimension_types)
        if not dims:
            raise SchemaError("fact schema must have at least one dimension type")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate dimension type names: {names!r}")
        measures = tuple(measure_types)
        measure_names = [m.name for m in measures]
        if len(set(measure_names)) != len(measure_names):
            raise SchemaError(f"duplicate measure type names: {measure_names!r}")

        self.fact_type = fact_type
        self._dimension_types = dims
        self._by_name: dict[str, DimensionType] = {d.name: d for d in dims}
        self._measure_types = measures
        self._measures_by_name: dict[str, MeasureType] = {
            m.name: m for m in measures
        }
        # The schema never changes after construction, so the name
        # tuples that per-fact paths read are built once.
        self._dimension_names = tuple(names)
        self._measure_names = tuple(measure_names)

    # ------------------------------------------------------------------

    @property
    def dimension_types(self) -> tuple[DimensionType, ...]:
        return self._dimension_types

    @property
    def dimension_names(self) -> tuple[str, ...]:
        return self._dimension_names

    @property
    def measure_types(self) -> tuple[MeasureType, ...]:
        return self._measure_types

    @property
    def measure_names(self) -> tuple[str, ...]:
        return self._measure_names

    @property
    def n_dimensions(self) -> int:
        return len(self._dimension_types)

    def dimension_type(self, name: str) -> DimensionType:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown dimension type {name!r}") from None

    def measure_type(self, name: str) -> MeasureType:
        try:
            return self._measures_by_name[name]
        except KeyError:
            raise SchemaError(f"unknown measure type {name!r}") from None

    def dimension_index(self, name: str) -> int:
        for i, dim in enumerate(self._dimension_types):
            if dim.name == name:
                return i
        raise SchemaError(f"unknown dimension type {name!r}")

    def bottom_granularity(self) -> tuple[str, ...]:
        """The finest granularity: the bottom category of every dimension."""
        return tuple(d.bottom for d in self._dimension_types)

    def top_granularity(self) -> tuple[str, ...]:
        """The coarsest granularity: the top category of every dimension."""
        return tuple(d.top for d in self._dimension_types)

    def validate_granularity(self, granularity: Mapping[str, str]) -> tuple[str, ...]:
        """Check a dim-name -> category mapping names every dimension once.

        Returns the granularity as a tuple ordered like the schema's
        dimensions (the paper's ``Clist`` convention).
        """
        missing = set(self.dimension_names) - set(granularity)
        extra = set(granularity) - set(self.dimension_names)
        if missing or extra:
            raise SchemaError(
                f"granularity must name every dimension exactly once; "
                f"missing={sorted(missing)!r} extra={sorted(extra)!r}"
            )
        out: list[str] = []
        for dim in self._dimension_types:
            category = granularity[dim.name]
            if not dim.has_category(category):
                raise SchemaError(
                    f"dimension {dim.name!r} has no category {category!r}"
                )
            out.append(category)
        return tuple(out)

    def le_granularity(self, low: tuple[str, ...], high: tuple[str, ...]) -> bool:
        """Granularity order ``<=_P`` (Equation 6): componentwise ``<=_Ti``."""
        if len(low) != self.n_dimensions or len(high) != self.n_dimensions:
            raise SchemaError("granularity arity does not match the schema")
        return all(
            dim.le(lo, hi)
            for dim, lo, hi in zip(self._dimension_types, low, high)
        )

    def max_granularity(
        self, granularities: Iterable[tuple[str, ...]]
    ) -> tuple[str, ...]:
        """The paper's ``max_<=P`` over a totally ordered input set."""
        grans = list(granularities)
        if not grans:
            raise SchemaError("max_granularity of an empty set")
        best = grans[0]
        for g in grans[1:]:
            if self.le_granularity(best, g):
                best = g
            elif not self.le_granularity(g, best):
                raise SchemaError(
                    f"granularities {best!r} and {g!r} are incomparable; "
                    "max_<=P requires a totally ordered input set"
                )
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dims = ", ".join(self.dimension_names)
        return f"FactSchema({self.fact_type}; dims=[{dims}]; measures={list(self.measure_names)!r})"
