"""Dimension instances: categories of values and their containment order.

A dimension ``D = (C, <=_D)`` (Section 3) instantiates a dimension type
with concrete values.  Every value belongs to exactly one category; the
containment order ``v1 <=_D v2`` is generated by immediate parent links
that must respect the category-type hierarchy (a day's parents are a week
value and a month value in the paper's Time dimension).

The top category always holds the single value :data:`ALL_VALUE`, the
paper's ``T`` (an analogue of Gray et al.'s ``ALL``): every value is
contained in it, and facts that cannot be characterized in a dimension map
to it.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable, Mapping

from ..errors import DimensionError
from .hierarchy import TOP
from .schema import DimensionType

#: The unique value of the top category (``T`` in the paper).
ALL_VALUE = "__all__"

#: Sort key assigning values their natural (string) order within a category.
SortKey = Callable[[str, str], object]

#: Yields canonical-form candidates for a raw value (see ``normalize_value``).
Normalizer = Callable[[str], "Iterable[str]"]


def _default_sort_key(category: str, value: str) -> object:
    return value


class Dimension:
    """A materialized dimension instance.

    Parameters
    ----------
    dimension_type:
        The :class:`~repro.core.schema.DimensionType` this instance conforms
        to.
    sort_key:
        Optional ``(category, value) -> sortable`` function used by range
        predicates (``<``, ``<=`` ...) to order values within a category.
        Defaults to the values' own string order, which suits the canonical
        zero-padded time encodings produced by :mod:`repro.timedim`.
    """

    def __init__(
        self,
        dimension_type: DimensionType,
        sort_key: SortKey | None = None,
        normalizer: "Normalizer | None" = None,
    ) -> None:
        self.dimension_type = dimension_type
        self.name = dimension_type.name
        self._sort_key = sort_key or _default_sort_key
        self._normalizer = normalizer
        self._category_of: dict[str, str] = {ALL_VALUE: TOP}
        self._values: dict[str, set[str]] = {
            category: set() for category in dimension_type.categories
        }
        self._values[TOP] = {ALL_VALUE}
        self._parents: dict[str, set[str]] = {ALL_VALUE: set()}
        self._children: dict[str, set[str]] = {ALL_VALUE: set()}
        # Derived lookups, all emptied by ``add_value``: ancestors and
        # finest-available pairs per (value, category), sub-dimensions
        # per kept category set.
        self._ancestor_cache: dict[tuple[str, str], str | None] = {}
        self._available_cache: dict[tuple[str, str], tuple[str, str]] = {}
        self._subdimension_cache: dict[frozenset[str], Dimension] = {}
        #: Bumped by every ``add_value`` (the one writer of the content
        #: above); keys the memo of :meth:`memoized_digest`.
        self._edits = 0
        self._digest_memo: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_value(
        self, category: str, value: str, parents: Iterable[str] = ()
    ) -> str:
        """Add *value* to *category*, linking it below each of *parents*.

        Parents must already exist and live in immediate-ancestor categories
        of *category* (per the dimension type's hierarchy).  Values directly
        below the top category are linked to :data:`ALL_VALUE` implicitly.
        Re-adding an existing value merges the parent links.
        """
        hierarchy = self.dimension_type.hierarchy
        if category not in hierarchy:
            raise DimensionError(
                f"{self.name}: unknown category {category!r}"
            )
        if category == TOP:
            raise DimensionError(
                f"{self.name}: the top category holds only {ALL_VALUE!r}"
            )
        existing = self._category_of.get(value)
        if existing is not None and existing != category:
            raise DimensionError(
                f"{self.name}: value {value!r} already in category "
                f"{existing!r}, cannot also join {category!r}"
            )
        self._edits += 1
        self._category_of[value] = category
        self._values[category].add(value)
        self._parents.setdefault(value, set())
        self._children.setdefault(value, set())
        immediate = hierarchy.anc(category)
        for parent in parents:
            parent_category = self._category_of.get(parent)
            if parent_category is None:
                raise DimensionError(
                    f"{self.name}: parent value {parent!r} does not exist"
                )
            if parent_category not in immediate:
                raise DimensionError(
                    f"{self.name}: {value!r} ({category}) cannot have parent "
                    f"{parent!r} ({parent_category}); immediate ancestors of "
                    f"{category!r} are {sorted(immediate)!r}"
                )
            self._parents[value].add(parent)
            self._children[parent].add(value)
        if immediate == {TOP}:
            self._parents[value].add(ALL_VALUE)
            self._children[ALL_VALUE].add(value)
        self._ancestor_cache.clear()
        self._available_cache.clear()
        self._subdimension_cache.clear()
        return value

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def categories(self) -> frozenset[str]:
        return self.dimension_type.categories

    @property
    def bottom_category(self) -> str:
        return self.dimension_type.bottom

    def values(self, category: str) -> frozenset[str]:
        """All values of *category* (the paper's category extension)."""
        try:
            return frozenset(self._values[category])
        except KeyError:
            raise DimensionError(
                f"{self.name}: unknown category {category!r}"
            ) from None

    def all_values(self) -> frozenset[str]:
        """Every value of the dimension, across all categories."""
        return frozenset(self._category_of)

    def __contains__(self, value: str) -> bool:
        return value in self._category_of

    def digest(self) -> int:
        """CRC-32 of the content: each value's category and parent links.

        Recomputed on every call and independent of insertion order, so
        two dimensions holding the same values digest alike however they
        were built (a recovered template against the original).
        """
        category_of = self._category_of
        rows = sorted(
            [
                "\0".join((value, category_of[value], *sorted(parents)))
                for value, parents in self._parents.items()
            ]
        )
        return zlib.crc32("\n".join(rows).encode("utf-8"))

    def memoized_digest(self) -> int:
        """:meth:`digest`, recomputed only after an ``add_value``."""
        memo = self._digest_memo
        if memo is None or memo[0] != self._edits:
            memo = self._digest_memo = (self._edits, self.digest())
        return memo[1]

    def category_of(self, value: str) -> str:
        try:
            return self._category_of[value]
        except KeyError:
            raise DimensionError(
                f"{self.name}: unknown value {value!r}"
            ) from None

    def normalize_value(self, value: str) -> str:
        """Map *value* to its canonical form known to the dimension.

        Values already present pass through; otherwise the dimension's
        normalizer (if any) proposes canonical candidates — e.g. the time
        normalizer turns the paper-style ``1999/12/4`` into ``1999/12/04``.
        """
        if value in self._category_of:
            return value
        if self._normalizer is not None:
            for candidate in self._normalizer(value):
                if candidate in self._category_of:
                    return candidate
        raise DimensionError(f"{self.name}: unknown value {value!r}")

    def parents(self, value: str) -> frozenset[str]:
        """Immediate parents of *value* in the containment order."""
        self.category_of(value)
        return frozenset(self._parents.get(value, ()))

    def children(self, value: str) -> frozenset[str]:
        """Immediate children of *value* in the containment order."""
        self.category_of(value)
        return frozenset(self._children.get(value, ()))

    def sort_value(self, category: str, value: str) -> object:
        """The sortable key of *value* within *category*."""
        return self._sort_key(category, value)

    def sorted_values(self, category: str) -> list[str]:
        """Values of *category* in their natural order."""
        return sorted(self.values(category), key=lambda v: self.sort_value(category, v))

    # ------------------------------------------------------------------
    # Containment order
    # ------------------------------------------------------------------

    def le_value(self, low: str, high: str) -> bool:
        """Return ``True`` when ``low <=_D high`` (reflexive containment)."""
        if high == ALL_VALUE:
            self.category_of(low)
            return True
        if low == high:
            return True
        target_category = self.category_of(high)
        return self.try_ancestor_at(low, target_category) == high

    def try_ancestor_at(self, value: str, category: str) -> str | None:
        """The unique ancestor of *value* at *category*, or ``None``.

        ``None`` means *category* is not reachable upward from the value's
        category (e.g. asking for the quarter of a week value in the paper's
        non-linear Time hierarchy), or the value genuinely lacks a parent
        chain to it.  A value is its own ancestor at its own category.
        """
        key = (value, category)
        cached = self._ancestor_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = self._compute_ancestor(value, category)
        self._ancestor_cache[key] = result
        return result

    def _compute_ancestor(self, value: str, category: str) -> str | None:
        own = self.category_of(value)
        hierarchy = self.dimension_type.hierarchy
        if category == own:
            return value
        if category == TOP:
            return ALL_VALUE
        if not hierarchy.lt(own, category):
            return None
        found: set[str] = set()
        frontier = [value]
        seen: set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for parent in self._parents.get(current, ()):
                parent_category = self._category_of[parent]
                if parent_category == category:
                    found.add(parent)
                elif hierarchy.lt(parent_category, category):
                    frontier.append(parent)
        if len(found) > 1:
            raise DimensionError(
                f"{self.name}: value {value!r} has several ancestors at "
                f"{category!r}: {sorted(found)!r}; the model maps each fact "
                "to one value per category"
            )
        return next(iter(found), None)

    def ancestor_at(self, value: str, category: str) -> str:
        """Like :meth:`try_ancestor_at` but raising when unreachable."""
        result = self.try_ancestor_at(value, category)
        if result is None:
            raise DimensionError(
                f"{self.name}: no ancestor of {value!r} at category {category!r}"
            )
        return result

    def finest_available(
        self, value: str, category: str
    ) -> tuple[str, str]:
        """The finest category ``>= category`` at which *value* has an
        ancestor, with that ancestor.

        This is the availability approach's per-fact granularity
        (Section 6.3): *category* itself when the value rolls up to it,
        otherwise the minimal coarser category that is reachable.
        """
        key = (value, category)
        cached = self._available_cache.get(key)
        if cached is None:
            cached = self._available_cache[key] = (
                self._compute_finest_available(value, category)
            )
        return cached

    def _compute_finest_available(
        self, value: str, category: str
    ) -> tuple[str, str]:
        hierarchy = self.dimension_type.hierarchy
        own = self.category_of(value)
        if own == category or hierarchy.le(own, category):
            ancestor = self.try_ancestor_at(value, category)
            if ancestor is not None:
                return category, ancestor
        candidates = [
            candidate
            for candidate in hierarchy
            if hierarchy.le(category, candidate)
            and self.try_ancestor_at(value, candidate) is not None
        ]
        if not candidates:  # pragma: no cover - TOP is always reachable
            raise DimensionError(
                f"{self.name}: no category >= {category!r} available for "
                f"value {value!r}"
            )
        chosen = next(
            c
            for c in candidates
            if not any(hierarchy.lt(other, c) for other in candidates)
        )
        return chosen, self.ancestor_at(value, chosen)

    def descendants_at(self, value: str, category: str) -> frozenset[str]:
        """All values of *category* contained in *value* (drill-down).

        This is the workhorse of the Definition 5 comparison semantics: to
        compare values of different granularities both sides are drilled
        down to their categories' GLB.
        """
        own = self.category_of(value)
        hierarchy = self.dimension_type.hierarchy
        if category == own:
            return frozenset({value})
        if not hierarchy.lt(category, own):
            raise DimensionError(
                f"{self.name}: category {category!r} is not below the "
                f"category {own!r} of value {value!r}"
            )
        if value == ALL_VALUE:
            return self.values(category)
        found: set[str] = set()
        frontier = [value]
        seen: set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for child in self._children.get(current, ()):
                child_category = self._category_of[child]
                if child_category == category:
                    found.add(child)
                elif hierarchy.lt(category, child_category):
                    frontier.append(child)
        return frozenset(found)

    # ------------------------------------------------------------------
    # Subdimensions
    # ------------------------------------------------------------------

    def subdimension(self, keep_categories: Iterable[str]) -> "Dimension":
        """The subdimension retaining only *keep_categories* (Section 3).

        The top category is always retained; parent links are re-derived as
        the restriction of ``<=_D`` to the retained categories (each kept
        value is linked to its unique ancestor in the nearest kept ancestor
        category).

        The result is built once per retained category set and shared by
        every later caller until this dimension next gains a value, so it
        is read-only: add values here and ask again, never to the result.
        """
        kept = frozenset(keep_categories) | {TOP}
        sub = self._subdimension_cache.get(kept)
        if sub is None:
            sub = self._subdimension_cache[kept] = self._build_subdimension(
                kept
            )
        return sub

    def _build_subdimension(self, kept: frozenset[str]) -> "Dimension":
        hierarchy = self.dimension_type.hierarchy
        unknown = kept - set(hierarchy.categories)
        if unknown:
            raise DimensionError(
                f"{self.name}: unknown categories {sorted(unknown)!r}"
            )
        sub_edges: dict[str, set[str]] = {}
        for category in kept:
            if category == TOP:
                continue
            ancestors = [
                c for c in kept if c != category and hierarchy.lt(category, c)
            ]
            immediate = {
                c
                for c in ancestors
                if not any(
                    hierarchy.lt(other, c) for other in ancestors if other != c
                )
            }
            sub_edges[category] = {c for c in immediate if c != TOP}
        bottoms = [
            c
            for c in kept
            if c != TOP
            and not any(
                hierarchy.lt(other, c) for other in kept if other not in (c, TOP)
            )
        ]
        if len(bottoms) != 1:
            raise DimensionError(
                f"{self.name}: retained categories must have a unique bottom; "
                f"got {sorted(bottoms)!r}"
            )
        from .hierarchy import Hierarchy  # local import avoids cycle at module load

        sub_type = DimensionType(
            self.name, Hierarchy({c: ps for c, ps in sub_edges.items()}, bottoms[0])
        )
        sub = Dimension(sub_type, self._sort_key, self._normalizer)
        order = [c for c in hierarchy if c in kept and c != TOP]
        for category in reversed(order):  # top-down so parents exist first
            for value in self.values(category):
                parent_values = []
                for parent_category in sub_edges.get(category, ()):
                    ancestor = self.try_ancestor_at(value, parent_category)
                    if ancestor is not None:
                        parent_values.append(ancestor)
                sub.add_value(category, value, parent_values)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = {
            c: len(vs) for c, vs in self._values.items() if c != TOP
        }
        return f"Dimension({self.name}, {sizes})"


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def check_dimension_complete(dimension: Dimension) -> None:
    """Validate that every non-top value has a parent in each ancestor branch.

    The strict model of Section 3 expects every value to roll up to exactly
    one value in every category above it; builders call this after loading
    to fail fast on ragged data.
    """
    hierarchy = dimension.dimension_type.hierarchy
    for category in hierarchy.user_categories:
        for ancestor_category in hierarchy.ancestors(category):
            for value in dimension.values(category):
                if dimension.try_ancestor_at(value, ancestor_category) is None:
                    raise DimensionError(
                        f"{dimension.name}: value {value!r} of {category!r} "
                        f"has no ancestor at {ancestor_category!r}"
                    )


def restrict_sort_key(
    base: Mapping[str, Mapping[str, object]]
) -> SortKey:
    """Build a sort key from explicit per-category value orderings."""

    def key(category: str, value: str) -> object:
        table = base.get(category)
        if table is None:
            return value
        return table.get(value, value)

    return key
