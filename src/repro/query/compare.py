"""Varying-granularity value comparisons (Definition 5).

When a predicate compares a fact's dimension value ``v'`` to a constant
``v1`` of a *different* category, both are drilled down to the greatest
lower bound of their categories and the resulting value sets are compared.
The paper defines, for drill-down sets ``A`` (from ``v'``) and ``B`` (from
``v1``):

* strict inequalities (``<``, ``>``): for-all/for-all — every element of
  ``A`` must compare to every element of ``B``;
* reflexive inequalities (``<=``, ``>=``): for-all/exists — every element
  of ``A`` must compare to *some* element of ``B``;
* ``=`` / ``!=``: set equality / set inequality of ``A`` and ``B``;
* ``in {v1..vk}``: ``A`` is covered by the union of the ``vi`` drill-downs.

That is the paper's **conservative** approach (its stated choice for
warehouses).  We additionally provide the **liberal** approach (a fact is
returned when *some* possible detailed value satisfies the predicate) and
the **weighted** approach (the fraction of the fact's drill-down values
that satisfy it); the paper names both but leaves them informal, so we
derive them from the same per-element satisfaction test:

* element ``va`` satisfies ``va op v1`` using the paper's quantifier
  pattern on the ``B`` side (for-all for strict ops, exists for reflexive
  ops, membership for ``=`` and ``in``);
* conservative = all elements satisfy, liberal = some element satisfies,
  weight = satisfying fraction.

This keeps ``conservative => weight == 1 => liberal`` as an invariant
(property-tested), with the one documented exception that conservative
``=`` additionally requires ``B`` to be covered by ``A`` (exact set
equality, per the paper's text).
"""

from __future__ import annotations

import enum
from typing import Sequence

from ..core.dimension import ALL_VALUE, Dimension
from ..errors import QueryError
from ..timedim.calendar import parse_value
from ..timedim.granularity import is_time_category


class Approach(enum.Enum):
    """Selection approach of Section 6.1."""

    CONSERVATIVE = "conservative"
    LIBERAL = "liberal"
    WEIGHTED = "weighted"


_ORDER_OPS = {"<", "<=", ">", ">="}
_ALL_OPS = _ORDER_OPS | {"=", "!=", "in"}


def drill_down(dimension: Dimension, value: str, category: str) -> frozenset[str]:
    """The drill-down set of *value* at *category* (``<=`` its own)."""
    own = dimension.category_of(value)
    if own == category:
        return frozenset({value})
    return dimension.descendants_at(value, category)


def common_category(
    dimension: Dimension, left_value: str, right_values: Sequence[str]
) -> str:
    """GLB of the categories of all operands (Equation 33)."""
    hierarchy = dimension.dimension_type.hierarchy
    categories = {dimension.category_of(left_value)}
    categories.update(dimension.category_of(v) for v in right_values)
    return hierarchy.glb(categories)


def compare(
    dimension: Dimension,
    left_value: str,
    op: str,
    right: str | Sequence[str],
    approach: Approach = Approach.CONSERVATIVE,
) -> bool:
    """Evaluate ``left_value op right`` under Definition 5.

    ``right`` is a single value for the comparison operators and a sequence
    of values for ``op == "in"``.
    """
    result = weighted_compare(dimension, left_value, op, right)
    if approach is Approach.CONSERVATIVE:
        return result.conservative
    if approach is Approach.LIBERAL:
        return result.liberal
    return result.weight > 0.0


class ComparisonResult:
    """Outcome of one varying-granularity comparison, all approaches."""

    __slots__ = ("conservative", "liberal", "weight")

    def __init__(self, conservative: bool, liberal: bool, weight: float) -> None:
        self.conservative = conservative
        self.liberal = liberal
        self.weight = weight

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ComparisonResult(conservative={self.conservative}, "
            f"liberal={self.liberal}, weight={self.weight:.3f})"
        )


def weighted_compare(
    dimension: Dimension,
    left_value: str,
    op: str,
    right: str | Sequence[str],
) -> ComparisonResult:
    """Full Definition 5 evaluation returning all three approaches at once."""
    if op not in _ALL_OPS:
        raise QueryError(f"unknown comparison operator {op!r}")
    right_values = _right_values(op, right)
    for value in (left_value, *right_values):
        dimension.category_of(value)  # validate

    own = dimension.category_of(left_value)
    right_categories = {dimension.category_of(v) for v in right_values}

    # Fast path: everything in one category — compare directly.
    if right_categories == {own}:
        return _same_category(dimension, own, left_value, op, right_values)

    glb = common_category(dimension, left_value, list(right_values))
    left_set = drill_down(dimension, left_value, glb)
    right_sets = [drill_down(dimension, v, glb) for v in right_values]
    if not left_set:
        # A value with an empty extension at the GLB (possible in sparse
        # dimensions) vacuously satisfies the for-all patterns; we instead
        # treat it as unknowable: not conservative, not liberal.
        return ComparisonResult(False, False, 0.0)

    key = lambda v: dimension.sort_value(glb, v)  # noqa: E731 - local shorthand

    if op == "in":
        union: set[str] = set()
        for rs in right_sets:
            union.update(rs)
        satisfied = [v for v in left_set if v in union]
    elif op == "=":
        b = right_sets[0]
        satisfied = [v for v in left_set if v in b]
    elif op == "!=":
        b = right_sets[0]
        satisfied = [v for v in left_set if v not in b]
    else:
        b = right_sets[0]
        if not b:
            return ComparisonResult(False, False, 0.0)
        b_keys = [key(v) for v in b]
        b_min, b_max = min(b_keys), max(b_keys)
        if op == "<":
            satisfied = [v for v in left_set if key(v) < b_min]
        elif op == "<=":
            satisfied = [v for v in left_set if key(v) <= b_max]
        elif op == ">":
            satisfied = [v for v in left_set if key(v) > b_max]
        else:  # ">="
            satisfied = [v for v in left_set if key(v) >= b_min]

    weight = len(satisfied) / len(left_set)
    conservative = weight == 1.0
    if op == "=":
        # Paper: the two drill-down sets must be *identical*.
        conservative = conservative and right_sets[0] <= left_set
    if op == "!=":
        # Paper: set inequality.  Weight/liberal still use per-element
        # exclusion, which is the natural uncertainty reading.
        conservative = left_set != right_sets[0]
    liberal = weight > 0.0 or (op == "!=" and conservative)
    return ComparisonResult(conservative, liberal, weight)


def _same_category(
    dimension: Dimension,
    category: str,
    left_value: str,
    op: str,
    right_values: tuple[str, ...],
) -> ComparisonResult:
    if op == "in":
        ok = left_value in right_values
    elif op == "=":
        ok = left_value == right_values[0]
    elif op == "!=":
        ok = left_value != right_values[0]
    else:
        lk = dimension.sort_value(category, left_value)
        rk = dimension.sort_value(category, right_values[0])
        ok = {
            "<": lk < rk,
            "<=": lk <= rk,
            ">": lk > rk,
            ">=": lk >= rk,
        }[op]
    weight = 1.0 if ok else 0.0
    return ComparisonResult(ok, ok, weight)


def _right_values(op: str, right: str | Sequence[str]) -> tuple[str, ...]:
    if op == "in":
        if isinstance(right, str):
            raise QueryError("'in' comparisons need a sequence of values")
        values = tuple(right)
        if not values:
            raise QueryError("'in' comparisons need at least one value")
        return values
    if not isinstance(right, str):
        raise QueryError(f"operator {op!r} compares against a single value")
    return (right,)


def values_satisfying(
    dimension: Dimension,
    category: str,
    op: str,
    right: str | Sequence[str],
    approach: Approach = Approach.CONSERVATIVE,
) -> frozenset[str]:
    """All values of *category* satisfying ``v op right`` — the building
    block for the paper's ``Pred(a, t)`` cell enumeration."""
    return frozenset(
        v
        for v in dimension.values(category)
        if compare(dimension, v, op, right, approach)
    )


# ----------------------------------------------------------------------
# Predicate-atom evaluation against a fact's direct value
# ----------------------------------------------------------------------
#
# Predicate constants (query literals, evaluated NOW-terms) need not be
# materialized in the dimension: in a sparse Time dimension the month
# denoted by ``NOW - 6 months`` may hold no facts at all.  The helpers
# below therefore represent the right-hand side as an *extent* — a
# containment test plus min/max sort keys at the comparison category —
# computed from the dimension when the value is materialized and from
# calendar arithmetic when it is a time value that is not.

class _Extent:
    """Right-hand-side drill-down at the GLB category, possibly virtual."""

    __slots__ = ("min_key", "max_key", "_members", "_day_range")

    def __init__(
        self,
        min_key: object,
        max_key: object,
        members: frozenset[str] | None,
        day_range: tuple[int, int] | None,
    ) -> None:
        self.min_key = min_key
        self.max_key = max_key
        self._members = members
        self._day_range = day_range

    def contains(self, dimension: Dimension, glb: str, value: str) -> bool:
        if self._members is not None:
            return value in self._members
        if self._day_range is not None:
            from ..timedim.calendar import first_day, last_day

            lo, hi = self._day_range
            return (
                first_day(glb, value).toordinal() >= lo
                and last_day(glb, value).toordinal() <= hi
            )
        return False

    @property
    def exact(self) -> bool:
        """Whether the member set is known exactly (materialized)."""
        return self._members is not None

    @property
    def members(self) -> frozenset[str]:
        return self._members if self._members is not None else frozenset()


def _constant_extent(
    dimension: Dimension, value: str, category: str, glb: str
) -> _Extent | None:
    """Extent of constant *value* (of *category*) at *glb*, or ``None``
    when the comparison cannot be decided."""
    from ..timedim.calendar import first_day, last_day, ordinal, parse_value
    from ..timedim.granularity import is_time_category

    if value in dimension and dimension.category_of(value) == category:
        members = drill_down(dimension, value, glb)
        if not members:
            return None
        keys = [dimension.sort_value(glb, v) for v in members]
        return _Extent(min(keys), max(keys), frozenset(members), None)
    if category == glb:
        # Singleton at the comparison category; works for unmaterialized
        # constants because sort keys are computable from the value alone.
        if is_time_category(category):
            value = parse_value(category, value)
        key = dimension.sort_value(glb, value)
        return _Extent(key, key, frozenset({value}), None)
    if is_time_category(category) and is_time_category(glb):
        lo = first_day(category, value)
        hi = last_day(category, value)
        min_key = ordinal(glb, _value_at_or_same(lo, glb))
        max_key = ordinal(glb, _value_at_or_same(hi, glb))
        return _Extent(min_key, max_key, None, (lo.toordinal(), hi.toordinal()))
    return None


def _value_at_or_same(date, glb: str) -> str:
    from ..timedim.calendar import value_at

    return value_at(date, glb)


def atom_result(
    dimension: Dimension,
    direct_value: str,
    category: str,
    op: str,
    right: str | Sequence[str],
) -> ComparisonResult:
    """Definition 5 evaluation of one predicate atom at *category*.

    *direct_value* is the value a fact maps to directly; the atom compares
    the fact at *category* against constant(s) *right* of that category.
    The fast path rolls the fact up when its data is fine enough; otherwise
    the drill-down machinery decides, with calendar arithmetic standing in
    for unmaterialized time constants.
    """
    if op not in _ALL_OPS:
        raise QueryError(f"unknown comparison operator {op!r}")
    rights = _right_values(op, right)
    if direct_value == ALL_VALUE:
        # "Unknown in this dimension" can never certainly satisfy an atom
        # but always might.
        return ComparisonResult(False, True, 0.0)

    ancestor = dimension.try_ancestor_at(direct_value, category)
    if ancestor is not None:
        return _same_category_vs_constants(dimension, category, ancestor, op, rights)

    own = dimension.category_of(direct_value)
    hierarchy = dimension.dimension_type.hierarchy
    glb = hierarchy.glb({own, category})
    left_set = drill_down(dimension, direct_value, glb)
    if not left_set:
        return ComparisonResult(False, False, 0.0)
    extents = [
        _constant_extent(dimension, value, category, glb) for value in rights
    ]
    if any(extent is None for extent in extents):
        return ComparisonResult(False, True, 0.0)

    key = lambda v: dimension.sort_value(glb, v)  # noqa: E731 - local shorthand
    if op == "in":
        satisfied = [
            v
            for v in left_set
            if any(e.contains(dimension, glb, v) for e in extents)
        ]
    elif op == "=":
        satisfied = [
            v for v in left_set if extents[0].contains(dimension, glb, v)
        ]
    elif op == "!=":
        satisfied = [
            v for v in left_set if not extents[0].contains(dimension, glb, v)
        ]
    else:
        extent = extents[0]
        if op == "<":
            satisfied = [v for v in left_set if key(v) < extent.min_key]
        elif op == "<=":
            satisfied = [v for v in left_set if key(v) <= extent.max_key]
        elif op == ">":
            satisfied = [v for v in left_set if key(v) > extent.max_key]
        else:  # ">="
            satisfied = [v for v in left_set if key(v) >= extent.min_key]

    weight = len(satisfied) / len(left_set)
    conservative = weight == 1.0
    if op == "=":
        conservative = (
            conservative
            and extents[0].exact
            and extents[0].members <= left_set
        )
    if op == "!=":
        # Paper semantics: the drill-down sets must differ.  Provable when
        # some left element lies outside the constant's extent, or when the
        # constant's member set is known exactly and is not left_set.
        some_outside = weight > 0.0
        conservative = some_outside or (
            extents[0].exact and extents[0].members != left_set
        )
    liberal = weight > 0.0 or (op == "!=" and conservative)
    return ComparisonResult(conservative, liberal, weight)


def _same_category_vs_constants(
    dimension: Dimension,
    category: str,
    value: str,
    op: str,
    rights: tuple[str, ...],
) -> ComparisonResult:
    """Same-category comparison where constants may be unmaterialized."""
    if is_time_category(category):
        rights = tuple(parse_value(category, r) for r in rights)
    if op == "in":
        ok = value in rights
    elif op == "=":
        ok = value == rights[0]
    elif op == "!=":
        ok = value != rights[0]
    else:
        lk = dimension.sort_value(category, value)
        rk = dimension.sort_value(category, rights[0])
        ok = {"<": lk < rk, "<=": lk <= rk, ">": lk > rk, ">=": lk >= rk}[op]
    return ComparisonResult(ok, ok, 1.0 if ok else 0.0)


def atom_compare(
    dimension: Dimension,
    direct_value: str,
    category: str,
    op: str,
    right: str | Sequence[str],
    approach: Approach = Approach.CONSERVATIVE,
) -> bool:
    """Boolean form of :func:`atom_result` under the chosen approach."""
    result = atom_result(dimension, direct_value, category, op, right)
    if approach is Approach.CONSERVATIVE:
        return result.conservative
    if approach is Approach.LIBERAL:
        return result.liberal
    return result.weight > 0.0
