"""The aggregate-formation operator (Section 6.3, Definition 6).

``a[C1..Cn](O)`` aggregates facts to the categories ``C1..Cn``.  On
reduced MOs some facts may only carry *coarser* values than requested; the
*approach* decides how they are reflected:

* ``AVAILABILITY`` (the paper's choice) — each fact aggregates to the
  finest granularity that is at least the desired one *and* available for
  it; coarse facts keep their own granularity (``Group_high``'s behaviour
  in Figure 5);
* ``STRICT`` — facts coarser than the desired granularity are dropped, so
  the answer has exactly the requested granularity;
* ``LUB`` — one common granularity for the whole answer: the least upper
  bound of the desired granularity and all facts' available granularities.

(The paper's fourth, *disaggregated*, approach imputes detail values and
yields imprecise answers; it cites [13] for it and so do we — it is out of
scope here, documented in DESIGN.md.)
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from ..core.dimension import Dimension
from ..core.facts import Provenance, aggregate_fact_id
from ..core.hierarchy import TOP
from ..core.measures import Measure
from ..core.mo import MultidimensionalObject
from ..core.schema import FactSchema
from ..errors import QueryError

#: A group member: a fact id, or the cell of an already aggregated row.
K = TypeVar("K")


class AggregationApproach(enum.Enum):
    """Varying-granularity handling of Section 6.3 (see module docs)."""

    STRICT = "strict"
    LUB = "lub"
    AVAILABILITY = "availability"


def aggregate(
    mo: MultidimensionalObject,
    granularity: Mapping[str, str],
    approach: AggregationApproach = AggregationApproach.AVAILABILITY,
) -> MultidimensionalObject:
    """``a[C1..Cn](O)`` under the chosen varying-granularity approach.

    The result's schema restricts each dimension type to the categories at
    or above the requested one (the requested category becomes the new
    bottom), per Definition 6.
    """
    return aggregate_facts(mo, mo.facts(), granularity, approach)


def aggregate_facts(
    mo: MultidimensionalObject,
    fact_ids: Iterable[str],
    granularity: Mapping[str, str],
    approach: AggregationApproach = AggregationApproach.AVAILABILITY,
) -> MultidimensionalObject:
    """``a[C1..Cn]`` over the facts *fact_ids* of *mo* only.

    Equal to ``aggregate(mo.restrict_to_facts(fact_ids), ...)`` without
    the intermediate copy: ``a[..](o[p](O))`` hands the selection's keep
    list straight to the group-by (:func:`aggregate_rows`), and every
    result row is built once.
    """
    requested = mo.schema.validate_granularity(granularity)
    return result_mo(
        mo, requested, aggregate_rows(mo, fact_ids, requested, approach)
    )


#: One aggregated row: cell (ordered like the schema's dimensions),
#: measure values (ordered like its measures), provenance.
Row = tuple[tuple[str, ...], list[object], Provenance]


def aggregate_rows(
    mo: MultidimensionalObject,
    fact_ids: Iterable[str],
    requested: tuple[str, ...],
    approach: AggregationApproach = AggregationApproach.AVAILABILITY,
) -> list[Row]:
    """The rows of ``a[requested]`` over the facts *fact_ids* of *mo*,
    in first-member order, without building an MO."""
    ids = list(dict.fromkeys(fact_ids))
    groups = group_cells(
        mo.dimensions.values(),
        [relation.values_of(ids) for relation in mo.relations.values()],
        ids,
        requested,
        approach,
    )
    return fold_groups(mo.measures.values(), mo.provenance, groups)


def group_cells(
    dimensions: Iterable[Dimension],
    columns: Sequence[Sequence[str]],
    keys: Sequence[K],
    requested: tuple[str, ...],
    approach: AggregationApproach,
) -> dict[tuple[str, ...], list[K]]:
    """Group *keys* by their result cell under *approach*.

    ``columns[i][j]`` is the direct value of ``keys[j]`` in the *i*-th
    dimension.  Each dimension's grouping value is looked up once per
    distinct direct value; the groups, and each group's members, come
    in *keys* order.  Under ``STRICT`` a key whose value is coarser than
    requested joins no group; under ``LUB`` the common category is the
    least upper bound over these keys alone.
    """
    strict = approach is AggregationApproach.STRICT
    grouping: list[list[str | None]] = []
    for dimension, directs, category in zip(dimensions, columns, requested):
        available = {
            direct: dimension.finest_available(direct, category)
            for direct in dict.fromkeys(directs)
        }
        if approach is AggregationApproach.LUB:
            common = dimension.dimension_type.hierarchy.lub(
                {found for found, _ in available.values()} | {category}
            )
            value_for = {
                direct: dimension.ancestor_at(direct, common)
                for direct in available
            }
        else:
            value_for = {
                direct: None if strict and found != category else value
                for direct, (found, value) in available.items()
            }
        grouping.append(list(map(value_for.__getitem__, directs)))

    groups: dict[tuple[str, ...], list[K]] = {}
    for cell, key in zip(zip(*grouping), keys):
        if strict and None in cell:
            continue
        members = groups.get(cell)
        if members is None:
            groups[cell] = [key]
        else:
            members.append(key)
    return groups


def fold_groups(
    measures: Iterable[Measure],
    provenance_of: Callable[[K], Provenance],
    groups: Mapping[tuple[str, ...], Sequence[K]],
) -> list[Row]:
    """One row per group: each measure folded over the group's members
    in member order, and the members' provenance united once."""
    member_lists = list(groups.values())
    folded = [measure.aggregate_each(member_lists) for measure in measures]
    return [
        (
            cell,
            [column[row] for column in folded],
            provenance_of(members[0])
            if len(members) == 1
            else Provenance(
                frozenset().union(
                    *[provenance_of(member).members for member in members]
                )
            ),
        )
        for row, (cell, members) in enumerate(groups.items())
    ]


def group_high(
    mo: MultidimensionalObject,
    cell: Mapping[str, str],
    granularity: Mapping[str, str],
) -> frozenset[str]:
    """The paper's ``Group_high`` (Equation 38).

    All facts characterized by every value of *cell* and mapped *directly*
    to those cell values whose category exceeds the requested granularity.
    The direct-mapping requirement is what stops a fact from landing in
    several result groups.
    """
    requested = mo.schema.validate_granularity(granularity)
    facts: set[str] = set()
    for fact_id in mo.facts():
        ok = True
        for name, req_category in zip(mo.schema.dimension_names, requested):
            value = cell.get(name)
            if value is None:
                raise QueryError(f"cell lacks a value for dimension {name!r}")
            dimension = mo.dimensions[name]
            value = dimension.normalize_value(value)
            value_category = dimension.category_of(value)
            if not dimension.dimension_type.hierarchy.le(req_category, value_category):
                raise QueryError(
                    f"Group_high cell value {value!r} is below the requested "
                    f"category {req_category!r} in {name!r}"
                )
            if value_category == req_category:
                if not mo.characterized_by(fact_id, name, value):
                    ok = False
                    break
            else:
                # Higher than requested: the fact must map directly to it.
                if mo.direct_value(fact_id, name) != value:
                    ok = False
                    break
        if ok:
            facts.add(fact_id)
    return frozenset(facts)


def result_mo(
    mo: MultidimensionalObject,
    requested: tuple[str, ...],
    rows: Iterable[Row],
) -> MultidimensionalObject:
    """The answer MO of ``a[requested]`` over *mo*, holding *rows*: its
    dimension types restrict to the categories ``>= C_i``."""
    new_dimensions: dict[str, Dimension] = {}
    dimension_types = []
    for name, category in zip(mo.schema.dimension_names, requested):
        dimension = mo.dimensions[name]
        hierarchy = dimension.dimension_type.hierarchy
        if category in (hierarchy.bottom, TOP):
            # Bottom: nothing to restrict.  TOP: the model cannot express a
            # dimension with only the top category, so the full dimension is
            # kept and facts simply map to the ALL value.
            new_dimensions[name] = dimension
            dimension_types.append(dimension.dimension_type)
            continue
        keep = [
            c
            for c in hierarchy.user_categories
            if hierarchy.le(category, c)
        ]
        sub = dimension.subdimension(keep)
        new_dimensions[name] = sub
        dimension_types.append(sub.dimension_type)
    schema = FactSchema(
        mo.schema.fact_type, dimension_types, mo.schema.measure_types
    )
    result = MultidimensionalObject(schema, new_dimensions)
    result.adopt_rows(
        (aggregate_fact_id(cell), cell, values, provenance)
        for cell, values, provenance in rows
    )
    return result
