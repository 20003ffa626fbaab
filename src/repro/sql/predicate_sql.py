"""Translation of specification predicates to SQL (Definition 5 semantics).

Each atom compiles to a disjunction over the *possible categories of the
fact's direct value*: for fact values that roll up to the atom's category
the ancestor-closure row is compared directly; for coarser or parallel
values the Definition 5 drill-down conditions are expressed against the
descendant-closure table (all-below-min for ``<``, none-above-max for
``<=``, containment plus cardinality for ``=``/``in``).  Constants are
resolved in Python at translation time — including ``NOW``-terms, so a
translated predicate is specific to one evaluation time, exactly like the
paper's synchronization queries.

``NOT`` switches its operand to the *liberal* translation (some drill-down
value satisfies the atom), as the in-memory evaluator does: a fact
certainly satisfies ``NOT p`` only when it cannot possibly satisfy ``p``.
"""

from __future__ import annotations

import datetime as _dt

from ..core.dimension import ALL_VALUE, Dimension
from ..core.hierarchy import TOP
from ..errors import StorageError
from ..spec.action import resolve_terms
from ..spec.ast import (
    And,
    Atom,
    FalsePredicate,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from .ddl import sql_ident
from .loader import SqlWarehouse, encode_sort_key

_OP_SQL = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=", "!=": "<>"}


def predicate_to_sql(
    warehouse: SqlWarehouse,
    predicate: Predicate,
    now: _dt.date,
    liberal: bool = False,
) -> tuple[str, list[object]]:
    """A WHERE-clause fragment (over table alias ``facts``) plus params.

    Conservative by default; *liberal* selects the facts that might
    satisfy *predicate*.
    """
    if isinstance(predicate, TruePredicate):
        return "1 = 1", []
    if isinstance(predicate, FalsePredicate):
        return "0 = 1", []
    if isinstance(predicate, Not):
        inner, params = predicate_to_sql(
            warehouse, predicate.operand, now, not liberal
        )
        return f"NOT ({inner})", params
    if isinstance(predicate, And):
        parts, params = _join(warehouse, predicate.operands, now, liberal)
        return "(" + " AND ".join(parts) + ")", params
    if isinstance(predicate, Or):
        parts, params = _join(warehouse, predicate.operands, now, liberal)
        return "(" + " OR ".join(parts) + ")", params
    if isinstance(predicate, Atom):
        return _atom_to_sql(warehouse, predicate, now, liberal)
    raise StorageError(f"cannot translate predicate {predicate!r}")


def _join(warehouse, operands, now, liberal):
    parts: list[str] = []
    params: list[object] = []
    for operand in operands:
        sql, sub_params = predicate_to_sql(warehouse, operand, now, liberal)
        parts.append(sql)
        params.extend(sub_params)
    return parts, params


def _atom_to_sql(
    warehouse: SqlWarehouse, atom: Atom, now: _dt.date, liberal: bool
) -> tuple[str, list[object]]:
    name = atom.ref.dimension
    ident = sql_ident(name)
    dimension = warehouse.dimensions[name]
    category = atom.ref.category
    rights = resolve_terms(atom, now)

    if category == TOP:
        # ``URL.T op T``: decided entirely in Python.
        ok = _top_atom(atom.op, rights)
        if ok:
            return "1 = 1", []
        if liberal:
            # A fact unknown in this dimension might satisfy anything.
            return f"facts.c_{ident} = ?", [TOP]
        return "0 = 1", []

    hierarchy = dimension.dimension_type.hierarchy
    branches: list[str] = []
    params: list[object] = []
    for fact_category in hierarchy.user_categories:
        if hierarchy.le(fact_category, category):
            sql, sub = _rollup_branch(ident, fact_category, category, atom.op, rights, dimension)
        else:
            sql, sub = _drilldown_branch(
                ident, dimension, fact_category, category, atom.op, rights, liberal
            )
        if sql is not None:
            branches.append(sql)
            params.extend(sub)
    if liberal:
        branches.append(f"facts.c_{ident} = ?")
        params.append(TOP)
    if not branches:
        return "0 = 1", []
    return "(" + " OR ".join(branches) + ")", params


def _top_atom(op: str, rights: tuple[str, ...]) -> bool:
    if op == "in":
        return ALL_VALUE in rights
    if op == "=":
        return rights[0] == ALL_VALUE
    if op == "!=":
        return rights[0] != ALL_VALUE
    raise StorageError(f"order comparison {op!r} on a top category")


def _rollup_branch(
    ident: str,
    fact_category: str,
    category: str,
    op: str,
    rights: tuple[str, ...],
    dimension: Dimension,
) -> tuple[str | None, list[object]]:
    """Fact value rolls up to the atom's category: compare the ancestor."""
    anc = (
        f"SELECT 1 FROM {ident}_anc a WHERE a.value = facts.d_{ident} "
        f"AND a.category = ?"
    )
    params: list[object] = [fact_category, category]
    if op == "in":
        marks = ", ".join("?" for _ in rights)
        condition = f"{anc} AND a.ancestor IN ({marks})"
        params.extend(rights)
    elif op in ("=", "!="):
        condition = f"{anc} AND a.ancestor {_OP_SQL[op]} ?"
        params.append(rights[0])
    else:
        key = encode_sort_key(dimension.sort_value(category, _canon(dimension, category, rights[0])))
        condition = f"{anc} AND a.ancestor_key {_OP_SQL[op]} ?"
        params.append(key)
    return (
        f"(facts.c_{ident} = ? AND EXISTS ({condition}))",
        params,
    )


def _drilldown_branch(
    ident: str,
    dimension: Dimension,
    fact_category: str,
    category: str,
    op: str,
    rights: tuple[str, ...],
    liberal: bool,
) -> tuple[str | None, list[object]]:
    """Fact value is coarser/parallel: Definition 5 via the desc closure.

    Conservative: every drill-down value of the fact satisfies the atom;
    liberal: some does.
    """
    hierarchy = dimension.dimension_type.hierarchy
    glb = hierarchy.glb({fact_category, category})
    extents = [_drill_extent(dimension, value, category, glb) for value in rights]
    desc = (
        f"SELECT 1 FROM {ident}_desc x WHERE x.value = facts.d_{ident} "
        f"AND x.category = ?"
    )
    nonempty = f"EXISTS ({desc})"
    head = f"facts.c_{ident} = ?"
    params: list[object] = [fact_category, glb]
    if any(extent is None for extent in extents):
        # Undecidable constant: no fact certainly satisfies the atom, every
        # fact with a drill-down might.
        if liberal:
            return f"({head} AND {nonempty})", params
        return None, []

    if op in ("<", "<=", ">", ">="):
        min_key, max_key, _members = extents[0]
        bound = min_key if op in ("<", ">=") else max_key
        if liberal:
            condition = f"EXISTS ({desc} AND x.descendant_key {op} ?)"
        else:
            condition = (
                f"{nonempty} AND NOT EXISTS "
                f"({desc} AND NOT (x.descendant_key {op} ?))"
            )
            params.append(glb)
        params.append(bound)
        return f"({head} AND {condition})", params

    tests: list[str] = []
    test_params: list[object] = []
    for extent in extents:
        contains, contains_params = _contains(extent)
        tests.append(contains)
        test_params.extend(contains_params)
    witness = " OR ".join(tests)
    members = extents[0][2]
    count = (
        f"(SELECT COUNT(*) FROM {ident}_desc x WHERE "
        f"x.value = facts.d_{ident} AND x.category = ?)"
    )
    if op == "!=":
        # Some descendant outside, or the sets provably differ.  The
        # conservative and liberal readings coincide.
        condition = f"EXISTS ({desc} AND NOT ({witness}))"
        params.extend(test_params)
        if members:
            condition = f"{condition} OR ({nonempty} AND {count} <> ?)"
            params.extend([glb, glb, len(members)])
        return f"({head} AND ({condition}))", params
    if liberal:
        params.extend(test_params)
        return f"({head} AND EXISTS ({desc} AND ({witness})))", params
    if op == "=" and not members:
        return None, []  # inexact constant: never provably equal
    condition = f"{nonempty} AND NOT EXISTS ({desc} AND NOT ({witness}))"
    params.append(glb)
    params.extend(test_params)
    if op == "=":
        # Exact set equality: containment + cardinality.
        condition = f"{condition} AND {count} = ?"
        params.extend([glb, len(members)])
    return f"({head} AND {condition})", params


def _contains(
    extent: tuple[str, str, frozenset[str]]
) -> tuple[str, list[object]]:
    """Whether drill-down value ``x`` lies in a constant's extent."""
    min_key, max_key, members = extent
    if members:
        marks = ", ".join("?" for _ in members)
        return f"x.descendant IN ({marks})", sorted(members)
    # A time constant known only by its calendar span.
    return "x.descendant_key BETWEEN ? AND ?", [min_key, max_key]


def _drill_extent(
    dimension: Dimension, value: str, category: str, glb: str
) -> tuple[str, str, frozenset[str]] | None:
    """(min_key, max_key, members) of the constant at the GLB category."""
    from ..timedim.calendar import first_day, last_day, ordinal, parse_value, value_at
    from ..timedim.granularity import is_time_category

    if value in dimension and dimension.category_of(value) == category:
        if category == glb:
            members = frozenset({value})
        else:
            members = dimension.descendants_at(value, glb)
        if not members:
            return None
        keys = sorted(
            encode_sort_key(dimension.sort_value(glb, v)) for v in members
        )
        return keys[0], keys[-1], members
    if category == glb:
        if is_time_category(category):
            value = parse_value(category, value)
        key = encode_sort_key(dimension.sort_value(glb, value))
        return key, key, frozenset({value})
    if is_time_category(category) and is_time_category(glb):
        lo = first_day(category, value)
        hi = last_day(category, value)
        min_key = encode_sort_key(ordinal(glb, value_at(lo, glb)))
        max_key = encode_sort_key(ordinal(glb, value_at(hi, glb)))
        # Members cannot be enumerated exactly without materialization; the
        # order branches use only the keys, =/in callers get None.
        return min_key, max_key, frozenset()
    return None


def _canon(dimension: Dimension, category: str, value: str) -> str:
    from ..timedim.calendar import parse_value
    from ..timedim.granularity import is_time_category

    if is_time_category(category):
        return parse_value(category, value)
    return value
