"""Bound reduction actions (Section 4.1).

An :class:`Action` is a parsed action specification bound to a fact
schema: its ``Clist`` names exactly one target category per dimension and
its predicate atoms are validated against the schema (including the
well-formedness rule that an action never aggregates a dimension *above* a
category its own predicate still needs: ``Cat_i(a) <=_Ti C_pred``).

The module also provides the paper's auxiliary syntax functions ``Cat_i``
and ``Cat`` (Equations 7–8) and the action ordering ``<=_V`` (Equation 3).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping

from ..core.schema import DimensionType, FactSchema
from ..errors import SpecSemanticsError
from ..timedim.calendar import parse_value
from ..timedim.granularity import is_time_category
from ..timedim.now import AbsoluteTime, NowRelative, TimeTerm
from .ast import (
    ActionSyntax,
    And,
    Atom,
    CategoryRef,
    Not,
    Or,
    Predicate,
    TruePredicate,
    conjunction,
    disjunction,
)
from .dnf import to_dnf
from .parser import parse_action

_action_counter = itertools.count(1)


def is_time_dimension_type(dimension_type: DimensionType) -> bool:
    """A dimension type is time-like when all its categories are time
    categories; NOW-relative predicates are only legal on such dimensions."""
    hierarchy = dimension_type.hierarchy
    return all(is_time_category(c) for c in hierarchy.user_categories)


class Action:
    """One reduction action ``p(a[Clist] o[Pexp](O))`` bound to a schema."""

    def __init__(
        self,
        schema: FactSchema,
        granularity: Mapping[str, str] | Iterable[CategoryRef],
        predicate: Predicate,
        name: str | None = None,
        enforce_evaluability: bool = True,
    ) -> None:
        """Bind an action to *schema*.

        ``enforce_evaluability=False`` skips the ``Cat_i(a) <=_Ti C_pred``
        rule so that deliberately ill-formed actions — like the paper's
        ``a3``/``a4`` crossing examples — can still be constructed for
        demonstration and testing.
        """
        self.schema = schema
        self.name = name or f"action_{next(_action_counter)}"
        self.enforce_evaluability = enforce_evaluability
        #: Surface text and syntax tree when built via :meth:`parse`; they
        #: let static analyzers (``repro.lint``) map diagnostics back to
        #: source spans.
        self.source: str | None = None
        self.syntax: "ActionSyntax | None" = None
        if isinstance(granularity, Mapping):
            mapping = dict(granularity)
        else:
            mapping = {}
            for ref in granularity:
                if ref.dimension in mapping:
                    raise SpecSemanticsError(
                        f"{self.name}: Clist names dimension "
                        f"{ref.dimension!r} twice"
                    )
                mapping[ref.dimension] = ref.category
        self.granularity: tuple[str, ...] = schema.validate_granularity(mapping)
        self.predicate = _bind_predicate(schema, predicate, self.name)
        if enforce_evaluability:
            self._check_target_below_predicate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(
        cls,
        schema: FactSchema,
        source: str,
        name: str | None = None,
        enforce_evaluability: bool = True,
    ) -> "Action":
        syntax = parse_action(source)
        action = cls(
            schema,
            syntax.clist,
            syntax.predicate,
            name,
            enforce_evaluability=enforce_evaluability,
        )
        action.source = source
        action.syntax = syntax
        return action

    # ------------------------------------------------------------------
    # The paper's Cat functions and the <=_V order
    # ------------------------------------------------------------------

    def cat_i(self, dimension_name: str) -> str:
        """``Cat_i(a)``: the target category in *dimension_name* (Eq. 7)."""
        index = self.schema.dimension_index(dimension_name)
        return self.granularity[index]

    def cat(self) -> tuple[str, ...]:
        """``Cat(a)``: the full target granularity (Eq. 8)."""
        return self.granularity

    def le(self, other: "Action") -> bool:
        """``self <=_V other`` (Equation 3): componentwise ``<=_Ti``."""
        return self.schema.le_granularity(self.granularity, other.granularity)

    def comparable(self, other: "Action") -> bool:
        return self.le(other) or other.le(self)

    # ------------------------------------------------------------------
    # Predicate structure
    # ------------------------------------------------------------------

    def atoms(self) -> list[Atom]:
        return list(self.predicate.atoms())

    def is_now_relative(self) -> bool:
        """Whether the predicate mentions the NOW variable at all."""
        return any(atom.is_now_relative() for atom in self.atoms())

    def conjuncts(self) -> list[tuple[Atom, ...]]:
        """The DNF conjuncts of the predicate (Section 5.3 pre-processing)."""
        return to_dnf(self.predicate)

    def normalize(self) -> tuple["Action", ...]:
        """Split into one action per DNF disjunct (Section 5.3).

        The normalized set has exactly the same effect as the original
        action; each resulting predicate is a pure conjunction of range
        atoms.  An unsatisfiable predicate normalizes to no actions.
        """
        conjuncts = self.conjuncts()
        if conjuncts == [()]:
            return (
                Action(
                    self.schema,
                    self._granularity_mapping(),
                    TruePredicate(),
                    self.name,
                    enforce_evaluability=self.enforce_evaluability,
                ),
            )
        out = []
        for index, atoms in enumerate(conjuncts):
            suffix = "" if len(conjuncts) == 1 else f"#{index + 1}"
            out.append(
                Action(
                    self.schema,
                    self._granularity_mapping(),
                    conjunction(list(atoms)),
                    self.name + suffix,
                    enforce_evaluability=self.enforce_evaluability,
                )
            )
        return tuple(out)

    def _granularity_mapping(self) -> dict[str, str]:
        return dict(zip(self.schema.dimension_names, self.granularity))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _check_target_below_predicate(self) -> None:
        """Enforce ``Cat_i(a) <=_Ti C_pred`` for every predicate atom.

        This is the paper's rule that "an action will aggregate to a
        category not exceeding the one referred in its predicate, which
        ensures that the predicate can continuously be evaluated on the
        aggregated facts."
        """
        for atom in self.atoms():
            dimension_type = self.schema.dimension_type(atom.ref.dimension)
            target = self.cat_i(atom.ref.dimension)
            if not dimension_type.le(target, atom.ref.category):
                raise SpecSemanticsError(
                    f"{self.name}: aggregates {atom.ref.dimension!r} to "
                    f"{target!r} but its predicate constrains "
                    f"{atom.ref.category!r}, which is not >= the target; "
                    "the predicate could not be re-evaluated after reduction"
                )

    def __str__(self) -> str:
        cats = ", ".join(
            self.schema.dimension_type(name).qualify(category)
            for name, category in zip(self.schema.dimension_names, self.granularity)
        )
        return f"{self.name}: p(a[{cats}] o[{self.predicate}](O))"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Action({self})"


def _bind_predicate(
    schema: FactSchema, predicate: Predicate, action_name: str
) -> Predicate:
    """Validate atoms against the schema and normalize time literals."""

    def bind(node: Predicate) -> Predicate:
        if isinstance(node, Atom):
            return bind_atom(schema, node, action_name)
        if isinstance(node, Not):
            return Not(bind(node.operand))
        if isinstance(node, And):
            return conjunction([bind(p) for p in node.operands])
        if isinstance(node, Or):
            return disjunction([bind(p) for p in node.operands])
        return node

    return bind(predicate)


def bind_atom(schema: FactSchema, atom: Atom, action_name: str) -> Atom:
    """Validate one atom against *schema*, normalizing its time terms.

    Raises :class:`SpecSemanticsError` on unknown dimensions/categories or
    ill-typed time literals; the returned atom preserves the source span.
    """
    try:
        dimension_type = schema.dimension_type(atom.ref.dimension)
    except Exception:
        raise SpecSemanticsError(
            f"{action_name}: predicate mentions unknown dimension "
            f"{atom.ref.dimension!r}"
        ) from None
    if not dimension_type.has_category(atom.ref.category):
        raise SpecSemanticsError(
            f"{action_name}: dimension {atom.ref.dimension!r} has no "
            f"category {atom.ref.category!r}"
        )
    time_like = is_time_dimension_type(dimension_type)
    bound_terms: list[TimeTerm | str] = []
    for term in atom.terms:
        if isinstance(term, NowRelative):
            if not time_like:
                raise SpecSemanticsError(
                    f"{action_name}: NOW-relative term on non-time "
                    f"dimension {atom.ref.dimension!r}"
                )
            bound_terms.append(term)
        elif isinstance(term, AbsoluteTime):
            if term.category != atom.ref.category:
                raise SpecSemanticsError(
                    f"{action_name}: time literal {term.value!r} has "
                    f"category {term.category!r} but the atom compares at "
                    f"{atom.ref.category!r}"
                )
            bound_terms.append(term)
        elif time_like and not _is_top_category(atom.ref.category):
            # Raw string literal on a time dimension: type it now, which
            # also validates and canonicalizes the encoding (Table 1's
            # requirement Type(tt) = C_Time).
            bound_terms.append(
                AbsoluteTime(atom.ref.category, parse_value(atom.ref.category, term))
            )
        else:
            bound_terms.append(term)
    return Atom(atom.ref, atom.op, tuple(bound_terms), span=atom.span)


def _is_top_category(category: str) -> bool:
    from ..core.hierarchy import is_top

    return is_top(category)


def resolve_terms(
    atom: Atom, now, category: str | None = None
) -> tuple[str, ...]:
    """Evaluate the atom's terms at time *now* into concrete values."""
    target = category or atom.ref.category
    out: list[str] = []
    for term in atom.terms:
        if isinstance(term, TimeTerm):
            out.append(term.evaluate(now, target))
        else:
            out.append(term)
    return tuple(out)


GranularityKey = Callable[[Action], tuple[str, ...]]
