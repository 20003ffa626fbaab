"""Abstract syntax for data-reduction action specifications (Table 1).

An action is ``p(a[Clist] o[Pexp](O))``.  The predicate grammar builds
boolean combinations of *atoms*; an atom compares one dimension category
(e.g. ``Time.month`` or ``URL.domain_grp``) against a literal value, a
``NOW``-relative time term, or a set of such terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..errors import SpecSyntaxError
from ..timedim.now import NowRelative, TimeTerm

COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "!=")


@dataclass(frozen=True)
class SourceSpan:
    """Half-open ``[start, end)`` character offsets into an action source.

    Spans are attached to AST nodes by the parser (and preserved through
    binding and DNF rewriting) so that static diagnostics can point at the
    exact piece of specification text that triggered them.  They never
    participate in node equality or hashing.
    """

    start: int
    end: int

    def union(self, other: "SourceSpan | None") -> "SourceSpan":
        if other is None:
            return self
        return SourceSpan(min(self.start, other.start), max(self.end, other.end))


def union_spans(spans: "Sequence[SourceSpan | None]") -> SourceSpan | None:
    """The smallest span covering all non-``None`` *spans* (or ``None``)."""
    out: SourceSpan | None = None
    for span in spans:
        if span is None:
            continue
        out = span if out is None else out.union(span)
    return out


@dataclass(frozen=True)
class CategoryRef:
    """A qualified category reference ``Dimension.category``.

    The paper writes the top category as ``URL.T``; the parser maps the
    literal name ``T`` to the internal top marker before constructing the
    reference, so ``category`` is always an internal category name.
    """

    dimension: str
    category: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.dimension}.{self.category}"


class Predicate:
    """Base class for predicate AST nodes."""

    def atoms(self) -> Iterator["Atom"]:
        raise NotImplementedError

    def children(self) -> Sequence["Predicate"]:
        return ()


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The constant TRUE (selects every cell)."""

    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def atoms(self) -> Iterator["Atom"]:
        return iter(())

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class FalsePredicate(Predicate):
    """The constant FALSE (selects nothing)."""

    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def atoms(self) -> Iterator["Atom"]:
        return iter(())

    def __str__(self) -> str:
        return "FALSE"


@dataclass(frozen=True)
class Atom(Predicate):
    """``ref op term`` or ``ref in {terms}``.

    ``terms`` holds :class:`TimeTerm` objects for time comparisons and
    plain strings for non-time comparisons; for the comparison operators it
    has exactly one element.
    """

    ref: CategoryRef
    op: str
    terms: tuple[TimeTerm | str, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS and self.op != "in":
            raise SpecSyntaxError(f"unknown operator {self.op!r}")
        if self.op != "in" and len(self.terms) != 1:
            raise SpecSyntaxError(
                f"operator {self.op!r} takes exactly one operand"
            )
        if self.op == "in" and not self.terms:
            raise SpecSyntaxError("'in' needs at least one value")

    @property
    def term(self) -> TimeTerm | str:
        return self.terms[0]

    def is_now_relative(self) -> bool:
        return any(
            isinstance(t, TimeTerm) and t.is_now_relative for t in self.terms
        )

    def atoms(self) -> Iterator["Atom"]:
        yield self

    def __str__(self) -> str:
        if self.op == "in":
            inner = ", ".join(_term_str(t) for t in self.terms)
            return f"{self.ref} IN {{{inner}}}"
        return f"{self.ref} {self.op} {_term_str(self.terms[0])}"


@dataclass(frozen=True)
class Not(Predicate):
    """Logical negation of one predicate."""

    operand: Predicate
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def atoms(self) -> Iterator[Atom]:
        return self.operand.atoms()

    def children(self) -> Sequence[Predicate]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two or more predicates."""

    operands: tuple[Predicate, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise SpecSyntaxError("AND needs at least two operands")

    def atoms(self) -> Iterator[Atom]:
        for operand in self.operands:
            yield from operand.atoms()

    def children(self) -> Sequence[Predicate]:
        return self.operands

    def __str__(self) -> str:
        return " AND ".join(_paren(p) for p in self.operands)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two or more predicates."""

    operands: tuple[Predicate, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise SpecSyntaxError("OR needs at least two operands")

    def atoms(self) -> Iterator[Atom]:
        for operand in self.operands:
            yield from operand.atoms()

    def children(self) -> Sequence[Predicate]:
        return self.operands

    def __str__(self) -> str:
        return " OR ".join(_paren(p) for p in self.operands)


def conjunction(parts: Sequence[Predicate]) -> Predicate:
    """AND of *parts*, flattening trivial cases."""
    flat: list[Predicate] = []
    for part in parts:
        if isinstance(part, TruePredicate):
            continue
        if isinstance(part, FalsePredicate):
            return FalsePredicate()
        if isinstance(part, And):
            flat.extend(part.operands)
        else:
            flat.append(part)
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(parts: Sequence[Predicate]) -> Predicate:
    """OR of *parts*, flattening trivial cases."""
    flat: list[Predicate] = []
    for part in parts:
        if isinstance(part, FalsePredicate):
            continue
        if isinstance(part, TruePredicate):
            return TruePredicate()
        if isinstance(part, Or):
            flat.extend(part.operands)
        else:
            flat.append(part)
    if not flat:
        return FalsePredicate()
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


@dataclass(frozen=True)
class ActionSyntax:
    """The parsed surface form of ``p(a[Clist] o[Pexp](O))``."""

    clist: tuple[CategoryRef, ...]
    predicate: Predicate
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        cats = ", ".join(str(ref) for ref in self.clist)
        return f"p(a[{cats}] o[{self.predicate}](O))"


def _term_str(term: TimeTerm | str) -> str:
    # Absolute time literals are quoted like any other value (the
    # parser reads ``1999/12`` unquoted as a syntax error).
    if isinstance(term, NowRelative):
        return str(term)
    return f"'{term}'"


def _paren(predicate: Predicate) -> str:
    if isinstance(predicate, (Or, And)):
        return f"({predicate})"
    return str(predicate)
