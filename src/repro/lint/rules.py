"""The lint rule catalog and the semantic checker implementations.

Every diagnostic the engine can produce carries a stable ``SDR`` code
registered here.  Codes are grouped by family:

* ``SDR0xx`` — front-end findings (syntax, name resolution, binding),
  emitted by :mod:`repro.lint.engine` while it parses and binds actions;
* ``SDR1xx`` — semantic findings over bound actions, produced by the
  checker functions in this module.

The two paper soundness conditions are deliberately *re-expressed* as
lint rules on top of :func:`repro.checks.noncrossing.check_noncrossing`
and :func:`repro.checks.growing.check_growing`, so the lint verdict can
never diverge from the insert-time gates of
:class:`repro.spec.specification.ReductionSpecification`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..analysis.matrix import Verdict
from ..analysis.reach import coarser_actions
from ..checks.growing import check_growing
from ..checks.noncrossing import check_noncrossing
from ..core.hierarchy import is_top
from ..core.measures import resolve_aggregate
from ..errors import MeasureError, ReproError
from ..spec.action import is_time_dimension_type
from ..spec.ast import Atom, union_spans
from ..timedim.calendar import first_day, last_day
from ..timedim.now import AbsoluteTime, NowRelative
from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintContext


@dataclass(frozen=True)
class Rule:
    """Registry metadata of one lint rule."""

    code: str
    name: str
    severity: Severity
    summary: str
    paper: str
    hint: str | None = None


_RULE_DEFS = (
    Rule(
        "SDR001",
        "spec-syntax",
        Severity.ERROR,
        "The action does not conform to the Table 1 grammar.",
        "Section 4.1, Table 1",
    ),
    Rule(
        "SDR002",
        "unknown-dimension",
        Severity.ERROR,
        "A Clist entry or predicate atom names a dimension the fact schema "
        "does not have.",
        "Section 3",
    ),
    Rule(
        "SDR003",
        "unknown-category",
        Severity.ERROR,
        "A category reference is not part of the dimension's category "
        "lattice.",
        "Section 3",
        hint="check the dimension's hierarchy for the spelling of the "
        "category",
    ),
    Rule(
        "SDR004",
        "malformed-clist",
        Severity.ERROR,
        "The Clist must name exactly one target category per dimension of "
        "the fact schema.",
        "Section 4.1",
    ),
    Rule(
        "SDR005",
        "bad-term",
        Severity.ERROR,
        "A predicate term cannot be bound against the schema (ill-typed "
        "time literal or unsupported category).",
        "Section 4.1, Table 1",
    ),
    Rule(
        "SDR006",
        "duplicate-action-name",
        Severity.ERROR,
        "Two actions in the specification share a name.",
        "Definition 1",
    ),
    Rule(
        "SDR101",
        "unevaluable-target",
        Severity.ERROR,
        "The action aggregates a dimension above a category its own "
        "predicate still constrains, so the predicate could not be "
        "re-evaluated after the action fires.",
        "Section 4.1 (Cat_i(a) <=_Ti C_pred)",
        hint="lower the aggregation target or coarsen the predicate "
        "category",
    ),
    Rule(
        "SDR102",
        "crossing-actions",
        Severity.ERROR,
        "Two actions can select the same cell while their target "
        "granularities are incomparable under <=_V (NonCrossing "
        "violation).",
        "Sections 4.3 and 5.2, Equation 14",
        hint="make the targets comparable or the predicates disjoint",
    ),
    Rule(
        "SDR103",
        "not-growing",
        Severity.ERROR,
        "A shrinking action stops selecting cells that no <=_V-larger "
        "action takes over, letting aggregation levels decrease (Growing "
        "violation).",
        "Sections 4.3 and 5.3, Equations 17 and 23",
        hint="add a catcher action that covers the trailing edge at a "
        "granularity at least as coarse",
    ),
    Rule(
        "SDR104",
        "unsatisfiable-predicate",
        Severity.ERROR,
        "The predicate can never select a cell at any evaluation time; the "
        "action is unreachable.",
        "Section 5.2 (satisfiability checking)",
    ),
    Rule(
        "SDR105",
        "unsatisfiable-disjunct",
        Severity.WARNING,
        "One disjunct of the predicate's DNF is unsatisfiable and "
        "contributes nothing.",
        "Section 5.3 (DNF pre-processing)",
    ),
    Rule(
        "SDR106",
        "shadowed-action",
        Severity.WARNING,
        "Every cell the action selects is always claimed by a "
        "<=_V-coarser action as well, so this action never determines a "
        "fact's granularity.",
        "Section 4.2 (the <=_V order and max-granularity semantics)",
        hint="delete the action or narrow the coarser action's predicate",
    ),
    Rule(
        "SDR107",
        "future-reference",
        Severity.WARNING,
        "A NOW-relative term reaches into the future (NOW + span); cells "
        "are selected before their data can exist.",
        "Section 4.1 (NOW-relative time terms)",
    ),
    Rule(
        "SDR108",
        "redundant-now-bound",
        Severity.INFO,
        "A NOW-relative bound is subsumed by a tighter bound in the same "
        "conjunct, or spells redundant NOW arithmetic.",
        "Section 4.3 (boundary categories)",
    ),
    Rule(
        "SDR109",
        "redundant-disjunct",
        Severity.INFO,
        "A DNF disjunct is implied by a more general disjunct of the same "
        "predicate.",
        "Section 5.3 (DNF pre-processing)",
    ),
    Rule(
        "SDR110",
        "bottom-no-op",
        Severity.INFO,
        "The action aggregates every dimension to its bottom category, so "
        "it never changes a fact (a no-op outside disjoint rewrites).",
        "Section 7.1",
    ),
    Rule(
        "SDR111",
        "non-distributive-aggregate",
        Severity.WARNING,
        "A measure declares a non-distributive default aggregate; gradual "
        "re-aggregation (Definition 2) would be unsound.",
        "Section 3",
        hint="use a distributive aggregate (sum, count, min, max)",
    ),
    Rule(
        "SDR201",
        "dead-action",
        Severity.WARNING,
        "The action is satisfiable, but the union of coarser-or-equal "
        "actions always claims every cell it admits, so it never "
        "determines a fact's granularity.",
        "Sections 4.2 and 7.1 (union coverage)",
        hint="delete the action or narrow the covering actions' "
        "predicates",
    ),
    Rule(
        "SDR202",
        "shadowed-disjunct",
        Severity.WARNING,
        "One disjunct of the predicate is always claimed by a "
        "coarser-or-equal action and contributes nothing.",
        "Section 5.3 (DNF pre-processing)",
    ),
    Rule(
        "SDR203",
        "overlapping-same-granularity",
        Severity.INFO,
        "Two actions at the same target granularity provably admit a "
        "common cell; their subcubes merge and cannot shard apart.",
        "Section 7.1",
    ),
    Rule(
        "SDR204",
        "vacuous-atom",
        Severity.INFO,
        "A predicate atom constrains nothing: it admits every value of "
        "its category, excludes a value the dimension does not have, or "
        "is subsumed by a tighter absolute bound in the same conjunct.",
        "Section 4.1, Table 1",
    ),
    Rule(
        "SDR205",
        "always-true-residual",
        Severity.WARNING,
        "Every action predicate is unsatisfiable, so the residual claims "
        "all facts and the specification never changes anything.",
        "Section 7.1 (the residual action)",
    ),
)

#: Stable code -> rule, in catalog order.
RULES: dict[str, Rule] = {rule.code: rule for rule in _RULE_DEFS}

Checker = Callable[["LintContext"], Iterable[Diagnostic]]

#: Semantic checkers, run by the engine over the bound action set.
CHECKERS: list[tuple[Rule, Checker]] = []


def checker(code: str) -> Callable[[Checker], Checker]:
    def register(function: Checker) -> Checker:
        CHECKERS.append((RULES[code], function))
        return function

    return register


# ----------------------------------------------------------------------
# SDR101 — evaluability of targets against predicate categories
# ----------------------------------------------------------------------

@checker("SDR101")
def check_unevaluable_target(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        for atom in action.atoms():
            dimension_type = action.schema.dimension_type(atom.ref.dimension)
            target = action.cat_i(atom.ref.dimension)
            if not dimension_type.le(target, atom.ref.category):
                yield ctx.diagnostic(
                    "SDR101",
                    f"action {action.name!r} aggregates "
                    f"{atom.ref.dimension!r} to {target!r} but its predicate "
                    f"constrains {atom.ref.category!r}, which is not above "
                    "the target",
                    entry=entry,
                    span=atom.span,
                )


# ----------------------------------------------------------------------
# SDR102 / SDR103 — the paper's soundness conditions as lint rules
# ----------------------------------------------------------------------

@checker("SDR102")
def check_rule_noncrossing(ctx: "LintContext") -> Iterator[Diagnostic]:
    actions = [entry.action for entry in ctx.bound]
    for violation in check_noncrossing(actions, ctx.prover):
        entry = ctx.entry_for(violation.second) or ctx.entry_for(
            violation.first
        )
        yield ctx.diagnostic("SDR102", str(violation), entry=entry)


@checker("SDR103")
def check_rule_growing(ctx: "LintContext") -> Iterator[Diagnostic]:
    actions = [entry.action for entry in ctx.bound]
    for violation in check_growing(actions, ctx.prover):
        yield ctx.diagnostic(
            "SDR103", str(violation), entry=ctx.entry_for(violation.action)
        )


# ----------------------------------------------------------------------
# SDR104 / SDR105 — satisfiability via the bounded prover
# ----------------------------------------------------------------------

@checker("SDR104")
def check_unsatisfiable(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        profiles = entry.profiles
        if not profiles:
            yield ctx.diagnostic(
                "SDR104",
                f"action {action.name!r} has predicate FALSE and can never "
                "fire",
                entry=entry,
            )
            continue
        live = ctx.prover.live(action)
        if not live:
            yield ctx.diagnostic(
                "SDR104",
                f"the predicate of action {action.name!r} is unsatisfiable "
                "at every evaluation time on the prover horizon",
                entry=entry,
            )
            continue
        for atoms, profile in zip(action.conjuncts(), profiles):
            if profile in live:
                continue
            span = union_spans([a.span for a in atoms])
            rendered = " AND ".join(str(a) for a in atoms)
            yield ctx.diagnostic(
                "SDR105",
                f"disjunct [{rendered}] of action {action.name!r} is "
                "unsatisfiable",
                entry=entry,
                span=span,
            )


# ----------------------------------------------------------------------
# SDR106 — dead / shadowed actions
# ----------------------------------------------------------------------

@checker("SDR106")
def check_shadowed(ctx: "LintContext") -> Iterator[Diagnostic]:
    for name, container in ctx.shadowed.items():
        yield ctx.diagnostic(
            "SDR106",
            f"action {name!r} is shadowed by "
            f"{container!r}: every cell it selects is always "
            "claimed at a granularity at least as coarse",
            entry=ctx.entry_for(name),
        )


# ----------------------------------------------------------------------
# SDR107 / SDR108 — NOW misuse
# ----------------------------------------------------------------------

@checker("SDR107")
def check_future_reference(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        for atom in action.atoms():
            if any(
                isinstance(term, NowRelative) and term.sign > 0
                for term in atom.terms
            ):
                yield ctx.diagnostic(
                    "SDR107",
                    f"action {action.name!r} compares against a future "
                    f"time (NOW + span) in [{atom}]",
                    entry=entry,
                    span=atom.span,
                )


def _now_bound_atoms(
    atoms: Iterable[Atom],
) -> Iterator[tuple[Atom, NowRelative, str]]:
    """Comparison atoms with a single NOW-relative term, with direction."""
    for atom in atoms:
        if atom.op in ("<", "<="):
            direction = "upper"
        elif atom.op in (">", ">="):
            direction = "lower"
        else:
            continue
        term = atom.terms[0]
        if isinstance(term, NowRelative):
            yield atom, term, direction


@checker("SDR108")
def check_redundant_now_bounds(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        for atom in action.atoms():
            for term in atom.terms:
                if (
                    isinstance(term, NowRelative)
                    and term.span is not None
                    and term.span.count == 0
                ):
                    yield ctx.diagnostic(
                        "SDR108",
                        f"zero-length offset in [{atom}]: "
                        f"`{term}` is just NOW",
                        entry=entry,
                        span=atom.span,
                    )
        for atoms in action.conjuncts():
            groups: dict[tuple[str, str, str], list[tuple[Atom, int]]] = {}
            for atom, term, direction in _now_bound_atoms(atoms):
                key = (atom.ref.dimension, atom.ref.category, direction)
                groups.setdefault(key, []).append((atom, term.offset_days()))
            for (_, _, direction), members in groups.items():
                if len(members) < 2:
                    continue
                offsets = [offset for _, offset in members]
                best = min(offsets) if direction == "upper" else max(offsets)
                for atom, offset in members:
                    if offset == best:
                        continue
                    yield ctx.diagnostic(
                        "SDR108",
                        f"bound [{atom}] in action {action.name!r} is "
                        "subsumed by a tighter NOW-relative bound in the "
                        "same conjunct",
                        entry=entry,
                        span=atom.span,
                    )


# ----------------------------------------------------------------------
# SDR109 — redundant DNF disjuncts
# ----------------------------------------------------------------------

@checker("SDR109")
def check_redundant_disjunct(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        conjuncts = action.conjuncts()
        if len(conjuncts) < 2:
            continue
        atom_sets = [frozenset(atoms) for atoms in conjuncts]
        for index, atom_set in enumerate(atom_sets):
            if any(
                j != index and other < atom_set
                for j, other in enumerate(atom_sets)
            ):
                rendered = " AND ".join(str(a) for a in conjuncts[index])
                yield ctx.diagnostic(
                    "SDR109",
                    f"disjunct [{rendered}] of action {action.name!r} is "
                    "implied by a more general disjunct and can be dropped",
                    entry=entry,
                    span=union_spans([a.span for a in conjuncts[index]]),
                )


# ----------------------------------------------------------------------
# SDR110 — bottom-granularity no-ops
# ----------------------------------------------------------------------

@checker("SDR110")
def check_bottom_noop(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        if action.cat() == action.schema.bottom_granularity():
            yield ctx.diagnostic(
                "SDR110",
                f"action {action.name!r} aggregates to the bottom "
                "granularity in every dimension and never changes a fact",
                entry=entry,
            )


# ----------------------------------------------------------------------
# SDR201 / SDR202 — semantic-analyzer reachability findings
# ----------------------------------------------------------------------

@checker("SDR201")
def check_dead_action(ctx: "LintContext") -> Iterator[Diagnostic]:
    if len(ctx.bound) < 2:
        return
    for name, catchers in ctx.reach.dead.items():
        if name in ctx.shadowed:
            continue  # the single-container case is SDR106's finding
        covered_by = ", ".join(repr(c) for c in catchers)
        yield ctx.diagnostic(
            "SDR201",
            f"action {name!r} is dead: the union of {covered_by} always "
            "claims every cell it admits",
            entry=ctx.entry_for(name),
        )


@checker("SDR202")
def check_shadowed_disjunct(ctx: "LintContext") -> Iterator[Diagnostic]:
    bound = ctx.bound
    if len(bound) < 2:
        return
    prover = ctx.prover
    for i, entry in enumerate(bound):
        action = entry.action
        assert action is not None
        if action.name in ctx.shadowed:
            continue  # the whole action is SDR106's finding
        conjuncts = action.conjuncts()
        if len(conjuncts) < 2:
            continue  # a single disjunct would shadow the whole action
        live = prover.live(action)
        for atoms, profile in zip(conjuncts, entry.profiles):
            if profile not in live:
                continue  # unsatisfiable disjuncts are SDR105's business
            container = next(
                (
                    other.name
                    for other in coarser_actions(ctx.actions, i)
                    if any(
                        prover.contained(profile, q)
                        for q in prover.profiles(other)
                    )
                ),
                None,
            )
            if container is not None:
                rendered = " AND ".join(str(a) for a in atoms)
                yield ctx.diagnostic(
                    "SDR202",
                    f"disjunct [{rendered}] of action {action.name!r} is "
                    f"always claimed by {container!r} and contributes "
                    "nothing",
                    entry=entry,
                    span=union_spans([a.span for a in atoms]),
                )


# ----------------------------------------------------------------------
# SDR203 — same-granularity overlaps from the relationship matrix
# ----------------------------------------------------------------------

@checker("SDR203")
def check_same_granularity_overlap(
    ctx: "LintContext",
) -> Iterator[Diagnostic]:
    actions = ctx.actions
    pairs = [
        (a, b)
        for i, a in enumerate(actions)
        for b in actions[i + 1:]
        if a.cat() == b.cat()
    ]
    for a, b in pairs:
        relation = ctx.matrix.get(a.name, b.name)
        if relation is None or relation.verdict is not Verdict.OVERLAPPING:
            continue
        detail = ""
        if relation.witness is not None:
            witness = relation.witness
            cell = ", ".join(f"{k}={v}" for k, v in witness.cell)
            detail = (
                f" (witness at {witness.at.isoformat()}"
                + (f": {cell}" if cell else "")
                + ")"
            )
        yield ctx.diagnostic(
            "SDR203",
            f"actions {a.name!r} and {b.name!r} target the same "
            f"granularity and provably admit a common cell{detail}; "
            "their subcubes merge and cannot shard apart",
            entry=ctx.entry_for(b.name) or ctx.entry_for(a.name),
        )


# ----------------------------------------------------------------------
# SDR204 — vacuous predicate atoms
# ----------------------------------------------------------------------

def _vacuous_categorical(
    ctx: "LintContext", action, atom: Atom
) -> str | None:
    name = atom.ref.dimension
    if is_time_dimension_type(action.schema.dimension_type(name)):
        return None
    dimensions = ctx.prover.dimensions
    if dimensions is None or name not in dimensions:
        return None
    category = atom.ref.category
    if is_top(category):
        return None
    try:
        domain = dimensions[name].values(category)
    except ReproError:
        return None
    values = {term for term in atom.terms if isinstance(term, str)}
    if len(values) != len(atom.terms):
        return None  # symbolic terms cannot be grounded
    if atom.op in ("=", "in") and domain and domain <= values:
        return (
            f"[{atom}] in action {action.name!r} admits every "
            f"{category!r} value of dimension {name!r} and constrains "
            "nothing"
        )
    if atom.op == "!=" and not (values & domain):
        return (
            f"[{atom}] in action {action.name!r} excludes only values "
            f"the {name!r} dimension does not have"
        )
    return None


def _absolute_day_bounds(
    atoms: Iterable[Atom],
) -> Iterator[tuple[Atom, str, int]]:
    """Comparison atoms bounding by an absolute time value, as
    ``(atom, direction, inclusive day ordinal of the bound)``."""
    for atom in atoms:
        if atom.op in ("<", "<="):
            direction = "upper"
        elif atom.op in (">", ">="):
            direction = "lower"
        else:
            continue
        term = atom.terms[0]
        if not isinstance(term, AbsoluteTime):
            continue
        if direction == "upper":
            day = last_day(term.category, term.value).toordinal()
            if atom.op == "<":
                day -= 1
        else:
            day = first_day(term.category, term.value).toordinal()
            if atom.op == ">":
                day += 1
        yield atom, direction, day


@checker("SDR204")
def check_vacuous_atom(ctx: "LintContext") -> Iterator[Diagnostic]:
    for entry in ctx.bound:
        action = entry.action
        assert action is not None
        seen: set[Atom] = set()
        for atom in action.atoms():
            if atom in seen:
                continue
            seen.add(atom)
            message = _vacuous_categorical(ctx, action, atom)
            if message:
                yield ctx.diagnostic(
                    "SDR204", message, entry=entry, span=atom.span
                )
        for atoms in action.conjuncts():
            groups: dict[tuple[str, str], list[tuple[Atom, int]]] = {}
            for atom, direction, day in _absolute_day_bounds(atoms):
                key = (atom.ref.dimension, direction)
                groups.setdefault(key, []).append((atom, day))
            for (_, direction), members in groups.items():
                if len(members) < 2:
                    continue
                days = [day for _, day in members]
                best = min(days) if direction == "upper" else max(days)
                for atom, day in members:
                    if day == best:
                        continue
                    yield ctx.diagnostic(
                        "SDR204",
                        f"bound [{atom}] in action {action.name!r} is "
                        "subsumed by a tighter absolute bound in the "
                        "same conjunct",
                        entry=entry,
                        span=atom.span,
                    )


# ----------------------------------------------------------------------
# SDR205 — specifications whose residual is the whole cube
# ----------------------------------------------------------------------

@checker("SDR205")
def check_always_true_residual(ctx: "LintContext") -> Iterator[Diagnostic]:
    bound = ctx.bound
    if len(bound) < 2:
        return  # with one action, SDR104 already tells the whole story
    if any(ctx.prover.live(entry.action) for entry in bound):
        return
    names = ", ".join(
        repr(entry.action.name) for entry in bound if entry.action
    )
    yield ctx.diagnostic(
        "SDR205",
        f"every action predicate is unsatisfiable ({names}); the "
        "residual claims all facts and the specification never changes "
        "anything",
    )


# ----------------------------------------------------------------------
# SDR111 — non-distributive default aggregates (MO document level)
# ----------------------------------------------------------------------

def lint_document_measures(
    document: object, mo_file: str | None = None
) -> list[Diagnostic]:
    """Diagnostics over the raw MO document's measure declarations.

    Runs *before* MO construction so that declarations the model layer
    would reject outright (Section 3 restricts default aggregates to
    distributive functions) still surface as diagnostics.
    """
    out: list[Diagnostic] = []
    if not isinstance(document, dict):
        return out
    for measure in document.get("measures", ()):
        name = measure.get("name", "?")
        declared = measure.get("aggregate", "sum")
        try:
            aggregate = resolve_aggregate(declared)
        except MeasureError:
            out.append(
                Diagnostic(
                    "SDR111",
                    Severity.WARNING,
                    f"measure {name!r} declares unknown aggregate "
                    f"{declared!r}",
                    file=mo_file,
                )
            )
            continue
        if not aggregate.distributive:
            out.append(
                Diagnostic(
                    "SDR111",
                    Severity.WARNING,
                    f"measure {name!r} declares non-distributive default "
                    f"aggregate {aggregate.name!r}; gradual re-aggregation "
                    "would be unsound (the model layer will reject it)",
                    file=mo_file,
                    hint=RULES["SDR111"].hint,
                )
            )
    return out
