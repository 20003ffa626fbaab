"""The lint driver: parse, bind, run the rule checkers, analyse.

:func:`lint_sources` is the one entry point.  It takes specification
*source text* (the one-action-per-line format of
:func:`repro.io.load_specification`) and gives it the full front-end
treatment — syntax, name resolution, Clist shape, term binding
(``SDR0xx``) — with diagnostics anchored to 1-based line/column regions
via the spans the parser attaches to every AST node.  The bound actions
then run the semantic checkers of :mod:`repro.lint.rules` (``SDR1xx``
and ``SDR2xx``).

The :class:`LintContext` it returns holds the one
:class:`~repro.checks.prover.Prover` of the run, which every rule, the
soundness checks and the analyses ask their satisfiability, overlap and
containment questions, and memoises the relationship matrix, the
reachability pass and the single-container shadow map, so the rules that
read them and the :meth:`LintContext.analysis` report that renders them
share one computation of each.

Because the ``SDR102``/``SDR103`` checkers call the very same
:func:`repro.checks.noncrossing.check_noncrossing` and
:func:`repro.checks.growing.check_growing` used by the insert-time gates
of ``ReductionSpecification``, the lint verdict on the two soundness
conditions cannot diverge from the enforcement path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..analysis.cost import estimate_costs
from ..analysis.matrix import RelationshipMatrix, relationship_matrix
from ..analysis.reach import ReachabilityResult, coarser_actions, reachability
from ..analysis.report import SpecAnalysis
from ..checks.prover import Prover
from ..core.schema import FactSchema
from ..errors import ReproError, SpecSyntaxError
from ..spec.action import Action, bind_atom
from ..spec.ast import ActionSyntax, SourceSpan, union_spans
from ..spec.parser import parse_action
from ..spec.ranges import ConjunctProfile
from .diagnostics import Diagnostic, LintResult, Region, Severity
from .rules import CHECKERS, RULES


@dataclass
class SpecEntry:
    """One action of the linted specification, with its provenance."""

    index: int
    source: str | None
    file: str | None = None
    line: int = 1
    column: int = 1  # 1-based column where the action source begins
    declared_name: str | None = None
    name_column: int | None = None
    syntax: ActionSyntax | None = None
    action: Action | None = None
    profiles: tuple[ConjunctProfile, ...] = ()

    @property
    def name(self) -> str | None:
        """The effective action name (auto-generated once bound)."""
        if self.action is not None:
            return self.action.name
        return self.declared_name


@dataclass
class LintContext:
    """Everything the semantic checkers may consult."""

    schema: FactSchema
    entries: list[SpecEntry]
    prover: Prover

    @property
    def bound(self) -> list[SpecEntry]:
        """Entries whose action bound and whose profiles compiled."""
        return [e for e in self.entries if e.action is not None]

    # The memoised analyses below are read only after binding is done:
    # by the checkers and by analysis().

    @cached_property
    def actions(self) -> list[Action]:
        """The bound actions, in specification order."""
        return [e.action for e in self.entries if e.action is not None]

    @cached_property
    def matrix(self) -> RelationshipMatrix:
        return relationship_matrix(self.actions, self.prover)

    @cached_property
    def reach(self) -> ReachabilityResult:
        return reachability(self.actions, self.prover)

    @cached_property
    def shadowed(self) -> dict[str, str]:
        """Shadowed action -> the one coarser action containing it."""
        return _single_container_shadowed(self)

    def analysis(self) -> SpecAnalysis:
        """The semantic analysis report of the bound actions: the same
        matrix and reachability the rules read, plus cost estimates,
        which only the report needs."""
        return SpecAnalysis(
            actions=tuple(a.name for a in self.actions),
            matrix=self.matrix,
            reach=self.reach,
            costs=estimate_costs(self.actions, self.prover),
            reference=self.prover.config.reference,
            horizon_years=self.prover.config.horizon_years,
        )

    def entry_for(self, name: str | None) -> SpecEntry | None:
        for entry in self.entries:
            if name is not None and entry.name == name:
                return entry
        return None

    def region(
        self, entry: SpecEntry | None, span: SourceSpan | None = None
    ) -> Region | None:
        """Map an in-source span of *entry* to file line/column."""
        if entry is None or entry.source is None:
            return None
        if span is None:
            span = SourceSpan(0, len(entry.source))
        return Region(
            entry.line,
            entry.column + span.start,
            entry.line,
            entry.column + span.end,
        )

    def diagnostic(
        self,
        code: str,
        message: str,
        *,
        entry: SpecEntry | None = None,
        span: SourceSpan | None = None,
        severity: Severity | None = None,
        hint: str | None = None,
        file: str | None = None,
        region: Region | None = None,
    ) -> Diagnostic:
        rule = RULES[code]
        return Diagnostic(
            code,
            severity or rule.severity,
            message,
            file=file if file is not None else (entry.file if entry else None),
            region=region if region is not None else self.region(entry, span),
            action=entry.name if entry is not None else None,
            hint=hint if hint is not None else rule.hint,
        )


def _single_container_shadowed(ctx: LintContext) -> dict[str, str]:
    """Actions with one coarser action containing every live disjunct —
    the SDR106 condition, shared with the SDR2xx family (through
    ``LintContext.shadowed``) so the analyzer rules can defer to the
    simpler finding when it applies.

    Containment proofs come from the run's prover, which lint and the
    semantic analyzer share.
    """
    prover = ctx.prover
    out: dict[str, str] = {}
    for i, action in enumerate(ctx.actions):
        live = prover.live(action)
        if not live:
            continue  # unsatisfiable actions are SDR104's business
        for other in coarser_actions(ctx.actions, i):
            if all(
                any(prover.contained(p, q) for q in prover.profiles(other))
                for p in live
            ):
                out[action.name] = other.name
                break
    return out


# ----------------------------------------------------------------------
# Front end: source text -> entries + SDR0xx diagnostics
# ----------------------------------------------------------------------

def parse_spec_text(
    text: str, file: str | None = None
) -> tuple[list[SpecEntry], list[Diagnostic]]:
    """Split spec text into entries, parsing each action line.

    Follows the exact line conventions of
    :func:`repro.io.load_specification`: blank lines and ``#`` comments
    are skipped, an optional ``name:`` prefix (no brackets before the
    colon) names the action.
    """
    entries: list[SpecEntry] = []
    diagnostics: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name: str | None = None
        source = stripped
        name_column: int | None = None
        head, sep, tail = stripped.partition(":")
        if sep and "[" not in head and "(" not in head:
            name = head.strip()
            source = tail.strip()
        search_from = raw.index(":") + 1 if name is not None else 0
        column = (raw.index(source, search_from) + 1) if source else len(raw) + 1
        if name:
            name_column = raw.index(name) + 1
        entry = SpecEntry(
            index=len(entries),
            source=source,
            file=file,
            line=lineno,
            column=column,
            declared_name=name,
            name_column=name_column,
        )
        try:
            entry.syntax = parse_action(source)
        except SpecSyntaxError as error:
            at = error.position
            if at is None:
                region = Region(lineno, column, lineno, column + len(source))
            else:
                at = min(at, max(len(source) - 1, 0))
                region = Region(
                    lineno, column + at, lineno, column + at + 1
                )
            diagnostics.append(
                Diagnostic(
                    "SDR001",
                    Severity.ERROR,
                    str(error),
                    file=file,
                    region=region,
                    action=name,
                )
            )
        entries.append(entry)
    return entries, diagnostics


def _syntax_refs(syntax: ActionSyntax):
    """All category references of an action: Clist first, then atoms."""
    yield from syntax.clist
    for atom in syntax.predicate.atoms():
        yield atom.ref


def _resolve_and_bind(
    ctx: LintContext, diagnostics: list[Diagnostic]
) -> None:
    """Name resolution, Clist shape, term binding, action construction."""
    schema = ctx.schema
    known = set(schema.dimension_names)
    for entry in ctx.entries:
        syntax = entry.syntax
        if syntax is None:
            continue
        clean = True
        for ref in _syntax_refs(syntax):
            if ref.dimension not in known:
                clean = False
                diagnostics.append(
                    ctx.diagnostic(
                        "SDR002",
                        f"unknown dimension {ref.dimension!r} (schema has: "
                        + ", ".join(sorted(known))
                        + ")",
                        entry=entry,
                        span=ref.span,
                    )
                )
            elif not schema.dimension_type(ref.dimension).has_category(
                ref.category
            ):
                clean = False
                diagnostics.append(
                    ctx.diagnostic(
                        "SDR003",
                        f"dimension {ref.dimension!r} has no category "
                        f"{ref.category!r}",
                        entry=entry,
                        span=ref.span,
                    )
                )
        targeted: dict[str, str] = {}
        for ref in syntax.clist:
            if ref.dimension in targeted:
                clean = False
                diagnostics.append(
                    ctx.diagnostic(
                        "SDR004",
                        f"Clist names dimension {ref.dimension!r} twice",
                        entry=entry,
                        span=ref.span,
                    )
                )
            targeted[ref.dimension] = ref.category
        missing = sorted(known - set(targeted))
        if missing:
            clean = False
            diagnostics.append(
                ctx.diagnostic(
                    "SDR004",
                    "Clist is missing target categories for: "
                    + ", ".join(repr(m) for m in missing),
                    entry=entry,
                    span=union_spans([r.span for r in syntax.clist]),
                )
            )
        if not clean:
            continue
        display = entry.declared_name or f"action at line {entry.line}"
        for atom in syntax.predicate.atoms():
            try:
                bind_atom(schema, atom, display)
            except (ReproError, ValueError) as error:
                clean = False
                diagnostics.append(
                    ctx.diagnostic(
                        "SDR005", str(error), entry=entry, span=atom.span
                    )
                )
        if not clean:
            continue
        try:
            action = Action(
                schema,
                syntax.clist,
                syntax.predicate,
                entry.declared_name,
                enforce_evaluability=False,
            )
            action.source = entry.source
            action.syntax = syntax
            entry.profiles = ctx.prover.profiles(action)
            entry.action = action
        except ReproError as error:
            entry.action = None
            diagnostics.append(
                ctx.diagnostic("SDR005", str(error), entry=entry)
            )


def _check_duplicate_names(
    ctx: LintContext, diagnostics: list[Diagnostic]
) -> None:
    seen: dict[str, SpecEntry] = {}
    for entry in ctx.entries:
        name = entry.name
        if name is None:
            continue
        if name in seen:
            region = None
            if entry.name_column is not None:
                region = Region(
                    entry.line,
                    entry.name_column,
                    entry.line,
                    entry.name_column + len(name),
                )
            first = seen[name]
            diagnostics.append(
                ctx.diagnostic(
                    "SDR006",
                    f"duplicate action name {name!r} (first declared on "
                    f"line {first.line})",
                    entry=entry,
                    region=region,
                )
            )
        else:
            seen[name] = entry
    # Drop later duplicates from the bound set so the semantic checkers
    # (and check_noncrossing's name-keyed profile cache) see one action
    # per name — matching what a ReductionSpecification would accept.
    keep: set[int] = {e.index for e in seen.values()}
    for entry in ctx.entries:
        if entry.action is not None and entry.index not in keep:
            entry.action = None
            entry.profiles = ()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def lint_sources(
    sources: Sequence[tuple[str | None, str]],
    schema: FactSchema,
    prover: Prover,
) -> tuple[LintResult, LintContext]:
    """Parse, bind and lint specification source text, once.

    *sources* is a sequence of ``(filename, text)`` pairs; filenames may
    be ``None`` for in-memory input.  *prover* grounds the predicates
    against its dimension instances and answers every rule.  Returns the
    findings and the bound context (``ctx.bound`` holds the usable
    actions, ``ctx.analysis()`` the semantic analysis report).
    """
    entries: list[SpecEntry] = []
    diagnostics: list[Diagnostic] = []
    for file, text in sources:
        file_entries, file_diags = parse_spec_text(text, file)
        for entry in file_entries:
            entry.index = len(entries)
            entries.append(entry)
        diagnostics.extend(file_diags)
    ctx = LintContext(schema, entries, prover)
    _resolve_and_bind(ctx, diagnostics)
    _check_duplicate_names(ctx, diagnostics)
    for _, check in CHECKERS:
        diagnostics.extend(check(ctx))
    return LintResult.of(diagnostics), ctx
