"""Data reduction specifications and their dynamics (Definitions 1, 3, 4).

A specification ``V = (A, <=_V)`` is a set of actions with the granularity
partial order.  Updates are *guarded*: insertion re-checks NonCrossing and
Growing on the would-be set (instance-independent, as the paper requires),
deletion additionally checks against the facts actually in the MO that the
removed actions have no current effect.  A rejected update leaves the
specification unchanged — the ``try_*`` variants return the violations,
the plain methods raise :class:`SpecificationUpdateRejected`.
"""

from __future__ import annotations

import datetime as _dt
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..core.dimension import Dimension
from ..core.mo import MultidimensionalObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..checks.prover import ProverConfig
from ..errors import SpecificationUpdateRejected, SpecSemanticsError
from .action import Action
from .predicate import satisfies


class ReductionSpecification:
    """``V = (A, <=_V)`` bound to one fact schema."""

    def __init__(
        self,
        actions: Sequence[Action] = (),
        dimensions: Mapping[str, Dimension] | None = None,
        prover_config: "ProverConfig | None" = None,
        validate: bool = True,
    ) -> None:
        self._actions: tuple[Action, ...] = tuple(actions)
        self._dimensions = dimensions
        # ``None`` means "use the checkers' defaults"; keeping it unresolved
        # here avoids importing the checks package (which validates Action
        # objects) at construction time.
        self._config = prover_config
        names = [a.name for a in self._actions]
        if len(set(names)) != len(names):
            raise SpecSemanticsError(f"duplicate action names: {names!r}")
        schemas = {id(a.schema) for a in self._actions}
        if len(schemas) > 1:
            raise SpecSemanticsError(
                "all actions of a specification must share one fact schema"
            )
        if validate and self._actions:
            violations = self.violations()
            if violations:
                raise SpecSemanticsError(
                    "specification is not sound: "
                    + "; ".join(str(v) for v in violations)
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def actions(self) -> tuple[Action, ...]:
        return self._actions

    @property
    def prover_config(self) -> "ProverConfig | None":
        """The prover tunables used by the soundness checks (``None`` =
        the checkers' defaults)."""
        return self._config

    @property
    def dimensions(self) -> "Mapping[str, Dimension] | None":
        """The dimension instances the checks ground predicates against."""
        return self._dimensions

    @property
    def action_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._actions)

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self):
        return iter(self._actions)

    def action(self, name: str) -> Action:
        for candidate in self._actions:
            if candidate.name == name:
                return candidate
        raise SpecSemanticsError(f"no action named {name!r}")

    def le(self, a1: Action, a2: Action) -> bool:
        """The specification's partial order ``a1 <=_V a2`` (Eq. 3)."""
        return a1.le(a2)

    def violations(self) -> list[object]:
        """All NonCrossing and Growing violations of the current set."""
        from ..checks.growing import check_growing
        from ..checks.noncrossing import check_noncrossing
        from ..checks.prover import Prover

        prover = Prover(self._dimensions, self._config)
        actions = list(self._actions)
        return [
            *check_noncrossing(actions, prover),
            *check_growing(actions, prover),
        ]

    def is_sound(self) -> bool:
        return not self.violations()

    # ------------------------------------------------------------------
    # Insertion (Definition 3)
    # ------------------------------------------------------------------

    def try_insert(
        self, new_actions: Iterable[Action]
    ) -> tuple["ReductionSpecification", list[object]]:
        """Insert a set of actions; on violation return self unchanged.

        Returns ``(specification, violations)``: the new specification and
        an empty list on success, the *original* specification and the
        violations otherwise — the paper's "V otherwise" branch.
        """
        candidate = ReductionSpecification(
            (*self._actions, *new_actions),
            self._dimensions,
            self._config,
            validate=False,
        )
        violations = candidate.violations()
        if violations:
            return self, violations
        return candidate, []

    def insert(self, new_actions: Iterable[Action]) -> "ReductionSpecification":
        spec, violations = self.try_insert(new_actions)
        if violations:
            raise SpecificationUpdateRejected(
                "insert rejected: " + "; ".join(str(v) for v in violations)
            )
        return spec

    # ------------------------------------------------------------------
    # Deletion (Definition 4)
    # ------------------------------------------------------------------

    def try_delete(
        self,
        names: Iterable[str],
        mo: MultidimensionalObject,
        now: _dt.date,
    ) -> tuple["ReductionSpecification", list[str]]:
        """Delete actions by name; all-or-nothing (Definition 4).

        An action may only leave when (a) the remaining set is still
        NonCrossing and Growing, and (b) the action has no current effect
        on *mo*: every fact satisfying its predicate at *now* is either
        already at a granularity at least as high as the action's target,
        or is also selected by a *remaining* action aggregating at least
        as high.  (The paper states the takeover with ``=_P``; we accept
        ``>=_P``, which preserves irreversibility a fortiori.)
        """
        doomed_names = set(names)
        unknown = doomed_names - set(self.action_names)
        if unknown:
            return self, [f"unknown actions {sorted(unknown)!r}"]
        doomed = [a for a in self._actions if a.name in doomed_names]
        remaining = [a for a in self._actions if a.name not in doomed_names]

        problems: list[str] = []
        candidate = ReductionSpecification(
            remaining, self._dimensions, self._config, validate=False
        )
        problems.extend(str(v) for v in candidate.violations())
        for action in doomed:
            blocking = _current_effect(action, remaining, mo, now)
            if blocking is not None:
                problems.append(
                    f"action {action.name!r} is still responsible for "
                    f"fact {blocking!r} at {now}"
                )
        if problems:
            return self, problems
        return candidate, []

    def delete(
        self,
        names: Iterable[str],
        mo: MultidimensionalObject,
        now: _dt.date,
    ) -> "ReductionSpecification":
        spec, problems = self.try_delete(names, mo, now)
        if problems:
            raise SpecificationUpdateRejected(
                "delete rejected: " + "; ".join(problems)
            )
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReductionSpecification({list(self.action_names)!r})"


def _current_effect(
    action: Action,
    remaining: Sequence[Action],
    mo: MultidimensionalObject,
    now: _dt.date,
) -> str | None:
    """The id of a fact *action* is still responsible for, or ``None``."""
    schema = mo.schema
    for fact_id in mo.facts():
        if not satisfies(mo, fact_id, action.predicate, now):
            continue
        gran = mo.gran(fact_id)
        if schema.le_granularity(action.cat(), gran) and action.cat() != gran:
            continue  # strictly above the target: the action has no effect
        if not schema.le_granularity(action.cat(), gran) and not (
            schema.le_granularity(gran, action.cat())
        ):
            continue  # incomparable: the action never applies to this fact
        taken_over = any(
            schema.le_granularity(action.cat(), other.cat())
            and satisfies(mo, fact_id, other.predicate, now)
            for other in remaining
        )
        if not taken_over:
            return fact_id
    return None
