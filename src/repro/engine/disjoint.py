"""Transformation of an action set into disjoint actions (Section 7.1).

For each fact at most one action is responsible for its lowest available
category (the ``<=_V``-maximal one whose predicate it satisfies).  The
transformation makes that explicit: actions are grouped by identical
target granularity, and each group's predicate is conjoined with the
negation of every *higher*-granularity group's predicate.  One residual
action at the bottom granularity collects everything no group claims —
the paper's ``a_|_'`` (Equation 44).

The resulting *disjoint* predicates partition the cell space at every
evaluation time.  The store places facts with the actions themselves
(the ``<=_V``-maximal admitted granularity); the predicates are what the
unsynchronized query (Figure 9) evaluates to read each cube's effective
content, and what the tests check that placement against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import EngineError
from ..obs.metrics import get_registry
from ..spec.action import Action
from ..spec.ast import Not, Predicate, TruePredicate, conjunction, disjunction
from ..spec.specification import ReductionSpecification

# Registered in engine/telemetry.py, catalogued in
# docs/observability.md.
from .telemetry import DISJOINT_BUILD_SECONDS  # noqa: E402

_HELP_BUILD = "Seconds spent building the disjoint action set"


@dataclass(frozen=True)
class DisjointAction:
    """One disjoint action == one physical subcube definition."""

    name: str
    granularity: tuple[str, ...]
    predicate: Predicate
    #: Names of the member actions of the group ("" for the residual cube).
    members: tuple[str, ...]
    #: Names of disjoint actions at strictly lower granularity — the cubes
    #: data can migrate *from* (the parent cubes of Section 7.2).
    parents: tuple[str, ...] = field(default=())

    @property
    def is_residual(self) -> bool:
        return not self.members


def disjoint_actions(
    specification: ReductionSpecification,
) -> tuple[DisjointAction, ...]:
    """The disjoint action set of Section 7.1, bottom cube included.

    Cube names are ``K0`` for the residual bottom cube and ``K1..Km`` for
    the granularity groups ordered from finest to coarsest (deterministic,
    so tests and figures can reference them).  Each group's predicate is
    its members' disjunction AND NOT every strictly coarser group's; the
    build time is recorded in the active metrics registry.
    """
    started = time.perf_counter()
    actions = list(specification.actions)
    if not actions:
        schema = None
    else:
        schema = actions[0].schema
    if schema is None:
        raise EngineError("cannot build subcubes for an empty specification")

    groups: dict[tuple[str, ...], list[Action]] = {}
    for action in actions:
        groups.setdefault(action.cat(), []).append(action)

    def group_sort_key(granularity: tuple[str, ...]) -> tuple:
        heights = []
        for name, category in zip(schema.dimension_names, granularity):
            hierarchy = schema.dimension_type(name).hierarchy
            heights.append(len(hierarchy.descendants(category)))
        return (sum(heights), granularity)

    ordered = sorted(groups, key=group_sort_key)

    cubes: list[DisjointAction] = []
    raw_predicates: dict[tuple[str, ...], Predicate] = {
        granularity: disjunction([a.predicate for a in groups[granularity]])
        for granularity in groups
    }
    for index, granularity in enumerate(ordered):
        negations = [
            Not(raw_predicates[g])
            for g in ordered
            if g != granularity
            and schema.le_granularity(granularity, g)
        ]
        predicate = conjunction([raw_predicates[granularity], *negations])
        cubes.append(
            DisjointAction(
                name=f"K{index + 1}",
                granularity=granularity,
                predicate=predicate,
                members=tuple(a.name for a in groups[granularity]),
            )
        )

    bottom = schema.bottom_granularity()
    residual_negations: list[Predicate] = [
        Not(raw_predicates[g]) for g in ordered if g != bottom
    ]
    residual_predicate = (
        conjunction(residual_negations)
        if residual_negations
        else TruePredicate()
    )
    if bottom in groups:
        # "Useless" bottom-granularity actions merge into the residual cube.
        residual_index = ordered.index(bottom)
        existing = cubes[residual_index]
        cubes[residual_index] = DisjointAction(
            name=existing.name,
            granularity=bottom,
            predicate=disjunction([existing.predicate, residual_predicate]),
            members=existing.members,
        )
    else:
        cubes.insert(
            0,
            DisjointAction(
                name="K0",
                granularity=bottom,
                predicate=residual_predicate,
                members=(),
            ),
        )

    out = tuple(_with_parents(cubes, schema))
    get_registry().histogram(
        DISJOINT_BUILD_SECONDS, help=_HELP_BUILD
    ).observe(time.perf_counter() - started)
    return out


def _with_parents(cubes: list[DisjointAction], schema) -> list[DisjointAction]:
    """Annotate each cube with its parent cubes (strictly finer ones)."""
    out: list[DisjointAction] = []
    for cube in cubes:
        parents = tuple(
            other.name
            for other in cubes
            if other.name != cube.name
            and schema.le_granularity(other.granularity, cube.granularity)
        )
        out.append(
            DisjointAction(
                name=cube.name,
                granularity=cube.granularity,
                predicate=cube.predicate,
                members=cube.members,
                parents=parents,
            )
        )
    return out
