"""The NonCrossing property and its operational check (Sections 4.3, 5.2).

Two actions *cross* when their predicates can simultaneously select the
same cell while their target granularities are incomparable under
``<=_V``; a crossing pair leaves the resulting granularity undefined and
can make one predicate unevaluable after the other fires (the paper's
``a2``/``a3`` and ``a2``/``a4`` examples).

The check follows the paper's four-line ``noncrossing(a1, a2)`` algorithm:
syntactic order test first, then a time-free satisfiability check, then
the ``exists t`` satisfiability check — both discharged to the bounded
decision procedure in :mod:`repro.checks.prover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..spec.action import Action
from .prover import Prover


@dataclass(frozen=True)
class CrossingViolation:
    """A pair of actions that overlap but are not ``<=_V``-comparable."""

    first: str
    second: str

    def __str__(self) -> str:
        return (
            f"actions {self.first!r} and {self.second!r} have overlapping "
            "predicates but incomparable target granularities"
        )


def noncrossing_pair(a1: Action, a2: Action, prover: Prover) -> bool:
    """The paper's ``noncrossing(a1, a2)`` function.

    1. ordered either way -> ``True``;
    2. otherwise, if an evaluation time exists at which any conjunct
       pair of the two predicates can select a common cell -> ``False``;
    3. otherwise ``True``.

    (The paper's separate time-independent case is the same satisfiability
    question with the time variable absent; the prover short-circuits it.)
    """
    if a1.le(a2) or a2.le(a1):
        return True
    return not any(
        prover.overlaps(p1, p2)
        for p1 in prover.profiles(a1)
        for p2 in prover.profiles(a2)
    )


def check_noncrossing(
    actions: Sequence[Action], prover: Prover
) -> list[CrossingViolation]:
    """All crossing pairs in *actions* (``|A|^2`` pair checks, Sec. 5.2)."""
    return [
        CrossingViolation(a1.name, a2.name)
        for i, a1 in enumerate(actions)
        for a2 in actions[i + 1 :]
        if not noncrossing_pair(a1, a2, prover)
    ]


def is_noncrossing(actions: Sequence[Action], prover: Prover) -> bool:
    """``NonCrossing(V)`` (Equation 14) for the action set."""
    return not check_noncrossing(actions, prover)
