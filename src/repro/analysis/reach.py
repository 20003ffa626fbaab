"""Reachability: unsatisfiable and union-shadowed ("dead") actions.

An action is *unsatisfiable* when no DNF disjunct can admit a cell at any
sampled evaluation time (the ``SDR104`` condition).  It is *dead* when it
is satisfiable but every cell it can ever admit is also admitted, at
every sampled time, by the **union** of other actions at granularities at
least as coarse — so the action never determines a fact's granularity.
Union coverage is strictly stronger than the single-container subsumption
of ``SDR106``: three catchers may jointly shadow an action none of them
shadows alone.

The proof enumerates the grounded bottom cells of each live disjunct,
groups them by which exact catcher disjuncts cover them, and checks
day-interval union coverage (:func:`repro.checks.prover.interval_covered`)
at every sampled time.  Whenever grounding or enumeration fails the
action is conservatively reported live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..checks.prover import (
    Prover,
    cell_in_region,
    interval_covered,
    window_modelled_exactly,
)
from ..spec.action import Action
from ..spec.ranges import ConjunctProfile

_INF = float("inf")

#: Cap on enumerated cells per disjunct; above it the action stays live.
COVERAGE_CELL_CAP = 512


@dataclass
class ReachabilityResult:
    """Classification of every action as live, unsatisfiable, or dead."""

    unsatisfiable: tuple[str, ...] = ()
    #: Dead action -> the catcher actions whose union covers it.
    dead: dict[str, tuple[str, ...]] = field(default_factory=dict)
    live: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "unsatisfiable": list(self.unsatisfiable),
            "dead": {
                name: list(catchers) for name, catchers in self.dead.items()
            },
            "live": list(self.live),
        }


def reachability(
    actions: Sequence[Action], prover: Prover
) -> ReachabilityResult:
    """Classify the actions; sound (never calls a live action dead)."""
    result = ReachabilityResult()
    unsat: list[str] = []
    live: list[str] = []
    for index, action in enumerate(actions):
        mine = prover.live(action)
        if not mine:
            unsat.append(action.name)
            continue
        catchers = _catcher_profiles(actions, index, prover)
        covered_by = _union_covered(mine, catchers, prover)
        if covered_by is not None:
            result.dead[action.name] = covered_by
        else:
            live.append(action.name)
    result.unsatisfiable = tuple(unsat)
    result.live = tuple(live)
    return result


def coarser_actions(actions: Sequence[Action], index: int) -> Iterator[Action]:
    """The actions that may claim the cells of ``actions[index]``: those
    at a coarser-or-equal granularity.

    For duplicates at the same granularity only the *earlier* action may
    claim, so exactly one of a duplicated pair is reported (dead here,
    shadowed by SDR106 and SDR202).
    """
    action = actions[index]
    for j, other in enumerate(actions):
        if j == index or not action.le(other):
            continue
        if action.cat() == other.cat() and j > index:
            continue
        yield other


def _catcher_profiles(
    actions: Sequence[Action], index: int, prover: Prover
) -> list[tuple[str, ConjunctProfile]]:
    """Exact disjuncts of the coarser-or-equal actions; an
    over-approximated catcher cannot prove cover."""
    return [
        (other.name, q)
        for other in coarser_actions(actions, index)
        for q in prover.profiles(other)
        if not q.unmodelled_atoms and window_modelled_exactly(q)
    ]


def _union_covered(
    mine: Sequence[ConjunctProfile],
    catchers: Sequence[tuple[str, ConjunctProfile]],
    prover: Prover,
) -> tuple[str, ...] | None:
    """The catcher names whose union covers every disjunct, or ``None``."""
    if not catchers:
        return None
    contributors: set[str] = set()
    for p in mine:
        cells = prover.cells(p, COVERAGE_CELL_CAP)
        if not cells:
            return None  # cannot enumerate: stay live
        # Which catchers cover a cell is time-independent; group cells by
        # that signature so the time loop runs once per distinct group.
        signatures: set[tuple[int, ...]] = set()
        for cell in cells:
            signature = tuple(
                k
                for k, (_, q) in enumerate(catchers)
                if cell_in_region(cell, prover.regions(q))
            )
            if not signature:
                return None
            signatures.add(signature)
        horizon = prover.horizon([p, *(q for _, q in catchers)])
        for signature in signatures:
            group = [catchers[k] for k in signature]
            for t in horizon:
                target = prover.window(p, t) or (-_INF, _INF)
                pieces = [prover.window(q, t) for _, q in group]
                if not interval_covered(target, pieces):
                    return None
            contributors.update(name for name, _ in group)
    return tuple(sorted(contributors))
