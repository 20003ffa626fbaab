"""The Growing property and its operational check (Sections 4.3, 5.3).

``Growing(V, O)`` (Equation 17) demands that a cell's aggregation level
never decreases in any dimension as time passes.  Actions whose predicate
can *stop* selecting a cell (a NOW-relative lower boundary — the paper's
category F) endanger it: when a cell falls off the trailing edge, some
other, ``<=_V``-larger action must immediately specify at least the same
level for it.

The check mirrors the paper's three-step algorithm, made exact by bounded
sampling:

1. find the trailing edge of each shrinking conjunct;
2. collect the candidate catcher set ``A' = {a_j | a <=_V a_j}``;
3. verify, at every sampled evaluation time at which cells actually leave
   the predicate, that every leaving cell (time interval x grounded
   categorical region) is covered by some catcher *at the next instant* —
   the paper's implication ``P[.. <= t_lb] => OR_j P_j[.. <= t_lb - 1]``
   (Equation 23), grounded against the dimension instances instead of PVS.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..spec.action import Action
from ..spec.ranges import ConjunctProfile
from .classify import classify_profile
from .prover import Prover, cell_in_region, interval_covered

_INF = float("inf")


@dataclass(frozen=True)
class GrowingCheckViolation:
    """A concrete witness that a specification is not Growing."""

    action: str
    at: _dt.date
    cell: Mapping[str, str] | None
    leaving_days: tuple[float, float]

    def __str__(self) -> str:
        lo = _dt.date.fromordinal(int(self.leaving_days[0]))
        hi = _dt.date.fromordinal(int(self.leaving_days[1]))
        where = f" for cell {dict(self.cell)!r}" if self.cell else ""
        return (
            f"action {self.action!r} stops selecting days "
            f"[{lo}..{hi}]{where} at {self.at} and no <=_V-larger action "
            "takes over"
        )


def check_growing(
    actions: Sequence[Action], prover: Prover
) -> list[GrowingCheckViolation]:
    """All Growing violations witnessed on the sampled horizon.

    Non-shrinking actions are skipped outright (Theorem 1); for shrinking
    ones the leaving region is re-derived exactly at each sampled day.
    """
    violations: list[GrowingCheckViolation] = []
    all_profiles = [
        (action, profile)
        for action in actions
        for profile in prover.profiles(action)
    ]
    for action, profile in all_profiles:
        if not classify_profile(profile).is_shrinking:
            continue
        witness = _check_shrinking_profile(
            action, profile, all_profiles, prover
        )
        if witness is not None:
            violations.append(witness)
    return violations


def is_growing(actions: Sequence[Action], prover: Prover) -> bool:
    """``Growing(V, O)`` on the sampled horizon (Equation 17)."""
    return not check_growing(actions, prover)


def _check_shrinking_profile(
    action: Action,
    profile: ConjunctProfile,
    all_profiles: Sequence[tuple[Action, ConjunctProfile]],
    prover: Prover,
) -> GrowingCheckViolation | None:
    # Step 2: candidate catchers must aggregate at least as high in every
    # dimension; an action's own other conjuncts may also catch.
    catchers = [
        other_profile
        for other, other_profile in all_profiles
        if other_profile is not profile and action.le(other)
    ]
    cells = prover.cells(profile)
    one_day = _dt.timedelta(days=1)
    for t in prover.horizon([profile, *catchers]):
        today = prover.window(profile, t)
        if today is None or today[0] > today[1]:
            continue
        tomorrow = prover.window(profile, t + one_day)
        leaving = _leaving_interval(today, tomorrow)
        if leaving is None:
            continue
        if cells is None:
            # The categorical region could not be enumerated; the only
            # sound coverage argument is an unconstrained-or-superset
            # catcher, which cell_in_region cannot establish for a
            # symbolic region.  Check against catchers that are fully
            # unconstrained categorically.
            covering = [
                prover.window(catcher, t + one_day)
                for catcher in catchers
                if all(r is None for r in prover.regions(catcher).values())
            ]
            if not interval_covered(leaving, covering):
                return GrowingCheckViolation(action.name, t, None, leaving)
            continue
        for cell in cells:
            covering = [
                prover.window(catcher, t + one_day)
                for catcher in catchers
                if cell_in_region(cell, prover.regions(catcher))
            ]
            if not interval_covered(leaving, covering):
                return GrowingCheckViolation(action.name, t, cell, leaving)
    return None


def _leaving_interval(
    today: tuple[float, float], tomorrow: tuple[float, float] | None
) -> tuple[float, float] | None:
    """Days selected at ``t`` but no longer at ``t + 1``.

    Upper bounds in the term language only move forward, so the leaving
    region is always the prefix of today's window below tomorrow's lower
    bound (the whole window when it vanishes).
    """
    lo, hi = today
    if tomorrow is None:
        return None
    t_lo, t_hi = tomorrow
    if t_lo > t_hi:
        return (lo, hi)
    leaving_hi = min(hi, t_lo - 1)
    if leaving_hi < lo:
        return None
    return (lo, leaving_hi)
