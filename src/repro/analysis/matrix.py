"""The action-relationship matrix (sound pairwise classification).

Every unordered pair of actions is classified over the box domain:

* ``DISJOINT`` — no conjunct pair of the two actions can admit a common
  bottom cell at any sampled evaluation time (the bounded prover errs
  toward overlap, so a negative answer is a proof on the horizon);
* ``SUBSUMED`` / ``SUBSUMES`` — every bottom cell one action admits, the
  other admits too, at every sampled time (exact outer boxes only);
* ``EQUIVALENT`` — containment in both directions;
* ``OVERLAPPING`` — a *verified* witness cell exists: a materialized
  bottom cell admitted by both actions at a concrete time (only issued
  when both boxes are exact, so the claim cannot be an artifact of
  widening);
* ``UNKNOWN`` — none of the above could be proved; carries the prover's
  candidate witness as the counterexample to investigate.

Definite verdicts are sound by construction: the analysis may answer
``UNKNOWN``, never a wrong definite verdict.  All claims quantify over
bottom cells of the dimension instances and the sampled horizon.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import Sequence

from ..checks.prover import OverlapWitness, Prover
from ..spec.action import Action, is_time_dimension_type
from ..spec.ranges import ConjunctProfile
from ..timedim.calendar import first_day


class Verdict(enum.Enum):
    """The verdict lattice of the relationship matrix."""

    DISJOINT = "disjoint"
    SUBSUMED = "subsumed"
    SUBSUMES = "subsumes"
    EQUIVALENT = "equivalent"
    OVERLAPPING = "overlapping"
    UNKNOWN = "unknown"


_FLIPPED = {
    Verdict.SUBSUMED: Verdict.SUBSUMES,
    Verdict.SUBSUMES: Verdict.SUBSUMED,
}


@dataclass(frozen=True)
class PairRelation:
    """The classified relationship of one ordered action pair."""

    first: str
    second: str
    verdict: Verdict
    reason: str
    witness: OverlapWitness | None = None

    def flipped(self) -> "PairRelation":
        return PairRelation(
            self.second,
            self.first,
            _FLIPPED.get(self.verdict, self.verdict),
            self.reason,
            self.witness,
        )


@dataclass
class RelationshipMatrix:
    """All pairwise relations, keyed by the input action order."""

    actions: tuple[str, ...]
    relations: dict[tuple[str, str], PairRelation] = field(
        default_factory=dict
    )

    def get(self, first: str, second: str) -> PairRelation | None:
        relation = self.relations.get((first, second))
        if relation is not None:
            return relation
        reverse = self.relations.get((second, first))
        if reverse is not None:
            return reverse.flipped()
        return None

    def pairs(self) -> list[PairRelation]:
        return [self.relations[key] for key in sorted(self.relations)]

    def to_dict(self) -> dict[str, object]:
        return {
            "actions": list(self.actions),
            "pairs": [
                {
                    "first": r.first,
                    "second": r.second,
                    "verdict": r.verdict.value,
                    "reason": r.reason,
                    "witness": _witness_dict(r.witness),
                }
                for r in self.pairs()
            ],
        }


def _witness_dict(witness: OverlapWitness | None) -> dict[str, object] | None:
    if witness is None:
        return None
    return {
        "at": witness.at.isoformat(),
        "day": witness.day.isoformat() if witness.day else None,
        "cell": dict(witness.cell),
    }


def _time_dimension_name(action: Action) -> str | None:
    for name in action.schema.dimension_names:
        if is_time_dimension_type(action.schema.dimension_type(name)):
            return name
    return None


def _grounded_day(
    prover: Prover,
    time_dimension: str | None,
    p1: ConjunctProfile,
    p2: ConjunctProfile,
    at: _dt.date,
) -> _dt.date | None:
    """A materialized day admitted by both windows at time *at*."""
    dimensions = prover.dimensions
    if dimensions is None or time_dimension not in dimensions:
        return None
    dimension = dimensions[time_dimension]
    w1 = prover.window(p1, at)
    w2 = prover.window(p2, at)
    for value in sorted(dimension.values(dimension.bottom_category)):
        day = first_day(dimension.bottom_category, value)
        ordinal = float(day.toordinal())
        if w1 is not None and not (w1[0] <= ordinal <= w1[1]):
            continue
        if w2 is not None and not (w2[0] <= ordinal <= w2[1]):
            continue
        return day
    return None


def _verified_witness(
    p1: ConjunctProfile, p2: ConjunctProfile, prover: Prover
) -> OverlapWitness | None:
    """A witness whose every coordinate is grounded and re-checked.

    Requires exact boxes on both sides; the returned cell names a bottom
    value for every non-time dimension and (when time is constrained) a
    materialized day inside both exact windows, so both disjuncts
    certainly admit the cell at the witness time.
    """
    if not (prover.exact(p1) and prover.exact(p2)):
        return None
    candidate = prover.witness(p1, p2)
    if candidate is None:
        return None
    action = p1.action
    time_dimension = _time_dimension_name(action)
    cell = candidate.cell_mapping()
    for name in action.schema.dimension_names:
        if name == time_dimension:
            continue
        if name not in cell:
            return None  # could not ground this dimension
    timed = bool(p1.time_atoms or p2.time_atoms)
    day = candidate.day
    if timed or time_dimension is not None:
        day = _grounded_day(prover, time_dimension, p1, p2, candidate.at)
        if day is None:
            return None
    return OverlapWitness(candidate.at, day, tuple(sorted(cell.items())))


def relationship_matrix(
    actions: Sequence[Action], prover: Prover
) -> RelationshipMatrix:
    """Classify every action pair; sound, possibly ``UNKNOWN``."""
    matrix = RelationshipMatrix(tuple(a.name for a in actions))
    for i, a in enumerate(actions):
        for b in actions[i + 1 :]:
            matrix.relations[(a.name, b.name)] = _classify(a, b, prover)
    return matrix


def _contained(inner: Action, outer: Action, prover: Prover) -> bool:
    """Every live disjunct of *inner* lies in one disjunct of *outer*."""
    live = prover.live(inner)
    return bool(live) and all(
        any(prover.contained(p, q) for q in prover.profiles(outer))
        for p in live
    )


def _classify(a: Action, b: Action, prover: Prover) -> PairRelation:
    pairs = [(pa, pb) for pa in prover.live(a) for pb in prover.live(b)]
    if not any(prover.overlaps(pa, pb) for pa, pb in pairs):
        return PairRelation(
            a.name,
            b.name,
            Verdict.DISJOINT,
            "no conjunct pair admits a common bottom cell at any sampled "
            "evaluation time",
        )
    a_in_b = _contained(a, b, prover)
    b_in_a = _contained(b, a, prover)
    if a_in_b and b_in_a:
        return PairRelation(
            a.name,
            b.name,
            Verdict.EQUIVALENT,
            "each action's live disjuncts are contained in the other's "
            "at every sampled time",
        )
    if a_in_b:
        return PairRelation(
            a.name,
            b.name,
            Verdict.SUBSUMED,
            f"every cell {a.name!r} admits is admitted by {b.name!r} at "
            "every sampled time",
        )
    if b_in_a:
        return PairRelation(
            a.name,
            b.name,
            Verdict.SUBSUMES,
            f"every cell {b.name!r} admits is admitted by {a.name!r} at "
            "every sampled time",
        )
    for pa, pb in pairs:
        verified = _verified_witness(pa, pb, prover)
        if verified is not None:
            return PairRelation(
                a.name,
                b.name,
                Verdict.OVERLAPPING,
                "a materialized bottom cell is admitted by both "
                "actions at the witness time",
                witness=verified,
            )
    candidate = next(
        filter(None, (prover.witness(pa, pb) for pa, pb in pairs))
    )
    return PairRelation(
        a.name,
        b.name,
        Verdict.UNKNOWN,
        "overlap is plausible but not provable (over-approximated boxes "
        "or ungrounded regions); the witness is a candidate, not a proof",
        witness=candidate,
    )
