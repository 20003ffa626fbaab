"""A bounded decision procedure for specification predicates.

The paper discharges its predicate satisfiability and implication checks
to the PVS theorem prover (Sections 5.2–5.3).  This module substitutes a
decision procedure specialized to the actual predicate fragment — after
DNF splitting, conjunctions of per-dimension range atoms:

* **time atoms** reduce, at each concrete evaluation time, to *exact*
  day-ordinal intervals (:func:`repro.spec.ranges.window_at`);
* **categorical atoms** ground to finite bottom-value regions against the
  dimension instances (:func:`repro.spec.ranges.bottom_region`) — the
  counterpart of the paper giving PVS "knowledge of the domain of the URL
  dimension";
* the time variable is handled by *bounded sampling*: properties are
  verified exactly at every day of a horizon wide enough to contain all
  absolute bounds, all NOW-offsets, and several calendar cycles.

For the NOW-relative fragment the satisfiability pattern is eventually
periodic in the evaluation time, so a multi-year horizon decides the
paper's examples exactly; the horizon is configurable and recorded in the
result for auditability.

One :class:`Prover` serves one analysis.  It holds the dimension
instances and the :class:`ProverConfig`, and memoises by profile
everything asked of a DNF disjunct: the action's profiles, each
profile's grounded regions and liveness, each pair's overlap witness and
containment, the sampled horizons, and the exact day windows over
them.  A disjunct
abstracted this way is the analyzer's *box*: a sound over-approximation
of the bottom cells it can ever admit, and *exact*
(:meth:`Prover.exact`) when no part of it widened.  NonCrossing, Growing,
the relationship matrix, reachability, the cost estimates and the lint
rules all read one prover, so each question is decided once per
analysis.
"""

from __future__ import annotations

import datetime as _dt
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..core.dimension import Dimension
from ..spec.action import Action, is_time_dimension_type
from ..spec.ranges import (
    ConjunctProfile,
    bottom_region,
    profiles_of,
    window_at,
    window_contains,
    windows_intersect,
)

_INF = float("inf")

#: Default evaluation-time reference when no absolute bound anchors one.
DEFAULT_REFERENCE = _dt.date(2001, 1, 1)

#: Default number of years sampled around the anchor.
DEFAULT_HORIZON_YEARS = 4

#: Cap on enumerated categorical product cells in coverage checks.
REGION_CAP = 50_000

#: A grounded bottom-value region per non-time dimension: ``None`` means
#: unconstrained, a symbolic region constrained but ungrounded.
Regions = Mapping[str, frozenset[str] | None]

#: An exact day window at one evaluation time (``None``: unconstrained).
Window = tuple[float, float] | None


@dataclass
class ProverConfig:
    """Tunables of the bounded decision procedure."""

    reference: _dt.date = DEFAULT_REFERENCE
    horizon_years: int = DEFAULT_HORIZON_YEARS


def time_independent(profile: ConjunctProfile) -> bool:
    """Whether the conjunct's time atoms are free of the NOW variable."""
    return not profile.window.has_rel and not profile.shrinking_edges


def window_modelled_exactly(profile: ConjunctProfile) -> bool:
    """Whether ``window_at`` is exact (not an over-approximation) for the
    profile: only plain comparisons, no membership hulls or exclusions."""
    return all(
        atom.op in ("<", "<=", ">", ">=", "=") for atom in profile.time_atoms
    )


# ----------------------------------------------------------------------
# Categorical reasoning
# ----------------------------------------------------------------------

class _Symbolic(frozenset):
    """Marker: a constrained region that could not be grounded."""


_SYMBOLIC = _Symbolic()


def region_is_symbolic(region: frozenset[str] | None) -> bool:
    """Whether a categorical region is constrained but ungrounded."""
    return isinstance(region, _Symbolic)


def regions_overlap(a: Regions, b: Regions) -> bool:
    """Could some bottom cell satisfy both categorical regions?

    Sound over-approximation: ungrounded (symbolic) regions count as
    overlapping.
    """
    for name in set(a) | set(b):
        ra = a.get(name)
        rb = b.get(name)
        if isinstance(ra, _Symbolic) or isinstance(rb, _Symbolic):
            continue
        if ra is None or rb is None:
            continue
        if not (ra & rb):
            return False
        if not ra or not rb:
            return False
    return True


def cell_in_region(cell: Mapping[str, str], regions: Regions) -> bool:
    """Does a bottom cell lie inside a categorical region?

    Symbolic regions fail closed (the catcher cannot be *proved* to cover
    the cell).
    """
    for name, region in regions.items():
        if isinstance(region, _Symbolic):
            return False
        if region is None:
            continue
        if cell.get(name) not in region:
            return False
    return True


# ----------------------------------------------------------------------
# Overlap witnesses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapWitness:
    """A concrete point where two conjunct profiles meet.

    ``at`` is the evaluation time, ``day`` a day inside both time windows
    (``None`` when neither profile constrains time), and ``cell`` the
    chosen non-time bottom values as sorted ``(dimension, value)`` pairs.
    The witness is a *candidate*: callers that need certainty re-evaluate
    the predicates at this point.
    """

    at: _dt.date
    day: _dt.date | None
    cell: tuple[tuple[str, str], ...]

    def cell_mapping(self) -> dict[str, str]:
        return dict(self.cell)


def _witness_day(
    a: tuple[float, float] | None, b: tuple[float, float] | None
) -> _dt.date | None:
    lo = max(
        (w[0] for w in (a, b) if w is not None), default=-_INF
    )
    hi = min(
        (w[1] for w in (a, b) if w is not None), default=_INF
    )
    for bound in (lo, hi):
        if bound not in (-_INF, _INF):
            return _dt.date.fromordinal(int(bound))
    return None


# ----------------------------------------------------------------------
# Interval-union coverage (used by the Growing check)
# ----------------------------------------------------------------------

def interval_covered(
    target: tuple[float, float],
    pieces: Iterable[tuple[float, float] | None],
) -> bool:
    """Is the day interval *target* contained in the union of *pieces*?"""
    lo, hi = target
    if lo > hi:
        return True
    concrete: list[tuple[float, float]] = []
    for piece in pieces:
        if piece is None:
            return True
        if piece[0] <= piece[1]:
            concrete.append(piece)
    concrete.sort()
    cursor = lo
    for p_lo, p_hi in concrete:
        if p_lo > cursor:
            return False
        if p_hi >= cursor:
            cursor = p_hi + 1
            if cursor > hi:
                return True
    return cursor > hi


# ----------------------------------------------------------------------
# The prover of one analysis
# ----------------------------------------------------------------------

class Prover:
    """The bounded decision procedure over one set of dimension instances.

    Every answer is memoised by profile (profiles hash by identity), so
    it is computed at most once however many checks ask.  Without
    dimension instances constrained regions stay symbolic, which every
    question treats conservatively (assume overlap; refuse coverage).
    """

    def __init__(
        self,
        dimensions: Mapping[str, Dimension] | None = None,
        config: ProverConfig | None = None,
    ) -> None:
        self.dimensions = dimensions
        self.config = config or ProverConfig()
        self._profiles: dict[Action, tuple[ConjunctProfile, ...]] = {}
        self._live: dict[Action, tuple[ConjunctProfile, ...]] = {}
        self._regions: dict[ConjunctProfile, Regions] = {}
        self._witnesses: dict[
            tuple[ConjunctProfile, ConjunctProfile], OverlapWitness | None
        ] = {}
        self._contained: dict[tuple[ConjunctProfile, ConjunctProfile], bool] = {}
        self._windows: dict[ConjunctProfile, dict[_dt.date, Window]] = {}
        self._horizons: dict[tuple[int, int], list[_dt.date]] = {}

    # -- disjuncts -------------------------------------------------------

    def profiles(self, action: Action) -> tuple[ConjunctProfile, ...]:
        """One profile per DNF disjunct of the action's predicate."""
        if action not in self._profiles:
            self._profiles[action] = tuple(profiles_of(action))
        return self._profiles[action]

    def live(self, action: Action) -> tuple[ConjunctProfile, ...]:
        """The disjuncts that admit a cell at some sampled time."""
        if action not in self._live:
            self._live[action] = tuple(
                p for p in self.profiles(action) if self.overlaps(p, p)
            )
        return self._live[action]

    def regions(self, profile: ConjunctProfile) -> Regions:
        """Grounded bottom-value region per non-time dimension."""
        if profile not in self._regions:
            self._regions[profile] = self._ground(profile)
        return self._regions[profile]

    def _ground(self, profile: ConjunctProfile) -> Regions:
        regions: dict[str, frozenset[str] | None] = {}
        schema = profile.action.schema
        for name in schema.dimension_names:
            if name == profile.time_dimension or is_time_dimension_type(
                schema.dimension_type(name)
            ):
                continue
            if not profile.categorical_for(name):
                regions[name] = None
            elif self.dimensions is None or name not in self.dimensions:
                regions[name] = _SYMBOLIC
            else:
                regions[name] = bottom_region(profile, self.dimensions[name])
        return regions

    def exact(self, profile: ConjunctProfile) -> bool:
        """Whether no part of the box over-approximates the disjunct.

        Exactness licenses definite verdicts: the box admits a bottom cell
        at time ``t`` if and only if the disjunct does.
        """
        return (
            not profile.unmodelled_atoms
            and window_modelled_exactly(profile)
            and not any(map(region_is_symbolic, self.regions(profile).values()))
        )

    def cells(
        self, profile: ConjunctProfile, cap: int = REGION_CAP
    ) -> list[dict[str, str]] | None:
        """All bottom cells of the profile's non-time region, or ``None``
        when the product cannot be enumerated (symbolic region or above
        *cap*)."""
        names: list[str] = []
        value_sets: list[Sequence[str]] = []
        size = 1
        for name, region in self.regions(profile).items():
            if isinstance(region, _Symbolic):
                return None
            if region is None:
                if self.dimensions is None or name not in self.dimensions:
                    return None
                dimension = self.dimensions[name]
                region = dimension.values(dimension.bottom_category)
            names.append(name)
            values = sorted(region)
            value_sets.append(values)
            size *= max(1, len(values))
            if size > cap:
                return None
            if not values:
                return []
        return [
            dict(zip(names, combo)) for combo in itertools.product(*value_sets)
        ]

    # -- time ------------------------------------------------------------

    def horizon(self, profiles: Sequence[ConjunctProfile]) -> list[_dt.date]:
        """The evaluation times at which a question about *profiles* is
        verified exactly.

        The horizon spans all absolute day bounds found in the profiles,
        padded by the largest NOW-offset plus one year on each side, and
        is at least ``horizon_years`` wide around the reference date.
        """
        abs_days: list[float] = []
        max_offset = 0.0
        for profile in profiles:
            window = profile.window
            for bound in (window.abs_lo, window.abs_hi):
                if bound not in (-_INF, _INF):
                    abs_days.append(bound)
            for bound in (window.rel_lo, window.rel_hi):
                if bound not in (-_INF, _INF):
                    max_offset = max(max_offset, abs(bound))
        pad = int(max_offset) + 366
        ref = self.config.reference.toordinal()
        half = (self.config.horizon_years * 366) // 2
        lo = ref - half
        hi = ref + half
        if abs_days:
            lo = min(lo, int(min(abs_days)) - pad)
            hi = max(hi, int(max(abs_days)) + pad)
        if (lo, hi) not in self._horizons:
            self._horizons[lo, hi] = [
                _dt.date.fromordinal(day) for day in range(lo, hi + 1)
            ]
        return self._horizons[lo, hi]

    def window(self, profile: ConjunctProfile, at: _dt.date) -> Window:
        """:func:`~repro.spec.ranges.window_at`, once per (profile, day)."""
        windows = self._windows.get(profile)
        if windows is None:
            windows = self._windows[profile] = {}
        if at not in windows:
            windows[at] = window_at(profile, at)
        return windows[at]

    # -- pairs -----------------------------------------------------------

    def overlaps(self, p1: ConjunctProfile, p2: ConjunctProfile) -> bool:
        """Decide ``exists t: Pred(p1, t) and Pred(p2, t) nonempty``.

        Exact on the sampled horizon; errs on the side of ``True``
        (overlap) whenever grounding information is missing, which makes
        the NonCrossing checker reject rather than accept in the unclear
        cases.
        """
        return self.witness(p1, p2) is not None

    def witness(
        self, p1: ConjunctProfile, p2: ConjunctProfile
    ) -> OverlapWitness | None:
        """A candidate point satisfying both profiles; ``None`` exactly
        when they do not overlap.

        The point is a shared bottom value per groundable non-time
        dimension (any bottom value where both profiles are
        unconstrained) and the first sampled time whose windows
        intersect.
        """
        key = (p1, p2)
        if key not in self._witnesses:
            self._witnesses[key] = self._meet(p1, p2)
        return self._witnesses[key]

    def _meet(
        self, p1: ConjunctProfile, p2: ConjunctProfile
    ) -> OverlapWitness | None:
        r1 = self.regions(p1)
        r2 = self.regions(p2)
        if not regions_overlap(r1, r2):
            return None
        cell: dict[str, str] = {}
        for name in sorted(set(r1) | set(r2)):
            ra = r1.get(name)
            rb = r2.get(name)
            if isinstance(ra, _Symbolic) or isinstance(rb, _Symbolic):
                continue
            if ra is None and rb is None:
                if self.dimensions is not None and name in self.dimensions:
                    dimension = self.dimensions[name]
                    values = dimension.values(dimension.bottom_category)
                    if values:
                        cell[name] = min(values)
                continue
            if ra is None:
                pool = rb
            elif rb is None:
                pool = ra
            else:
                pool = ra & rb
            if pool:
                cell[name] = min(pool)
        frozen = tuple(sorted(cell.items()))
        if not p1.time_atoms and not p2.time_atoms:
            return OverlapWitness(self.config.reference, None, frozen)
        if time_independent(p1) and time_independent(p2):
            # No NOW variable: one evaluation decides (line 3 of the
            # paper's noncrossing algorithm).
            times: list[_dt.date] = [self.config.reference]
        else:
            times = self.horizon((p1, p2))
        for t in times:
            w1 = self.window(p1, t)
            w2 = self.window(p2, t)
            if windows_intersect(w1, w2):
                return OverlapWitness(t, _witness_day(w1, w2), frozen)
        return None

    def region_contained(
        self, inner: ConjunctProfile, outer: ConjunctProfile
    ) -> bool:
        """Prove the inner categorical region is inside the outer one."""
        inner_regions = self.regions(inner)
        for name, outer_region in self.regions(outer).items():
            if outer_region is None:
                continue  # outer unconstrained in this dimension
            if region_is_symbolic(outer_region):
                return False  # an ungrounded region cannot prove coverage
            inner_region = inner_regions.get(name)
            if inner_region is None or region_is_symbolic(inner_region):
                return False
            if not inner_region <= outer_region:
                return False
        return True

    def contained(self, inner: ConjunctProfile, outer: ConjunctProfile) -> bool:
        """Prove every bottom cell *inner* admits, *outer* admits too, at
        every sampled evaluation time.

        Refuses (returns ``False``) whenever the outer profile would be an
        over-approximation — definite containment may only rest on an
        exact outer box.
        """
        key = (inner, outer)
        if key not in self._contained:
            self._contained[key] = self._contains(inner, outer)
        return self._contained[key]

    def _contains(self, inner: ConjunctProfile, outer: ConjunctProfile) -> bool:
        if outer.unmodelled_atoms or not window_modelled_exactly(outer):
            return False  # the outer region would be an over-approximation
        if not self.region_contained(inner, outer):
            return False
        for t in self.horizon((inner, outer)):
            inner_window = self.window(inner, t)
            outer_window = self.window(outer, t)
            if inner_window is None:
                if outer_window is not None:
                    return False
                continue
            if not window_contains(outer_window, inner_window):
                return False
        return True
