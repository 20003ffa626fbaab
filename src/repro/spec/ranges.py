"""Range profiles of conjunctive predicates — the checker substrate.

Section 5.3's pre-processing turns every predicate into a conjunction of
range predicates per dimension.  This module compiles such a conjunct into
a :class:`ConjunctProfile`:

* time atoms become a *day-axis window*, kept in two parts — an absolute
  interval (from literal bounds) and a NOW-relative interval of offsets
  from the evaluation time (from ``NOW +/- span`` bounds).  Offsets are
  widened by one granule of the constrained category, so the windows are
  sound over-approximations of the cells the predicate can ever select;
* non-time atoms become per-(dimension, category) *categorical
  constraints*: an allowed set (from ``=`` / ``in``) and an excluded set
  (from ``!=``).  Order comparisons on non-time dimensions are kept as raw
  atoms but treated as unconstrained by the provers (a sound
  over-approximation).

The profiles feed the NonCrossing satisfiability test (Section 5.2) and
the Growing boundary check (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.dimension import ALL_VALUE, Dimension
from ..core.hierarchy import TOP
from ..errors import SpecSemanticsError
from ..timedim.calendar import first_day, last_day
from ..timedim.granularity import DAY, MONTH, QUARTER, WEEK, YEAR
from ..timedim.now import AbsoluteTime, NowRelative
from .action import Action, is_time_dimension_type
from .ast import Atom

#: Worst-case length (days) of one value of each time category; used to
#: widen NOW-relative bounds so the windows over-approximate soundly.
GRANULE_DAYS = {DAY: 1, WEEK: 7, MONTH: 31, QUARTER: 92, YEAR: 366}

_INF = float("inf")


@dataclass
class DayWindow:
    """A day-axis window ``[lo, hi]`` with absolute and NOW-relative parts.

    ``abs_*`` are day ordinals; ``rel_*`` are day offsets from ``NOW``.
    ``None`` means unbounded on that side; ``empty`` marks a provably
    unsatisfiable conjunction of time atoms.
    """

    abs_lo: float = -_INF
    abs_hi: float = _INF
    rel_lo: float = -_INF
    rel_hi: float = _INF

    def tighten_abs(self, lo: float | None = None, hi: float | None = None) -> None:
        if lo is not None:
            self.abs_lo = max(self.abs_lo, lo)
        if hi is not None:
            self.abs_hi = min(self.abs_hi, hi)

    def tighten_rel(self, lo: float | None = None, hi: float | None = None) -> None:
        if lo is not None:
            self.rel_lo = max(self.rel_lo, lo)
        if hi is not None:
            self.rel_hi = min(self.rel_hi, hi)

    @property
    def has_abs(self) -> bool:
        return self.abs_lo != -_INF or self.abs_hi != _INF

    @property
    def has_rel(self) -> bool:
        return self.rel_lo != -_INF or self.rel_hi != _INF

    def abs_empty(self) -> bool:
        return self.abs_lo > self.abs_hi

    def rel_empty(self) -> bool:
        return self.rel_lo > self.rel_hi

    def certainly_disjoint(self, other: "DayWindow") -> bool:
        """Provably no day (at any evaluation time) lies in both windows.

        Absolute parts must fail to intersect, or — when both windows are
        NOW-relative — the offset intervals must fail to intersect.  Mixed
        absolute/relative windows can always meet at *some* evaluation
        time, so they are never certainly disjoint on time grounds alone.
        """
        if self.abs_empty() or self.rel_empty():
            return True
        if other.abs_empty() or other.rel_empty():
            return True
        if self.has_abs and other.has_abs:
            if self.abs_lo > other.abs_hi or other.abs_lo > self.abs_hi:
                return True
        if self.has_rel and other.has_rel:
            if self.rel_lo > other.rel_hi or other.rel_lo > self.rel_hi:
                return True
        return False


@dataclass
class CategoricalConstraint:
    """Allowed/excluded value sets at one (dimension, category)."""

    dimension: str
    category: str
    allowed: frozenset[str] | None = None  # None == unconstrained
    excluded: frozenset[str] = frozenset()

    def restrict(self, values: Iterable[str]) -> None:
        new = frozenset(values)
        self.allowed = new if self.allowed is None else self.allowed & new

    def exclude(self, values: Iterable[str]) -> None:
        self.excluded = self.excluded | frozenset(values)

    def is_empty(self) -> bool:
        return self.allowed is not None and not (self.allowed - self.excluded)

    def effective_allowed(self) -> frozenset[str] | None:
        if self.allowed is None:
            return None
        return self.allowed - self.excluded


@dataclass(eq=False)
class ConjunctProfile:
    """The compiled range profile of one conjunctive predicate.

    Profiles compare and hash by identity, so analyses can memoise by
    profile.
    """

    action: Action
    window: DayWindow = field(default_factory=DayWindow)
    categorical: dict[tuple[str, str], CategoricalConstraint] = field(
        default_factory=dict
    )
    #: NOW-relative lower-boundary terms: the trailing edges that make the
    #: action shrink (category F of Section 5.3).
    shrinking_edges: tuple[NowRelative, ...] = ()
    #: Atoms the profile over-approximates (order ops on non-time dims).
    unmodelled_atoms: tuple[Atom, ...] = ()
    time_dimension: str | None = None
    #: The raw time atoms, kept for exact per-time window evaluation.
    time_atoms: tuple[Atom, ...] = ()

    def categorical_for(self, dimension: str) -> list[CategoricalConstraint]:
        return [c for (d, _), c in self.categorical.items() if d == dimension]

    def is_shrinking(self) -> bool:
        return bool(self.shrinking_edges)

    def time_empty(self) -> bool:
        return self.window.abs_empty() or self.window.rel_empty()


def profile_conjunct(action: Action, atoms: Iterable[Atom]) -> ConjunctProfile:
    """Compile one DNF conjunct of *action* into a range profile."""
    profile = ConjunctProfile(action)
    shrinking: list[NowRelative] = []
    unmodelled: list[Atom] = []
    time_atoms: list[Atom] = []
    for atom in atoms:
        dimension_type = action.schema.dimension_type(atom.ref.dimension)
        if is_time_dimension_type(dimension_type) and atom.ref.category != TOP:
            profile.time_dimension = atom.ref.dimension
            time_atoms.append(atom)
            _fold_time_atom(profile.window, atom, shrinking)
        else:
            _fold_categorical_atom(profile, atom, unmodelled)
    profile.shrinking_edges = tuple(shrinking)
    profile.unmodelled_atoms = tuple(unmodelled)
    profile.time_atoms = tuple(time_atoms)
    return profile


def profiles_of(action: Action) -> list[ConjunctProfile]:
    """One profile per DNF conjunct of the action's predicate."""
    return [profile_conjunct(action, atoms) for atoms in action.conjuncts()]


# ----------------------------------------------------------------------
# Folding atoms into profiles
# ----------------------------------------------------------------------

def _fold_time_atom(
    window: DayWindow, atom: Atom, shrinking: list[NowRelative]
) -> None:
    category = atom.ref.category
    granule = GRANULE_DAYS.get(category)
    if granule is None:
        raise SpecSemanticsError(
            f"unsupported time category {category!r} in predicate"
        )
    op = atom.op
    terms = atom.terms
    if op == "in":
        # Over-approximate a membership set by its convex hull.
        los, his = [], []
        for term in terms:
            lo, hi = _term_day_range(term, category, granule)
            los.append(lo)
            his.append(hi)
        window.tighten_abs(*_only_abs(terms, min(los), max(his)))
        window.tighten_rel(*_only_rel(terms, min(los), max(his)))
        if any(isinstance(t, NowRelative) for t in terms):
            shrinking.extend(t for t in terms if isinstance(t, NowRelative))
        return
    term = terms[0]
    lo, hi = _term_day_range(term, category, granule)
    relative = isinstance(term, NowRelative)
    if op == "<":
        _tighten(window, relative, hi=lo - 1)
    elif op == "<=":
        _tighten(window, relative, hi=hi)
    elif op == ">":
        _tighten(window, relative, lo=hi + 1)
        if relative:
            shrinking.append(term)
    elif op == ">=":
        _tighten(window, relative, lo=lo)
        if relative:
            shrinking.append(term)
    elif op == "=":
        _tighten(window, relative, lo=lo, hi=hi)
        if relative:
            shrinking.append(term)
    elif op == "!=":
        # Excluding one granule leaves the window effectively unchanged at
        # this level of abstraction (sound over-approximation).
        pass


def _tighten(
    window: DayWindow, relative: bool, lo: float | None = None, hi: float | None = None
) -> None:
    if relative:
        window.tighten_rel(lo, hi)
    else:
        window.tighten_abs(lo, hi)


def _term_day_range(
    term: AbsoluteTime | NowRelative | str, category: str, granule: int
) -> tuple[float, float]:
    """The day-range denoted by *term*: ordinals for absolute terms,
    NOW-offsets (widened by one granule) for relative terms."""
    if isinstance(term, AbsoluteTime):
        return (
            float(first_day(category, term.value).toordinal()),
            float(last_day(category, term.value).toordinal()),
        )
    if isinstance(term, NowRelative):
        offset = float(term.offset_days())
        return offset - granule, offset + granule
    raise SpecSemanticsError(
        f"unbound string literal {term!r} in a time atom"
    )  # pragma: no cover - Action binding prevents this


def _only_abs(terms, lo: float, hi: float) -> tuple[float | None, float | None]:
    if all(isinstance(t, AbsoluteTime) for t in terms):
        return lo, hi
    return None, None


def _only_rel(terms, lo: float, hi: float) -> tuple[float | None, float | None]:
    if all(isinstance(t, NowRelative) for t in terms):
        return lo, hi
    return None, None


def _fold_categorical_atom(
    profile: ConjunctProfile, atom: Atom, unmodelled: list[Atom]
) -> None:
    key = (atom.ref.dimension, atom.ref.category)
    constraint = profile.categorical.get(key)
    if constraint is None:
        constraint = CategoricalConstraint(atom.ref.dimension, atom.ref.category)
        profile.categorical[key] = constraint
    values = tuple(t if isinstance(t, str) else str(t) for t in atom.terms)
    if atom.op in ("=", "in"):
        constraint.restrict(values)
    elif atom.op == "!=":
        constraint.exclude(values)
    else:
        unmodelled.append(atom)


# ----------------------------------------------------------------------
# Exact day windows at a concrete evaluation time
# ----------------------------------------------------------------------

def window_at(profile: ConjunctProfile, now) -> tuple[float, float] | None:
    """The exact day-ordinal interval satisfying the conjunct's time atoms
    at evaluation time *now*.

    At a concrete time every ``NOW``-term denotes a concrete category
    value, so the window is exact (no granule widening): a bottom cell's
    day ``d`` satisfies ``C op v`` iff ``d`` lies in the derived interval.
    ``None`` encodes an unconstrained time dimension; an empty interval is
    returned as ``(lo, hi)`` with ``lo > hi``.  ``in``-atoms contribute
    their convex hull (sound for the checkers, which only ever *widen*
    with it); ``!=`` atoms are ignored (likewise sound).
    """
    if not profile.time_atoms:
        return None
    lo, hi = -_INF, _INF
    for atom in profile.time_atoms:
        category = atom.ref.category
        if atom.op == "in":
            days_lo = min(
                _term_first_day(t, category, now) for t in atom.terms
            )
            days_hi = max(
                _term_last_day(t, category, now) for t in atom.terms
            )
            lo, hi = max(lo, days_lo), min(hi, days_hi)
            continue
        term = atom.terms[0]
        t_lo = _term_first_day(term, category, now)
        t_hi = _term_last_day(term, category, now)
        if atom.op == "<":
            hi = min(hi, t_lo - 1)
        elif atom.op == "<=":
            hi = min(hi, t_hi)
        elif atom.op == ">":
            lo = max(lo, t_hi + 1)
        elif atom.op == ">=":
            lo = max(lo, t_lo)
        elif atom.op == "=":
            lo, hi = max(lo, t_lo), min(hi, t_hi)
        # "!=" ignored: sound over-approximation.
    return lo, hi


def _term_value(term, category: str, now) -> str:
    if isinstance(term, NowRelative):
        return term.evaluate(now, category)
    if isinstance(term, AbsoluteTime):
        return term.value
    raise SpecSemanticsError(f"unbound term {term!r} in a time atom")


def _term_first_day(term, category: str, now) -> float:
    return float(first_day(category, _term_value(term, category, now)).toordinal())


def _term_last_day(term, category: str, now) -> float:
    return float(last_day(category, _term_value(term, category, now)).toordinal())


def windows_intersect(
    a: tuple[float, float] | None, b: tuple[float, float] | None
) -> bool:
    """Do two concrete day windows share a day (``None`` = everything)?"""
    if a is not None and a[0] > a[1]:
        return False
    if b is not None and b[0] > b[1]:
        return False
    if a is None or b is None:
        return True
    return a[0] <= b[1] and b[0] <= a[1]


def window_contains(
    outer: tuple[float, float] | None, inner: tuple[float, float]
) -> bool:
    """Is the concrete interval *inner* fully inside *outer*?"""
    if inner[0] > inner[1]:
        return True
    if outer is None:
        return True
    if outer[0] > outer[1]:
        return False
    return outer[0] <= inner[0] and inner[1] <= outer[1]


# ----------------------------------------------------------------------
# Grounding categorical constraints against a dimension instance
# ----------------------------------------------------------------------

def bottom_region(
    profile: ConjunctProfile,
    dimension: Dimension,
) -> frozenset[str] | None:
    """Bottom-category values of *dimension* satisfying the profile's
    categorical constraints, or ``None`` when unconstrained.

    This is the finite-domain grounding that substitutes for the paper's
    PVS "knowledge of the domain of the URL dimension" (Equation 29).
    """
    constraints = profile.categorical_for(dimension.name)
    if not constraints:
        return None
    bottom = dimension.values(dimension.bottom_category)
    region = set(bottom)
    restricted = False
    for constraint in constraints:
        allowed = constraint.effective_allowed()
        if constraint.category == TOP:
            if allowed is not None and ALL_VALUE not in allowed:
                return frozenset()
            continue
        if allowed is not None or constraint.excluded:
            restricted = True
        if allowed is not None:
            keep = set()
            for value in region:
                ancestor = dimension.try_ancestor_at(value, constraint.category)
                if ancestor is not None and ancestor in allowed:
                    keep.add(value)
            region = keep
        if constraint.excluded and allowed is None:
            keep = set()
            for value in region:
                ancestor = dimension.try_ancestor_at(value, constraint.category)
                if ancestor is None or ancestor not in constraint.excluded:
                    keep.add(value)
            region = keep
    if not restricted:
        return None
    return frozenset(region)
