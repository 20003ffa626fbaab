"""The subcube store: Figure 6's architecture.

New data enters the bottom-granularity cube; synchronization migrates
facts between cubes as ``NOW`` advances (Section 7.2); queries run against
all cubes and combine (Section 7.3, in :mod:`repro.engine.queryproc`).

A fact belongs to the granularity group that is ``<=_V``-maximal among
the actions whose (raw) predicate its cell satisfies.  Every
synchronization, and ``rebuild``, places its candidate facts in one batch
pass over the reduce kernel's columnar table: admission once per distinct
cell with the kernel's own stage, the target cube once per
admitted-action bit pattern, one fold per target cell.  That is what
keeps the store equivalent to ``reduce_mo`` (property-tested).
"""

from __future__ import annotations

import datetime as _dt
import time
import types
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from ..core.columnar import ColumnarFactTable
from ..core.dimension import ALL_VALUE
from ..core.facts import Provenance, aggregate_fact_id
from ..core.hierarchy import TOP
from ..core.mo import MultidimensionalObject
from ..errors import AuditError, EngineError, ReproError
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..reduction.columnar import admit_cells
from ..spec.ranges import GRANULE_DAYS
from ..spec.specification import ReductionSpecification
from ..timedim.calendar import first_day, last_day
from ..timedim.now import NowRelative
from .disjoint import DisjointAction, disjoint_actions
from .subcube import SubCube

#: Day-ordinal intervals per dimension within which admission verdicts may
#: have changed between two synchronization times; ``None`` = everywhere.
SuspectRegions = "dict[str, list[tuple[float, float]]] | None"

# Metric families the store reports into its per-instance registry
# (registered in engine/telemetry.py, catalogued in
# docs/observability.md).
from .telemetry import (  # noqa: E402
    STORE_LOADED,
    STORE_REBUILDS,
    SYNC_EXAMINED,
    SYNC_LAST_EXAMINED,
    SYNC_LAST_MIGRATED,
    SYNC_LAST_SKIPPED,
    SYNC_MIGRATED,
    SYNC_RUNS,
    SYNC_SECONDS,
    SYNC_SKIPPED,
    SYNC_UNDO_LOG,
)

_HELP_LAST_EXAMINED = "Facts the most recent synchronize() examined."


@dataclass
class AuditReport:
    """Outcome of a :meth:`SubcubeStore.verify` invariant audit."""

    violations: list[str] = field(default_factory=list)
    facts: int = 0
    sources: int = 0
    checked_measures: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise AuditError(self.violations)

    def as_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "facts": self.facts,
            "sources": self.sources,
            "checked_measures": self.checked_measures,
            "violations": list(self.violations),
        }


class _UndoLog:
    """First-touch-wins before-images of cube facts, for rollback.

    Every mutation the store performs during a transactional operation
    records the prior state of the (cube, fact id) pair it is about to
    touch — whether the fact existed, and with which coordinates,
    measures, and provenance.  Rolling back replays those before-images
    in any order (first-touch-wins makes later touches of the same pair
    no-ops), restoring the store to the state before the operation.
    """

    def __init__(self) -> None:
        self._before: dict[tuple[str, str], tuple | None] = {}
        self.dirty_added: set[str] = set()

    def __len__(self) -> int:
        return len(self._before)

    def record(self, cube: SubCube, fact_id: str) -> None:
        key = (cube.name, fact_id)
        if key in self._before:
            return
        mo = cube.mo
        if fact_id in mo:
            self._before[key] = (
                dict(
                    zip(mo.schema.dimension_names, mo.direct_cell(fact_id))
                ),
                {
                    name: mo.measure_value(fact_id, name)
                    for name in mo.schema.measure_names
                },
                mo.provenance(fact_id),
            )
        else:
            self._before[key] = None

    def record_row(
        self, cube: SubCube, fact_id: str, table: ColumnarFactTable, row: int
    ) -> None:
        """:meth:`record` for a fact whose state is *table*'s *row*."""
        key = (cube.name, fact_id)
        if key not in self._before:
            self._before[key] = (
                dict(zip(table.dimension_names, table.row_cell(row))),
                table.row_measures(row),
                table.provenances[row],
            )

    def rollback(self, store: "SubcubeStore") -> None:
        for (cube_name, fact_id), before in self._before.items():
            mo = store.cube(cube_name).mo
            if fact_id in mo:
                mo.delete_fact(fact_id)
            if before is not None:
                coordinates, measures, provenance = before
                mo.insert_aggregate_fact(
                    fact_id, coordinates, measures, provenance
                )
        store._dirty -= self.dirty_added
        self._before.clear()
        self.dirty_added.clear()


class SubcubeStore:
    """A warehouse physically organized as disjoint subcubes."""

    #: Set (per instance) by the mutation sanitizer when this store is a
    #: published snapshot; attribute writes and the load/synchronize/
    #: rebuild entry points then raise (see :mod:`repro.sanitize`).
    _sealed = False

    def __setattr__(self, name: str, value: object) -> None:
        if self._sealed:
            from ..sanitize import check_unsealed

            check_unsealed(self, f"assignment of {name!r}")
        super().__setattr__(name, value)

    def _check_writable(self, action: str) -> None:
        if self._sealed:
            from ..sanitize import check_unsealed

            check_unsealed(self, action)

    def __init__(
        self,
        template: MultidimensionalObject,
        specification: ReductionSpecification,
        metrics: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        self._template = template.empty_like()
        self._specification = specification
        self._definitions = disjoint_actions(specification)
        self._cubes: dict[str, SubCube] = {
            definition.name: SubCube(definition, self._template)
            for definition in self._definitions
        }
        self._bottom_name = self._bottom_cube_name()
        self.last_sync: _dt.date | None = None
        #: Facts loaded since the last synchronization (they must be
        #: examined regardless of the suspect-region analysis).
        self._dirty: set[str] = set()
        #: The store's private metrics registry: gauges like
        #: ``repro_sync_last_examined`` are per-store state, so two stores
        #: must never write to the same family.  Pass a registry to pool
        #: several stores (or the CLI's run registry) explicitly.
        self.metrics = (
            metrics if metrics is not None else obs_metrics.MetricsRegistry()
        )
        self.metrics.gauge(
            SYNC_LAST_EXAMINED, help=_HELP_LAST_EXAMINED
        ).set(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def specification(self) -> ReductionSpecification:
        return self._specification

    @property
    def definitions(self) -> tuple[DisjointAction, ...]:
        return self._definitions

    @property
    def cubes(self) -> Mapping[str, SubCube]:
        """A read-only live view of the subcubes (no per-access copy)."""
        return types.MappingProxyType(self._cubes)

    def cube(self, name: str) -> SubCube:
        try:
            return self._cubes[name]
        except KeyError:
            raise EngineError(f"no subcube named {name!r}") from None

    @property
    def bottom_cube(self) -> SubCube:
        return self._cubes[self._bottom_name]

    def total_facts(self) -> int:
        return sum(cube.n_facts for cube in self._cubes.values())

    def _bottom_cube_name(self) -> str:
        bottom = self._template.schema.bottom_granularity()
        for definition in self._definitions:
            if definition.granularity == bottom:
                return definition.name
        raise EngineError("disjoint transformation produced no bottom cube")

    # ------------------------------------------------------------------
    # Loading and synchronization (Section 7.2)
    # ------------------------------------------------------------------

    def load(
        self,
        facts: Iterable[tuple[str, Mapping[str, str], Mapping[str, object]]],
    ) -> int:
        """Bulk-load user facts into the bottom cube (always the entry
        point, per Section 7.2).

        The load is all-or-nothing: if any fact fails to insert (unknown
        value, missing measure, ...), every fact staged before it is
        rolled back and ``_dirty`` is left exactly as it was — a partial
        batch is never observable.
        """
        self._check_writable("load")
        staged = [
            (fact_id, dict(coordinates), dict(measures))
            for fact_id, coordinates, measures in facts
        ]
        self._journal_load(staged)
        bottom = self.bottom_cube
        undo = _UndoLog()
        with trace.span("store.load", facts=len(staged)):
            try:
                for index, (fact_id, coordinates, measures) in enumerate(
                    staged
                ):
                    self._load_fault(index, fact_id)
                    cell_id = bottom.cell_fact_id(coordinates)
                    undo.record(bottom, cell_id)
                    stored_id = bottom.insert_at_granularity(
                        coordinates, measures, Provenance.of(fact_id)
                    )
                    if stored_id not in self._dirty:
                        undo.dirty_added.add(stored_id)
                    self._dirty.add(stored_id)
            except BaseException as exc:
                undo.rollback(self)
                self._journal_load_failed(exc)
                raise
        self.metrics.counter(
            STORE_LOADED, help="Facts bulk-loaded into the bottom cube."
        ).inc(len(staged))
        return len(staged)

    def synchronize(
        self,
        now: _dt.date,
        *,
        incremental: bool = True,
    ) -> dict[str, int]:
        """Migrate facts so every cube holds exactly its cells at *now*.

        Returns per-cube migration counts (facts moved *into* each cube).
        Synchronization is idempotent at a fixed time and monotone for
        Growing specifications: facts only ever move from finer cubes to
        coarser ones.

        With ``incremental=True`` (the default) and a previous sync time on
        record, only *suspect* facts are examined: facts loaded since the
        last sync, plus facts whose time-dimension extent intersects a
        region where some NOW-relative atom's boundary lay at the old or
        new time.  A fact outside every such region satisfies exactly the
        same atoms at both times, so its target cube cannot have changed —
        skipping it is sound, and the incremental path is bit-for-bit
        equivalent to a full rescan (property-tested).  The number of facts
        actually examined is exposed as the ``repro_sync_last_examined``
        gauge on :attr:`metrics`.
        """
        self._check_writable("synchronize")
        if self.last_sync is not None and now < self.last_sync:
            raise EngineError(
                f"synchronization time moved backwards ({self.last_sync} -> {now})"
            )
        regions = None
        if incremental and self.last_sync is not None:
            regions = self._suspect_regions(self.last_sync, now)
        # "incremental" means the suspect-region analysis actually bounded
        # the work; a first sync or an unbounded analysis is a full rescan.
        mode = "incremental" if regions is not None else "full"
        self._journal_sync_begin(now, incremental)
        moved: dict[str, int] = {name: 0 for name in self._cubes}
        undo = _UndoLog()
        started = time.perf_counter()
        with trace.span("sync.run", mode=mode) as sync_span:
            try:
                with trace.span("sync.plan") as plan_span:
                    placement = self._plan_placement(
                        self._visiting_order(regions), now
                    )
                    plan_span.set_attribute("candidates", len(placement.table))
                    plan_span.set_attribute(
                        "distinct_cells", placement.distinct_cells
                    )
                with trace.span("sync.apply", groups=len(placement.groups)):
                    # Every source leaves before any target cell folds, so
                    # a fact that is both follows its own plan.
                    table = placement.table
                    for cube, fact_id, row in placement.sources:
                        self._migrate_fault()
                        undo.record_row(cube, fact_id, table, row)
                        cube.remove(fact_id)
                    self._fold_groups(placement, undo)
                for (target, _), rows in placement.groups.items():
                    moved[target.name] += len(rows)
                self._journal_sync_commit(now, moved, placement.examined)
            except BaseException as exc:
                # Roll every staged migration back: the store is never
                # observably half-migrated, and a retry starts from the
                # exact pre-synchronization state (``last_sync``/``_dirty``
                # are only touched after the commit point below).
                undo.rollback(self)
                self._journal_sync_failed(exc)
                raise
            self.last_sync = now
            self._dirty.clear()
            self._invalidate_query_plans(moved, now)
            sync_span.set_attribute("examined", placement.examined)
            sync_span.set_attribute("migrated", sum(moved.values()))
            sync_span.set_attribute("skipped", placement.skipped)
        self._record_sync(
            mode,
            placement.examined,
            sum(moved.values()),
            placement.skipped,
            len(undo),
            time.perf_counter() - started,
        )
        return moved

    def _record_sync(
        self,
        mode: str,
        examined: int,
        migrated: int,
        skipped: int,
        undo_size: int,
        seconds: float,
    ) -> None:
        """Record one committed synchronization (never a rolled-back one,
        so the counters describe only observable state transitions)."""
        metrics = self.metrics
        metrics.counter(
            SYNC_RUNS,
            {"mode": mode},
            help="Committed synchronizations, by scan mode.",
        ).inc()
        metrics.counter(
            SYNC_EXAMINED, help="Facts examined across synchronizations."
        ).inc(examined)
        metrics.counter(
            SYNC_MIGRATED, help="Facts migrated across synchronizations."
        ).inc(migrated)
        metrics.counter(
            SYNC_SKIPPED,
            help="Facts skipped by the suspect-region analysis.",
        ).inc(skipped)
        metrics.gauge(SYNC_LAST_EXAMINED, help=_HELP_LAST_EXAMINED).set(
            examined
        )
        metrics.gauge(
            SYNC_LAST_MIGRATED,
            help="Facts the most recent synchronize() migrated.",
        ).set(migrated)
        metrics.gauge(
            SYNC_LAST_SKIPPED,
            help="Facts the most recent synchronize() skipped.",
        ).set(skipped)
        metrics.gauge(
            SYNC_UNDO_LOG,
            help="Before-images held by the most recent sync's undo log.",
        ).set(undo_size)
        metrics.histogram(
            SYNC_SECONDS,
            {"mode": mode},
            buckets=obs_metrics.TIME_BUCKETS,
            help="Synchronization duration in seconds, by scan mode.",
        ).observe(seconds)

    def _invalidate_query_plans(
        self, moved: Mapping[str, int], now: _dt.date
    ) -> None:
        """Release attached query-plan state a committed sync made stale.

        Scoped, not wholesale: bound predicate ASTs survive every
        synchronization (they depend only on schema and dimensions), and
        compiled verdict tables are only released for evaluation times
        before *now*, and only when some cube actually received migrated
        facts — see :meth:`QueryPlanCache.note_sync`.  A store with no
        attached cache is untouched.
        """
        cache = getattr(self, "_plan_cache", None)
        if cache is not None:
            cache.note_sync(moved, now)

    def _suspect_regions(self, old: _dt.date, new: _dt.date):
        """Per-dimension day intervals where verdicts may have flipped.

        For every NOW-relative term of every atom, the hull of the granule
        the term denoted at *old* and the granule it denotes at *new*: an
        atom's verdict for a value can only change when the value's day
        extent meets that hull (order atoms flip exactly for values between
        the two boundaries; equality/membership atoms flip exactly for
        values overlapping either denoted granule).  ``None`` means the
        analysis cannot bound the change (a NOW term at an unmodelled
        category) and a full rescan is required.
        """
        regions: dict[str, list[tuple[float, float]]] = {}
        for action in self._specification.actions:
            for atoms in action.conjuncts():
                for atom in atoms:
                    now_terms = [
                        term
                        for term in atom.terms
                        if isinstance(term, NowRelative)
                    ]
                    if not now_terms:
                        continue
                    category = atom.ref.category
                    if category == TOP or category not in GRANULE_DAYS:
                        return None
                    for term in now_terms:
                        try:
                            old_value = term.evaluate(old, category)
                            new_value = term.evaluate(new, category)
                            lo = min(
                                first_day(category, old_value).toordinal(),
                                first_day(category, new_value).toordinal(),
                            )
                            hi = max(
                                last_day(category, old_value).toordinal(),
                                last_day(category, new_value).toordinal(),
                            )
                        except ReproError:
                            return None
                        regions.setdefault(atom.ref.dimension, []).append(
                            (float(lo), float(hi))
                        )
        return regions

    def _needs_examination(
        self,
        mo: MultidimensionalObject,
        fact_id: str,
        regions: Mapping[str, list[tuple[float, float]]],
        span_cache: dict[tuple[str, str], tuple[float, float] | None],
    ) -> bool:
        """Whether a fact's values meet any suspect region.

        Values whose day extent cannot be bounded (the top value, TOP
        category, or non-calendar values) are always examined — a sound
        fallback, never an unsound skip.
        """
        dimensions = self._template.dimensions
        for name, intervals in regions.items():
            value = mo.direct_value(fact_id, name)
            key = (name, value)
            if key in span_cache:
                span = span_cache[key]
            else:
                span = _value_day_span(dimensions[name], value)
                span_cache[key] = span
            if span is None:
                return True
            lo, hi = span
            for region_lo, region_hi in intervals:
                if lo <= region_hi and region_lo <= hi:
                    return True
        return False

    def _visiting_order(
        self, regions: SuspectRegions
    ) -> list[tuple[SubCube, list[str], list[str]]]:
        """Per cube, in cube order: the facts to place and the facts the
        suspect-region analysis skips (``regions`` ``None``: none)."""
        batches = []
        span_cache: dict[tuple[str, str], tuple[float, float] | None] = {}
        for cube in self._cubes.values():
            mo = cube.mo
            # Fact-id order, not insertion order: merges into a target
            # cell then happen in one order however the cube was built
            # (live, or restored from a snapshot), so a replayed sync
            # reproduces even float sums.
            candidates: list[str] = []
            skippable: list[str] = []
            for fact_id in sorted(mo.facts()):
                if (
                    regions is not None
                    and fact_id not in self._dirty
                    and not self._needs_examination(
                        mo, fact_id, regions, span_cache
                    )
                ):
                    skippable.append(fact_id)
                else:
                    candidates.append(fact_id)
            batches.append((cube, candidates, skippable))
        return batches

    def _plan_placement(
        self,
        batches: list[tuple[SubCube, list[str], list[str]]],
        now: _dt.date,
    ) -> "_Placement":
        """Where every candidate fact belongs at *now*; nothing moves.

        *batches* lists, per cube in visiting order, the facts to place
        (in fact-id order) and the facts left unexamined.  The candidates
        are encoded into one columnar table and admitted once per
        distinct cell by the reduce kernel's own admission stage
        (:func:`~repro.reduction.columnar.admit_cells`); the target cube
        is picked once per admitted-action bit pattern, and codes roll up
        through the table's cached ancestor columns.

        The result is what placing the facts one at a time in visiting
        order produces.  A fact whose cube is its target stays.  A fact
        that a move from an earlier-visited cube merges into is settled:
        neither examined nor skipped, it stays where it is.  A crossing
        specification, a move that would disaggregate a fact
        (irreversibility) and a value that cannot roll up raise at the
        first examined fact they concern, before any fact moves.
        """
        schema = self._template.schema
        names = schema.dimension_names
        actions = list(self._specification.actions)
        table = ColumnarFactTable(schema, self._template.dimensions)
        for cube, candidates, _ in batches:
            table.append_facts(cube.mo, candidates)
        inverse, distinct = table.distinct_cells()
        admitted = admit_cells(table, distinct, actions, now)
        decisions: dict[tuple[bool, ...], object] = {}
        responsible: list[object] = []
        for bits in zip(*admitted) if admitted else [()] * len(distinct):
            target = decisions.get(bits)
            if target is None:
                target = decisions[bits] = self._responsible_cube(
                    actions, bits
                )
            responsible.append(target)

        target_cells: dict[int, tuple[str, ...]] = {}
        coarsening: set[tuple[SubCube, SubCube]] = set()
        settled: set[tuple[SubCube, str]] = set()
        sources: list[tuple[SubCube, str, int]] = []
        groups: dict[tuple[SubCube, tuple[str, ...]], list[int]] = {}
        examined = skipped = 0
        fact_ids = table.fact_ids
        start = 0
        for cube, candidates, skippable in batches:
            skipped += sum(1 for f in skippable if (cube, f) not in settled)
            for row in range(start, start + len(candidates)):
                fact_id = fact_ids[row]
                if (cube, fact_id) in settled:
                    continue
                examined += 1
                cell_index = inverse[row]
                target = responsible[cell_index]
                if target is cube:
                    continue
                if not isinstance(target, SubCube):
                    cell = {
                        name: table.decode(name, code)
                        for name, code in zip(names, distinct[cell_index])
                    }
                    raise EngineError(
                        f"cell {cell!r} is claimed by incomparable "
                        f"granularities {target[0]!r} and {target[1]!r}; "
                        "the specification is crossing"
                    )
                if (cube, target) not in coarsening:
                    if not schema.le_granularity(
                        cube.granularity, target.granularity
                    ):
                        raise EngineError(
                            f"moving fact {fact_id!r} from {cube.name} to "
                            f"{target.name} would disaggregate it; the "
                            "specification violates irreversibility"
                        )
                    coarsening.add((cube, target))
                cell = target_cells.get(cell_index)
                if cell is None:
                    cell = target_cells[cell_index] = _rolled_up(
                        table, names, distinct[cell_index], target.granularity
                    )
                rows = groups.get((target, cell))
                if rows is None:
                    rows = groups[(target, cell)] = []
                    settled.add(
                        (target, aggregate_fact_id((target.name, *cell)))
                    )
                rows.append(row)
                sources.append((cube, fact_id, row))
            start += len(candidates)
        return _Placement(
            table, sources, groups, examined, skipped, len(distinct)
        )

    def _responsible_cube(
        self, actions: list, bits: tuple[bool, ...]
    ) -> "SubCube | tuple[tuple[str, ...], tuple[str, ...]]":
        """The cube responsible for a cell the actions flagged in *bits*
        admit: the ``<=_V``-maximal granularity among them, else the bottom
        cube.  An incomparable pair (a crossing specification) is
        returned, for :meth:`_plan_placement` to raise on."""
        schema = self._template.schema
        best: tuple[str, ...] | None = None
        for action, bit in zip(actions, bits):
            if not bit:
                continue
            granularity = action.cat()
            if best is None or schema.le_granularity(best, granularity):
                best = granularity
            elif not schema.le_granularity(granularity, best):
                return best, granularity
        if best is not None:
            for definition in self._definitions:
                if definition.granularity == best and not definition.is_residual:
                    return self._cubes[definition.name]
        # No action claims the cell, or a "useless" bottom-granularity
        # action group merged into K0.
        return self.bottom_cube

    def _fold_groups(
        self, placement: "_Placement", undo: _UndoLog | None = None
    ) -> None:
        """Fold every planned group into its target cell, once each.

        Groups fold in the order of their last row, which leaves every
        cube's facts in the insertion order a one-at-a-time placement
        would leave.
        """
        table = placement.table
        names = table.dimension_names
        provenances = table.provenances
        for (target, cell), rows in sorted(
            placement.groups.items(), key=lambda item: item[1][-1]
        ):
            coordinates = dict(zip(names, cell))
            if undo is not None:
                undo.record(target, target.cell_fact_id(coordinates))
            target.fold_at_granularity(
                coordinates,
                [table.row_measures(row) for row in rows],
                [provenances[row] for row in rows],
            )

    # ------------------------------------------------------------------
    # Specification changes (the infrequent synchronization case)
    # ------------------------------------------------------------------

    def rebuild(
        self, specification: ReductionSpecification, now: _dt.date
    ) -> None:
        """Re-derive the disjoint set after a specification change.

        New cubes are created, all facts re-assigned (from *all* old
        cubes, as Section 7.2 prescribes), and cubes that no longer exist
        are dropped once empty.

        The rebuild is staged: the new cube set is fully populated off to
        the side and only swapped in once every fact has been re-assigned,
        so a mid-rebuild failure (e.g. the irreversibility check) leaves
        the store exactly as it was.
        """
        self._check_writable("rebuild")
        old_state = (
            self._specification,
            self._definitions,
            self._cubes,
            self._bottom_name,
        )
        self._specification = specification
        self._definitions = disjoint_actions(specification)
        new_cubes = {
            definition.name: SubCube(definition, self._template)
            for definition in self._definitions
        }
        old_cubes, self._cubes = self._cubes, new_cubes
        try:
            self._bottom_name = self._bottom_cube_name()
            self._fold_groups(
                self._plan_placement(
                    [
                        (cube, sorted(cube.facts()), [])
                        for cube in old_cubes.values()
                    ],
                    now,
                )
            )
        except BaseException:
            (
                self._specification,
                self._definitions,
                self._cubes,
                self._bottom_name,
            ) = old_state
            raise
        self.last_sync = now
        self._dirty.clear()
        # A rebuild replaces the cube set wholesale, so unlike a sync the
        # attached plan cache is cleared completely (bound ASTs included:
        # the new specification may bind the same text differently).
        cache = getattr(self, "_plan_cache", None)
        if cache is not None:
            cache.clear()
        self._journal_rebuild(now)
        self.metrics.counter(
            STORE_REBUILDS,
            help="Specification rebuilds applied to the store.",
        ).inc()

    # ------------------------------------------------------------------
    # Durability hooks (no-ops here; the durable engine overrides them)
    # ------------------------------------------------------------------

    def _journal_load(
        self,
        staged: list[tuple[str, dict[str, str], dict[str, object]]],
    ) -> None:
        """Called with the full staged batch before any insert happens."""

    def _load_fault(self, index: int, fact_id: str) -> None:
        """Called before each staged insert (fault-injection hook)."""

    def _journal_load_failed(self, exc: BaseException) -> None:
        """Called after a failed load has been rolled back."""

    def _journal_sync_begin(self, now: _dt.date, incremental: bool) -> None:
        """Called once per synchronization, before any fact moves."""

    def _migrate_fault(self) -> None:
        """Called before each fact moves (fault-injection hook)."""

    def _journal_sync_commit(
        self, now: _dt.date, moved: Mapping[str, int], examined: int
    ) -> None:
        """The synchronization commit point (after the last fact moved)."""

    def _journal_sync_failed(self, exc: BaseException) -> None:
        """Called after a failed synchronization has been rolled back."""

    def _journal_rebuild(self, now: _dt.date) -> None:
        """Called after a successful specification rebuild."""

    # ------------------------------------------------------------------
    # Invariant audit
    # ------------------------------------------------------------------

    def verify(
        self,
        sources: Mapping[str, Mapping[str, object]] | None = None,
        *,
        strict: bool = False,
    ) -> AuditReport:
        """Audit the store's structural invariants.

        Always checked:

        * every fact sits in exactly one cube, at that cube's granularity;
        * every fact carries non-empty provenance;
        * no source fact is claimed by two resident facts (provenance
          partitions the loaded history).

        With *sources* (source fact id -> its measure values, as the
        durable engine reconstructs from the journal), conservation is
        also checked: the union of all provenances equals the loaded
        source set, and every resident fact's measure values equal the
        default aggregate over its members' source values — measure-sum
        conservation per reduction action, in the paper's terms.

        Returns an :class:`AuditReport`; with ``strict=True`` a failing
        audit raises :class:`~repro.errors.AuditError` instead.
        """
        report = AuditReport()
        seen_members: dict[str, str] = {}
        names = self._template.schema.dimension_names
        for cube in self._cubes.values():
            mo = cube.mo
            for fact_id in mo.facts():
                report.facts += 1
                granularity = mo.gran(fact_id)
                if granularity != cube.granularity:
                    report.violations.append(
                        f"{cube.name}: fact {fact_id!r} is at granularity "
                        f"{granularity!r}, cube holds {cube.granularity!r}"
                    )
                provenance = mo.provenance(fact_id)
                if not provenance.members:
                    report.violations.append(
                        f"{cube.name}: fact {fact_id!r} has empty provenance"
                    )
                for member in provenance.members:
                    owner = seen_members.setdefault(member, fact_id)
                    if owner != fact_id:
                        report.violations.append(
                            f"source fact {member!r} is claimed by both "
                            f"{owner!r} and {fact_id!r}"
                        )
                if sources is not None:
                    self._verify_measures(
                        report, cube, fact_id, provenance, sources
                    )
        report.sources = len(seen_members)
        if sources is not None:
            loaded = set(sources)
            resident = set(seen_members)
            for lost in sorted(loaded - resident):
                report.violations.append(
                    f"source fact {lost!r} was loaded but is in no "
                    "resident fact's provenance"
                )
            for invented in sorted(resident - loaded):
                report.violations.append(
                    f"provenance member {invented!r} was never loaded"
                )
        if strict:
            report.raise_if_failed()
        return report

    def _verify_measures(
        self,
        report: AuditReport,
        cube: SubCube,
        fact_id: str,
        provenance: Provenance,
        sources: Mapping[str, Mapping[str, object]],
    ) -> None:
        members = [m for m in provenance.members if m in sources]
        if len(members) != len(provenance.members):
            return  # the membership violations are reported separately
        mo = cube.mo
        for measure_name in mo.schema.measure_names:
            aggregate = mo.measures[measure_name].aggregate
            expected = aggregate(
                sources[member][measure_name] for member in members
            )
            actual = mo.measure_value(fact_id, measure_name)
            if not _values_equal(actual, expected):
                report.violations.append(
                    f"{cube.name}: fact {fact_id!r} measure "
                    f"{measure_name!r} is {actual!r}, expected {expected!r} "
                    f"(aggregate of {len(members)} sources)"
                )
            report.checked_measures += 1

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(self) -> MultidimensionalObject:
        """The union of all subcubes as one MO (for audits and tests)."""
        union = self._template.empty_like()
        for cube in self._cubes.values():
            mo = cube.mo
            for fact_id in mo.facts():
                union.insert_aggregate_fact(
                    fact_id,
                    dict(
                        zip(
                            mo.schema.dimension_names,
                            mo.direct_cell(fact_id),
                        )
                    ),
                    {
                        name: mo.measure_value(fact_id, name)
                        for name in mo.schema.measure_names
                    },
                    mo.provenance(fact_id),
                )
        return union

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = {name: cube.n_facts for name, cube in self._cubes.items()}
        return f"SubcubeStore({shape})"


def _values_equal(actual: object, expected: object) -> bool:
    if actual == expected:
        return True
    if isinstance(actual, float) or isinstance(expected, float):
        try:
            return abs(float(actual) - float(expected)) <= 1e-9 * max(  # type: ignore[arg-type]
                1.0, abs(float(actual)), abs(float(expected))  # type: ignore[arg-type]
            )
        except (TypeError, ValueError):
            return False
    return False


class _Placement(NamedTuple):
    """A planned placement (see :meth:`SubcubeStore._plan_placement`)."""

    #: The candidate facts, one row each, in visiting order.
    table: ColumnarFactTable
    #: Facts that move, as ``(cube, fact id, row)`` in visiting order.
    sources: list[tuple[SubCube, str, int]]
    #: ``(target cube, target cell)`` -> the rows folding into it.
    groups: dict[tuple[SubCube, tuple[str, ...]], list[int]]
    examined: int
    skipped: int
    distinct_cells: int


def _rolled_up(
    table: ColumnarFactTable,
    names: tuple[str, ...],
    cell: tuple[int, ...],
    granularity: tuple[str, ...],
) -> tuple[str, ...]:
    """A distinct cell of *table* rolled up to *granularity*."""
    values = []
    for name, category, code in zip(names, granularity, cell):
        ancestor = table.rollup_column(name, category)[code]
        if ancestor is None:
            raise EngineError(
                f"{name}: cannot roll {table.decode(name, code)!r} up to "
                f"{category!r}"
            )
        values.append(ancestor)
    return tuple(values)


def _value_day_span(dimension, value: str) -> tuple[float, float] | None:
    """The day-ordinal extent of one dimension value, or ``None`` when it
    cannot be bounded (forcing examination)."""
    if value == ALL_VALUE:
        return None
    try:
        category = dimension.category_of(value)
    except ReproError:
        return None
    if category == TOP:
        return None
    try:
        return (
            float(first_day(category, value).toordinal()),
            float(last_day(category, value).toordinal()),
        )
    except (ReproError, ValueError):
        return None
