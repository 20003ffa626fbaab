"""Query processing over subcubes (Section 7.3).

A query runs against each subcube separately (parallelizable; here
sequential but independent), yielding subresults ``S_i`` that a final
distributive aggregation combines — the two-step evaluation Figure 8
illustrates.  In the *unsynchronized* state each subquery additionally
pulls the cube's not-yet-migrated facts from its parent cubes by applying
``a[G_i] o[P_i]`` over the cube and its parents first (Figure 9).

Because the disjoint predicates partition the cell space at every
evaluation time, the parent pull can never double-count a fact.
"""

from __future__ import annotations

import datetime as _dt
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .._forkreg import register_cache
from ..core.facts import Provenance, aggregate_fact_id
from ..core.mo import MultidimensionalObject
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..query.aggregation import (
    AggregationApproach,
    aggregate,
    aggregate_facts,
)
from ..query.compare import Approach
from ..query.selection import CompiledPredicate, bind_query_predicate
from ..spec.ast import Predicate
from .store import SubcubeStore
from .subcube import SubCube

# Query metric families (registered in engine/telemetry.py, catalogued
# in docs/observability.md).  The plan cache has two layers,
# distinguished by the ``cache`` label: ``bound`` (predicate text ->
# bound AST) and ``plan`` ((predicate, time) -> compiled verdict
# tables).  Row counters carry a ``stage`` label naming the operator:
# ``scanned`` (facts each subquery saw), ``subresult`` (rows the
# per-cube select+aggregate produced), ``result`` (rows after the final
# combination).
from .telemetry import (  # noqa: E402
    QUERY_CACHE_HITS,
    QUERY_CACHE_MISSES,
    QUERY_ROWS,
    QUERY_RUNS,
    QUERY_SECONDS,
)

_HELP_HITS = "Plan-cache hits, by cache layer."
_HELP_MISSES = "Plan-cache misses, by cache layer."

# Live plan caches, tracked weakly so forked workers can drop compiled
# plans inherited from the parent (see repro.parallel.forksafe).
_CACHES: "weakref.WeakSet[QueryPlanCache]" = weakref.WeakSet()


def clear_plan_caches() -> None:
    """Clear every live :class:`QueryPlanCache`.

    Compiled plans key on ``id(predicate)``; after a fork those ids refer
    to parent-heap objects the child also inherited, so the entries are
    *valid* but pin memory the worker will never reuse.  Workers clear
    them and rebuild on demand.
    """
    for cache in list(_CACHES):
        cache.clear()


def _plan_cache_entries() -> int:
    return sum(
        cache.n_bound + cache.n_plans for cache in list(_CACHES)
    )


register_cache(
    "repro.engine.queryproc:plans", clear_plan_caches, _plan_cache_entries
)


@dataclass(frozen=True)
class SubcubeQuery:
    """The canonical OLAP query ``a[granularity](o[predicate](O))``."""

    predicate: str | None
    granularity: Mapping[str, str]
    approach: Approach = Approach.CONSERVATIVE
    aggregation: AggregationApproach = AggregationApproach.AVAILABILITY


#: Distinct predicate texts one plan cache keeps (bound AST plus the
#: plans compiled from it); the least recently used text goes first.
#: A few hundred covers any dashboard's repeating shapes, while a
#: stream of one-off constants (``URL.url = '<user input>'``) can no
#: longer grow a long-lived server's cache without bound.
MAX_CACHED_TEXTS = 256


class QueryPlanCache:
    """Compiled query plans, shared across one store's subqueries.

    Each predicate *text* is parsed and schema-bound once per store, and
    each (bound predicate, evaluation time) pair is compiled once into a
    :class:`CompiledPredicate` whose verdict tables are then reused by
    every subquery — a query over ``n`` cubes pays for each distinct
    direct value once, not once per cube.  Cached plans hold strong
    references to their predicates, so the ``id``-based keys can never
    alias a recycled object.  At most :data:`MAX_CACHED_TEXTS` texts stay
    resident; evicting one releases its plans with it.
    """

    def __init__(self, store: SubcubeStore) -> None:
        self._store = store
        # Recency order: a hit re-inserts its text at the end.  Reader
        # threads of one snapshot share the cache, hence the lock.
        self._bound: dict[str, Predicate] = {}
        self._plans: dict[int, dict[_dt.date, CompiledPredicate]] = {}
        self._lock = threading.Lock()
        _CACHES.add(self)

    def clear(self) -> None:
        """Drop every cached binding and plan (the store stays attached)."""
        with self._lock:
            self._bound.clear()
            self._plans.clear()

    @property
    def n_bound(self) -> int:
        return len(self._bound)

    @property
    def n_plans(self) -> int:
        return sum(len(by_time) for by_time in list(self._plans.values()))

    def bound_predicate(self, text: str) -> Predicate:
        """The schema-bound AST of *text*, parsed at most once while the
        text stays resident."""
        metrics = self._store.metrics
        with self._lock:
            bound = self._bound.pop(text, None)
            if bound is not None:
                self._bound[text] = bound
        if bound is not None:
            metrics.counter(
                QUERY_CACHE_HITS, {"cache": "bound"}, help=_HELP_HITS
            ).inc()
            return bound
        metrics.counter(
            QUERY_CACHE_MISSES, {"cache": "bound"}, help=_HELP_MISSES
        ).inc()
        bound = bind_query_predicate(self._store.bottom_cube.mo, text)
        with self._lock:
            bound = self._bound.setdefault(text, bound)
            while len(self._bound) > MAX_CACHED_TEXTS:
                evicted = self._bound.pop(next(iter(self._bound)))
                self._plans.pop(id(evicted), None)
        return bound

    def plan_for(
        self, predicate: Predicate, now: _dt.date
    ) -> CompiledPredicate:
        """The compiled plan of a bound predicate at *now*."""
        metrics = self._store.metrics
        by_time = self._plans.get(id(predicate))
        plan = by_time.get(now) if by_time is not None else None
        if plan is not None:
            metrics.counter(
                QUERY_CACHE_HITS, {"cache": "plan"}, help=_HELP_HITS
            ).inc()
            return plan
        metrics.counter(
            QUERY_CACHE_MISSES, {"cache": "plan"}, help=_HELP_MISSES
        ).inc()
        plan = CompiledPredicate(
            predicate, self._store.bottom_cube.mo.dimensions, now
        )
        with self._lock:
            return self._plans.setdefault(id(predicate), {}).setdefault(
                now, plan
            )

    def plan_for_text(self, text: str, now: _dt.date) -> CompiledPredicate:
        return self.plan_for(self.bound_predicate(text), now)

    def note_sync(self, moved: Mapping[str, int], now: _dt.date) -> None:
        """Scoped invalidation after a committed synchronization.

        Bound predicates (text -> schema-bound AST) depend only on the
        schema and dimension values, which synchronization never touches
        — they are kept warm, so snapshot readers and repeated queries
        keep their parsed plans across NOW advances.  Compiled verdict
        tables are keyed by ``(predicate, time)`` and stay correct too;
        what a sync changes is which evaluation times are still
        *reachable*: once facts actually migrated at *now*, plans
        compiled for earlier times belong to store versions no live
        query will combine with this store again, so they are released
        (otherwise a long NOW trajectory grows the cache without bound).
        A synchronization that migrated nothing releases nothing.
        """
        if not any(moved.values()):
            return
        with self._lock:
            for by_time in self._plans.values():
                for stale in [time for time in by_time if time < now]:
                    del by_time[stale]


def plan_cache(store: SubcubeStore) -> QueryPlanCache:
    """The store's plan cache (created and attached on first use)."""
    cache = getattr(store, "_plan_cache", None)
    if cache is None or cache._store is not store:
        cache = QueryPlanCache(store)
        store._plan_cache = cache
    return cache


def query_cube(
    cube_mo: MultidimensionalObject,
    query: SubcubeQuery,
    now: _dt.date,
    plans: QueryPlanCache | None = None,
) -> MultidimensionalObject:
    """One subquery ``S_i = Q(K_i)``.

    The predicate always runs compiled: through the cached plan of
    *plans* when the query carries predicate text, otherwise through a
    plan compiled for this call.
    """
    if query.predicate is None:
        return aggregate(cube_mo, query.granularity, query.aggregation)
    if plans is not None and isinstance(query.predicate, str):
        plan = plans.plan_for_text(query.predicate, now)
    else:
        plan = CompiledPredicate(
            bind_query_predicate(cube_mo, query.predicate),
            cube_mo.dimensions,
            now,
        )
    return aggregate_facts(
        cube_mo,
        plan.satisfying_facts(cube_mo, query.approach),
        query.granularity,
        query.aggregation,
    )


def query_store(
    store: SubcubeStore,
    query: SubcubeQuery,
    now: _dt.date,
    assume_synchronized: bool = True,
    plans: QueryPlanCache | None = None,
) -> MultidimensionalObject:
    """Evaluate *query* over all subcubes and combine the subresults.

    With ``assume_synchronized=False`` each cube's effective content is
    first rebuilt as ``a[G_i](o[P_i](K_i union parents(K_i)))`` at the
    current time, so queries stay correct between synchronizations.

    The store's :func:`plan_cache` is used by default, so the query
    predicate is parsed once per store and its verdict tables are shared
    across the per-cube subqueries (and across repeated queries).
    """
    if plans is None:
        plans = plan_cache(store)
    started = time.perf_counter()
    with trace.span(
        "query.store", synchronized=assume_synchronized
    ) as query_span:
        scanned = 0
        subresults: list[MultidimensionalObject] = []
        for definition in store.definitions:
            cube = store.cube(definition.name)
            if assume_synchronized:
                effective = cube.mo
            else:
                effective = effective_content(store, cube, now, plans)
            scanned += effective.n_facts
            subresults.append(query_cube(effective, query, now, plans))
        result = combine_subresults(store, subresults, query, now)
        query_span.set_attribute("rows_scanned", scanned)
        query_span.set_attribute("rows_result", result.n_facts)
    metrics = store.metrics
    metrics.counter(
        QUERY_RUNS, help="Queries evaluated over the subcube store."
    ).inc()
    rows_help = "Rows seen per query operator stage."
    metrics.counter(QUERY_ROWS, {"stage": "scanned"}, help=rows_help).inc(
        scanned
    )
    metrics.counter(QUERY_ROWS, {"stage": "subresult"}, help=rows_help).inc(
        sum(subresult.n_facts for subresult in subresults)
    )
    metrics.counter(QUERY_ROWS, {"stage": "result"}, help=rows_help).inc(
        result.n_facts
    )
    metrics.histogram(
        QUERY_SECONDS,
        buckets=obs_metrics.TIME_BUCKETS,
        help="Store query duration in seconds.",
    ).observe(time.perf_counter() - started)
    return result


def effective_content(
    store: SubcubeStore,
    cube: SubCube,
    now: _dt.date,
    plans: QueryPlanCache | None = None,
) -> MultidimensionalObject:
    """``a[G_i](o[P_i](K_i union parents))`` — Figure 9's repair step.

    Facts of the cube and of every parent cube that satisfy the cube's
    disjoint predicate *now* are collected and rolled up to the cube's
    granularity.  Disjointness guarantees each fact is claimed by exactly
    one cube, so the union over cubes never double-counts.
    """
    definition = cube.definition
    # The disjoint predicate was assembled from already-bound action
    # predicates, so it can be compiled directly; all its atoms reference
    # categories at or above the granularities of the facts involved, so
    # evaluation is exact (conservative == liberal).
    predicate = definition.predicate
    plan = (
        plans.plan_for(predicate, now)
        if plans is not None
        else CompiledPredicate(predicate, cube.mo.dimensions, now)
    )
    sources = [cube.mo, *(store.cube(name).mo for name in definition.parents)]
    names = cube.mo.schema.dimension_names

    def rolled_up() -> Iterator[_Row]:
        for source in sources:
            admitted = plan.satisfying_facts(source)
            columns = []
            for name, category in zip(names, definition.granularity):
                ancestor_at = source.dimensions[name].try_ancestor_at
                directs = source.relations[name].values_of(admitted)
                value_for = {
                    direct: ancestor_at(direct, category)
                    for direct in dict.fromkeys(directs)
                }
                columns.append(map(value_for.__getitem__, directs))
            yield from _rows_of(
                source,
                (
                    (fact_id, cell)
                    for fact_id, cell in zip(admitted, zip(*columns))
                    if None not in cell
                ),
            )

    return _merged_by_cell(cube.mo.empty_like(), rolled_up())


def combine_subresults(
    store: SubcubeStore,
    subresults: Sequence[MultidimensionalObject],
    query: SubcubeQuery,
    now: _dt.date,
) -> MultidimensionalObject:
    """The final combination step: union the ``S_i`` and aggregate once.

    All warehouse aggregates are distributive (the model requires it), so
    aggregating the subresults again "poses no complications", exactly as
    Section 7.3 argues.
    """
    names = store.bottom_cube.mo.schema.dimension_names

    def rows() -> Iterator[_Row]:
        for subresult in subresults:
            fact_ids = list(subresult.facts())
            columns = [
                subresult.relations[name].values_of(fact_ids)
                for name in names
            ]
            yield from _rows_of(subresult, zip(fact_ids, zip(*columns)))

    union = _merged_by_cell(store.bottom_cube.mo.empty_like(), rows())
    return aggregate(union, dict(query.granularity), query.aggregation)


#: One derived row on its way into a union: cell, measure values in
#: schema order, provenance.
_Row = tuple[tuple[str, ...], list[object], Provenance]


def _rows_of(
    mo: MultidimensionalObject,
    cells: Iterable[tuple[str, tuple[str, ...]]],
) -> Iterator[_Row]:
    """The rows of *mo*'s facts named in *cells* (``(fact id, cell)``)."""
    measures = [mo.measure(name) for name in mo.schema.measure_names]
    provenance_of = mo.provenance
    for fact_id, cell in cells:
        yield (
            cell,
            [measure[fact_id] for measure in measures],
            provenance_of(fact_id),
        )


def _merged_by_cell(
    target: MultidimensionalObject, rows: Iterable[_Row]
) -> MultidimensionalObject:
    """Fill the empty *target* with *rows*, one fact per distinct cell.

    Rows sharing a cell fold their measures pairwise in arrival order
    (the distributive step; per-cube partials therefore fold in cube
    order) and union their provenance once.  A cell that receives a
    further row moves behind every cell seen so far — the fact order
    the final aggregation, and so the answer, inherits.
    """
    parts_of: dict[tuple[str, ...], list[_Row]] = {}
    for row in rows:
        parts = parts_of.pop(row[0], [])
        parts.append(row)
        parts_of[row[0]] = parts
    aggregates = [
        target.measures[name].aggregate
        for name in target.schema.measure_names
    ]

    def merged() -> Iterator[tuple]:
        for cell, parts in parts_of.items():
            _, measures, provenance = parts[0]
            if len(parts) > 1:
                for _, more, _ in parts[1:]:
                    measures = [
                        fold([so_far, value])
                        for fold, so_far, value in zip(
                            aggregates, measures, more
                        )
                    ]
                provenance = Provenance(
                    frozenset().union(*[part[2].members for part in parts])
                )
            yield aggregate_fact_id(cell), cell, measures, provenance

    target.adopt_rows(merged())
    return target
