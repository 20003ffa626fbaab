"""Query processing over subcubes (Section 7.3).

A query runs against each subcube separately (parallelizable; here
sequential but independent), yielding subresults ``S_i`` that a final
distributive aggregation combines — the two-step evaluation Figure 8
illustrates.  In the *unsynchronized* state each subquery additionally
pulls the cube's not-yet-migrated facts from its parent cubes by applying
``a[G_i] o[P_i]`` over the cube and its parents first (Figure 9).

:func:`query_store` does both steps in one pass: each cube's ``S_i`` is
grouped and folded into plain per-cell rows
(:func:`~repro.query.aggregation.aggregate_rows`), those rows fold across
cubes into one row per cell, and the answer MO is built once.
:func:`query_cube` and :func:`combine_subresults` run the same helpers
but hand each step over as an MO, for callers that report the steps
(``repro explain``, the paper figures).

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
from ..core.measures import Measure
from ..core.mo import MultidimensionalObject
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..query.aggregation import (
    AggregationApproach,
    Row,
    aggregate_facts,
    aggregate_rows,
    fold_groups,
    group_cells,
    result_mo,
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
# ``scanned`` (facts each subquery saw), ``subresult`` (partial rows the
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


def _selected(
    cube_mo: MultidimensionalObject,
    query: SubcubeQuery,
    now: _dt.date,
    plans: QueryPlanCache | None,
) -> Iterable[str]:
    """``o[P](K_i)``'s fact ids, in the cube's fact order.

    The predicate always runs compiled: through the cached plan of
    *plans* when the query carries predicate text, otherwise through a
    plan compiled for this call.
    """
    if query.predicate is None:
        return cube_mo.facts()
    if plans is not None and isinstance(query.predicate, str):
        plan = plans.plan_for_text(query.predicate, now)
    else:
        plan = CompiledPredicate(
            bind_query_predicate(cube_mo, query.predicate),
            cube_mo.dimensions,
            now,
        )
    return plan.satisfying_facts(cube_mo, query.approach)


def query_cube(
    cube_mo: MultidimensionalObject,
    query: SubcubeQuery,
    now: _dt.date,
    plans: QueryPlanCache | None = None,
) -> MultidimensionalObject:
    """One subquery ``S_i = Q(K_i)`` as an MO.

    :func:`query_store` folds the same rows without building this MO;
    this form is for callers that report each subresult.
    """
    return aggregate_facts(
        cube_mo,
        _selected(cube_mo, query, now, plans),
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
    """Evaluate *query* over all subcubes in one pass.

    Each cube's selected facts are grouped by their requested cell and
    folded into per-cell partial rows (the subresult ``S_i``, never
    built as an MO); the partials of all cubes fold into one row per
    cell (:func:`_merged`), and the answer MO is built once from
    those rows (:func:`_answer`).

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
    bottom = store.bottom_cube.mo
    with trace.span(
        "query.store", synchronized=assume_synchronized
    ) as query_span:
        requested = bottom.schema.validate_granularity(query.granularity)
        scanned = 0
        partials: list[list[Row]] = []
        for definition in store.definitions:
            cube = store.cube(definition.name)
            if assume_synchronized:
                effective = cube.mo
            else:
                effective = effective_content(store, cube, now, plans)
            scanned += effective.n_facts
            partials.append(
                aggregate_rows(
                    effective,
                    _selected(effective, query, now, plans),
                    requested,
                    query.aggregation,
                )
            )
        result = _answer(
            bottom, requested, _merged(partials, bottom), query.aggregation
        )
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
        sum(map(len, partials))
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

    def rolled_up(source: MultidimensionalObject) -> Iterator[Row]:
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
        return _rows_of(
            source,
            (
                (fact_id, cell)
                for fact_id, cell in zip(admitted, zip(*columns))
                if None not in cell
            ),
        )

    target = cube.mo.empty_like()
    target.adopt_rows(
        (aggregate_fact_id(cell), cell, values, provenance)
        for cell, values, provenance in _merged(
            map(rolled_up, sources), cube.mo
        )
    )
    return target


def combine_subresults(
    store: SubcubeStore,
    subresults: Sequence[MultidimensionalObject],
    query: SubcubeQuery,
    now: _dt.date,
) -> MultidimensionalObject:
    """The final combination step over :func:`query_cube`'s answers to
    *query*: the same cross-cube fold and answer :func:`query_store`
    computes in its one pass."""
    bottom = store.bottom_cube.mo
    names = bottom.schema.dimension_names

    def rows_of(subresult: MultidimensionalObject) -> Iterator[Row]:
        fact_ids = list(subresult.facts())
        columns = [
            subresult.relations[name].values_of(fact_ids) for name in names
        ]
        return _rows_of(subresult, zip(fact_ids, zip(*columns)))

    requested = bottom.schema.validate_granularity(query.granularity)
    return _answer(
        bottom,
        requested,
        _merged(map(rows_of, subresults), bottom),
        query.aggregation,
    )


def _rows_of(
    mo: MultidimensionalObject,
    cells: Iterable[tuple[str, tuple[str, ...]]],
) -> Iterator[Row]:
    """The rows of *mo*'s facts named in *cells* (``(fact id, cell)``)."""
    measures = list(mo.measures.values())
    provenance_of = mo.provenance
    for fact_id, cell in cells:
        yield (
            cell,
            [measure[fact_id] for measure in measures],
            provenance_of(fact_id),
        )


def _merged(
    batches: Iterable[Iterable[Row]], mo: MultidimensionalObject
) -> Iterator[Row]:
    """The rows of *batches*, one per distinct cell.

    Rows sharing a cell fold their measures pairwise in arrival order
    with *mo*'s default aggregates (the distributive step; per-cube
    partials therefore fold in cube order) and union their provenance
    once.  A cell that receives a further row moves behind every cell
    seen so far -- the fact order the answer inherits.
    """
    folds = [measure.aggregate.fold for measure in mo.measures.values()]
    merged: dict[tuple[str, ...], tuple[list[object], list[Provenance]]] = {}
    for rows in batches:
        for cell, values, provenance in rows:
            so_far = merged.pop(cell, None)
            if so_far is None:
                merged[cell] = (values, [provenance])
                continue
            old_values, provenances = so_far
            provenances.append(provenance)
            merged[cell] = (
                [
                    fold([old, new])
                    for fold, old, new in zip(folds, old_values, values)
                ],
                provenances,
            )
    for cell, (values, provenances) in merged.items():
        yield cell, values, (
            provenances[0]
            if len(provenances) == 1
            else Provenance(
                frozenset().union(*[part.members for part in provenances])
            )
        )


def _answer(
    bottom: MultidimensionalObject,
    requested: tuple[str, ...],
    rows: Iterable[Row],
    approach: AggregationApproach,
) -> MultidimensionalObject:
    """The final aggregation over the folded partials, as one MO.

    Under ``AVAILABILITY`` and ``STRICT`` the partials are the answer,
    because aggregating them again is the identity:

    * the grouping is idempotent.  Each partial's value ``v`` already
      sits at the category ``finest_available`` chose for its facts,
      which is at or above the requested one (exactly the requested
      one under ``STRICT``).  Every category reachable upward from
      ``v`` is at or above ``v``'s own, so ``finest_available(v, C)``
      is ``v`` itself, and each folded cell forms a group of one;
    * the fold is too.  The model's aggregates are distributive, so
      ``f([f(S)]) == f(S)`` (Gray et al.'s *Data Cube*): folding a
      one-row group again changes nothing.

    ``LUB`` picks one common category for the whole answer, the least
    upper bound over every cube's partials, so it groups the folded rows
    once more.
    """
    if approach is AggregationApproach.LUB:
        union = {row[0]: row for row in rows}
        cells = list(union)
        groups = group_cells(
            bottom.dimensions.values(),
            list(zip(*cells)),
            cells,
            requested,
            approach,
        )
        measures = [
            Measure(
                name,
                measure.aggregate,
                {cell: row[1][index] for cell, row in union.items()},
            )
            for index, (name, measure) in enumerate(bottom.measures.items())
        ]
        rows = fold_groups(measures, lambda cell: union[cell][2], groups)
    return result_mo(bottom, requested, rows)
