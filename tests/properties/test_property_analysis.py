"""Property-based soundness of the semantic analyzer.

Two families of generated cases:

* **Matrix soundness** — every definite verdict of
  :func:`repro.analysis.matrix.relationship_matrix` is checked against
  ground truth: the exact admission mask of each action over all
  materialized bottom cells, at every prover-sampled evaluation time.
  ``UNKNOWN`` makes no claim, so only definite verdicts can fail.
  At the default settings this checks 70 generated triples = 210
  action pairs per run.  The masks come from
  :class:`~tests.properties.groundtruth.GroundTruth` (one interpretive
  atom verdict per distinct value), which is itself checked against the
  per-cell ``cell_satisfies`` masks on NOT/OR/AND compositions.

* **Reachability soundness** — an action the analyzer declares
  unsatisfiable admits zero facts on all three reduction paths
  (interpretive, columnar, SQL); an action it declares dead
  (union-covered) can be deleted without changing any path's output
  bit for bit.

The same draws also check the disjoint transform (Section 7.1): its
predicates partition the bottom cells, and each fact's owning cube has
the granularity ``Cell(f, t)`` gives it.
"""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Verdict, reachability, relationship_matrix
from repro.checks.prover import Prover, ProverConfig
from repro.engine.disjoint import disjoint_actions
from repro.obs import metrics as obs_metrics
from repro.query.compare import Approach
from repro.reduction.auxiliary import cell as cell_of
from repro.reduction.reducer import BACKENDS, reduce_mo
from repro.reduction.telemetry import REDUCE_ADMITTED
from repro.spec.action import Action
from repro.spec.ast import And, Not, Or
from repro.spec.predicate import cell_satisfies, satisfies
from repro.spec.ranges import profiles_of
from repro.spec.specification import ReductionSpecification
from repro.sql.loader import SqlWarehouse
from repro.sql.reducer_sql import reduce_warehouse

from .groundtruth import GroundTruth
from .strategies import URL_ROWS, evaluation_times, mos_with_specs, small_mos

#: A short-horizon prover keeps each generated case fast; soundness must
#: hold at any horizon.
PROVER = ProverConfig(reference=dt.date(2001, 1, 1), horizon_years=2)

GRANULARITIES = [
    ("day", "url"),
    ("month", "domain"),
    ("month", "domain_grp"),
    ("quarter", "domain_grp"),
    ("year", "domain_grp"),
]

#: Predicate clause pools, keyed by the category they constrain.  An
#: action may only constrain categories at or above its target, so the
#: strategy draws from the pools the target admits.
URL_CLAUSES = {
    "domain_grp": [
        None,
        "URL.domain_grp = '.com'",
        "URL.domain_grp = '.edu'",
    ],
    "domain": [
        None,
        "URL.domain = 'site0.com'",
        "URL.domain = 'site1.edu'",
    ],
}
TIME_CLAUSES = {
    "month": [
        None,
        "Time.month <= NOW - {k} months",
        "Time.month <= '1999/10'",
        "Time.month >= '1999/06'",
    ],
    "quarter": [None, "Time.quarter <= NOW - {k} quarters"],
    "year": [None, "Time.year <= NOW - {k} years", "Time.year = '1999'"],
}
TIME_ABOVE = {
    "day": ("month", "quarter", "year"),
    "month": ("month", "quarter", "year"),
    "quarter": ("quarter", "year"),
    "year": ("year",),
}
URL_ABOVE = {
    "url": ("domain", "domain_grp"),
    "domain": ("domain", "domain_grp"),
    "domain_grp": ("domain_grp",),
}


@st.composite
def analyzer_actions(draw, mo, count: int = 3):
    """*count* independently drawn actions over the small-MO schema."""
    actions = []
    for index in range(count):
        time_target, url_target = draw(st.sampled_from(GRANULARITIES))
        clauses = []
        url_category = draw(st.sampled_from(URL_ABOVE[url_target]))
        clause = draw(st.sampled_from(URL_CLAUSES[url_category]))
        if clause is not None:
            clauses.append(clause)
        time_category = draw(st.sampled_from(TIME_ABOVE[time_target]))
        clause = draw(st.sampled_from(TIME_CLAUSES[time_category]))
        if clause is not None:
            k = draw(st.integers(min_value=1, max_value=9))
            clauses.append(clause.format(k=k))
        predicate = " AND ".join(clauses) if clauses else "TRUE"
        actions.append(
            Action.parse(
                mo.schema,
                f"a[Time.{time_target}, URL.{url_target}] o[{predicate}]",
                f"g{index}",
            )
        )
    return actions


def bottom_cells(mo):
    """Every materialized bottom cell of the small-MO dimensions."""
    days = mo.dimensions["Time"].values("day")
    urls = [row["url"] for row in URL_ROWS]
    return [
        {"Time": day, "URL": url} for day in sorted(days) for url in urls
    ]


def pair_times(first, second, config):
    """The evaluation times the prover's verdicts quantify over."""
    profiles = [*profiles_of(first), *profiles_of(second)]
    if not profiles:
        return [config.reference]
    return Prover(config=config).horizon(profiles)


class TestMatrixSoundness:
    @settings(max_examples=70, deadline=None)
    @given(data=st.data())
    def test_definite_verdicts_match_ground_truth(self, data):
        mo = data.draw(small_mos())
        actions = data.draw(analyzer_actions(mo))
        matrix = relationship_matrix(actions, Prover(mo.dimensions, PROVER))
        truth = GroundTruth(mo.dimensions, bottom_cells(mo))
        by_name = {action.name: action for action in actions}
        for relation in matrix.pairs():
            first = by_name[relation.first]
            second = by_name[relation.second]
            times = pair_times(first, second, PROVER)
            if relation.witness is not None:
                times = [*times, relation.witness.at]
            overlap_seen = False
            for at in times:
                mask_a = truth.mask(first.predicate, at)
                mask_b = truth.mask(second.predicate, at)
                if mask_a & mask_b:
                    overlap_seen = True
                if relation.verdict is Verdict.DISJOINT:
                    assert not (mask_a & mask_b), (
                        f"{relation.first} vs {relation.second} declared "
                        f"DISJOINT but overlap at {at}"
                    )
                elif relation.verdict is Verdict.SUBSUMED:
                    assert mask_a <= mask_b, (
                        f"{relation.first} declared SUBSUMED by "
                        f"{relation.second} but admits extra cells at {at}"
                    )
                elif relation.verdict is Verdict.SUBSUMES:
                    assert mask_b <= mask_a, (
                        f"{relation.first} declared SUBSUMES "
                        f"{relation.second} but misses cells at {at}"
                    )
                elif relation.verdict is Verdict.EQUIVALENT:
                    assert mask_a == mask_b, (
                        f"{relation.first} vs {relation.second} declared "
                        f"EQUIVALENT but masks differ at {at}"
                    )
            if relation.verdict is Verdict.OVERLAPPING:
                assert overlap_seen, (
                    f"{relation.first} vs {relation.second} declared "
                    "OVERLAPPING but no sampled time shows a shared cell"
                )


class TestGroundTruth:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_value_masks_equal_per_cell_masks(self, data):
        mo = data.draw(small_mos())
        first, second = data.draw(analyzer_actions(mo, count=2))
        p, q = first.predicate, second.predicate
        predicates = [p, Not(p), Or((Not(p), q)), And((p, Not(q))), Or((p, q))]
        times = data.draw(
            st.lists(evaluation_times(), min_size=1, max_size=3)
        )
        # Coarse cells too: only there do the two approaches differ.
        cells = bottom_cells(mo) + [
            cell
            for time_category, url_category in GRANULARITIES
            for cell in cells_at(
                mo, {"Time": time_category, "URL": url_category}
            )
        ]
        truth = GroundTruth(mo.dimensions, cells)
        for at in times:
            for approach in (Approach.CONSERVATIVE, Approach.LIBERAL):
                for predicate in predicates:
                    per_cell = frozenset(
                        index
                        for index, cell in enumerate(cells)
                        if cell_satisfies(
                            mo.dimensions, cell, predicate, at, approach
                        )
                    )
                    assert truth.mask(predicate, at, approach) == per_cell, (
                        f"{predicate} at {at} under {approach}"
                    )


def registries_after_reduce(mo, specification, at):
    """One metrics registry per reduction backend after a full run."""
    registries = {}
    for backend in BACKENDS:
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            reduce_mo(mo, specification, at, backend=backend)
        registries[backend] = registry
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        warehouse = SqlWarehouse.from_mo(mo)
        reduce_warehouse(warehouse, specification, at)
    registries["sql"] = registry
    return registries


def observable(mo):
    """Cell -> measures, the backend-independent view of a reduced MO."""
    return sorted(
        (
            mo.direct_cell(fact_id),
            tuple(
                mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            ),
        )
        for fact_id in mo.facts()
    )


class TestReachabilitySoundness:
    @settings(max_examples=15, deadline=None)
    @given(mo=small_mos(), at=evaluation_times())
    def test_unsatisfiable_action_admits_zero_on_all_backends(self, mo, at):
        never = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[URL.domain_grp = '.com' AND "
            "URL.domain_grp = '.edu']",
            "never",
        )
        catcher = Action.parse(
            mo.schema,
            "a[Time.quarter, URL.domain_grp] "
            "o[Time.quarter <= NOW - 2 quarters]",
            "catcher",
        )
        result = reachability([never, catcher], Prover(mo.dimensions, PROVER))
        assert "never" in result.unsatisfiable
        specification = ReductionSpecification(
            (never, catcher), mo.dimensions, validate=False
        )
        for backend, registry in registries_after_reduce(
            mo, specification, at
        ).items():
            admitted = registry.value(REDUCE_ADMITTED, {"action": "never"})
            assert admitted == 0, f"{backend} admitted facts for 'never'"

    @settings(max_examples=15, deadline=None)
    @given(mo=small_mos(), at=evaluation_times())
    def test_dead_action_never_changes_any_backend_output(self, mo, at):
        com = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain_grp] o[URL.domain_grp = '.com' AND "
            "Time.month <= NOW - 3 months]",
            "keep_com",
        )
        edu = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain_grp] o[URL.domain_grp = '.edu' AND "
            "Time.month <= NOW - 3 months]",
            "keep_edu",
        )
        dead = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain_grp] "
            "o[Time.month <= NOW - 6 months]",
            "folded",
        )
        actions = [com, edu, dead]
        result = reachability(actions, Prover(mo.dimensions, PROVER))
        assert "folded" in result.dead
        with_dead = ReductionSpecification(
            tuple(actions), mo.dimensions, validate=False
        )
        without_dead = ReductionSpecification(
            (com, edu), mo.dimensions, validate=False
        )
        for backend in BACKENDS:
            full = reduce_mo(mo, with_dead, at, backend=backend)
            trimmed = reduce_mo(mo, without_dead, at, backend=backend)
            assert observable(full) == observable(trimmed), backend
        first = SqlWarehouse.from_mo(mo)
        reduce_warehouse(first, with_dead, at)
        second = SqlWarehouse.from_mo(mo)
        reduce_warehouse(second, without_dead, at)
        assert observable(first.to_mo(mo)) == observable(second.to_mo(mo))


def grouped_spec_for(mo, detail_months: int, coarse_years: int):
    """The statically separable benchmark family on the small MO."""
    com = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain] o[URL.domain_grp = '.com' AND "
        f"Time.month <= NOW - {detail_months} months]",
        "to_month_com",
    )
    edu = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain_grp] o[URL.domain_grp = '.edu' AND "
        f"Time.month <= NOW - {detail_months} months]",
        "to_month_edu",
    )
    year = Action.parse(
        mo.schema,
        "a[Time.year, URL.domain_grp] "
        f"o[Time.year <= NOW - {coarse_years} years]",
        "to_year",
    )
    return ReductionSpecification(
        (com, edu, year), mo.dimensions, validate=False
    )


def cells_at(mo, granularity: dict[str, str]):
    """All grounded cells of the dimension instances at *granularity*."""
    times = sorted(mo.dimensions["Time"].values(granularity["Time"]))
    urls = sorted(mo.dimensions["URL"].values(granularity["URL"]))
    return [{"Time": t, "URL": u} for t in times for u in urls]


class TestDisjointPartition:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_predicates_partition_cells_as_placement_does(self, data):
        if data.draw(st.booleans()):
            mo, specification = data.draw(mos_with_specs())
        else:
            mo = data.draw(small_mos())
            specification = grouped_spec_for(
                mo,
                data.draw(st.integers(min_value=1, max_value=6)),
                data.draw(st.integers(min_value=1, max_value=3)),
            )
        at = data.draw(evaluation_times())
        cubes = disjoint_actions(specification)
        for cell in bottom_cells(mo):
            for approach in (Approach.CONSERVATIVE, Approach.LIBERAL):
                owners = [
                    cube.name
                    for cube in cubes
                    if cell_satisfies(
                        mo.dimensions, cell, cube.predicate, at, approach
                    )
                ]
                assert len(owners) == 1, (cell, at, approach, owners)
        by_granularity = {cube.granularity: cube.name for cube in cubes}
        actions = list(specification.actions)
        for fact_id in mo.facts():
            target = cell_of(mo, actions, fact_id, at)
            granularity = tuple(
                mo.dimensions[name].category_of(value)
                for name, value in zip(mo.schema.dimension_names, target)
            )
            (owner,) = [
                cube.name
                for cube in cubes
                if satisfies(mo, fact_id, cube.predicate, at)
            ]
            assert owner == by_granularity[granularity], (fact_id, at)
