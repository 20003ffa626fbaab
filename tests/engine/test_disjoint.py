"""Unit tests for the disjoint-action transformation (Section 7.1)."""

import datetime as dt

import pytest

from repro.engine.disjoint import disjoint_actions
from repro.engine.telemetry import DISJOINT_BUILD_SECONDS
from repro.experiments.figures import build_extended_mo, extended_specification
from repro.experiments.paper_example import build_paper_mo, paper_specification
from repro.obs import metrics as obs_metrics
from repro.spec.ast import Not, conjunction, disjunction
from repro.spec.predicate import satisfies
from repro.spec.specification import ReductionSpecification
from repro.workload import grouped_retention_actions


@pytest.fixture
def mo():
    return build_paper_mo()


@pytest.fixture
def spec(mo):
    return paper_specification(mo)


class TestShape:
    def test_paper_spec_yields_three_cubes(self, spec):
        cubes = disjoint_actions(spec)
        granularities = {c.name: c.granularity for c in cubes}
        assert granularities == {
            "K0": ("day", "url"),
            "K1": ("month", "domain"),
            "K2": ("quarter", "domain"),
        }

    def test_residual_cube_marked(self, spec):
        cubes = disjoint_actions(spec)
        assert cubes[0].is_residual
        assert not cubes[1].is_residual
        assert cubes[1].members == ("a1",)
        assert cubes[2].members == ("a2",)

    def test_parents_follow_granularity_order(self, spec):
        cubes = {c.name: c for c in disjoint_actions(spec)}
        assert cubes["K0"].parents == ()
        assert cubes["K1"].parents == ("K0",)
        assert set(cubes["K2"].parents) == {"K0", "K1"}

    @pytest.mark.parametrize("grouped", [False, True])
    def test_predicates_are_section_7_1_unabridged(self, mo, spec, grouped):
        if grouped:
            spec = ReductionSpecification(
                grouped_retention_actions(mo, detail_months=3, coarse_years=2),
                mo.dimensions,
            )
        schema = mo.schema
        by_name = {action.name: action for action in spec.actions}
        cubes = disjoint_actions(spec)
        raw = {
            cube.granularity: disjunction(
                [by_name[member].predicate for member in cube.members]
            )
            for cube in cubes
            if not cube.is_residual
        }
        for cube in cubes:
            if cube.is_residual:
                expected = conjunction([Not(p) for p in raw.values()])
            else:
                expected = conjunction(
                    [
                        raw[cube.granularity],
                        *(
                            Not(raw[g])
                            for g in raw
                            if g != cube.granularity
                            and schema.le_granularity(cube.granularity, g)
                        ),
                    ]
                )
            assert cube.predicate == expected, cube.name

    def test_extended_spec_week_cube(self):
        mo = build_extended_mo()
        cubes = disjoint_actions(extended_specification(mo))
        granularities = sorted(c.granularity for c in cubes)
        assert ("week", "domain") in granularities
        week_cube = next(
            c for c in cubes if c.granularity == ("week", "domain")
        )
        # Week and month cubes are granularity-incomparable: no parent edge.
        month_cube = next(
            c for c in cubes if c.granularity == ("month", "domain")
        )
        assert month_cube.name not in week_cube.parents
        assert week_cube.parents == ("K0",)


class TestPartition:
    @pytest.mark.parametrize(
        "at",
        [dt.date(2000, 4, 5), dt.date(2000, 6, 5), dt.date(2000, 11, 5)],
    )
    def test_every_bottom_cell_in_exactly_one_cube(self, mo, spec, at):
        cubes = disjoint_actions(spec)
        for fact_id in mo.facts():
            owners = [
                cube.name
                for cube in cubes
                if satisfies(mo, fact_id, cube.predicate, at)
            ]
            assert len(owners) == 1, (fact_id, at, owners)

    def test_partition_matches_responsibility(self, mo, spec):
        from repro.reduction.auxiliary import cell as cell_of

        at = dt.date(2000, 11, 5)
        cubes = disjoint_actions(spec)
        by_granularity = {c.granularity: c.name for c in cubes}
        for fact_id in mo.facts():
            target = cell_of(mo, list(spec.actions), fact_id, at)
            target_granularity = tuple(
                mo.dimensions[name].category_of(value)
                for name, value in zip(mo.schema.dimension_names, target)
            )
            (owner,) = [
                cube.name
                for cube in cubes
                if satisfies(mo, fact_id, cube.predicate, at)
            ]
            assert owner == by_granularity[target_granularity]


class TestTelemetry:
    def test_build_records_one_duration_and_nothing_else(self, spec):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            disjoint_actions(spec)
        assert registry.names() == [DISJOINT_BUILD_SECONDS]
        [(labels, histogram)] = registry.samples(DISJOINT_BUILD_SECONDS)
        assert labels == {} and histogram.count == 1


class TestErrors:
    def test_empty_specification_rejected(self, mo):
        from repro.errors import EngineError
        from repro.spec.specification import ReductionSpecification

        empty = ReductionSpecification((), mo.dimensions)
        with pytest.raises(EngineError):
            disjoint_actions(empty)
