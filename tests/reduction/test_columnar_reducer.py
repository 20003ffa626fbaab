"""The columnar reducer and ``reduce_mo``'s dispatch to it."""

import datetime as dt

import pytest

from repro.errors import ReproError, SpecSemanticsError
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.reduction import (
    BACKENDS,
    reduce_mo,
    reduce_mo_columnar,
)
from repro.reduction.telemetry import REDUCE_RUNS
from repro.spec.action import Action
from repro.spec.specification import ReductionSpecification


@pytest.fixture()
def mo():
    return build_paper_mo()


@pytest.fixture()
def specification(mo):
    return paper_specification(mo)


def assert_identical(left, right):
    assert list(left.facts()) == list(right.facts())
    for fact_id in left.facts():
        assert left.direct_cell(fact_id) == right.direct_cell(fact_id)
        assert left.provenance(fact_id) == right.provenance(fact_id)
        for name in left.schema.measure_names:
            assert left.measure_value(fact_id, name) == right.measure_value(
                fact_id, name
            )


class TestEquivalence:
    @pytest.mark.parametrize("at", SNAPSHOT_TIMES)
    def test_matches_interpretive_on_paper_snapshots(
        self, mo, specification, at
    ):
        interpretive = reduce_mo(mo, specification, at, backend="interpretive")
        columnar = reduce_mo_columnar(mo, specification, at)
        assert_identical(columnar, interpretive)

    def test_carried_over_facts_keep_identity(self, mo, specification):
        at = SNAPSHOT_TIMES[0]
        columnar = reduce_mo_columnar(mo, specification, at)
        untouched = [f for f in mo.facts() if f in columnar]
        assert untouched  # the early snapshot leaves some facts alone
        for fact_id in untouched:
            assert columnar.direct_cell(fact_id) == mo.direct_cell(fact_id)

    def test_empty_specification_is_identity(self, mo):
        at = SNAPSHOT_TIMES[-1]
        columnar = reduce_mo_columnar(mo, [], at)
        assert_identical(columnar, mo)

    def test_duplicate_direct_cells_fold_like_the_oracle(
        self, mo, specification
    ):
        mo.insert_fact(
            "twin",
            {"Time": "1999/12/4", "URL": "http://www.cnn.com/health"},
            {
                "Number_of": 1,
                "Dwell_time": 5,
                "Delivery_time": 1,
                "Datasize": 1,
            },
        )
        at = SNAPSHOT_TIMES[-1]
        assert_identical(
            reduce_mo_columnar(mo, specification, at),
            reduce_mo(mo, specification, at, backend="interpretive"),
        )

    def test_disjunctive_action_matches_interpretive(self, mo):
        either = Action.parse(
            mo.schema,
            "a[Time.month, URL.domain] o[(URL.domain_grp = '.com' AND "
            "Time.month <= '1999/12') OR (URL.domain_grp = '.edu' AND "
            "Time.month <= '2000/01')]",
            "either",
        )
        spec = ReductionSpecification((either,), mo.dimensions)
        at = dt.date(2001, 6, 1)
        assert_identical(
            reduce_mo_columnar(mo, spec, at),
            reduce_mo(mo, spec, at, backend="interpretive"),
        )

    def test_crossing_specification_raises(self, mo):
        crossing = ReductionSpecification(
            (
                Action.parse(
                    mo.schema,
                    "a[Time.month, URL.url] o[Time.month <= NOW - 0 months]",
                    "by_month",
                ),
                Action.parse(
                    mo.schema,
                    "a[Time.day, URL.domain] o[Time.day <= NOW - 0 days]",
                    "by_domain",
                ),
            ),
            mo.dimensions,
            validate=False,
        )
        at = dt.date(2001, 1, 1)
        with pytest.raises(SpecSemanticsError, match="crossing"):
            reduce_mo_columnar(mo, crossing, at)
        with pytest.raises(SpecSemanticsError, match="crossing"):
            reduce_mo(mo, crossing, at, backend="interpretive")


class TestDispatch:
    def test_backends_tuple(self):
        assert BACKENDS == ("columnar", "interpretive")

    def test_unknown_backend_raises(self, mo, specification):
        with pytest.raises(ReproError, match="unknown reducer backend"):
            reduce_mo(mo, specification, SNAPSHOT_TIMES[0], backend="turbo")

    def test_default_is_columnar_at_every_size(self, mo, specification):
        assert mo.n_facts == 7  # the paper's MO
        registry = MetricsRegistry()
        with use_registry(registry):
            reduce_mo(mo, specification, SNAPSHOT_TIMES[0])
        assert registry.value(REDUCE_RUNS, {"backend": "columnar"}) == 1
        assert registry.value(REDUCE_RUNS, {"backend": "interpretive"}) is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_backends_agree(self, mo, specification, backend):
        at = SNAPSHOT_TIMES[1]
        expected = reduce_mo(mo, specification, at, backend="interpretive")
        assert_identical(
            reduce_mo(mo, specification, at, backend=backend), expected
        )
