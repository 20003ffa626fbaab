"""Unit tests for measures and aggregate functions."""

import pytest

from repro.core import measures
from repro.core.measures import (
    AVG,
    AggregateFunction,
    COUNT,
    MAX,
    MIN,
    Measure,
    SUM,
    register_aggregate,
    resolve_aggregate,
)
from repro.errors import MeasureError


class TestAggregateFunctions:
    def test_sum(self):
        assert SUM([1, 2, 3]) == 6

    def test_count_folds_partial_counts(self):
        # COUNT over already-counted partials is a SUM — that is what makes
        # it distributive.
        assert COUNT([2, 3]) == 5

    def test_min_max(self):
        assert MIN([4, 2, 9]) == 2
        assert MAX([4, 2, 9]) == 9

    def test_empty_multiset_rejected(self):
        with pytest.raises(MeasureError, match="empty"):
            SUM([])

    def test_avg_flagged_non_distributive(self):
        assert not AVG.distributive

    def test_resolve_case_insensitive(self):
        assert resolve_aggregate("SUM") is SUM
        assert resolve_aggregate("Min") is MIN

    def test_resolve_unknown(self):
        with pytest.raises(MeasureError, match="unknown aggregate"):
            resolve_aggregate("median")

    def test_register_custom(self):
        product = AggregateFunction(
            "product_test", lambda vs: __import__("math").prod(vs)
        )
        register_aggregate(product)
        assert resolve_aggregate("product_test")([2, 3, 4]) == 24

    def test_distributivity_of_sum(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        parts = [SUM(values[:3]), SUM(values[3:])]
        assert SUM(parts) == SUM(values)

    def test_distributivity_of_min(self):
        values = [3, 1, 4, 1, 5]
        parts = [MIN(values[:2]), MIN(values[2:])]
        assert MIN(parts) == MIN(values)

    # The store's one-pass query answers with each cell's partial as is,
    # where a second aggregation would fold it once more: the two must
    # agree bit for bit, signed zeros and NaN included.
    @pytest.mark.parametrize(
        "function",
        [f for f in measures._REGISTRY.values() if f.distributive],
        ids=lambda function: function.name,
    )
    @pytest.mark.parametrize(
        "values",
        [
            [-0.0],
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0, -0.0],
            [float("nan")],
            [1.0, float("nan")],
            [float("nan"), 1.0],
            [0.1, 0.2, 0.3],
            [1e16, 1.0, -1e16],
            [3, 2.5, 1],
            [7],
        ],
    )
    def test_folding_a_fold_again_changes_nothing(self, function, values):
        folded = function.fold(values)
        assert repr(function.fold([folded])) == repr(folded)


class TestMeasure:
    def test_set_get(self):
        measure = Measure("m", SUM)
        measure.set("f1", 10)
        assert measure["f1"] == 10
        assert "f1" in measure
        assert len(measure) == 1

    def test_missing_value_raises(self):
        measure = Measure("m", SUM)
        with pytest.raises(MeasureError, match="no value"):
            measure["ghost"]

    def test_aggregate_over(self):
        measure = Measure("m", SUM, {"a": 1, "b": 2, "c": 3})
        assert measure.aggregate_over(["a", "c"]) == 4

    def test_aggregate_over_nothing_raises(self):
        measure = Measure("m", SUM, {"a": 1})
        with pytest.raises(MeasureError, match="empty"):
            measure.aggregate_over([])

    def test_aggregate_each_folds_every_group_in_member_order(self):
        measure = Measure("m", MIN, {"a": 0.0, "b": -0.0, "c": 5})
        folded = measure.aggregate_each([["a", "b"], ["b", "a"], ["c"]])
        assert repr(folded) == "[0.0, -0.0, 5]"
        with pytest.raises(MeasureError, match="no value for fact 'z'"):
            measure.aggregate_each([["a"], ["z"]])

    def test_restrict(self):
        measure = Measure("m", SUM, {"a": 1, "b": 2})
        restricted = measure.restrict(["b"])
        assert "a" not in restricted
        assert restricted["b"] == 2

    def test_discard_idempotent(self):
        measure = Measure("m", SUM, {"a": 1})
        measure.discard("a")
        measure.discard("a")
        assert len(measure) == 0

    def test_non_distributive_default_rejected(self):
        with pytest.raises(MeasureError, match="distributive"):
            Measure("m", AVG)

    def test_copy_is_independent(self):
        measure = Measure("m", SUM, {"a": 1})
        clone = measure.copy()
        clone.set("b", 2)
        assert "b" not in measure
