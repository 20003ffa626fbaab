"""The columnar fact table: encoding, kernels, and MO round-trips."""

import pytest

from repro.core.columnar import ColumnarFactTable
from repro.errors import FactError
from repro.experiments.paper_example import build_paper_mo


@pytest.fixture()
def mo():
    return build_paper_mo()


class TestEncoding:
    def test_rows_preserve_fact_order(self, mo):
        table = mo.to_columnar()
        assert table.fact_ids == list(mo.facts())
        assert len(table) == mo.n_facts == table.n_rows

    def test_codes_decode_to_direct_values(self, mo):
        table = mo.to_columnar()
        for row, fact_id in enumerate(table.fact_ids):
            assert table.row_cell(row) == mo.direct_cell(fact_id)

    def test_measures_and_provenance_are_shared(self, mo):
        table = mo.to_columnar()
        for row, fact_id in enumerate(table.fact_ids):
            assert table.row_measures(row) == {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            }
            assert table.provenances[row] is mo.provenance(fact_id)

    def test_interner_is_dense_and_consistent(self, mo):
        table = mo.to_columnar()
        for name in mo.schema.dimension_names:
            values = table.values_of(name)
            assert len(set(values)) == len(values)
            for code, value in enumerate(values):
                assert table.decode(name, code) == value


class TestRoundTrip:
    def test_to_mo_reproduces_the_source(self, mo):
        back = ColumnarFactTable.from_mo(mo).to_mo(template=mo)
        assert list(back.facts()) == list(mo.facts())
        for fact_id in mo.facts():
            assert back.direct_cell(fact_id) == mo.direct_cell(fact_id)
            assert back.provenance(fact_id) == mo.provenance(fact_id)
            for name in mo.schema.measure_names:
                assert back.measure_value(fact_id, name) == mo.measure_value(
                    fact_id, name
                )

    def test_from_columnar_classmethod(self, mo):
        from repro.core.mo import MultidimensionalObject

        back = MultidimensionalObject.from_columnar(mo.to_columnar())
        assert back.n_facts == mo.n_facts


class TestKernels:
    def test_distinct_cells_partition_rows(self, mo):
        table = mo.to_columnar()
        inverse, distinct = table.distinct_cells()
        assert len(inverse) == table.n_rows
        assert sorted(set(inverse)) == list(range(len(distinct)))
        # Every row's codes equal its distinct cell's codes.
        names = mo.schema.dimension_names
        for row, cell_index in enumerate(inverse):
            cell = distinct[cell_index]
            for di, name in enumerate(names):
                assert table.codes[name][row] == cell[di]
        # Distinct cells really are distinct.
        assert len(set(distinct)) == len(distinct)

    def test_conjunct_mask_matches_per_cell_evaluation(self, mo):
        table = mo.to_columnar()
        _, distinct = table.distinct_cells()
        predicate = lambda value: value.startswith("1999")
        mask = table.conjunct_mask(distinct, {"Time": predicate})
        for cell, bit in zip(distinct, mask):
            assert bit == predicate(table.decode("Time", cell[0]))

    def test_conjunct_mask_empty_mapping_admits_all(self, mo):
        table = mo.to_columnar()
        _, distinct = table.distinct_cells()
        assert table.conjunct_mask(distinct, {}) == [True] * len(distinct)

    def test_conjunct_mask_multiple_dimensions_conjoin(self, mo):
        table = mo.to_columnar()
        _, distinct = table.distinct_cells()
        time_p = lambda value: value.startswith("1999")
        url_p = lambda value: "cnn" in value
        mask = table.conjunct_mask(distinct, {"Time": time_p, "URL": url_p})
        for cell, bit in zip(distinct, mask):
            expected = time_p(table.decode("Time", cell[0])) and url_p(
                table.decode("URL", cell[1])
            )
            assert bit == expected

    def test_rollup_column_matches_try_ancestor_at(self, mo):
        table = mo.to_columnar()
        column = table.rollup_column("Time", "month")
        dimension = mo.dimensions["Time"]
        for code, value in enumerate(table.values_of("Time")):
            assert column[code] == dimension.try_ancestor_at(value, "month")
        # Cached: the same list object comes back.
        assert table.rollup_column("Time", "month") is column

    def test_category_column(self, mo):
        table = mo.to_columnar()
        dimension = mo.dimensions["Time"]
        column = table.category_column("Time")
        for code, value in enumerate(table.values_of("Time")):
            assert column[code] == dimension.category_of(value)

    def test_aggregate_rows_folds_in_row_order(self, mo):
        table = mo.to_columnar()
        rows = list(range(table.n_rows))
        name = mo.schema.measure_names[0]
        expected = mo.measures[name].aggregate_over(table.fact_ids)
        assert table.aggregate_rows(name, rows) == expected

    def test_aggregate_rows_unknown_measure(self, mo):
        table = mo.to_columnar()
        with pytest.raises(FactError, match="unknown measure"):
            table.aggregate_rows("nope", [0])
        with pytest.raises(FactError, match="unknown measure"):
            table.aggregate_of("nope")

