"""Unit tests for the SubCube container."""

import pytest

from repro.core.facts import Provenance
from repro.engine.disjoint import disjoint_actions
from repro.engine.subcube import FactBlock, SubCube
from repro.errors import EngineError
from repro.experiments.paper_example import (
    build_paper_mo,
    paper_specification,
)


@pytest.fixture
def cubes():
    mo = build_paper_mo()
    definitions = disjoint_actions(paper_specification(mo))
    return mo, {d.name: SubCube(d, mo) for d in definitions}


MEASURES = {
    "Number_of": 1,
    "Dwell_time": 10,
    "Delivery_time": 1,
    "Datasize": 5,
}


class TestInsertion:
    def test_insert_at_cube_granularity(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        fact_id = k1.insert_at_granularity(
            {"Time": "1999/12", "URL": "cnn.com"}, MEASURES, Provenance.of("x")
        )
        assert k1.n_facts == 1
        assert k1.mo.gran(fact_id) == ("month", "domain")

    def test_wrong_granularity_rejected(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        with pytest.raises(EngineError, match="not at the cube granularity"):
            k1.insert_at_granularity(
                {"Time": "1999/12/04", "URL": "cnn.com"},
                MEASURES,
                Provenance.of("x"),
            )

    def test_colliding_cells_merge(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(
            {"Time": "1999/12", "URL": "cnn.com"}, MEASURES, Provenance.of("x")
        )
        fact_id = k1.insert_at_granularity(
            {"Time": "1999/12", "URL": "cnn.com"}, MEASURES, Provenance.of("y")
        )
        assert k1.n_facts == 1
        assert k1.mo.measure_value(fact_id, "Dwell_time") == 20
        assert k1.mo.provenance(fact_id).members == {"x", "y"}

    def test_values_normalized(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        fact_id = k1.insert_at_granularity(
            {"Time": "1999/12", "URL": "cnn.com"}, MEASURES, Provenance.of("x")
        )
        assert k1.mo.direct_value(fact_id, "Time") == "1999/12"


class TestLifecycle:
    def test_remove(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        fact_id = k1.insert_at_granularity(
            {"Time": "1999/12", "URL": "cnn.com"}, MEASURES, Provenance.of("x")
        )
        k1.remove(fact_id)
        assert k1.n_facts == 0

    def test_clear(self, cubes):
        _, by_name = cubes
        k2 = by_name["K2"]
        k2.insert_at_granularity(
            {"Time": "1999Q4", "URL": "cnn.com"}, MEASURES, Provenance.of("x")
        )
        k2.clear()
        assert k2.n_facts == 0

    def test_definition_exposed(self, cubes):
        _, by_name = cubes
        assert by_name["K2"].granularity == ("quarter", "domain")
        assert by_name["K0"].definition.is_residual


class TestFrozenBlock:
    CELL = {"Time": "1999/12", "URL": "cnn.com"}

    def test_block_is_reused_until_the_cube_mutates(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        empty = k1.frozen_block()
        assert empty.text == "[]"
        assert k1.frozen_block() is empty
        fact_id = k1.insert_at_granularity(
            self.CELL, MEASURES, Provenance.of("x")
        )
        held = k1.frozen_block()
        assert held is not empty
        assert held.mo is not k1.mo  # a copy no writer is ever handed
        assert held[1:] == FactBlock.of(k1.mo)[1:]  # same text, same crc
        assert k1.frozen_block() is held
        k1.remove(fact_id)
        assert k1.frozen_block().text == "[]"
        assert fact_id in held.mo  # the old block is untouched

    def test_clear_invalidates_even_at_an_equal_mutation_count(self, cubes):
        # One insert takes the MO to count 1; clear() installs a fresh MO,
        # which one more insert would bring back to 1 had the count not
        # been carried across.
        _, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("x"))
        before = k1.frozen_block()
        k1.clear()
        k1.insert_at_granularity(
            {"Time": "2000/01", "URL": "cnn.com"}, MEASURES, Provenance.of("y")
        )
        after = k1.frozen_block()
        assert after.text != before.text
        assert after.text == FactBlock.of(k1.mo).text

    def test_share_frozen_holds_the_same_objects(self, cubes):
        mo, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("x"))
        twin = SubCube(k1.definition, mo)
        twin.share_frozen(k1)
        assert twin.mo is k1.frozen_block().mo
        assert twin.frozen_block() is k1.frozen_block()
