"""Unit tests for the SubCube container."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.core.builder import MOBuilder
from repro.core.facts import Provenance, aggregate_fact_id
from repro.engine.disjoint import disjoint_actions
from repro.engine.subcube import FactBlock, SubCube
from repro.errors import EngineError
from repro.experiments.paper_example import (
    build_paper_mo,
    paper_specification,
)
from repro.io import canonical_json, mo_facts_to_list


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


def encoding(mo):
    """The from-scratch encoding a fact block must equal byte for byte."""
    return canonical_json(mo_facts_to_list(mo))


def assert_block_fresh(cube):
    block = cube.frozen_block()
    text = encoding(cube.mo)
    assert block.text == text
    assert block.crc == zlib.crc32(text.encode("utf-8"))
    assert encoding(block.mo) == text
    fragments = block.fragments
    assert f"[{','.join(fragments[i] for i in sorted(fragments))}]" == text
    return block


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
        held = assert_block_fresh(k1)
        assert held is not empty
        assert held.mo is not k1.mo  # a copy no writer is ever handed
        assert k1.frozen_block() is held
        k1.remove(fact_id)
        assert k1.frozen_block().text == "[]"
        assert fact_id in held.mo  # the old block is untouched
        assert held.text == encoding(held.mo)

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
        after = assert_block_fresh(k1)
        assert after.text != before.text
        # The fresh MO records its writes from this block on.
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("z"))
        assert assert_block_fresh(k1).encoded == 1

    def test_adopted_rows_are_re_encoded(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("x"))
        assert_block_fresh(k1)
        schema = k1.mo.schema
        coordinates = {"Time": "2000/01", "URL": "cnn.com"}
        cell = tuple(coordinates[name] for name in schema.dimension_names)
        values = [MEASURES[name] for name in schema.measure_names]
        k1.mo.adopt_rows(
            [(aggregate_fact_id(cell), cell, values, Provenance.of("y"))]
        )
        block = assert_block_fresh(k1)
        assert (block.encoded, len(block.fragments)) == (1, 2)

    def test_only_the_written_facts_are_re_encoded(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        for domain in ("cnn.com", "amazon.com", "gatech.edu"):
            k1.insert_at_granularity(
                {"Time": "1999/12", "URL": domain},
                MEASURES,
                Provenance.of(domain),
            )
        assert assert_block_fresh(k1).encoded == 3
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("y"))
        folded = assert_block_fresh(k1)
        assert (folded.encoded, len(folded.fragments)) == (1, 3)
        k1.remove(k1.cell_fact_id({"Time": "1999/12", "URL": "amazon.com"}))
        shrunk = assert_block_fresh(k1)
        assert (shrunk.encoded, len(shrunk.fragments)) == (0, 2)

    @pytest.mark.parametrize(
        "before, after",
        [(0.0, -0.0), (1, 1.0), (True, 1)],
        ids=["zero-sign", "int-float", "bool-int"],
    )
    def test_an_equal_value_that_encodes_differently_is_re_encoded(
        self, cubes, before, after
    ):
        _, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(
            self.CELL, {**MEASURES, "Dwell_time": before}, Provenance.of("x")
        )
        held = assert_block_fresh(k1)
        k1.remove(k1.cell_fact_id(self.CELL))
        k1.insert_at_granularity(
            self.CELL, {**MEASURES, "Dwell_time": after}, Provenance.of("x")
        )
        block = assert_block_fresh(k1)
        assert block.encoded == 1
        assert block.text != held.text

    def test_a_new_provenance_with_the_same_members_is_re_encoded(self, cubes):
        _, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("x"))
        held = assert_block_fresh(k1)
        k1.remove(k1.cell_fact_id(self.CELL))
        k1.insert_at_granularity(
            self.CELL, MEASURES, Provenance(frozenset({"x"}))
        )
        block = assert_block_fresh(k1)
        assert block.encoded == 1
        assert block.text == held.text

    def test_share_frozen_holds_the_same_objects(self, cubes):
        mo, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("x"))
        twin = SubCube(k1.definition, mo)
        twin.share_frozen(k1)
        assert twin.mo is k1.frozen_block().mo
        assert twin.frozen_block() is k1.frozen_block()

    def test_twins_written_through_a_shared_frozen_mo_stay_fresh(self, cubes):
        # A torn write: two versions share one frozen MO and a writer
        # reaches it anyway.  Neither twin may trust a change record
        # the other one consumed.
        mo, by_name = cubes
        k1 = by_name["K1"]
        k1.insert_at_granularity(self.CELL, MEASURES, Provenance.of("x"))
        first, second = SubCube(k1.definition, mo), SubCube(k1.definition, mo)
        first.share_frozen(k1)
        second.share_frozen(k1)
        for month in ("1999/11", "2000/01"):
            first.insert_at_granularity(
                {"Time": month, "URL": "cnn.com"}, MEASURES, Provenance.of("y")
            )
            assert_block_fresh(first)
        assert assert_block_fresh(second).text == encoding(first.mo)


#: Values and names that spell a fact boundary, or most of one, inside
#: a JSON string.
BOUNDARY_LOOKALIKES = (
    ',{"coordinates":',
    '"},{"',
    "]},{",
    "coordinates",
    "\\",
)


def test_one_shot_fragments_equal_per_fact_encoding():
    builder = MOBuilder("Tricky")
    for name in ("coordinates", "id"):
        builder.with_dimension(
            name,
            [["v"]],
            [{"v": value} for value in BOUNDARY_LOOKALIKES],
        )
    builder.with_measure("coordinates").with_measure("members")
    for index, value in enumerate(BOUNDARY_LOOKALIKES):
        other = BOUNDARY_LOOKALIKES[-1 - index]
        builder.with_fact(
            f"{value}#{index}",
            {"coordinates": value, "id": other},
            {"coordinates": index, "members": -0.0},
        )
    mo = builder.build()
    block = FactBlock.of(mo)
    entries = mo_facts_to_list(mo)
    assert block.fragments == {
        entry["id"]: canonical_json(entry) for entry in entries
    }
    assert block.text == canonical_json(entries) == encoding(mo)
    assert block.crc == zlib.crc32(block.text.encode("utf-8"))


# ----------------------------------------------------------------------
# The fragment memo against the from-scratch encoding, under random
# write sequences; a shared twin stands for a published version (sealed
# when the mutation sanitizer is armed) and must never change.
# ----------------------------------------------------------------------

CELLS = [
    {"Time": month, "URL": domain}
    for month in ("1999/11", "1999/12", "2000/01")
    for domain in ("amazon.com", "cnn.com", "gatech.edu")
]
TRICKY_VALUES = st.sampled_from([0, 1, 2.5, 0.0, -0.0, 1.0, True, False])
MEASURE_ROWS = st.fixed_dictionaries(
    {name: TRICKY_VALUES for name in MEASURES}
)
MEMBERS = st.frozensets(st.sampled_from("abcd"), min_size=1, max_size=3)
CELL_INDEX = st.integers(0, len(CELLS) - 1)
OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), CELL_INDEX, MEASURE_ROWS, MEMBERS),
    st.tuples(
        st.just("fold"),
        CELL_INDEX,
        st.lists(st.tuples(MEASURE_ROWS, MEMBERS), min_size=1, max_size=3),
    ),
    st.tuples(st.just("remove"), CELL_INDEX),
    st.tuples(st.just("clear")),
    st.tuples(st.just("share_frozen")),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.lists(OPERATIONS, min_size=1, max_size=3), max_size=8)
)
def test_block_equals_the_from_scratch_encoding_after_every_step(steps):
    mo = build_paper_mo()
    definition = next(
        d for d in disjoint_actions(paper_specification(mo)) if d.name == "K1"
    )
    cube = SubCube(definition, mo)
    twins = []
    for step in steps:
        for operation in step:
            kind = operation[0]
            if kind == "insert":
                _, index, row, members = operation
                cube.insert_at_granularity(
                    CELLS[index], row, Provenance(members)
                )
            elif kind == "fold":
                _, index, rows = operation
                cube.fold_at_granularity(
                    CELLS[index],
                    [row for row, _ in rows],
                    [Provenance(members) for _, members in rows],
                )
            elif kind == "remove":
                fact_ids = sorted(cube.facts())
                if fact_ids:
                    cube.remove(fact_ids[operation[1] % len(fact_ids)])
            elif kind == "clear":
                cube.clear()
            else:
                twin = SubCube(definition, mo)
                twin.share_frozen(cube)
                if sanitize.enabled(sanitize.MUTATION):
                    twin.mo._sealed = twin._sealed = True
                twins.append((twin, twin.frozen_block().text))
        assert_block_fresh(cube)
        for twin, text in twins:
            assert assert_block_fresh(twin).text == text
