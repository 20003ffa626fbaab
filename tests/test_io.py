"""Unit tests for MO/spec serialization."""

import io as stdio

import pytest

from repro.errors import SpecSyntaxError, StorageError
from repro.experiments import paper_example
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.io import (
    dump_mo,
    dump_specification,
    load_mo,
    load_specification,
    mo_from_dict,
    mo_to_dict,
)
from repro.reduction.reducer import reduce_mo
from repro.spec.action import Action
from repro.spec.specification import ReductionSpecification


def _paper_actions(mo):
    """Every action the paper example defines."""
    return (
        *(
            getattr(paper_example, f"action_{name}")(mo)
            for name in ("a1", "a2", "a3", "a4", "a7", "a8")
        ),
        *paper_example.growing_example_actions(mo),
        *paper_example.disjoint_actions(mo),
    )


PAPER_MO = build_paper_mo()
PAPER_ACTIONS = _paper_actions(PAPER_MO)


@pytest.fixture
def mo():
    return build_paper_mo()


class TestMoRoundTrip:
    def test_facts_survive(self, mo):
        back = mo_from_dict(mo_to_dict(mo))
        assert back.fact_ids == mo.fact_ids
        for fact_id in mo.facts():
            assert back.direct_cell(fact_id) == mo.direct_cell(fact_id)
            for measure in mo.schema.measure_names:
                assert back.measure_value(fact_id, measure) == mo.measure_value(
                    fact_id, measure
                )

    def test_dimensions_survive(self, mo):
        back = mo_from_dict(mo_to_dict(mo))
        for name, dimension in mo.dimensions.items():
            other = back.dimensions[name]
            assert other.categories == dimension.categories
            for category in dimension.dimension_type.hierarchy.user_categories:
                assert other.values(category) == dimension.values(category)

    def test_time_dimension_stays_time_like(self, mo):
        back = mo_from_dict(mo_to_dict(mo))
        # Normalization and temporal sort keys must survive the trip.
        assert back.dimensions["Time"].normalize_value("1999/12/4") == "1999/12/04"
        assert back.dimensions["Time"].sorted_values("day")[0] == "1999/11/23"

    def test_reduced_mo_round_trips_with_provenance(self, mo):
        reduced = reduce_mo(mo, paper_specification(mo), SNAPSHOT_TIMES[-1])
        back = mo_from_dict(mo_to_dict(reduced))
        for fact_id in reduced.facts():
            assert back.provenance(fact_id).members == reduced.provenance(
                fact_id
            ).members

    def test_reduction_commutes_with_serialization(self, mo):
        spec = paper_specification(mo)
        at = SNAPSHOT_TIMES[-1]
        back = mo_from_dict(mo_to_dict(mo))
        spec_back = paper_specification(back)
        left = reduce_mo(mo, spec, at)
        right = reduce_mo(back, spec_back, at)
        assert sorted(left.direct_cell(f) for f in left.facts()) == sorted(
            right.direct_cell(f) for f in right.facts()
        )

    def test_stream_round_trip(self, mo):
        buffer = stdio.StringIO()
        dump_mo(mo, buffer)
        buffer.seek(0)
        back = load_mo(buffer)
        assert back.total("Dwell_time") == mo.total("Dwell_time")

    def test_unsupported_format_rejected(self, mo):
        document = mo_to_dict(mo)
        document["format"] = 99
        with pytest.raises(StorageError, match="unsupported"):
            mo_from_dict(document)


class TestSpecRoundTrip:
    def test_actions_survive(self, mo):
        spec = paper_specification(mo)
        buffer = stdio.StringIO()
        dump_specification(spec, buffer)
        buffer.seek(0)
        back = load_specification(buffer, mo.schema, mo.dimensions)
        assert back.action_names == spec.action_names
        for name in spec.action_names:
            assert back.action(name).cat() == spec.action(name).cat()

    @pytest.mark.parametrize(
        "action", PAPER_ACTIONS, ids=[a.name for a in PAPER_ACTIONS]
    )
    def test_every_paper_action_round_trips(self, action):
        mo = PAPER_MO
        buffer = stdio.StringIO()
        dump_specification(
            ReductionSpecification((action,), mo.dimensions, validate=False),
            buffer,
        )
        text = buffer.getvalue()
        if not action.enforce_evaluability:
            # a3 and a4 are the paper's deliberately ill-formed examples:
            # the text parses, and the loader refuses them for being
            # ill-formed, as it would their original source.
            with pytest.raises(SpecSyntaxError, match="re-evaluated"):
                load_specification(
                    stdio.StringIO(text), mo.schema, mo.dimensions
                )
            name, _, source = text.strip().partition(": ")
            back = Action.parse(
                mo.schema, source, name, enforce_evaluability=False
            )
        else:
            (back,) = load_specification(
                stdio.StringIO(text), mo.schema, mo.dimensions, validate=False
            ).actions
        assert back.name == action.name
        assert back.cat() == action.cat()
        assert back.predicate == action.predicate
        assert str(back) == str(action)

    def test_absolute_time_literals_are_quoted(self, mo):
        action = paper_example.action_a8(mo)
        assert "Time.month <= '1999/12'" in str(action)

    def test_comments_and_blank_lines_ignored(self, mo):
        text = (
            "# retention policy\n"
            "\n"
            "keep_month: a[Time.month, URL.domain] "
            "o[Time.month <= '1999/12']\n"
        )
        back = load_specification(
            stdio.StringIO(text), mo.schema, mo.dimensions
        )
        assert back.action_names == ("keep_month",)

    def test_reduction_agrees_after_round_trip(self, mo):
        spec = paper_specification(mo)
        buffer = stdio.StringIO()
        dump_specification(spec, buffer)
        buffer.seek(0)
        back = load_specification(buffer, mo.schema, mo.dimensions)
        at = SNAPSHOT_TIMES[-1]
        left = reduce_mo(mo, spec, at)
        right = reduce_mo(mo, back, at)
        assert sorted(left.direct_cell(f) for f in left.facts()) == sorted(
            right.direct_cell(f) for f in right.facts()
        )


class TestAtomicWrite:
    def test_writes_the_content(self, tmp_path):
        from repro.io import atomic_write

        target = tmp_path / "out.json"
        with atomic_write(target) as stream:
            stream.write("payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_leaves_the_previous_content(self, tmp_path):
        from repro.io import atomic_write

        target = tmp_path / "out.json"
        target.write_text("original")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(target) as stream:
                stream.write("half a docu")
                raise RuntimeError("boom")
        assert target.read_text() == "original"
        # The temporary file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_without_a_previous_file_leaves_nothing(self, tmp_path):
        from repro.io import atomic_write

        target = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as stream:
                stream.write("half")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_fsync_mode(self, tmp_path):
        from repro.io import atomic_write

        target = tmp_path / "out.json"
        with atomic_write(target, fsync=False) as stream:
            stream.write("fast")
        assert target.read_text() == "fast"


def _valid_document():
    return mo_to_dict(build_paper_mo())


MALFORMED_CASES = [
    (
        "missing_facts",
        lambda d: d.pop("facts"),
        r"\$: missing required key 'facts'",
    ),
    (
        "missing_dimension_order",
        lambda d: d.pop("dimension_order"),
        r"\$: missing required key 'dimension_order'",
    ),
    (
        "order_names_unknown_dimension",
        lambda d: d["dimension_order"].append("Browser"),
        r"\$\.dimensions: missing required key 'Browser'",
    ),
    (
        "empty_chains",
        lambda d: d["dimensions"]["URL"].update(chains=[]),
        r"\$\.dimensions\.URL\.chains",
    ),
    (
        "value_row_missing_category",
        lambda d: d["dimensions"]["URL"]["values"][0].pop("category"),
        r"\$\.dimensions\.URL\.values\[0\]: missing required key 'category'",
    ),
    (
        "value_row_unknown_category",
        lambda d: d["dimensions"]["URL"]["values"][2].update(
            category="bogus"
        ),
        r"\$\.dimensions\.URL\.values\[2\]\.category: unknown category",
    ),
    (
        "measure_missing_aggregate",
        lambda d: d["measures"][0].pop("aggregate"),
        r"\$\.measures\[0\]: missing required key 'aggregate'",
    ),
    (
        "duplicate_fact_id",
        lambda d: d["facts"].append(dict(d["facts"][0])),
        r"\$\.facts\[7\]\.id: duplicate fact id",
    ),
    (
        "unknown_coordinate_dimension",
        lambda d: d["facts"][0]["coordinates"].update(Browser="x"),
        r"\$\.facts\[0\]\.coordinates: unknown dimensions \['Browser'\]",
    ),
    (
        "fact_missing_measures_key",
        lambda d: d["facts"][0].pop("measures"),
        r"\$\.facts\[0\]: missing required key 'measures'",
    ),
    (
        "fact_with_unknown_value",
        lambda d: d["facts"][0]["coordinates"].update(
            Time="1985/01/01"
        ),
        r"\$\.facts\[0\]: .*unknown value",
    ),
]


class TestMalformedMoDocuments:
    """Every malformed document raises a typed StorageError naming the
    offending path — never a bare KeyError from deep inside the loader."""

    @pytest.mark.parametrize(
        "mutate,pattern",
        [case[1:] for case in MALFORMED_CASES],
        ids=[case[0] for case in MALFORMED_CASES],
    )
    def test_typed_error_with_document_path(self, mutate, pattern):
        document = _valid_document()
        mutate(document)
        with pytest.raises(StorageError, match=pattern):
            mo_from_dict(document)

    def test_the_unmutated_document_still_loads(self):
        assert mo_from_dict(_valid_document()).n_facts == 7


class TestSpecParseErrors:
    def test_parse_failure_reports_the_line_number(self, mo):
        from repro.errors import SpecSyntaxError

        text = (
            "# header comment\n"
            "\n"
            "broken: a[Time.month URL.domain] o[Time.month <= '1999/12']\n"
        )
        with pytest.raises(SpecSyntaxError, match="line 3"):
            load_specification(stdio.StringIO(text), mo.schema, mo.dimensions)

    def test_duplicate_action_name_names_both_lines(self, mo):
        from repro.errors import SpecSyntaxError

        text = (
            "dup: a[Time.month, URL.domain] o[Time.month <= '1999/12']\n"
            "other: a[Time.quarter, URL.domain] "
            "o[Time.quarter <= '1999Q4']\n"
            "dup: a[Time.year, URL.domain_grp] o[Time.year <= '1999']\n"
        )
        with pytest.raises(
            SpecSyntaxError,
            match=r"line 3: duplicate action name 'dup' .*line 1",
        ):
            load_specification(stdio.StringIO(text), mo.schema, mo.dimensions)
