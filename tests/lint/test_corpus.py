"""Acceptance test over the shipped broken-spec corpus.

``examples/specs/broken.spec`` is the demonstration corpus: every line
triggers a documented rule.  This test pins the corpus contract from the
issue: at least 8 distinct rule codes, line/column spans on the findings,
valid SARIF output, and agreement with the soundness checkers.
"""

import json
import pathlib

import jsonschema
import pytest

from repro.checks.prover import Prover
from repro.lint import lint_sources, sarif_log
from tests.lint.test_reporters import SARIF_SUBSET_SCHEMA

REPO = pathlib.Path(__file__).resolve().parents[2]
BROKEN = REPO / "examples" / "specs" / "broken.spec"
PAPER = REPO / "examples" / "specs" / "paper.spec"
MO = REPO / "examples" / "click_mo.json"


@pytest.fixture(scope="module")
def example_mo():
    from repro.io import load_mo

    with open(MO) as stream:
        return load_mo(stream)


def lint_file(path, mo):
    return lint_sources(
        [(str(path), path.read_text())], mo.schema, Prover(mo.dimensions)
    )


@pytest.fixture(scope="module")
def broken_check(example_mo):
    return lint_file(BROKEN, example_mo)


@pytest.fixture(scope="module")
def broken_result(broken_check):
    return broken_check[0]


class TestBrokenCorpus:
    def test_at_least_eight_distinct_codes(self, broken_result):
        assert len(broken_result.codes()) >= 8

    def test_every_front_end_and_semantic_family_fires(self, broken_result):
        expected = {
            "SDR001",
            "SDR002",
            "SDR003",
            "SDR004",
            "SDR005",
            "SDR006",
            "SDR101",
            "SDR102",
            "SDR103",
            "SDR104",
            "SDR105",
            "SDR106",
            "SDR107",
            "SDR108",
            "SDR109",
            "SDR110",
        }
        assert expected <= broken_result.codes()

    def test_headline_rules_land_on_their_lines(self, broken_result):
        # The corpus names the headline rule in a comment above each
        # block of actions; the code must fire on one of the block's
        # lines (e.g. SDR006 is reported on the *second* duplicate).
        lines = BROKEN.read_text().splitlines()
        checked = 0
        for number, line in enumerate(lines, start=1):
            if not line.startswith("# SDR"):
                continue
            headline = "SDR" + line.split("SDR", 1)[1][:3]
            block: list[int] = []
            for follow in range(number + 1, len(lines) + 1):
                text = lines[follow - 1]
                if not text.strip():
                    break
                if not text.startswith("#"):
                    block.append(follow)
            matching = [
                d
                for d in broken_result
                if d.code == headline
                and d.region
                and d.region.start_line in block
            ]
            assert matching, f"{headline} missing on lines {block}"
            checked += 1
        assert checked >= 8  # the corpus documents its headline rules

    def test_all_findings_have_spans(self, broken_result):
        for diagnostic in broken_result:
            assert diagnostic.file == str(BROKEN)
            assert diagnostic.region is not None
            assert diagnostic.region.start_line >= 1
            assert diagnostic.region.start_column >= 1
            assert (
                diagnostic.region.end_column
                > diagnostic.region.start_column
            )

    def test_sarif_output_is_valid(self, broken_result):
        log = sarif_log(broken_result)
        jsonschema.validate(log, SARIF_SUBSET_SCHEMA)
        json.dumps(log)  # fully serializable

    def test_agrees_with_soundness_checkers(self, example_mo, broken_check):
        from repro.checks.growing import check_growing
        from repro.checks.noncrossing import check_noncrossing

        broken_result, ctx = broken_check
        # The bound context is the action set the lint run analyzed.
        actions = ctx.actions
        prover = Prover(example_mo.dimensions)
        crossings = check_noncrossing(actions, prover)
        growings = check_growing(actions, prover)
        assert len([d for d in broken_result if d.code == "SDR102"]) == len(
            crossings
        )
        assert len([d for d in broken_result if d.code == "SDR103"]) == len(
            growings
        )
        assert crossings and growings  # the corpus exercises both


class TestPaperCorpus:
    def test_paper_spec_is_clean(self, example_mo):
        result, _ = lint_file(PAPER, example_mo)
        assert len(result) == 0
