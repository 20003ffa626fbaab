"""Unit tests for the lint engine: front-end rules, semantic rules,
source spans, and agreement with the soundness checkers."""

import pytest

from repro.checks.growing import check_growing
from repro.checks.noncrossing import check_noncrossing
from repro.checks.prover import Prover
from repro.experiments.paper_example import (
    action_a1,
    action_a2,
    action_a4,
    action_a7,
    action_a8,
    growing_example_actions,
)
from repro.lint import Severity, lint_sources
from repro.spec.specification import ReductionSpecification


def lint_text(text, mo):
    result, _ = lint_sources(
        [("test.spec", text)], mo.schema, Prover(mo.dimensions)
    )
    return result


def lint_bound(actions, mo):
    """Lint already-bound actions through their source text."""
    text = "".join(f"{a.name}: {a.source}\n" for a in actions)
    return lint_text(text, mo)


def codes(result):
    return [d.code for d in result]


class TestFrontEnd:
    def test_syntax_error_has_position(self, paper_mo):
        result = lint_text(
            "x: p(a[Time.month URL.domain] o[URL.domain = 'a'](O))", paper_mo
        )
        assert codes(result) == ["SDR001"]
        diagnostic = result.diagnostics[0]
        assert diagnostic.file == "test.spec"
        # The offending token is inside the Clist on line 1.
        assert diagnostic.region.start_line == 1
        assert diagnostic.region.start_column > 4

    def test_unknown_dimension(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[Browser.name = 'x'](O))", paper_mo
        )
        assert codes(result) == ["SDR002"]
        region = result.diagnostics[0].region
        # The span covers exactly "Browser.name".
        assert region.start_column == 31
        assert region.end_column == 31 + len("Browser.name")

    def test_unknown_category(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[URL.tld = '.com'](O))", paper_mo
        )
        assert codes(result) == ["SDR003"]

    def test_clist_missing_dimension(self, paper_mo):
        result = lint_text(
            "p(a[Time.month] o[Time.month <= '1999/12'](O))", paper_mo
        )
        assert codes(result) == ["SDR004"]
        assert "'URL'" in result.diagnostics[0].message

    def test_clist_duplicate_dimension(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, Time.year, URL.domain] o[TRUE](O))", paper_mo
        )
        assert "SDR004" in codes(result)

    def test_bad_time_literal(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[Time.month <= 'not-a-month'](O))",
            paper_mo,
        )
        assert codes(result) == ["SDR005"]

    def test_duplicate_names_second_flagged(self, paper_mo):
        text = (
            "x: p(a[Time.month, URL.domain] o[TRUE](O))\n"
            "x: p(a[Time.quarter, URL.domain] o[TRUE](O))\n"
        )
        result = lint_text(text, paper_mo)
        flagged = [d for d in result if d.code == "SDR006"]
        assert len(flagged) == 1
        assert flagged[0].region.start_line == 2
        assert flagged[0].region.start_column == 1

    def test_comments_and_blanks_do_not_shift_lines(self, paper_mo):
        text = (
            "# a comment\n"
            "\n"
            "p(a[Time.month, URL.domain] o[Browser.name = 'x'](O))\n"
        )
        result = lint_text(text, paper_mo)
        assert result.diagnostics[0].region.start_line == 3

    def test_named_line_offsets_columns(self, paper_mo):
        result = lint_text(
            "myname: p(a[Time.month, URL.domain] o[Browser.name = 'x'](O))",
            paper_mo,
        )
        region = result.diagnostics[0].region
        assert region.start_column == len("myname: ") + 31


class TestSemanticRules:
    def test_unevaluable_target(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain_grp] o[URL.url = "
            "'http://www.cnn.com/health'](O))",
            paper_mo,
        )
        assert codes(result) == ["SDR101"]

    def test_unsatisfiable_predicate(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[Time.month <= '1999/01' AND "
            "Time.month >= '2000/06'](O))",
            paper_mo,
        )
        assert codes(result) == ["SDR104"]

    def test_false_predicate(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[FALSE](O))", paper_mo
        )
        assert codes(result) == ["SDR104"]
        assert "FALSE" in result.diagnostics[0].message

    def test_unsatisfiable_disjunct_is_warning(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[URL.domain_grp = '.com' OR "
            "(Time.month <= '1999/01' AND Time.month >= '2000/06')](O))",
            paper_mo,
        )
        assert codes(result) == ["SDR105"]
        assert result.diagnostics[0].severity is Severity.WARNING

    def test_shadowed_action(self, paper_mo):
        text = (
            "big: p(a[Time.quarter, URL.domain] o[URL.domain_grp = '.com' "
            "AND Time.quarter <= NOW - 8 quarters](O))\n"
            "small: p(a[Time.quarter, URL.domain] o[URL.domain = 'cnn.com' "
            "AND Time.quarter <= NOW - 12 quarters](O))\n"
        )
        result = lint_text(text, paper_mo)
        shadowed = [d for d in result if d.code == "SDR106"]
        assert len(shadowed) == 1
        assert shadowed[0].action == "small"

    def test_containment_requires_proof(self, paper_mo):
        # The covering action's window does NOT contain the inner one at
        # all times, so no shadow diagnostic may be emitted.
        text = (
            "big: p(a[Time.quarter, URL.domain] o[URL.domain_grp = '.com' "
            "AND Time.quarter <= NOW - 8 quarters](O))\n"
            "small: p(a[Time.quarter, URL.domain] o[URL.domain = 'cnn.com' "
            "AND Time.quarter <= NOW - 4 quarters](O))\n"
        )
        result = lint_text(text, paper_mo)
        assert "SDR106" not in codes(result)

    def test_future_now_reference(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[Time.month <= NOW + 6 months]"
            "(O))",
            paper_mo,
        )
        assert "SDR107" in codes(result)

    def test_redundant_now_bound(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[Time.month <= NOW - 6 months "
            "AND Time.month <= NOW - 12 months](O))",
            paper_mo,
        )
        flagged = [d for d in result if d.code == "SDR108"]
        assert len(flagged) == 1
        assert "NOW - 6 months" in flagged[0].message

    def test_zero_offset_now_bound(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[Time.month <= NOW - 0 months]"
            "(O))",
            paper_mo,
        )
        assert "SDR108" in codes(result)

    def test_redundant_disjunct(self, paper_mo):
        result = lint_text(
            "p(a[Time.month, URL.domain] o[URL.domain_grp = '.com' OR "
            "(URL.domain_grp = '.com' AND Time.month <= '1999/12')](O))",
            paper_mo,
        )
        assert "SDR109" in codes(result)

    def test_bottom_noop(self, paper_mo):
        result = lint_text(
            "p(a[Time.day, URL.url] o[Time.day <= '1999/01/20'](O))",
            paper_mo,
        )
        assert "SDR110" in codes(result)

    def test_clean_specification(self, paper_mo, paper_spec):
        assert len(lint_bound(paper_spec, paper_mo)) == 0


class TestVerdictAgreement:
    """SDR102/SDR103 must agree exactly with the soundness checkers."""

    def subsets(self, mo):
        g1, g2, g3 = growing_example_actions(mo)
        return [
            [action_a1(mo), action_a2(mo)],
            [action_a2(mo), action_a4(mo)],
            [action_a1(mo)],
            [action_a7(mo)],
            [action_a7(mo), action_a8(mo)],
            [g1, g2, g3],
            [g1, g2],
            [action_a1(mo), action_a4(mo), action_a7(mo)],
        ]

    @pytest.mark.parametrize("index", range(8))
    def test_agreement(self, paper_mo, index):
        actions = self.subsets(paper_mo)[index]
        result = lint_bound(actions, paper_mo)
        prover = Prover(paper_mo.dimensions)
        crossings = check_noncrossing(actions, prover)
        growings = check_growing(actions, prover)
        sdr102 = [d for d in result if d.code == "SDR102"]
        sdr103 = [d for d in result if d.code == "SDR103"]
        assert len(sdr102) == len(crossings)
        assert len(sdr103) == len(growings)
        for violation, diagnostic in zip(crossings, sdr102):
            assert repr(violation.first) in diagnostic.message
            assert repr(violation.second) in diagnostic.message
        for violation, diagnostic in zip(growings, sdr103):
            assert repr(violation.action) in diagnostic.message

    def test_specification_path_agreement(self, paper_mo):
        # validate=False lets an unsound set exist; its violations()
        # list and the lint SDR102/SDR103 errors must match 1:1.
        actions = (action_a2(paper_mo), action_a4(paper_mo))
        spec = ReductionSpecification(
            actions, paper_mo.dimensions, validate=False
        )
        violations = spec.violations()
        result = lint_bound(spec, paper_mo)
        gate = [d for d in result if d.code in ("SDR102", "SDR103")]
        assert len(gate) == len(violations) > 0
