"""Unit tests for the bundled SpecAnalysis report, built by the lint
engine's bound context."""

import datetime as dt
import json

from repro.analysis import ANALYSIS_SCHEMA
from repro.checks.prover import Prover, ProverConfig
from repro.lint import lint_sources

PROVER = ProverConfig(reference=dt.date(2001, 1, 1), horizon_years=2)


def analyze(mo, lines, config=None):
    text = "".join(f"{line}\n" for line in lines)
    _, ctx = lint_sources(
        [(None, text)], mo.schema, Prover(mo.dimensions, config)
    )
    return ctx.analysis()


def spec_lines(specification):
    return [f"{a.name}: {a.source}" for a in specification]


def act(name, granularity, predicate):
    return f"{name}: p(a[{granularity}] o[{predicate}](O))"


class TestAnalyzeSpecification:
    def test_paper_spec_bundle(self, paper_mo, paper_spec):
        analysis = analyze(paper_mo, spec_lines(paper_spec))
        assert analysis.actions == ("a1", "a2")
        assert len(analysis.matrix.pairs()) == 1
        assert set(analysis.reach.live) == {"a1", "a2"}
        assert len(analysis.costs) == 2

    def test_to_dict_is_json_serializable(self, paper_mo, paper_spec):
        payload = analyze(paper_mo, spec_lines(paper_spec)).to_dict()
        assert payload["schema"] == ANALYSIS_SCHEMA
        assert payload["actions"] == ["a1", "a2"]
        assert set(payload) == {
            "schema",
            "reference",
            "horizon_years",
            "actions",
            "matrix",
            "reachability",
            "costs",
        }
        json.dumps(payload)  # must not raise

    def test_render_text_sections(self, paper_mo, paper_spec):
        text = analyze(paper_mo, spec_lines(paper_spec)).render_text()
        assert "Action-relationship matrix:" in text
        assert "Reachability:" in text
        assert "Cost estimates" in text
        assert "Independence certificate:" not in text


class TestAnalyzeActions:
    def test_empty_action_list(self, paper_mo):
        analysis = analyze(paper_mo, [], PROVER)
        assert analysis.actions == ()
        assert "(fewer than two actions)" in analysis.render_text()

    def test_reach_findings_rendered(self, paper_mo):
        lines = [
            act(
                "never",
                "Time.month, URL.domain",
                "URL.domain_grp = '.com' AND URL.domain_grp = '.edu'",
            ),
            act("com", "Time.month, URL.domain_grp", "URL.domain_grp = '.com'"),
            act("edu", "Time.month, URL.domain_grp", "URL.domain_grp = '.edu'"),
            act("victim", "Time.month, URL.domain_grp", "TRUE"),
        ]
        analysis = analyze(paper_mo, lines, PROVER)
        assert analysis.reach.unsatisfiable == ("never",)
        assert analysis.reach.dead == {"victim": ("com", "edu")}
        text = analysis.render_text()
        assert "unsatisfiable: never" in text
        assert "dead: victim (union-covered by com, edu)" in text

    def test_config_threads_through(self, paper_mo):
        analysis = analyze(
            paper_mo, [act("all", "Time.month, URL.domain", "TRUE")], PROVER
        )
        assert analysis.reference == PROVER.reference
        assert analysis.horizon_years == PROVER.horizon_years
