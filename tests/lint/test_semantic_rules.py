"""Unit tests for the analyzer-backed SDR2xx lint rules and the bound
context lint_sources returns."""

from repro.checks.prover import Prover
from repro.lint import Severity, lint_sources


def lint_text(text, mo):
    result, _ = lint_sources(
        [("test.spec", text)], mo.schema, Prover(mo.dimensions)
    )
    return result


def codes(result):
    return [d.code for d in result]


class TestDeadAction:
    def test_union_covered_action_flagged(self, paper_mo):
        # Neither catcher alone contains the victim (SDR106 stays quiet)
        # but together they tile the whole domain_grp category.
        result = lint_text(
            "com: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.com'](O))\n"
            "edu: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.edu'](O))\n"
            "victim: p(a[Time.month, URL.domain_grp] o[TRUE](O))\n",
            paper_mo,
        )
        dead = [d for d in result if d.code == "SDR201"]
        assert len(dead) == 1
        assert dead[0].severity is Severity.WARNING
        assert "com" in dead[0].message and "edu" in dead[0].message
        assert "SDR106" not in codes(result)

    def test_single_container_defers_to_sdr106(self, paper_mo):
        # A single-container shadow is SDR106's finding; SDR201 must not
        # double-report it.
        result = lint_text(
            "wide: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com'](O))\n"
            "narrow: p(a[Time.month, URL.domain] "
            "o[URL.domain = 'cnn.com'](O))\n",
            paper_mo,
        )
        assert "SDR106" in codes(result)
        assert "SDR201" not in codes(result)

    def test_live_actions_stay_silent(self, paper_mo):
        result = lint_text(
            "com: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.com'](O))\n"
            "edu: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.edu'](O))\n",
            paper_mo,
        )
        assert "SDR201" not in codes(result)


class TestShadowedDisjunct:
    def test_claimed_disjunct_flagged(self, paper_mo):
        result = lint_text(
            "big: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com'](O))\n"
            "multi: p(a[Time.month, URL.domain] "
            "o[URL.domain = 'cnn.com' OR URL.domain = 'gatech.edu'](O))\n",
            paper_mo,
        )
        shadowed = [d for d in result if d.code == "SDR202"]
        assert len(shadowed) == 1
        assert "big" in shadowed[0].message

    def test_single_disjunct_not_reported(self, paper_mo):
        # Whole-action containment belongs to SDR106, not SDR202.
        result = lint_text(
            "big: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com'](O))\n"
            "small: p(a[Time.month, URL.domain] "
            "o[URL.domain = 'cnn.com'](O))\n",
            paper_mo,
        )
        assert "SDR202" not in codes(result)


class TestSameGranularityOverlap:
    def test_overlap_reported_with_witness(self, paper_mo):
        result = lint_text(
            "com: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com'](O))\n"
            "mixed: p(a[Time.month, URL.domain] "
            "o[URL.domain = 'cnn.com' OR URL.domain = 'gatech.edu'](O))\n",
            paper_mo,
        )
        overlaps = [d for d in result if d.code == "SDR203"]
        assert len(overlaps) == 1
        assert overlaps[0].severity is Severity.INFO

    def test_disjoint_same_granularity_silent(self, paper_mo):
        result = lint_text(
            "com: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.com'](O))\n"
            "edu: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.edu'](O))\n",
            paper_mo,
        )
        assert "SDR203" not in codes(result)


class TestVacuousAtom:
    def test_full_category_membership(self, paper_mo):
        result = lint_text(
            "x: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp IN {'.com', '.edu'}](O))\n",
            paper_mo,
        )
        assert "SDR204" in codes(result)

    def test_looser_absolute_bound(self, paper_mo):
        result = lint_text(
            "x: p(a[Time.month, URL.domain] "
            "o[Time.month <= '1999/12' AND Time.year <= '2001'](O))\n",
            paper_mo,
        )
        vacuous = [d for d in result if d.code == "SDR204"]
        assert len(vacuous) == 1
        assert "Time.year" in vacuous[0].message

    def test_tight_bounds_silent(self, paper_mo):
        result = lint_text(
            "x: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com' AND Time.month <= '1999/12'](O))\n",
            paper_mo,
        )
        assert "SDR204" not in codes(result)


class TestAlwaysTrueResidual:
    def test_all_unsatisfiable_actions(self, paper_mo):
        result = lint_text(
            "n1: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com' AND URL.domain_grp = '.edu'](O))\n"
            "n2: p(a[Time.quarter, URL.domain] o[FALSE](O))\n",
            paper_mo,
        )
        residual = [d for d in result if d.code == "SDR205"]
        assert len(residual) == 1
        # Each action still gets its own SDR104.
        assert codes(result).count("SDR104") == 2

    def test_single_action_left_to_sdr104(self, paper_mo):
        result = lint_text(
            "n1: p(a[Time.month, URL.domain] o[FALSE](O))\n", paper_mo
        )
        assert "SDR205" not in codes(result)
        assert "SDR104" in codes(result)

    def test_one_live_action_silences(self, paper_mo):
        result = lint_text(
            "n1: p(a[Time.month, URL.domain] o[FALSE](O))\n"
            "ok: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com'](O))\n",
            paper_mo,
        )
        assert "SDR205" not in codes(result)


class TestBindSources:
    def test_bound_entries_and_diagnostics(self, paper_mo):
        result, ctx = lint_sources(
            [
                (
                    "mix.spec",
                    "good: p(a[Time.month, URL.domain] "
                    "o[URL.domain_grp = '.com'](O))\n"
                    "bad: p(a[Time.month URL.domain] o[TRUE](O))\n",
                )
            ],
            paper_mo.schema,
            Prover(paper_mo.dimensions),
        )
        # The parse error becomes a front-end diagnostic; the good entry
        # still binds so downstream analyses can run.
        assert [d.code for d in result] == ["SDR001"]
        assert ctx.analysis().actions == ("good",)
        assert [entry.action.name for entry in ctx.bound] == ["good"]
        assert ctx.entry_for("good") is not None
