"""Unit tests for the action-relationship matrix."""

import datetime as dt

from repro.analysis import Verdict, relationship_matrix
from repro.checks.prover import Prover, ProverConfig
from repro.spec.action import Action

PROVER = ProverConfig(reference=dt.date(2001, 1, 1), horizon_years=2)

COM_URLS = {
    "http://www.cnn.com/",
    "http://www.cnn.com/health",
    "http://www.amazon.com/exec/obidos/tg/browse/",
}


def act(mo, name, granularity, predicate):
    text = f"p(a[{granularity}] o[{predicate}](O))"
    return Action.parse(mo.schema, text, name)


def matrix_for(mo, *specs):
    actions = [
        act(mo, name, granularity, predicate)
        for name, granularity, predicate in specs
    ]
    return relationship_matrix(actions, Prover(mo.dimensions, PROVER))


class TestVerdicts:
    def test_disjoint_groups(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            ("com", "Time.month, URL.domain_grp", "URL.domain_grp = '.com'"),
            ("edu", "Time.month, URL.domain_grp", "URL.domain_grp = '.edu'"),
        )
        relation = matrix.get("com", "edu")
        assert relation.verdict is Verdict.DISJOINT

    def test_subsumed_and_flip(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            ("narrow", "Time.month, URL.domain", "URL.domain = 'cnn.com'"),
            ("wide", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
        )
        assert matrix.get("narrow", "wide").verdict is Verdict.SUBSUMED
        # The symmetric lookup flips the verdict.
        assert matrix.get("wide", "narrow").verdict is Verdict.SUBSUMES

    def test_equivalent(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            ("one", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
            ("two", "Time.quarter, URL.domain", "URL.domain_grp = '.com'"),
        )
        assert matrix.get("one", "two").verdict is Verdict.EQUIVALENT

    def test_overlapping_with_verified_witness(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            ("com", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
            (
                "mixed",
                "Time.month, URL.domain",
                "URL.domain = 'cnn.com' OR URL.domain = 'gatech.edu'",
            ),
        )
        relation = matrix.get("com", "mixed")
        assert relation.verdict is Verdict.OVERLAPPING
        witness = relation.witness
        assert witness is not None
        cell = dict(witness.cell)
        # The witness cell is grounded to a bottom value both admit.
        assert cell["URL"].endswith("cnn.com/") or "cnn.com" in cell["URL"]

    def test_unknown_carries_candidate_witness(self, paper_mo, a1, a2):
        matrix = relationship_matrix([a1, a2], Prover(paper_mo.dimensions, PROVER))
        relation = matrix.get("a1", "a2")
        assert relation.verdict is Verdict.UNKNOWN
        assert "candidate" in relation.reason

    def test_unknown_witness_comes_from_an_overlapping_pair(self, paper_mo):
        # The '!=' time atoms make both boxes inexact, so the verdict is
        # UNKNOWN; the '.edu' disjunct of 'a' is disjoint from 'b' and
        # may not lend the candidate its (empty) cell.
        bound = "Time.month != '1999/05' AND Time.month <= NOW - 3 months"
        matrix = matrix_for(
            paper_mo,
            (
                "a",
                "Time.month, URL.domain_grp",
                f"(URL.domain_grp = '.edu' AND {bound}) OR "
                f"(URL.domain_grp = '.com' AND {bound})",
            ),
            (
                "b",
                "Time.month, URL.domain_grp",
                "URL.domain_grp = '.com' AND Time.month != '1999/07' AND "
                "Time.month <= NOW - 5 months",
            ),
        )
        relation = matrix.get("a", "b")
        assert relation.verdict is Verdict.UNKNOWN
        assert dict(relation.witness.cell)["URL"] in COM_URLS

    def test_unsatisfiable_action_is_disjoint_from_all(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            (
                "never",
                "Time.month, URL.domain",
                "URL.domain_grp = '.com' AND URL.domain_grp = '.edu'",
            ),
            ("all", "Time.month, URL.domain", "TRUE"),
        )
        assert matrix.get("never", "all").verdict is Verdict.DISJOINT


class TestMatrixShape:
    def test_pairs_sorted_and_complete(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            ("a", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
            ("b", "Time.month, URL.domain", "URL.domain_grp = '.edu'"),
            ("c", "Time.month, URL.domain", "TRUE"),
        )
        pairs = matrix.pairs()
        assert len(pairs) == 3
        assert [(p.first, p.second) for p in pairs] == [
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
        ]
        assert matrix.get("z", "a") is None

    def test_to_dict_shape(self, paper_mo):
        matrix = matrix_for(
            paper_mo,
            ("a", "Time.month, URL.domain", "URL.domain_grp = '.com'"),
            ("b", "Time.month, URL.domain", "URL.domain_grp = '.edu'"),
        )
        payload = matrix.to_dict()
        assert payload["actions"] == ["a", "b"]
        (pair,) = payload["pairs"]
        assert pair["verdict"] == "disjoint"
        assert pair["witness"] is None
