"""Semantic analysis of reduction specifications (abstract interpretation).

The package interprets specification predicates over a *box domain*: each
DNF disjunct abstracts to per-dimension grounded value regions
(:meth:`repro.checks.prover.Prover.regions`) plus a day-axis time window
(:meth:`repro.checks.prover.Prover.window`), evaluated against the
dimension instances and the bounded prover's sampled horizon.  On top of
the domain sit three analyses, each reading one
:class:`~repro.checks.prover.Prover` per analysed specification:

* :func:`repro.analysis.matrix.relationship_matrix` — a sound
  action-relationship matrix (DISJOINT / SUBSUMED / SUBSUMES /
  OVERLAPPING / EQUIVALENT / UNKNOWN);
* :func:`repro.analysis.reach.reachability` — unsatisfiable and
  union-shadowed ("dead") actions;
* :func:`repro.analysis.cost.estimate_costs` — static selectivity and
  output-size estimates from hierarchy cell cardinalities.

The ``SDR2xx`` lint rules read the matrix and the reachability through
:class:`repro.lint.engine.LintContext`, which computes each once per run
and bundles them with the cost estimates into the
:class:`~repro.analysis.report.SpecAnalysis` report that ``repro check``
renders.
"""

from .cost import ActionCost, estimate_costs
from .matrix import (
    PairRelation,
    RelationshipMatrix,
    Verdict,
    relationship_matrix,
)
from .reach import ReachabilityResult, reachability
from .report import ANALYSIS_SCHEMA, SpecAnalysis

__all__ = [
    "ANALYSIS_SCHEMA",
    "ActionCost",
    "PairRelation",
    "ReachabilityResult",
    "RelationshipMatrix",
    "SpecAnalysis",
    "Verdict",
    "estimate_costs",
    "relationship_matrix",
    "reachability",
]
