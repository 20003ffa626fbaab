"""Semantic analysis of reduction specifications (abstract interpretation).

The package interprets specification predicates over a *box domain*: each
DNF disjunct abstracts to per-dimension grounded value regions
(:func:`repro.checks.prover.categorical_regions`) plus a day-axis time
window (:func:`repro.spec.ranges.window_at`), evaluated against the
dimension instances and the bounded prover's sampled horizon.  On top of
the domain sit three analyses:

* :func:`repro.analysis.matrix.relationship_matrix` — a sound
  action-relationship matrix (DISJOINT / SUBSUMED / SUBSUMES /
  OVERLAPPING / EQUIVALENT / UNKNOWN);
* :func:`repro.analysis.reach.reachability` — unsatisfiable and
  union-shadowed ("dead") actions;
* :func:`repro.analysis.cost.estimate_costs` — static selectivity and
  output-size estimates from hierarchy cell cardinalities.

:func:`repro.analysis.report.analyze_specification` bundles them into one
:class:`~repro.analysis.report.SpecAnalysis` consumed by the ``SDR2xx``
lint rules, the ``repro analyze`` CLI command, and the disjoint-predicate
pruning in :mod:`repro.engine.disjoint`.
"""

from .boxes import (
    ConjunctBox,
    box_is_exact,
    boxes_of,
    profile_contained,
    region_contained,
    window_modelled_exactly,
)
from .cost import ActionCost, estimate_costs
from .matrix import (
    PairRelation,
    RelationshipMatrix,
    Verdict,
    relationship_matrix,
)
from .pruning import negation_prunable
from .reach import ReachabilityResult, reachability
from .report import (
    ANALYSIS_SCHEMA,
    SpecAnalysis,
    analyze_actions,
    analyze_specification,
)

__all__ = [
    "ANALYSIS_SCHEMA",
    "ActionCost",
    "ConjunctBox",
    "PairRelation",
    "ReachabilityResult",
    "RelationshipMatrix",
    "SpecAnalysis",
    "Verdict",
    "analyze_actions",
    "analyze_specification",
    "box_is_exact",
    "boxes_of",
    "estimate_costs",
    "negation_prunable",
    "profile_contained",
    "region_contained",
    "relationship_matrix",
    "window_modelled_exactly",
    "reachability",
]
