"""The query algebra over (reduced) MOs — Section 6."""

from .aggregation import (
    AggregationApproach,
    aggregate,
    aggregate_facts,
    group_high,
)
from .algebra import Query, mo_rows
from .disaggregation import (
    AllocationWeights,
    DisaggregatedRow,
    aggregate_disaggregated,
)
from .compare import (
    Approach,
    ComparisonResult,
    atom_compare,
    atom_result,
    common_category,
    compare,
    drill_down,
    weighted_compare,
)
from .projection import project
from .selection import bind_query_predicate, select, select_weighted

__all__ = [
    "AggregationApproach",
    "AllocationWeights",
    "Approach",
    "DisaggregatedRow",
    "aggregate_disaggregated",
    "ComparisonResult",
    "Query",
    "aggregate",
    "aggregate_facts",
    "atom_compare",
    "atom_result",
    "bind_query_predicate",
    "common_category",
    "compare",
    "drill_down",
    "group_high",
    "mo_rows",
    "project",
    "select",
    "select_weighted",
    "weighted_compare",
]
