"""repro — Specification-Based Data Reduction in Dimensional Data Warehouses.

A complete, from-scratch implementation of Skyt, Jensen & Pedersen
(ICDE 2002 / TimeCenter TR-61): the multidimensional data model, the data
reduction specification language with its NonCrossing/Growing soundness
checks, the reduction semantics, the varying-granularity query algebra,
and the subcube-based implementation strategy on both an in-memory engine
and a SQLite star schema.

Quickstart::

    import datetime as dt
    from repro import MOBuilder, Action, ReductionSpecification, reduce_mo

    mo = (
        MOBuilder("Click")
        ...  # dimensions, measures, facts
        .build()
    )
    a1 = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain] o[Time.month <= NOW - 6 months]",
    )
    spec = ReductionSpecification([a1], mo.dimensions)
    reduced = reduce_mo(mo, spec, dt.date(2000, 11, 5))

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the full
system inventory.
"""

from .core import (
    ALL_VALUE,
    Dimension,
    DimensionType,
    FactSchema,
    Hierarchy,
    MOBuilder,
    Measure,
    MeasureType,
    MultidimensionalObject,
    Provenance,
    TOP,
    dimension_from_rows,
    dimension_type_from_chains,
)
from .checks import (
    Prover,
    check_growing,
    check_noncrossing,
    classify_action,
    is_growing,
    is_noncrossing,
)
from .engine import SubcubeQuery, SubcubeStore, SyncScheduler, query_store
from .errors import (
    GrowingViolation,
    NonCrossingViolation,
    ReproError,
    SpecSemanticsError,
    SpecSyntaxError,
    SpecificationUpdateRejected,
)
from .query import (
    AggregationApproach,
    Approach,
    Query,
    aggregate,
    mo_rows,
    project,
    select,
    select_weighted,
)
from .io import (
    dump_mo,
    dump_specification,
    load_mo,
    load_specification,
    mo_from_dict,
    mo_to_dict,
)
from .query.disaggregation import aggregate_disaggregated
from .reduction import (
    DeletionAction,
    Warehouse,
    drop_dimension,
    drop_measure,
    reduce_mo,
    reduce_with_deletion,
    responsible_action,
    run_timeline,
)
from .core.validate import validate_mo
from .spec import Action, ReductionSpecification, parse_action, parse_predicate
from .spec.explain import describe_specification, explain_fact, explain_mo
from .sql import SqlWarehouse, aggregate_rows, reduce_warehouse, select_fact_ids
from .timedim import (
    TimeSpan,
    build_sparse_time_dimension,
    build_time_dimension,
    time_dimension_type,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_VALUE",
    "Action",
    "AggregationApproach",
    "Approach",
    "Dimension",
    "DimensionType",
    "FactSchema",
    "GrowingViolation",
    "Hierarchy",
    "MOBuilder",
    "Measure",
    "MeasureType",
    "MultidimensionalObject",
    "NonCrossingViolation",
    "Provenance",
    "Prover",
    "Query",
    "ReductionSpecification",
    "ReproError",
    "SpecSemanticsError",
    "SpecSyntaxError",
    "SpecificationUpdateRejected",
    "SqlWarehouse",
    "SubcubeQuery",
    "SubcubeStore",
    "SyncScheduler",
    "TOP",
    "TimeSpan",
    "Warehouse",
    "aggregate",
    "aggregate_rows",
    "DeletionAction",
    "aggregate_disaggregated",
    "build_sparse_time_dimension",
    "build_time_dimension",
    "drop_dimension",
    "drop_measure",
    "dump_mo",
    "dump_specification",
    "load_mo",
    "load_specification",
    "mo_from_dict",
    "mo_to_dict",
    "reduce_with_deletion",
    "check_growing",
    "check_noncrossing",
    "classify_action",
    "dimension_from_rows",
    "dimension_type_from_chains",
    "is_growing",
    "is_noncrossing",
    "mo_rows",
    "parse_action",
    "parse_predicate",
    "project",
    "query_store",
    "reduce_mo",
    "reduce_warehouse",
    "responsible_action",
    "run_timeline",
    "describe_specification",
    "explain_fact",
    "explain_mo",
    "select",
    "select_fact_ids",
    "select_weighted",
    "time_dimension_type",
    "validate_mo",
]
