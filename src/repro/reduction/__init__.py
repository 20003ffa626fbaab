"""The reduction engine: auxiliary functions, Definition 2, timelines."""

from .auxiliary import agg_level, agg_levels, cell, spec_gran
from .columnar import reduce_mo_columnar
from .extensions import (
    DeletionAction,
    drop_dimension,
    drop_measure,
    reduce_with_deletion,
)
from .lifecycle import Warehouse, run_timeline
from .reducer import (
    BACKENDS,
    reduce_mo,
    reduction_groups,
    responsible_action,
)

__all__ = [
    "BACKENDS",
    "reduce_mo_columnar",
    "DeletionAction",
    "Warehouse",
    "drop_dimension",
    "drop_measure",
    "reduce_with_deletion",
    "agg_level",
    "agg_levels",
    "cell",
    "reduce_mo",
    "reduction_groups",
    "responsible_action",
    "run_timeline",
    "spec_gran",
]
