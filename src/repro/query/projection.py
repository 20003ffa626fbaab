"""The projection operator (Section 6.2, Equation 37).

``pi[D1..Dk][M1..Ml](O)`` retains the named dimensions and measures; the
fact set is unchanged and duplicates are *not* merged — exactly like a
star-schema projection, as the paper notes.
"""

from __future__ import annotations

from typing import Sequence

from ..core.mo import MultidimensionalObject
from ..core.schema import FactSchema
from ..errors import QueryError


def project(
    mo: MultidimensionalObject,
    dimensions: Sequence[str],
    measures: Sequence[str] | None = None,
) -> MultidimensionalObject:
    """``pi[dimensions][measures](O)``.

    *measures* defaults to all measures.  At least one dimension must be
    retained (an MO without dimensions is not meaningful in the model).
    """
    if not dimensions:
        raise QueryError("projection must retain at least one dimension")
    unknown = set(dimensions) - set(mo.schema.dimension_names)
    if unknown:
        raise QueryError(f"projection of unknown dimensions {sorted(unknown)!r}")
    if measures is None:
        measures = list(mo.schema.measure_names)
    unknown_measures = set(measures) - set(mo.schema.measure_names)
    if unknown_measures:
        raise QueryError(
            f"projection of unknown measures {sorted(unknown_measures)!r}"
        )

    keep_dims = [d for d in mo.schema.dimension_names if d in set(dimensions)]
    keep_measures = [m for m in mo.schema.measure_names if m in set(measures)]
    schema = FactSchema(
        mo.schema.fact_type,
        [mo.schema.dimension_type(name) for name in keep_dims],
        [mo.schema.measure_type(name) for name in keep_measures],
    )
    projected = MultidimensionalObject(
        schema, {name: mo.dimensions[name] for name in keep_dims}
    )
    for fact_id in mo.facts():
        coordinates = {
            name: mo.direct_value(fact_id, name) for name in keep_dims
        }
        values = {
            name: mo.measure_value(fact_id, name) for name in keep_measures
        }
        projected.insert_aggregate_fact(
            fact_id, coordinates, values, mo.provenance(fact_id)
        )
    return projected
