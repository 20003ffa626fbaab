"""Regenerators for every figure of the paper.

Each ``figure_N`` function recomputes the content of the corresponding
paper figure from the actual engine (no hard-coded answers) and returns a
structured dict; ``render`` pretty-prints any of them.  The regression
tests pin the values the paper's figures display.

Figures 7–9 use the extended Section 7 scenario (facts 7–10, the gatech
week rule).  Two documented deviations from the paper's artwork, both
explained in EXPERIMENTS.md: our disjoint transform keeps one cube per
granularity group (the paper splits K1/K4 by predicate), and cube ``K2``
aggregates URL to ``domain`` as Equation 42 specifies (the figure's
``domain_grp`` label contradicts the equation).
"""

from __future__ import annotations

import datetime as _dt
from typing import Mapping

from ..core.builder import MOBuilder
from ..core.mo import MultidimensionalObject
from ..engine.queryproc import SubcubeQuery, effective_content, query_cube, query_store
from ..engine.store import SubcubeStore
from ..engine.sync import flow_report
from ..query.aggregation import aggregate
from ..query.algebra import mo_rows
from ..query.projection import project
from ..reduction.reducer import reduce_mo
from ..spec.action import Action
from ..spec.specification import ReductionSpecification
from ..timedim.builder import build_time_dimension
from .paper_example import (
    PAPER_URLS,
    SNAPSHOT_TIMES,
    action_a1,
    action_a2,
    build_paper_mo,
    disjoint_actions as paper_disjoint_actions,
    paper_specification,
)


def figure_1() -> dict[str, object]:
    """Figure 1: the example MO — dimension trees and the fact signature."""
    mo = build_paper_mo()
    dimensions: dict[str, object] = {}
    for name, dimension in mo.dimensions.items():
        tree = {
            category: sorted(dimension.values(category))
            for category in dimension.dimension_type.hierarchy.user_categories
        }
        dimensions[name] = {
            "hierarchy": [
                "<".join(path)
                for path in dimension.dimension_type.hierarchy.paths_to_top(
                    dimension.bottom_category
                )
            ],
            "values": tree,
        }
    facts = [
        {
            "fact": fact_id,
            "cell": mo.direct_cell(fact_id),
            "measures": {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
        }
        for fact_id in sorted(mo.facts())
    ]
    return {
        "figure": 1,
        "fact_signature": list(mo.schema.measure_names),
        "dimensions": dimensions,
        "facts": facts,
    }


def figure_2() -> dict[str, object]:
    """Figure 2: a Growing-violating situation vs the valid one.

    With only ``a1``, the checker reports the violation (fact_0 would be
    reclaimed when its month leaves the sliding window); adding ``a2``
    makes the specification Growing and the 2000/11 reduction keeps
    everything at least as aggregated as 2000/10 did.
    """
    from ..checks.growing import check_growing
    from ..checks.prover import Prover

    mo = build_paper_mo()
    a1, a2 = action_a1(mo), action_a2(mo)
    violations = check_growing([a1], Prover(mo.dimensions))
    valid = ReductionSpecification((a1, a2), mo.dimensions)
    at_oct = reduce_mo(mo, valid, _dt.date(2000, 10, 15))
    at_nov = reduce_mo(at_oct, valid, _dt.date(2000, 11, 15))
    return {
        "figure": 2,
        "violating_spec": [str(a1)],
        "violations": [str(v) for v in violations],
        "valid_spec": [str(a1), str(a2)],
        "facts_2000_10": _fact_rows(at_oct),
        "facts_2000_11": _fact_rows(at_nov),
    }


def figure_3() -> dict[str, object]:
    """Figure 3: the reduced MO at 2000/4/5, 2000/6/5, and 2000/11/5."""
    mo = build_paper_mo()
    specification = paper_specification(mo)
    snapshots = {}
    for at in SNAPSHOT_TIMES:
        reduced = reduce_mo(mo, specification, at)
        snapshots[at.isoformat()] = _fact_rows(reduced)
    return {"figure": 3, "snapshots": snapshots}


def figure_4() -> dict[str, object]:
    """Figure 4: ``pi[URL][Number_of, Dwell_time](O)`` at 2000/11/5."""
    mo = build_paper_mo()
    reduced = reduce_mo(mo, paper_specification(mo), SNAPSHOT_TIMES[-1])
    projected = project(reduced, ["URL"], ["Number_of", "Dwell_time"])
    return {"figure": 4, "facts": mo_rows(projected)}


def figure_5() -> dict[str, object]:
    """Figure 5: ``a[Time.month, URL.domain](O)`` at 2000/11/5
    (availability approach)."""
    mo = build_paper_mo()
    reduced = reduce_mo(mo, paper_specification(mo), SNAPSHOT_TIMES[-1])
    aggregated = aggregate(reduced, {"Time": "month", "URL": "domain"})
    return {"figure": 5, "facts": mo_rows(aggregated)}


def figure_6() -> dict[str, object]:
    """Figure 6: the subcube architecture from the disjoint action set."""
    mo = build_paper_mo()
    specification = paper_specification(mo)
    store = SubcubeStore(mo, specification)
    paper_disjoint = [str(a) for a in paper_disjoint_actions(mo)]
    return {
        "figure": 6,
        "paper_disjoint_actions": paper_disjoint,
        "subcubes": flow_report(store),
        "bottom_cube": store.bottom_cube.name,
    }


# ----------------------------------------------------------------------
# The extended Section 7 scenario (Figures 7-9)
# ----------------------------------------------------------------------

EXTENDED_FACTS = (
    # The paper's facts 0-6 ...
    ("fact_0", "1999/11/23", "http://www.amazon.com/exec/obidos/tg/browse/", 677, 2, 34),
    ("fact_1", "1999/12/4", "http://www.cnn.com/health", 2335, 5, 52),
    ("fact_2", "1999/12/4", "http://www.cnn.com/", 154, 2, 42),
    ("fact_3", "1999/12/31", "http://www.amazon.com/exec/obidos/tg/browse/", 12, 1, 34),
    ("fact_4", "2000/1/4", "http://www.cnn.com/", 654, 4, 47),
    ("fact_5", "2000/1/4", "http://www.cnn.com/health", 301, 6, 52),
    ("fact_6", "2000/1/20", "http://www.cc.gatech.edu/", 32, 1, 12),
    # ... plus the Section 7 additions.
    ("fact_7", "2000/5/7", "http://www.cnn.com/health", 210, 3, 21),
    ("fact_8", "2000/7/8", "http://www.cc.gatech.edu/", 77, 2, 18),
    ("fact_9", "2000/1/15", "http://www.amazon.com/exec/obidos/tg/browse/", 95, 2, 40),
)


def build_extended_mo() -> MultidimensionalObject:
    """The running example over a dense Time dimension with facts 0-9."""
    builder = (
        MOBuilder("Click")
        .with_prebuilt_dimension(
            build_time_dimension(_dt.date(1999, 10, 1), _dt.date(2001, 2, 28))
        )
        .with_dimension("URL", [["url", "domain", "domain_grp"]], PAPER_URLS)
        .with_measure("Number_of")
        .with_measure("Dwell_time")
        .with_measure("Delivery_time")
        .with_measure("Datasize")
    )
    for fact_id, day, url, dwell, delivery, datasize in EXTENDED_FACTS:
        builder.with_fact(
            fact_id,
            {"Time": day, "URL": url},
            {
                "Number_of": 1,
                "Dwell_time": dwell,
                "Delivery_time": delivery,
                "Datasize": datasize,
            },
        )
    return builder.build()


def extended_specification(
    mo: MultidimensionalObject,
) -> ReductionSpecification:
    """``{a1, a2}`` plus the Section 7 gatech week rule (Equation 43)."""
    gatech = Action.parse(
        mo.schema,
        "a[Time.week, URL.domain] o[URL.domain = 'gatech.edu' AND "
        "Time.week <= NOW - 36 weeks]",
        "a_gatech",
    )
    return ReductionSpecification(
        (action_a1(mo), action_a2(mo), gatech), mo.dimensions
    )


def _extended_store() -> tuple[MultidimensionalObject, SubcubeStore]:
    mo = build_extended_mo()
    specification = extended_specification(mo)
    store = SubcubeStore(mo, specification)
    store.load(
        (
            fact_id,
            dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
            {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
        )
        for fact_id in sorted(mo.facts())
    )
    return mo, store


def figure_7() -> dict[str, object]:
    """Figure 7: synchronization across the 2000/12 -> 2001/1 boundary."""
    _, store = _extended_store()
    before_time = _dt.date(2000, 12, 5)
    after_time = _dt.date(2001, 1, 5)
    store.synchronize(before_time)
    before = {
        name: _fact_rows(cube.mo) for name, cube in store.cubes.items()
    }
    moved = store.synchronize(after_time)
    after = {
        name: _fact_rows(cube.mo) for name, cube in store.cubes.items()
    }
    return {
        "figure": 7,
        "at_2000_12_05": before,
        "migrated_into": {k: v for k, v in moved.items() if v},
        "at_2001_01_05": after,
        "cube_granularities": {
            d.name: d.granularity for d in store.definitions
        },
    }


FIGURE_8_QUERY = SubcubeQuery(
    "'1999/06' < Time.month AND Time.month <= '2000/05'",
    {"Time": "month", "URL": "domain_grp"},
)


def figure_8() -> dict[str, object]:
    """Figure 8: the evaluation plan of ``Q`` over synchronized subcubes."""
    _, store = _extended_store()
    at = _dt.date(2000, 10, 20)
    store.synchronize(at)
    subresults = {}
    for definition in store.definitions:
        cube = store.cube(definition.name)
        subresults[f"S({definition.name})"] = mo_rows(
            query_cube(cube.mo, FIGURE_8_QUERY, at)
        )
    final = query_store(store, FIGURE_8_QUERY, at)
    return {
        "figure": 8,
        "query": "a[month, domain_grp](o['1999/06' < Time.month <= '2000/05'](O))",
        "subresults": subresults,
        "final": mo_rows(final),
    }


def figure_9() -> dict[str, object]:
    """Figure 9: querying subcube K1 in an un-synchronized state.

    The store is synchronized at 2000/10/20 and then queried at
    2001/1/20 *without* re-synchronizing: the month cube's effective
    content must pull newly-eligible facts from its parent cubes, and the
    unsynchronized query must equal the fully synchronized one.
    """
    _, store = _extended_store()
    sync_time = _dt.date(2000, 10, 20)
    query_time = _dt.date(2001, 1, 20)
    store.synchronize(sync_time)

    month_cube = next(
        store.cube(d.name)
        for d in store.definitions
        if d.granularity == ("month", "domain")
    )
    stale = _fact_rows(month_cube.mo)
    effective = _fact_rows(effective_content(store, month_cube, query_time))
    unsync_answer = mo_rows(
        query_store(store, FIGURE_8_QUERY, query_time, assume_synchronized=False)
    )
    store.synchronize(query_time)
    sync_answer = mo_rows(query_store(store, FIGURE_8_QUERY, query_time))
    return {
        "figure": 9,
        "stale_month_cube": stale,
        "effective_month_cube": effective,
        "unsynchronized_answer": unsync_answer,
        "synchronized_answer": sync_answer,
        "answers_agree": unsync_answer == sync_answer,
    }


ALL_FIGURES = {
    1: figure_1,
    2: figure_2,
    3: figure_3,
    4: figure_4,
    5: figure_5,
    6: figure_6,
    7: figure_7,
    8: figure_8,
    9: figure_9,
}


def render(figure: Mapping[str, object]) -> str:
    """Pretty-print a regenerated figure for terminal output."""
    lines = [f"=== Figure {figure['figure']} ==="]

    def emit(key: str, value: object, indent: int = 0) -> None:
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for sub_key, sub_value in value.items():
                emit(str(sub_key), sub_value, indent + 1)
        elif isinstance(value, (list, tuple)) and value and isinstance(
            value[0], dict
        ):
            lines.append(f"{pad}{key}:")
            for row in value:
                rendered = ", ".join(f"{k}={v}" for k, v in row.items())
                lines.append(f"{pad}  - {rendered}")
        else:
            lines.append(f"{pad}{key}: {value}")

    for key, value in figure.items():
        if key == "figure":
            continue
        emit(key, value)
    return "\n".join(lines)


def _fact_rows(mo: MultidimensionalObject) -> list[dict[str, object]]:
    rows = []
    for fact_id in sorted(mo.facts()):
        rows.append(
            {
                "fact": fact_id,
                "cell": mo.direct_cell(fact_id),
                "granularity": mo.gran(fact_id),
                "members": sorted(mo.provenance(fact_id).members),
                "measures": {
                    name: mo.measure_value(fact_id, name)
                    for name in mo.schema.measure_names
                },
            }
        )
    return rows
