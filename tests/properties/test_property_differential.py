"""Differential testing: four reduction paths, one answer, one telemetry.

Every case runs the same (MO, specification, NOW) through the
interpretive oracle and the columnar kernel of ``reduce_mo``, through
the shard-parallel reducer (a two-shard plan run in-process), *and*
through the SQLite reducer, then checks

* the three in-memory paths agree **bit-for-bit** — fact ids, cells,
  provenance, and measure values;
* the SQL path agrees at cell/measure level (aggregate fact ids are
  deterministic cell ids there, so id parity is not expected);
* all four paths report **identical reduce counters** — per-action
  admission counts, facts in/out, and deletions — because the counter
  semantics are defined on the input (direct cells vs predicates at NOW),
  not on backend internals.

Coverage comes from two generators: a hypothesis sweep (shrinkable,
fuzzing the corners) and a deterministic ``random.Random(0)`` sweep that
pins a large fixed corpus, so the suite always exercises 200+ cases even
when hypothesis trims its example budget.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest
from hypothesis import given, settings

from repro.core.builder import (
    MOBuilder,
    dimension_from_rows,
    dimension_type_from_chains,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel import ShardExecutor, reduce_mo_sharded
from repro.reduction.reducer import reduce_mo
from repro.sql.loader import SqlWarehouse
from repro.sql.reducer_sql import reduce_warehouse
from repro.timedim.builder import build_sparse_time_dimension
from repro.timedim.calendar import day_value

from .strategies import (
    DAY_POOL,
    URL_ROWS,
    evaluation_times,
    mos_with_specs,
    spec_for,
    windowed_spec_for,
)

IN_MEMORY_PATHS = ("interpretive", "columnar", "sharded")

#: The counter families every path must report identically.  The
#: ``runs``/``seconds`` families are excluded: they are keyed by path
#: by design.
SHARED_FAMILIES = (
    "repro_reduce_action_admitted_total",
    "repro_reduce_facts_input_total",
    "repro_reduce_facts_output_total",
    "repro_reduce_facts_deleted_total",
)

#: Deterministic sweep size; with the hypothesis examples on top the
#: suite runs 200+ differential cases.
SWEEP_CASES = 150


def run_with_counters(fn):
    """Run *fn* under a fresh registry; return (result, shared counters)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        result = fn()
    counters = {
        family["name"]: {
            tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in family["samples"]
        }
        for family in registry.snapshot()["metrics"]
        if family["name"] in SHARED_FAMILIES
    }
    return result, counters


def bitwise_content(mo):
    """Everything that identifies a reduced MO, including fact ids."""
    return sorted(
        (
            fact_id,
            mo.direct_cell(fact_id),
            tuple(sorted(mo.provenance(fact_id).members)),
            tuple(
                mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            ),
        )
        for fact_id in mo.facts()
    )


def cell_content(mo):
    """Cell-level content: what the SQL path must reproduce."""
    return sorted(
        (
            mo.direct_cell(fact_id),
            tuple(
                mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            ),
        )
        for fact_id in mo.facts()
    )


def reduce_in_memory(mo, spec, at, path):
    if path == "sharded":
        executor = ShardExecutor(workers=2, mode="serial")
        return reduce_mo_sharded(mo, spec, at, executor=executor)
    return reduce_mo(mo, spec, at, backend=path)


def run_all_paths(mo, spec, at):
    """All four reduction paths; returns {path: (content, counters)}."""
    results = {}
    for path in IN_MEMORY_PATHS:
        results[path] = run_with_counters(
            lambda p=path: reduce_in_memory(mo, spec, at, p)
        )

    def sql_path():
        warehouse = SqlWarehouse.from_mo(mo)
        reduce_warehouse(warehouse, spec, at)
        return warehouse.to_mo(mo)

    results["sql"] = run_with_counters(sql_path)
    return results


def assert_differential_case(mo, spec, at):
    results = run_all_paths(mo, spec, at)
    reference, reference_counters = results["interpretive"]
    reference_bits = bitwise_content(reference)
    for path in IN_MEMORY_PATHS[1:]:
        reduced, counters = results[path]
        assert bitwise_content(reduced) == reference_bits, path
        assert counters == reference_counters, path
    sql_mo, sql_counters = results["sql"]
    assert cell_content(sql_mo) == cell_content(reference)
    assert sql_counters == reference_counters
    # The counters reconcile internally, too.
    deleted = reference_counters["repro_reduce_facts_deleted_total"][()]
    assert deleted == mo.n_facts - reference.n_facts


class TestHypothesisSweep:
    @settings(max_examples=60, deadline=None)
    @given(pair=mos_with_specs(), at=evaluation_times())
    def test_four_paths_agree(self, pair, at):
        mo, spec = pair
        assert_differential_case(mo, spec, at)


def build_case(seed: int):
    """One deterministic (MO, spec, NOW) case from a seeded RNG.

    Mirrors the hypothesis strategies (sparse time dimension, fixed URL
    dimension, two spec families) without hypothesis, so the corpus is
    stable across runs and shrink-free.
    """
    rng = random.Random(seed)
    days = sorted(rng.sample(DAY_POOL, rng.randint(2, 10)))
    builder = (
        MOBuilder("Click")
        .with_prebuilt_dimension(build_sparse_time_dimension(days))
        .with_prebuilt_dimension(
            dimension_from_rows(
                dimension_type_from_chains(
                    "URL", [["url", "domain", "domain_grp"]]
                ),
                URL_ROWS,
            )
        )
        .with_measure("Number_of")
        .with_measure("Dwell_time")
        .with_measure("Peak", aggregate="max")
    )
    for index in range(rng.randint(1, 14)):
        builder.with_fact(
            f"f{index}",
            {
                "Time": day_value(rng.choice(days)),
                "URL": rng.choice(URL_ROWS)["url"],
            },
            {
                "Number_of": 1,
                "Dwell_time": rng.randint(1, 999),
                "Peak": rng.randint(1, 99),
            },
        )
    mo = builder.build()
    if rng.random() < 0.5:
        spec = spec_for(mo, rng.randint(1, 8), rng.randint(1, 6))
    else:
        spec = windowed_spec_for(mo, rng.choice([3, 6, 9]))
    at = rng.choice(DAY_POOL) + dt.timedelta(days=rng.randint(0, 900))
    return mo, spec, at


class TestSeededSweep:
    #: random.Random(0) pins the corpus: one master seed fans out into
    #: per-case seeds so single cases can be re-run by id.
    CASE_SEEDS = random.Random(0).sample(range(10**6), SWEEP_CASES)

    @pytest.mark.parametrize("seed", CASE_SEEDS)
    def test_four_paths_agree(self, seed):
        mo, spec, at = build_case(seed)
        assert_differential_case(mo, spec, at)
