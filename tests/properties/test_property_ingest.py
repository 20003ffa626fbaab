"""The ingest equivalence property: streaming load is invisible.

Two layers of the claim, both bit-for-bit:

* **Store level** — driving a fact stream through the group-committing
  :class:`StreamingLoader` at any batch size (1, 7, 64, 4096, or a
  seeded schedule of uneven flushes) leaves a ``SubcubeStore`` with the
  same fingerprint as one-shot ``load``, before *and* after
  synchronization, with the ingest counters accounting for every fact.

* **Reduction level** — an MO materialized through the columnar append
  kernels in batches reduces identically to the directly-built MO on
  all four reduction paths of the differential suite (interpretive,
  columnar, sharded, SQL), with identical reduce counters, across its
  seeded corpus.
"""

from __future__ import annotations

import datetime as dt
import random

import pytest

from repro.core.columnar import ColumnarFactTable
from repro.engine.store import SubcubeStore
from repro.engine.telemetry import INGEST_BATCHES, INGEST_FACTS
from repro.ingest import FactBatchBuffer, StreamingLoader
from repro.obs import metrics as obs_metrics
from repro.spec.specification import ReductionSpecification
from repro.workload import (
    ClickstreamConfig,
    build_clickstream_mo,
    generate_clicks,
    grouped_retention_actions,
)
from tests.engine.durableutil import facts_of, fingerprint

from .test_property_differential import (
    IN_MEMORY_PATHS,
    bitwise_content,
    build_case,
    cell_content,
    run_all_paths,
)

BATCH_SIZES = (1, 7, 64, 4096)

#: ~600 facts over two months: every batch size above leaves an uneven
#: tail (600 is not a multiple of 7 or 64, and smaller than 4096).
CONFIG = ClickstreamConfig(
    start=dt.date(1999, 1, 1),
    end=dt.date(1999, 2, 28),
    domains_per_group=3,
    urls_per_domain=3,
    clicks_per_day=10,
    seed=7,
)

FACTS = list(generate_clicks(CONFIG))
TEMPLATE = build_clickstream_mo(
    ClickstreamConfig(
        start=CONFIG.start,
        end=CONFIG.end,
        domains_per_group=CONFIG.domains_per_group,
        urls_per_domain=CONFIG.urls_per_domain,
        clicks_per_day=0,
        seed=CONFIG.seed,
    )
)
SPEC = ReductionSpecification(
    grouped_retention_actions(TEMPLATE, detail_months=1, coarse_years=1),
    TEMPLATE.dimensions,
)
SYNC_AT = CONFIG.end + dt.timedelta(days=120)


def fresh_store():
    return SubcubeStore(TEMPLATE, SPEC, metrics=obs_metrics.MetricsRegistry())


def one_shot_store():
    store = fresh_store()
    store.load(FACTS)
    return store


class TestStoreEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_any_batch_size_matches_one_shot(self, batch_size):
        streamed = fresh_store()
        loader = StreamingLoader(streamed, batch_size=batch_size)
        tally = loader.ingest(iter(FACTS))
        reference = one_shot_store()

        assert tally["committed"] == len(FACTS)
        expected_batches = -(-len(FACTS) // batch_size)  # ceil division
        assert loader.committed_batches == expected_batches
        assert fingerprint(streamed) == fingerprint(reference)

        # The counters account for every fact and every group commit.
        registry = streamed.metrics
        assert registry.value(
            INGEST_FACTS, {"outcome": "committed"}
        ) == len(FACTS)
        batches = sum(
            registry.value(INGEST_BATCHES, {"trigger": trigger}) or 0
            for trigger in ("size", "timer", "final")
        )
        assert batches == expected_batches

        # Synchronization sees identical inputs, so it moves identical
        # facts and lands on identical state.
        assert streamed.synchronize(SYNC_AT) == reference.synchronize(SYNC_AT)
        assert fingerprint(streamed) == fingerprint(reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_uneven_flush_schedules(self, seed):
        """Random batch sizes with random mid-stream flushes — the timer
        trigger's effect on batch boundaries, made deterministic."""
        rng = random.Random(seed)
        streamed = fresh_store()
        loader = StreamingLoader(
            streamed, batch_size=rng.choice([2, 3, 5, 11, 50])
        )
        for triple in FACTS:
            loader.add(*triple)
            if rng.random() < 0.02:
                loader.flush(trigger="timer")
        loader.flush()
        reference = one_shot_store()
        assert loader.committed_facts == len(FACTS)
        assert fingerprint(streamed) == fingerprint(reference)
        streamed.synchronize(SYNC_AT)
        reference.synchronize(SYNC_AT)
        assert fingerprint(streamed) == fingerprint(reference)


def batched_copy(mo, batch_size, seed=None):
    """Rebuild *mo* through the columnar append kernels in batches."""
    rng = random.Random(seed) if seed is not None else None
    table = ColumnarFactTable.from_mo(mo.empty_like())
    buffer = FactBatchBuffer(mo.schema, mo.dimensions)
    for triple in facts_of(mo):
        buffer.add(*triple)
        if len(buffer) >= batch_size or (
            rng is not None and rng.random() < 0.1
        ):
            buffer.flush_to_table(table)
    if len(buffer):
        buffer.flush_to_table(table)
    return table.to_mo(template=mo)


class TestReductionEquivalence:
    #: A slice of the differential corpus' master seeding, so cases can
    #: be cross-referenced with test_property_differential failures.
    CASE_SEEDS = random.Random(0).sample(range(10**6), 12)

    @pytest.mark.parametrize("batch_size", (1, 7, 4096))
    @pytest.mark.parametrize("seed", CASE_SEEDS[:6])
    def test_four_backends_agree_on_batched_input(self, seed, batch_size):
        mo, spec, at = build_case(seed)
        streamed = batched_copy(mo, batch_size)
        direct_results = run_all_paths(mo, spec, at)
        streamed_results = run_all_paths(streamed, spec, at)
        for path in IN_MEMORY_PATHS:
            direct, direct_counters = direct_results[path]
            via_ingest, ingest_counters = streamed_results[path]
            assert bitwise_content(via_ingest) == bitwise_content(direct), (
                path
            )
            assert ingest_counters == direct_counters, path
        direct_sql, direct_sql_counters = direct_results["sql"]
        streamed_sql, streamed_sql_counters = streamed_results["sql"]
        assert cell_content(streamed_sql) == cell_content(direct_sql)
        assert streamed_sql_counters == direct_sql_counters

    @pytest.mark.parametrize("seed", CASE_SEEDS[6:])
    def test_uneven_tails_preserve_reduction(self, seed):
        mo, spec, at = build_case(seed)
        streamed = batched_copy(mo, batch_size=3, seed=seed)
        direct = run_all_paths(mo, spec, at)["interpretive"]
        via_ingest = run_all_paths(streamed, spec, at)["interpretive"]
        assert bitwise_content(via_ingest[0]) == bitwise_content(direct[0])
        assert via_ingest[1] == direct[1]
