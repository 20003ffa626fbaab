"""The traced run: per-layer numbers, taken from outside the program.

Three sources, none of which edits ``src/``:

* each layer's public functions called alone on the run's own rows and
  timed (parse, validate, stage, plain load, journal, fsync, ...);
* the spans the program already emits, harvested with
  ``repro.obs.trace.recording()``;
* the counters of the stores' ``MetricsRegistry``.

Benchmark-side spans wrap every call and are written, with the
harvested program spans, to ``out/trace-<workload>.json``.  Each timed
phase also runs once untraced in the same process, which gives
``tracing_overhead_pct`` and the base the layer sums are checked
against.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time

import phases
from estimators import best_of, per_item_min, quantile
from inputs import NOW0, SHAPES, Inputs, Request
from measure import Plan, raw_values, shape_p50s
from repro.core.rowcheck import RowValidator
from repro.engine import telemetry as engine_telemetry
from repro.engine.disjoint import disjoint_actions
from repro.engine.durable import DurableStore, open_durable
from repro.engine.queryproc import (
    clear_plan_caches,
    combine_subresults,
    plan_cache,
    query_cube,
)
from repro.engine.store import SubcubeStore
from repro.ingest.batch import FactBatchBuffer
from repro.ingest.commit import StreamingLoader
from repro.ingest.sources import open_source
from repro.obs import trace as program_trace
from repro.parallel import ShardExecutor, reduce_mo_sharded
from repro.serving import ServingService, SnapshotManager, store_fingerprint
from repro.serving import telemetry as serving_telemetry
from spans import Tracer


#: Rounds of every traced, untraced and isolated-layer measurement
#: (best of).  Per-layer numbers carry no bound; a third round would
#: push the traced run past an untraced one's length.
ISOLATION_ROUNDS = 2

_now = time.perf_counter


def _timed(function):
    gc.collect()
    started = _now()
    result = function()
    return _now() - started, result


def _best(function, rounds: int = ISOLATION_ROUNDS):
    """Best-of-rounds seconds of *function*, and its last result."""
    samples = []
    for _ in range(rounds):
        seconds, result = _timed(function)
        samples.append(seconds)
    return best_of(samples), result


# ----------------------------------------------------------------------
# ingest: parse / validate / stage / load / journal / fsync, one by one
# ----------------------------------------------------------------------

def ingest_layers(inputs: Inputs, workdir: str, tracer: Tracer) -> dict:
    schema = inputs.template.schema
    dimensions = inputs.template.dimensions

    def parse():
        stream, rows = open_source(
            inputs.facts_path, schema.dimension_names, schema.measure_names
        )
        try:
            return list(rows)
        finally:
            stream.close()

    def validate():
        validator = RowValidator(schema, dimensions)
        for row in rows:
            validator.validate_row(row.fact_id, row.coordinates, row.measures)

    def stage():
        buffer = FactBatchBuffer(schema, dimensions)
        batches = []
        for row in rows:
            buffer.add(row.fact_id, row.coordinates, row.measures)
            if len(buffer) >= phases.BATCH_SIZE:
                batches.append(buffer.drain())
        if len(buffer):
            batches.append(buffer.drain())
        return batches

    def load_plain():
        store = SubcubeStore(inputs.template, inputs.specification)
        for batch in batches:
            store.load(batch)

    def load_durable(fsync: bool):
        path = os.path.join(tempfile.mkdtemp(dir=workdir), "store")
        store = DurableStore.create(
            path, inputs.template, inputs.specification, fsync=fsync
        )
        try:
            for batch in batches:
                store.load(batch)
            return store.metrics
        finally:
            store.close()
            shutil.rmtree(path)

    with tracer.span("ingest.sources.parse"):
        parse_s, rows = _best(parse)
    with tracer.span("core.rowcheck.validate"):
        validate_s, _ = _best(validate)
    with tracer.span("ingest.batch.stage"):
        add_drain_s, batches = _best(stage)
    with tracer.span("engine.store.load"):
        load_s, _ = _best(load_plain)
    with tracer.span("engine.durable.journal"):
        unsynced_s, _ = _best(lambda: load_durable(False))
    with tracer.span("engine.durable.fsync"):
        synced_s, registry = _best(lambda: load_durable(True))
    facts = len(rows)
    return {
        "ingest.sources.parse_s": parse_s,
        "core.rowcheck.validate_s": validate_s,
        # FactBatchBuffer.add validates through the same RowValidator,
        # so staging's own cost is what add+drain takes beyond that.
        "ingest.batch.stage_s": max(0.0, add_drain_s - validate_s),
        "engine.store.load_s": load_s,
        "engine.durable.journal_s": max(0.0, unsynced_s - load_s),
        "engine.durable.fsync_s": max(0.0, synced_s - unsynced_s),
        "engine.durable.fsyncs": registry.value(
            engine_telemetry.JOURNAL_FSYNC
        ),
        "engine.durable.journal_bytes_per_fact": registry.value(
            engine_telemetry.JOURNAL_BYTES
        )
        / facts,
    }


# ----------------------------------------------------------------------
# reduce: the columnar spans, the disjoint build, the sharded path
# ----------------------------------------------------------------------

def reduce_layers(inputs: Inputs, clock, tracer: Tracer, recorder) -> dict:
    first_span = len(recorder.spans)
    with tracer.span("reduction.columnar"):
        _, reduced = phases.reduce_round(inputs, 0, clock)
    stages = {
        span.name: span.duration for span in recorder.spans[first_span:]
    }
    with tracer.span("engine.disjoint.build"):
        build_s, _ = _best(lambda: disjoint_actions(inputs.specification), 3)
    executor = ShardExecutor(workers=min(2, os.cpu_count() or 1))
    with tracer.span("parallel.reduce"):
        sharded_s, sharded = _timed(
            lambda: reduce_mo_sharded(
                inputs.backfill_mo,
                inputs.specification,
                NOW0,
                executor=executor,
                backend="columnar",
            )
        )
    processes = executor.workers if executor.uses_processes else 1
    return {
        "metrics": {
            "reduction.columnar.encode_s": stages["reduce.columnar.encode"],
            "reduction.columnar.admit_s": stages["reduce.columnar.admit"],
            "reduction.columnar.plan_s": stages["reduce.columnar.plan"],
            "reduction.columnar.fold_s": stages["reduce.columnar.fold"],
            "engine.disjoint.build_s": build_s,
            "parallel.reduce.workers2_s": sharded_s,
            "parallel.reduce.processes": processes,
        },
        # No speedup is derived from these: with one process the sharded
        # path measures partitioning overhead, not scaling.
        "parallel": {
            "mode": "process" if processes > 1 else "serial",
            "workers": executor.workers,
            "serial_columnar_s": stages["reduce.columnar.encode"]
            + stages["reduce.columnar.admit"]
            + stages["reduce.columnar.plan"]
            + stages["reduce.columnar.fold"],
        },
        "reduced": reduced,
        "sharded_equals_serial": phases.cells_of(sharded)
        == phases.cells_of(reduced),
    }


# ----------------------------------------------------------------------
# nightly: each step's sync, durable snapshot, publish, fingerprint
# ----------------------------------------------------------------------

def nightly_layers(
    inputs: Inputs, base_path: str, workdir: str, tracer: Tracer
) -> dict:
    path, store = phases.restore_base(base_path, workdir, "layers-nightly")
    snapshots = SnapshotManager(store.metrics)
    snapshots.publish(store)
    loader = StreamingLoader(store, batch_size=phases.BATCH_SIZE)
    columns: dict[str, list[float]] = {
        name: []
        for name in (
            "sync", "examined", "migrated", "snapshot", "publish", "fingerprint"
        )
    }
    snapshot_bytes = 0
    gc.collect()
    for day, facts in inputs.tail:
        loader.ingest(facts)
        with tracer.span("engine.store.sync_incr", request=day.isoformat()):
            started = _now()
            store.synchronize(day)
            columns["sync"].append(_now() - started)
        columns["examined"].append(
            store.metrics.value(engine_telemetry.SYNC_LAST_EXAMINED)
        )
        columns["migrated"].append(
            store.metrics.value(engine_telemetry.SYNC_LAST_MIGRATED)
        )
        with tracer.span("engine.durable.snapshot", request=day.isoformat()):
            started = _now()
            snapshot_path = store.snapshot()
            columns["snapshot"].append(_now() - started)
        snapshot_bytes = os.path.getsize(snapshot_path)
        with tracer.span("serving.snapshots.publish", request=day.isoformat()):
            started = _now()
            snapshots.publish(store)
            columns["publish"].append(_now() - started)
        started = _now()
        store_fingerprint(store)
        columns["fingerprint"].append(_now() - started)
    store.close()
    shutil.rmtree(path)
    ordinary = {name: values[:-1] for name, values in columns.items()}
    return {
        "engine.store.sync_incr_ms": 1e3 * quantile(ordinary["sync"], 0.5),
        "engine.store.sync_examined_per_step": sum(ordinary["examined"])
        / len(ordinary["examined"]),
        "engine.store.sync_rollover_ms": 1e3 * columns["sync"][-1],
        "engine.store.sync_rollover_migrated": columns["migrated"][-1],
        "engine.durable.snapshot_ms": 1e3
        * quantile(ordinary["snapshot"], 0.5),
        "engine.durable.snapshot_bytes": snapshot_bytes,
        "serving.snapshots.publish_ms": 1e3
        * quantile(ordinary["publish"], 0.5),
        "serving.snapshots.fingerprint_ms": 1e3
        * quantile(ordinary["fingerprint"], 0.5),
    }


# ----------------------------------------------------------------------
# query: query_store's stages replayed one by one
# ----------------------------------------------------------------------

def query_stage_layers(
    store: SubcubeStore, schedule: list[Request], tracer: Tracer
) -> dict:
    """Bind, plan, per-cube group-by and combine, summed over the schedule."""
    clear_plan_caches()
    service = ServingService(store)
    for request in phases.hot_requests():
        service.query(phases.as_query(request), NOW0)
    frozen = service.snapshots.current().store
    plans = plan_cache(frozen)
    totals = {"bind": 0.0, "plan": 0.0, "cubes": 0.0, "combine": 0.0}
    gc.collect()
    for index, request in enumerate(schedule):
        query = phases.as_query(request)
        with tracer.span("engine.queryproc.bind", request=index):
            started = _now()
            bound = (
                plans.bound_predicate(query.predicate)
                if query.predicate is not None
                else None
            )
            totals["bind"] += _now() - started
        with tracer.span("engine.queryproc.plan", request=index):
            started = _now()
            if bound is not None:
                plans.plan_for(bound, NOW0)
            totals["plan"] += _now() - started
        with tracer.span("engine.queryproc.cubes", request=index):
            started = _now()
            subresults = [
                query_cube(frozen.cube(d.name).mo, query, NOW0, plans)
                for d in frozen.definitions
            ]
            totals["cubes"] += _now() - started
        with tracer.span("engine.queryproc.combine", request=index):
            started = _now()
            combine_subresults(frozen, subresults, query, NOW0)
            totals["combine"] += _now() - started
    return totals


def query_counters(registries: list) -> dict:
    """Row and plan-cache ratios, summed over the served snapshots'
    registries (each snapshot counts its own queries)."""

    def rows(stage: str) -> float:
        return sum(
            registry.value(engine_telemetry.QUERY_ROWS, {"stage": stage})
            or 0.0
            for registry in registries
        )

    def cache(name: str) -> float:
        return sum(
            registry.value(name, {"cache": layer}) or 0.0
            for registry in registries
            for layer in ("bound", "plan")
        )

    hits = cache(engine_telemetry.QUERY_CACHE_HITS)
    misses = cache(engine_telemetry.QUERY_CACHE_MISSES)
    return {
        "engine.queryproc.rows_scanned_per_result_row": rows("scanned")
        / rows("result"),
        "engine.queryproc.plan_cache_hit_ratio": hits / (hits + misses),
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def run_traced(
    inputs: Inputs,
    schedule: list[Request],
    plan: Plan,
    workdir: str,
    tally: phases.Tally,
    clock,
    setup,
):
    """Returns ``(raw, per-layer metrics, extra document blocks)``.

    Per-layer numbers carry no regression bound, so they are reported
    as wall seconds; the calibration brackets ride along in ``raw``."""
    tracer = Tracer(enabled=True)
    base_path = os.path.join(workdir, "base")
    metrics: dict[str, float] = {}

    # The CPU-bound phases, alternately untraced and with both tracers
    # on: the best of each side gives the tracing overhead, and the best
    # overall is the end-to-end time the layer sums are held against.
    read_store = phases.build_memory_store(inputs)
    plain = {"backfill": [], "query": [], "reduce": []}
    traced = {"backfill": [], "query": []}
    with program_trace.recording() as recorder:
        for round_id in range(ISOLATION_ROUNDS):
            with program_trace.use_recorder(program_trace.NOOP):
                plain["backfill"].append(
                    phases.backfill_round(
                        inputs,
                        workdir,
                        ISOLATION_ROUNDS + round_id,
                        tally,
                        clock,
                    )
                )
                plain["reduce"].append(
                    phases.reduce_round(inputs, 1, clock)[0]
                )
                plain["query"].append(
                    phases.query_round(
                        read_store,
                        schedule,
                        ISOLATION_ROUNDS + round_id,
                        tally,
                        clock,
                    )
                )
            traced["backfill"].append(
                phases.backfill_round(
                    inputs,
                    workdir,
                    round_id,
                    tally,
                    clock,
                    tracer,
                    keep_base_as=base_path if round_id == 0 else None,
                )
            )
            traced["query"].append(
                phases.query_round(
                    read_store, schedule, round_id, tally, clock, tracer
                )
            )
        reduce_result = reduce_layers(inputs, clock, tracer, recorder)
    done = {
        "setup": [setup],
        "backfill": traced["backfill"] + plain["backfill"],
        "query": traced["query"] + plain["query"],
        "reduce": plain["reduce"],
    }
    tally.check(
        "sharded reduce equals serial reduce",
        reduce_result["sharded_equals_serial"],
    )
    metrics.update(reduce_result["metrics"])
    metrics.update(ingest_layers(inputs, workdir, tracer))

    sync_span = next(s for s in recorder.spans if s.name == "sync.run")
    metrics["engine.store.sync_full_s"] = best_of(
        [r["sync"].seconds for r in done["backfill"]]
    )
    metrics["engine.store.sync_examined"] = sync_span.attributes["examined"]
    metrics["engine.store.sync_migrated"] = sync_span.attributes["migrated"]

    # The base copy holds the NOW0 snapshot and no journal tail.
    snapshot_only = []
    for attempt in range(ISOLATION_ROUNDS):
        path = shutil.copytree(
            base_path, os.path.join(workdir, f"layers-recover-{attempt}")
        )
        with tracer.span("engine.durable.recover_snapshot"):
            seconds, (recovered, _) = _timed(lambda: open_durable(path))
        snapshot_only.append(seconds)
        recovered.close()
        shutil.rmtree(path)
    metrics["engine.durable.recover_snapshot_s"] = best_of(snapshot_only)
    metrics["engine.durable.recover_replay_s"] = max(
        0.0,
        best_of([r["recover"].seconds for r in done["backfill"]])
        - best_of(snapshot_only),
    )
    metrics["engine.durable.replayed_records"] = done["backfill"][0][
        "replayed_records"
    ]
    metrics["engine.durable.discarded_records"] = done["backfill"][0][
        "discarded_records"
    ]

    metrics.update(nightly_layers(inputs, base_path, workdir, tracer))
    done["nightly"] = [
        phases.nightly_round(
            inputs, base_path, workdir, 0, tally, clock, tracer
        )
    ]

    stage_totals = query_stage_layers(read_store, schedule, tracer)
    for stage, seconds in stage_totals.items():
        metrics[f"engine.queryproc.{stage}_ms"] = 1e3 * seconds / len(schedule)
    query_minima = per_item_min([r["latencies_s"] for r in done["query"]])
    shapes = shape_p50s(schedule, query_minima)
    for shape in SHAPES:
        metrics[f"query.shape.{shape}.p50_ms"] = 1e3 * shapes[shape]
    metrics["serving.service.query_ms"] = 1e3 * quantile(query_minima, 0.5)

    # The wire: the same schedule at one connection and at the plan's.
    with tracer.span("serving.wire.closed_loop"):
        shared = phases.wire_round(
            read_store, schedule, plan.connections, 0, tally, clock
        )
    with tracer.span("serving.wire.one_connection"):
        alone = phases.wire_round(read_store, schedule, 1, 1, tally, clock)
    with tracer.span("serving.wire.both_cpus"):
        unpinned = phases.wire_round(
            read_store, schedule, plan.connections, 2, tally, clock, False
        )
    done["wire"] = [shared, alone]
    mean_alone = sum(alone["latencies_s"]) / len(schedule)
    mean_shared = sum(shared["latencies_s"]) / len(schedule)
    registry = read_store.metrics
    metrics["serving.server.handler_ms"] = 1e3 * alone["handler_mean_s"]
    metrics["serving.wire_overhead_ms"] = 1e3 * (
        mean_alone - alone["handler_mean_s"]
    )
    metrics["serving.server.queue_wait_ms"] = 1e3 * max(
        0.0, mean_shared - mean_alone
    )
    metrics["serving.wire_both_cpus_qps"] = (
        len(schedule) / unpinned["round"].seconds
    )
    metrics["serving.server.rejected"] = (
        registry.value(serving_telemetry.REJECTED, {"reason": "overload"})
        or 0.0
    )
    metrics["serving.server.deadline_504"] = (
        registry.value(serving_telemetry.REJECTED, {"reason": "deadline"})
        or 0.0
    )

    with tracer.span("serving.serve_refresh"):
        mixed = phases.serve_refresh_round(
            inputs,
            phases.build_memory_store(inputs),
            schedule,
            plan.profile.refresh_interval,
            tally,
            clock,
        )
    done["serve_refresh"] = [mixed]
    # The cache and row ratios are those of the workload's own readers:
    # beside a refresher every publish starts a snapshot's plans afresh.
    metrics.update(
        query_counters(
            mixed["registries"]
            if plan.workload == "serve_refresh"
            else plain["query"][0]["registries"]
        )
    )
    metrics["serving.service.refresh_ms"] = 1e3 * quantile(
        mixed["refresh_service_s"], 0.5
    )
    metrics["refresher.lateness_ms"] = 1e3 * quantile(mixed["lateness_s"], 0.5)
    metrics["serving.snapshots.live_versions_max"] = mixed["live_versions_max"]

    def cpu_bound_seconds(side: dict) -> float:
        return sum(
            best_of([r[section].seconds for r in side["backfill"]])
            for section in ("ingest", "sync", "answer", "recover")
        ) + best_of([r["round"].seconds for r in side["query"]])

    untraced_s = cpu_bound_seconds(plain)
    metrics["tracing_overhead_pct"] = (
        100.0 * (cpu_bound_seconds(traced) - untraced_s) / untraced_s
    )

    def attributed(end_to_end_s: float, layers: list[float]) -> dict:
        return {
            "end_to_end_s": end_to_end_s,
            "layers_sum_s": sum(layers),
            "ratio": sum(layers) / end_to_end_s,
        }

    attribution = {
        "backfill.ingest": attributed(
            best_of([r["ingest"].seconds for r in done["backfill"]]),
            [
                metrics[name]
                for name in (
                    "ingest.sources.parse_s",
                    "core.rowcheck.validate_s",
                    "ingest.batch.stage_s",
                    "engine.store.load_s",
                    "engine.durable.journal_s",
                    "engine.durable.fsync_s",
                )
            ],
        ),
        "query.in_process": attributed(
            best_of([r["round"].seconds for r in done["query"]]),
            list(stage_totals.values()),
        ),
    }
    origin = tracer.spans[0]["start"]
    trace_document = {
        "spans": [
            {**span, "start": span["start"] - origin, "end": span["end"] - origin}
            for span in tracer.spans
        ],
        "self_times_s": tracer.self_times(),
        "program_spans": [
            {
                "id": span.span_id,
                "name": span.name,
                "parent": span.parent_id,
                "start": span.start_monotonic - origin,
                "end": span.start_monotonic - origin + (span.duration or 0.0),
                "attributes": {
                    key: value
                    for key, value in span.attributes.items()
                    if isinstance(value, (str, int, float, bool))
                },
            }
            for span in recorder.spans
        ],
    }
    raw = {
        "rounds": done,
        "reduced": reduce_result["reduced"],
        "values": raw_values(done, clock),
    }
    return raw, metrics, {
        "trace": trace_document,
        "attribution": attribution,
        "parallel": reduce_result["parallel"],
    }
