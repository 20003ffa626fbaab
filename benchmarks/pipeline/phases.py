"""One round of each timed phase, driven through public functions only.

A *round* is one repetition of a phase on identical input and fresh or
restored state, preceded by ``gc.collect()`` with the collector left on.
Each function returns its timed sections as raw ``Timing`` records,
bracketed by calibration samples; turning rounds into metrics is
``measure.py``'s job, so the per-round values stay visible in the result
document.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import time
from collections import Counter

from repro.engine.durable import (
    JOURNAL_FILE,
    SNAPSHOT_DIR,
    DurableStore,
    open_durable,
)
from repro.engine.queryproc import SubcubeQuery, clear_plan_caches
from repro.engine.store import SubcubeStore
from repro.ingest.commit import StreamingLoader
from repro.ingest.sources import open_source
from repro.query.algebra import mo_rows
from repro.reduction import reduce_mo
from repro.serving import telemetry as serving_telemetry
from repro.serving import (
    QueryServer,
    ServerConfig,
    ServingClient,
    ServingService,
    store_fingerprint,
)

from calibration import Clock, Timing
from inputs import (
    CRASH_TAIL_DAYS,
    NOW0,
    REFRESH_STEPS,
    Inputs,
    Request,
    hot_requests,
)
from spans import OFF, Tracer

BATCH_SIZE = 4096
#: A record cut off mid-write, as a crash between write and fsync leaves.
TORN_RECORD = b'{"crc":1,"data":{"facts":[["click_torn",{"Time":"2000/1'

#: ``ServingClient`` reads response lines through asyncio's default
#: 64 KiB stream limit, which a few hundred result rows exceed (README,
#: "What the first numbers say"; a fix belongs in the client).
WIRE_LINE_LIMIT = 1 << 24

_now = time.perf_counter


class Tally:
    """Operations attempted and failed, by kind.

    A failed correctness check, a refused or late wire response and a
    refresh that did not publish all count as failed operations.
    """

    def __init__(self) -> None:
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.failures: list[str] = []

    def ops(self, kind: str, count: int = 1) -> None:
        self.attempted[kind] += count

    def fail(self, kind: str, message: str) -> None:
        self.failed[kind] += 1
        self.failures.append(f"{kind}: {message}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops("checks")
        if not ok:
            self.fail("checks", f"{name} {detail}".strip())


class WireClient(ServingClient):
    """The program's client, connected with a roomier line limit."""

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=WIRE_LINE_LIMIT
        )


def as_query(request: Request) -> SubcubeQuery:
    return SubcubeQuery(request.predicate, dict(request.granularity))


def cells_of(mo) -> dict:
    """Cell -> (measures, source members): what cell-for-cell compares."""
    measure_names = mo.schema.measure_names
    return {
        mo.direct_cell(fact_id): (
            tuple(mo.measure_value(fact_id, name) for name in measure_names),
            mo.provenance(fact_id).members,
        )
        for fact_id in mo.facts()
    }


def grand_total_count(result) -> object:
    (fact_id,) = list(result.facts())
    return result.measure_value(fact_id, "Number_of")


# ----------------------------------------------------------------------
# backfill: ingest -> first sync -> snapshot/publish/first answer ->
# tail -> crash -> recover
# ----------------------------------------------------------------------

def backfill_round(
    inputs: Inputs,
    workdir: str,
    round_id: int,
    tally: Tally,
    clock: Clock,
    tracer: Tracer = OFF,
    keep_base_as: str | None = None,
) -> dict:
    """One backfill round; returns its timed sections and exact counts."""
    path = os.path.join(workdir, f"backfill-{round_id}")
    schema = inputs.template.schema
    expected = len(inputs.backfill)
    gc.collect()

    with clock.section() as ingest, tracer.span("backfill.ingest", round_id):
        stream, rows = open_source(
            inputs.facts_path, schema.dimension_names, schema.measure_names
        )
        try:
            store = DurableStore.create(
                path, inputs.template, inputs.specification, fsync=True
            )
            loader = StreamingLoader(store, batch_size=BATCH_SIZE)
            outcome = loader.ingest(rows)
        finally:
            stream.close()
    with clock.section() as sync, tracer.span("backfill.sync_full", round_id):
        store.synchronize(NOW0)
    with clock.section() as answer_section:
        with tracer.span("backfill.snapshot", round_id):
            store.snapshot()
        with tracer.span("backfill.publish", round_id):
            service = ServingService(store)
        with tracer.span("backfill.first_query", round_id):
            answer, _, _ = service.query(as_query(hot_requests()[0]), NOW0)

    tally.ops("rows", expected)
    tally.ops("batches", loader.committed_batches)
    tally.ops("sync_steps")
    tally.ops("queries")
    tally.check(
        "ingest committed every row",
        outcome["committed"] == expected,
        f"({outcome['committed']} of {expected})",
    )
    tally.check(
        "grand-total Number_of equals source facts",
        grand_total_count(answer) == expected,
        f"({grand_total_count(answer)} vs {expected})",
    )
    tally.check("verify after first sync", store.verify().ok)
    cube_sizes = {name: cube.n_facts for name, cube in store.cubes.items()}
    materialized = cells_of(store.materialize()) if round_id == 0 else None
    if keep_base_as is not None:
        shutil.copytree(path, keep_base_as)

    tail = inputs.tail[:CRASH_TAIL_DAYS]
    with tracer.span("backfill.tail", round_id):
        for day, facts in tail:
            loader.ingest(facts)
            store.synchronize(day)
    tally.ops("rows", sum(len(facts) for _, facts in tail))
    tally.ops("batches", len(tail))
    tally.ops("sync_steps", len(tail))
    tally.check("verify after tail syncs", store.verify().ok)
    fingerprint = store_fingerprint(store)

    # Crash: the store is abandoned without close(), and a write that
    # never finished is left at the end of the journal.
    with open(os.path.join(path, JOURNAL_FILE), "ab") as journal:
        journal.write(TORN_RECORD)
    gc.collect()
    with clock.section() as recover, tracer.span("backfill.recover", round_id):
        recovered, report = open_durable(path)
    tally.check(
        "recovered fingerprint equals pre-crash",
        store_fingerprint(recovered) == fingerprint,
    )
    tally.check(
        "exactly one torn record discarded",
        report.discarded == 1,
        f"({report.discarded})",
    )
    tally.check("verify after recovery", recovered.verify().ok)
    recovered.close()
    store.close()  # only releases the abandoned journal handle
    shutil.rmtree(path)
    return {
        "ingest": ingest,
        "sync": sync,
        "answer": answer_section,
        "recover": recover,
        "batches": loader.committed_batches,
        "cube_sizes": cube_sizes,
        "replayed_records": report.replayed,
        "discarded_records": report.discarded,
        "materialized": materialized,
    }


def reduce_round(
    inputs: Inputs, round_id: int, clock: Clock, tracer: Tracer = OFF
) -> tuple[Timing, object]:
    """``repro reduce``'s path: one columnar batch reduction."""
    gc.collect()
    with clock.section() as timing, tracer.span("reduce.columnar", round_id):
        reduced = reduce_mo(
            inputs.backfill_mo, inputs.specification, NOW0, backend="columnar"
        )
    return timing, reduced


# ----------------------------------------------------------------------
# nightly: 14 day steps of ingest + refresh on a restored durable base
# ----------------------------------------------------------------------

def restore_base(base_path: str, workdir: str, name: str):
    """Copy the base directory and recover a store from it (untimed)."""
    path = os.path.join(workdir, name)
    shutil.copytree(base_path, path)
    store, _ = open_durable(path)
    return path, store


def newest_snapshot_bytes(path: str) -> int:
    directory = os.path.join(path, SNAPSHOT_DIR)
    newest = max(
        name for name in os.listdir(directory) if name.endswith(".json")
    )
    return os.path.getsize(os.path.join(directory, newest))


def nightly_round(
    inputs: Inputs,
    base_path: str,
    workdir: str,
    round_id: int,
    tally: Tally,
    clock: Clock,
    tracer: Tracer = OFF,
) -> dict:
    """Walk the tail: each step ingests one day and refreshes serving."""
    path, store = restore_base(base_path, workdir, f"nightly-{round_id}")
    service = ServingService(store)
    loader = StreamingLoader(store, batch_size=BATCH_SIZE)
    journal_path = os.path.join(path, JOURNAL_FILE)
    steps: list[Timing] = []
    journal_at_snapshot = 0
    for day, facts in inputs.tail:
        # Left alone, a full collection lands on every other step and
        # adds 20 ms to it; which steps is a matter of the seed.
        gc.collect()
        with clock.section() as step, tracer.span(
            "nightly.step", round_id, day.isoformat()
        ):
            loader.ingest(facts)
            published = service.refresh(day)
        steps.append(step)
        journal_at_snapshot = os.path.getsize(journal_path)
        tally.ops("rows", len(facts))
        tally.ops("batches")
        tally.ops("sync_steps")
        if published is None:
            tally.fail("sync_steps", f"refresh to {day} did not publish")
    tally.check("verify after nightly walk", store.verify().ok)
    stored_bytes = newest_snapshot_bytes(path) + (
        os.path.getsize(journal_path) - journal_at_snapshot
    )
    stored_facts = store.total_facts()
    store.close()
    shutil.rmtree(path)
    return {
        "steps": steps,
        "stored_facts": stored_facts,
        "stored_bytes": stored_bytes,
    }


# ----------------------------------------------------------------------
# query_mix: the schedule in process, then over the wire
# ----------------------------------------------------------------------

def build_memory_store(inputs: Inputs) -> SubcubeStore:
    """The in-memory base, built the way ``repro serve`` builds it."""
    store = SubcubeStore(inputs.template, inputs.specification)
    store.load(inputs.backfill)
    store.synchronize(NOW0)
    return store


def query_round(
    store: SubcubeStore,
    schedule: list[Request],
    round_id: int,
    tally: Tally,
    clock: Clock,
    tracer: Tracer = OFF,
) -> dict:
    """Phase A: the schedule through ``ServingService.query``."""
    clear_plan_caches()
    service = ServingService(store)
    for request in hot_requests():
        service.query(as_query(request), NOW0)
    gc.collect()
    latencies: list[float] = []
    results = []
    with clock.section() as round_timing:
        for index, request in enumerate(schedule):
            sent = _now()
            with tracer.span("query.in_process", round_id, index):
                result, _, _ = service.query(as_query(request), NOW0)
            latencies.append(_now() - sent)
            results.append(result)
    answers: dict[str, list] = {}
    if round_id == 0:
        for request, result in zip(schedule, results):
            if request.shape != "cold_predicate":
                answers.setdefault(request.shape, mo_rows(result))
    tally.ops("queries", len(schedule))
    return {
        "latencies_s": latencies,
        "round": round_timing,
        "answers": answers,
        # The served snapshot counts its own queries.
        "registries": [service.snapshots.current().store.metrics],
    }


def _response_ok(response: dict, tally: Tally, kind: str) -> bool:
    if response.get("ok") and not response.get("degraded"):
        return True
    error = response.get("error") or {}
    tally.fail(kind, f"{response.get('op')} -> {error or 'degraded'}")
    return False


async def _warm_up(client: ServingClient) -> None:
    for request in hot_requests():
        await client.query(
            NOW0.isoformat(), request.predicate, request.granularity
        )


async def _wire_round(
    store: SubcubeStore,
    schedule: list[Request],
    connections: int,
    round_id: int,
    tally: Tally,
    clock: Clock,
) -> dict:
    clear_plan_caches()
    service = ServingService(store)
    server = QueryServer(service, ServerConfig())
    await server.start()
    host, port = server.address
    clients = [WireClient(host, port) for _ in range(connections)]
    latencies = [0.0] * len(schedule)
    answers: dict[str, list] = {}

    async def drive(client: ServingClient, indices: range) -> None:
        for index in indices:
            request = schedule[index]
            sent = _now()
            response = await client.query(
                NOW0.isoformat(), request.predicate, request.granularity
            )
            latencies[index] = _now() - sent
            if _response_ok(response, tally, "wire_requests") and (
                round_id == 0 and request.shape != "cold_predicate"
            ):
                answers.setdefault(request.shape, response["rows"])

    try:
        for client in clients:
            await client.connect()
        await _warm_up(clients[0])
        handled = serving_telemetry.request_histogram(service.metrics)
        handled_before = (handled.count, handled.sum)
        gc.collect()
        with clock.section() as round_timing:
            await asyncio.gather(
                *(
                    drive(client, range(offset, len(schedule), connections))
                    for offset, client in enumerate(clients)
                )
            )
        handler_mean = (handled.sum - handled_before[1]) / max(
            1, handled.count - handled_before[0]
        )
    finally:
        for client in clients:
            await client.close()
        await server.stop()
    tally.ops("wire_requests", len(schedule))
    return {
        "latencies_s": latencies,
        "round": round_timing,
        "handler_mean_s": handler_mean,
        "answers": answers,
    }


def _on_one_cpu(coroutine):
    """Run *coroutine* to completion with the process pinned to one CPU.

    The server's handler threads are GIL-bound, so a second core adds no
    throughput to the wire phases, only cross-CPU wake-ups whose latency
    follows the hypervisor's mood: with both CPUs allowed, ``serve_qps``
    and ``serve_p50_ms`` spread 0.10-0.43 over ten runs of one commit
    (NOISE.md).  The bound-carrying numbers are therefore taken pinned;
    the traced run reports the two-CPU throughput beside them.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return asyncio.run(coroutine)
    finally:
        os.sched_setaffinity(0, allowed)


def wire_round(
    store: SubcubeStore,
    schedule: list[Request],
    connections: int,
    round_id: int,
    tally: Tally,
    clock: Clock,
    pinned: bool = True,
) -> dict:
    """Phase B: the schedule split over closed-loop connections."""
    round_ = _wire_round(store, schedule, connections, round_id, tally, clock)
    return _on_one_cpu(round_) if pinned else asyncio.run(round_)


def check_wire_answers(in_process: dict, wire: dict, tally: Tally) -> None:
    """Wire answers equal the in-process answers, shape by shape."""
    for shape, rows in in_process.items():
        expected = json.loads(json.dumps(rows))
        tally.check(
            f"wire answer equals in-process answer for {shape}",
            wire.get(shape) == expected,
        )


# ----------------------------------------------------------------------
# serve_refresh: a closed-loop reader beside an open-loop refresher
# ----------------------------------------------------------------------

async def _serve_refresh_round(
    inputs: Inputs,
    store: SubcubeStore,
    schedule: list[Request],
    interval: float,
    tally: Tally,
    clock: Clock,
) -> dict:
    # Untimed catch-up to the day before the walk starts.
    caught_up, walk = inputs.tail[:-REFRESH_STEPS], inputs.tail[-REFRESH_STEPS:]
    loader = StreamingLoader(store, batch_size=BATCH_SIZE)
    loader.ingest([fact for _, facts in caught_up for fact in facts])
    store.synchronize(caught_up[-1][0])
    clear_plan_caches()
    service = ServingService(store)
    server = QueryServer(service, ServerConfig())
    await server.start()
    host, port = server.address
    reader = WireClient(host, port)
    refresher = WireClient(host, port)
    done = asyncio.Event()
    read_latencies: list[float] = []
    refresh_latencies: list[float] = []
    refresh_service: list[float] = []
    lateness: list[float] = []
    #: The registry of every version the reader was served from: each
    #: snapshot counts its own queries.
    registries = [service.snapshots.current().store.metrics]
    live_versions_max = 0

    async def read() -> None:
        index = 0
        while not done.is_set():
            request = schedule[index % len(schedule)]
            sent = _now()
            response = await reader.query(
                NOW0.isoformat(), request.predicate, request.granularity
            )
            read_latencies.append(_now() - sent)
            _response_ok(response, tally, "wire_requests")
            index += 1

    async def refresh(started: float) -> None:
        nonlocal live_versions_max
        try:
            for step, (day, facts) in enumerate(walk):
                due = started + step * interval
                await asyncio.sleep(max(0.0, due - _now()))
                lateness.append(max(0.0, _now() - due))
                await asyncio.to_thread(loader.ingest, facts)
                sent = _now()
                response = await refresher.sync(day.isoformat())
                refresh_service.append(_now() - sent)
                refresh_latencies.append(_now() - due)
                if _response_ok(response, tally, "sync_steps") and not (
                    response.get("published")
                ):
                    tally.fail("sync_steps", f"sync to {day} held")
                live_versions_max = max(
                    live_versions_max, len(service.snapshots.live_versions())
                )
                registries.append(
                    service.snapshots.current().store.metrics
                )
        finally:
            done.set()

    try:
        await reader.connect()
        await refresher.connect()
        await _warm_up(reader)
        gc.collect()
        with clock.section() as round_timing:
            await asyncio.gather(read(), refresh(_now()))
    finally:
        await reader.close()
        await refresher.close()
        await server.stop()
    tally.ops("wire_requests", len(read_latencies))
    tally.ops("sync_steps", len(refresh_latencies))
    tally.ops("rows", sum(len(facts) for _, facts in inputs.tail))
    tally.ops("batches", 1 + len(walk))
    tally.check("verify after serve_refresh walk", store.verify().ok)
    return {
        "read_latencies_s": read_latencies,
        "refresh_latencies_s": refresh_latencies,
        "refresh_service_s": refresh_service,
        "lateness_s": lateness,
        "round": round_timing,
        "live_versions_max": live_versions_max,
        "registries": registries,
    }


def serve_refresh_round(
    inputs: Inputs,
    store: SubcubeStore,
    schedule: list[Request],
    interval: float,
    tally: Tally,
    clock: Clock,
) -> dict:
    """One reader connection replays the schedule in a loop while a
    second connection walks the last tail days, one day step every
    *interval* seconds; the round ends when the walk does.  *store* is
    consumed."""
    return _on_one_cpu(
        _serve_refresh_round(inputs, store, schedule, interval, tally, clock)
    )
