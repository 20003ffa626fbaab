"""The untraced run: rounds of every phase, then the end-to-end metrics.

A run executes each phase its mandatory number of rounds, pass by pass,
so the rounds of one phase lie seconds apart and do not share one burst
of interference; the named workload then spends what ``--seconds``
leaves on extra rounds of the phases it owns.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass

import phases
from calibration import Clock, Timing
from catalogue import END_TO_END, OWNED_PHASES, PHASES, Profile
from estimators import best_of, per_item_min, quantile, schedule_quantile
from inputs import NOW0, Inputs, Request, build_inputs
from repro.engine.store import SubcubeStore
from repro.reduction import reduce_mo

#: The interpretive oracle runs on a strided sample of about this many
#: facts, which spans every retention tier in well under a second.
ORACLE_SAMPLE = 3000

#: Seconds past ``--seconds`` by which the mandatory rounds may run.  On
#: a quiet machine three passes take 24 s; when it runs a half slower
#: they would take a run past the 37 s the driver allows it, so rounds
#: beyond the second start only if they end in time.
OVERRUN = 6.0
#: The order in which phases get those rounds.  A metric that is the
#: best of R single sections (ingest, first sync, recovery, batch
#: reduce, a wire round) loses most with its third round; one that is a
#: quantile over per-item minima (64 requests, 13 day steps) loses least.
LAST_ROUNDS_FIRST = (
    "setup", "backfill", "reduce", "wire", "serve_refresh", "query", "nightly"
)

_now = time.perf_counter


@dataclass(frozen=True)
class Plan:
    workload: str
    seconds: float
    profile: Profile
    connections: int

    @property
    def rounds(self) -> dict[str, int]:
        return self.profile.rounds_for(self.workload)


class Rounds:
    """Runs phase rounds on demand and keeps what each returned."""

    def __init__(
        self,
        inputs: Inputs,
        schedule: list[Request],
        plan: Plan,
        workdir: str,
        tally: phases.Tally,
        clock: Clock,
        setup: Timing,
    ) -> None:
        self.clock = clock
        self.inputs = inputs
        self.schedule = schedule
        self.plan = plan
        self.workdir = workdir
        self.tally = tally
        self.base_path = os.path.join(workdir, "base")
        self.done: dict[str, list] = {phase: [] for phase in PHASES}
        self.done["setup"].append(setup)
        self.reduced = None
        #: Wall seconds per phase, untimed restores and checks included.
        self.wall: dict[str, float] = {phase: 0.0 for phase in PHASES}
        self._read_store: SubcubeStore | None = None

    def read_store(self) -> SubcubeStore:
        """The in-memory base the read-only phases share."""
        if self._read_store is None:
            self._read_store = phases.build_memory_store(self.inputs)
        return self._read_store

    def run(self, phase: str) -> None:
        started = _now()
        round_id = len(self.done[phase])
        if phase == "setup":
            # Into a directory of its own: the facts file of the first
            # set-up stays as the other phases read it.
            again = os.path.join(self.workdir, "setup-again")
            result, _ = setup_round(self.inputs.config, again, self.clock)
            shutil.rmtree(again)
        elif phase == "backfill":
            result = phases.backfill_round(
                self.inputs,
                self.workdir,
                round_id,
                self.tally,
                self.clock,
                keep_base_as=self.base_path if round_id == 0 else None,
            )
        elif phase == "reduce":
            result, self.reduced = phases.reduce_round(
                self.inputs, round_id, self.clock
            )
        elif phase == "nightly":
            result = phases.nightly_round(
                self.inputs,
                self.base_path,
                self.workdir,
                round_id,
                self.tally,
                self.clock,
            )
        elif phase == "query":
            result = phases.query_round(
                self.read_store(),
                self.schedule,
                round_id,
                self.tally,
                self.clock,
            )
        elif phase == "wire":
            result = phases.wire_round(
                self.read_store(),
                self.schedule,
                self.plan.connections,
                round_id,
                self.tally,
                self.clock,
            )
        else:
            result = phases.serve_refresh_round(
                self.inputs,
                phases.build_memory_store(self.inputs),
                self.schedule,
                self.plan.profile.refresh_interval,
                self.tally,
                self.clock,
            )
        self.done[phase].append(result)
        self.wall[phase] += _now() - started


def setup_round(config, directory: str, clock: Clock) -> tuple[Timing, Inputs]:
    """One timed set-up into an empty *directory*."""
    os.makedirs(directory)
    gc.collect()
    with clock.section() as timing:
        inputs = build_inputs(config.seed, config.clicks_per_day, directory)
    return timing, inputs


def run_rounds(
    inputs: Inputs,
    schedule: list[Request],
    plan: Plan,
    workdir: str,
    tally: phases.Tally,
    clock: Clock,
    setup: Timing,
) -> dict:
    """*setup* is the timing of the set-up that built *inputs*: round 0
    of the ``setup`` phase."""
    rounds = Rounds(inputs, schedule, plan, workdir, tally, clock, setup)
    mandatory = plan.rounds
    deadline = _now() + plan.seconds

    def fits(phase: str, until: float) -> bool:
        """Whether another round of *phase* would end by *until*, going
        by what its rounds have cost so far."""
        cost = rounds.wall[phase] / len(rounds.done[phase])
        return _now() + cost <= until

    for pass_index in range(max(mandatory.values())):
        # Two passes run whatever they take.  From the third on a round
        # starts only if it ends within OVERRUN of the budget, and the
        # phases that need it most go first.
        for phase in PHASES if pass_index < 2 else LAST_ROUNDS_FIRST:
            if len(rounds.done[phase]) <= pass_index < mandatory[phase] and (
                pass_index < 2 or fits(phase, deadline + OVERRUN)
            ):
                rounds.run(phase)
    # What is left of the budget goes to the phases the workload owns.
    owned = [p for p in OWNED_PHASES[plan.workload] if rounds.done[p]]
    while owned:
        owned = [
            phase
            for phase in owned
            if len(rounds.done[phase]) < plan.profile.rounds_max
            and fits(phase, deadline)
        ]
        for phase in owned:
            rounds.run(phase)
    return {
        "rounds": rounds.done,
        "reduced": rounds.reduced,
        "values": {
            **raw_values(rounds.done, clock),
            "wall_by_phase_s": rounds.wall,
        },
    }


def raw_values(done: dict[str, list], clock: Clock) -> dict:
    """The per-round numbers the result document records: wall seconds
    as measured, and each timed section's slowdown (1 = quiet state)."""
    sections: dict[str, list[Timing]] = {"setup": done["setup"]}
    if done["backfill"]:
        for name in ("ingest", "sync", "answer", "recover"):
            sections[f"backfill.{name}"] = [r[name] for r in done["backfill"]]
    sections["reduce"] = done["reduce"]
    for phase in ("query", "wire", "serve_refresh"):
        sections[phase] = [r["round"] for r in done[phase]]
    sections = {name: t for name, t in sections.items() if t}
    values: dict = {
        f"{name}_s": [timing.seconds for timing in timings]
        for name, timings in sections.items()
    }
    values["slowdown"] = {
        name: [clock.slowdown(timing) for timing in timings]
        for name, timings in sections.items()
    }
    if done["backfill"]:
        values["backfill.cube_sizes"] = done["backfill"][0]["cube_sizes"]
    if done["nightly"]:
        steps = [r["steps"] for r in done["nightly"]]
        values["nightly.steps_s"] = [[t.seconds for t in r] for r in steps]
        values["slowdown"]["nightly.steps"] = [
            [clock.slowdown(t) for t in r] for r in steps
        ]
        values["nightly.stored"] = {
            "facts": done["nightly"][0]["stored_facts"],
            "bytes": done["nightly"][0]["stored_bytes"],
        }
    for phase in ("query", "wire"):
        if done[phase]:
            values[f"{phase}.round_p50_s"] = [
                quantile(r["latencies_s"], 0.5) for r in done[phase]
            ]
    mixed = done["serve_refresh"]
    if mixed:
        values["serve_refresh.requests"] = [
            len(r["read_latencies_s"]) for r in mixed
        ]
        values["serve_refresh.round_p50_s"] = [
            quantile(r["read_latencies_s"], 0.5) for r in mixed
        ]
        values["serve_refresh.refresh_round_p50_s"] = [
            quantile(r["refresh_latencies_s"], 0.5) for r in mixed
        ]
        values["serve_refresh.lateness_max_s"] = [
            max(r["lateness_s"]) for r in mixed
        ]
    values["calibration"] = {
        "reference_s": clock.reference(),
        "fastest_s": min(clock.samples),
        "slowest_s": max(clock.samples),
        "samples": len(clock.samples),
    }
    return values


def final_checks(inputs: Inputs, raw: dict, tally: phases.Tally) -> None:
    """The correctness gate's cross-checks (untimed), on what ran."""
    done = raw["rounds"]
    stride = max(1, len(inputs.backfill) // ORACLE_SAMPLE)
    sample = inputs.backfill[::stride]
    sample_mo = inputs.template.empty_like()
    for fact_id, coordinates, measures in sample:
        sample_mo.insert_fact(fact_id, coordinates, measures)
    oracle = phases.cells_of(
        reduce_mo(sample_mo, inputs.specification, NOW0, "interpretive")
    )
    tally.check(
        "reduce_mo(columnar) equals the interpretive oracle on the sample",
        phases.cells_of(
            reduce_mo(sample_mo, inputs.specification, NOW0, "columnar")
        )
        == oracle,
    )
    sample_store = SubcubeStore(inputs.template, inputs.specification)
    sample_store.load(sample)
    sample_store.synchronize(NOW0)
    tally.check(
        "store.materialize() equals the interpretive oracle on the sample",
        phases.cells_of(sample_store.materialize()) == oracle,
    )
    if done["backfill"] and raw["reduced"] is not None:
        tally.check(
            "store.materialize() equals reduce_mo(columnar) at NOW0",
            done["backfill"][0]["materialized"]
            == phases.cells_of(raw["reduced"]),
        )
    if done["query"] and done["wire"]:
        phases.check_wire_answers(
            done["query"][0]["answers"], done["wire"][0]["answers"], tally
        )
    if done["nightly"]:
        stored = {
            (r["stored_facts"], r["stored_bytes"]) for r in done["nightly"]
        }
        tally.check(
            "every nightly round stores the same facts", len(stored) == 1
        )


def shape_p50s(schedule: list[Request], minima: list[float]) -> dict:
    """Shape -> p50 of that shape's per-request minima, in seconds."""
    by_shape: dict[str, list[float]] = {}
    for request, seconds in zip(schedule, minima):
        by_shape.setdefault(request.shape, []).append(seconds)
    return {shape: quantile(v, 0.5) for shape, v in by_shape.items()}


def end_to_end(
    inputs: Inputs,
    schedule: list[Request],
    plan: Plan,
    raw: dict,
    clock: Clock | None,
) -> dict:
    """Estimators over the rounds of the phases that ran; see
    ``catalogue.END_TO_END``.  With a *clock*, every timed section is
    taken in quiet-machine seconds (``calibration.py``); without, as
    wall seconds.  An owner-only profile reports only the metrics the
    named workload owns."""
    done = raw["rounds"]
    facts = len(inputs.backfill)

    def slowdown(timing: Timing) -> float:
        return clock.slowdown(timing) if clock is not None else 1.0

    def seconds(timing: Timing) -> float:
        return timing.seconds / slowdown(timing)

    def items(round_: dict, key: str) -> list[float]:
        """A round's per-request seconds; the round's bracket covers
        them all."""
        factor = slowdown(round_["round"])
        return [value / factor for value in round_[key]]

    metrics: dict[str, float] = {
        "setup_s": best_of([seconds(timing) for timing in done["setup"]])
    }
    if done["backfill"]:
        backfill = done["backfill"]
        metrics.update(
            {
                "ingest_facts_per_s": facts
                / best_of([seconds(r["ingest"]) for r in backfill]),
                "sync_facts_per_s": facts
                / best_of([seconds(r["sync"]) for r in backfill]),
                # File open to first answer: three sections back to back.
                "backfill_to_first_answer_s": best_of(
                    [
                        seconds(r["ingest"])
                        + seconds(r["sync"])
                        + seconds(r["answer"])
                        for r in backfill
                    ]
                ),
                "recover_s": best_of(
                    [seconds(r["recover"]) for r in backfill]
                ),
            }
        )
    if done["reduce"]:
        metrics["batch_reduce_facts_per_s"] = facts / best_of(
            [seconds(timing) for timing in done["reduce"]]
        )
    if done["nightly"]:
        nightly = done["nightly"][0]
        # Every day step has its own bracket.
        step_minima = per_item_min(
            [[seconds(step) for step in r["steps"]] for r in done["nightly"]]
        )
        metrics.update(
            {
                "stored_facts_per_source_fact": nightly["stored_facts"]
                / inputs.source_facts,
                "stored_bytes_per_source_fact": nightly["stored_bytes"]
                / inputs.source_facts,
                "day_step_p50_ms": 1e3 * quantile(step_minima[:-1], 0.5),
                "rollover_step_ms": 1e3 * step_minima[-1],
            }
        )
    if done["query"]:
        query_minima = per_item_min(
            [items(r, "latencies_s") for r in done["query"]]
        )
        metrics.update(
            {
                "query_p50_ms": 1e3 * quantile(query_minima, 0.5),
                "query_worst_shape_ms": 1e3
                * max(shape_p50s(schedule, query_minima).values()),
            }
        )
    if done["serve_refresh"]:
        metrics["refresh_p50_ms"] = 1e3 * schedule_quantile(
            [items(r, "refresh_latencies_s") for r in done["serve_refresh"]]
        )
    if plan.workload == "serve_refresh":
        # One reader beside one refresher.  The refresher's eight bursts
        # fall on other requests in every round, and a round's own p50
        # flips by which ones they hit; the per-request minimum is the
        # reader's latency between refresh steps (the reader loops, so
        # the minimum is over the prefix every round completed), and
        # serve_qps carries what the refresher takes from it.
        mixed = done["serve_refresh"]
        metrics["serve_qps"] = best_of(
            [len(r["read_latencies_s"]) / seconds(r["round"]) for r in mixed],
            "higher",
        )
        metrics["serve_p50_ms"] = 1e3 * schedule_quantile(
            [items(r, "read_latencies_s") for r in mixed]
        )
    elif done["wire"]:
        # Closed loop, plan.connections symmetric connections, no
        # writes.  Every request runs beside another, so its minimum
        # over rounds keeps falling with R towards the uncontended
        # latency; each round's own p50 is what a client sees, and the
        # best round leaves the disturbed ones out.
        metrics["serve_qps"] = len(schedule) / best_of(
            [seconds(r["round"]) for r in done["wire"]]
        )
        metrics["serve_p50_ms"] = 1e3 * best_of(
            [quantile(items(r, "latencies_s"), 0.5) for r in done["wire"]]
        )
    if plan.profile.owner_only:
        metrics = {
            name: value
            for name, value in metrics.items()
            if plan.workload in END_TO_END[name][1]
        }
    return metrics
