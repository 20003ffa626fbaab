"""What ``BENCHMARK.json`` cannot hold: profiles, estimators, owners.

``BENCHMARK.json`` (repo root) is the contract the driver reads — names,
units, directions and bounds, nothing else.  This module adds the three
fixed profiles (volume and rounds) and, per end-to-end metric, the
estimator that produces it and the workloads that *own* it: the owning
workload spends the rest of ``--seconds`` on extra rounds of its own
phases, so its numbers are the ones to quote.  ``FULL_BOUNDS`` are the
regression bounds ``compare.py`` holds full-profile runs to.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

#: ``setup`` is the run's set-up (``inputs.build_inputs``).  Its first
#: round builds the inputs every other phase uses; the later ones repeat
#: it between passes, so ``setup_s`` is estimated like any batch phase.
PHASES = (
    "setup", "backfill", "reduce", "nightly", "query", "wire", "serve_refresh"
)

#: Phases each workload owns: it spends its extra rounds on them, and
#: under ``--full`` runs nothing else.
OWNED_PHASES = {
    "backfill": ("backfill", "reduce"),
    "nightly": ("nightly",),
    "query_mix": ("query", "wire"),
    "serve_refresh": ("serve_refresh",),
}
#: A nightly round restores the directory a backfill round left.
PREREQUISITES = {"nightly": ("backfill",)}


@dataclass(frozen=True)
class Profile:
    """One fixed size of the benchmark: volume, rounds, pacing."""

    name: str
    clicks_per_day: int
    #: Rounds of each phase; 3 or more wherever a number is reported.
    #: When ``--seconds`` runs out on a slowed machine, rounds beyond
    #: the second are dropped (``measure.LAST_ROUNDS_FIRST``).
    rounds: dict[str, int]
    #: The cap on the extra rounds the named workload spends the rest
    #: of ``--seconds`` on, for the phases it owns (0: none).
    rounds_max: int
    #: Run only the named workload's phases (and what they restore
    #: from), and report only the metrics that workload owns.
    owner_only: bool
    #: Seconds between the refresher's day steps: about twice what a
    #: step costs beside a busy reader, so its backlog does not grow.
    refresh_interval: float
    #: Report timed sections as wall seconds ÷ measured slowdown
    #: (``calibration.py``).  For sections well under a second, which a
    #: spell covers whole; a section of many seconds averages the jitter
    #: itself, and two samples that far apart say little about it.
    discount: bool

    def rounds_for(self, workload: str) -> dict[str, int]:
        """Mandatory rounds of each phase in a run of *workload*."""
        if not self.owner_only:
            return dict(self.rounds)
        owned = OWNED_PHASES[workload]
        needed = {p for o in owned for p in PREREQUISITES.get(o, ())}
        return {
            phase: self.rounds[phase]
            if phase in owned or phase == "setup"
            else int(phase in needed)
            for phase in PHASES
        }


#: What the driver runs: the largest volume at which every phase gets
#: three rounds in every run inside the time cap (README, "Scale").
DRIVER = Profile(
    name="driver",
    clicks_per_day=6,  # 6.3k backfill facts
    # A batch reduction takes 50 ms, so it gets issue 15's five rounds.
    rounds={**dict.fromkeys(PHASES, 3), "reduce": 5},
    rounds_max=6,
    owner_only=False,
    refresh_interval=0.15,
    discount=True,
)
#: Issue 15's volume, rounds and estimators (plain wall seconds), run by
#: hand (``--full``): about 105k backfill facts, each workload alone,
#: 1.5 to 3 minutes a run.
FULL = Profile(
    name="full",
    clicks_per_day=100,
    rounds={
        "setup": 3,
        "backfill": 4,
        "reduce": 5,
        "nightly": 4,
        "query": 3,
        "wire": 3,
        "serve_refresh": 3,
    },
    rounds_max=0,
    owner_only=True,
    refresh_interval=3.0,
    discount=False,
)
#: ``--smoke``: for the self-tests only, never reported.
SMOKE = Profile(
    name="smoke",
    clicks_per_day=2,
    rounds=dict.fromkeys(PHASES, 2),
    rounds_max=2,
    owner_only=False,
    refresh_interval=0.05,
    discount=True,
)

BEST = "best of R rounds"
PER_ITEM = "per-item min over R rounds, then p50 over the schedule"
EXACT = "exact count"
EVERY = tuple(OWNED_PHASES)

#: name -> (estimator, owning workloads).  Keys must equal the
#: ``end_to_end`` names of BENCHMARK.json (a self-test holds them to it).
END_TO_END = {
    "setup_s": (BEST, EVERY),
    "ingest_facts_per_s": (BEST, ("backfill",)),
    "sync_facts_per_s": (BEST, ("backfill",)),
    "backfill_to_first_answer_s": (BEST, ("backfill",)),
    "recover_s": (BEST, ("backfill",)),
    "batch_reduce_facts_per_s": (BEST, ("backfill",)),
    "stored_facts_per_source_fact": (EXACT, ("nightly",)),
    "stored_bytes_per_source_fact": (EXACT, ("nightly",)),
    "day_step_p50_ms": (PER_ITEM, ("nightly",)),
    "rollover_step_ms": ("min over R rounds of the last step", ("nightly",)),
    "query_p50_ms": (PER_ITEM, ("query_mix",)),
    "query_worst_shape_ms": (
        "per-item min over R rounds, then p50 of the slowest shape",
        ("query_mix",),
    ),
    "serve_qps": ("best round", ("query_mix", "serve_refresh")),
    "serve_p50_ms": (
        "p50 over each round's requests, best round; on serve_refresh "
        "per-request min over R rounds, then p50",
        ("query_mix", "serve_refresh"),
    ),
    "refresh_p50_ms": (PER_ITEM, ("serve_refresh",)),
    "peak_rss_mb": ("ru_maxrss at exit", EVERY),
}


#: Issue 15's regression bounds.  They hold at its volume, where a timed
#: section lasts seconds (NOISE.md, "The full profile"), and
#: ``compare.py`` applies them to ``--full`` documents;
#: ``BENCHMARK.json`` carries the wider ones the driver profile needs.
FULL_BOUNDS = {
    "setup_s": 0.20,
    "ingest_facts_per_s": 0.10,
    "sync_facts_per_s": 0.10,
    "backfill_to_first_answer_s": 0.10,
    "recover_s": 0.10,
    "batch_reduce_facts_per_s": 0.10,
    "stored_facts_per_source_fact": 0.005,
    "stored_bytes_per_source_fact": 0.005,
    "day_step_p50_ms": 0.10,
    "rollover_step_ms": 0.10,
    "query_p50_ms": 0.10,
    "query_worst_shape_ms": 0.10,
    "serve_qps": 0.10,
    "serve_p50_ms": 0.10,
    ("serve_refresh", "serve_qps"): 0.15,
    ("serve_refresh", "serve_p50_ms"): 0.15,
    "refresh_p50_ms": 0.15,
    "peak_rss_mb": 0.05,
}


def bound_for(
    profile: str, workload: str, name: str, declared: float | None
) -> float | None:
    """The bound ``compare.py`` holds (*workload*, *name*) to: the one
    *declared* in BENCHMARK.json, or issue 15's on full-profile runs."""
    if declared is None or profile != FULL.name:
        return declared
    return FULL_BOUNDS.get((workload, name), FULL_BOUNDS[name])


def load_benchmark() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as s:
        return json.load(s)


def units(section: str) -> dict[str, str]:
    """name -> unit of one BENCHMARK.json metric section."""
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}
