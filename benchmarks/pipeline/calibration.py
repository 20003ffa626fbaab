"""Discounting the machine's slow spells from timed sections.

The virtual machine this benchmark is sized for drifts between a quiet
state and spells, seconds to minutes long, in which *all* Python code —
the program's and a bare loop alike — runs 1.2x to 2x slower, with no
steal time reported.  When a whole run, or every round of a phase, falls
into such a spell, no minimum over rounds can recover the quiet time,
and two runs of one commit differ by 30-70 %.

So every timed section is bracketed by a fixed calibration loop, and
reported as measured seconds divided by the section's *slowdown*: how
much slower than its quiet-state time the loop ran around the section.
The slowdown takes the faster of the two bracket samples, so that one
disturbed sample, or a spell that ends mid-section, can only leave a
section under-discounted, and it is never below 1, so a section timed
on a quiet machine is reported exactly as measured.  Raw seconds and
slowdowns are both kept in the result document.

Only profiles with ``discount`` set report this way (``catalogue.py``):
the sections of ``--full`` last many seconds, average the jitter
themselves, and are reported as wall seconds.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: One calibration sample is the fastest of UNIT_REPEATS runs of a loop
#: of UNIT_ITERATIONS: about 10 ms in all.  On a quiet machine a single
#: loop still reads 1.2x slow one time in four, and a reading like that
#: would discount a section that ran at full speed; the fastest of
#: three reads within 1.03x of quiet three times in four.
UNIT_ITERATIONS = 20_000
UNIT_REPEATS = 3
#: Samples this close to the fastest one belong to the quiet state.
QUIET_BAND = 1.3
#: A bracket sample this recent is reused, so sections that follow one
#: another (with at most a garbage collection between) share it.
REUSE_SECONDS = 0.05


def unit_seconds() -> float:
    """One calibration sample.  The loop does dict and str work, like
    the program's own per-fact code."""
    fastest = float("inf")
    for _ in range(UNIT_REPEATS):
        started = time.perf_counter()
        table = {}
        for index in range(UNIT_ITERATIONS):
            table[str(index)] = index * 2
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


@dataclass
class Timing:
    """One timed section: raw seconds and the samples that bracket it."""

    seconds: float = 0.0
    before: float = 0.0
    after: float = 0.0


class Clock:
    """Times sections and keeps the calibration samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last_at = float("-inf")

    def sample(self) -> float:
        seconds = unit_seconds()
        self.samples.append(seconds)
        self._last_at = time.perf_counter()
        return seconds

    @contextmanager
    def section(self) -> Iterator[Timing]:
        recent = time.perf_counter() - self._last_at < REUSE_SECONDS
        timing = Timing(before=self.samples[-1] if recent else self.sample())
        started = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - started
            timing.after = self.sample()

    def reference(self) -> float:
        """The loop's quiet-state time: the median of the samples within
        QUIET_BAND of the fastest."""
        fastest = min(self.samples)
        return statistics.median(
            s for s in self.samples if s <= fastest * QUIET_BAND
        )

    def slowdown(self, timing: Timing) -> float:
        """How much slower than quiet the machine ran around *timing*."""
        return max(1.0, min(timing.before, timing.after) / self.reference())
