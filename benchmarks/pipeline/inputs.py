"""The seeded data profile and request schedule every workload shares.

Only this module turns ``--seed`` into inputs; the program under test
sees the generated JSONL file, fact rows and query requests, never the
seed.  The calendar is the issue's (1998-01-01 .. 2001-01-31, NOW0 =
2000-11-17, a 14-day tail ending on a month rollover); the daily volume
comes from the run's profile (``catalogue.py``).
"""

from __future__ import annotations

import datetime as dt
import json
import os
import random
from dataclasses import dataclass, replace

from repro.core.hierarchy import TOP
from repro.spec.specification import ReductionSpecification
from repro.workload import (
    ClickstreamConfig,
    build_clickstream_mo,
    generate_clicks,
    grouped_retention_actions,
)

START = dt.date(1998, 1, 1)
END = dt.date(2001, 1, 31)
BACKFILL_END = dt.date(2000, 11, 16)
NOW0 = dt.date(2000, 11, 17)
TAIL_START = dt.date(2000, 11, 18)
TAIL_END = dt.date(2000, 12, 1)  # a month rollover: September folds
#: Tail days the backfill round loads before it crashes the store.
CRASH_TAIL_DAYS = 7

#: The serve_refresh refresher walks the last REFRESH_STEPS tail days
#: (the rollover included), open loop.
REFRESH_STEPS = 8

#: Requests per schedule replay: 1 in 8 grand totals, 1 in 4 cold
#: predicates, the rest spread over the six hot shapes.
SCHEDULE_LENGTH = 64

HOT_SHAPES = (
    "year_grp_com",
    "month_domain_all",
    "recent_day_domain",
    "one_domain_quarter",
    "edu_1999_month",
    "finer_than_stored",
)
SHAPES = ("grand_total", *HOT_SHAPES, "cold_predicate")


@dataclass(frozen=True)
class Request:
    """One query of the schedule, as it goes over the wire."""

    shape: str
    predicate: str | None
    granularity: dict[str, str]


@dataclass
class Inputs:
    """Everything set-up produces for one seed."""

    config: ClickstreamConfig
    facts_path: str
    backfill: list[tuple]
    tail: list[tuple[dt.date, list[tuple]]]
    template: object
    specification: ReductionSpecification
    backfill_mo: object

    @property
    def source_facts(self) -> int:
        return len(self.backfill) + sum(len(day) for _, day in self.tail)


def clickstream_config(seed: int, clicks_per_day: int) -> ClickstreamConfig:
    return ClickstreamConfig(
        start=START,
        end=END,
        domains_per_group=5,
        urls_per_domain=10,
        clicks_per_day=clicks_per_day,
        url_skew=1.1,
        seed=seed,
    )


def _day_of(fact: tuple) -> dt.date:
    year, month, day = fact[1]["Time"].split("/")
    return dt.date(int(year), int(month), int(day))


def build_inputs(seed: int, clicks_per_day: int, workdir: str) -> Inputs:
    """The set-up: generate, write the JSONL file, compile the spec,
    build the in-memory MO the batch reducer consumes."""
    config = clickstream_config(seed, clicks_per_day)
    backfill: list[tuple] = []
    tail_days: dict[dt.date, list[tuple]] = {}
    for fact in generate_clicks(config):
        day = _day_of(fact)
        if day <= BACKFILL_END:
            backfill.append(fact)
        elif TAIL_START <= day <= TAIL_END:
            tail_days.setdefault(day, []).append(fact)
    facts_path = os.path.join(workdir, "clicks.jsonl")
    with open(facts_path, "w", encoding="utf-8") as stream:
        for fact_id, coordinates, measures in backfill:
            stream.write(
                json.dumps(
                    {
                        "id": fact_id,
                        "coordinates": coordinates,
                        "measures": measures,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    template = build_clickstream_mo(replace(config, clicks_per_day=0))
    specification = ReductionSpecification(
        grouped_retention_actions(template, detail_months=3, coarse_years=2),
        template.dimensions,
    )
    # The generator draws one RNG stream day by day, so the MO of the
    # shorter range holds exactly the backfill facts.
    backfill_mo = build_clickstream_mo(replace(config, end=BACKFILL_END))
    return Inputs(
        config=config,
        facts_path=facts_path,
        backfill=backfill,
        tail=sorted(tail_days.items()),
        template=template,
        specification=specification,
        backfill_mo=backfill_mo,
    )


def _shape(name: str, constant: str | None = None) -> Request:
    if name == "grand_total":
        return Request(name, None, {"Time": TOP, "URL": TOP})
    if name == "year_grp_com":
        return Request(
            name,
            "URL.domain_grp = '.com'",
            {"Time": "year", "URL": "domain_grp"},
        )
    if name == "month_domain_all":
        return Request(name, None, {"Time": "month", "URL": "domain"})
    if name == "recent_day_domain":
        return Request(
            name,
            "Time.month >= NOW - 2 months",
            {"Time": "day", "URL": "domain"},
        )
    if name == "one_domain_quarter":
        return Request(
            name,
            "URL.domain = 'site0.com'",
            {"Time": "quarter", "URL": "domain"},
        )
    if name == "edu_1999_month":
        return Request(
            name,
            "URL.domain_grp = '.edu' AND Time.year = '1999'",
            {"Time": "month", "URL": "domain_grp"},
        )
    if name == "finer_than_stored":
        # Day x url over months the store already folded: the answer
        # comes back at the stored granularity (availability semantics).
        return Request(
            name, "Time.year = '1999'", {"Time": "day", "URL": "url"}
        )
    if name == "cold_predicate":
        return Request(
            name, f"URL.url = '{constant}'", {"Time": "month", "URL": "url"}
        )
    raise ValueError(f"unknown query shape {name!r}")


def hot_requests() -> list[Request]:
    """One request per repeating shape (the warm-up set)."""
    return [_shape("grand_total"), *(_shape(name) for name in HOT_SHAPES)]


def build_schedule(seed: int, length: int = SCHEDULE_LENGTH) -> list[Request]:
    """The fixed request schedule of one seed.

    Built in blocks of eight — one grand total, two cold predicates,
    five hot shapes — shuffled inside the block, so the mix holds over
    every prefix a shorter round replays.
    """
    rng = random.Random(seed)
    urls = [
        f"http://www.site{d}{group}/page{u}"
        for group in (".com", ".edu", ".org", ".net")
        for d in range(5)
        for u in range(10)
    ]
    cold = rng.sample(urls, length // 4)
    schedule: list[Request] = []
    hot = 0
    for _ in range(length // 8):
        block = [_shape("grand_total")]
        block += [_shape("cold_predicate", cold.pop()) for _ in range(2)]
        for _ in range(5):
            block.append(_shape(HOT_SHAPES[hot % len(HOT_SHAPES)]))
            hot += 1
        rng.shuffle(block)
        schedule.extend(block)
    return schedule
