"""Synthetic ISP click-stream workloads (the paper's motivating domain).

Generates the same shape of data as the paper's running example, at
configurable scale: a URL dimension with url < domain < domain_grp, a
materialized Time dimension over a date range, and click facts with the
four measures of Table 2 (Number_of, Dwell_time, Delivery_time, Datasize).

URL popularity is Zipf-skewed and click times are uniform per day with a
configurable daily volume, so the age distribution of facts — the thing
reduction actually acts on — is controlled and reproducible.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Iterator

from ..core.builder import MOBuilder, dimension_from_rows, dimension_type_from_chains
from ..core.dimension import Dimension
from ..core.mo import MultidimensionalObject
from ..timedim.builder import build_time_dimension
from ..timedim.calendar import day_value, iter_days
from .rng import make_rng, weighted_choice, zipf_weights

#: Default domain groups and their relative sizes.
DOMAIN_GROUPS = (".com", ".edu", ".org", ".net")


@dataclass(frozen=True)
class ClickstreamConfig:
    """Knobs of the synthetic click-stream."""

    start: _dt.date = _dt.date(1999, 1, 1)
    end: _dt.date = _dt.date(2000, 12, 31)
    domains_per_group: int = 5
    urls_per_domain: int = 4
    clicks_per_day: int = 20
    url_skew: float = 1.1
    seed: int = 42


def build_url_dimension(config: ClickstreamConfig) -> Dimension:
    """A URL dimension with the paper's url < domain < domain_grp chain."""
    rows = list(_url_rows(config))
    dimension_type = dimension_type_from_chains(
        "URL", [["url", "domain", "domain_grp"]]
    )
    return dimension_from_rows(dimension_type, rows)


def _url_rows(config: ClickstreamConfig) -> Iterator[dict[str, str]]:
    for group in DOMAIN_GROUPS:
        for d in range(config.domains_per_group):
            domain = f"site{d}{group}"
            for u in range(config.urls_per_domain):
                yield {
                    "url": f"http://www.{domain}/page{u}",
                    "domain": domain,
                    "domain_grp": group,
                }


def build_clickstream_mo(config: ClickstreamConfig | None = None) -> MultidimensionalObject:
    """A complete click-stream MO: dimensions, schema, and facts."""
    config = config or ClickstreamConfig()
    builder = (
        MOBuilder("Click")
        .with_prebuilt_dimension(
            build_time_dimension(config.start, config.end)
        )
        .with_prebuilt_dimension(build_url_dimension(config))
        .with_measure("Number_of")
        .with_measure("Dwell_time")
        .with_measure("Delivery_time")
        .with_measure("Datasize")
    )
    for fact_id, coordinates, measures in generate_clicks(config):
        builder.with_fact(fact_id, coordinates, measures)
    return builder.build()


def generate_clicks(
    config: ClickstreamConfig | None = None,
) -> Iterator[tuple[str, dict[str, str], dict[str, object]]]:
    """Click facts as ``(id, coordinates, measures)`` triples.

    Usable directly with :meth:`Warehouse.load` and
    :meth:`SubcubeStore.load` for incremental-loading scenarios.
    """
    config = config or ClickstreamConfig()
    rng = make_rng(config.seed)
    urls = [row["url"] for row in _url_rows(config)]
    weights = zipf_weights(len(urls), config.url_skew)
    counter = 0
    for date in iter_days(config.start, config.end):
        day = day_value(date)
        for _ in range(config.clicks_per_day):
            url = weighted_choice(rng, urls, weights)
            yield (
                f"click_{counter}",
                {"Time": day, "URL": url},
                {
                    "Number_of": 1,
                    "Dwell_time": rng.randint(1, 3000),
                    "Delivery_time": rng.randint(1, 10),
                    "Datasize": rng.randint(1, 120),
                },
            )
            counter += 1


def tiered_retention_actions(
    mo: MultidimensionalObject,
    detail_months: int = 6,
    month_years: int = 3,
) -> list:
    """The paper's introduction policy: keep detail for *detail_months*,
    then monthly sums until *month_years* years, then yearly sums.

    Returns bound actions ready for a :class:`ReductionSpecification`.
    """
    from ..spec.action import Action

    month_action = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain] "
        f"o[Time.month <= NOW - {detail_months} months]",
        "to_month",
    )
    year_action = Action.parse(
        mo.schema,
        "a[Time.year, URL.domain_grp] "
        f"o[Time.year <= NOW - {month_years} years]",
        "to_year",
    )
    return [month_action, year_action]


def grouped_retention_actions(
    mo: MultidimensionalObject,
    detail_months: int = 3,
    coarse_years: int = 2,
) -> list:
    """A per-group retention policy in three tiers.

    ``.com`` traffic keeps domain detail at monthly resolution, ``.edu``
    traffic only group detail, and everything folds to yearly sums after
    *coarse_years*.  The ``.com``/``.edu`` month tiers constrain the same
    category with disjoint constants — the specification the pipeline
    benchmark reduces.
    """
    from ..spec.action import Action

    com_action = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain] o[URL.domain_grp = '.com' AND "
        f"Time.month <= NOW - {detail_months} months]",
        "to_month_com",
    )
    edu_action = Action.parse(
        mo.schema,
        "a[Time.month, URL.domain_grp] o[URL.domain_grp = '.edu' AND "
        f"Time.month <= NOW - {detail_months} months]",
        "to_month_edu",
    )
    year_action = Action.parse(
        mo.schema,
        "a[Time.year, URL.domain_grp] "
        f"o[Time.year <= NOW - {coarse_years} years]",
        "to_year",
    )
    return [com_action, edu_action, year_action]
