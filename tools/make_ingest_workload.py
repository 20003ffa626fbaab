#!/usr/bin/env python3
"""Materialize the ingest benchmark workload as loadable files.

Usage::

    python tools/make_ingest_workload.py --out-dir ingest-work [--smoke]

Writes three files the ``repro load`` command consumes directly:

* ``clicks.jsonl`` — one ``{"id", "coordinates", "measures"}`` row per
  clickstream fact (102,340 facts for the full profile, 3,600 for
  ``--smoke``), a deterministic stream (seed 1234);
* ``template.json`` — the empty clickstream MO (schema + dimensions)
  for ``--mo`` store creation;
* ``spec.txt`` — the grouped-retention reduction specification for
  ``--spec``.

The CI ``ingest-smoke`` job uses this to drive a real 100k-fact
``repro load`` with a throughput floor; it is equally handy for local
profiling against a file-based source instead of an in-process one.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from dataclasses import replace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.io import dump_specification, mo_to_dict  # noqa: E402
from repro.spec.specification import ReductionSpecification  # noqa: E402
from repro.workload import (  # noqa: E402
    ClickstreamConfig,
    build_clickstream_mo,
    generate_clicks,
    grouped_retention_actions,
)

#: 731 days x 140 clicks/day = 102,340 facts.
FULL_CONFIG = ClickstreamConfig(
    start=dt.date(1999, 1, 1),
    end=dt.date(2000, 12, 31),
    domains_per_group=3,
    urls_per_domain=3,
    clicks_per_day=140,
    seed=1234,
)

#: CI-sized: 90 days x 40 clicks/day = 3,600 facts.
SMOKE_CONFIG = replace(
    FULL_CONFIG, end=dt.date(1999, 3, 31), clicks_per_day=40
)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, dest="out_dir")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload (3,600 facts) instead of the full 102,340",
    )
    arguments = parser.parse_args(argv)
    config = SMOKE_CONFIG if arguments.smoke else FULL_CONFIG
    os.makedirs(arguments.out_dir, exist_ok=True)

    template = build_clickstream_mo(replace(config, clicks_per_day=0))
    specification = ReductionSpecification(
        grouped_retention_actions(template, detail_months=3, coarse_years=2),
        template.dimensions,
    )

    facts_path = os.path.join(arguments.out_dir, "clicks.jsonl")
    count = 0
    with open(facts_path, "w", encoding="utf-8") as stream:
        for fact_id, coordinates, measures in generate_clicks(config):
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
            count += 1

    with open(
        os.path.join(arguments.out_dir, "template.json"), "w", encoding="utf-8"
    ) as stream:
        json.dump(mo_to_dict(template), stream, indent=1, sort_keys=True)
        stream.write("\n")
    with open(
        os.path.join(arguments.out_dir, "spec.txt"), "w", encoding="utf-8"
    ) as stream:
        dump_specification(specification, stream)

    print(f"wrote {count} facts + template + spec to {arguments.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
