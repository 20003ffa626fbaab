#!/usr/bin/env python3
"""Compare two sets of benchmark result documents, metric by metric.

    python3 benchmarks/pipeline/compare.py [--wall-clock] base.jsonl new.jsonl

Each file holds result documents as ``run.py --out`` appends them (one
JSON object per line); a single document or a JSON list also reads.
One row is printed per (workload, metric): the median of each side, the
ratio new/base, each side's spread (interquartile distance over the
median), the bound and a verdict.  The bound is ``BENCHMARK.json``'s,
or issue 15's (``catalogue.FULL_BOUNDS``) when the documents come from
``--full`` runs; the two sides must be of one profile.

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — they do not;
* ``unresolved`` — a side's spread is wider than the bound and the two
  sides' runs overlap, so the data cannot tell;
* ``info`` — a per-layer metric, which has no bound.

``--wall-clock`` compares the same estimators taken over wall seconds
as measured (the documents' ``wall_clock`` block) instead of the
reported quiet-machine seconds.  A last line says how many runs of each
side timed a section in one of the machine's slow spells, so that a side
measured on a disturbed machine can be told from a regression.  Exit
code 1 if any row is ``worse``, 2 on unusable input, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalogue import bound_for, load_benchmark  # noqa: E402
from estimators import spread  # noqa: E402


def load_documents(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    try:
        loaded = json.loads(text)
    except ValueError:
        loaded = [json.loads(line) for line in text.splitlines() if line.strip()]
    return loaded if isinstance(loaded, list) else [loaded]


#: A timed section whose calibration bracket read this much over the
#: run's quiet state was taken in a slow spell.
SLOW_SPELL = 1.2


def collect(
    documents: list[dict], wall_clock: bool = False
) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> that metric's value in every run."""
    values: dict[tuple[str, str], list[float]] = {}
    for document in documents:
        metrics = (
            document["wall_clock"]
            if wall_clock
            else {n: m["value"] for n, m in document["metrics"].items()}
        )
        for name, value in metrics.items():
            values.setdefault((document["workload"], name), []).append(value)
    return values


def verdict(
    base: list[float], new: list[float], better: str, bound: float | None
) -> str:
    if bound is None:
        return "info"
    if sorted(base) == sorted(new):
        # Counts repeat exactly for a seed; their spread is the seeds'.
        return "same"
    base_median, new_median = statistics.median(base), statistics.median(new)
    if base_median == 0:
        return "same" if new_median == 0 else "unresolved"
    change = (new_median - base_median) / abs(base_median)
    worse_by = change if better == "lower" else -change
    separated = max(base) < min(new) or max(new) < min(base)
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(
    base_documents: list[dict],
    new_documents: list[dict],
    benchmark: dict,
    wall_clock: bool = False,
) -> list[dict]:
    declared = {
        metric["name"]: metric
        for section in ("end_to_end", "per_layer")
        for metric in benchmark[section]
    }
    profiles = {d["profile"]["name"] for d in base_documents + new_documents}
    if len(profiles) != 1:
        raise ValueError(f"documents of more than one profile: {sorted(profiles)}")
    (profile,) = profiles
    base = collect(base_documents, wall_clock)
    new = collect(new_documents, wall_clock)
    rows = []
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        metric = declared.get(name, {})
        bound = bound_for(profile, workload, name, metric.get("bound"))
        base_median = statistics.median(base[key])
        new_median = statistics.median(new[key])
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "base": base_median,
                "new": new_median,
                "ratio": new_median / base_median if base_median else None,
                "base_spread": spread(base[key]),
                "new_spread": spread(new[key]),
                "runs": (len(base[key]), len(new[key])),
                "bound": bound,
                "verdict": verdict(
                    base[key], new[key], metric.get("better", "lower"), bound
                ),
            }
        )
    return rows


def _flat(values) -> list[float]:
    if isinstance(values, list):
        return [x for value in values for x in _flat(value)]
    return [values]


def disturbed_runs(documents: list[dict]) -> str:
    """``n/m``: runs with a section timed in a slow spell, of all runs."""
    disturbed = sum(
        any(
            slowdown > SLOW_SPELL
            for section in document.get("raw", {}).get("slowdown", {}).values()
            for slowdown in _flat(section)
        )
        for document in documents
    )
    return f"{disturbed}/{len(documents)}"


def render(rows: list[dict]) -> str:
    header = (
        f"{'workload':<14} {'metric':<48} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'spread b/n':>13} {'runs':>6} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        bound = "-" if row["bound"] is None else f"{row['bound']:.3f}"
        spreads = f"{row['base_spread']:.3f}/{row['new_spread']:.3f}"
        runs = f"{row['runs'][0]}/{row['runs'][1]}"
        lines.append(
            f"{row['workload']:<14} {row['metric']:<48} {row['base']:>12.6g} "
            f"{row['new']:>12.6g} {ratio:>9} {spreads:>13} {runs:>6} {bound:>6}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    wall_clock = "--wall-clock" in argv
    argv = [argument for argument in argv if argument != "--wall-clock"]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, new = load_documents(argv[0]), load_documents(argv[1])
        rows = compare(base, new, load_benchmark(), wall_clock)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("compare: the two sets share no (workload, metric)", file=sys.stderr)
        return 2
    print(render(rows))
    print(
        f"runs with a section in a slow spell: base {disturbed_runs(base)}, "
        f"new {disturbed_runs(new)}"
    )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
