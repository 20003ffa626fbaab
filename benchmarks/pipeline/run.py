#!/usr/bin/env python3
"""The layered pipeline benchmark: one command, one named workload.

    python3 benchmarks/pipeline/run.py --workload <name> --seed <n> \
        [--seconds S] [--trace 0|1] [--full | --smoke] [--out FILE]

A run drives the ingest -> reduce/sync -> snapshot -> recover -> query
-> serve path on one seeded clickstream profile, checks the answers,
and prints every metric by name and unit; the last line of standard
output is the result object the driver reads.  ``--trace 1`` prints the
per-layer metrics instead of the end-to-end ones.  ``--full`` is issue
15's 10^5-fact profile, the named workload alone.  See README.md next
to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
SCHEMA = "repro-bench-pipeline/1"


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("backfill", "nightly", "query_mix", "serve_refresh"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measurement budget: two passes over the phases run anyway, "
        "later rounds only if they end within 6 s of it, and the named "
        "workload's extra rounds fill what is left "
        "(default: run_seconds of BENCHMARK.json; none under --full)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: print the per-layer metrics and write the span file",
    )
    size = parser.add_mutually_exclusive_group()
    size.add_argument(
        "--full",
        action="store_true",
        help="issue 15's profile (about 105k facts, its rounds), only the "
        "named workload's phases and metrics; minutes, run by hand",
    )
    size.add_argument(
        "--smoke",
        action="store_true",
        help="tiny profile and two rounds, for the self-tests only",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="append the result document to this JSONL file "
        "(default: out/result-<workload>-seed<n>.json, overwritten)",
    )
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` so set and dict orders, and with
    them allocation patterns, repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    environment = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable, *sys.argv], environment)


def filesystem_type(path: str) -> str:
    """Filesystem of *path*: on tmpfs an fsync costs nothing, so say."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as stream:
            for line in stream:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_block(workdir: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "fsync": "on (DurableStore fsync=True, group commit per batch)",
        "workdir_filesystem": filesystem_type(workdir),
        "clock": "time.perf_counter",
    }


def emit(document: dict, arguments: argparse.Namespace) -> None:
    """Write the document, print the metrics, end on the result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    if arguments.out:
        with open(arguments.out, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(document, sort_keys=True) + "\n")
    else:
        suffix = "-trace" if arguments.trace else ""
        name = f"result-{arguments.workload}-seed{arguments.seed}{suffix}.json"
        with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as s:
            json.dump(document, s, indent=1, sort_keys=True)
            s.write("\n")
    print(
        f"# pipeline benchmark: workload={document['workload']} "
        f"seed={document['seed']} trace={document['trace']} "
        f"source_facts={document['profile']['source_facts']}"
    )
    wall = document.get("wall_clock", {})
    for name, metric in document["metrics"].items():
        measured = f"   (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{measured}")
    for kind, count in sorted(document["operations"]["attempted"].items()):
        failed = document["operations"]["failed"].get(kind, 0)
        print(f"# {kind}: attempted {count}, failed {failed}")
    for failure in document["failures"]:
        print(f"# FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": document["correct"],
                "attempted": sum(document["operations"]["attempted"].values()),
                "failed": sum(document["operations"]["failed"].values()),
                "metrics": document["metrics"],
            }
        )
    )


def main(argv: list[str]) -> int:
    arguments = parse_arguments(argv)
    pin_hash_seed()
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.path.insert(0, HERE)

    import catalogue
    import inputs as inputs_module
    import measure
    from calibration import Clock
    from phases import Tally

    if arguments.seconds is None:
        # The full profile runs its fixed rounds however long they take.
        arguments.seconds = (
            math.inf
            if arguments.full
            else float(catalogue.load_benchmark()["run_seconds"])
        )
    profile = (
        catalogue.FULL
        if arguments.full
        else catalogue.SMOKE if arguments.smoke else catalogue.DRIVER
    )
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally()
    clock = Clock()
    try:
        setup, inputs = measure.setup_round(
            inputs_module.clickstream_config(
                arguments.seed, profile.clicks_per_day
            ),
            os.path.join(workdir, "inputs"),
            clock,
        )
        schedule = inputs_module.build_schedule(arguments.seed)
        plan = measure.Plan(
            workload=arguments.workload,
            seconds=arguments.seconds,
            profile=profile,
            connections=min(2, os.cpu_count() or 1),
        )
        if arguments.trace:
            import layers

            raw, metrics, extra = layers.run_traced(
                inputs, schedule, plan, workdir, tally, clock, setup
            )
            with open(
                os.path.join(OUT_DIR, f"trace-{arguments.workload}.json"),
                "w",
                encoding="utf-8",
            ) as stream:
                json.dump(extra.pop("trace"), stream)
        else:
            raw = measure.run_rounds(
                inputs, schedule, plan, workdir, tally, clock, setup
            )
            wall_clock = measure.end_to_end(inputs, schedule, plan, raw, None)
            metrics = (
                measure.end_to_end(inputs, schedule, plan, raw, clock)
                if profile.discount
                else dict(wall_clock)
            )
            extra = {"wall_clock": wall_clock}
        measure.final_checks(inputs, raw, tally)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        section = "per_layer" if arguments.trace else "end_to_end"
        units = catalogue.units(section)
        document = {
            "schema": SCHEMA,
            "workload": arguments.workload,
            "seed": arguments.seed,
            "trace": arguments.trace,
            "profile": {
                "name": profile.name,
                "clicks_per_day": profile.clicks_per_day,
                "backfill_facts": len(inputs.backfill),
                "tail_facts": inputs.source_facts - len(inputs.backfill),
                "source_facts": inputs.source_facts,
                "schedule_requests": len(schedule),
                "refresh_interval_s": profile.refresh_interval,
                "connections": plan.connections,
            },
            "environment": environment_block(workdir),
            "rounds": {
                phase: len(rounds)
                for phase, rounds in raw["rounds"].items()
            },
            "raw": raw["values"],
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in metrics or not profile.owner_only
            },
            "operations": {
                "attempted": dict(tally.attempted),
                "failed": dict(tally.failed),
            },
            "failures": tally.failures,
            "correct": not tally.failures,
            **extra,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(document, arguments)
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
