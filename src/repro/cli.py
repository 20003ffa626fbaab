"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures [N ...]``
    Regenerate the paper's figures (all by default) and print them.

``demo``
    Run the quickstart scenario: build the paper's example MO, install
    ``{a1, a2}``, and print the Figure 3 snapshots.

``check SPEC_FILE [SPEC_FILE ...] --mo MO_FILE [--format text|json|sarif]``
    Parse, bind and analyse specification files once against the
    dimensions of an MO document: every ``SDR`` rule (NonCrossing and
    Growing are ``SDR102``/``SDR103``), then the semantic analysis of
    :mod:`repro.analysis` (action-relationship matrix, reachability,
    static cost estimates).  ``--select``/``--ignore`` filter the rule
    codes reported; exit status 1 signals remaining error-level
    findings.

``reduce MO_FILE SPEC_FILE --at YYYY-MM-DD [-o OUT_FILE] [--stats]``
    Apply a reduction specification to a stored MO at a given date and
    write the reduced MO (stdout by default) with the columnar kernel;
    ``--stats`` prints an observability metrics snapshot to stdout
    instead of the MO (pass ``-o`` to keep the MO too), in the format
    picked by ``--stats-format json|prom|text``.

``sync MO_FILE SPEC_FILE --at YYYY-MM-DD [--at ...] [--stats]``
    Load the MO into a subcube store and synchronize at each given date
    in order (a NOW-advance trajectory); ``--full`` forces full rescans
    instead of incremental suspect-region syncs.  ``--stats`` prints the
    store's metrics snapshot (examined/migrated/skipped counters, undo
    log size, timings).

``query MO_FILE SPEC_FILE --at YYYY-MM-DD --granularity Dim=cat[,...]``
    Evaluate ``a[granularity](o[predicate](O))`` over the synchronized
    subcube store and print the result rows as JSON.
    ``--unsynchronized`` skips synchronization and exercises the
    parent-pull repair path instead.  ``--stats`` prints the store's
    metrics snapshot (plan-cache hits, per-stage row counts, timings).

``stats FILE``
    For an MO document: print fact counts, granularity histogram, and
    storage estimate.  For a metrics snapshot (``repro-metrics/1``):
    render it in the format picked by ``--format``.

``explain MO_FILE SPEC_FILE --at YYYY-MM-DD``
    For every fact: which action caused its aggregation level, which
    source facts it stands for, and when it will next move.

``serve MO_FILE SPEC_FILE --at YYYY-MM-DD [--port N] [--smoke]``
    Load the MO into a subcube store, synchronize it, and serve
    snapshot-isolated queries over a JSON-line TCP protocol with
    per-request deadlines, 429 backpressure, and a circuit breaker that
    degrades to stale read-only answers when refreshes fail (see
    ``docs/serving.md``).  ``--smoke`` runs one client round trip
    (ping + query + sync) and exits — the CI health check.

``recover DURABLE_PATH [--complete] [--json]``
    Recover a durable store directory: load the latest valid snapshot,
    replay the journal tail, and report what was replayed or discarded.
    ``--complete`` re-runs an interrupted synchronization idempotently.

``audit DURABLE_PATH [--json]``
    Recover a durable store and verify its invariants (granularity
    placement, provenance partition, measure conservation against the
    journaled source facts); exit status 1 on violations.

Exit status
-----------

Every subcommand uses the same convention: ``0`` — clean; ``1`` —
diagnostics, violations, or a failed gate; ``2`` — usage errors (a
malformed ``--at`` date included), unreadable inputs, or internal
failures.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from typing import Sequence

from .errors import ReproError


def _iso_date(text: str) -> dt.date:
    """``--at``'s argparse type: an ISO ``YYYY-MM-DD`` date."""
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an ISO date YYYY-MM-DD, got {text!r} ({exc})"
        ) from None


#: ``--stats-format`` / ``stats --format`` choices (see repro.obs.metrics).
STATS_FORMATS = ("json", "prom", "text")


def _add_stats_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print an observability metrics snapshot to stdout",
    )
    parser.add_argument(
        "--stats-format",
        choices=STATS_FORMATS,
        default=None,
        dest="stats_format",
        help="snapshot format (implies --stats; default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all ``python -m repro`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Specification-based data reduction in dimensional data "
            "warehouses (Skyt, Jensen & Pedersen, ICDE 2002)"
        ),
        epilog=(
            "exit status: 0 = clean, 1 = diagnostics/violations/failed "
            "gate, 2 = usage error, unreadable input, or internal failure"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("numbers", nargs="*", type=int)

    sub.add_parser("demo", help="run the paper's running example")

    check = sub.add_parser(
        "check",
        help="lint and analyse specification files (NonCrossing, Growing "
        "and every SDR rule)",
    )
    check.add_argument("spec_files", nargs="+")
    check.add_argument("--mo", required=True, dest="mo_file")
    check.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    check.add_argument(
        "--select",
        action="append",
        help="only report these rule-code prefixes (comma-separable)",
    )
    check.add_argument(
        "--ignore",
        action="append",
        help="suppress these rule-code prefixes (comma-separable)",
    )
    check.add_argument("-o", "--output", help="write the report to a file")

    selfcheck = sub.add_parser(
        "selfcheck",
        help="concurrency-safety static analysis of the repro tree itself",
    )
    selfcheck.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    selfcheck.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    selfcheck.add_argument(
        "--select",
        action="append",
        help="only report these rule-code prefixes (comma-separable)",
    )
    selfcheck.add_argument(
        "--ignore",
        action="append",
        help="suppress these rule-code prefixes (comma-separable)",
    )
    selfcheck.add_argument(
        "--fail-on",
        dest="fail_on",
        action="append",
        help="exit 1 only when one of these rule-code prefixes fires "
        "(comma-separable; default: any error)",
    )
    selfcheck.add_argument(
        "-o", "--output", help="write the report to a file"
    )

    reduce_cmd = sub.add_parser("reduce", help="reduce a stored MO")
    reduce_cmd.add_argument("mo_file")
    reduce_cmd.add_argument("spec_file")
    reduce_cmd.add_argument("--at", required=True, type=_iso_date)
    reduce_cmd.add_argument("-o", "--output")
    reduce_cmd.add_argument(
        "--durable",
        dest="durable_path",
        help="also materialize the reduction as a crash-safe durable "
        "store at this directory",
    )
    reduce_cmd.add_argument(
        "--no-fsync",
        action="store_true",
        dest="no_fsync",
        help="skip fsync calls in the durable store (faster, less durable)",
    )
    _add_stats_options(reduce_cmd)

    sync_cmd = sub.add_parser(
        "sync", help="synchronize a subcube store over a NOW trajectory"
    )
    sync_cmd.add_argument("mo_file")
    sync_cmd.add_argument("spec_file")
    sync_cmd.add_argument(
        "--at",
        action="append",
        required=True,
        type=_iso_date,
        dest="ats",
        help="synchronization date (repeatable; applied in order)",
    )
    sync_cmd.add_argument(
        "--full",
        action="store_true",
        help="force full rescans instead of incremental synchronization",
    )
    _add_stats_options(sync_cmd)

    query_cmd = sub.add_parser(
        "query", help="evaluate an OLAP query over the subcube store"
    )
    query_cmd.add_argument("mo_file")
    query_cmd.add_argument("spec_file")
    query_cmd.add_argument("--at", required=True, type=_iso_date)
    query_cmd.add_argument(
        "--granularity",
        action="append",
        required=True,
        dest="granularities",
        help="result granularity, as Dimension=category (repeatable or "
        "comma-separated)",
    )
    query_cmd.add_argument(
        "--predicate", default=None, help="selection predicate o[...]"
    )
    query_cmd.add_argument(
        "--unsynchronized",
        action="store_true",
        help="skip synchronization; query through the parent-pull repair",
    )
    query_cmd.add_argument("-o", "--output", help="write result rows here")
    _add_stats_options(query_cmd)

    stats = sub.add_parser(
        "stats",
        help="statistics of a stored MO or metrics snapshot",
    )
    stats.add_argument("mo_file")
    stats.add_argument(
        "--format",
        choices=STATS_FORMATS,
        default="json",
        help="rendering for metrics snapshots (default: json)",
    )

    explain = sub.add_parser(
        "explain", help="explain why facts are aggregated the way they are"
    )
    explain.add_argument("mo_file")
    explain.add_argument("spec_file")
    explain.add_argument("--at", required=True, type=_iso_date)

    load = sub.add_parser(
        "load",
        help="stream facts from a JSONL/CSV file into a durable store "
        "with batched group commit",
    )
    load.add_argument(
        "durable_path",
        help="durable store directory (existing, or created with --mo)",
    )
    load.add_argument(
        "--facts",
        required=True,
        dest="facts_file",
        help="fact rows: JSONL ({'id','coordinates','measures'} per "
        "line) or CSV (id + one column per dimension and measure)",
    )
    load.add_argument(
        "--format",
        choices=("auto", "jsonl", "csv"),
        default="auto",
        help="source format (default: auto — by file extension)",
    )
    load.add_argument(
        "--mo",
        dest="mo_file",
        default=None,
        help="template MO document: create the store from it when the "
        "directory does not exist yet (requires --spec)",
    )
    load.add_argument(
        "--spec",
        dest="spec_file",
        default=None,
        help="reduction specification for --mo store creation",
    )
    load.add_argument(
        "--batch-size",
        type=int,
        default=4096,
        dest="batch_size",
        help="facts per group commit (default 4096)",
    )
    load.add_argument(
        "--flush-ms",
        type=float,
        default=None,
        dest="flush_ms",
        help="also flush a partial batch this many ms after its oldest "
        "row (latency bound for trickle streams)",
    )
    load.add_argument(
        "--on-error",
        choices=("reject", "skip", "dead-letter"),
        default="reject",
        dest="on_error",
        help="per-row error policy (default: reject aborts the stream)",
    )
    load.add_argument(
        "--dead-letter",
        dest="dead_letter_path",
        default=None,
        help="dead-letter JSONL file (implies --on-error dead-letter)",
    )
    load.add_argument(
        "--no-fsync",
        action="store_true",
        dest="no_fsync",
        help="skip fsync calls in the durable store (faster, less durable)",
    )
    load.add_argument(
        "--fail-under",
        type=float,
        default=None,
        dest="fail_under",
        help="exit 1 when committed facts/sec falls below this floor",
    )
    _add_stats_options(load)

    serve = sub.add_parser(
        "serve",
        help="serve snapshot-isolated queries over a JSON-line TCP "
        "protocol",
    )
    serve.add_argument("mo_file")
    serve.add_argument("spec_file")
    serve.add_argument(
        "--at",
        required=True,
        type=_iso_date,
        help="initial synchronization date",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: let the OS pick; printed on startup)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        dest="max_queue",
        help="admitted-request bound before 429 backpressure (default 64)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        dest="max_inflight",
        help="concurrently executing requests (default 8)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=5.0,
        help="default per-request deadline in seconds (default 5)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="start, run one client round trip (ping + query + sync), "
        "and exit (CI health check)",
    )

    recover = sub.add_parser(
        "recover", help="recover a crash-safe durable store directory"
    )
    recover.add_argument("durable_path")
    recover.add_argument(
        "--complete",
        action="store_true",
        help="re-run an interrupted synchronization after recovery",
    )
    recover.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    audit = sub.add_parser(
        "audit", help="recover a durable store and verify its invariants"
    )
    audit.add_argument("durable_path")
    audit.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "figures":
            return _figures(arguments.numbers)
        if arguments.command == "demo":
            return _demo()
        if arguments.command == "check":
            return _check(
                arguments.spec_files,
                arguments.mo_file,
                arguments.format,
                arguments.select,
                arguments.ignore,
                arguments.output,
            )
        if arguments.command == "selfcheck":
            return _selfcheck(
                arguments.paths,
                arguments.format,
                arguments.select,
                arguments.ignore,
                arguments.fail_on,
                arguments.output,
            )
        if arguments.command == "reduce":
            return _reduce(
                arguments.mo_file,
                arguments.spec_file,
                arguments.at,
                arguments.output,
                arguments.durable_path,
                not arguments.no_fsync,
                *_stats_choice(arguments),
            )
        if arguments.command == "sync":
            return _sync(
                arguments.mo_file,
                arguments.spec_file,
                arguments.ats,
                arguments.full,
                *_stats_choice(arguments),
            )
        if arguments.command == "query":
            return _query(
                arguments.mo_file,
                arguments.spec_file,
                arguments.at,
                arguments.granularities,
                arguments.predicate,
                arguments.unsynchronized,
                arguments.output,
                *_stats_choice(arguments),
            )
        if arguments.command == "stats":
            return _stats(arguments.mo_file, arguments.format)
        if arguments.command == "load":
            return _load(
                arguments.durable_path,
                arguments.facts_file,
                arguments.format,
                arguments.mo_file,
                arguments.spec_file,
                arguments.batch_size,
                arguments.flush_ms,
                arguments.on_error,
                arguments.dead_letter_path,
                not arguments.no_fsync,
                arguments.fail_under,
                *_stats_choice(arguments),
            )
        if arguments.command == "serve":
            return _serve(
                arguments.mo_file,
                arguments.spec_file,
                arguments.at,
                arguments.host,
                arguments.port,
                arguments.max_queue,
                arguments.max_inflight,
                arguments.deadline,
                arguments.smoke,
            )
        if arguments.command == "recover":
            return _recover(
                arguments.durable_path, arguments.complete, arguments.json
            )
        if arguments.command == "audit":
            return _audit(arguments.durable_path, arguments.json)
        return _explain(arguments.mo_file, arguments.spec_file, arguments.at)
    except (
        ReproError,
        OSError,
        json.JSONDecodeError,
        UnicodeDecodeError,
    ) as exc:
        # Unreadable or malformed input files are usage errors, not
        # tracebacks with exit status 1 (which means "findings").
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _stats_choice(arguments: argparse.Namespace) -> tuple[bool, str]:
    """Resolve the shared ``--stats``/``--stats-format`` pair."""
    enabled = arguments.stats or arguments.stats_format is not None
    return enabled, arguments.stats_format or "json"


def _facts_of(mo):
    """A store-loadable ``(id, coordinates, measures)`` view of an MO."""
    return [
        (
            fact_id,
            dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
            {
                name: mo.measure_value(fact_id, name)
                for name in mo.schema.measure_names
            },
        )
        for fact_id in sorted(mo.facts())
    ]


def _figures(numbers: list[int]) -> int:
    from .experiments.figures import ALL_FIGURES, render

    wanted = sorted(set(numbers)) if numbers else sorted(ALL_FIGURES)
    unknown = [n for n in wanted if n not in ALL_FIGURES]
    if unknown:
        print(f"error: no such figures {unknown}", file=sys.stderr)
        return 2
    for number in wanted:
        print(render(ALL_FIGURES[number]()))
        print()
    return 0


def _demo() -> int:
    from .experiments.paper_example import (
        SNAPSHOT_TIMES,
        build_paper_mo,
        paper_specification,
    )
    from .query.algebra import mo_rows
    from .reduction.reducer import reduce_mo

    mo = build_paper_mo()
    specification = paper_specification(mo)
    print(f"Example MO: {mo.n_facts} facts")
    for action in specification:
        print(f"  {action}")
    for at in SNAPSHOT_TIMES:
        reduced = reduce_mo(mo, specification, at)
        print(f"\nreduced at {at}: {reduced.n_facts} facts")
        for row in mo_rows(reduced):
            print(f"  {row['Time']:<12} {row['URL']:<28} n={row['Number_of']}")
    return 0


def _check(
    spec_files: list[str],
    mo_file: str,
    format: str = "text",
    select: list[str] | None = None,
    ignore: list[str] | None = None,
    output: str | None = None,
) -> int:
    from .checks.prover import Prover
    from .io import mo_from_dict
    from .lint import (
        LintResult,
        json_report,
        lint_document_measures,
        lint_sources,
        render,
        sarif_log,
    )

    with open(mo_file) as stream:
        document = json.load(stream)
    measure_diagnostics = lint_document_measures(document, mo_file)
    try:
        mo = mo_from_dict(document)
    except ReproError as exc:
        # The MO document itself is unusable (e.g. a non-distributive
        # default aggregate): report what the document-level rules saw.
        result = LintResult.of(measure_diagnostics).filter(select, ignore)
        _emit(render(result, format), output)
        print(f"error: cannot load MO document: {exc}", file=sys.stderr)
        return 2
    sources = []
    for path in spec_files:
        with open(path, encoding="utf-8") as stream:
            sources.append((path, stream.read()))
    found, ctx = lint_sources(sources, mo.schema, Prover(mo.dimensions))
    result = LintResult.of([*found, *measure_diagnostics])
    result = result.filter(select, ignore)
    analysis = ctx.analysis()
    if format == "json":
        payload = {**json_report(result), "analysis": analysis.to_dict()}
        report = json.dumps(payload, indent=2, sort_keys=True)
    elif format == "sarif":
        log = sarif_log(result)
        log["runs"][0]["properties"] = {"analysis": analysis.to_dict()}
        report = json.dumps(log, indent=2, sort_keys=True)
    else:
        report = "\n\n".join(
            [render(result, "text"), analysis.render_text().rstrip("\n")]
        )
    _emit(report, output)
    return 1 if result.has_errors() else 0


def _emit(report: str, output: str | None) -> None:
    """Write *report* to the ``-o`` file, or print it."""
    from .io import atomic_write

    if output:
        with atomic_write(output) as stream:
            stream.write(report + "\n")
    else:
        print(report)


def _selfcheck(
    paths: list[str],
    format: str,
    select: list[str] | None,
    ignore: list[str] | None,
    fail_on: list[str] | None,
    output: str | None,
) -> int:
    from pathlib import Path

    from .devlint import RULES, run_selfcheck
    from .lint import render

    resolved = [Path(p) for p in (paths or ["src"])]
    missing = [str(p) for p in resolved if not p.exists()]
    if missing:
        print(
            f"error: no such path: {', '.join(missing)}", file=sys.stderr
        )
        return 2
    result = run_selfcheck(resolved).filter(select, ignore)
    report = render(
        result,
        format,
        tool_name="repro-selfcheck",
        catalog=RULES,
        information_uri="https://example.invalid/repro/docs/selfcheck",
    )
    _emit(report, output)
    if fail_on:
        return 1 if result.filter(select=fail_on).has_errors() else 0
    return 1 if result.has_errors() else 0


def _reduce(
    mo_file: str,
    spec_file: str,
    when: dt.date,
    output: str | None,
    durable_path: str | None = None,
    fsync: bool = True,
    stats: bool = False,
    stats_format: str = "json",
) -> int:
    from .io import atomic_write, dump_mo, load_mo, load_specification
    from .obs import metrics as obs_metrics
    from .reduction.reducer import reduce_mo

    with open(mo_file) as stream:
        mo = load_mo(stream)
    with open(spec_file) as stream:
        specification = load_specification(stream, mo.schema, mo.dimensions)
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        reduced = reduce_mo(mo, specification, when)
        if durable_path:
            _materialize_durable(
                mo, specification, when, durable_path, fsync, registry
            )
    print(
        f"reduced {mo.n_facts} facts to {reduced.n_facts} at {when}",
        file=sys.stderr,
    )
    if durable_path:
        print(f"durable store written to {durable_path}", file=sys.stderr)
    if output:
        with atomic_write(output) as stream:
            dump_mo(reduced, stream)
    elif stats:
        print("reduced MO not written (pass -o FILE)", file=sys.stderr)
    else:
        dump_mo(reduced, sys.stdout)
        print()
    if stats:
        print(obs_metrics.render_snapshot(registry.snapshot(), stats_format))
    return 0


def _materialize_durable(
    mo, specification, when, durable_path, fsync, metrics=None
):
    """Build a crash-safe durable store holding the reduced warehouse."""
    from .engine.durable import DurableStore

    store = DurableStore.create(
        durable_path, mo, specification, fsync=fsync, metrics=metrics
    )
    try:
        store.load(_facts_of(mo))
        store.synchronize(when)
        store.record_reduce(
            when,
            input_facts=mo.n_facts,
            output_facts=store.total_facts(),
        )
        store.snapshot()
        store.verify(strict=True)
    finally:
        store.close()


def _sync(
    mo_file: str,
    spec_file: str,
    ats: list[dt.date],
    full: bool,
    stats: bool = False,
    stats_format: str = "json",
) -> int:
    from .engine.store import (
        SYNC_LAST_EXAMINED,
        SYNC_LAST_MIGRATED,
        SubcubeStore,
    )
    from .io import load_mo, load_specification
    from .obs import metrics as obs_metrics

    with open(mo_file) as stream:
        mo = load_mo(stream)
    with open(spec_file) as stream:
        specification = load_specification(stream, mo.schema, mo.dimensions)
    store = SubcubeStore(mo, specification)
    store.load(_facts_of(mo))
    report = sys.stderr if stats else sys.stdout
    for when in ats:
        store.synchronize(when, incremental=not full)
        examined = int(store.metrics.value(SYNC_LAST_EXAMINED) or 0)
        migrated = int(store.metrics.value(SYNC_LAST_MIGRATED) or 0)
        print(
            f"sync at {when}: examined {examined}, migrated {migrated}",
            file=report,
        )
    shape = ", ".join(
        f"{name}={cube.n_facts}" for name, cube in store.cubes.items()
    )
    print(f"cubes: {shape}", file=report)
    if stats:
        print(
            obs_metrics.render_snapshot(
                store.metrics.snapshot(), stats_format
            )
        )
    return 0


def _query(
    mo_file: str,
    spec_file: str,
    when: dt.date,
    granularities: list[str],
    predicate: str | None,
    unsynchronized: bool,
    output: str | None,
    stats: bool = False,
    stats_format: str = "json",
) -> int:
    from .engine.queryproc import SubcubeQuery, query_store
    from .engine.store import SubcubeStore
    from .io import atomic_write, load_mo, load_specification
    from .obs import metrics as obs_metrics
    from .query.algebra import mo_rows

    granularity: dict[str, str] = {}
    for entry in granularities:
        for part in entry.split(","):
            name, _, category = part.partition("=")
            if not name.strip() or not category.strip():
                raise ReproError(
                    f"bad --granularity entry {part!r}; "
                    "expected Dimension=category"
                )
            granularity[name.strip()] = category.strip()
    with open(mo_file) as stream:
        mo = load_mo(stream)
    with open(spec_file) as stream:
        specification = load_specification(stream, mo.schema, mo.dimensions)
    store = SubcubeStore(mo, specification)
    store.load(_facts_of(mo))
    if not unsynchronized:
        store.synchronize(when)
    query = SubcubeQuery(predicate, granularity)
    result = query_store(
        store, query, when, assume_synchronized=not unsynchronized
    )
    rows = json.dumps(mo_rows(result), indent=1, sort_keys=True, default=str)
    print(f"query returned {result.n_facts} rows at {when}", file=sys.stderr)
    if output:
        with atomic_write(output) as stream:
            stream.write(rows + "\n")
    elif stats:
        print("result rows not written (pass -o FILE)", file=sys.stderr)
    else:
        print(rows)
    if stats:
        print(
            obs_metrics.render_snapshot(
                store.metrics.snapshot(), stats_format
            )
        )
    return 0


def _stats(mo_file: str, format: str = "json") -> int:
    from .experiments.metrics import estimated_fact_bytes
    from .io import mo_from_dict
    from .obs import metrics as obs_metrics

    with open(mo_file) as stream:
        document = json.load(stream)
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema == obs_metrics.SNAPSHOT_SCHEMA:
        print(obs_metrics.render_snapshot(document, format))
        return 0
    mo = mo_from_dict(document)
    histogram = {
        "/".join(granularity): count
        for granularity, count in sorted(mo.granularity_histogram().items())
    }
    sources = sum(len(mo.provenance(f)) for f in mo.facts())
    print(
        json.dumps(
            {
                "facts": mo.n_facts,
                "source_facts": sources,
                "estimated_fact_bytes": estimated_fact_bytes(mo),
                "granularities": histogram,
                "measures": list(mo.schema.measure_names),
            },
            indent=1,
        )
    )
    return 0


def _load(
    durable_path: str,
    facts_file: str,
    source_format: str,
    mo_file: str | None,
    spec_file: str | None,
    batch_size: int,
    flush_ms: float | None,
    on_error: str,
    dead_letter_path: str | None,
    fsync: bool,
    fail_under: float | None,
    stats: bool = False,
    stats_format: str = "json",
) -> int:
    import time

    from .engine.durable import DurableStore, open_durable
    from .engine.faults import FaultInjector
    from .errors import IngestError
    from .ingest import (
        DeadLetterFile,
        ErrorPolicy,
        StreamingLoader,
        open_source,
    )
    from .io import load_mo, load_specification
    from .obs import metrics as obs_metrics

    faults = FaultInjector.from_environment()
    if os.path.exists(os.path.join(durable_path, "meta.json")):
        store, report = open_durable(durable_path, fsync=fsync, faults=faults)
        if report.replayed:
            print(
                f"recovered {durable_path}: replayed "
                f"{report.replayed} journal records"
            )
    else:
        if mo_file is None or spec_file is None:
            raise IngestError(
                f"{durable_path!r} is not a durable store; pass --mo and "
                "--spec to create one"
            )
        with open(mo_file) as stream:
            template = load_mo(stream)
        with open(spec_file) as stream:
            specification = load_specification(
                stream, template.schema, template.dimensions
            )
        store = DurableStore.create(
            durable_path,
            template.empty_like(),
            specification,
            fsync=fsync,
            faults=faults,
        )
    template_mo = store.bottom_cube.mo
    dead_letter = None
    if dead_letter_path is not None:
        on_error = "dead-letter"
        dead_letter = DeadLetterFile(dead_letter_path, faults=faults)
    policy = ErrorPolicy(on_error, dead_letter=dead_letter)
    loader = StreamingLoader(
        store, batch_size=batch_size, flush_ms=flush_ms, faults=faults
    )
    stream, rows = open_source(
        facts_file,
        template_mo.schema.dimension_names,
        template_mo.schema.measure_names,
        source_format,
    )
    started = time.perf_counter()
    try:
        tally = loader.ingest(rows, policy=policy)
    finally:
        stream.close()
        if dead_letter is not None:
            dead_letter.close()
        store.close()
    seconds = time.perf_counter() - started
    rate = tally["committed"] / seconds if seconds > 0 else float("inf")
    print(
        f"loaded {tally['committed']} facts in "
        f"{loader.committed_batches} group commits "
        f"({rate:.0f} facts/s, batch size {batch_size})"
    )
    if tally["skipped"]:
        print(f"skipped {tally['skipped']} bad rows")
    if tally["dead_lettered"]:
        print(
            f"dead-lettered {tally['dead_lettered']} bad rows "
            f"to {dead_letter_path}"
        )
    if stats:
        print(
            obs_metrics.render_snapshot(
                store.metrics.snapshot(), stats_format
            )
        )
    if fail_under is not None and rate < fail_under:
        print(
            f"error: ingest rate {rate:.0f} facts/s is below the "
            f"{fail_under:.0f} facts/s floor",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve(
    mo_file: str,
    spec_file: str,
    when: dt.date,
    host: str,
    port: int,
    max_queue: int,
    max_inflight: int,
    deadline: float,
    smoke: bool,
) -> int:
    import asyncio

    from .engine.faults import FaultInjector
    from .engine.store import SubcubeStore
    from .io import load_mo, load_specification
    from .serving import (
        QueryServer,
        ServerConfig,
        ServingClient,
        ServingService,
    )

    with open(mo_file) as stream:
        mo = load_mo(stream)
    with open(spec_file) as stream:
        specification = load_specification(stream, mo.schema, mo.dimensions)
    store = SubcubeStore(mo, specification)
    store.load(_facts_of(mo))
    store.synchronize(when)
    # The chaos CI job drives failpoints through the environment, same
    # as the crash-recovery suites (REPRO_FAILPOINTS / REPRO_FAULT_SEED).
    service = ServingService(store, faults=FaultInjector.from_environment())
    config = ServerConfig(
        host=host,
        port=port,
        max_queue=max_queue,
        max_inflight=max_inflight,
        deadline_seconds=deadline,
    )

    async def run() -> int:
        server = QueryServer(service, config)
        await server.start()
        bound_host, bound_port = server.address
        print(
            f"serving {store.total_facts()} facts on "
            f"{bound_host}:{bound_port} (version {service.version})",
            file=sys.stderr,
        )
        if smoke:
            try:
                async with ServingClient(bound_host, bound_port) as client:
                    ping = await client.ping()
                    queried = await client.query(when.isoformat())
                    synced = await client.sync(when.isoformat())
                ok = bool(
                    ping.get("ok") and queried.get("ok") and synced.get("ok")
                )
                print(
                    f"smoke round trip: version {queried.get('version')}, "
                    f"{len(queried.get('rows', []))} rows, "
                    f"breaker {synced.get('breaker')}",
                    file=sys.stderr,
                )
                return 0 if ok else 1
            finally:
                await server.stop()
        try:
            await server.serve_until_closed()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            await server.stop()
        return 0

    return asyncio.run(run())


def _recover(durable_path: str, complete: bool, as_json: bool) -> int:
    from .engine.durable import open_durable

    store, report = open_durable(durable_path)
    try:
        completed = None
        if report.interrupted_sync is not None and complete:
            store.synchronize(report.interrupted_sync)
            completed = report.interrupted_sync.isoformat()
        shape = {name: cube.n_facts for name, cube in store.cubes.items()}
        if as_json:
            print(
                json.dumps(
                    {
                        **report.as_dict(),
                        "completed_sync": completed,
                        "cubes": shape,
                        "last_sync": (
                            store.last_sync.isoformat()
                            if store.last_sync
                            else None
                        ),
                    },
                    indent=1,
                    sort_keys=True,
                )
            )
        else:
            print(
                f"recovered {store.total_facts()} facts in "
                f"{len(shape)} cubes (journal lsn {report.last_lsn}, "
                f"snapshot lsn {report.snapshot_lsn}, "
                f"{report.replayed} replayed, {report.discarded} discarded)"
            )
            if completed:
                print(f"completed interrupted synchronization at {completed}")
            elif report.interrupted_sync is not None:
                print(
                    f"interrupted synchronization at "
                    f"{report.interrupted_sync.isoformat()} NOT re-run "
                    "(pass --complete)"
                )
        return 0
    finally:
        store.close()


def _audit(durable_path: str, as_json: bool) -> int:
    from .engine.durable import open_durable

    store, recovery = open_durable(durable_path)
    try:
        report = store.verify()
    finally:
        store.close()
    if as_json:
        print(
            json.dumps(
                {"recovery": recovery.as_dict(), "audit": report.as_dict()},
                indent=1,
                sort_keys=True,
            )
        )
    elif report.ok:
        print(
            f"audit clean: {report.facts} facts covering {report.sources} "
            f"sources, {report.checked_measures} measure values verified"
        )
    else:
        print(f"audit FAILED ({len(report.violations)} violations):")
        for violation in report.violations:
            print(f"  - {violation}")
    return 0 if report.ok else 1


def _explain(mo_file: str, spec_file: str, when: dt.date) -> int:
    from .io import load_mo, load_specification
    from .spec.explain import describe_specification, explain_mo

    with open(mo_file) as stream:
        mo = load_mo(stream)
    with open(spec_file) as stream:
        specification = load_specification(stream, mo.schema, mo.dimensions)
    print("Policy:")
    for line in describe_specification(specification):
        print(f"  {line}")
    print(f"\nFacts at {when}:")
    for explanation in explain_mo(mo, specification, when):
        print(f"  {explanation}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
