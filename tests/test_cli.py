"""Unit tests for the command-line interface."""

import datetime as dt
import json
import pathlib
import sys

import pytest

from repro.cli import main
from repro.experiments.paper_example import (
    build_paper_mo,
    paper_specification,
)
from repro.io import dump_mo, dump_specification

REPO = pathlib.Path(__file__).resolve().parents[1]
BROKEN_SPEC = REPO / "examples" / "specs" / "broken.spec"
CLICK_MO = REPO / "examples" / "click_mo.json"


@pytest.fixture
def stored(tmp_path):
    mo = build_paper_mo()
    mo_file = tmp_path / "mo.json"
    spec_file = tmp_path / "spec.txt"
    with open(mo_file, "w") as stream:
        dump_mo(mo, stream)
    with open(spec_file, "w") as stream:
        dump_specification(paper_specification(mo), stream)
    return mo_file, spec_file


class TestCheck:
    @pytest.mark.parametrize("spec, status", [("paper", 0), ("broken", 1)])
    @pytest.mark.parametrize("format", ["text", "json", "sarif"])
    def test_output_matches_golden(
        self, monkeypatch, capsys, spec, status, format
    ):
        # The goldens hold the output byte for byte, paths as given
        # relative to the repository root.
        monkeypatch.chdir(REPO)
        argv = [
            "check",
            f"examples/specs/{spec}.spec",
            "--mo",
            "examples/click_mo.json",
            "--format",
            format,
        ]
        assert main(argv) == status
        golden = REPO / "tests" / "golden" / f"check_{spec}.{format}"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_sound_spec(self, stored, capsys):
        mo_file, spec_file = stored
        assert main(["check", str(spec_file), "--mo", str(mo_file)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unsound_spec(self, stored, tmp_path, capsys):
        mo_file, _ = stored
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "a1: a[Time.month, URL.domain] o[URL.domain_grp = '.com' AND "
            "NOW - 12 months <= Time.month <= NOW - 6 months]\n"
        )
        assert main(["check", str(bad), "--mo", str(mo_file)]) == 1
        assert "error[SDR103]" in capsys.readouterr().out

    def test_missing_file(self, stored, capsys):
        mo_file, _ = stored
        assert main(["check", "/nonexistent", "--mo", str(mo_file)]) == 2

    def test_unsound_spec_json_format(self, stored, tmp_path, capsys):
        mo_file, _ = stored
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "b1: p(a[Time.month, URL.domain] o[URL.domain_grp = '.com' AND "
            "Time.month <= '1999/12'](O))\n"
            "b2: p(a[Time.quarter, URL.url] o[URL.url = "
            "'http://www.cnn.com/health' AND Time.quarter <= '1999Q4'](O))\n"
        )
        assert (
            main(
                [
                    "check",
                    str(bad),
                    "--mo",
                    str(mo_file),
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "SDR102"

    def test_sound_spec_json_format(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            ["check", str(spec_file), "--mo", str(mo_file), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0

    @pytest.mark.parametrize("format", ["text", "json", "sarif"])
    @pytest.mark.parametrize(
        "source, code",
        [
            ("bad: p(a[Time.month URL.domain] o[TRUE](O))\n", "SDR001"),
            (
                "bad: p(a[Time.month, URL.domain] "
                "o[Browser.name = 'x'](O))\n",
                "SDR002",
            ),
        ],
    )
    def test_unusable_only_action_exits_one(
        self, stored, tmp_path, capsys, format, source, code
    ):
        # Nothing binds, so the analysis is empty; the front-end error
        # still fails the check in every format.
        mo_file, _ = stored
        spec = tmp_path / "only.spec"
        spec.write_text(source)
        argv = ["check", str(spec), "--mo", str(mo_file), "--format", format]
        assert main(argv) == 1
        assert code in capsys.readouterr().out

    def test_unusable_mo_report_goes_to_output_file(
        self, tmp_path, capsys
    ):
        mo_file = tmp_path / "avg_mo.json"
        mo_file.write_text(json.dumps(AVG_MO_DOCUMENT))
        out_file = tmp_path / "report.sarif"
        argv = [
            "check",
            str(BROKEN_SPEC),
            "--mo",
            str(mo_file),
            "--format",
            "sarif",
            "-o",
            str(out_file),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot load MO document" in captured.err
        log = json.loads(out_file.read_text())
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["SDR111"]

    def test_malformed_mo_document_exits_two(self, stored, tmp_path):
        _, spec_file = stored
        mo_file = tmp_path / "mo.json"
        mo_file.write_text("{not json")
        assert main(["check", str(spec_file), "--mo", str(mo_file)]) == 2

    def test_one_analysis_per_check(self, monkeypatch, capsys):
        from repro.analysis import reachability, relationship_matrix
        from repro.checks.prover import Prover
        from repro.lint import engine

        calls: dict[str, int] = {}
        # (question, profile ids) -> times the prover worked it out
        decided: dict[tuple, int] = {}

        def once_per_key(question, method):
            def wrapper(self, *profiles):
                key = (question, *map(id, profiles))
                decided[key] = decided.get(key, 0) + 1
                return method(self, *profiles)

            return wrapper

        for question in ("_ground", "_meet", "_contains"):
            monkeypatch.setattr(
                Prover, question, once_per_key(question, getattr(Prover, question))
            )

        def counted(function):
            def wrapper(*args, **kwargs):
                name = function.__name__
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)

            return wrapper

        for original in (
            relationship_matrix,
            reachability,
            engine._single_container_shadowed,
        ):
            wrapper = counted(original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "repro":
                    continue
                if getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, wrapper)
        argv = ["check", str(BROKEN_SPEC), "--mo", str(CLICK_MO)]
        assert main(argv + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["reachability"]["dead"]
        assert calls == {
            "relationship_matrix": 1,
            "reachability": 1,
            "_single_container_shadowed": 1,
        }
        # Each profile is grounded once; each ordered pair's overlap and
        # containment is decided at most once.
        assert {key[0] for key in decided} == {"_ground", "_meet", "_contains"}
        assert set(decided.values()) == {1}


#: An MO document the model layer refuses: ``avg`` is not distributive.
AVG_MO_DOCUMENT = {
    "format": 1,
    "fact_type": "Click",
    "dimension_order": ["Time"],
    "dimensions": {
        "Time": {"chains": [["day"]], "time_like": True, "values": []}
    },
    "measures": [{"name": "Dwell", "aggregate": "avg"}],
    "facts": [],
}


class TestLint:
    @pytest.fixture
    def broken(self, tmp_path):
        spec = tmp_path / "broken.spec"
        spec.write_text(
            "# unknown dimension below\n"
            "one: p(a[Time.month, URL.domain] o[Browser.name = 'x'](O))\n"
            "two: p(a[Time.day, URL.url] o[Time.day <= '1999/01/20'](O))\n"
        )
        return spec

    def test_text_report_and_exit_code(self, stored, broken, capsys):
        mo_file, _ = stored
        assert main(["check", str(broken), "--mo", str(mo_file)]) == 1
        out = capsys.readouterr().out
        assert "error[SDR002]" in out
        assert "info[SDR110]" in out
        assert f"{broken}:2:36" in out  # line/column of Browser.name

    def test_clean_spec_exits_zero(self, stored, capsys):
        mo_file, spec_file = stored
        assert main(["check", str(spec_file), "--mo", str(mo_file)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_select_filter_changes_exit_code(self, stored, broken, capsys):
        mo_file, _ = stored
        code = main(
            [
                "check",
                str(broken),
                "--mo",
                str(mo_file),
                "--select",
                "SDR110",
            ]
        )
        assert code == 0  # only the info-level finding remains
        assert "SDR002" not in capsys.readouterr().out

    def test_ignore_filter(self, stored, broken, capsys):
        mo_file, _ = stored
        code = main(
            [
                "check",
                str(broken),
                "--mo",
                str(mo_file),
                "--ignore",
                "SDR002",
            ]
        )
        assert code == 0
        assert "SDR002" not in capsys.readouterr().out

    def test_sarif_output_to_file(self, stored, broken, tmp_path, capsys):
        mo_file, _ = stored
        out_file = tmp_path / "report.sarif"
        code = main(
            [
                "check",
                str(broken),
                "--mo",
                str(mo_file),
                "--format",
                "sarif",
                "-o",
                str(out_file),
            ]
        )
        assert code == 1
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
        assert {r["ruleId"] for r in log["runs"][0]["results"]} == {
            "SDR002",
            "SDR110",
        }

    def test_multiple_spec_files(self, stored, broken, capsys):
        mo_file, spec_file = stored
        assert (
            main(["check", str(spec_file), str(broken), "--mo", str(mo_file)])
            == 1
        )
        out = capsys.readouterr().out
        assert "SDR002" in out

    def test_missing_spec_file(self, stored, capsys):
        mo_file, _ = stored
        assert main(["check", "/nonexistent", "--mo", str(mo_file)]) == 2

    def test_non_distributive_measure_document(self, broken, tmp_path, capsys):
        mo_file = tmp_path / "avg_mo.json"
        mo_file.write_text(json.dumps(AVG_MO_DOCUMENT))
        # Unusable inputs are exit status 2 (1 is reserved for findings).
        assert main(["check", str(broken), "--mo", str(mo_file)]) == 2
        captured = capsys.readouterr()
        assert "SDR111" in captured.out
        assert "cannot load MO document" in captured.err


class TestReduce:
    def test_reduce_to_file(self, stored, tmp_path, capsys):
        mo_file, spec_file = stored
        out = tmp_path / "reduced.json"
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert len(document["facts"]) == 4

    def test_reduce_to_stdout(self, stored, capsys):
        mo_file, spec_file = stored
        assert (
            main(["reduce", str(mo_file), str(spec_file), "--at", "2000-06-05"])
            == 0
        )
        out = capsys.readouterr().out
        assert json.loads(out)["fact_type"] == "Click"

    def test_backend_is_not_an_option(self, stored, capsys):
        mo_file, spec_file = stored
        with pytest.raises(SystemExit) as raised:
            main(
                [
                    "reduce",
                    str(mo_file),
                    str(spec_file),
                    "--at",
                    "2000-11-05",
                    "--backend",
                    "columnar",
                ]
            )
        assert raised.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err



def _verb_argv(verb, mo_file, spec_file, at):
    """A full command line for one of the verbs that take ``--at``."""
    argv = [verb, str(mo_file), str(spec_file), "--at", at]
    if verb == "query":
        argv += ["--granularity", "Time=year,URL=domain"]
    if verb == "serve":
        argv.append("--smoke")
    return argv


class TestUsageErrors:
    @pytest.mark.parametrize(
        "verb", ["reduce", "sync", "query", "explain", "serve"]
    )
    @pytest.mark.parametrize("at", ["2000-13-05", "notadate"])
    def test_malformed_at_is_a_usage_error(self, stored, capsys, verb, at):
        mo_file, spec_file = stored
        with pytest.raises(SystemExit) as raised:
            main(_verb_argv(verb, mo_file, spec_file, at))
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "argument --at" in err
        assert repr(at) in err

    @pytest.mark.parametrize("verb", ["lint", "analyze"])
    def test_removed_spec_verbs_are_usage_errors(self, stored, capsys, verb):
        mo_file, spec_file = stored
        with pytest.raises(SystemExit) as raised:
            main([verb, str(spec_file), "--mo", str(mo_file)])
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["reduce", "sync", "serve"])
    def test_workers_flag_is_a_usage_error(self, stored, capsys, verb):
        mo_file, spec_file = stored
        argv = _verb_argv(verb, mo_file, spec_file, "2000-11-05")
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--workers", "2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_repro_workers_is_ignored(self, stored, monkeypatch, capsys):
        mo_file, spec_file = stored
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        code = main(
            ["reduce", str(mo_file), str(spec_file), "--at", "2000-11-05"]
        )
        assert code == 0
        assert "reduced 7 facts" in capsys.readouterr().err


class TestStats:
    def test_stats_output(self, stored, capsys):
        mo_file, _ = stored
        assert main(["stats", str(mo_file)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["facts"] == 7
        assert document["granularities"] == {"day/url": 7}

    def test_stats_rejects_a_pipeline_benchmark_document(
        self, tmp_path, capsys
    ):
        # Its "metrics" key maps names to {value, unit}; it is not a
        # repro-metrics/1 snapshot, so stats treats the file as an MO.
        path = tmp_path / "result.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-bench-pipeline/1",
                    "workload": "backfill",
                    "metrics": {"setup_s": {"value": 1.0, "unit": "s"}},
                }
            )
        )
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unsupported MO document format None\n"

class TestExplain:
    def test_explain_output(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            ["explain", str(mo_file), str(spec_file), "--at", "2000-11-05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy:" in out
        assert "category F" in out  # a1's classification
        assert "caused by" in out


class TestObservabilityCli:
    """The --stats surface: reduce/sync/query snapshots + stats detection."""

    def test_reduce_stats_prom_is_valid_exposition(self, stored, capsys):
        from .obs.promparse import parse, sample_value

        mo_file, spec_file = stored
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--stats",
                "--stats-format",
                "prom",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        parsed = parse(captured.out)
        assert sample_value(parsed, "repro_reduce_facts_input_total", {}) == 7
        assert sample_value(parsed, "repro_reduce_facts_output_total", {}) == 4
        assert (
            sample_value(parsed, "repro_reduce_facts_deleted_total", {}) == 3
        )
        assert "not written" in captured.err

    def test_reduce_stats_json_reconciles(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            ["reduce", str(mo_file), str(spec_file), "--at", "2000-11-05",
             "--stats"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-metrics/1"
        values = {
            (family["name"],): sample["value"]
            for family in document["metrics"]
            for sample in family["samples"]
            if not sample["labels"]
        }
        deleted = values[("repro_reduce_facts_deleted_total",)]
        assert (
            values[("repro_reduce_facts_input_total",)]
            - values[("repro_reduce_facts_output_total",)]
            == deleted
        )

    def test_stats_format_implies_stats(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--stats-format",
                "text",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_reduce_runs_total" in out
        assert "fact_type" not in out  # the MO did not leak to stdout

    def test_reduce_stats_still_writes_output_file(
        self, stored, tmp_path, capsys
    ):
        mo_file, spec_file = stored
        out = tmp_path / "reduced.json"
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "-o",
                str(out),
                "--stats",
            ]
        )
        assert code == 0
        assert len(json.loads(out.read_text())["facts"]) == 4
        assert json.loads(capsys.readouterr().out)["schema"] == (
            "repro-metrics/1"
        )

    def test_reduce_backend_flag_is_recorded(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--stats",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        runs = next(
            family
            for family in document["metrics"]
            if family["name"] == "repro_reduce_runs_total"
        )
        assert runs["samples"] == [
            {"labels": {"backend": "columnar"}, "value": 1}
        ]

    def test_sync_command_reports_each_step(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "sync",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-06-05",
                "--at",
                "2000-11-05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sync at 2000-06-05: examined 7" in out
        assert "sync at 2000-11-05:" in out
        assert "cubes:" in out

    def test_sync_stats_snapshot(self, stored, capsys):
        from .obs.promparse import parse, sample_value

        mo_file, spec_file = stored
        code = main(
            [
                "sync",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-06-05",
                "--stats-format",
                "prom",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "sync at 2000-06-05" in captured.err  # report moved aside
        parsed = parse(captured.out)
        assert (
            sample_value(parsed, "repro_sync_runs_total", {"mode": "full"})
            == 1
        )
        assert sample_value(parsed, "repro_sync_last_examined", {}) == 7

    def test_sync_full_flag_forces_full_mode(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "sync",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-06-05",
                "--at",
                "2000-11-05",
                "--full",
                "--stats",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        runs = next(
            family
            for family in document["metrics"]
            if family["name"] == "repro_sync_runs_total"
        )
        assert runs["samples"] == [{"labels": {"mode": "full"}, "value": 2}]

    def test_query_command_prints_rows(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "query",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--granularity",
                "Time=month,URL=domain",
                "--predicate",
                "URL.domain_grp = '.com'",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert rows and all("Time" in row for row in rows)
        assert "query returned" in captured.err

    @pytest.mark.parametrize("at", ["2000-06-05", "2000-11-05"])
    @pytest.mark.parametrize("predicate", [None, "URL.domain_grp = '.com'"])
    def test_unsynchronized_query_equals_synchronized(
        self, stored, capsys, at, predicate
    ):
        mo_file, spec_file = stored
        argv = [
            "query",
            str(mo_file),
            str(spec_file),
            "--at",
            at,
            "--granularity",
            "Time=month,URL=domain",
        ]
        if predicate is not None:
            argv += ["--predicate", predicate]
        answers = []
        for extra in ([], ["--unsynchronized"]):
            assert main(argv + extra) == 0
            answers.append(json.loads(capsys.readouterr().out))
        synchronized, unsynchronized = answers
        assert synchronized
        assert unsynchronized == synchronized

    def test_query_stats_counts_plan_cache(self, stored, capsys):
        from .obs.promparse import parse, sample_value

        mo_file, spec_file = stored
        code = main(
            [
                "query",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--granularity",
                "Time=month",
                "--granularity",
                "URL=domain",
                "--predicate",
                "URL.domain_grp = '.com'",
                "--stats-format",
                "prom",
            ]
        )
        assert code == 0
        parsed = parse(capsys.readouterr().out)
        assert sample_value(parsed, "repro_query_runs_total", {}) == 1
        misses = sample_value(
            parsed, "repro_query_plan_cache_misses_total", {"cache": "bound"}
        )
        assert misses == 1

    def test_query_bad_granularity_errors(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "query",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "--granularity",
                "Time",
            ]
        )
        assert code == 2
        assert "expected Dimension=category" in capsys.readouterr().err

    def test_stats_detects_metrics_snapshot_document(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("repro_demo_total").inc(3)
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert main(["stats", str(path), "--format", "text"]) == 0
        assert "repro_demo_total  3" in capsys.readouterr().out


class TestFiguresAndDemo:
    def test_one_figure(self, capsys):
        assert main(["figures", "4"]) == 0
        assert "=== Figure 4 ===" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "42"]) == 2

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bench", "--smoke"])
        assert raised.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "reduced at 2000-11-05: 4 facts" in out


class TestDurableCommands:
    @pytest.fixture
    def durable(self, stored, tmp_path):
        mo_file, spec_file = stored
        path = tmp_path / "dstore"
        code = main(
            [
                "reduce",
                str(mo_file),
                str(spec_file),
                "--at",
                "2000-11-05",
                "-o",
                str(tmp_path / "reduced.json"),
                "--durable",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_reduce_durable_materializes_a_store(self, durable, capsys):
        assert (durable / "journal.jsonl").exists()
        assert (durable / "CURRENT").exists()
        assert list((durable / "snapshots").iterdir())

    def test_recover_reports_a_clean_store(self, durable, capsys):
        assert main(["recover", str(durable)]) == 0
        out = capsys.readouterr().out
        assert "recovered 4 facts in 3 cubes" in out

    def test_recover_json_payload(self, durable, capsys):
        assert main(["recover", str(durable), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interrupted_sync"] is None
        assert payload["last_sync"] == "2000-11-05"
        assert payload["discarded"] == 0
        assert sum(payload["cubes"].values()) == 4

    def test_recover_missing_path_fails(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_recover_complete_finishes_an_interrupted_sync(
        self, stored, tmp_path, capsys
    ):
        from repro.engine.durable import DurableStore
        from repro.engine.faults import FaultInjector, InjectedFault
        from repro.experiments.paper_example import (
            build_paper_mo,
            paper_specification,
        )

        mo = build_paper_mo()
        faults = FaultInjector()
        store = DurableStore.create(
            str(tmp_path / "crashed"),
            mo,
            paper_specification(mo),
            faults=faults,
        )
        store.load(
            (
                fact_id,
                dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
                {
                    name: mo.measure_value(fact_id, name)
                    for name in mo.schema.measure_names
                },
            )
            for fact_id in sorted(mo.facts())
        )
        faults.arm("sync.migrate", at_hit=2)
        with pytest.raises(InjectedFault):
            store.synchronize(dt.date(2000, 6, 5))
        store.close()

        assert main(["recover", str(tmp_path / "crashed")]) == 0
        assert "NOT re-run" in capsys.readouterr().out
        assert main(["recover", str(tmp_path / "crashed"), "--complete"]) == 0
        out = capsys.readouterr().out
        assert "completed interrupted synchronization at 2000-06-05" in out
        # The completed sync is durable: auditing now sees a clean store.
        assert main(["audit", str(tmp_path / "crashed")]) == 0

    def test_audit_clean_store(self, durable, capsys):
        assert main(["audit", str(durable)]) == 0
        out = capsys.readouterr().out
        assert "audit clean: 4 facts covering 7 sources" in out

    def test_audit_json_payload(self, durable, capsys):
        assert main(["audit", str(durable), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["ok"] is True
        assert payload["audit"]["violations"] == []
        assert payload["recovery"]["last_lsn"] > 0

    def test_audit_detects_corruption(self, stored, tmp_path, capsys):
        from repro.engine.durable import DurableStore
        from repro.experiments.paper_example import (
            build_paper_mo,
            paper_specification,
        )

        mo = build_paper_mo()
        store = DurableStore.create(
            str(tmp_path / "broken"), mo, paper_specification(mo)
        )
        store.load(
            (
                fact_id,
                dict(zip(mo.schema.dimension_names, mo.direct_cell(fact_id))),
                {
                    name: mo.measure_value(fact_id, name)
                    for name in mo.schema.measure_names
                },
            )
            for fact_id in sorted(mo.facts())
        )
        store.synchronize(dt.date(2000, 6, 5))
        # Corrupt the store behind the engine's back, then persist it.
        cube = next(c for c in store.cubes.values() if c.n_facts)
        cube.mo.delete_fact(next(iter(cube.facts())))
        store.snapshot()
        store.close()
        assert main(["audit", str(tmp_path / "broken")]) == 1
        assert "audit FAILED" in capsys.readouterr().out


class TestAnalyze:
    @pytest.fixture
    def findings_spec(self, tmp_path):
        # A spec the SDR2xx analyzer rules fire on: the TRUE action is
        # union-covered by the .com/.edu pair.
        path = tmp_path / "findings.spec"
        path.write_text(
            "com: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.com'](O))\n"
            "edu: p(a[Time.month, URL.domain_grp] "
            "o[URL.domain_grp = '.edu'](O))\n"
            "victim: p(a[Time.month, URL.domain_grp] o[TRUE](O))\n"
        )
        return path

    def test_clean_spec_text_report(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(["check", str(spec_file), "--mo", str(mo_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Action-relationship matrix:" in out
        assert "Reachability:" in out
        assert "Cost estimates" in out

    def test_warning_findings_exit_zero(self, stored, findings_spec, capsys):
        mo_file, _ = stored
        code = main(["check", str(findings_spec), "--mo", str(mo_file)])
        assert code == 0  # SDR201 is a warning; only errors fail
        out = capsys.readouterr().out
        assert "warning[SDR201]" in out
        assert "dead: victim" in out

    def test_json_format(self, stored, capsys):
        mo_file, spec_file = stored
        code = main(
            [
                "check",
                str(spec_file),
                "--mo",
                str(mo_file),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["schema"] == "repro-analysis/2"
        assert payload["analysis"]["actions"] == ["a1", "a2"]
        assert payload["diagnostics"] == []

    def test_sarif_embeds_analysis(self, stored, findings_spec, capsys):
        mo_file, _ = stored
        code = main(
            [
                "check",
                str(findings_spec),
                "--mo",
                str(mo_file),
                "--format",
                "sarif",
            ]
        )
        assert code == 0
        log = json.loads(capsys.readouterr().out)
        run = log["runs"][0]
        assert run["properties"]["analysis"]["schema"] == "repro-analysis/2"
        dead = run["properties"]["analysis"]["reachability"]["dead"]
        assert "victim" in dead
        codes = {
            result["ruleId"] for result in run["results"]
        }
        assert "SDR201" in codes

    def test_output_file(self, stored, tmp_path, capsys):
        mo_file, spec_file = stored
        out_file = tmp_path / "analysis.json"
        code = main(
            [
                "check",
                str(spec_file),
                "--mo",
                str(mo_file),
                "--format",
                "json",
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["analysis"]["schema"] == "repro-analysis/2"

    def test_unparseable_entries_still_analyzed(
        self, stored, tmp_path, capsys
    ):
        mo_file, _ = stored
        path = tmp_path / "mixed.spec"
        path.write_text(
            "good: p(a[Time.month, URL.domain] "
            "o[URL.domain_grp = '.com'](O))\n"
            "bad: p(a[Time.month URL.domain] o[TRUE](O))\n"
        )
        code = main(["check", str(path), "--mo", str(mo_file)])
        # The good entry is analyzed; the front-end error is an
        # error-level finding, not a crash.
        assert code == 1
        out = capsys.readouterr().out
        assert "error[SDR001]" in out
        assert "live: good" in out

    def test_missing_inputs_exit_two(self, stored, tmp_path, capsys):
        mo_file, spec_file = stored
        assert (
            main(["check", "/nonexistent.spec", "--mo", str(mo_file)]) == 2
        )
        assert (
            main(["check", str(spec_file), "--mo", "/nonexistent.json"])
            == 2
        )
