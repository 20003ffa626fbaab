"""The contract with the driver, checked on ``--smoke`` runs."""

from __future__ import annotations

import dataclasses
import re

import catalogue
import inputs
import measure
import phases
from calibration import Clock, Timing

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_result_line_has_exactly_the_contract_keys(smoke, benchmark_json):
    declared = {
        0: [metric["name"] for metric in benchmark_json["end_to_end"]],
        1: [metric["name"] for metric in benchmark_json["per_layer"]],
    }
    for code, line, document in smoke.values():
        assert code == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert line["failed"] == 0
        assert sorted(line["metrics"]) == sorted(declared[document["trace"]])
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_values_are_never_zero(smoke):
    for label in ("first", "other_seed"):
        _, line, _ = smoke[label]
        for name, metric in line["metrics"].items():
            assert metric["value"] > 0, name


def test_document_records_environment_rounds_and_raw_values(smoke):
    _, _, document = smoke["first"]
    assert document["schema"] == "repro-bench-pipeline/1"
    assert set(document["environment"]) >= {
        "nproc",
        "cpu_model",
        "python",
        "numpy",
        "PYTHONHASHSEED",
        "fsync",
        "workdir_filesystem",
    }
    assert document["environment"]["PYTHONHASHSEED"] == "0"
    assert document["profile"]["name"] == "smoke"
    assert document["rounds"] == catalogue.SMOKE.rounds
    # Per-round raw values sit next to the estimators' outputs.
    assert len(document["raw"]["backfill.ingest_s"]) == (
        document["rounds"]["backfill"]
    )
    assert len(document["raw"]["nightly.steps_s"][0]) == 14
    assert len(document["raw"]["slowdown"]["backfill.ingest"]) == (
        document["rounds"]["backfill"]
    )
    assert document["operations"]["attempted"]["checks"] > 0
    assert document["operations"]["failed"] == {}


def test_wall_clock_sits_beside_every_reported_time(smoke, benchmark_json):
    """A slowdown is never below 1, so a reported time is never above
    the wall seconds it came from, nor a reported rate below."""
    better = {m["name"]: m["better"] for m in benchmark_json["end_to_end"]}
    for label in ("first", "other_seed"):
        _, line, document = smoke[label]
        wall = document["wall_clock"]
        assert set(wall) == set(line["metrics"]) - {"peak_rss_mb"}
        for name, measured in wall.items():
            reported = line["metrics"][name]["value"]
            if better[name] == "lower":
                assert reported <= measured, name
            else:
                assert reported >= measured, name


def test_names_and_units_fit_the_charset(benchmark_json):
    names = [w["name"] for w in benchmark_json["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in benchmark_json[section]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_every_end_to_end_metric_has_bound_and_estimator(benchmark_json):
    declared = {m["name"]: m for m in benchmark_json["end_to_end"]}
    assert set(declared) == set(catalogue.END_TO_END)
    assert declared["setup_s"]["unit"] == "s"
    assert declared["setup_s"]["better"] == "lower"
    for name, metric in declared.items():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] <= declared["setup_s"]["bound"]
        estimator, owners = catalogue.END_TO_END[name]
        assert estimator
        assert owners and set(owners) <= set(catalogue.OWNED_PHASES)
        # Issue 15's bound for the full profile is never the wider one.
        for workload in owners:
            assert 0 < catalogue.bound_for(
                "full", workload, name, metric["bound"]
            ) <= metric["bound"]
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_benchmark_json_shape(benchmark_json):
    assert set(benchmark_json) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert benchmark_json["paths"] == ["benchmarks/pipeline"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(
        catalogue.OWNED_PHASES
    )
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert len(benchmark_json["end_to_end"]) <= 16
    assert len(benchmark_json["per_layer"]) <= 128


def test_counts_repeat_for_a_seed_and_change_with_another(smoke):
    def counts(label):
        raw = smoke[label][2]["raw"]
        return raw["nightly.stored"], raw["backfill.cube_sizes"]

    # Same seed, another workload, traced: every run drives one pipeline.
    assert counts("first") == counts("traced")
    assert counts("first") != counts("other_seed")
    first, other = smoke["first"][1], smoke["other_seed"][1]
    for name in ("stored_facts_per_source_fact", "stored_bytes_per_source_fact"):
        stored = smoke["first"][2]["raw"]["nightly.stored"]
        assert first["metrics"][name]["value"] != other["metrics"][name]["value"]
        assert first["metrics"][name]["value"] == (
            stored["facts" if "facts" in name else "bytes"]
            / smoke["first"][2]["profile"]["source_facts"]
        )


def test_traced_counts_match_the_untraced_run(smoke):
    _, traced, document = smoke["traced"]
    assert traced["metrics"]["engine.durable.discarded_records"]["value"] == 1
    assert traced["metrics"]["serving.server.rejected"]["value"] == 0
    assert traced["metrics"]["serving.server.deadline_504"]["value"] == 0
    assert set(document["attribution"]) == {
        "backfill.ingest",
        "query.in_process",
    }
    if document["parallel"]["mode"] == "serial":
        # No scaling claim without a second process.
        assert traced["metrics"]["parallel.reduce.processes"]["value"] == 1


def test_profiles_are_fixed_and_report_nothing_under_three_rounds():
    assert all(r >= 3 for r in catalogue.DRIVER.rounds.values())
    assert sorted(measure.LAST_ROUNDS_FIRST) == sorted(catalogue.PHASES)
    assert not catalogue.DRIVER.owner_only
    # Issue 15's profile: its volume, its rounds, one workload alone.
    assert catalogue.FULL.clicks_per_day == 100
    assert not catalogue.FULL.discount  # wall seconds, as the issue says
    assert catalogue.FULL.rounds_for("backfill") == {
        "setup": 3, "backfill": 4, "reduce": 5,
        "nightly": 0, "query": 0, "wire": 0, "serve_refresh": 0,
    }
    # A nightly round restores what one backfill round left behind.
    assert catalogue.FULL.rounds_for("nightly") == {
        "setup": 3, "backfill": 1, "nightly": 4,
        "reduce": 0, "query": 0, "wire": 0, "serve_refresh": 0,
    }
    assert catalogue.FULL.rounds_for("query_mix")["wire"] == 3


def test_owner_only_profile_runs_and_reports_the_owners_share(tmp_path):
    """``--full``'s code path, at the smoke volume."""
    profile = dataclasses.replace(catalogue.SMOKE, owner_only=True)
    run_inputs = inputs.build_inputs(1, profile.clicks_per_day, str(tmp_path))
    schedule = inputs.build_schedule(1)
    plan = measure.Plan("nightly", 0.0, profile, connections=1)
    tally = phases.Tally()
    clock = Clock()
    raw = measure.run_rounds(
        run_inputs, schedule, plan, str(tmp_path), tally, clock, Timing(1.0)
    )
    measure.final_checks(run_inputs, raw, tally)
    assert {p: len(r) for p, r in raw["rounds"].items()} == {
        "setup": 2, "backfill": 1, "nightly": 2,
        "reduce": 0, "query": 0, "wire": 0, "serve_refresh": 0,
    }
    assert not tally.failures
    # The single backfill round is a prerequisite, not a measurement.
    assert set(measure.end_to_end(run_inputs, schedule, plan, raw, clock)) == {
        "setup_s",
        "stored_facts_per_source_fact",
        "stored_bytes_per_source_fact",
        "day_step_p50_ms",
        "rollover_step_ms",
    }


def test_third_pass_is_skipped_when_it_would_overrun_the_budget(tmp_path):
    """The safety valve for the driver's time cap: with the budget long
    gone after two passes, no third one starts."""
    profile = dataclasses.replace(
        catalogue.SMOKE,
        rounds={**dict.fromkeys(catalogue.PHASES, 0), "reduce": 3},
        owner_only=True,
    )
    run_inputs = inputs.build_inputs(1, profile.clicks_per_day, str(tmp_path))
    plan = measure.Plan("backfill", -60.0, profile, connections=1)
    raw = measure.run_rounds(
        run_inputs, [], plan, str(tmp_path), phases.Tally(), Clock(),
        Timing(1.0),
    )
    assert len(raw["rounds"]["reduce"]) == 2


def test_schedule_mix_holds():
    schedule = inputs.build_schedule(seed=7)
    assert len(schedule) == inputs.SCHEDULE_LENGTH
    shapes = [request.shape for request in schedule]
    assert shapes.count("grand_total") * 8 == len(schedule)
    assert shapes.count("cold_predicate") * 4 == len(schedule)
    assert set(shapes) == set(inputs.SHAPES)
    cold = [r.predicate for r in schedule if r.shape == "cold_predicate"]
    assert len(set(cold)) == len(cold)  # never-repeated constants
    assert inputs.build_schedule(seed=7) == schedule
    assert inputs.build_schedule(seed=8) != schedule
