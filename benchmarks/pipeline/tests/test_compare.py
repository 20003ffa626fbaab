"""compare.py verdicts and exit codes."""

from __future__ import annotations

import json

import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "layer_ms", "unit": "ms", "better": "lower"}],
}


def documents(workload, profile="driver", **metrics):
    runs = len(next(iter(metrics.values())))
    return [
        {
            "workload": workload,
            "profile": {"name": profile},
            "metrics": {
                name: {"value": values[index], "unit": "x"}
                for name, values in metrics.items()
            },
        }
        for index in range(runs)
    ]


def verdicts(base, new):
    return {
        (row["workload"], row["metric"]): row["verdict"]
        for row in compare.compare(base, new, BENCHMARK)
    }


def test_within_bound_is_same():
    base = documents("w", latency_ms=[10.0, 10.1, 9.9], rate=[100.0] * 3)
    new = documents("w", latency_ms=[10.4, 10.5, 10.3], rate=[95.0] * 3)
    assert verdicts(base, new) == {
        ("w", "latency_ms"): "same",
        ("w", "rate"): "same",
    }


def test_direction_decides_worse_and_better():
    base = documents("w", latency_ms=[10.0] * 3, rate=[100.0] * 3)
    slower = documents("w", latency_ms=[12.0] * 3, rate=[80.0] * 3)
    faster = documents("w", latency_ms=[8.0] * 3, rate=[120.0] * 3)
    assert set(verdicts(base, slower).values()) == {"worse"}
    assert set(verdicts(base, faster).values()) == {"better"}


def test_wide_overlapping_spread_is_unresolved():
    base = documents("w", latency_ms=[8.0, 10.0, 12.0, 14.0, 9.0])
    new = documents("w", latency_ms=[9.0, 13.0, 15.0, 11.0, 10.0])
    assert verdicts(base, new) == {("w", "latency_ms"): "unresolved"}


def test_counts_that_repeat_exactly_are_same_whatever_the_seeds_spread():
    values = [100.0, 140.0, 180.0, 120.0, 160.0]
    assert verdicts(documents("w", rate=values), documents("w", rate=values)) == {
        ("w", "rate"): "same"
    }


def test_wide_but_separated_runs_still_resolve():
    base = documents("w", latency_ms=[8.0, 10.0, 12.0, 14.0, 9.0])
    new = documents("w", latency_ms=[20.0, 24.0, 30.0, 22.0, 26.0])
    assert verdicts(base, new) == {("w", "latency_ms"): "worse"}


def test_per_layer_metrics_have_no_bound():
    base = documents("w", layer_ms=[1.0, 1.0])
    new = documents("w", layer_ms=[5.0, 5.0])
    assert verdicts(base, new) == {("w", "layer_ms"): "info"}


def test_rows_are_per_workload_and_metric():
    base = documents("a", latency_ms=[1.0]) + documents("b", latency_ms=[2.0])
    new = documents("a", latency_ms=[1.0]) + documents("b", latency_ms=[2.0])
    assert sorted(verdicts(base, new)) == [
        ("a", "latency_ms"),
        ("b", "latency_ms"),
    ]


def test_main_exit_codes_and_bounds_from_benchmark_json(tmp_path, capsys):
    def write(name, value):
        path = tmp_path / name
        lines = [
            json.dumps(document)
            for document in documents("query_mix", query_p50_ms=[value] * 3)
        ]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    base = write("base.jsonl", 10.0)
    assert compare.main([base, write("same.jsonl", 10.2)]) == 0
    assert "same" in capsys.readouterr().out
    assert compare.main([base, write("worse.jsonl", 20.0)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([base]) == 2
    assert compare.main([base, str(tmp_path / "missing.jsonl")]) == 2


def test_full_profile_runs_are_held_to_issue_15s_bounds():
    """12 % worse is inside BENCHMARK.json's 0.25, outside the issue's
    0.10 (0.15 for the reader beside the refresher)."""
    benchmark = compare.load_benchmark()

    def rows(profile, workload, metric):
        base = documents(workload, profile, **{metric: [10.0] * 3})
        new = documents(workload, profile, **{metric: [11.2] * 3})
        return compare.compare(base, new, benchmark)

    (row,) = rows("driver", "query_mix", "query_p50_ms")
    assert (row["bound"], row["verdict"]) == (0.25, "same")
    (row,) = rows("full", "query_mix", "query_p50_ms")
    assert (row["bound"], row["verdict"]) == (0.10, "worse")
    (row,) = rows("full", "query_mix", "serve_p50_ms")
    assert (row["bound"], row["verdict"]) == (0.10, "worse")
    (row,) = rows("full", "serve_refresh", "serve_p50_ms")
    assert (row["bound"], row["verdict"]) == (0.15, "same")


def test_sets_of_two_profiles_do_not_compare(tmp_path):
    base = documents("w", "driver", latency_ms=[1.0])
    new = documents("w", "full", latency_ms=[1.0])
    paths = []
    for name, docs in (("a.jsonl", base), ("b.jsonl", new)):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        paths.append(str(path))
    assert compare.main(paths) == 2


def test_disturbed_runs_counts_runs_with_a_section_in_a_slow_spell():
    quiet = {"raw": {"slowdown": {"reduce": [1.0, 1.1], "steps": [[1.0]]}}}
    slow = {"raw": {"slowdown": {"reduce": [1.0], "steps": [[1.0, 1.4]]}}}
    assert compare.disturbed_runs([quiet, slow, slow, {}]) == "2/4"


def test_wall_clock_compares_the_measured_seconds():
    def runs(reported, measured):
        return [
            {
                "workload": "w",
                "profile": {"name": "driver"},
                "metrics": {"latency_ms": {"value": reported, "unit": "ms"}},
                "wall_clock": {"latency_ms": measured},
            }
        ] * 3

    base, new = runs(10.0, 10.0), runs(10.0, 14.0)
    assert [r["verdict"] for r in compare.compare(base, new, BENCHMARK)] == [
        "same"
    ]
    assert [
        r["verdict"] for r in compare.compare(base, new, BENCHMARK, True)
    ] == ["worse"]
