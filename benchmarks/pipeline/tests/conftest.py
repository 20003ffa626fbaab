"""Self-tests of the pipeline benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/pipeline/tests -q

The smoke runs are launched once per session, one after the other: the
two vCPUs of the box this is sized for share one core, so two runs side
by side take as long as two in a row.  Three runs at about 10 s each
are most of the suite's time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

PIPELINE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(PIPELINE))
sys.path.insert(0, PIPELINE)

#: (label, workload, seed, trace) of each smoke run the tests read.
SMOKE_RUNS = (
    ("first", "backfill", 1, 0),
    ("other_seed", "query_mix", 2, 0),
    ("traced", "serve_refresh", 1, 1),
)


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """label -> (exit code, result line, result document)."""
    directory = tmp_path_factory.mktemp("pipeline-smoke")
    results = {}
    for label, workload, seed, trace in SMOKE_RUNS:
        out = directory / f"{label}.jsonl"
        finished = subprocess.run(
            [
                sys.executable,
                os.path.join(PIPELINE, "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--trace", str(trace),
                "--smoke",
                "--out", str(out),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert finished.returncode == 0, finished.stderr
        results[label] = (
            finished.returncode,
            json.loads(finished.stdout.strip().splitlines()[-1]),
            json.loads(out.read_text()),
        )
    return results


@pytest.fixture(scope="session")
def benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as s:
        return json.load(s)
