"""The checked-in JSON Schema matches what registries actually emit."""

import json
import pathlib

import jsonschema
import pytest

from repro.obs.metrics import TIME_BUCKETS, MetricsRegistry

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCHEMA_PATH = REPO_ROOT / "docs" / "schemas" / "metrics-snapshot.schema.json"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


def full_registry():
    registry = MetricsRegistry()
    registry.counter("repro_demo_total", {"kind": "a"}, help="Demo.").inc(2)
    registry.gauge("repro_demo_last").set(-1.5)
    histogram = registry.histogram(
        "repro_demo_seconds", buckets=TIME_BUCKETS, help="Demo timing."
    )
    histogram.observe(0.002)
    histogram.observe(7.0)
    return registry


def test_real_snapshot_validates(schema):
    jsonschema.validate(full_registry().snapshot(), schema)


def test_empty_snapshot_validates(schema):
    jsonschema.validate(MetricsRegistry().snapshot(), schema)


def test_schema_rejects_mislabelled_snapshot(schema):
    snapshot = full_registry().snapshot()
    snapshot["schema"] = "repro-metrics/999"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(snapshot, schema)


def test_schema_rejects_malformed_sample(schema):
    snapshot = full_registry().snapshot()
    snapshot["metrics"][0]["samples"][0] = {"labels": {}, "value": "high"}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(snapshot, schema)
