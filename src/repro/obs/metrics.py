"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The reduction process is irreversible (Definition 2 deletes detail after
aggregating), so the engine's operational counters — facts admitted,
aggregated, deleted, examined, migrated — are the only record of what a
run actually did.  This module holds them:

* a :class:`MetricsRegistry` maps ``(name, labels)`` to one of three
  metric kinds, Prometheus-style: monotone :class:`Counter`, free-moving
  :class:`Gauge`, and :class:`Histogram` with fixed upper-bound buckets;
* :meth:`MetricsRegistry.snapshot` renders the whole registry as a
  schema-tagged JSON document (``repro-metrics/1``) that the CLI's
  ``--stats`` flags and the serving ``stats`` op print;
* :func:`snapshot_to_prometheus` / :func:`snapshot_to_text` render a
  snapshot (live or loaded from an artifact) as Prometheus text
  exposition format or a human-readable table.

There is always a *current* registry (:func:`get_registry`); module-level
instrumentation (the ``reduce_mo`` backends, the SQL reducer) writes to
it, while the subcube store owns a private registry per instance so
concurrent stores never mix their gauges.  Everything here is standard
library only.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

from ..errors import ObsError

#: Schema tag of :meth:`MetricsRegistry.snapshot` documents.
SNAPSHOT_SCHEMA = "repro-metrics/1"

#: Default histogram buckets for operation durations, in seconds.
TIME_BUCKETS = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_LabelKey = "tuple[tuple[str, str], ...]"


class Counter:
    """A monotonically increasing count (events, facts, bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObsError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (sizes, last-run statistics)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Observations bucketed under fixed upper bounds (plus ``+Inf``)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds: tuple[float, ...] = tuple(bounds)
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class _Family:
    """All children of one metric name (one per distinct label set)."""

    __slots__ = ("name", "kind", "help", "bounds", "children")

    def __init__(
        self, name: str, kind: str, help: str, bounds: tuple[float, ...] | None
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.children: dict[tuple, Counter | Gauge | Histogram] = {}


def _label_key(labels: Mapping[str, str] | None) -> _LabelKey:
    if not labels:
        return ()
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ObsError(f"invalid label name {label!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Metric accessors (create-on-first-use)
    # ------------------------------------------------------------------

    def counter(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        help: str = "",
    ) -> Counter:
        metric = self._child(name, "counter", labels, help, None)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        help: str = "",
    ) -> Gauge:
        metric = self._child(name, "gauge", labels, help, None)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = TIME_BUCKETS,
        help: str = "",
    ) -> Histogram:
        bounds = tuple(buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ObsError(f"{name}: bucket bounds must strictly increase")
        metric = self._child(name, "histogram", labels, help, bounds)
        assert isinstance(metric, Histogram)
        return metric

    def _child(
        self,
        name: str,
        kind: str,
        labels: Mapping[str, str] | None,
        help: str,
        bounds: tuple[float, ...] | None,
    ) -> Counter | Gauge | Histogram:
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                if not _NAME_RE.match(name):
                    raise ObsError(f"invalid metric name {name!r}")
                family = _Family(name, kind, help, bounds)
                self._families[name] = family
            elif family.kind != kind:
                raise ObsError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            elif kind == "histogram" and family.bounds != bounds:
                raise ObsError(
                    f"histogram {name!r} was created with buckets "
                    f"{family.bounds}, not {bounds}"
                )
            if help and not family.help:
                family.help = help
            child = family.children.get(key)
            if child is None:
                if kind == "counter":
                    child = Counter()
                elif kind == "gauge":
                    child = Gauge()
                else:
                    assert bounds is not None
                    child = Histogram(bounds)
                family.children[key] = child
            return child

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float | None:
        """The current value of a counter or gauge, or ``None`` if the
        metric (or that label combination) was never touched."""
        family = self._families.get(name)
        if family is None:
            return None
        child = family.children.get(_label_key(labels))
        if child is None or isinstance(child, Histogram):
            return None
        return child.value

    def names(self) -> list[str]:
        return sorted(self._families)

    def samples(
        self, name: str
    ) -> Iterator[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        """Every ``(labels, metric)`` child of one family, sorted."""
        family = self._families.get(name)
        if family is None:
            return
        for key in sorted(family.children):
            yield dict(key), family.children[key]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as a ``repro-metrics/1`` JSON document."""
        metrics: list[dict] = []
        for name in self.names():
            family = self._families[name]
            samples: list[dict] = []
            for key in sorted(family.children):
                child = family.children[key]
                sample: dict = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    sample["count"] = child.count
                    sample["sum"] = child.sum
                    sample["buckets"] = [
                        {
                            "le": "+Inf" if math.isinf(bound) else bound,
                            "count": count,
                        }
                        for bound, count in child.cumulative()
                    ]
                else:
                    sample["value"] = child.value
                samples.append(sample)
            metrics.append(
                {
                    "name": name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def to_prometheus(self) -> str:
        return snapshot_to_prometheus(self.snapshot())

    def to_text(self) -> str:
        return snapshot_to_text(self.snapshot())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Absorb *other*: counters add, gauges take the other's value,
        histograms merge bucket-wise (bounds must match)."""
        for name in other.names():
            family = other._families[name]
            for key in sorted(family.children):
                child = family.children[key]
                labels = dict(key)
                if isinstance(child, Counter):
                    self.counter(name, labels, family.help).inc(child.value)
                elif isinstance(child, Gauge):
                    self.gauge(name, labels, family.help).set(child.value)
                else:
                    mine = self.histogram(
                        name, labels, child.bounds, family.help
                    )
                    for index, count in enumerate(child.counts):
                        mine.counts[index] += count
                    mine.sum += child.sum
                    mine.count += child.count

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


class NullRegistry(MetricsRegistry):
    """A registry that drops every write — the observability kill-switch.

    ``obs.disabled()`` installs one so hot paths pay only the call-site
    cost; the shared throwaway children make every write a no-op that
    never accumulates state.
    """

    def _child(
        self,
        name: str,
        kind: str,
        labels: Mapping[str, str] | None,
        help: str,
        bounds: tuple[float, ...] | None,
    ) -> Counter | Gauge | Histogram:
        if kind == "counter":
            return _NULL_COUNTER
        if kind == "gauge":
            return _NULL_GAUGE
        return Histogram(bounds if bounds is not None else TIME_BUCKETS)

    def snapshot(self) -> dict:
        return {"schema": SNAPSHOT_SCHEMA, "metrics": []}


_NULL_COUNTER = Counter()
_NULL_GAUGE = Gauge()


# ----------------------------------------------------------------------
# The current registry
# ----------------------------------------------------------------------

_DEFAULT = MetricsRegistry()
_current: MetricsRegistry = _DEFAULT


def get_registry() -> MetricsRegistry:
    """The registry module-level instrumentation currently writes to."""
    return _current


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as current; returns the previous one."""
    global _current
    previous = _current
    _current = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope the current registry to a ``with`` block (tests, CLI runs)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Snapshot renderers (work on live registries and loaded artifacts alike)
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_text(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def validate_snapshot(document: Mapping) -> None:
    """Raise :class:`~repro.errors.ObsError` unless *document* is a
    structurally valid ``repro-metrics/1`` snapshot."""
    if document.get("schema") != SNAPSHOT_SCHEMA:
        raise ObsError(
            f"not a metrics snapshot (schema={document.get('schema')!r})"
        )
    metrics = document.get("metrics")
    if not isinstance(metrics, list):
        raise ObsError("snapshot 'metrics' must be a list")
    for family in metrics:
        name = family.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        if family.get("type") not in ("counter", "gauge", "histogram"):
            raise ObsError(f"{name}: invalid type {family.get('type')!r}")
        samples = family.get("samples")
        if not isinstance(samples, list):
            raise ObsError(f"{name}: 'samples' must be a list")
        for sample in samples:
            if not isinstance(sample.get("labels"), dict):
                raise ObsError(f"{name}: sample 'labels' must be an object")
            if family["type"] == "histogram":
                if not isinstance(sample.get("buckets"), list):
                    raise ObsError(f"{name}: histogram sample needs buckets")
            elif not isinstance(sample.get("value"), (int, float)):
                raise ObsError(f"{name}: sample 'value' must be a number")


def snapshot_to_prometheus(document: Mapping) -> str:
    """Render a snapshot in Prometheus text exposition format 0.0.4."""
    validate_snapshot(document)
    lines: list[str] = []
    for family in document["metrics"]:
        name = family["name"]
        if family.get("help"):
            help_text = str(family["help"]).replace("\\", "\\\\")
            lines.append(f"# HELP {name} " + help_text.replace("\n", "\\n"))
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["type"] == "histogram":
                for bucket in sample["buckets"]:
                    le = bucket["le"]
                    le_text = le if isinstance(le, str) else _format_value(le)
                    lines.append(
                        f"{name}_bucket"
                        + _labels_text(labels, f'le="{le_text}"')
                        + f" {bucket['count']}"
                    )
                lines.append(
                    f"{name}_sum{_labels_text(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_labels_text(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def snapshot_to_text(document: Mapping) -> str:
    """Render a snapshot as a compact human-readable table."""
    validate_snapshot(document)
    lines: list[str] = []
    for family in document["metrics"]:
        name = family["name"]
        for sample in family["samples"]:
            labels = _labels_text(sample["labels"])
            if family["type"] == "histogram":
                count = sample["count"]
                total = sample["sum"]
                mean = (total / count) if count else 0.0
                lines.append(
                    f"{name}{labels}  count={count} sum={total:.6f} "
                    f"mean={mean:.6f}"
                )
            else:
                lines.append(
                    f"{name}{labels}  {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def snapshot_to_json(document: Mapping) -> str:
    validate_snapshot(document)
    return json.dumps(document, indent=1, sort_keys=True)


#: Renderer dispatch used by the CLI's ``--stats-format`` option.
RENDERERS = {
    "json": snapshot_to_json,
    "prom": snapshot_to_prometheus,
    "text": snapshot_to_text,
}


def render_snapshot(document: Mapping, format: str) -> str:
    try:
        renderer = RENDERERS[format]
    except KeyError:
        raise ObsError(
            f"unknown stats format {format!r}; expected one of "
            f"{sorted(RENDERERS)}"
        ) from None
    return renderer(document)
