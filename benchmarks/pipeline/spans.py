"""Benchmark-side spans: recorded around calls into the program's layers.

Spans live in memory until the traced run ends.  Each has a name, start,
end, the span that caused it, and the round and request it belongs to.
Spans inside the program are a later change (ROADMAP item 5); the ones
the program already emits are harvested next to these by ``layers.py``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """An in-memory span recorder; inert unless *enabled*."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(
        self, name: str, round_id: int | None = None, request: object = None
    ) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": round_id,
            "request": request,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus what its children cover."""
        children: dict[int, float] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children[record["parent"]] = children.get(
                    record["parent"], 0.0
                ) + (record["end"] - record["start"])
        totals: dict[str, float] = {}
        for record in self.spans:
            own = (record["end"] - record["start"]) - children.get(
                record["id"], 0.0
            )
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals


#: The tracer of untraced runs.
OFF = Tracer(enabled=False)
