"""A retrying JSON-line client with deterministic backoff.

Retries cover exactly the failures retrying can help with: connection
errors (the server is restarting) and 429 backpressure rejections
(honouring the server's ``retry_after_ms`` hint as a floor under the
exponential schedule).  Deadline (504) and handler (500) failures are
*not* retried by default — repeating a request that just burned its
deadline only deepens the overload.

Backoff is exponential with multiplicative jitter drawn from a seeded
``random.Random``, so a test (or a reproduction of a production
incident) replays the exact same retry schedule.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ServingError

#: Longest response line the client accepts.  A query answer is one
#: JSON line, and asyncio's 64 KiB default is a few hundred rows.
RESPONSE_LINE_LIMIT = 1 << 24


@dataclass(frozen=True)
class RetryPolicy:
    """An exponential-backoff schedule with seeded jitter."""

    max_attempts: int = 5
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    #: Fraction of each delay randomly shaved off (0 = fully determin-
    #: istic spacing; 0.5 = delays uniformly in [50%, 100%] of nominal).
    jitter: float = 0.5
    seed: int = 0

    def delays(self) -> "_DelaySchedule":
        return _DelaySchedule(self)


@dataclass
class _DelaySchedule:
    """The concrete delay sequence of one request's retry loop."""

    policy: RetryPolicy
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.policy.seed)

    def delay_for(self, attempt: int, floor: float = 0.0) -> float:
        """The backoff before retry *attempt* (0-based), >= *floor*."""
        nominal = min(
            self.policy.max_delay,
            self.policy.base_delay * self.policy.multiplier**attempt,
        )
        jittered = nominal * (1.0 - self.policy.jitter * self._rng.random())
        return max(floor, jittered)


class ServingClient:
    """An asyncio client for the :class:`~repro.serving.server.QueryServer`.

    One connection, sequential requests (the JSON-line protocol is
    strictly request/response per connection); concurrency comes from
    running several clients, as the benchmark does.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else RetryPolicy()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: 429s absorbed by the retry loop (overload the client rode out).
        self.retried_rejections = 0
        #: Reconnects after a dropped connection.
        self.reconnects = 0

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=RESPONSE_LINE_LIMIT
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServingClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Request machinery
    # ------------------------------------------------------------------

    async def request(self, payload: Mapping) -> dict:
        """Send one request, retrying 429s and connection drops.

        Returns the (possibly ``ok: false``) response object; raises
        :class:`~repro.errors.ServingError` only when every attempt was
        consumed by a retryable failure.
        """
        schedule = self.policy.delays()
        last_reason = "no attempts made"
        for attempt in range(self.policy.max_attempts):
            try:
                response = await self._roundtrip(payload)
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                last_reason = f"connection failed: {exc}"
                self.reconnects += 1
                await self.close()
                await asyncio.sleep(schedule.delay_for(attempt))
                continue
            error = response.get("error") or {}
            if not response.get("ok") and error.get("code") == 429:
                self.retried_rejections += 1
                last_reason = "rejected: admission queue full"
                floor = float(response.get("retry_after_ms", 0)) / 1000.0
                await asyncio.sleep(schedule.delay_for(attempt, floor))
                continue
            return response
        raise ServingError(
            f"request failed after {self.policy.max_attempts} attempts "
            f"({last_reason})"
        )

    async def _roundtrip(self, payload: Mapping) -> dict:
        if self._reader is None or self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            json.dumps(dict(payload), sort_keys=True).encode("utf-8") + b"\n"
        )
        await self._writer.drain()
        try:
            line = await self._reader.readline()
        except ValueError as exc:
            # The reader dropped part of the line; the stream cannot be
            # resynchronized, and a retry would get the same answer.
            await self.close()
            raise ServingError(f"response line too long: {exc}") from exc
        if not line:
            raise ConnectionResetError("server closed the connection")
        document = json.loads(line)
        if not isinstance(document, dict):
            raise ServingError(f"non-object response: {document!r}")
        return document

    # ------------------------------------------------------------------
    # Convenience ops
    # ------------------------------------------------------------------

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def version(self) -> dict:
        return await self.request({"op": "version"})

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def sync(self, now: str) -> dict:
        return await self.request({"op": "sync", "now": now})

    async def query(
        self,
        now: str,
        predicate: str | None = None,
        granularity: Mapping[str, str] | None = None,
        deadline_ms: int | None = None,
    ) -> dict:
        payload: dict = {"op": "query", "now": now, "predicate": predicate}
        if granularity is not None:
            payload["granularity"] = dict(granularity)
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return await self.request(payload)

    async def shutdown(self) -> dict:
        return await self.request({"op": "shutdown"})
