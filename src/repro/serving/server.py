"""An asyncio JSON-line query server over a :class:`ServingService`.

Protocol: one JSON object per line in each direction (newline-delimited
JSON over TCP).  Requests carry an ``op`` (``ping``, ``version``,
``query``, ``sync``, ``stats``, ``shutdown``) and an optional ``id``
echoed back verbatim.  Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": {"code": ..., "reason": ...}}`` with
HTTP-flavoured codes:

* ``429`` — admission queue full (backpressure); carries
  ``retry_after_ms`` so well-behaved clients back off instead of
  hammering;
* ``504`` — the per-request deadline elapsed before the handler
  finished (the work is cancelled, the connection survives);
* ``400`` — malformed request (bad JSON, unknown op, bad field);
* ``500`` — the handler crashed (including the ``serve.handler``
  failpoint); the server logs the failure into its metrics and keeps
  serving.

CPU-bound query work runs in worker threads (``asyncio.to_thread``), so
a stalling query — e.g. the ``serve.slow`` failpoint — never blocks the
event loop, and deadline cancellation stays responsive.
"""

from __future__ import annotations

import asyncio
import datetime as _dt
import json
import time
import warnings
from dataclasses import dataclass
from typing import Mapping

from .. import sanitize
from ..core.hierarchy import TOP
from ..engine.queryproc import SubcubeQuery
from ..errors import ReproError
from ..query.aggregation import AggregationApproach
from ..query.algebra import mo_rows
from ..query.compare import Approach
from . import telemetry
from .service import ServingService

_REJECT_HELP = "Requests turned away, by reason."
_REQUEST_HELP = "Requests finished, by op and terminal status."


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick (tests); real deploys pin one
    #: Admitted-but-unfinished requests beyond which new ones get 429.
    max_queue: int = 64
    #: Requests executing concurrently (the rest wait in the queue).
    max_inflight: int = 8
    #: Default per-request deadline; requests may override (capped here).
    deadline_seconds: float = 5.0
    #: Hint sent with 429 responses.
    retry_after_ms: int = 50


class QueryServer:
    """Serve snapshot-isolated queries with deadlines and backpressure."""

    def __init__(
        self, service: ServingService, config: ServerConfig | None = None
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServerConfig()
        self.metrics = service.metrics
        self._server: asyncio.AbstractServer | None = None
        self._block_monitor: sanitize.LoopBlockMonitor | None = None
        self._admitted = 0
        self._slots: asyncio.Semaphore | None = None
        self._closing = asyncio.Event()
        self._connections: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful when the config port was 0."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if sanitize.enabled(sanitize.BLOCK):
            self._block_monitor = sanitize.LoopBlockMonitor(
                asyncio.get_running_loop(), on_stall=self._note_loop_stall
            )
            self._block_monitor.start()

    def _note_loop_stall(self, elapsed: float) -> None:
        """The block sanitizer caught a handler holding the event loop."""
        self.metrics.counter(
            telemetry.LOOP_STALLS,
            help="Event-loop stalls past the block-sanitizer threshold.",
        ).inc()
        worst = self.metrics.gauge(
            telemetry.LOOP_STALL_SECONDS,
            help="Worst event-loop stall observed, seconds.",
        )
        worst.set(max(worst.value, elapsed))
        warnings.warn(
            f"serving event loop blocked for {elapsed * 1000:.1f} ms; "
            "blocking work belongs in asyncio.to_thread",
            sanitize.EventLoopBlockedWarning,
            stacklevel=2,
        )

    async def stop(self) -> None:
        if self._block_monitor is not None:
            self._block_monitor.stop()
            self._block_monitor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._closing.set()

    async def serve_until_closed(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) is called."""
        await self._closing.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the stream limit: the reader dropped part of
                    # the line, so this connection cannot be resynchronized.
                    response = self._error(
                        None, None,
                        400, "request line too long", time.perf_counter(),
                    )
                    writer.write(
                        json.dumps(response, sort_keys=True).encode("utf-8")
                        + b"\n"
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(
                    json.dumps(response, sort_keys=True).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    self._closing.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-write; nothing to clean up
        except asyncio.CancelledError:
            pass  # server shutdown drains handlers; exit cleanly
        finally:
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.TimeoutError,
                asyncio.CancelledError,
            ):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        started = time.perf_counter()
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return self._error(
                None, None, 400, f"bad request line: {exc}", started
            )
        request_id = request.get("id")
        op = request.get("op")
        if op not in ("ping", "version", "query", "sync", "stats", "shutdown"):
            return self._error(
                request_id, None, 400, f"unknown op {op!r}", started
            )

        # Backpressure: admission is a plain counter check — cheap, and
        # rejected requests never touch the execution semaphore.
        if self._admitted >= self.config.max_queue:
            self.metrics.counter(
                telemetry.REJECTED, {"reason": "overload"}, help=_REJECT_HELP
            ).inc()
            response = self._error(
                request_id, op, 429, "admission queue full", started
            )
            response["retry_after_ms"] = self.config.retry_after_ms
            return response

        deadline = self._deadline_of(request)
        self._admitted += 1
        self.metrics.gauge(
            telemetry.QUEUE_DEPTH, help="Requests admitted, not yet finished."
        ).set(self._admitted)
        try:
            return await asyncio.wait_for(
                self._execute(request_id, op, request, started),
                timeout=deadline,
            )
        except asyncio.TimeoutError:
            self.metrics.counter(
                telemetry.REJECTED, {"reason": "deadline"}, help=_REJECT_HELP
            ).inc()
            return self._error(
                request_id, op,
                504, f"deadline of {deadline}s exceeded", started,
            )
        finally:
            self._admitted -= 1
            self.metrics.gauge(
                telemetry.QUEUE_DEPTH,
                help="Requests admitted, not yet finished.",
            ).set(self._admitted)

    def _deadline_of(self, request: Mapping) -> float:
        deadline = self.config.deadline_seconds
        requested = request.get("deadline_ms")
        if isinstance(requested, (int, float)) and requested > 0:
            deadline = min(deadline, float(requested) / 1000.0)
        return deadline

    async def _execute(
        self, request_id: object, op: str, request: Mapping, started: float
    ) -> dict:
        assert self._slots is not None
        async with self._slots:
            inflight = self.metrics.gauge(
                telemetry.INFLIGHT, help="Requests executing right now."
            )
            inflight.inc()
            try:
                body = await asyncio.to_thread(
                    self._dispatch, op, dict(request)
                )
            except ReproError as exc:
                self.metrics.counter(
                    telemetry.REJECTED,
                    {"reason": "handler"},
                    help=_REJECT_HELP,
                ).inc()
                return self._error(
                    request_id, op,
                    500, f"{type(exc).__name__}: {exc}", started,
                )
            except (ValueError, KeyError, TypeError) as exc:
                return self._error(request_id, op, 400, str(exc), started)
            finally:
                inflight.dec()
        response = {"ok": True, "op": op, **body}
        if request_id is not None:
            response["id"] = request_id
        self._finish(op, "ok", started)
        return response

    def _error(
        self,
        request_id: object,
        op: str | None,
        code: int,
        reason: str,
        started: float,
    ) -> dict:
        response: dict = {
            "ok": False,
            "error": {"code": code, "reason": reason},
        }
        if op is not None:
            response["op"] = op
        if request_id is not None:
            response["id"] = request_id
        status = {429: "rejected", 504: "deadline", 500: "error"}.get(
            code, "bad_request"
        )
        self._finish(op or "unknown", status, started)
        return response

    def _finish(self, op: str, status: str, started: float) -> None:
        self.metrics.counter(
            telemetry.REQUESTS, {"op": op, "status": status},
            help=_REQUEST_HELP,
        ).inc()
        telemetry.request_histogram(self.metrics).observe(
            time.perf_counter() - started
        )

    # ------------------------------------------------------------------
    # Request handlers (run in worker threads)
    # ------------------------------------------------------------------

    def _dispatch(self, op: str, request: dict) -> dict:
        self.service.faults.hit("serve.slow")
        self.service.faults.hit("serve.handler")
        if op == "ping":
            return {"pong": True}
        if op == "version":
            return dict(self.service.status())
        if op == "stats":
            return {"metrics": self.metrics.snapshot()}
        if op == "shutdown":
            return {"stopping": True}
        if op == "sync":
            return self._handle_sync(request)
        return self._handle_query(request)

    def _handle_sync(self, request: dict) -> dict:
        now = _parse_date(request.get("now"))
        snapshot = self.service.refresh(now)
        if snapshot is None:
            return {
                "published": False,
                "version": self.service.version,
                "degraded": self.service.degraded,
                "breaker": self.service.breaker.state,
            }
        return {
            "published": True,
            "version": snapshot.version,
            "fingerprint": snapshot.fingerprint,
            "degraded": False,
            "breaker": self.service.breaker.state,
        }

    def _handle_query(self, request: dict) -> dict:
        now = _parse_date(request.get("now"))
        query = self._parse_query(request)
        result, snapshot, degraded = self.service.query(query, now)
        return {
            "version": snapshot.version,
            "fingerprint": snapshot.fingerprint,
            "degraded": degraded,
            "rows": mo_rows(result),
        }

    def _parse_query(self, request: Mapping) -> SubcubeQuery:
        predicate = request.get("predicate")
        if predicate is not None and not isinstance(predicate, str):
            raise ValueError("'predicate' must be a string or null")
        granularity = dict(request.get("granularity") or {})
        schema = self.service.store.bottom_cube.mo.schema
        for name in schema.dimension_names:
            granularity.setdefault(name, TOP)
        approach = Approach(request.get("approach", "conservative"))
        aggregation = AggregationApproach(
            request.get("aggregation", "availability")
        )
        return SubcubeQuery(predicate, granularity, approach, aggregation)


def _parse_date(value: object) -> _dt.date:
    if not isinstance(value, str):
        raise ValueError("'now' must be an ISO date string (YYYY-MM-DD)")
    try:
        return _dt.date.fromisoformat(value)
    except ValueError:
        raise ValueError(f"bad date {value!r}; expected YYYY-MM-DD") from None
