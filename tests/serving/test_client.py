"""The retrying client: deterministic backoff, floors, reconnects."""

import asyncio
import json

import pytest

from repro.errors import ServingError
from repro.serving import RetryPolicy, ServingClient


class TestBackoffSchedule:
    def test_zero_jitter_is_pure_exponential_capped(self):
        schedule = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0
        ).delays()
        delays = [schedule.delay_for(attempt) for attempt in range(6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05, 0.05]

    def test_same_seed_replays_the_exact_schedule(self):
        first = RetryPolicy(seed=42).delays()
        second = RetryPolicy(seed=42).delays()
        assert [first.delay_for(a) for a in range(5)] == [
            second.delay_for(a) for a in range(5)
        ]

    def test_different_seeds_differ(self):
        a = RetryPolicy(seed=1).delays()
        b = RetryPolicy(seed=2).delays()
        assert [a.delay_for(n) for n in range(5)] != [
            b.delay_for(n) for n in range(5)
        ]

    def test_jitter_only_shaves_never_inflates(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=1.0, jitter=0.5, seed=7
        )
        schedule = policy.delays()
        for attempt in range(8):
            nominal = min(
                policy.max_delay, policy.base_delay * 2.0**attempt
            )
            delay = schedule.delay_for(attempt)
            assert nominal * 0.5 <= delay <= nominal

    def test_retry_after_floor_wins_over_small_backoff(self):
        schedule = RetryPolicy(base_delay=0.001, jitter=0.0).delays()
        assert schedule.delay_for(0, floor=0.25) == 0.25
        # ... but a larger backoff is not clipped down to the floor.
        assert schedule.delay_for(0, floor=0.0001) == 0.001


async def scripted_server(responses):
    """A TCP stub that answers each line with the next canned response."""
    remaining = list(responses)
    requests = []

    async def handle(reader, writer):
        while remaining:
            line = await reader.readline()
            if not line:
                break
            requests.append(json.loads(line))
            writer.write(
                json.dumps(remaining.pop(0)).encode() + b"\n"
            )
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, str(host), int(port), requests


class TestRetryBehaviour:
    def test_429_is_retried_until_success(self):
        async def body():
            rejected = {
                "ok": False,
                "error": {"code": 429, "reason": "admission queue full"},
                "retry_after_ms": 1,
            }
            server, host, port, requests = await scripted_server(
                [rejected, rejected, {"ok": True, "pong": True}]
            )
            policy = RetryPolicy(base_delay=0.001, max_delay=0.002)
            async with ServingClient(host, port, policy) as client:
                response = await client.ping()
            server.close()
            await server.wait_closed()
            assert response["ok"]
            assert client.retried_rejections == 2
            assert len(requests) == 3

        asyncio.run(body())

    def test_504_and_500_are_returned_not_retried(self):
        async def body():
            for code in (504, 500):
                server, host, port, requests = await scripted_server(
                    [{"ok": False, "error": {"code": code, "reason": "x"}}]
                )
                async with ServingClient(host, port) as client:
                    response = await client.ping()
                server.close()
                await server.wait_closed()
                assert response["error"]["code"] == code
                assert len(requests) == 1
                assert client.retried_rejections == 0

        asyncio.run(body())

    def test_connection_refused_exhausts_attempts(self):
        async def body():
            # Bind-then-close yields a port with nothing listening.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            policy = RetryPolicy(
                max_attempts=2, base_delay=0.001, max_delay=0.002
            )
            client = ServingClient("127.0.0.1", port, policy)
            with pytest.raises(ServingError, match="after 2 attempts"):
                await client.ping()
            assert client.reconnects == 2

        asyncio.run(body())

    def test_dropped_connection_reconnects_and_succeeds(self):
        async def body():
            # First connection is dropped before answering; the retry
            # loop reconnects and the second connection answers.
            connections = 0

            async def handle(reader, writer):
                nonlocal connections
                connections += 1
                if connections == 1:
                    writer.close()
                    return
                line = await reader.readline()
                if line:
                    writer.write(
                        json.dumps({"ok": True, "pong": True}).encode()
                        + b"\n"
                    )
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            policy = RetryPolicy(base_delay=0.001, max_delay=0.002)
            client = ServingClient("127.0.0.1", port, policy)
            response = await client.request({"op": "ping"})
            await client.close()
            server.close()
            await server.wait_closed()
            assert response["ok"]
            assert client.reconnects >= 1

        asyncio.run(body())

    def test_over_limit_response_is_a_serving_error(self, monkeypatch):
        from repro.serving import client as client_module

        monkeypatch.setattr(client_module, "RESPONSE_LINE_LIMIT", 1024)

        async def body():
            server, host, port, requests = await scripted_server(
                [{"ok": True, "rows": ["x" * 2048]}]
            )
            client = ServingClient(host, port)
            with pytest.raises(ServingError, match="response line too long"):
                await client.ping()
            await client.close()
            server.close()
            await server.wait_closed()
            # Not retried: the same answer would overflow again.
            assert len(requests) == 1
            assert client.reconnects == 0

        asyncio.run(body())
