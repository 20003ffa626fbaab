"""The JSON-line query server: round trips, deadlines, backpressure.

No pytest-asyncio in the image: each test wraps its async body in
``asyncio.run``.  Servers bind port 0 (the OS picks), so tests are
parallel-safe.
"""

import asyncio
import datetime as dt
import json

import pytest

from repro.engine.faults import FaultInjector, SlowFault
from repro.engine.queryproc import SubcubeQuery
from repro.errors import ServingError
from repro.engine.store import SubcubeStore
from repro.experiments.paper_example import (
    SNAPSHOT_TIMES,
    build_paper_mo,
    paper_specification,
)
from repro.query.algebra import mo_rows
from repro.serving import (
    QueryServer,
    RetryPolicy,
    ServerConfig,
    ServingClient,
    ServingService,
)

from repro.spec.specification import ReductionSpecification
from repro.workload import (
    ClickstreamConfig,
    build_clickstream_mo,
    grouped_retention_actions,
)

from ..engine.durableutil import facts_of

NOW = SNAPSHOT_TIMES[0].isoformat()
LATER = SNAPSHOT_TIMES[1].isoformat()


def make_service():
    mo = build_paper_mo()
    store = SubcubeStore(mo, paper_specification(mo))
    store.load(facts_of(mo))
    store.synchronize(SNAPSHOT_TIMES[0])
    faults = FaultInjector()
    return ServingService(store, faults=faults), faults


def serve(test_body, config=None, service=None, faults=None):
    """Run *test_body(server, service, faults)* against a live server."""
    if service is None:
        service, faults = make_service()

    async def run():
        server = QueryServer(service, config or ServerConfig())
        await server.start()
        try:
            return await test_body(server, service, faults)
        finally:
            await server.stop()

    return asyncio.run(run())


async def raw_request(server, payload):
    """One request over a raw connection — no client-side retries."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


class TestRoundTrip:
    def test_ping_version_query_stats(self):
        async def body(server, service, faults):
            host, port = server.address
            async with ServingClient(host, port) as client:
                pong = await client.ping()
                assert pong["ok"] and pong["pong"]

                version = await client.version()
                assert version["version"] == 1
                assert version["facts"] == service.store.total_facts()
                assert version["breaker"] == "closed"

                rollup = await client.query(
                    NOW,
                    predicate="URL.domain_grp = '.com'",
                    granularity={"Time": "year", "URL": "domain"},
                )
                assert rollup["ok"]
                assert rollup["version"] == 1
                assert rollup["fingerprint"] == (
                    service.snapshots.current().fingerprint
                )
                assert not rollup["degraded"]
                assert rollup["rows"], "the .com rollup cannot be empty"

                stats = await client.stats()
                families = {
                    m["name"] for m in stats["metrics"]["metrics"]
                }
                assert "repro_serving_requests_total" in families
                assert "repro_serving_request_seconds" in families

        serve(body)

    def test_request_id_is_echoed(self):
        async def body(server, service, faults):
            response = await raw_request(
                server, {"op": "ping", "id": "req-7"}
            )
            assert response["id"] == "req-7"

        serve(body)

    def test_sync_op_publishes_a_new_version(self):
        async def body(server, service, faults):
            host, port = server.address
            async with ServingClient(host, port) as client:
                first = await client.sync(LATER)
                assert first["ok"] and first["published"]
                assert first["version"] == 2
                assert first["breaker"] == "closed"
                seen = await client.query(LATER)
                assert seen["version"] == 2
                assert seen["fingerprint"] == first["fingerprint"]

        serve(body)

    def test_granularity_defaults_missing_dimensions_to_top(self):
        async def body(server, service, faults):
            response = await raw_request(
                server,
                {"op": "query", "now": NOW, "granularity": {"Time": "year"}},
            )
            assert response["ok"], response

        serve(body)


class TestLargeResponse:
    def test_answer_over_64_kib_round_trips(self):
        config = ClickstreamConfig(
            start=dt.date(2000, 1, 1),
            end=dt.date(2000, 1, 31),
            domains_per_group=3,
            urls_per_domain=3,
            clicks_per_day=30,
            seed=7,
        )
        mo = build_clickstream_mo(config)
        specification = ReductionSpecification(
            grouped_retention_actions(mo, detail_months=3, coarse_years=2),
            mo.dimensions,
        )
        now = dt.date(2000, 2, 1)
        store = SubcubeStore(mo, specification)
        store.load(facts_of(mo))
        store.synchronize(now)
        service = ServingService(store)
        granularity = {"Time": "day", "URL": "url"}

        async def body(server, service, faults):
            host, port = server.address
            async with ServingClient(host, port) as client:
                return await client.query(
                    now.isoformat(), granularity=granularity
                )

        response = serve(body, service=service)
        assert response["ok"], response
        expected, _, _ = service.query(SubcubeQuery(None, granularity), now)
        # The wire carries JSON: tuples come back as lists.
        expected_rows = json.loads(json.dumps(mo_rows(expected)))
        assert len(json.dumps(expected_rows)) > 1 << 16
        assert response["rows"] == expected_rows


class TestBadRequests:
    def test_malformed_json_is_400(self):
        async def body(server, service, faults):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            assert not response["ok"]
            assert response["error"]["code"] == 400

        serve(body)

    def test_unknown_op_is_400(self):
        async def body(server, service, faults):
            response = await raw_request(server, {"op": "launch"})
            assert response["error"]["code"] == 400
            assert "unknown op" in response["error"]["reason"]

        serve(body)

    def test_missing_now_is_400(self):
        async def body(server, service, faults):
            response = await raw_request(server, {"op": "query"})
            assert response["error"]["code"] == 400

        serve(body)

    def test_over_limit_request_line_is_400_and_closes_only_that_connection(
        self,
    ):
        async def body(server, service, faults):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # One byte past asyncio's default 64 KiB stream limit.
            writer.write(b"x" * ((1 << 16) + 1) + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert not response["ok"]
            assert response["error"] == {
                "code": 400,
                "reason": "request line too long",
            }
            assert await reader.readline() == b""  # server hung up
            writer.close()
            await writer.wait_closed()
            assert (await raw_request(server, {"op": "ping"}))["ok"]

        serve(body)

    def test_bad_request_does_not_kill_the_connection(self):
        async def body(server, service, faults):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"garbage\n")
            await writer.drain()
            await reader.readline()
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            assert response["ok"]

        serve(body)


class TestDeadlines:
    def test_slow_handler_times_out_with_504(self):
        service, faults = make_service()
        # Stall the first handler well past the request deadline.
        faults.arm(
            "serve.slow", at_hit=1, payload=SlowFault(0.5)
        )

        async def body(server, service, faults):
            host, port = server.address
            async with ServingClient(host, port) as client:
                slow = await client.query(NOW, deadline_ms=50)
                assert not slow["ok"]
                assert slow["error"]["code"] == 504
                assert "deadline" in slow["error"]["reason"]
                # The connection and the server both survive.
                follow_up = await client.ping()
                assert follow_up["ok"]

        serve(body, service=service, faults=faults)

    def test_request_deadline_is_capped_by_the_server(self):
        service, faults = make_service()
        faults.arm("serve.slow", at_hit=1, payload=SlowFault(0.5))

        async def body(server, service, faults):
            # The client asks for 60s; the server cap (0.05s) wins.
            response = await raw_request(
                server, {"op": "ping", "deadline_ms": 60_000}
            )
            assert response["error"]["code"] == 504

        serve(
            body,
            config=ServerConfig(deadline_seconds=0.05),
            service=service,
            faults=faults,
        )


class TestHandlerCrash:
    def test_crashing_handler_is_500_and_server_survives(self):
        service, faults = make_service()
        faults.arm("serve.handler", at_hit=1)

        async def body(server, service, faults):
            host, port = server.address
            async with ServingClient(host, port) as client:
                crashed = await client.query(NOW)
                assert not crashed["ok"]
                assert crashed["error"]["code"] == 500
                assert "InjectedFault" in crashed["error"]["reason"]
                # Degradation, not death: the next request succeeds.
                retry = await client.query(NOW)
                assert retry["ok"]
                assert retry["version"] == 1

        serve(body, service=service, faults=faults)


class TestBackpressure:
    def test_full_admission_queue_rejects_with_429(self):
        async def body(server, service, faults):
            # max_queue=0: every request is turned away at admission.
            response = await raw_request(server, {"op": "ping"})
            assert not response["ok"]
            assert response["error"]["code"] == 429
            assert response["retry_after_ms"] == 25

        serve(body, config=ServerConfig(max_queue=0, retry_after_ms=25))

    def test_retrying_client_exhausts_attempts_against_a_full_queue(self):
        async def body(server, service, faults):
            host, port = server.address
            policy = RetryPolicy(
                max_attempts=3, base_delay=0.001, max_delay=0.002
            )
            async with ServingClient(host, port, policy) as client:
                with pytest.raises(ServingError, match="after 3 attempts"):
                    await client.ping()
                assert client.retried_rejections == 3

        serve(body, config=ServerConfig(max_queue=0))

    def test_queue_drains_and_admission_resumes(self):
        service, faults = make_service()
        # One slow request occupies the single admission slot; while it
        # runs, a second request must bounce with 429; afterwards the
        # queue has drained and requests are admitted again.
        faults.arm("serve.slow", at_hit=1, payload=SlowFault(0.3))

        async def body(server, service, faults):
            host, port = server.address
            slow_client = ServingClient(host, port)
            fast_client = ServingClient(host, port)
            try:
                slow = asyncio.create_task(
                    slow_client.request({"op": "ping"})
                )
                await asyncio.sleep(0.05)  # the slow request is in flight
                bounced = await raw_request(server, {"op": "ping"})
                assert bounced["error"]["code"] == 429
                assert (await slow)["ok"]
                admitted = await fast_client.ping()
                assert admitted["ok"]
            finally:
                await slow_client.close()
                await fast_client.close()

        serve(
            body,
            config=ServerConfig(max_queue=1),
            service=service,
            faults=faults,
        )


class TestShutdown:
    def test_shutdown_op_closes_the_server(self):
        async def body(server, service, faults):
            waiter = asyncio.create_task(server.serve_until_closed())
            host, port = server.address
            async with ServingClient(host, port) as client:
                response = await client.shutdown()
                assert response["ok"] and response["stopping"]
            await asyncio.wait_for(waiter, timeout=5.0)

        serve(body)


class TestConcurrency:
    def test_many_concurrent_clients_with_interleaved_syncs(self):
        async def body(server, service, faults):
            host, port = server.address

            async def worker(index):
                async with ServingClient(
                    host, port, RetryPolicy(seed=index)
                ) as client:
                    ok = 0
                    for n in range(6):
                        if (index + n) % 3 == 0:
                            response = await client.sync(LATER)
                        else:
                            response = await client.query(NOW)
                        if response.get("ok"):
                            ok += 1
                    return ok

            results = await asyncio.gather(*(worker(i) for i in range(12)))
            assert sum(results) == 12 * 6  # every request succeeded
            # All the interleaved syncs published at most one new
            # version each; the final state is coherent.
            status = await raw_request(server, {"op": "version"})
            assert status["version"] == service.version
            assert not status["degraded"]

        serve(body, config=ServerConfig(max_queue=256))

    def test_concurrent_publish_never_yields_a_torn_response(self):
        service, faults = make_service()
        # Slow down one query so a sync publishes underneath it.
        faults.arm("serve.slow", at_hit=1, payload=SlowFault(0.2))

        async def body(server, service, faults):
            host, port = server.address
            fp1 = service.snapshots.current().fingerprint
            slow_client = ServingClient(host, port)
            sync_client = ServingClient(host, port)
            try:
                slow = asyncio.create_task(slow_client.query(NOW))
                await asyncio.sleep(0.05)
                published = await sync_client.sync(LATER)
                assert published["published"]
                assert published["version"] == 2
                racer = await slow
                # The racing reader landed on one published version or
                # the other — its (version, fingerprint) pair is exactly
                # a publication point, never a mixture.
                assert racer["ok"]
                assert (racer["version"], racer["fingerprint"]) in {
                    (1, fp1),
                    (2, published["fingerprint"]),
                }
            finally:
                await slow_client.close()
                await sync_client.close()

        serve(body, service=service, faults=faults)
