"""Tests for repro.serve.gateway: the admission core (auth -> rate ->
shed -> quota -> deadline -> cost feedback) and the HTTP/WebSocket wire
protocol on top of it."""

from __future__ import annotations

import asyncio
import base64
import json
import os

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    sine_manufactured,
)
from repro.serve import (
    AdmissionPolicy,
    AuthError,
    CostAwareRouter,
    CostModel,
    DeadlineExceeded,
    Gateway,
    GatewayServer,
    Overloaded,
    QuotaExceeded,
    RateLimited,
    ShardedSolveService,
    SolveService,
    Tenant,
    TenantRegistry,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeTicket:
    """A SolveTicket stand-in that resolves only when told to."""

    def __init__(self):
        self._callbacks = []
        self._done = False
        self._cancelled = False
        self._result = None
        self._error = None

    def add_done_callback(self, fn):
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def cancel(self):
        self._cancelled = True
        self._fire()
        return True

    def cancelled(self):
        return self._cancelled

    def done(self):
        return self._done or self._cancelled

    def exception(self, timeout=None):
        return self._error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._result

    def resolve(self, result):
        self._result = result
        self._fire()

    def fail(self, error):
        self._error = error
        self._fire()

    def _fire(self):
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class FakeResult:
    def __init__(self, iterations=10):
        self.x = np.zeros(3)
        self.iterations = iterations
        self.converged = True
        self.residual_norm = 0.0


class FakeBackend:
    """Just enough surface for AsyncSolveService + Gateway: submit,
    close, queue depths.  Tickets resolve on demand."""

    def __init__(self, depths=(0, 0)):
        self.depths = list(depths)
        self.tickets = []
        self.submits = []
        self.submit_error = None

    @property
    def queue_depths(self):
        return tuple(self.depths)

    def submit(self, b, tol=None, maxiter=None, key=None,
               deadline=None, precision=None):
        if self.submit_error is not None:
            raise self.submit_error
        self.submits.append(
            {"key": key, "tol": tol, "deadline": deadline,
             "precision": precision}
        )
        ticket = FakeTicket()
        self.tickets.append(ticket)
        return ticket

    def close(self):
        pass


def make_gateway(backend=None, clock=None, admission=AdmissionPolicy(),
                 **tenant_kwargs):
    clock = clock if clock is not None else FakeClock()
    registry = TenantRegistry(clock=clock)
    tenant = registry.provision("acme", **tenant_kwargs)
    gateway = Gateway(
        backend if backend is not None else FakeBackend(),
        registry, admission=admission, clock=clock,
    )
    return gateway, tenant, clock


class TestAdmissionPipeline:
    def test_unknown_token_raises_and_counts(self):
        gateway, _tenant, _clock = make_gateway()
        with pytest.raises(AuthError):
            gateway.admit("nope")
        assert gateway.counters["auth_failures"] == 1
        assert gateway.counters["requests"] == 1

    def test_priority_is_capped_not_self_declared(self):
        gateway, tenant, _clock = make_gateway(priority=1)
        _t, effective = gateway.admit(tenant.token, priority=2)
        assert effective == 1
        _t, effective = gateway.admit(tenant.token, priority=0)
        assert effective == 0

    def test_priority_defaults_to_tenant_cap(self):
        gateway, tenant, _clock = make_gateway(priority=2)
        _t, effective = gateway.admit(tenant.token)
        assert effective == 2

    def test_rate_limit_carries_exact_retry_after(self):
        gateway, tenant, _clock = make_gateway(rate=2.0, burst=1)
        gateway.admit(tenant.token)
        with pytest.raises(RateLimited) as excinfo:
            gateway.admit(tenant.token)
        assert excinfo.value.retry_after == pytest.approx(0.5)
        assert gateway.counters["rate_limited"] == 1
        # A rate-limited request never reached the quota ledger.
        assert gateway.ledger.charged("acme") == 1

    def test_rate_limit_recovers_with_the_clock(self):
        gateway, tenant, clock = make_gateway(rate=1.0, burst=1)
        gateway.admit(tenant.token)
        with pytest.raises(RateLimited):
            gateway.admit(tenant.token)
        clock.advance(1.0)
        gateway.admit(tenant.token)

    def test_sheds_before_watermark_with_backoff_hint(self):
        backend = FakeBackend(depths=(5, 5))  # 5/replica, soft limit 4
        gateway, tenant, _clock = make_gateway(
            backend=backend,
            admission=AdmissionPolicy(soft_limit=4, hard_limit=8),
        )
        with pytest.raises(Overloaded) as excinfo:
            gateway.admit(tenant.token, priority=0)
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0.0
        assert gateway.counters["shed"] == 1
        # Shed requests are never charged.
        assert gateway.ledger.charged("acme") == 0

    def test_high_priority_rides_through_the_soft_limit(self):
        backend = FakeBackend(depths=(5, 5))
        gateway, tenant, _clock = make_gateway(
            backend=backend, priority=2,
            admission=AdmissionPolicy(
                soft_limit=4, hard_limit=8, levels=3
            ),
        )
        tenant_out, effective = gateway.admit(tenant.token, priority=2)
        assert effective == 2
        assert gateway.counters["shed"] == 0

    def test_quota_exhaustion_is_terminal(self):
        gateway, tenant, _clock = make_gateway(quota=2)
        gateway.admit(tenant.token)
        gateway.admit(tenant.token)
        with pytest.raises(QuotaExceeded):
            gateway.admit(tenant.token)
        assert gateway.counters["quota_exceeded"] == 1
        assert gateway.ledger.charged("acme") == 2

    def test_admission_none_disables_shedding(self):
        backend = FakeBackend(depths=(1000, 1000))
        gateway, tenant, _clock = make_gateway(
            backend=backend, admission=None
        )
        gateway.admit(tenant.token)  # no shed


class TestGatewaySolve:
    def test_fleet_refusal_refunds_quota(self):
        backend = FakeBackend()
        backend.submit_error = Overloaded("fleet watermark")
        gateway, tenant, _clock = make_gateway(
            backend=backend, quota=5
        )

        async def run():
            with pytest.raises(Overloaded):
                await gateway.solve(tenant.token, np.zeros(3))

        asyncio.run(run())
        # Charged at admit, refunded when the fleet refused: exact.
        assert gateway.ledger.charged("acme") == 0
        assert gateway.counters["admitted"] == 0

    def test_completion_records_history_and_cost(self):
        backend = FakeBackend()
        gateway, tenant, _clock = make_gateway(backend=backend)

        async def run():
            loop = asyncio.get_running_loop()
            task = asyncio.ensure_future(
                gateway.solve(tenant.token, np.zeros(3), tol=1e-8)
            )
            while not backend.tickets:
                await asyncio.sleep(0.001)
            loop.call_soon(backend.tickets[0].resolve, FakeResult(17))
            return await task

        result = asyncio.run(run())
        assert result.iterations == 17
        assert gateway.counters["completed"] == 1
        hist = gateway.tenant_stats.snapshot().tenant_iterations
        assert hist[("acme", 1e-8, None)] == (1, 17.0)
        assert gateway.cost_model.predict("acme", 1e-8, None) == 17.0
        assert len(gateway.latencies()) == 1

    def test_routes_by_tenant_key_on_sharded_backends(self):
        backend = FakeBackend()
        gateway, tenant, _clock = make_gateway(backend=backend)

        async def run():
            task = asyncio.ensure_future(
                gateway.solve(tenant.token, np.zeros(3))
            )
            while not backend.tickets:
                await asyncio.sleep(0.001)
            backend.tickets[0].resolve(FakeResult())
            await task

        asyncio.run(run())
        assert backend.submits[0]["key"] == "acme"

    def test_deadline_expiry_cancels_the_ticket(self):
        backend = FakeBackend()
        gateway, tenant, _clock = make_gateway(backend=backend)

        async def run():
            with pytest.raises(DeadlineExceeded):
                # The fake ticket never resolves: the gateway must give
                # up at its own deadline and disown the request.
                await gateway.solve(
                    tenant.token, np.zeros(3), deadline=0.05
                )

        asyncio.run(run())
        assert backend.tickets[0].cancelled()
        assert backend.submits[0]["deadline"] == 0.05
        assert gateway.counters["expired"] == 1

    def test_default_deadline_applies(self):
        backend = FakeBackend()
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        tenant = registry.provision("acme")
        gateway = Gateway(
            backend, registry, default_deadline=0.05, clock=clock
        )

        async def run():
            with pytest.raises(DeadlineExceeded):
                await gateway.solve(tenant.token, np.zeros(3))

        asyncio.run(run())
        assert backend.submits[0]["deadline"] == 0.05

    def test_skips_double_observe_with_cost_router_backend(self):
        model = CostModel()
        backend = FakeBackend()
        backend._router = CostAwareRouter(2, model=model)
        registry = TenantRegistry()
        tenant = registry.provision("acme")
        gateway = Gateway(backend, registry, cost_model=model)
        assert gateway._router_observes
        # A gateway with its *own* model still observes.
        other = Gateway(backend, registry, cost_model=CostModel())
        assert not other._router_observes

    def test_healthz_reports_fleet_shape(self):
        backend = FakeBackend(depths=(1, 2))
        gateway, _tenant, _clock = make_gateway(backend=backend)
        doc = gateway.healthz()
        assert doc["status"] == "ok"
        assert doc["replicas"] == 2
        assert doc["pending"] == 3


@pytest.fixture(scope="module")
def serving_problem():
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    bank = [b0 * (1.0 + 0.3 * k) for k in range(8)]
    return prob, bank


def sequential_solve(prob, b, tol=1e-10, maxiter=200):
    return cg_solve(
        prob.apply_A, b, precond_diag=prob.precond_diag(), tol=tol,
        maxiter=maxiter, workspace=prob.workspace,
    )


async def read_http_response(reader):
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    body = json.loads(await reader.readexactly(length)) if length else {}
    return status, headers, body


def http_request(method, path, token=None, body=b""):
    lines = [f"{method} {path} HTTP/1.1", "Host: gw"]
    if token is not None:
        lines.append(f"Authorization: Bearer {token}")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def solve_body(b, **knobs):
    doc = {"b": np.asarray(b).tolist(), **knobs}
    return json.dumps(doc).encode()


class TestGatewayHTTP:
    def test_solve_roundtrip_bit_identical(self, serving_problem):
        prob, bank = serving_problem

        async def run():
            svc = SolveService(
                prob.clone(), max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(http_request(
                    "POST", "/v1/solve", tenant.token,
                    solve_body(bank[0], tol=1e-10, maxiter=200),
                ))
                await writer.drain()
                status, _headers, payload = await read_http_response(
                    reader
                )
                writer.close()
                await writer.wait_closed()
            await gateway.aclose()
            return status, payload

        status, payload = asyncio.run(run())
        assert status == 200
        want = sequential_solve(serving_problem[0], serving_problem[1][0])
        # JSON numbers round-trip float64 exactly: bit-identical across
        # the wire, not just close.
        assert np.array_equal(np.asarray(payload["x"]), want.x)
        assert payload["iterations"] == want.iterations
        assert payload["converged"] is True
        assert payload["residual_norm"] == want.residual_norm

    def test_non_finite_rhs_is_a_400(self, serving_problem):
        """JSON carries NaN, so the wire can deliver a poisoned rhs; the
        service refuses it and the gateway answers 400."""
        prob, bank = serving_problem
        b = bank[0].copy()
        b[3] = np.nan

        async def run():
            svc = SolveService(
                prob.clone(), max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(http_request(
                    "POST", "/v1/solve", tenant.token, solve_body(b),
                ))
                await writer.drain()
                status, _headers, payload = await read_http_response(
                    reader
                )
                writer.close()
                await writer.wait_closed()
            await gateway.aclose()
            return status, payload

        status, payload = asyncio.run(run())
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "finite" in payload["detail"]

    def test_error_statuses_over_http(self):
        backend = FakeBackend(depths=(100,))

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision(
                "acme", rate=1000.0, burst=1, quota=1000
            )
            gateway = Gateway(
                backend, registry,
                admission=AdmissionPolicy(soft_limit=4, hard_limit=8),
            )
            out = {}
            async with GatewayServer(gateway) as server:
                async def roundtrip(raw):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(raw)
                    await writer.drain()
                    response = await read_http_response(reader)
                    writer.close()
                    await writer.wait_closed()
                    return response

                out["no_token"] = await roundtrip(http_request(
                    "POST", "/v1/solve", None, solve_body([0.0])
                ))
                out["bad_token"] = await roundtrip(http_request(
                    "POST", "/v1/solve", "nope", solve_body([0.0])
                ))
                # 401 outranks 400: malformed body + bad token.
                out["bad_both"] = await roundtrip(http_request(
                    "POST", "/v1/solve", "nope", b"{}"
                ))
                out["missing_b"] = await roundtrip(http_request(
                    "POST", "/v1/solve", tenant.token, b"{}"
                ))
                out["not_found"] = await roundtrip(http_request(
                    "GET", "/v1/nope", tenant.token
                ))
                # Deep fake queue (100 pending / 1 replica): shed.
                out["overloaded"] = await roundtrip(http_request(
                    "POST", "/v1/solve", tenant.token,
                    solve_body([0.0]),
                ))
            return out

        out = asyncio.run(run())
        assert out["no_token"][0] == 401
        assert out["bad_token"][0] == 401
        assert out["bad_both"][0] == 401
        assert out["missing_b"][0] == 400
        assert out["not_found"][0] == 404
        status, headers, body = out["overloaded"]
        assert status == 429
        assert body["error"] == "overloaded"
        assert body["retryable"] is True
        assert float(headers["retry-after"]) > 0.0

    def test_rate_limit_and_quota_over_http(self):
        backend = FakeBackend()

        async def run():
            clock = FakeClock()
            registry = TenantRegistry(clock=clock)
            limited = registry.provision("limited", rate=0.5, burst=1)
            metered = registry.provision("metered", quota=0)
            gateway = Gateway(backend, registry, clock=clock)
            out = {}
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )

                async def roundtrip(raw):
                    writer.write(raw)
                    await writer.drain()
                    return await read_http_response(reader)

                # Burst of 1: first admitted (resolve it), second 429.
                first = asyncio.ensure_future(roundtrip(http_request(
                    "POST", "/v1/solve", limited.token,
                    solve_body([0.0]),
                )))
                while not backend.tickets:
                    await asyncio.sleep(0.001)
                backend.tickets[0].resolve(FakeResult())
                out["ok"] = await first
                out["limited"] = await roundtrip(http_request(
                    "POST", "/v1/solve", limited.token,
                    solve_body([0.0]),
                ))
                out["quota"] = await roundtrip(http_request(
                    "POST", "/v1/solve", metered.token,
                    solve_body([0.0]),
                ))
                writer.close()
                await writer.wait_closed()
            return out

        out = asyncio.run(run())
        assert out["ok"][0] == 200
        status, headers, body = out["limited"]
        assert status == 429
        assert body["error"] == "rate_limited"
        assert body["retryable"] is True
        # Bucket at 0.5/s, empty: exactly 2 seconds to the next token.
        assert float(headers["retry-after"]) == pytest.approx(2.0)
        status, _headers, body = out["quota"]
        assert status == 429
        assert body["error"] == "quota_exceeded"
        assert body["retryable"] is False

    def test_deadline_maps_to_504(self):
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(http_request(
                    "POST", "/v1/solve", tenant.token,
                    solve_body([0.0], deadline=0.05),
                ))
                await writer.drain()
                response = await read_http_response(reader)
                writer.close()
                await writer.wait_closed()
            return response

        status, _headers, body = asyncio.run(run())
        assert status == 504
        assert body["error"] == "deadline_exceeded"
        assert backend.tickets[0].cancelled()

    def test_keep_alive_and_stats_and_healthz(self):
        backend = FakeBackend(depths=(0, 0))
        backend.stats = _FakeFleetStats()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                # One connection, three requests: HTTP/1.1 keep-alive.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )

                async def roundtrip(raw):
                    writer.write(raw)
                    await writer.drain()
                    return await read_http_response(reader)

                health = await roundtrip(
                    http_request("GET", "/v1/healthz")
                )
                denied = await roundtrip(
                    http_request("GET", "/v1/stats")
                )
                stats = await roundtrip(
                    http_request("GET", "/v1/stats", tenant.token)
                )
                writer.close()
                await writer.wait_closed()
            return health, denied, stats

        health, denied, stats = asyncio.run(run())
        assert health[0] == 200
        assert health[2]["status"] == "ok"
        assert health[2]["replicas"] == 2
        assert denied[0] == 401
        assert stats[0] == 200
        assert "gateway" in stats[2]
        assert "fleet" in stats[2]
        assert stats[2]["fleet"]["copy_bytes"] == 0


class _FakeFleetStats:
    submitted = 0
    completed = 0
    failed = 0
    expired = 0
    shed = 0
    queue_depth = 0
    copy_bytes = 0
    solves_per_second = 0.0


def client_frame(opcode, payload):
    mask = os.urandom(4)
    n = len(payload)
    head = bytes([0x80 | opcode])
    if n < 126:
        head += bytes([0x80 | n])
    elif n < 1 << 16:
        head += bytes([0x80 | 126]) + n.to_bytes(2, "big")
    else:
        head += bytes([0x80 | 127]) + n.to_bytes(8, "big")
    return head + mask + bytes(
        c ^ mask[i & 3] for i, c in enumerate(payload)
    )


async def read_frame(reader):
    head = await reader.readexactly(2)
    opcode = head[0] & 0x0F
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    return opcode, await reader.readexactly(length)


async def ws_connect(port, token):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    key = base64.b64encode(os.urandom(16)).decode()
    lines = [
        "GET /v1/session HTTP/1.1", "Host: gw",
        "Upgrade: websocket", "Connection: Upgrade",
        f"Sec-WebSocket-Key: {key}",
    ]
    if token is not None:
        lines.append(f"Authorization: Bearer {token}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return reader, writer, status, headers


class TestGatewayWebSocket:
    def test_session_pipelines_and_matches(self, serving_problem):
        prob, bank = serving_problem

        async def run():
            svc = SolveService(
                prob.clone(), max_batch=4, max_wait=0.002,
                background=True,
            )
            registry = TenantRegistry()
            tenant = registry.provision("flow")
            gateway = Gateway(svc, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, status, _headers = await ws_connect(
                    server.port, tenant.token
                )
                assert status == 101
                # Pipeline 4 timesteps without awaiting between sends.
                for i in range(4):
                    doc = {
                        "id": i, "b": bank[i].tolist(),
                        "tol": 1e-10, "maxiter": 200,
                    }
                    writer.write(
                        client_frame(0x1, json.dumps(doc).encode())
                    )
                await writer.drain()
                replies = {}
                while len(replies) < 4:
                    opcode, payload = await read_frame(reader)
                    assert opcode == 0x1
                    doc = json.loads(payload)
                    replies[doc["id"]] = doc
                # Ping keeps the session alive mid-stream.
                writer.write(client_frame(0x9, b"hb"))
                await writer.drain()
                opcode, payload = await read_frame(reader)
                assert opcode == 0xA and payload == b"hb"
                writer.write(
                    client_frame(0x8, (1000).to_bytes(2, "big"))
                )
                await writer.drain()
                opcode, _payload = await read_frame(reader)
                assert opcode == 0x8
                writer.close()
                await writer.wait_closed()
            await gateway.aclose()
            return replies

        replies = asyncio.run(run())
        for i in range(4):
            want = sequential_solve(serving_problem[0], serving_problem[1][i])
            assert replies[i]["status"] == 200
            assert np.array_equal(
                np.asarray(replies[i]["x"]), want.x
            )
            assert replies[i]["iterations"] == want.iterations

    def test_handshake_rejects_bad_token(self):
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                _r, writer, status, _h = await ws_connect(
                    server.port, "nope"
                )
                writer.close()
                await writer.wait_closed()
            return status

        assert asyncio.run(run()) == 401

    def test_session_survives_per_message_errors(self):
        backend = FakeBackend()

        async def run():
            registry = TenantRegistry()
            tenant = registry.provision("acme")
            gateway = Gateway(backend, registry)
            async with GatewayServer(gateway) as server:
                reader, writer, status, _h = await ws_connect(
                    server.port, tenant.token
                )
                assert status == 101
                # Malformed request: error reply, session stays up.
                writer.write(client_frame(
                    0x1, json.dumps({"id": "bad"}).encode()
                ))
                await writer.drain()
                _op, payload = await read_frame(reader)
                error_reply = json.loads(payload)
                # Valid request on the same session afterwards.
                writer.write(client_frame(0x1, json.dumps(
                    {"id": "good", "b": [0.0, 0.0]}
                ).encode()))
                await writer.drain()
                while not backend.tickets:
                    await asyncio.sleep(0.001)
                backend.tickets[0].resolve(FakeResult(3))
                _op, payload = await read_frame(reader)
                ok_reply = json.loads(payload)
                writer.close()
                await writer.wait_closed()
            return error_reply, ok_reply

        error_reply, ok_reply = asyncio.run(run())
        assert error_reply["id"] == "bad"
        assert error_reply["status"] == 400
        assert ok_reply["id"] == "good"
        assert ok_reply["status"] == 200
        assert ok_reply["iterations"] == 3


class TestGatewayOverShardedFleet:
    def test_multi_tenant_traffic_bit_identical(self, serving_problem):
        prob, bank = serving_problem

        async def run():
            model = CostModel()
            router = CostAwareRouter(2, model=model)
            svc = ShardedSolveService(
                prob, replicas=2, policy=router, max_batch=4,
                max_wait=0.002,
            )
            registry = TenantRegistry()
            tenants = [
                registry.provision(f"tenant{k}", priority=k % 3)
                for k in range(3)
            ]
            gateway = Gateway(svc, registry, cost_model=model)
            jobs = [
                (tenants[i % 3], bank[i]) for i in range(len(bank))
            ]
            results = await asyncio.gather(*(
                gateway.solve(t.token, b, tol=1e-10, maxiter=200)
                for t, b in jobs
            ))
            counters = gateway.counters
            charged = gateway.ledger.totals()
            await gateway.aclose()
            return results, counters, charged

        results, counters, charged = asyncio.run(run())
        for b, got in zip(serving_problem[1], results):
            want = sequential_solve(serving_problem[0], b)
            assert np.array_equal(got.x, want.x)
            assert got.iterations == want.iterations
        assert counters["completed"] == len(results)
        # Quota exactness: everything admitted, nothing refunded.
        assert sum(charged.values()) == len(results)
