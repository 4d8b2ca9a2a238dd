"""Tests for the self-healing serving tier: crash -> respawn ->
bit-identical results, deadlines, retry exhaustion, the restart circuit
breaker, admission-control shedding, the unified ServiceClosed, and the
drop-only ticket.cancel contract."""

from __future__ import annotations

import asyncio
import time

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
    AsyncSolveService,
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    FleetUnavailable,
    Gateway,
    HealthState,
    Overloaded,
    ProcessShardedSolveService,
    QueueClosed,
    RestartPolicy,
    RetryPolicy,
    ServiceClosed,
    ShardedSolveService,
    SolveService,
    TenantRegistry,
    WorkerCrashed,
)


@pytest.fixture(scope="module")
def serving_problem():
    """The N=3/E=8 serving shape plus a bank of right-hand sides."""
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    bank = [b0 * (1.0 + 0.3 * k) for k in range(24)]
    return prob, bank


def sequential_solve(prob, b, tol=1e-10, maxiter=200):
    return cg_solve(
        prob.apply_A, b, precond_diag=prob.precond_diag(), tol=tol,
        maxiter=maxiter, workspace=prob.workspace,
    )


def assert_same_result(got, want):
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.residual_norm == want.residual_norm
    assert got.residual_history == want.residual_history


def wait_until(predicate, timeout=120.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def submit_with_patience(svc, b, timeout=120.0):
    """A well-behaved client of a degraded fleet: back off and resubmit
    on the *retryable* taxonomy errors (Overloaded, and FleetUnavailable
    during the window where every worker is mid-respawn)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return svc.submit(b)
        except (FleetUnavailable, Overloaded):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class TestCrashRespawnBitIdentity:
    def test_kill_each_worker_once_stream_stays_bit_identical(
        self, serving_problem
    ):
        """The acceptance criterion: a seeded FaultPlan kills each of
        K=2 workers once mid-stream; every request still resolves
        bit-identically to a sequential warm cg_solve (no WorkerCrashed
        escapes to any client), the fleet returns to K healthy workers
        on its own, and the restart/retry counters show the machinery
        actually ran."""
        prob, bank = serving_problem
        plan = FaultPlan.kill_each_worker_once(
            2, first_kill_after=2, stagger=3
        )
        injector = FaultInjector(plan)
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=4,
            max_wait=0.002, tol=1e-10, maxiter=200,
            chaos=injector,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
            restart=RestartPolicy(max_restarts=3, backoff_base=0.02),
        )
        try:
            tickets = [
                submit_with_patience(svc, b) for b in bank
            ]
            results = [t.result(timeout=120) for t in tickets]
            # Both planned kills fired...
            assert injector.kills_fired == 2
            # ...and the fleet healed itself back to K healthy workers.
            assert wait_until(
                lambda: svc.health.mask() == (True, True)
            ), f"fleet never healed: {svc.health.states}"
            assert wait_until(lambda: svc.restarts == 2)
            assert svc.alive_workers == (True, True)
            # Requests in flight on the killed workers were retried
            # transparently (never surfaced WorkerCrashed).
            assert svc.retried >= 1
            agg = svc.stats
            assert agg.restarts == 2
            assert agg.retries == svc.retried
        finally:
            svc.close()
        for b, got in zip(bank, results):
            assert_same_result(got, sequential_solve(prob, b))

    def test_respawned_worker_serves_after_manual_kill(
        self, serving_problem
    ):
        """No chaos plan — a worker killed out-of-band (OOM-killer
        style) is respawned and serves again, and the health registry
        walks HEALTHY -> DEGRADED -> HEALTHY."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=1, max_batch=4, max_wait=0.002,
            tol=1e-10, maxiter=200,
            restart=RestartPolicy(max_restarts=2, backoff_base=0.01),
        )
        try:
            first = svc.submit(bank[0]).result(timeout=60)
            svc._workers[0].process.terminate()
            assert wait_until(
                lambda: svc.health.state(0) is not HealthState.HEALTHY,
                timeout=30,
            )
            assert wait_until(lambda: svc.restarts == 1)
            assert svc.health.state(0) is HealthState.HEALTHY
            second = submit_with_patience(svc, bank[1]).result(timeout=60)
        finally:
            svc.close()
        assert_same_result(first, sequential_solve(prob, bank[0]))
        assert_same_result(second, sequential_solve(prob, bank[1]))


class TestSendFailsAfterCrashHarvest:
    def test_request_taken_by_the_crash_path_is_retried_once(
        self, serving_problem
    ):
        """A worker dies while a block is being sent to it, and its
        reader's crash path harvests the freshly registered request
        before the send fails.  The crash path then owns the retry: the
        dispatch must not also report WorkerCrashed, or the caller
        schedules a second retry and two live dispatches of one request
        race on its ring slot (a 'stale late completion' error)."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
            restart=RestartPolicy(max_restarts=3, backoff_base=0.02),
        )
        try:
            w = svc._workers[0]
            pipe = w.conn

            class DiesDuringSend:
                def send(self, msg):
                    if msg[0] != "solve_block":
                        return pipe.send(msg)
                    w.process.kill()
                    w.reader.join(timeout=60)  # crash path has run
                    raise BrokenPipeError("worker died mid-send")

                def __getattr__(self, name):
                    return getattr(pipe, name)

            w.conn = DiesDuringSend()
            ticket = svc.submit(bank[0])  # round-robin: worker 0 first
            assert_same_result(
                ticket.result(timeout=60), sequential_solve(prob, bank[0])
            )
            assert svc.retried == 1
        finally:
            svc.close()


class TestCircuitBreaker:
    def test_slot_that_keeps_dying_is_ejected(self, serving_problem):
        """max_restarts=1: the first death respawns, the second trips
        the breaker — the slot goes EJECTED (a one-way door) and, with
        no other worker, submits fail fast with FleetUnavailable."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=1, max_batch=4, max_wait=0.002,
            tol=1e-10, maxiter=200,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
            restart=RestartPolicy(max_restarts=1, backoff_base=0.01),
        )
        try:
            svc.submit(bank[0]).result(timeout=60)
            svc._workers[0].process.terminate()
            assert wait_until(lambda: svc.restarts == 1)
            svc._workers[0].process.terminate()
            assert wait_until(
                lambda: svc.health.state(0) is HealthState.EJECTED,
                timeout=60,
            ), f"breaker never tripped: {svc.health.states}"
            with pytest.raises(FleetUnavailable):
                svc.submit(bank[1])
        finally:
            svc.close()


class TestDeadlines:
    def test_expired_before_dispatch_fails_with_deadline_exceeded(
        self, serving_problem
    ):
        """A request whose budget lapses while parked in the batcher is
        expired at dispatch — counted, and never solved."""
        prob, bank = serving_problem
        svc = SolveService(
            prob, background=False, max_batch=8, tol=1e-10, maxiter=200
        )
        try:
            doomed = svc.submit(bank[0], deadline=1e-3)
            fine = svc.submit(bank[1], deadline=60.0)
            time.sleep(0.05)
            svc.flush()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            assert_same_result(
                fine.result(timeout=10),
                sequential_solve(prob, bank[1]),
            )
            snap = svc.stats
            assert snap.expired == 1
            assert snap.completed == 1
        finally:
            svc.close()

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_deadline_validation(self, serving_problem, bad):
        prob, bank = serving_problem
        svc = SolveService(prob, background=False)
        try:
            with pytest.raises(ValueError, match="deadline"):
                svc.submit(bank[0], deadline=bad)
        finally:
            svc.close()

    def test_dropped_send_is_recovered_by_the_watchdog(
        self, serving_problem
    ):
        """A chaos-dropped pipe message never reaches the worker; the
        parent-side deadline watchdog is the only thing that can fail
        the request — and it does, with DeadlineExceeded, not a hang."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=1, max_batch=4, max_wait=0.002,
            tol=1e-10, maxiter=200,
            chaos=FaultPlan(drop_send={(0, 1)}),
        )
        svc.EXPIRE_GRACE = 0.05  # keep the test fast
        try:
            lost = svc.submit(bank[0], deadline=0.1)
            with pytest.raises(DeadlineExceeded):
                lost.result(timeout=30)
            # The fleet is still healthy (nothing crashed) and serves.
            after = svc.submit(bank[1]).result(timeout=60)
            assert svc.stats.expired >= 1
        finally:
            svc.close()
        assert_same_result(after, sequential_solve(prob, bank[1]))


class TestSheddingAndHealthGating:
    def test_procshard_sheds_with_overloaded_at_the_watermark(
        self, serving_problem
    ):
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=1, max_batch=8, max_wait=30.0,
            tol=1e-10, maxiter=200, shed_watermark=1,
        )
        try:
            parked = svc.submit(bank[0])  # depth 1 == watermark
            with pytest.raises(Overloaded):
                svc.submit(bank[1])
            assert svc.shed == 1
            assert svc.stats.shed == 1
            svc.flush()
            got = parked.result(timeout=60)
        finally:
            svc.close()
        assert_same_result(got, sequential_solve(prob, bank[0]))

    def test_thread_shard_sheds_and_routes_around_ejected_replica(
        self, serving_problem
    ):
        prob, bank = serving_problem
        with ShardedSolveService(
            prob, replicas=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200, shed_watermark=4,
        ) as svc:
            # Operator drains replica 0: every request must land on 1.
            svc.health.eject(0)
            results = [
                svc.submit(b).result(timeout=60) for b in bank[:6]
            ]
            assert svc.routed[0] == 0
            assert svc.routed[1] == 6
            assert svc.health_diverted >= 1
        for b, got in zip(bank[:6], results):
            assert_same_result(got, sequential_solve(prob, b))

    def test_no_healthy_replica_raises_fleet_unavailable(
        self, serving_problem
    ):
        prob, bank = serving_problem
        with ShardedSolveService(
            prob, replicas=1, max_batch=8, max_wait=0.002,
            tol=1e-10, maxiter=200,
        ) as svc:
            svc.health.eject(0)
            with pytest.raises(FleetUnavailable):
                svc.submit(bank[0])


class TestServiceClosedEverywhere:
    """Satellite (a): all four serving fronts raise the same
    ServiceClosed (a QueueClosed subclass, so pre-taxonomy callers
    keep working)."""

    def test_solve_service(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, background=False)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(bank[0])

    def test_thread_shard(self, serving_problem):
        prob, bank = serving_problem
        svc = ShardedSolveService(prob, replicas=1, max_wait=0.002)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(bank[0])

    def test_process_shard(self, serving_problem):
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=1, max_wait=0.002, tol=1e-10, maxiter=200
        )
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(bank[0])

    def test_async_front(self, serving_problem):
        prob, bank = serving_problem

        async def scenario():
            svc = SolveService(prob, background=True, max_wait=0.002)
            asvc = AsyncSolveService(svc)
            await asvc.aclose()
            with pytest.raises(ServiceClosed):
                await asvc.submit(bank[0])

        asyncio.run(scenario())

    def test_service_closed_is_a_queue_closed(self):
        assert issubclass(ServiceClosed, QueueClosed)


class TestTicketCancel:
    def test_cancel_drops_the_wait_not_the_batch(self, serving_problem):
        """Satellite (b): cancel() is drop-only — the cancelled request
        still rides its batch (batchmates' results are untouched and
        stats count the solve); the ticket just stops reporting."""
        prob, bank = serving_problem
        svc = SolveService(
            prob, background=False, max_batch=8, tol=1e-10, maxiter=200
        )
        try:
            dropped = svc.submit(bank[0])
            kept = svc.submit(bank[1])
            assert dropped.cancel() is True
            assert dropped.cancelled()
            svc.flush()
            assert_same_result(
                kept.result(timeout=10),
                sequential_solve(prob, bank[1]),
            )
            # The batch solved both requests: cancellation never
            # reaches into the batcher.
            assert svc.stats.completed == 2
            # A resolved ticket can no longer be cancelled.
            assert kept.cancel() is False
        finally:
            svc.close()

    def test_cancelled_procshard_ticket_resolves_nothing(
        self, serving_problem
    ):
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=1, max_batch=8, max_wait=30.0,
            tol=1e-10, maxiter=200,
        )
        try:
            parked = svc.submit(bank[0])
            assert parked.cancel() is True
            assert parked.cancelled()
            svc.flush()
        finally:
            svc.close()
        assert parked.cancelled()


class TestGatewayChaosDrill:
    def test_kill_each_worker_once_behind_the_gateway(
        self, serving_problem
    ):
        """The same kill-each-worker-once drill as above, but through
        the multi-tenant gateway: every client either retries on a
        *retryable* refusal (Overloaded with a backoff hint,
        FleetUnavailable) or gets a bit-identical result.  WorkerCrashed
        never reaches a client — the fleet's retry machinery absorbs
        both kills — and the gateway's books balance: completed equals
        the request count, failed stays zero, and the quota ledger
        charges exactly the admitted work."""
        prob, bank = serving_problem
        plan = FaultPlan.kill_each_worker_once(
            2, first_kill_after=2, stagger=3
        )
        injector = FaultInjector(plan)
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="cost", max_batch=4,
            max_wait=0.002, tol=1e-10, maxiter=200,
            chaos=injector,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
            restart=RestartPolicy(max_restarts=3, backoff_base=0.02),
        )
        registry = TenantRegistry()
        tenants = [
            registry.provision(f"tenant{i}", quota=len(bank))
            for i in range(3)
        ]
        gateway = Gateway(
            svc, registry,
            admission=AdmissionPolicy(soft_limit=64, hard_limit=128),
        )

        async def client(tenant, b):
            for _ in range(60):
                try:
                    return await gateway.solve(
                        tenant.token, b, tol=1e-10, maxiter=200
                    )
                except Overloaded as exc:
                    # Retryable by contract; honor the backoff hint.
                    await asyncio.sleep(
                        min(exc.retry_after or 0.05, 0.2)
                    )
                except FleetUnavailable:
                    await asyncio.sleep(0.05)
            raise AssertionError("client starved out after 60 retries")

        async def scenario():
            jobs = [
                client(tenants[i % 3], b) for i, b in enumerate(bank)
            ]
            return await asyncio.gather(*jobs, return_exceptions=True)

        try:
            outcomes = asyncio.run(scenario())
            crashes = [
                o for o in outcomes if isinstance(o, WorkerCrashed)
            ]
            assert not crashes, f"WorkerCrashed leaked: {crashes}"
            errors = [o for o in outcomes if isinstance(o, Exception)]
            assert not errors, f"non-retryable errors leaked: {errors}"
            assert injector.kills_fired == 2
            assert wait_until(
                lambda: svc.health.mask() == (True, True)
            ), f"fleet never healed: {svc.health.states}"
            counters = gateway.counters
            assert counters["completed"] == len(bank)
            assert counters["failed"] == 0
            # Quota charged exactly the admitted work: every fleet
            # refusal mid-drill was refunded before the client retried.
            totals = gateway.ledger.totals()
            assert sum(totals.values()) == len(bank)
            for i, tenant in enumerate(tenants):
                want = len([k for k in range(len(bank)) if k % 3 == i])
                assert totals[tenant.tenant_id] == want
        finally:
            svc.close()
        for b, got in zip(bank, outcomes):
            assert_same_result(got, sequential_solve(prob, b))


class TestRingSlotReclaimOnCancel:
    """Satellite (4): a ticket cancelled after gateway-side deadline
    expiry must release its staged ring slot — the deadline watchdog,
    not the wedged worker's eventual reply, is what reclaims it."""

    def test_watchdog_reclaims_cancelled_slot_behind_wedged_worker(
        self, serving_problem
    ):
        prob, bank = serving_problem
        # Worker 0 sleeps 9s in its message loop on its first block:
        # request A wedges the worker with slot 0 held, and nothing the
        # worker does can free slot 1 before the sleep ends.
        injector = FaultInjector(FaultPlan(slow_solves={0: {1: 9.0}}))
        svc = ProcessShardedSolveService(
            prob, workers=1, ring_slots=2, max_batch=1,
            max_wait=0.002, tol=1e-10, maxiter=200, chaos=injector,
        )
        try:
            ring = svc._rings[0]
            a = svc.submit(bank[0])
            assert wait_until(lambda: ring.in_use >= 1, timeout=10.0)
            b_ticket = svc.submit(bank[1], deadline=0.3)
            assert ring.in_use == 2
            # Gateway-style disowning: cancel right after staging.
            assert b_ticket.cancel() is True
            # The watchdog fires at deadline + grace (~0.8s) and must
            # unstage the cancelled request's slot — well before the
            # worker drains its 9s wedge.
            assert wait_until(
                lambda: ring.in_use == 1, timeout=4.0
            ), "cancelled ticket's ring slot was never reclaimed"
            # A cancelled ticket is not an expiry: its deadline decided
            # nothing, the cancel did.
            assert svc.stats.expired == 0
            # The freed slot is immediately usable: this submit stages
            # into the reclaimed slot and returns instead of blocking
            # on a full ring behind the still-wedged worker.  (No
            # in_use sample here: on a loaded host the wedge can drain
            # between submit and sample, making the count racy.)
            c = svc.submit(bank[2])
            got_a = a.result(timeout=60.0)
            got_c = c.result(timeout=60.0)
            assert b_ticket.cancelled()
        finally:
            svc.close()
        assert_same_result(got_a, sequential_solve(prob, bank[0]))
        assert_same_result(got_c, sequential_solve(prob, bank[2]))

    def test_cancellation_pressure_with_two_slots(
        self, serving_problem
    ):
        """Cancellation pressure on a ring_slots=2 service: with the
        worker wedged 10s, four cancel-after-deadline cycles must each
        reclaim the spare slot via the watchdog (~0.7s per cycle).
        Before the fix the second submit would block until the worker
        drained — the elapsed bound is the regression assertion."""
        prob, bank = serving_problem
        injector = FaultInjector(FaultPlan(slow_solves={0: {1: 10.0}}))
        svc = ProcessShardedSolveService(
            prob, workers=1, ring_slots=2, max_batch=1,
            max_wait=0.002, tol=1e-10, maxiter=200, chaos=injector,
        )
        try:
            ring = svc._rings[0]
            anchor = svc.submit(bank[0])  # wedges the worker, holds a slot
            assert wait_until(lambda: ring.in_use >= 1, timeout=10.0)
            start = time.monotonic()
            cancelled = []
            for k in range(4):
                # submit blocks while both slots are held; only the
                # watchdog's reclaim of the previous cancelled request
                # can unblock it — the worker is asleep for 10s.
                t = svc.submit(bank[1 + k], deadline=0.2)
                assert t.cancel() is True
                cancelled.append(t)
            elapsed = time.monotonic() - start
            assert elapsed < 7.0, (
                f"cancellation cycles took {elapsed:.1f}s — staged "
                "slots are waiting on the wedged worker, not the "
                "watchdog"
            )
            assert svc.stats.expired == 0
            # After the wedge drains the service is fully healthy: the
            # anchor and a fresh request both solve bit-identically.
            got_anchor = anchor.result(timeout=60.0)
            final = svc.submit(bank[5]).result(timeout=60.0)
            assert all(t.cancelled() for t in cancelled)
        finally:
            svc.close()
        assert_same_result(got_anchor, sequential_solve(prob, bank[0]))
        assert_same_result(final, sequential_solve(prob, bank[5]))
