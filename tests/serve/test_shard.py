"""Tests for repro.serve.shard (sharded multi-replica serving) and the
routing policies in repro.serve.scheduler."""

from __future__ import annotations

import threading
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
    LeastLoadedRouter,
    QueueClosed,
    RoundRobinRouter,
    ShardedSolveService,
    TenantRouter,
    resolve_router,
)


@pytest.fixture(scope="module")
def serving_problem():
    """The N=3/E=8 serving shape plus a bank of tenant right-hand sides."""
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    bank = [b0 * (1.0 + 0.3 * k) for k in range(24)]
    return prob, bank


@pytest.fixture(scope="module")
def tiny_problem():
    """A minimal problem for routing-volume tests (cheap solves)."""
    ref = ReferenceElement.from_degree(2)
    mesh = BoxMesh.build(ref, (1, 1, 1))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    return prob, prob.rhs_from_forcing(forcing)


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


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        picks = [router.pick(None, (0, 0, 0)) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_least_loaded_picks_shallowest(self):
        router = LeastLoadedRouter(3)
        assert router.pick(None, (5, 2, 9)) == 1
        assert router.pick(None, (0, 0, 0)) == 0  # ties break low
        assert router.pick("ignored", (3, 3, 1)) == 2

    def test_tenant_affinity_1k_requests(self):
        """Same key -> same replica across 1000 picks, regardless of the
        (deliberately varying) live queue depths."""
        router = TenantRouter(4)
        rng = np.random.default_rng(0)
        owner = router.pick("tenant-42", (0, 0, 0, 0))
        for _ in range(1000):
            depths = tuple(rng.integers(0, 50, size=4))
            assert router.pick("tenant-42", depths) == owner

    def test_tenant_covers_all_replicas(self):
        router = TenantRouter(4)
        owners = {
            router.pick(f"tenant-{k}", (0, 0, 0, 0)) for k in range(256)
        }
        assert owners == {0, 1, 2, 3}

    def test_tenant_hash_is_process_stable(self):
        # blake2b, not the salted builtin hash: two independently built
        # rings route every key identically.
        a, b = TenantRouter(8), TenantRouter(8)
        for k in range(64):
            key = f"tenant-{k}"
            assert a.pick(key, (0,) * 8) == b.pick(key, (0,) * 8)

    def test_tenant_resize_moves_few_keys(self):
        """The consistent-hashing property: growing the fleet by one
        replica remaps roughly 1/K of the keyspace, not all of it."""
        before, after = TenantRouter(4), TenantRouter(5)
        keys = [f"tenant-{k}" for k in range(2000)]
        moved = sum(
            before.pick(k, (0,) * 4) != after.pick(k, (0,) * 5)
            for k in keys
        )
        # Ideal is ~1/5 of keys; allow generous slack, but far below a
        # full reshuffle (hash % K would move ~4/5 of them).
        assert moved < len(keys) * 0.45

    def test_tenant_keyless_falls_back_round_robin(self):
        router = TenantRouter(3)
        picks = [router.pick(None, (0, 0, 0)) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_uses_depths_flags(self):
        """Depth-blind policies advertise it, so the sharded submit path
        can skip sampling every replica queue."""
        assert LeastLoadedRouter(2).uses_depths is True
        assert RoundRobinRouter(2).uses_depths is False
        assert TenantRouter(2).uses_depths is False  # round-robin fallback
        assert TenantRouter(2, fallback=LeastLoadedRouter(2)).uses_depths \
            is True

    def test_resolve_router(self):
        assert isinstance(resolve_router("tenant", 2), TenantRouter)
        assert isinstance(
            resolve_router("least-loaded", 2), LeastLoadedRouter
        )
        assert isinstance(resolve_router("round-robin", 2), RoundRobinRouter)
        ready = TenantRouter(2)
        assert resolve_router(ready, 2) is ready
        with pytest.raises(ValueError, match="sized for"):
            resolve_router(TenantRouter(3), 2)
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_router("random", 2)
        with pytest.raises(ValueError, match="replicas"):
            RoundRobinRouter(0)
        with pytest.raises(ValueError, match="vnodes"):
            TenantRouter(2, vnodes=0)


class TestShardedBitIdentity:
    @pytest.mark.parametrize(
        "policy", ("tenant", "least-loaded", "round-robin")
    )
    def test_k2_bit_identical_to_sequential(self, serving_problem, policy):
        """The acceptance criterion: K=2 replicas, every routing policy,
        per-request results bit-identical to sequential warm cg_solve."""
        prob, bank = serving_problem
        with ShardedSolveService(
            prob.clone(), replicas=2, policy=policy, max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            keys = (
                [f"tenant-{k % 5}" for k in range(len(bank))]
                if policy == "tenant" else None
            )
            results = svc.solve_many(bank, keys=keys)
            agg = svc.stats
        for b, got in zip(bank, results):
            assert_same_result(got, sequential_solve(prob, b))
        assert agg.completed == len(bank)
        assert agg.failed == 0
        assert sum(svc.routed) == len(bank)

    def test_concurrent_submitters(self, serving_problem):
        prob, bank = serving_problem
        results: dict[tuple[int, int], object] = {}
        with ShardedSolveService(
            prob.clone(), replicas=2, policy="tenant", max_batch=8,
            max_wait=0.01,
        ) as svc:
            def client(cid):
                for j in range(6):
                    b = bank[(cid * 6 + j) % len(bank)]
                    t = svc.submit(b, key=f"client-{cid}")
                    results[(cid, j)] = t.result(timeout=60)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            agg = svc.stats
        assert agg.completed == 24 and agg.failed == 0
        for (cid, j), got in results.items():
            b = bank[(cid * 6 + j) % len(bank)]
            assert_same_result(got, sequential_solve(prob, b))


class TestShardedRouting:
    def test_tenant_affinity_service_level(self, tiny_problem):
        """1000 keyed requests: each key's requests all land on the
        replica the ring owns them to, so per-replica submitted counts
        match the ring exactly."""
        prob, b0 = tiny_problem
        n_keys, n_requests = 10, 1000
        with ShardedSolveService(
            prob.clone(), replicas=2, policy="tenant", max_batch=8,
            max_wait=0.001, tol=0.0,
        ) as svc:
            expected = [0, 0]
            tickets = []
            for k in range(n_requests):
                key = f"tenant-{k % n_keys}"
                expected[svc._router.pick(key, (0, 0))] += 1
                tickets.append(svc.submit(b0, maxiter=0, key=key))
            for t in tickets:
                t.result(timeout=120)
            per_replica = [s.submitted for s in svc.replica_stats]
        assert per_replica == expected
        assert sum(per_replica) == n_requests

    def test_least_loaded_avoids_stalled_replica(self, serving_problem):
        """A replica stalled on slow solves accumulates queue depth and
        stops attracting new work; the healthy replica takes the bulk."""
        prob, bank = serving_problem
        svc = ShardedSolveService(
            prob.clone(), replicas=2, policy="least-loaded", max_batch=8,
            max_wait=0.005, tol=0.0,
        )
        real_op = svc.services[0]._operator

        def stalled(v, out=None):  # replica 0 solves ~100x slower
            time.sleep(0.15)
            return real_op(v, out=out)

        svc.services[0]._operator = stalled
        try:
            tickets = []
            for k in range(16):
                tickets.append(svc.submit(bank[k % len(bank)], maxiter=1))
                time.sleep(0.01)  # let the healthy replica drain
            for t in tickets:
                t.result(timeout=120)
            routed = svc.routed
        finally:
            svc.close()
        assert sum(routed) == 16
        # The stalled replica got a few before its queue showed depth,
        # the healthy one got the clear majority.
        assert routed[1] > routed[0]

    def test_watermark_diverts_and_counts(self, serving_problem):
        """Tenant affinity yields to the watermark: once the owner's
        queue is at the watermark, requests divert to the least-loaded
        replica and the overload hook observes every trip."""
        prob, bank = serving_problem
        overloads = []
        with ShardedSolveService(
            prob.clone(), replicas=2, policy="tenant", max_batch=8,
            max_wait=30.0, queue_watermark=2,
            on_overload=lambda chosen, depths: overloads.append(
                (chosen, depths)
            ),
        ) as svc:
            owner = svc._router.pick("hot-tenant", (0, 0))
            tickets = [
                svc.submit(bank[k], key="hot-tenant") for k in range(6)
            ]
            routed = svc.routed
            rebalanced = svc.rebalanced
            svc.flush()
            for t in tickets:
                t.result(timeout=60)
        # The first `watermark` requests stay home; later ones trip the
        # hook every time and (mostly) divert — a depth tie can break
        # back to the owner once, hence the one-request slack.
        assert 2 <= routed[owner] <= 3
        assert routed[1 - owner] >= 3
        assert rebalanced >= 3
        assert len(overloads) == 4
        assert all(chosen == owner for chosen, _ in overloads)

    def test_overload_hook_chooses_target(self, serving_problem):
        prob, bank = serving_problem
        with ShardedSolveService(
            prob.clone(), replicas=2, policy="round-robin", max_batch=8,
            max_wait=30.0, queue_watermark=1,
            on_overload=lambda chosen, depths: 1 - chosen,
        ) as svc:
            tickets = [svc.submit(bank[k]) for k in range(4)]
            svc.flush()
            for t in tickets:
                t.result(timeout=60)
            # round-robin alternates 0,1,0,1; every pick after the first
            # two finds its replica at the watermark and bounces to the
            # other one — the hook's word is final.
            assert svc.rebalanced >= 1

    def test_bad_router_pick_rejected(self, serving_problem):
        """A buggy custom router returning an out-of-range index (e.g.
        -1) must fail loudly, not silently wrap onto the last replica."""
        prob, bank = serving_problem

        class BrokenRouter(RoundRobinRouter):
            def pick(self, key, depths):
                return -1

        svc = ShardedSolveService(
            prob.clone(), replicas=2, policy=BrokenRouter(2),
        )
        try:
            with pytest.raises(ValueError, match="picked replica -1"):
                svc.submit(bank[0])
        finally:
            svc.close()

    def test_bad_overload_hook_index_rejected(self, serving_problem):
        prob, bank = serving_problem
        svc = ShardedSolveService(
            prob.clone(), replicas=2, max_batch=8, max_wait=30.0,
            queue_watermark=1, on_overload=lambda chosen, depths: 7,
        )
        try:
            svc.submit(bank[0], key="a")  # below watermark: fine
            with pytest.raises(ValueError, match="on_overload returned"):
                svc.submit(bank[1], key="a")
        finally:
            svc.close()


class TestShardedLifecycle:
    def test_drain_on_close_resolves_all_tickets(self, serving_problem):
        """Requests parked in lingering partial batches (max_wait is
        huge) must all resolve — correctly — when the service closes."""
        prob, bank = serving_problem
        svc = ShardedSolveService(
            prob.clone(), replicas=2, policy="round-robin", max_batch=8,
            max_wait=30.0,
        )
        tickets = [svc.submit(b) for b in bank[:5]]
        assert not any(t.done() for t in tickets)  # all lingering
        svc.close()
        for t, b in zip(tickets, bank[:5]):
            assert t.done()
            assert_same_result(t.result(), sequential_solve(prob, b))
        assert svc.closed

    def test_submit_after_close_raises(self, serving_problem):
        prob, bank = serving_problem
        svc = ShardedSolveService(prob.clone(), replicas=2)
        svc.close()
        with pytest.raises(QueueClosed):
            svc.submit(bank[0])

    def test_close_idempotent(self, serving_problem):
        prob, _ = serving_problem
        svc = ShardedSolveService(prob.clone(), replicas=2)
        svc.close()
        svc.close()

    def test_defaults_defer_to_solve_service(self, serving_problem):
        """There is one set of service defaults — SolveService's own.
        Omitted knobs land on the dataclass defaults; explicit ones are
        forwarded to every replica."""
        from repro.serve import SolveService

        prob, _ = serving_problem
        fields = SolveService.__dataclass_fields__
        with ShardedSolveService(prob.clone(), replicas=2) as svc:
            for s in svc.services:
                assert s.max_batch == fields["max_batch"].default
                assert s.max_wait == fields["max_wait"].default
                assert s.tol == fields["tol"].default
                assert s.maxiter == fields["maxiter"].default
                assert s.precondition is fields["precondition"].default
        with ShardedSolveService(
            prob.clone(), replicas=2, max_batch=4, tol=1e-8,
        ) as svc:
            for s in svc.services:
                assert s.max_batch == 4 and s.tol == 1e-8

    def test_replica_count_validation(self, serving_problem):
        prob, _ = serving_problem
        with pytest.raises(ValueError, match="replicas"):
            ShardedSolveService(prob.clone(), replicas=0)
        with pytest.raises(ValueError, match="queue_watermark"):
            ShardedSolveService(prob.clone(), replicas=1, queue_watermark=0)

    def test_cloneless_problem_rejected(self):
        class NoClone:
            operator = staticmethod(lambda v: v)
            n_dofs = 4

            def precond_diag(self):
                return np.ones(4)

            def batch_workspace(self, batch):
                return None

        with pytest.raises(TypeError, match="clone"):
            ShardedSolveService(NoClone(), replicas=2)
        # K=1 needs no clone (degenerate but valid: one replica).
        svc = ShardedSolveService(NoClone(), replicas=1)
        svc.close()

    def test_from_problems(self, serving_problem):
        prob, bank = serving_problem
        base = prob.clone()
        with ShardedSolveService.from_problems(
            [base, base.clone()], policy="round-robin", max_batch=4,
        ) as svc:
            assert svc.replicas == 2
            results = svc.solve_many(bank[:6])
        for b, got in zip(bank[:6], results):
            assert_same_result(got, sequential_solve(prob, b))
        with pytest.raises(ValueError, match="at least one"):
            ShardedSolveService.from_problems([])
        # A conflicting replica count must not be silently dropped.
        with pytest.raises(TypeError, match="len\\(problems\\)"):
            ShardedSolveService.from_problems(
                [base, base.clone()], replicas=4
            )

    def test_failed_construction_closes_started_replicas(
        self, serving_problem
    ):
        """A mid-fleet construction failure must not leak the dispatcher
        threads of the replicas that already started."""
        prob, _ = serving_problem

        def dispatchers():
            return {
                t for t in threading.enumerate()
                if t.name == "sem-serve-dispatch" and t.is_alive()
            }

        before = dispatchers()
        with pytest.raises(TypeError, match="protocol"):
            # Replica 0 is valid (its service spins up a dispatcher);
            # replica 1 flunks the solver-protocol check.
            ShardedSolveService.from_problems([prob.clone(), object()])
        assert dispatchers() == before  # replica 0 was closed, not leaked

    def test_solve_many_keys_length_mismatch(self, serving_problem):
        prob, bank = serving_problem
        with ShardedSolveService(prob.clone(), replicas=2) as svc:
            with pytest.raises(ValueError, match="keys length"):
                svc.solve_many(bank[:3], keys=["a", "b"])


class TestShardedSolveManyLatency:
    def test_small_block_does_not_wait_out_max_wait(self, serving_problem):
        """A 3-rhs block fills no replica's max_batch; solve_many must
        flush each replica's group instead of waiting max_wait=5 s."""
        prob, bank = serving_problem
        with ShardedSolveService(
            prob.clone(), replicas=2, policy="round-robin", max_batch=8,
            max_wait=5.0, tol=1e-10, maxiter=200,
        ) as svc:
            t0 = time.monotonic()
            results = svc.solve_many(bank[:3])
            elapsed = time.monotonic() - t0
        assert elapsed < 2.0, f"solve_many took {elapsed:.2f} s"
        for b, got in zip(bank[:3], results):
            assert_same_result(got, sequential_solve(prob, b))


class TestShardedStats:
    def test_aggregate_sums_replicas(self, serving_problem):
        prob, bank = serving_problem
        with ShardedSolveService(
            prob.clone(), replicas=2, policy="round-robin", max_batch=4,
            max_wait=0.002,
        ) as svc:
            svc.solve_many(bank[:12])
            per = svc.replica_stats
            agg = svc.stats
        assert agg.submitted == sum(s.submitted for s in per) == 12
        assert agg.completed == 12
        assert agg.batches == sum(s.batches for s in per)
        assert sum(
            size * count for size, count in agg.batch_histogram.items()
        ) == 12
        assert agg.busy_seconds == pytest.approx(
            sum(s.busy_seconds for s in per)
        )
        # Fleet window: earliest submit to latest completion anywhere.
        assert agg.wall_seconds == pytest.approx(
            max(s.last_done for s in per)
            - min(s.first_submit for s in per)
        )
        assert agg.solves_per_second > 0
