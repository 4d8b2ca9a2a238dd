"""Tests for repro.serve.procshard (process-level sharded serving over
shared-memory geometry), mirroring tests/serve/test_shard.py's contract:
bit-identity under every routing policy, drain-on-close, crash
surfacing, and no shared-memory leaks."""

from __future__ import annotations

import os
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
    ProcessShardedSolveService,
    QueueClosed,
    WorkerCrashed,
)


@pytest.fixture(scope="module")
def serving_problem():
    """The N=3/E=8 serving shape plus a bank of tenant right-hand sides."""
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    bank = [b0 * (1.0 + 0.3 * k) for k in range(16)]
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


def shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestProcShardBitIdentity:
    @pytest.mark.parametrize(
        "policy", ("tenant", "least-loaded", "round-robin")
    )
    def test_k2_bit_identical_to_sequential(self, serving_problem, policy):
        """The acceptance criterion: K=2 worker processes, every routing
        policy, per-request results bit-identical to sequential warm
        cg_solve — the result bytes crossed a process boundary and came
        back exact."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy=policy, max_batch=8,
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


class TestProcShardSharedMemory:
    def test_one_geometry_copy_across_workers_and_cleanup(
        self, serving_problem
    ):
        """The sharing proof: both workers attest (from inside their own
        processes) that their geometry is a read-only view into the SAME
        named shared-memory block, and the blocks vanish from /dev/shm
        on close."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        )
        try:
            blocks = svc.shared_blocks
            # geometry (fp64 + fp32 twin), gather-scatter, extras —
            # plus one request/response slot ring per worker.
            assert len(blocks) == 4 + 2
            export_blocks = blocks[:4]
            ring_blocks = blocks[4:]
            assert all(shm_exists(name) for name in blocks)
            infos = svc.worker_info()
            assert len(infos) == 2
            # Two distinct processes...
            assert len({info["pid"] for info in infos}) == 2
            assert all(info["pid"] != os.getpid() for info in infos)
            # ...attached to one geometry block (the spec's own).
            geometry_blocks = {info["geometry_block"] for info in infos}
            assert geometry_blocks == {svc.spec.geometry.block}
            assert all(not info["g_soa_writeable"] for info in infos)
            # Each worker sees the export blocks plus its OWN ring
            # (rings are per-worker, not fleet-wide).
            assert {info["ring_block"] for info in infos} == set(
                ring_blocks
            )
            for info in infos:
                assert tuple(info["shared_blocks"]) == (
                    export_blocks + (info["ring_block"],)
                )
        finally:
            svc.close()
        assert not any(shm_exists(name) for name in blocks)
        assert svc.shared_blocks == ()

    def test_construction_failure_unlinks_blocks(self, serving_problem):
        """A fleet that fails to come up must not leak /dev/shm blocks
        (or worker processes)."""
        prob, _ = serving_problem
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ValueError, match="max_batch"):
            # Invalid knob: worker 0's SolveService constructor raises,
            # the handshake reports fatal, construction unwinds.
            ProcessShardedSolveService(prob, workers=2, max_batch=0)
        assert set(os.listdir("/dev/shm")) <= before


class TestProcShardLifecycle:
    def test_drain_on_close_resolves_all_tickets(self, serving_problem):
        """Requests parked in lingering partial batches (max_wait huge)
        must all resolve — correctly — when the service closes."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=30.0, tol=1e-10, maxiter=200,
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
        svc = ProcessShardedSolveService(prob, workers=1)
        svc.close()
        with pytest.raises(QueueClosed):
            svc.submit(bank[0])
        svc.close()  # idempotent

    def test_validation(self, serving_problem):
        prob, bank = serving_problem
        with pytest.raises(ValueError, match="workers"):
            ProcessShardedSolveService(prob, workers=0)
        with pytest.raises(ValueError, match="queue_watermark"):
            ProcessShardedSolveService(prob, workers=1, queue_watermark=0)
        with pytest.raises(TypeError, match="export_shared"):
            ProcessShardedSolveService(object(), workers=1)

    def test_bad_requests_bounce_parent_side(self, serving_problem):
        """Shape/knob validation happens before the request crosses the
        process boundary, so bad requests cost no pipe traffic and
        cannot poison a worker's batch."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=1, max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            with pytest.raises(ValueError, match="shape"):
                svc.submit(np.zeros(3))
            with pytest.raises(ValueError, match="tol"):
                svc.submit(bank[0], tol=-1.0)
            with pytest.raises(ValueError, match="maxiter"):
                svc.submit(bank[0], maxiter=-2)
            with pytest.raises(ValueError, match="keys length"):
                svc.solve_many(bank[:3], keys=["a", "b"])
            # The fleet is still healthy after the bounces.
            got = svc.submit(bank[0]).result(timeout=60)
        assert_same_result(got, sequential_solve(prob, bank[0]))

    def test_watermark_diverts_and_counts(self, serving_problem):
        """Tenant affinity yields to the watermark, exactly as in the
        thread-shard (depths here are in-flight request counts)."""
        prob, bank = serving_problem
        overloads = []
        with ProcessShardedSolveService(
            prob, workers=2, policy="tenant", max_batch=8,
            max_wait=30.0, queue_watermark=2, tol=1e-10, maxiter=200,
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
        assert sum(routed) == 6
        assert routed[1 - owner] >= 3
        assert rebalanced >= 3
        assert len(overloads) == 4
        assert all(chosen == owner for chosen, _ in overloads)


class TestProcShardCrash:
    def test_worker_crash_fails_pending_and_future_submits(
        self, serving_problem
    ):
        """With supervision disabled (retry=None, restart=None — the
        legacy contract) a killed worker surfaces WorkerCrashed on its
        in-flight tickets and on later submits routed to it — nothing
        hangs — and close still unlinks the shared blocks."""
        prob, bank = serving_problem
        svc = ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=30.0, tol=1e-10, maxiter=200,
            retry=None, restart=None,
        )
        blocks = svc.shared_blocks
        try:
            parked = svc.submit(bank[0])  # worker 0, parked by max_wait
            svc._workers[0].process.terminate()
            with pytest.raises(WorkerCrashed, match="in flight"):
                parked.result(timeout=60)
            # Round-robin: next submit lands on the healthy worker 1...
            survivor = svc.submit(bank[1])
            # ...and the one after targets dead worker 0: loud failure.
            with pytest.raises(WorkerCrashed, match="died"):
                svc.submit(bank[2])
            assert svc.alive_workers == (False, True)
            # solve_many with a group routed to the dead worker raises
            # from the gather, after the healthy group went out.
            with pytest.raises(WorkerCrashed):
                svc.solve_many([bank[3], bank[4]])
            svc.flush()
            assert_same_result(
                survivor.result(timeout=60),
                sequential_solve(prob, bank[1]),
            )
            # Fleet stats shrink to the survivors instead of raising.
            assert svc.stats.completed >= 1
        finally:
            svc.close()
        assert not any(shm_exists(name) for name in blocks)


class TestProcShardOperatorAttestation:
    def test_workers_report_the_parent_operator_path(self, serving_problem):
        """Served == sequential needs one arithmetic on both sides of the
        process boundary: every worker attests the parent's path."""
        prob, _ = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002,
        ) as svc:
            infos = svc.worker_info()
        status = prob.operator_status
        assert len(infos) == 2
        assert {
            (i["operator"], i["operator_key"], i["operator_reason"])
            for i in infos
        } == {(status.path, status.key, status.reason)}


    def test_workers_report_the_parent_cg_step(self, serving_problem):
        """Every worker runs the parent's CG step: a worker on the other
        step would break served == sequential bit for bit."""
        from repro.sem.compiled import step_status

        prob, _ = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002,
        ) as svc:
            infos = svc.worker_info()
        status = step_status()
        assert len(infos) == 2
        assert {(i["cg_step"], i["cg_step_key"]) for i in infos} == {
            (status.path, status.key)
        }


class TestProcShardSolveManyLatency:
    def test_small_block_does_not_wait_out_max_wait(self, serving_problem):
        """A 3-rhs block fills no worker's max_batch; solve_many must
        flush each worker's group instead of waiting max_wait=5 s."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=5.0, tol=1e-10, maxiter=200,
        ) as svc:
            t0 = time.monotonic()
            results = svc.solve_many(bank[:3])
            elapsed = time.monotonic() - t0
        assert elapsed < 2.0, f"solve_many took {elapsed:.2f} s"
        for b, got in zip(bank[:3], results):
            assert_same_result(got, sequential_solve(prob, b))


class TestProcShardStats:
    def test_merged_stats_span_a_sane_fleet_window(self, serving_problem):
        """Worker perf_counter stamps are rebased onto the parent clock
        at transfer, so the merged fleet window is measured in seconds
        of this run — not in the difference of two unrelated process
        epochs (which made solves_per_second meaningless)."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            svc.solve_many(bank)
            per = svc.replica_stats
            agg = svc.stats
        assert len(per) == 2
        assert agg.submitted == sum(s.submitted for s in per) == len(bank)
        assert agg.completed == len(bank)
        # The true-fleet-window property survives the process boundary:
        # merging one consistent set of rebased snapshots spans the
        # earliest submit to the latest completion across workers.
        from repro.serve import merge_snapshots

        merged = merge_snapshots(per)
        assert merged.wall_seconds == pytest.approx(
            max(s.last_done for s in per)
            - min(s.first_submit for s in per)
        )
        # Sanity of the rebase itself: the window is real wall time of
        # this test (sub-minute), not an epoch artifact (perf_counter
        # epochs across processes differ by boot-scale magnitudes).
        assert 0 < agg.wall_seconds < 60
        assert agg.solves_per_second > 0


class TestProcShardMixed:
    """Mixed-precision requests across the process boundary."""

    def mixed_reference(self, prob, b, tol=1e-10, maxiter=200):
        from repro.sem.cg import cg_solve_mixed

        return cg_solve_mixed(
            prob.apply_A, prob.apply_A32, b,
            precond_diag=prob.precond_diag(), tol=tol, maxiter=maxiter,
            workspace=prob.workspace,
            workspace32=prob.batch_workspace(1, dtype=np.float32),
        )

    def assert_same_mixed(self, got, want):
        from repro.sem.cg import MixedCGResult

        assert isinstance(got, MixedCGResult)
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.residual_norm == want.residual_norm
        assert got.residual_history == want.residual_history
        assert got.sweeps == want.sweeps
        assert got.inner_iterations == want.inner_iterations

    def test_per_request_mixed_bit_identical_across_processes(
        self, serving_problem
    ):
        """A mixed request solved in a worker process comes back as a
        MixedCGResult bit-identical to the local warm solo refinement
        — the precision flag, the fp32 twin rebuild, and every result
        field survived the pipe."""
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            results = svc.solve_many(bank[:6], precision="mixed")
            fp64 = svc.submit(bank[0]).result(timeout=60)
        for b, got in zip(bank[:6], results):
            self.assert_same_mixed(got, self.mixed_reference(prob, b))
        # fp64 requests on the same fleet stay on the historical path.
        assert_same_result(fp64, sequential_solve(prob, bank[0]))

    def test_workers_attest_shared_fp32_geometry(self, serving_problem):
        """Workers attach the parent's exported fp32 geometry twin
        (one shared block, read-only) rather than re-casting fp64 —
        attested per worker via worker_info."""
        prob, _ = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=8,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            infos = svc.worker_info()
            assert len(infos) == 2
            blocks = {info["geometry32_block"] for info in infos}
            assert len(blocks) == 1  # one shared block, all workers on it
            (block,) = blocks
            assert block is not None and shm_exists(block)
            for info in infos:
                assert info["geometry32_dtype"] == "float32"
                assert info["g32_soa_writeable"] is False
                assert info["precision"] == "fp64"  # the fleet default
        assert not shm_exists(block)  # unlinked on close

    def test_fleet_default_mixed_from_problem_precision(self):
        """A problem built with precision="mixed" makes the whole fleet
        default to refinement — no per-request flag — while explicit
        precision="fp64" still overrides per request."""
        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 2))
        prob = PoissonProblem(
            mesh, ax_backend="matmul", precision="mixed"
        )
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        with ProcessShardedSolveService(
            prob, workers=2, policy="round-robin", max_batch=4,
            max_wait=0.002, tol=1e-10, maxiter=200,
        ) as svc:
            infos = svc.worker_info()
            got = svc.submit(b).result(timeout=60)
            fp64 = svc.submit(b, precision="fp64").result(timeout=60)
        for info in infos:
            assert info["precision"] == "mixed"
        self.assert_same_mixed(got, self.mixed_reference(prob, b))
        assert_same_result(fp64, sequential_solve(prob, b))
