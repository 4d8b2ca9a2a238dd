"""Tests for repro.serve (micro-batching solve service)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    HelmholtzProblem,
    NekboneCase,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    cosine_manufactured,
    sine_manufactured,
)
from repro.serve import (
    MicroBatcher,
    QueueClosed,
    ServiceStats,
    SolveService,
    WorkspacePool,
    merge_snapshots,
)


@pytest.fixture(scope="module")
def serving_problem():
    """The N=3/E=8 serving shape with a bank of tenant right-hand sides."""
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = prob.rhs_from_forcing(forcing)
    bank = [b0 * (1.0 + 0.3 * k) for k in range(24)]
    return prob, bank


def sequential_solve(prob, b, tol=1e-10, maxiter=200):
    """The reference: one warm sequential solve on the problem."""
    return cg_solve(
        prob.apply_A, b, precond_diag=prob.precond_diag(), tol=tol,
        maxiter=maxiter, workspace=prob.workspace,
    )


def assert_same_result(got, want):
    """Bit-for-bit CGResult equality (the serving contract)."""
    assert np.array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.residual_norm == want.residual_norm
    assert got.residual_history == want.residual_history


class TestMicroBatcher:
    def test_take_fires_at_max_batch(self):
        mb = MicroBatcher(max_batch=3, max_wait=60.0)
        for k in range(5):
            mb.put(k)
        assert mb.take_batch() == [0, 1, 2]  # no linger: batch is full
        assert mb.take_batch_nowait() == [3, 4]
        assert mb.take_batch_nowait() == []

    def test_take_waits_at_most_max_wait(self):
        mb = MicroBatcher(max_batch=8, max_wait=0.05)
        mb.put("only")
        t0 = time.monotonic()
        assert mb.take_batch() == ["only"]
        assert time.monotonic() - t0 < 1.0

    def test_backpressure_blocks_then_admits(self):
        mb = MicroBatcher(max_batch=2, max_wait=0.0, max_pending=2)
        mb.put(1)
        mb.put(2)
        admitted = []

        def producer():
            mb.put(3)
            admitted.append(True)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        assert not admitted  # blocked on the full queue
        assert mb.take_batch_nowait() == [1, 2]
        t.join(timeout=5)
        assert admitted
        assert mb.take_batch_nowait() == [3]

    def test_close_wakes_blocked_producer(self):
        mb = MicroBatcher(max_batch=1, max_pending=1)
        mb.put(1)
        errors = []

        def producer():
            try:
                mb.put(2)
            except QueueClosed:
                errors.append("closed")

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        mb.close()
        t.join(timeout=5)
        assert errors == ["closed"]
        # Pending items survive close (drain mode), then [] signals done.
        assert mb.take_batch() == [1]
        assert mb.take_batch() == []

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            MicroBatcher(max_batch=1, max_wait=-1.0)
        with pytest.raises(ValueError, match="max_pending"):
            MicroBatcher(max_batch=4, max_pending=2)


class TestWorkspacePool:
    def test_lease_returns_problem_cache(self, serving_problem):
        prob, _ = serving_problem
        pool = WorkspacePool(prob)
        with pool.lease(1) as ws:
            assert ws is prob.workspace
        with pool.lease(4) as ws4:
            assert ws4.batch == 4
        with pool.lease(4) as again:
            assert again is ws4  # warm reuse
        assert pool.sizes == (1, 4)
        assert pool.nbytes >= ws4.nbytes

    def test_lease_is_exclusive(self, serving_problem):
        prob, _ = serving_problem
        pool = WorkspacePool(prob)
        order = []

        def worker(tag):
            with pool.lease(2):
                order.append(("enter", tag))
                time.sleep(0.03)
                order.append(("exit", tag))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Strict nesting: every enter is immediately followed by its exit.
        for i in range(0, len(order), 2):
            assert order[i][0] == "enter" and order[i + 1][0] == "exit"
            assert order[i][1] == order[i + 1][1]

    def test_sizes_nbytes_safe_under_lease_hammer(self):
        """Regression: sizes/nbytes used to iterate the lease dict with
        no lock, so a stats snapshot racing a first-time lease raised
        ``RuntimeError: dictionary changed size during iteration``.
        Hammer first-time leases against a snapshot loop; both
        properties must stay exception-free (stubbed workspaces keep
        the hammer allocation-light, so insertions are rapid-fire)."""

        class StubWorkspace:
            def __init__(self, batch):
                self.batch = batch

            @property
            def nbytes(self):
                # Yield the GIL mid-iteration, as real nbytes arithmetic
                # can at any bytecode boundary — deterministically opens
                # the unlocked-iteration race instead of waiting for a
                # lucky preemption.
                time.sleep(0)
                return self.batch * 8

            def shutdown(self):
                pass

        class StubProblem:
            def batch_workspace(self, batch):
                return StubWorkspace(batch)

        pool = WorkspacePool(StubProblem())
        stop = threading.Event()
        errors: list[BaseException] = []

        def snapshotter():
            while not stop.is_set():
                try:
                    _ = pool.nbytes
                    _ = pool.sizes
                except BaseException as exc:  # pragma: no cover - bug path
                    errors.append(exc)
                    return
                # Brief pause between passes so lease threads make
                # progress against the (now locked) snapshot loop.
                time.sleep(0.0002)

        snap = threading.Thread(target=snapshotter)
        snap.start()
        try:
            for batch in range(2, 302):  # every lease inserts a new key
                with pool.lease(batch):
                    pass
                # Hand the GIL to the snapshotter between inserts so its
                # iteration pass is live while the dict keeps growing
                # (without this, all inserts can fit one GIL slice and
                # the race never gets its chance to fire).
                time.sleep(0)
        finally:
            stop.set()
            snap.join()
        assert not errors, f"snapshot raced a lease: {errors[0]!r}"
        assert len(pool.sizes) == 300
        assert pool.nbytes == sum(b * 8 for b in range(2, 302))


class TestSolveServiceSync:
    def test_solve_many_larger_than_max_pending_foreground(
        self, serving_problem
    ):
        """Regression: bulk enqueue of a block larger than max_pending
        on a foreground service must drain inline as it goes — an
        all-at-once put would wedge on its own backpressure (there is
        no dispatcher to drain it), including when residual items from
        earlier submits already occupy part of the queue."""
        prob, bank = serving_problem
        svc = SolveService(
            prob, max_batch=4, max_pending=4, tol=1e-10, maxiter=200,
        )
        residual = svc.submit(bank[12])  # pre-fill: depth 1, no drain
        done: list = []

        def run():
            done.extend(svc.solve_many(bank[:12]))  # 12 > max_pending=4

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), (
            "solve_many deadlocked on its own backpressure"
        )
        assert len(done) == 12
        for got, b in zip(done, bank[:12]):
            assert_same_result(got, sequential_solve(prob, b))
        assert_same_result(
            residual.result(timeout=60), sequential_solve(prob, bank[12])
        )
        svc.close()

    def test_solve_many_bit_identical_to_sequential(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=8, tol=1e-10, maxiter=200) as svc:
            results = svc.solve_many(bank[:20])
            for b, got in zip(bank[:20], results):
                assert_same_result(got, sequential_solve(prob, b))
            stats = svc.stats
            assert stats.submitted == stats.completed == 20
            # 20 requests at max_batch=8 coalesce as 8 + 8 + 4.
            assert stats.batch_histogram == {8: 2, 4: 1}
            assert stats.queue_depth == 0

    def test_submit_flush_and_partial_batches(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=4)
        tickets = [svc.submit(b) for b in bank[:3]]
        assert not any(t.done() for t in tickets)  # below max_batch
        svc.flush()
        assert all(t.done() for t in tickets)
        assert svc.stats.batch_histogram == {3: 1}
        svc.close()

    def test_submit_autodrains_at_max_batch(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=2)
        t1 = svc.submit(bank[0])
        assert not t1.done()
        t2 = svc.submit(bank[1])  # fills the batch: solved inline
        assert t1.done() and t2.done()
        svc.close()

    def test_per_request_tol_and_maxiter(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=8) as svc:
            specs = [(1e-4, 200), (1e-10, 200), (1e-8, 5), (1e-12, 200)]
            tickets = [
                svc.submit(bank[k], tol=tol, maxiter=mi)
                for k, (tol, mi) in enumerate(specs)
            ]
            svc.flush()
            for k, (tol, mi) in enumerate(specs):
                want = sequential_solve(prob, bank[k], tol=tol, maxiter=mi)
                assert_same_result(tickets[k].result(), want)

    def test_rhs_snapshot_at_submit(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            b = bank[0].copy()
            ticket = svc.submit(b)
            b[:] = 0.0  # caller reuses its buffer before the solve fires
            svc.flush()
            assert_same_result(ticket.result(), sequential_solve(prob, bank[0]))

    def test_shape_validation(self, serving_problem):
        prob, _ = serving_problem
        with SolveService(prob) as svc:
            with pytest.raises(ValueError, match="rhs must have shape"):
                svc.submit(np.ones(prob.n_dofs + 1))

    def test_bad_request_knobs_bounce_at_submit(self, serving_problem):
        """An invalid tol/maxiter must fail the offending caller at
        submit time — never poison the batchmates it would have been
        coalesced with."""
        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            good = svc.submit(bank[0])
            with pytest.raises(ValueError, match="maxiter must be"):
                svc.submit(bank[1], maxiter=-1)
            with pytest.raises(ValueError, match="tol must be"):
                svc.submit(bank[1], tol=float("nan"))
            with pytest.raises(ValueError, match="tol must be"):
                svc.submit(bank[1], tol=-1e-8)
            svc.flush()
            assert_same_result(good.result(), sequential_solve(prob, bank[0]))

    def test_non_finite_rhs_bounces_at_submit(self, serving_problem):
        """A NaN/Inf rhs is refused like a bad tol: it never reaches a
        batch, so its would-be batchmates solve exactly as alone."""
        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            good = svc.submit(bank[0])
            for bad in (np.nan, np.inf, -np.inf):
                b = bank[1].copy()
                b[3] = bad
                with pytest.raises(ValueError, match="rhs entries must be"):
                    svc.submit(b)
            svc.flush()
            assert_same_result(good.result(), sequential_solve(prob, bank[0]))

    def test_non_protocol_problem_rejected(self):
        with pytest.raises(TypeError, match="solver.*protocol"):
            SolveService(object())

    def test_failure_propagates_to_every_ticket(self, serving_problem):
        prob, _ = serving_problem

        class Boom(RuntimeError):
            pass

        def bad_operator(v, out=None):
            raise Boom("operator exploded")

        # Build a real service, then break its operator: the tickets of
        # the failing batch must re-raise, and stats count the failures.
        svc = SolveService(prob, max_batch=4)
        svc._operator = bad_operator
        t1 = svc.submit(np.ones(prob.n_dofs))
        t2 = svc.submit(np.ones(prob.n_dofs))
        svc.flush()
        for t in (t1, t2):
            with pytest.raises(Boom):
                t.result()
        assert svc.stats.failed == 2 and svc.stats.completed == 0
        svc.close()

    def test_ticket_timeout(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=8)
        ticket = svc.submit(bank[0])
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)  # nothing drains a partial batch
        svc.close()  # close() drains: the ticket resolves after all
        assert ticket.done()


class TestSolveServiceBackground:
    def test_concurrent_submitters_bit_identical(self, serving_problem):
        """The acceptance-concurrency test: N client threads submit
        through the dispatcher; every result matches a sequential warm
        cg_solve bit for bit."""
        prob, bank = serving_problem
        n_clients, per_client = 4, 6
        results: dict[tuple[int, int], object] = {}
        with SolveService(
            prob, max_batch=8, max_wait=0.01, background=True,
            tol=1e-10, maxiter=200,
        ) as svc:
            def client(cid):
                for j in range(per_client):
                    b = bank[(cid * per_client + j) % len(bank)]
                    results[(cid, j)] = svc.submit(b).result(timeout=60)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats
        assert stats.completed == n_clients * per_client
        assert stats.failed == 0
        for (cid, j), got in results.items():
            b = bank[(cid * per_client + j) % len(bank)]
            assert_same_result(got, sequential_solve(prob, b))

    def test_dispatcher_fires_partial_batch_after_max_wait(
        self, serving_problem
    ):
        prob, bank = serving_problem
        with SolveService(
            prob, max_batch=8, max_wait=0.02, background=True
        ) as svc:
            ticket = svc.submit(bank[0])
            got = ticket.result(timeout=30)  # resolves without a flush
        assert_same_result(got, sequential_solve(prob, bank[0]))

    def test_backpressure_bounds_queue(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(
            prob, max_batch=2, max_wait=0.001, max_pending=4,
            background=True,
        ) as svc:
            tickets = [svc.submit(bank[k % len(bank)]) for k in range(32)]
            for t in tickets:
                t.result(timeout=60)
            assert svc.stats.max_queue_depth <= 4

    def test_submit_after_close_raises(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, background=True)
        svc.close()
        with pytest.raises(QueueClosed):
            svc.submit(bank[0])

    def test_close_resolves_pending(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=8, max_wait=30.0, background=True)
        tickets = [svc.submit(b) for b in bank[:3]]
        svc.close()  # drains the lingering partial batch
        for t, b in zip(tickets, bank[:3]):
            assert_same_result(t.result(), sequential_solve(prob, b))


class TestOtherProblems:
    def test_helmholtz_service(self):
        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = HelmholtzProblem(mesh, lam=1.0, ax_backend="matmul")
        _, forcing = cosine_manufactured(mesh.extent, lam=1.0)
        b = prob.rhs_from_function(forcing)
        with SolveService(prob, max_batch=4) as svc:
            results = svc.solve_many([b, 2.0 * b, -0.5 * b])
        for scale, got in zip((1.0, 2.0, -0.5), results):
            want = cg_solve(
                prob.apply, scale * b, precond_diag=prob.precond_diag(),
                tol=1e-10, maxiter=1000, workspace=prob.workspace,
            )
            assert_same_result(got, want)

    def test_nekbone_case_service(self):
        case = NekboneCase(3, (2, 2, 1), ax_backend="matmul")
        _, forcing = sine_manufactured(case.problem.mesh.extent)
        b = case.problem.rhs_from_forcing(forcing)
        with SolveService(case, max_batch=2) as svc:
            results = svc.solve_many([b, 3.0 * b])
        want = cg_solve(
            case.operator, b, precond_diag=case.precond_diag(),
            tol=1e-10, maxiter=1000, workspace=case.workspace,
        )
        assert_same_result(results[0], want)


class TestStats:
    def test_snapshot_consistency(self):
        stats = ServiceStats()
        snap0 = stats.snapshot()
        assert snap0.solves_per_second == 0.0
        assert snap0.mean_batch_size == 0.0
        stats.record_submit(queue_depth=1)
        stats.record_submit(queue_depth=2)
        stats.record_batch(2, 0.5, queue_depth=0)
        snap = stats.snapshot()
        assert snap.submitted == 2 and snap.completed == 2
        assert snap.batches == 1 and snap.batch_histogram == {2: 1}
        assert snap.max_queue_depth == 2 and snap.queue_depth == 0
        assert snap.busy_seconds == pytest.approx(0.5)
        assert snap.mean_batch_size == 2.0
        assert snap.solves_per_second > 0

    def test_failed_batches_counted_separately(self):
        stats = ServiceStats()
        stats.record_submit(1)
        stats.record_batch(1, 0.1, queue_depth=0, failed=True)
        snap = stats.snapshot()
        assert snap.failed == 1 and snap.completed == 0

    def test_depth_fn_gives_live_queue_depth(self):
        """Snapshots sample the configured depth provider (inside the
        lock) instead of trusting whatever a mutator last recorded."""
        live = {"depth": 0}
        stats = ServiceStats(depth_fn=lambda: live["depth"])
        stats.record_submit(queue_depth=1)  # recorded value: 1
        live["depth"] = 5  # the queue moved on since
        snap = stats.snapshot()
        assert snap.queue_depth == 5
        assert snap.max_queue_depth == 5  # high-water mark keeps up
        live["depth"] = 0  # queue drained
        drained = stats.snapshot()
        assert drained.queue_depth == 0
        assert drained.max_queue_depth == 5  # the peak never shrinks

    def test_record_rejected_rolls_back_submit(self):
        stats = ServiceStats()
        stats.record_submit()
        stats.record_rejected()
        snap = stats.snapshot()
        assert snap.submitted == 0
        # The phantom first-submit stamp is rolled back too, so a later
        # real request anchors the wall window, not the rejected one.
        assert snap.first_submit is None
        stats.record_submit()
        stats.record_batch(1, 0.1, queue_depth=0)
        assert stats.snapshot().wall_seconds < 0.1

    def test_service_queue_depth_is_live(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=8)
        for b in bank[:3]:
            svc.submit(b)
        assert svc.stats.queue_depth == 3
        svc.flush()
        assert svc.stats.queue_depth == 0
        svc.close()

    def test_merge_snapshots_aggregates(self):
        a = ServiceStats()
        a.record_submit(1)
        a.record_submit(2)
        a.record_batch(2, 0.25, queue_depth=0)
        b = ServiceStats()
        b.record_submit(1)
        b.record_batch(1, 0.5, queue_depth=0, failed=True)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        merged = merge_snapshots([snap_a, snap_b])
        assert merged.submitted == 3
        assert merged.completed == 2 and merged.failed == 1
        assert merged.batches == 2
        assert merged.batch_histogram == {2: 1, 1: 1}
        assert merged.busy_seconds == pytest.approx(0.75)
        # The fleet window spans earliest submit -> latest completion
        # across snapshots (offset replica windows must not inflate
        # solves/s), never shorter than any single replica's window.
        assert merged.wall_seconds == pytest.approx(
            max(snap_a.last_done, snap_b.last_done)
            - min(snap_a.first_submit, snap_b.first_submit)
        )
        assert merged.wall_seconds >= max(
            snap_a.wall_seconds, snap_b.wall_seconds
        )
        assert merged.mean_batch_size == 1.5
        empty = merge_snapshots([])
        assert empty.submitted == 0 and empty.solves_per_second == 0.0

    def test_perf_epoch_offset_maps_perf_to_wall(self):
        from repro.serve import perf_epoch_offset

        offset = perf_epoch_offset()
        # A perf_counter stamp plus the offset reads as wall-clock now.
        assert abs((time.perf_counter() + offset) - time.time()) < 0.05

    def test_rebased_shifts_stamps_preserves_durations(self):
        from repro.serve import StatsSnapshot

        snap = StatsSnapshot(
            submitted=2, completed=2, failed=0, batches=1,
            batch_histogram={2: 1}, queue_depth=0, max_queue_depth=2,
            busy_seconds=0.25, wall_seconds=1.0,
            first_submit=10.0, last_done=11.0,
        )
        moved = snap.rebased(100.0)
        assert moved.first_submit == 110.0 and moved.last_done == 111.0
        assert moved.wall_seconds == snap.wall_seconds
        assert moved.busy_seconds == snap.busy_seconds
        assert moved.submitted == snap.submitted
        # Degenerate cases: zero delta and stampless snapshots are
        # returned unchanged (no copy, nothing to shift).
        assert snap.rebased(0.0) is snap
        empty = StatsSnapshot(
            submitted=0, completed=0, failed=0, batches=0,
            batch_histogram={}, queue_depth=0, max_queue_depth=0,
            busy_seconds=0.0, wall_seconds=0.0,
        )
        assert empty.rebased(123.0) is empty

    def test_cross_process_merge_requires_rebase(self):
        """Regression: first_submit/last_done are perf_counter stamps,
        whose epoch is only comparable within one process.  Merging
        snapshots from two processes without rebasing produced an
        epoch-difference-sized fleet window (breaking solves_per_second
        for the process shard); rebasing each snapshot onto one clock
        at transfer time restores the true window."""
        from repro.serve import StatsSnapshot

        def snapshot_from(process_offset, first_wall, last_wall):
            # A process stamps perf = wall - its perf_epoch_offset().
            return StatsSnapshot(
                submitted=4, completed=4, failed=0, batches=1,
                batch_histogram={4: 1}, queue_depth=0, max_queue_depth=4,
                busy_seconds=0.5,
                wall_seconds=last_wall - first_wall,
                first_submit=first_wall - process_offset,
                last_done=last_wall - process_offset,
            )

        # Worker A active (wall) [1000.0, 1001.0], worker B active
        # [1000.5, 1001.5]: the true fleet window is 1.5 s.
        offset_a, offset_b, offset_parent = 900.0, -500.0, 250.0
        snap_a = snapshot_from(offset_a, 1000.0, 1001.0)
        snap_b = snapshot_from(offset_b, 1000.5, 1001.5)
        # Unrebased, the "window" is the epoch gap, not wall time.
        broken = merge_snapshots([snap_a, snap_b])
        assert broken.wall_seconds > 1000
        # Rebase each onto the parent clock: delta = sender's offset -
        # receiver's offset (what the process shard computes per
        # transfer).
        fixed = merge_snapshots([
            snap_a.rebased(offset_a - offset_parent),
            snap_b.rebased(offset_b - offset_parent),
        ])
        assert fixed.wall_seconds == pytest.approx(1.5)
        assert fixed.solves_per_second == pytest.approx(8 / 1.5)

    def test_merge_keeps_high_water_above_live_depth(self):
        """Summed fleet depth can exceed every per-replica peak; the
        merged mark must cover it (queue_depth <= max_queue_depth is
        part of the snapshot contract)."""
        replicas = []
        for _ in range(2):
            s = ServiceStats()
            s.record_submit(queue_depth=5)
            replicas.append(s.snapshot())
        merged = merge_snapshots(replicas)
        assert merged.queue_depth == 10
        assert merged.max_queue_depth >= merged.queue_depth

    def test_snapshot_consistent_under_submit_hammer(self, serving_problem):
        """The stats-race regression test: client threads hammer submit
        while the main thread polls snapshots.  Every snapshot must be
        an internally consistent cut — the histogram mass must equal
        ``completed + failed`` exactly (a torn read would catch a batch
        counted in one but not yet the other), and counters must be
        monotonic."""
        prob, bank = serving_problem
        n_clients, per_client = 4, 40
        tickets: list = []
        tickets_lock = threading.Lock()
        with SolveService(
            prob, max_batch=4, max_wait=0.0005, background=True,
            tol=0.0,
        ) as svc:
            def client(cid):
                for j in range(per_client):
                    t = svc.submit(bank[(cid + j) % len(bank)], maxiter=2)
                    with tickets_lock:
                        tickets.append(t)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(n_clients)
            ]
            for t in threads:
                t.start()
            last_completed = 0
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snap = svc.stats
                mass = sum(
                    size * count
                    for size, count in snap.batch_histogram.items()
                )
                assert mass == snap.completed + snap.failed
                assert snap.completed >= last_completed  # monotonic
                last_completed = snap.completed
                assert snap.submitted >= snap.completed + snap.failed
                assert 0 <= snap.queue_depth <= snap.max_queue_depth
                if snap.completed == n_clients * per_client:
                    break
            for t in threads:
                t.join()
            for t in tickets:
                t.result(timeout=60)
            final = svc.stats
        assert final.completed == n_clients * per_client
        assert final.failed == 0
        assert final.queue_depth == 0

class TestMixedPrecisionService:
    """Per-request and service-default ``precision="mixed"`` through the
    micro-batching front: separate dispatch groups, solo-equivalent
    numerics, and honest bounces on problems without an fp32 twin."""

    def mixed_reference(self, prob, b, tol=1e-10, maxiter=200):
        from repro.sem.cg import cg_solve_mixed

        return cg_solve_mixed(
            prob.apply_A, prob.apply_A32, b,
            precond_diag=prob.precond_diag(), tol=tol, maxiter=maxiter,
            workspace=prob.workspace,
            workspace32=prob.batch_workspace(1, dtype=np.float32),
        )

    def test_per_request_mixed_resolves_mixed_result(self, serving_problem):
        from repro.sem.cg import MixedCGResult

        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            ticket = svc.submit(bank[0], precision="mixed")
            svc.flush()
            got = ticket.result(timeout=60)
        assert isinstance(got, MixedCGResult)
        assert got.converged
        want = self.mixed_reference(prob, bank[0])
        assert np.array_equal(got.x, want.x)
        assert got.sweeps == want.sweeps
        assert got.inner_iterations == want.inner_iterations
        assert got.residual_history == want.residual_history

    def test_coalesced_mixed_and_fp64_split_into_groups(
        self, serving_problem
    ):
        """Mixed and fp64 requests queued into the same batch must each
        get exactly their solo path's numerics — the service splits the
        batch into separate dispatch groups at solve time."""
        from repro.sem.cg import MixedCGResult

        prob, bank = serving_problem
        with SolveService(prob, max_batch=8) as svc:
            tickets = [
                svc.submit(
                    b, precision="mixed" if k % 2 else "fp64"
                )
                for k, b in enumerate(bank[:6])
            ]
            svc.flush()
            results = [t.result(timeout=60) for t in tickets]
            snap = svc.stats
        for k, (b, got) in enumerate(zip(bank[:6], results)):
            if k % 2:
                assert isinstance(got, MixedCGResult)
                want = self.mixed_reference(prob, b)
                assert np.array_equal(got.x, want.x)
            else:
                assert not isinstance(got, MixedCGResult)
                assert_same_result(got, sequential_solve(prob, b))
        # Two dispatch groups: one stacked fp64 solve, one stacked mixed.
        assert snap.completed == 6

    def test_solve_many_all_mixed(self, serving_problem):
        from repro.sem.cg import MixedCGResult

        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            results = svc.solve_many(bank[:4], precision="mixed")
        for b, got in zip(bank[:4], results):
            assert isinstance(got, MixedCGResult)
            want = self.mixed_reference(prob, b)
            assert np.array_equal(got.x, want.x)

    def test_service_inherits_problem_precision(self):
        from repro.sem.cg import MixedCGResult

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = PoissonProblem(
            mesh, ax_backend="matmul", precision="mixed"
        )
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        with SolveService(prob, max_batch=2) as svc:
            assert svc.precision == "mixed"
            t_mixed = svc.submit(b)
            # And the per-request override back to fp64 still works.
            t_fp64 = svc.submit(b, precision="fp64")
            svc.flush()
            got = t_mixed.result(timeout=60)
            got64 = t_fp64.result(timeout=60)
        assert isinstance(got, MixedCGResult)
        assert not isinstance(got64, MixedCGResult)

    def test_mixed_bounces_without_operator32(self, serving_problem):
        """A problem lacking the fp32 twin keeps working for fp64 and
        rejects mixed at submission (and at construction for a mixed
        service default) with a clear TypeError."""
        prob, bank = serving_problem

        class Fp64Only:
            n_dofs = prob.n_dofs
            operator = staticmethod(prob.apply_A)
            workspace = prob.workspace

            def precond_diag(self):
                return prob.precond_diag()

            def batch_workspace(self, batch, dtype=np.float64):
                return prob.batch_workspace(batch, dtype=dtype)

        with SolveService(Fp64Only(), max_batch=2) as svc:
            ticket = svc.submit(bank[0])
            svc.flush()
            assert ticket.result(timeout=60).converged
            with pytest.raises(TypeError, match="operator32"):
                svc.submit(bank[0], precision="mixed")
        with pytest.raises(TypeError, match="operator32"):
            SolveService(Fp64Only(), precision="mixed")

    def test_invalid_precision_bounces_at_submit(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=2) as svc:
            with pytest.raises(ValueError, match="precision"):
                svc.submit(bank[0], precision="fp32")

    def test_lease_mixed_registers_twin_and_sizes_stay_int(
        self, serving_problem
    ):
        prob, _ = serving_problem
        pool = WorkspacePool(prob)
        with pool.lease_mixed(3) as (ws, ws32):
            assert ws.cg_x.dtype == np.float64
            assert ws32.cg_x.dtype == np.float32
            assert ws32.nbytes < ws.nbytes
        assert pool.sizes == (3,)
        assert pool.nbytes >= ws.nbytes + ws32.nbytes
