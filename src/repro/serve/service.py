"""The dynamic micro-batching solve service.

The paper frames the FPGA SEM accelerator as a device an application
streams solves through; Nekbone — its CPU baseline — is the Jacobi-CG
loop this repo runs allocation-free and batched.  PR 2 built the batched
primitive (:func:`repro.sem.cg.cg_solve_batched`, one warm workspace
carrying ``B`` stacked right-hand sides); this module builds the thing
that *feeds* it: a service that accepts independent single-RHS solve
requests from any number of client threads and dynamically coalesces
them into stacked batched solves.

Guarantees:

* **Bit-identical results.**  Both CG paths accumulate with the same
  fused multiply + pairwise-sum reductions and the batched kernels sweep
  systems through the identical op sequence, so every request's
  :class:`~repro.sem.cg.CGResult` is bit-for-bit what a sequential
  warm :func:`~repro.sem.cg.cg_solve` would have produced — batching is
  purely a throughput decision, invisible to numerics.
* **Per-request parameters.**  ``tol`` and ``maxiter`` ride with each
  request; heterogeneous requests coalesce into one stacked solve via
  the per-system stopping criteria of
  :func:`~repro.sem.cg.cg_solve_batched`.
* **Backpressure.**  ``max_pending`` bounds the queue; ``submit``
  blocks (never drops) when clients outrun the solver.

Two front-ends share the machinery:

* :meth:`SolveService.solve_many` — synchronous, for scripts: submit a
  block of requests, drain inline, get ordered results.
* ``background=True`` — a dispatcher thread batches concurrent
  :meth:`SolveService.submit` calls from many clients, firing a batch
  when ``max_batch`` requests are pending or ``max_wait`` seconds after
  the oldest arrived.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.sem.cg import (
    CGResult,
    MixedCGResult,
    cg_solve_batched,
    cg_solve_batched_mixed,
    check_precision,
)
from repro.serve.errors import DeadlineExceeded, ServiceClosed
from repro.serve.pool import WorkspacePool
from repro.serve.scheduler import MicroBatcher
from repro.serve.stats import ServiceStats, StatsSnapshot

#: Attributes the solver-facing problem protocol requires
#: (PoissonProblem, HelmholtzProblem and NekboneCase all provide them).
_PROTOCOL = ("operator", "precond_diag", "batch_workspace", "n_dofs")


def check_request(
    n: int,
    b: NDArray[np.float64],
    tol: float | None,
    maxiter: int | None,
    deadline: float | None = None,
    precision: str | None = None,
    snapshot: bool = True,
) -> (
    "tuple[NDArray[np.float64], float | None, int | None, float | None,"
    " str | None]"
):
    """Snapshot + validate one request's parameters; no side effects.

    The single source of request-validation truth, shared by
    :meth:`SolveService.submit`/:meth:`SolveService.submit_block` (which
    pass *resolved* knobs, so service defaults are validated too) and
    the process shard's parent-side pre-flight (which passes ``None``
    for knobs the worker will resolve).  ``None`` knobs pass through
    unchecked; everything else is coerced and bounds-checked.
    ``deadline`` is the request's *relative* time budget in seconds
    (``None`` = no deadline); callers convert it to an absolute
    ``time.monotonic()`` instant themselves.  ``precision`` is the
    request's solve policy (``"fp64"``/``"mixed"``, ``None`` = resolve
    later).

    ``snapshot=False`` skips the defensive rhs copy and accepts ``b``
    as a zero-copy *view* (coerced only if it is not already a float64
    ndarray) — for callers whose transport already owns the bytes: the
    process shard's workers solve straight out of shared-memory ring
    slots, and its ring-ingest parent copies into a slot itself, making
    a prior snapshot pure waste.  Such callers take on the snapshot
    contract themselves: the array must not change under a queued
    request.
    """
    if snapshot:
        b = np.array(b, dtype=np.float64)  # snapshot: caller may mutate
    else:
        b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {b.shape}")
    if not np.isfinite(b).all():
        # A NaN/Inf rhs can only produce a non-finite solve, and inside
        # a stacked batch it would cost its batchmates a dispatch.
        raise ValueError("rhs entries must be finite")
    if tol is not None:
        tol = float(tol)
        if not np.isfinite(tol) or tol < 0:
            raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if maxiter is not None:
        maxiter = int(maxiter)
        if maxiter < 0:
            raise ValueError(f"maxiter must be >= 0, got {maxiter}")
    if deadline is not None:
        deadline = float(deadline)
        if not np.isfinite(deadline) or deadline <= 0:
            raise ValueError(
                f"deadline must be finite and > 0 seconds, got {deadline}"
            )
    if precision is not None:
        check_precision(precision)
    return b, tol, maxiter, deadline, precision


class SolveTicket:
    """Handle to one submitted request; resolves to a
    :class:`~repro.sem.cg.CGResult`.

    Tickets are created by :meth:`SolveService.submit` and resolved by
    whichever thread executes the batch containing the request (the
    background dispatcher, or a client draining synchronously).  A thin
    veneer over :class:`concurrent.futures.Future`, which already has
    the cross-thread resolve/wait/re-raise semantics needed here.

    A ticket can be :meth:`cancel`-led to *disown* the request — e.g.
    after :meth:`result` timed out and the caller no longer wants the
    answer.  Cancellation is **drop-only**: it never reaches into a
    queue or a batch (so it cannot poison batchmates); the solve may
    still execute and still counts in the service stats — only the
    result's delivery is dropped.  These are exactly the semantics the
    asyncio front has always had (cancelling its wrapped future), now
    uniform across fronts.
    """

    __slots__ = ("_future",)

    def __init__(self) -> None:
        self._future: Future[CGResult] = Future()

    def done(self) -> bool:
        """True once the request has been solved (or failed)."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> CGResult:
        """Block until resolved and return the request's result.

        Parameters
        ----------
        timeout:
            Seconds to wait; ``None`` waits indefinitely.

        Returns
        -------
        ~repro.sem.cg.CGResult
            The request's solve outcome.

        Raises
        ------
        TimeoutError
            If ``timeout`` elapses before the request resolves.
        Exception
            Re-raises the batch's exception if the solve failed.
        """
        return self._future.result(timeout)

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """Block until resolved and return the failure (or ``None``).

        The non-raising twin of :meth:`result`: callers that need to
        inspect a failed batch's error without a ``try``/``except`` (the
        asyncio front-end's transfer callback) read it here.
        """
        return self._future.exception(timeout)

    def add_done_callback(self, fn: "Callable[[SolveTicket], None]") -> None:
        """Invoke ``fn(ticket)`` once the request resolves or fails.

        The callback runs on whichever thread resolves the ticket (the
        background dispatcher or a draining client) — or immediately on
        the calling thread if the ticket is already done — so it must be
        cheap and must not block.  This is the hand-off point the
        asyncio front-end uses to re-enter the event loop via
        ``loop.call_soon_threadsafe``.
        """
        self._future.add_done_callback(lambda _f: fn(self))

    def cancel(self) -> bool:
        """Disown the request: drop its result when (and if) it arrives.

        Returns ``True`` if the ticket was still pending (it is now
        cancelled: :meth:`result`/:meth:`exception` raise
        :class:`concurrent.futures.CancelledError`, done callbacks
        fire), ``False`` if the request had already resolved or failed.
        Drop-only — the request is *not* pulled out of its queue and a
        batch already containing it still solves every batchmate; the
        service simply discards the outcome on delivery.
        """
        return self._future.cancel()

    def cancelled(self) -> bool:
        """True once :meth:`cancel` has disowned the request."""
        return self._future.cancelled()

    # Called by the service only.  Cancellation races with resolution
    # (client thread vs. dispatcher), and futures refuse transitions on
    # a cancelled/settled state — for a drop-only contract losing that
    # race simply means the outcome is discarded.
    def _resolve(self, result: CGResult) -> None:
        if not self._future.cancelled():
            try:
                self._future.set_result(result)
            except InvalidStateError:
                pass

    def _fail(self, error: BaseException) -> None:
        if not self._future.cancelled():
            try:
                self._future.set_exception(error)
            except InvalidStateError:
                pass


@dataclass
class _Request:
    """One queued solve: the copied rhs plus its request-level knobs.

    ``deadline_at`` is absolute ``time.monotonic()`` (or ``None``): the
    instant after which the request must not *start* solving.
    """

    ticket: SolveTicket
    b: NDArray[np.float64]
    tol: float
    maxiter: int
    deadline_at: float | None = None
    precision: str = "fp64"


@dataclass
class SolveService:
    """Dynamic micro-batching front-end over one SEM problem.

    Parameters
    ----------
    problem:
        A :class:`~repro.sem.poisson.PoissonProblem`,
        :class:`~repro.sem.helmholtz.HelmholtzProblem` or
        :class:`~repro.sem.nekbone.NekboneCase` (anything exposing
        ``operator`` / ``precond_diag()`` / ``batch_workspace()`` /
        ``n_dofs``).  The service inherits the problem's ``threads=``
        setting through its workspaces — thread over element blocks,
        batch over requests.
    max_batch:
        Largest number of requests coalesced into one stacked solve.
    max_wait:
        Latency bound on coalescing: the background dispatcher fires a
        partial batch once the *oldest* pending request has waited this
        many seconds since arrival (time spent solving the previous
        batch counts).  Ignored by the synchronous front-end, which
        drains on demand.
    max_pending:
        Backpressure bound on queued requests; ``submit`` blocks while
        the queue is full.  Defaults to ``4 * max_batch`` in background
        mode, unbounded otherwise (the synchronous front-end drains
        inline, so its queue cannot grow past ``max_batch``).
    tol / maxiter:
        Service-level defaults for requests that don't override them.
    precision:
        Service-level default solve policy (``"fp64"`` or ``"mixed"``)
        for requests that don't override it per submission.  ``None``
        (the default) inherits the problem's own ``precision``
        attribute, so a fleet built over a ``precision="mixed"``
        problem serves mixed by default without re-stating the policy
        at every layer.  Mixed and
        fp64 requests may coalesce into the same queue batch; the
        service splits them into **separate dispatch groups** at solve
        time (one fp64 :func:`~repro.sem.cg.cg_solve_batched`, one
        fp32-inner :func:`~repro.sem.cg.cg_solve_batched_mixed`), so
        each request's numerics are exactly its precision's solo path.
        ``"mixed"`` requires the problem to expose an ``operator32``
        twin.
    precondition:
        Use the problem's cached Jacobi diagonal (default) or solve
        unpreconditioned.
    background:
        Spawn the dispatcher thread.  Without it, batches fire inside
        ``submit`` whenever ``max_batch`` requests are pending, and
        :meth:`flush` / :meth:`solve_many` drain the rest.

    Close the service (or use it as a context manager) to drain the
    queue and stop the dispatcher; tickets submitted before ``close``
    are always resolved.

    Thread safety
    -------------
    :meth:`submit`, :meth:`flush`, :meth:`solve_many`, :attr:`stats`
    and :meth:`close` are safe from any number of threads: the queue is
    a lock-protected :class:`~repro.serve.scheduler.MicroBatcher`,
    solves serialize through the :class:`~repro.serve.pool.WorkspacePool`
    lease, and stats snapshots are cut under the accumulator's lock.
    The *problem* itself is single-solve (shared workspace buffers) —
    which is exactly what the pool enforces; use
    :class:`~repro.serve.shard.ShardedSolveService` for solve-level
    parallelism across problem clones.
    """

    problem: object
    max_batch: int = 8
    max_wait: float = 1e-3
    max_pending: int | None = None
    tol: float = 1e-10
    maxiter: int = 1000
    precision: str | None = None
    precondition: bool = True
    background: bool = False

    stats_accumulator: ServiceStats = field(
        init=False, repr=False, default_factory=ServiceStats
    )

    def __post_init__(self) -> None:
        missing = [a for a in _PROTOCOL if not hasattr(self.problem, a)]
        if missing:
            raise TypeError(
                f"problem {type(self.problem).__name__} lacks the solver "
                f"protocol attribute(s) {missing}; expected a "
                "PoissonProblem, HelmholtzProblem or NekboneCase"
            )
        if self.precision is None:
            self.precision = getattr(self.problem, "precision", "fp64")
        check_precision(self.precision)
        if self.max_pending is None and self.background:
            self.max_pending = 4 * self.max_batch
        self._operator = self.problem.operator
        # The fp32 twin is optional problem equipment (not part of
        # _PROTOCOL): fp64-only problems keep working unchanged, and a
        # mixed request against one bounces at submission.
        self._operator32 = getattr(self.problem, "operator32", None)
        if self.precision == "mixed" and self._operator32 is None:
            raise TypeError(
                f"precision='mixed' needs an operator32 twin, which "
                f"problem {type(self.problem).__name__} does not expose"
            )
        self._diag = (
            self.problem.precond_diag() if self.precondition else None
        )
        self._n = int(self.problem.n_dofs)
        self._pool = WorkspacePool(self.problem)
        self._batcher: MicroBatcher[_Request] = MicroBatcher(
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            max_pending=self.max_pending,
        )
        # Snapshots sample the live queue length inside the stats lock,
        # so concurrent submitters/dispatchers can never leave a stale
        # depth behind (see ServiceStats.depth_fn).
        self.stats_accumulator.depth_fn = self._batcher.__len__
        self._dispatcher: threading.Thread | None = None
        if self.background:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="sem-serve-dispatch",
                daemon=True,
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> SolveTicket:
        """Queue one right-hand side for solving; returns its ticket.

        Parameters
        ----------
        b:
            Right-hand side of shape ``(n_dofs,)``.  Copied at
            submission, so callers may reuse their buffer immediately.
        tol / maxiter:
            Per-request overrides of the service defaults; each request
            keeps its own stopping criteria inside whatever batch it
            coalesces into.
        deadline:
            Optional time budget in seconds (relative to now).  A
            request still queued when it expires fails its ticket with
            :class:`~repro.serve.errors.DeadlineExceeded` instead of
            solving; a request already mid-solve is never interrupted
            (the deadline gates *starting* work, not finishing it).
        precision:
            Per-request override of the service's solve policy
            (``"fp64"`` or ``"mixed"``); the ticket resolves to a
            :class:`~repro.sem.cg.MixedCGResult` for mixed requests.

        Returns
        -------
        SolveTicket
            Resolves to the request's :class:`~repro.sem.cg.CGResult`
            (or :class:`~repro.sem.cg.MixedCGResult`).

        Raises
        ------
        ValueError
            On a bad rhs shape or invalid ``tol``/``maxiter``/
            ``deadline`` — bounced off the offending caller here, never
            allowed to poison the innocent batchmates a bad value would
            have coalesced with.
        ~repro.serve.errors.ServiceClosed
            After :meth:`close`.

        Notes
        -----
        Thread-safe; blocks when the queue is at ``max_pending``
        (backpressure).  In synchronous mode (no background dispatcher)
        the submitter whose request fills a batch pays for solving it
        inline.
        """
        request = self._build_request(b, tol, maxiter, deadline, precision)
        # Count the submission BEFORE enqueueing: once the request is in
        # the queue a background dispatcher may solve and record it
        # immediately, and a snapshot cut in between must never show
        # more completions than submissions.
        self.stats_accumulator.record_submit()
        try:
            depth = self._batcher.put(request)
        except BaseException:
            self.stats_accumulator.record_rejected()
            raise
        self.stats_accumulator.record_depth(depth)
        if self._dispatcher is None and depth >= self.max_batch:
            # Synchronous mode: the submitting client pays for the
            # full batch it just completed.
            self._drain(once=True)
        return request.ticket

    def _build_request(
        self,
        b: NDArray[np.float64],
        tol: float | None,
        maxiter: int | None,
        deadline: float | None = None,
        precision: str | None = None,
        snapshot: bool = True,
    ) -> _Request:
        """Snapshot + validate one request (no side effects on failure).

        Validation happens HERE, not in the batched solve: a bad value
        must bounce off the offending caller, never fail the innocent
        requests coalesced into the same batch.  Knobs are resolved to
        the service defaults *before* validation, so an invalid service
        default is caught too.  The relative ``deadline`` becomes an
        absolute ``time.monotonic()`` instant now, at submission — queue
        time counts against the budget.
        """
        b, tol_val, maxiter_val, deadline_val, precision_val = check_request(
            self._n, b,
            self.tol if tol is None else tol,
            self.maxiter if maxiter is None else maxiter,
            deadline,
            self.precision if precision is None else precision,
            snapshot=snapshot,
        )
        if precision_val == "mixed" and self._operator32 is None:
            raise TypeError(
                f"precision='mixed' needs an operator32 twin, which "
                f"problem {type(self.problem).__name__} does not expose"
            )
        return _Request(
            ticket=SolveTicket(), b=b, tol=tol_val, maxiter=maxiter_val,
            deadline_at=(
                None if deadline_val is None
                else time.monotonic() + deadline_val
            ),
            precision=precision_val,
        )

    def submit_block(
        self,
        items: "list[tuple]",
        snapshot: bool = True,
    ) -> list[SolveTicket]:
        """Submit a block of ``(b, tol, maxiter[, deadline[, precision]])``
        requests.

        The block-ingest twin of :meth:`submit`, used by the process
        shard (:mod:`repro.serve.procshard`): the whole block is
        validated first (all-or-nothing — an invalid element raises
        ``ValueError`` before anything is enqueued), then enqueued
        under one queue-lock acquisition with a single dispatcher
        wake-up instead of one per request.  Items may be 3-tuples
        (no deadline), 4-tuples with a relative deadline in seconds, or
        5-tuples adding a per-request precision policy.

        ``snapshot=False`` queues each item's rhs as a zero-copy view
        instead of a defensive copy (see :func:`check_request`) — the
        process shard's workers pass shared-memory ring slots through
        here without re-staging a single payload byte; the caller
        guarantees the bytes stay put until the request resolves.

        Returns
        -------
        list of SolveTicket
            One ticket per item, in order — always, even when the
            service closes mid-block: requests that made it into the
            queue resolve normally (drain-on-close), the stragglers'
            tickets fail with :class:`~repro.serve.errors.ServiceClosed`.
            Closure is reported through the tickets rather than raised,
            so a bulk caller never has to guess which half of its block
            survived.

        Raises
        ------
        ValueError
            On any invalid element (nothing enqueued).
        """
        requests = [
            self._build_request(b, tol, maxiter, *rest, snapshot=snapshot)
            for b, tol, maxiter, *rest in items
        ]
        tickets = [request.ticket for request in requests]
        for _ in requests:
            self.stats_accumulator.record_submit()
        enqueued = 0
        try:
            if self._dispatcher is None:
                # Foreground: nothing else ever drains the queue, so
                # bulk-enqueueing could wedge on the block's own
                # max_pending backpressure (even a single chunk can,
                # when residual items from earlier submits already
                # occupy part of the queue).  Use submit()'s proven
                # item-wise enqueue + drain-at-max_batch instead — the
                # bulk wake-up win only matters when there is a
                # dispatcher to wake.
                for request in requests:
                    depth = self._batcher.put(request)
                    enqueued += 1
                    self.stats_accumulator.record_depth(depth)
                    if depth >= self.max_batch:
                        self._drain(once=True)
            else:
                depth = self._batcher.put_many(requests)
                enqueued = len(requests)
                self.stats_accumulator.record_depth(depth)
        except ServiceClosed as exc:
            enqueued += getattr(exc, "enqueued", 0)
            for request in requests[enqueued:]:
                self.stats_accumulator.record_rejected()
                request.ticket._fail(exc)
            if enqueued:
                self.stats_accumulator.record_depth(len(self._batcher))
        return tickets

    def flush(self) -> None:
        """Solve everything pending on the caller's thread.

        The synchronous complement to the background dispatcher: after a
        burst of :meth:`submit` calls, one ``flush`` resolves every
        outstanding ticket (partial batches included).  Safe to call in
        background mode too (client and dispatcher simply split the
        queue between them).
        """
        self._drain(once=False)

    def solve_many(
        self,
        bs,
        tol: float | None = None,
        maxiter: int | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> "list[CGResult | MixedCGResult]":
        """Solve a block of right-hand sides; results in input order.

        The scripted front-end: equivalent to submitting every row and
        waiting on every ticket, with the batches solved inline (or by
        the dispatcher in background mode).

        Parameters
        ----------
        bs:
            ``(M, n)`` array or sequence of ``(n,)`` vectors; ``M`` may
            exceed ``max_batch`` — the service chunks it.
        tol / maxiter:
            Shared per-request overrides of the service defaults.
        deadline:
            Shared per-request time budget in seconds (see
            :meth:`submit`); waiting on the results re-raises
            :class:`~repro.serve.errors.DeadlineExceeded` for any row
            that expired before solving.
        precision:
            Shared per-request solve policy override (``"fp64"`` or
            ``"mixed"``).

        Returns
        -------
        list of ~repro.sem.cg.CGResult
            One result per input row, in input order, each bit-identical
            to a sequential warm solve of that row
            (:class:`~repro.sem.cg.MixedCGResult` for mixed rows).
        """
        tickets = self.submit_block(
            [(b, tol, maxiter, deadline, precision) for b in bs]
        )
        if self._dispatcher is None:
            self.flush()
        return [t.result() for t in tickets]

    @property
    def stats(self) -> StatsSnapshot:
        """A consistent snapshot of the service counters."""
        return self.stats_accumulator.snapshot()

    @property
    def queue_depth(self) -> int:
        """Requests currently pending (not yet dispatched)."""
        return len(self._batcher)

    def close(self) -> None:
        """Drain pending requests, resolve their tickets, stop serving.

        Idempotent.  Further ``submit`` calls raise ``ServiceClosed``.
        """
        self._batcher.close()
        # Snapshot-then-clear: two threads racing into close() must not
        # both pass the None check and have one call .join() on the
        # None the other already stored.  Joining the same Thread twice
        # is safe; joining None is an AttributeError.
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            dispatcher.join()
        self._drain(once=False)  # foreground leftovers (no-op otherwise)
        self._pool.shutdown()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._batcher.take_batch()
            if batch:
                self._solve_batch(batch)
            elif self._batcher.closed:
                return
            # else: another thread drained the queue first; wait again.

    def _drain(self, once: bool) -> None:
        """Pop-and-solve pending batches on the calling thread.

        Safe from any number of threads: pops are serialized by the
        batcher's lock and solves by the workspace pool's lease.
        """
        while True:
            batch = self._batcher.take_batch_nowait()
            if not batch:
                return
            self._solve_batch(batch)
            if once:
                return

    def _solve_batch(self, batch: list[_Request]) -> None:
        """One stacked dispatch: solve ``len(batch)`` requests at once.

        The batch is already popped from the queue, so every ticket in
        it MUST leave here resolved or failed — batch assembly included
        in the guarded region, else an allocation failure would strand
        tickets forever.  ``KeyboardInterrupt``/``SystemExit`` still
        fail the tickets (their waiters unblock) but propagate to the
        caller instead of being swallowed into ticket state.

        Requests whose deadline has already passed are expired here —
        one clock read gates the whole batch, *before* any solve work —
        so an expired request never consumes solver time and never
        delays its live batchmates.

        Mixed-precision and fp64 requests that coalesced into the same
        queue batch are split into separate dispatch groups (one stacked
        solve and one stats record each): the two paths run different
        kernels over different workspaces, and sharing a stacked solve
        would force one group through the other's numerics.
        """
        now = time.monotonic()
        expired = [
            req for req in batch
            if req.deadline_at is not None and req.deadline_at <= now
        ]
        if expired:
            self.stats_accumulator.record_expired(len(expired))
            for req in expired:
                req.ticket._fail(DeadlineExceeded(
                    "request deadline expired before its solve started"
                ))
            batch = [
                req for req in batch
                if req.deadline_at is None or req.deadline_at > now
            ]
            if not batch:
                return
        groups = [
            group for group in (
                [req for req in batch if req.precision != "mixed"],
                [req for req in batch if req.precision == "mixed"],
            ) if group
        ]
        for i, group in enumerate(groups):
            try:
                self._solve_group(group)
            except BaseException:
                # Only interrupts escape _solve_group; fail the still
                # pending later groups' tickets before propagating so
                # no waiter is stranded.
                for later in groups[i + 1:]:
                    for req in later:
                        req.ticket._fail(ServiceClosed(
                            "service interrupted before this dispatch group"
                        ))
                raise

    def _solve_group(self, batch: list[_Request]) -> None:
        """One stacked dispatch of same-precision requests."""
        mixed = batch[0].precision == "mixed"
        start = time.perf_counter()
        nb = len(batch)
        try:
            bs = np.stack([req.b for req in batch])
            tols = np.array([req.tol for req in batch])
            maxiters = np.array(
                [req.maxiter for req in batch], dtype=np.int64
            )
            if mixed:
                with self._pool.lease_mixed(nb) as (ws, ws32):
                    res = cg_solve_batched_mixed(
                        self._operator, self._operator32, bs,
                        precond_diag=self._diag, tol=tols,
                        maxiter=maxiters, workspace=ws, workspace32=ws32,
                    )
            else:
                with self._pool.lease(nb) as ws:
                    res = cg_solve_batched(
                        self._operator, bs, precond_diag=self._diag,
                        tol=tols, maxiter=maxiters, workspace=ws,
                    )
        except BaseException as exc:  # resolve tickets even on breakdown
            # Stats first, tickets second: a client that has seen its
            # ticket resolve must also see itself counted in the next
            # snapshot (the inverse order would let snapshots trail the
            # results they describe).
            self.stats_accumulator.record_batch(
                nb, time.perf_counter() - start, len(self._batcher),
                failed=True,
            )
            for req in batch:
                req.ticket._fail(exc)
            if not isinstance(exc, Exception):
                raise  # interrupts abort the drain/dispatch loop
            return
        self.stats_accumulator.record_batch(
            nb, time.perf_counter() - start, len(self._batcher),
        )
        extract = _outcome_row_mixed if mixed else _outcome_row
        for k, req in enumerate(batch):
            req.ticket._resolve(extract(res, k))


def _outcome_row(res, k: int) -> CGResult:
    """Extract system ``k`` of a batched result as a ``CGResult``.

    The residual history is truncated to the system's own live prefix
    (rows past its convergence are frozen repeats), so every field is
    exactly what a sequential solve of that system would have reported —
    bit for bit.
    """
    iterations = int(res.iterations[k])
    return CGResult(
        x=res.x[k].copy(),
        iterations=iterations,
        converged=bool(res.converged[k]),
        residual_norm=float(res.residual_norm[k]),
        residual_history=tuple(
            float(v) for v in res.residual_history[: iterations + 1, k]
        ),
    )


def _outcome_row_mixed(res, k: int) -> MixedCGResult:
    """Extract system ``k`` of a batched mixed result.

    Histories are truncated to the system's own sweep count (later rows
    are frozen repeats while slower batchmates refined), so the record
    matches a solo :func:`~repro.sem.cg.cg_solve_mixed` of that system.
    """
    sweeps = int(res.sweeps[k])
    return MixedCGResult(
        x=res.x[k].copy(),
        iterations=int(res.iterations[k]),
        converged=bool(res.converged[k]),
        residual_norm=float(res.residual_norm[k]),
        residual_history=tuple(
            float(v) for v in res.residual_history[: sweeps + 1, k]
        ),
        sweeps=sweeps,
        inner_iterations=tuple(
            int(v) for v in res.inner_iterations[:sweeps, k]
        ),
    )
