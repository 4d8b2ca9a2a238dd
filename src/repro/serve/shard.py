"""Sharded multi-replica solve serving: route requests across K services.

One :class:`~repro.serve.service.SolveService` owns one problem instance
and therefore one warm queue — its throughput ceiling is one core's.
The paper's end-state is the opposite shape: a *fleet* of accelerators
each running the SEM kernel at line rate, with the host deciding which
device every request lands on.  :class:`ShardedSolveService` is that
host-side distribution layer on the CPU substrate: it owns ``K``
replica services (each with its own problem clone, workspace pool and
dispatcher thread — see :meth:`repro.sem.poisson.PoissonProblem.clone`)
and routes every request through a pluggable policy:

``tenant``
    Consistent hash on the request's routing key
    (:class:`~repro.serve.scheduler.TenantRouter`): one tenant's
    requests always meet in the same replica's queue, so they coalesce
    into the same batches — affinity is what makes micro-batching work
    under sharding.
``least-loaded``
    Live queue depths (:class:`~repro.serve.scheduler.LeastLoadedRouter`):
    a replica stalled on a slow batch stops receiving work until it
    drains.
``round-robin``
    Even rotation (:class:`~repro.serve.scheduler.RoundRobinRouter`).

Because every replica is a bit-exact clone of the same problem (shared
immutable geometry, private workspaces), *where* a request lands never
changes *what* it returns: per-request results are bit-identical to a
sequential warm :func:`~repro.sem.cg.cg_solve` for every policy.
Routing is purely a throughput/affinity decision, exactly as batching
is inside one service.

On a single-core host the fleet cannot beat one replica (the benchmark
gate in ``benchmarks/run_baseline.py`` only requires it not to fall
behind); on a multi-core/NUMA host each replica's dispatcher and BLAS
run on their own core and throughput scales with ``K`` — the ratio is
tracked like the ``threads2`` benchmark.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from dataclasses import replace

from repro.sem.cg import CGResult
from repro.serve.errors import Overloaded
from repro.serve.health import FleetHealth
from repro.serve.scheduler import (
    Router,
    attach_cost_feedback,
    pick_with_diversion,
    resolve_router,
)
from repro.serve.service import SolveService, SolveTicket
from repro.serve.stats import StatsSnapshot, merge_snapshots

#: Signature of the overload hook: ``(chosen_replica, depths) -> index
#: to divert to, or None to fall back to the least-loaded replica``.
OverloadHook = Callable[[int, tuple[int, ...]], "int | None"]

#: Sentinel for "defer to SolveService's own default", so the replica
#: services' knobs have exactly one source of defaults (the
#: :class:`~repro.serve.service.SolveService` dataclass) and the two
#: constructors can never drift apart.
_UNSET: object = object()


class ShardedSolveService:
    """Route solve requests across ``K`` replica micro-batching services.

    Parameters
    ----------
    problem:
        A :class:`~repro.sem.poisson.PoissonProblem`,
        :class:`~repro.sem.helmholtz.HelmholtzProblem` or
        :class:`~repro.sem.nekbone.NekboneCase`.  Replica 0 serves
        through it directly; replicas 1..K-1 serve through
        ``problem.clone()`` (shared immutable geometry/gather-scatter
        state, private workspaces), so the problem type must provide
        ``clone()`` when ``replicas > 1``.
    replicas:
        Number of replica services (``K >= 1``).  One per core/NUMA
        domain is the intended deployment.
    policy:
        ``"tenant"``, ``"least-loaded"``, ``"round-robin"``, ``"cost"``
        (predicted-work placement via
        :class:`~repro.serve.costmodel.CostAwareRouter`), or a
        ready :class:`~repro.serve.scheduler.Router` sized for
        ``replicas``.
    max_batch / max_wait / max_pending / tol / maxiter / precision /
    precondition:
        Forwarded to every replica :class:`~repro.serve.service.SolveService`
        (each runs with ``background=True``, i.e. its own dispatcher
        thread).  When omitted, each knob takes ``SolveService``'s own
        default — there is deliberately no second set of defaults here.
    queue_watermark:
        Optional rebalancing threshold: when routing picks a replica
        whose queue already holds this many requests, the service
        consults ``on_overload`` (or falls back to the least-loaded
        replica) instead of piling on.  ``None`` disables rebalancing —
        the router's pick is final.
    on_overload:
        Optional hook ``(chosen, depths) -> int | None`` invoked when
        the watermark trips.  Return a replica index to divert the
        request there, or ``None`` to accept the default diversion
        (least-loaded).  Runs on the submitting thread; keep it cheap.
    shed_watermark:
        Optional admission-control threshold: when *every* healthy
        replica's queue already holds this many requests, ``submit``
        raises the retryable :class:`~repro.serve.errors.Overloaded`
        instead of queueing — graceful degradation by refusing work the
        surviving capacity cannot absorb in time, rather than queueing
        into timeout storms.  ``None`` (the default) never sheds.
        Must be ``>= queue_watermark`` when both are set (diversion
        rebalances *below* the shed point, shedding is the last resort).

    The per-replica health registry is exposed as :attr:`health` —
    replicas of the thread shard cannot crash, but an operator can
    :meth:`~repro.serve.health.FleetHealth.eject` or degrade one for
    maintenance and routing steers around it (requests re-route to the
    shallowest healthy queue; all-out fleets raise
    :class:`~repro.serve.errors.FleetUnavailable`).

    Thread safety
    -------------
    :meth:`submit` and :meth:`solve_many` are safe from any number of
    client threads (routers guard their own state; each replica's queue
    is a thread-safe :class:`~repro.serve.scheduler.MicroBatcher`).
    :meth:`close` must not race with submitters that expect admission —
    late submits raise :class:`~repro.serve.errors.ServiceClosed`.

    Examples
    --------
    >>> svc = ShardedSolveService(problem, replicas=2, policy="tenant")
    >>> ticket = svc.submit(b, key="tenant-42")   # doctest: +SKIP
    >>> svc.close()
    """

    def __init__(
        self,
        problem: object,
        replicas: int = 2,
        policy: "str | Router" = "tenant",
        max_batch: "int | object" = _UNSET,
        max_wait: "float | object" = _UNSET,
        max_pending: "int | None | object" = _UNSET,
        tol: "float | object" = _UNSET,
        maxiter: "int | object" = _UNSET,
        precision: "str | object" = _UNSET,
        precondition: "bool | object" = _UNSET,
        queue_watermark: int | None = None,
        on_overload: OverloadHook | None = None,
        shed_watermark: int | None = None,
        _problems: "Sequence[object] | None" = None,
    ) -> None:
        # _problems is the from_problems() hand-off: pre-built replicas
        # bypass the clone path but share every default above, so the
        # two construction routes can never drift apart.
        if _problems is not None:
            problems = list(_problems)
            if not problems:
                raise ValueError("from_problems needs at least one problem")
        else:
            if replicas < 1:
                raise ValueError(f"replicas must be >= 1, got {replicas}")
            if replicas > 1 and not hasattr(problem, "clone"):
                raise TypeError(
                    f"problem {type(problem).__name__} lacks clone(); "
                    "sharding needs one problem replica per service "
                    "(PoissonProblem, HelmholtzProblem and NekboneCase "
                    "all provide it)"
                )
            problems = [problem] + [
                problem.clone() for _ in range(replicas - 1)
            ]
        if queue_watermark is not None and queue_watermark < 1:
            raise ValueError(
                f"queue_watermark must be >= 1, got {queue_watermark}"
            )
        if shed_watermark is not None:
            if shed_watermark < 1:
                raise ValueError(
                    f"shed_watermark must be >= 1, got {shed_watermark}"
                )
            if (
                queue_watermark is not None
                and shed_watermark < queue_watermark
            ):
                raise ValueError(
                    f"shed_watermark ({shed_watermark}) must be >= "
                    f"queue_watermark ({queue_watermark}): diversion "
                    "rebalances below the shed point"
                )
        self.replicas = len(problems)
        self.policy = policy if isinstance(policy, str) else type(policy).__name__
        self.queue_watermark = queue_watermark
        self.on_overload = on_overload
        self.shed_watermark = shed_watermark
        self.health = FleetHealth(self.replicas)
        self._router = resolve_router(policy, self.replicas)
        self._least_loaded = resolve_router("least-loaded", self.replicas)
        self._lock = threading.Lock()
        self._routed = [0] * self.replicas  # guarded-by: _lock
        self._rebalanced = 0  # guarded-by: _lock
        self._health_diverted = 0  # guarded-by: _lock
        self._shed = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # Only explicitly-set knobs are forwarded; omitted ones fall
        # through to SolveService's dataclass defaults.
        forwarded = {
            name: value
            for name, value in (
                ("max_batch", max_batch), ("max_wait", max_wait),
                ("max_pending", max_pending), ("tol", tol),
                ("maxiter", maxiter), ("precision", precision),
                ("precondition", precondition),
            )
            if value is not _UNSET
        }
        services: list[SolveService] = []
        try:
            for prob in problems:
                services.append(SolveService(
                    prob, background=True, **forwarded,
                ))
        except BaseException:
            # A later replica failed validation: stop the dispatcher
            # threads the earlier ones already spawned, or each failed
            # construction would leak a parked thread + workspace pool
            # for the life of the process.
            for started in services:
                started.close()
            raise
        self.services: tuple[SolveService, ...] = tuple(services)

    @classmethod
    def from_problems(
        cls,
        problems: Sequence[object],
        policy: "str | Router" = "tenant",
        **service_kwargs,
    ) -> "ShardedSolveService":
        """Build a sharded service over pre-constructed problem replicas.

        The escape hatch for heterogeneous deployments (e.g. replicas
        pinned to different thread counts, or problems cloned ahead of
        time on their NUMA domains).  The caller guarantees the
        problems are solve-compatible replicas of one discretization —
        results are bit-identical across replicas only if the problems
        are.

        Parameters
        ----------
        problems:
            One solver-protocol problem per replica (``K = len(problems)``).
        policy:
            As the constructor's ``policy``.
        **service_kwargs:
            Remaining constructor keywords (``max_batch``, ``max_wait``,
            ``queue_watermark``, ...) — same single set of defaults as
            the constructor.  ``replicas`` is rejected: the count is
            ``len(problems)``, and silently ignoring a conflicting
            request would leave the caller sizing load for a fleet that
            doesn't exist.

        Returns
        -------
        ShardedSolveService

        Raises
        ------
        TypeError
            If ``replicas`` is passed (derived from ``problems`` here).
        ValueError
            If ``problems`` is empty.
        """
        if "replicas" in service_kwargs:
            raise TypeError(
                "from_problems derives the replica count from "
                "len(problems); do not pass replicas"
            )
        return cls(None, policy=policy, _problems=problems, **service_kwargs)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        key: object | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> SolveTicket:
        """Route one right-hand side to a replica; returns its ticket.

        Parameters
        ----------
        b:
            Right-hand side of shape ``(n_dofs,)`` (copied at
            submission, as in :meth:`SolveService.submit`).
        tol / maxiter:
            Per-request overrides of the replica services' defaults.
        key:
            Routing key (tenant id).  The ``tenant`` policy hashes it to
            pick the replica; keyless requests fall back to round-robin.
            Other policies ignore it.
        deadline:
            Optional time budget in seconds (see
            :meth:`SolveService.submit`); a request still queued when it
            expires fails its ticket with
            :class:`~repro.serve.errors.DeadlineExceeded`.
        precision:
            Per-request solve policy override (``"fp64"`` or
            ``"mixed"``; see :meth:`SolveService.submit`).

        Returns
        -------
        ~repro.serve.service.SolveTicket
            Resolves to the request's :class:`~repro.sem.cg.CGResult` —
            bit-identical to a sequential warm solve regardless of which
            replica served it.

        Raises
        ------
        ValueError
            On a bad shape or invalid ``tol``/``maxiter``/``deadline``
            (bounced at submit so batchmates are never poisoned).
        ~repro.serve.errors.ServiceClosed
            After :meth:`close`.
        ~repro.serve.errors.Overloaded
            When ``shed_watermark`` is set and every healthy replica's
            queue is at or past it (retryable — back off and resubmit).
        ~repro.serve.errors.FleetUnavailable
            When every replica is out of rotation (degraded/ejected).

        Notes
        -----
        Thread-safe.  Blocks when the chosen replica's queue is at its
        ``max_pending`` backpressure bound (the watermark diversion
        fires *before* that point when configured, steering load away
        from deep queues instead of blocking on them).
        """
        return self._submit(b, tol, maxiter, key, deadline, precision)[1]

    def _submit(
        self, b, tol, maxiter, key, deadline, precision,
    ) -> tuple[int, SolveTicket]:
        """:meth:`submit`, also returning the chosen replica's index."""
        mask = self.health.mask()
        healthy = None if all(mask) else mask
        # Sampling depths takes every replica's queue lock; skip it on
        # the hot path when neither the policy, a watermark, admission
        # control nor health steering reads it.
        if (
            self._router.uses_depths
            or self.queue_watermark is not None
            or self.shed_watermark is not None
            or healthy is not None
        ):
            depths = self.queue_depths
        else:
            depths = (0,) * self.replicas
        if self.shed_watermark is not None:
            admitting = [
                depths[i] for i in range(self.replicas)
                if healthy is None or healthy[i]
            ]
            if admitting and all(
                d >= self.shed_watermark for d in admitting
            ):
                with self._lock:
                    self._shed += 1
                raise Overloaded(
                    f"every healthy replica's queue is at the shed "
                    f"watermark ({self.shed_watermark}); retry after "
                    "backoff"
                )
        chosen, rebalanced, health_diverted = pick_with_diversion(
            self._router, self._least_loaded, key, depths,
            self.queue_watermark, self.on_overload, noun="replica",
            healthy=healthy,
        )
        if rebalanced or health_diverted:
            with self._lock:
                self._rebalanced += rebalanced
                self._health_diverted += health_diverted
        ticket = self.services[chosen].submit(
            b, tol=tol, maxiter=maxiter, deadline=deadline,
            precision=precision,
        )
        attach_cost_feedback(
            self._router, ticket, chosen, key, tol, precision,
        )
        with self._lock:
            self._routed[chosen] += 1
        return chosen, ticket

    def solve_many(
        self,
        bs,
        tol: float | None = None,
        maxiter: int | None = None,
        keys: Sequence[object] | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> list[CGResult]:
        """Solve a block of right-hand sides; results in input order.

        Parameters
        ----------
        bs:
            ``(M, n)`` array or sequence of ``(n,)`` vectors.
        tol / maxiter:
            Shared per-request overrides.
        keys:
            Optional per-request routing keys (``len(keys) == M``).
        deadline:
            Shared per-request time budget in seconds.
        precision:
            Shared per-request solve policy override.

        Returns
        -------
        list of ~repro.sem.cg.CGResult
            One result per input row, in input order.  Every addressed
            replica's group is flushed on the calling thread once the
            block is in, so none waits out ``max_wait``.
        """
        if keys is not None and len(keys) != len(bs):
            raise ValueError(
                f"keys length {len(keys)} != number of requests {len(bs)}"
            )
        routed = [
            self._submit(
                b, tol, maxiter, None if keys is None else keys[i],
                deadline, precision,
            )
            for i, b in enumerate(bs)
        ]
        # The whole block is in: solve each addressed replica's group
        # now instead of letting a group smaller than max_batch sit out
        # max_wait in its dispatcher (SolveService.solve_many flushes
        # the same way).
        for chosen in sorted({chosen for chosen, _ in routed}):
            self.services[chosen].flush()
        return [ticket.result() for _, ticket in routed]

    def flush(self) -> None:
        """Drain every replica's pending queue on the calling thread.

        Replicas run background dispatchers, so flushing is rarely
        needed — it exists for latency-sensitive callers that want
        lingering partial batches solved *now* instead of after
        ``max_wait``.  Safe to call concurrently with the dispatchers
        (client and dispatcher split each queue between them).
        """
        for svc in self.services:
            svc.flush()

    def close(self) -> None:
        """Gracefully drain and stop every replica.  Idempotent.

        Each replica's queue is closed (new submits raise
        :class:`~repro.serve.errors.ServiceClosed`), its dispatcher
        drains the pending requests and exits, and its workspace pool
        is shut down.  Every ticket submitted before ``close`` is
        resolved — drain-on-close is the serving layer's no-dropped-
        requests guarantee.
        """
        with self._lock:
            self._closed = True
        for svc in self.services:
            svc.close()

    def __enter__(self) -> "ShardedSolveService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; late submits raise
        :class:`~repro.serve.errors.ServiceClosed`."""
        with self._lock:
            return self._closed

    @property
    def queue_depths(self) -> tuple[int, ...]:
        """Live pending-request count of every replica."""
        return tuple(svc.queue_depth for svc in self.services)

    @property
    def replica_stats(self) -> tuple[StatsSnapshot, ...]:
        """One consistent :class:`~repro.serve.stats.StatsSnapshot` per
        replica (each cut under its own stats lock)."""
        return tuple(svc.stats for svc in self.services)

    @property
    def stats(self) -> StatsSnapshot:
        """Aggregate fleet snapshot (see
        :func:`~repro.serve.stats.merge_snapshots`): counters sum,
        ``wall_seconds`` spans the earliest submission to the latest
        completion across replicas, so ``solves_per_second`` reads as
        fleet throughput.  The fleet-level ``shed`` counter (requests
        refused with :class:`~repro.serve.errors.Overloaded`) is folded
        in here — shed requests never reached a replica."""
        merged = merge_snapshots(self.replica_stats)
        with self._lock:
            shed = self._shed
        return merged if shed == 0 else replace(merged, shed=shed)

    @property
    def routed(self) -> tuple[int, ...]:
        """Requests routed to each replica (watermark diversions land on
        the replica they were diverted *to*)."""
        with self._lock:
            return tuple(self._routed)

    @property
    def rebalanced(self) -> int:
        """Requests diverted off their routed replica by the watermark."""
        with self._lock:
            return self._rebalanced

    @property
    def health_diverted(self) -> int:
        """Requests steered off an out-of-rotation replica by health
        gating (distinct from watermark :attr:`rebalanced`)."""
        with self._lock:
            return self._health_diverted

    @property
    def shed(self) -> int:
        """Requests refused at admission with
        :class:`~repro.serve.errors.Overloaded`."""
        with self._lock:
            return self._shed
