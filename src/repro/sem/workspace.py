"""Preallocated solver workspaces for the allocation-free hot path.

The paper's FPGA datapath wins by streaming DOFs through fixed on-chip
buffers with zero redundant memory traffic; the CPU baseline should play
by the same rules.  :class:`SolverWorkspace` preallocates every
per-iteration temporary the solver stack needs for a fixed ``(E, nx)``
local shape and global DOF count:

* the six sum-factorization work arrays (``ur/us/ut``, ``wr/ws/wt``)
  plus one elementwise scratch used by the ``Ax`` kernels
  (:mod:`repro.sem.kernels`),
* local scatter/gather buffers used by
  :meth:`repro.sem.poisson.PoissonProblem.apply_A`,
* the CG vectors (``x``, ``r``, ``z``, ``p``, ``ap`` and an axpy
  scratch) consumed by :func:`repro.sem.cg.cg_solve`.

Two serving knobs extend the workspace beyond one solve at a time:

* ``threads`` — the workspace owns a persistent
  :class:`~concurrent.futures.ThreadPoolExecutor` that the blocked
  kernels dispatch element blocks onto.  BLAS ``dgemm`` and numpy's
  large-array ufuncs release the GIL, so threads (not processes) give
  real parallelism, and each block writes disjoint output/scratch rows
  so the result is bit-identical to the sequential path.
* ``batch`` — sizes every buffer with a leading ``(B, ...)`` system
  dimension so one warm workspace carries ``B`` independent right-hand
  sides through :func:`repro.sem.cg.cg_solve_batched`, amortizing the
  geometry traffic across all of them.

One workspace serves one (possibly batched) solve at a time — buffers
are reused across calls, so concurrent *solves* must not share a
workspace (the internal element-block threads are safe because they own
disjoint rows).  After a warm-up call every kernel and CG iteration runs
without any field-sized heap allocation — verified by the
``tracemalloc`` regression tests in ``tests/sem/test_workspace.py``.

A threaded workspace owns real OS threads, so it supports deterministic
teardown three ways: ``with SolverWorkspace(...) as ws:`` (the pool is
shut down on block exit), an explicit :meth:`SolverWorkspace.shutdown`,
and — as a safety net for pooled workspaces dropped without either — a
``weakref.finalize`` that stops the workers when the workspace is
garbage collected.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.sem.mesh import BoxMesh


def _shutdown_pool(pool: ThreadPoolExecutor) -> None:
    """Finalizer target: must not hold a reference back to the workspace.

    ``wait=False`` because a GC-triggered finalizer may run from an
    arbitrary thread; the workers exit as soon as their queue drains.
    """
    pool.shutdown(wait=False)

#: Kernel scratch names, shaped ``(scratch_rows, nx, nx, nx)``: for
#: large batched problems the blocked ``Ax`` kernels sweep one system's
#: element block at a time (geometry stays cache-hot across the batch),
#: so the scratch keeps single-system row count; only small batched
#: problems (``batch * E * nx^3 <= FUSED_BATCH_DOFS``) size it
#: ``batch * E`` so the fused all-systems GEMM path has room.
KERNEL_SCRATCH_BUFFERS: tuple[str, ...] = (
    "ur", "us", "ut", "wr", "ws", "wt", "tmp",
)

#: Largest stacked-block DOF count (``batch * E * nx^3``) for which the
#: batched kernels fuse all systems into single GEMM/ufunc sweeps (and
#: the workspace allocates full-batch scratch).  Beyond it, fusing would
#: blow the cache and the memory budget; the kernels fall back to the
#: per-system element-block sweep.
FUSED_BATCH_DOFS: int = 32768

#: Local field buffer names, shaped ``(E, nx, nx, nx)`` for
#: ``batch == 1`` and ``(batch, E, nx, nx, nx)`` otherwise.
LOCAL_FIELD_BUFFERS: tuple[str, ...] = ("u_local", "w_local")

#: All local (element-space) buffer names.
LOCAL_BUFFERS: tuple[str, ...] = KERNEL_SCRATCH_BUFFERS + LOCAL_FIELD_BUFFERS

#: Global (assembled-space) buffer names, shaped ``(n_global,)`` for
#: ``batch == 1`` and ``(batch, n_global)`` otherwise.
GLOBAL_BUFFERS: tuple[str, ...] = (
    "cg_x", "cg_r", "cg_z", "cg_p", "cg_ap", "cg_tmp", "cg_invm", "g_tmp",
)

#: Per-system scalar buffers of the batched CG loop, shaped ``(batch,)``.
BATCH_SCALAR_BUFFERS: tuple[str, ...] = (
    "cg_rz", "cg_pap", "cg_alpha", "cg_beta", "cg_res", "cg_stop",
)


@dataclass
class SolverWorkspace:
    """Every per-iteration temporary of the SEM solver stack, preallocated.

    Parameters
    ----------
    num_elements:
        Element count ``E`` of the local fields.
    nx:
        GLL points per direction (``N + 1``).
    n_global:
        Global DOF count; ``0`` builds a kernel-only workspace (no CG /
        gather-scatter buffers).
    batch:
        Number of independent right-hand sides the buffers carry at
        once.  ``1`` (the default) keeps the historical unbatched
        shapes; ``B > 1`` prepends a system axis to the local field and
        global (CG) buffers for :func:`repro.sem.cg.cg_solve_batched`.
        The kernel scratch stays single-system — the blocked kernels
        sweep the batch one system at a time per element block, reusing
        the same cache-resident scratch and geometry.
    threads:
        Element-block worker threads for the blocked ``Ax`` kernels.
        ``1`` runs sequentially; ``k > 1`` lazily spins up a persistent
        pool reused across calls (see :attr:`executor`).
    dtype:
        Floating dtype of every float buffer (``np.float64`` or
        ``np.float32``).  The default keeps the historical fp64 shapes
        bit-identical; ``np.float32`` halves the workspace footprint
        and feeds the mixed-precision solve path
        (:func:`repro.sem.cg.cg_solve_mixed`).  ``cg_active`` stays
        bool and the ``(batch,)`` scalar reduction buffers stay fp64
        either way (inner products accumulate in fp64 on every path).

    Use :meth:`for_mesh` to size a workspace from a
    :class:`~repro.sem.mesh.BoxMesh` in one call.

    Thread safety
    -------------
    One workspace admits one (possibly batched) solve at a time — the
    buffers are reused in place across calls.  The *internal*
    element-block threads are safe (each block owns disjoint
    output/scratch rows); it is concurrent *solves* that must not share
    a workspace.  Give each concurrent solver its own workspace (the
    problems' ``clone()`` does exactly this) or serialize access
    through :class:`repro.serve.pool.WorkspacePool`.
    """

    num_elements: int
    nx: int
    n_global: int = 0
    batch: int = 1
    threads: int = 1
    dtype: "np.dtype | type" = np.float64

    ur: NDArray[np.float64] = field(init=False, repr=False)
    us: NDArray[np.float64] = field(init=False, repr=False)
    ut: NDArray[np.float64] = field(init=False, repr=False)
    wr: NDArray[np.float64] = field(init=False, repr=False)
    ws: NDArray[np.float64] = field(init=False, repr=False)
    wt: NDArray[np.float64] = field(init=False, repr=False)
    tmp: NDArray[np.float64] = field(init=False, repr=False)
    u_local: NDArray[np.float64] = field(init=False, repr=False)
    w_local: NDArray[np.float64] = field(init=False, repr=False)
    cg_x: NDArray[np.float64] = field(init=False, repr=False)
    cg_r: NDArray[np.float64] = field(init=False, repr=False)
    cg_z: NDArray[np.float64] = field(init=False, repr=False)
    cg_p: NDArray[np.float64] = field(init=False, repr=False)
    cg_ap: NDArray[np.float64] = field(init=False, repr=False)
    cg_tmp: NDArray[np.float64] = field(init=False, repr=False)
    cg_invm: NDArray[np.float64] = field(init=False, repr=False)
    g_tmp: NDArray[np.float64] = field(init=False, repr=False)
    cg_rz: NDArray[np.float64] = field(init=False, repr=False)
    cg_pap: NDArray[np.float64] = field(init=False, repr=False)
    cg_alpha: NDArray[np.float64] = field(init=False, repr=False)
    cg_beta: NDArray[np.float64] = field(init=False, repr=False)
    cg_res: NDArray[np.float64] = field(init=False, repr=False)
    cg_stop: NDArray[np.float64] = field(init=False, repr=False)
    cg_active: NDArray[np.bool_] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ValueError(
                f"element count must be >= 1, got {self.num_elements}"
            )
        if self.nx < 2:
            raise ValueError(f"nx must be >= 2, got {self.nx}")
        if self.n_global < 0:
            raise ValueError(f"n_global must be >= 0, got {self.n_global}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {self.dtype}"
            )
        scratch_rows = self.num_elements
        if (
            self.batch > 1
            and self.batch * self.num_elements * self.nx ** 3
            <= FUSED_BATCH_DOFS
        ):
            scratch_rows = self.batch * self.num_elements
        scratch_shape = (scratch_rows, self.nx, self.nx, self.nx)
        local_shape: tuple[int, ...] = (
            self.num_elements, self.nx, self.nx, self.nx
        )
        global_shape: tuple[int, ...] = (self.n_global,)
        if self.batch > 1:
            local_shape = (self.batch,) + local_shape
            global_shape = (self.batch,) + global_shape
        for name in KERNEL_SCRATCH_BUFFERS:
            setattr(self, name, np.empty(scratch_shape, dtype=self.dtype))
        for name in LOCAL_FIELD_BUFFERS:
            setattr(self, name, np.empty(local_shape, dtype=self.dtype))
        for name in GLOBAL_BUFFERS:
            setattr(self, name, np.empty(global_shape, dtype=self.dtype))
        # Scalar reduction targets stay fp64 regardless of the field
        # dtype: the CG inner products are always *accumulated* in fp64
        # (the mixed path drops field storage, never dot precision), and
        # at (batch,) size the bytes are irrelevant anyway.
        for name in BATCH_SCALAR_BUFFERS:
            setattr(self, name, np.empty(self.batch, dtype=np.float64))
        self.cg_active = np.empty(self.batch, dtype=bool)
        #: CG steps bound to these buffers, reused across solves so a
        #: solve does not re-pack the step's pointers (see
        #: :func:`repro.sem.cg.cg_solve_batched`).
        self.cg_steps: dict = {}
        self._executor: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None

    # ------------------------------------------------------------------
    @classmethod
    def for_mesh(
        cls,
        mesh: BoxMesh,
        batch: int = 1,
        threads: int = 1,
        dtype: "np.dtype | type" = np.float64,
    ) -> "SolverWorkspace":
        """Size a full workspace (kernel + CG buffers) from a mesh."""
        e, nx = mesh.l2g.shape[0], mesh.l2g.shape[1]
        return cls(
            num_elements=e, nx=nx, n_global=mesh.n_global,
            batch=batch, threads=threads, dtype=dtype,
        )

    @property
    def local_shape(self) -> tuple[int, ...]:
        """Shape the local buffers were sized for (batch axis if ``> 1``)."""
        shape = (self.num_elements, self.nx, self.nx, self.nx)
        return (self.batch,) + shape if self.batch > 1 else shape

    @property
    def nbytes(self) -> int:
        """Total bytes held by the workspace buffers (itemsize-aware:
        an fp32 workspace reports half the float footprint of its fp64
        twin; ``cg_active`` stays 1 byte per system)."""
        names = (
            KERNEL_SCRATCH_BUFFERS + LOCAL_FIELD_BUFFERS
            + GLOBAL_BUFFERS + BATCH_SCALAR_BUFFERS
        )
        return (
            sum(getattr(self, name).nbytes for name in names)
            + self.cg_active.nbytes
        )

    @property
    def executor(self) -> ThreadPoolExecutor | None:
        """The persistent element-block pool (``None`` when sequential).

        Created lazily on first use and reused across kernel calls /
        CG iterations, so the solver hot path never pays thread startup.
        """
        if self.threads <= 1:
            return None
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="sem-ax"
            )
            # The pool's worker threads would otherwise outlive a
            # workspace nobody remembered to shut down (each thread
            # pins its interpreter slot until exit); tie teardown to
            # this workspace's lifetime.
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._executor
            )
        return self._executor

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent; buffers stay valid).

        Also runs on ``with``-block exit (:meth:`__exit__`) and, as a
        last resort, from a ``weakref.finalize`` when the workspace is
        garbage collected.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "SolverWorkspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    def require_local(self, num_elements: int, nx: int) -> None:
        """Raise unless the local buffers match ``(num_elements, nx)``."""
        if (num_elements, nx) != (self.num_elements, self.nx):
            raise ValueError(
                f"workspace sized for (E={self.num_elements}, "
                f"nx={self.nx}), got fields with (E={num_elements}, "
                f"nx={nx})"
            )

    def require_global(self, n_global: int) -> None:
        """Raise unless the global buffers hold ``n_global`` entries."""
        if n_global != self.n_global:
            raise ValueError(
                f"workspace sized for {self.n_global} global DOFs, "
                f"got {n_global}"
            )

    def require_batch(self, batch: int) -> None:
        """Raise unless the buffers carry exactly ``batch`` systems."""
        if batch != self.batch:
            raise ValueError(
                f"workspace sized for batch={self.batch}, "
                f"got a block of {batch} systems"
            )


#: Reserved key under which each workspace cache stores its creation
#: lock (ints / ``(int, str)`` tuples are the workspace keys, so a str
#: can never collide).
_CACHE_LOCK_KEY: str = "__create_lock__"


def cached_batch_workspace(
    cache: "dict[object, SolverWorkspace]",
    mesh: BoxMesh,
    batch: int,
    threads: int,
    base: "SolverWorkspace",
    dtype: "np.dtype | type" = np.float64,
) -> "SolverWorkspace":
    """Shared per-problem cache of batched workspaces.

    Parameters
    ----------
    cache:
        The problem's private ``{batch: workspace}`` dict, mutated in
        place on a miss (a per-cache creation lock is also stashed in
        it, under a reserved non-``int`` key).
    mesh:
        Mesh the workspaces are sized for.
    batch:
        Requested stacked-system count.
    threads:
        Element-block worker threads every created workspace carries.
    base:
        The problem's own unbatched workspace, returned for
        ``batch == 1`` when its dtype matches ``dtype``.
    dtype:
        Floating dtype of the requested workspace.  fp64 keeps the
        historical plain-``int`` cache keys; other dtypes key on
        ``(batch, dtype.str)`` so fp64 and fp32 workspaces coexist in
        one cache without colliding.

    Returns
    -------
    SolverWorkspace
        Warm workspace for ``batch`` systems; sized once per distinct
        ``batch`` and reused, so repeated batched solves stay warm.
        Used by :class:`~repro.sem.poisson.PoissonProblem` and
        :class:`~repro.sem.helmholtz.HelmholtzProblem`.

    Notes
    -----
    Creation is guarded by a per-cache lock: two threads racing an
    unseen batch size through ``problem.batch_workspace(B)`` directly
    (the workspace pool serializes its own callers, bare problems
    don't) must materialize exactly *one* workspace — the losing
    duplicate of the old check-then-insert race stranded a thread-pool
    executor until ``weakref.finalize`` fired.  The lock covers only
    construction; *use* of the returned workspace is still the caller's
    to serialize (one solve per workspace at a time).
    """
    dtype = np.dtype(dtype)
    if batch == 1 and dtype == base.dtype:
        return base
    key: object = (
        batch if dtype == np.dtype(np.float64) else (batch, dtype.str)
    )
    ws = cache.get(key)
    if ws is not None:
        return ws
    lock = cache.get(_CACHE_LOCK_KEY)
    if lock is None:
        # setdefault is atomic under the GIL: every racer converges on
        # one lock even when the cache starts empty.
        lock = cache.setdefault(_CACHE_LOCK_KEY, threading.Lock())
    with lock:
        ws = cache.get(key)
        if ws is None:
            ws = SolverWorkspace.for_mesh(
                mesh, batch=batch, threads=threads, dtype=dtype
            )
            cache[key] = ws
    return ws
