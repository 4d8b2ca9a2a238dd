"""Preconditioned conjugate gradients — the iterative solver around ``Ax``.

The paper's kernel lives inside "a preconditioned Krylov subspace method";
Nekbone, the proxy app the paper draws its CPU baseline from, is exactly a
Jacobi-preconditioned CG over the matrix-free SEM operator.  This module
provides that solver with an operator-callback interface so the FPGA
accelerator simulator can be swapped in as the ``Ax`` backend.

**One loop.**  :func:`cg_solve_batched` iterates a stacked ``(B, n)``
block of right-hand sides in lockstep, with per-system convergence
masking and optionally per-system ``tol``/``maxiter`` — the multi-tenant
serving path.  :func:`cg_solve` is its ``B = 1`` case: an ``(n,)`` rhs
becomes one row, and the operator still receives ``(n,)`` vectors.  The
mixed-precision solvers are the same pair again:
:func:`cg_solve_mixed` is the ``B = 1`` case of
:func:`cg_solve_batched_mixed`, whose fp32 correction solves run the
same loop.

**One step per iteration.**  An iteration is one operator application
plus one *step* over the active rows: ``p^T A p`` with breakdown
detection, ``x += alpha p``, ``r -= alpha A p``, ``z = M^-1 r`` with
``r^T z`` and ``r^T r`` in the same pass, ``beta``, ``p = z + beta p``,
the residual norm, and each row's stop/cap bookkeeping.  The step is the
compiled C pass of :class:`repro.sem.compiled.CompiledStep` (one foreign
call) whenever its artifact loads, and the numpy reference
:class:`NumpyStep` otherwise; :func:`repro.sem.compiled.step_status`
says which runs.  Nothing else selects between them.

**Bit identity.**  A system solved inside a stacked block is
bit-identical to the same system solved alone — the property the
micro-batching serving layer (:mod:`repro.serve`) is built on.  The
compiled step updates each row in its own pass, and its inner products
keep fixed-width lane partials by element index, summed in a fixed
order, so a row's bits depend neither on the batch size nor on its
position or address alignment.  The numpy step reduces each row with
numpy's per-row multiply + pairwise sum.  fp32 vectors keep fp64
accumulators on both steps, and ``alpha``/``beta`` are rounded to the
vector dtype before they scale a vector.  The two steps agree with each
other to a tolerance, not bit for bit.

**No per-iteration allocation.**  Every vector is bound once per solve
— from a :class:`~repro.sem.workspace.SolverWorkspace` when one is
passed — and an operator that accepts ``out=`` (as
:meth:`repro.sem.poisson.PoissonProblem.apply_A` does) writes ``A p``
in place, so a warm iteration allocates no field-sized array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path
from repro.sem import compiled

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sem.workspace import SolverWorkspace

Operator = Callable[[NDArray[np.float64]], NDArray[np.float64]]

#: Step entry point suffix per vector dtype (see
#: :data:`repro.sem.compiled.COVERED_DTYPES`).
_STEP_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


@dataclass(frozen=True)
class CGResult:
    """Outcome of a CG solve.

    Attributes
    ----------
    x:
        Final iterate.
    iterations:
        Number of iterations executed.
    converged:
        True if the residual criterion was met before ``maxiter``, or if
        the Krylov subspace was exhausted (exact-zero search direction),
        in which case the iterate is the exact solution on that subspace.
    residual_norm:
        Final preconditioned residual 2-norm.
    residual_history:
        Per-iteration residual norms (length ``iterations + 1``,
        including the initial residual).
    """

    x: NDArray[np.float64]
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: tuple[float, ...]


def _operator_accepts_out(apply_A: Operator) -> bool:
    """Probe the callback for ``out=`` support (see module docstring).

    Memoized through :func:`repro.sem.kernels.accepts_keyword`
    (``functools.lru_cache``), so repeated short solves don't re-run
    ``inspect.signature`` reflection on every call.
    """
    from repro.sem.kernels import accepts_keyword

    return accepts_keyword(apply_A, "out")


def _applier(apply_A: Operator) -> Callable[[NDArray, NDArray], None]:
    """``apply_into(vec, dst)``: ``dst = A vec``, in place when it can."""
    out_ok = _operator_accepts_out(apply_A)

    @hot_path
    def apply_into(vec: NDArray, dst: NDArray) -> None:
        # Operators may accept ``out=`` yet still return a fresh array
        # (only writing into ``out`` is optional); honor the return
        # value whenever it isn't the destination buffer itself.
        res_arr = apply_A(vec, out=dst) if out_ok else apply_A(vec)
        if res_arr is not dst:
            np.copyto(dst, res_arr)

    return apply_into


def _one_row(b: NDArray, x0, tol, maxiter) -> "NDArray | None":
    """Validate a single-system solve's arguments; ``x0`` as one row."""
    if b.ndim != 1:
        raise ValueError(
            f"rhs must be 1-D (or (B, n) for a batched solve), "
            f"got shape {b.shape}"
        )
    if np.ndim(tol) != 0 or np.ndim(maxiter) != 0:
        raise ValueError(
            "per-system tol/maxiter arrays require a stacked (B, n) rhs"
        )
    if x0 is None:
        return None
    x0 = np.asarray(x0)
    if x0.shape != b.shape:
        raise ValueError(f"x0 shape {x0.shape} != b shape {b.shape}")
    return x0[None]


def cg_solve(
    apply_A: Operator,
    b: NDArray[np.float64],
    x0: NDArray[np.float64] | None = None,
    precond_diag: NDArray[np.float64] | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    workspace: "SolverWorkspace | None" = None,
    dtype: "np.dtype | type" = np.float64,
) -> "CGResult | BatchedCGResult":
    """Solve ``A x = b`` for SPD ``A`` with (Jacobi-)preconditioned CG.

    The ``B = 1`` case of :func:`cg_solve_batched`: the same loop and
    step, so a system solved here is bit-identical to the same system
    solved inside a stacked block.

    Parameters
    ----------
    apply_A:
        Matrix-free operator callback on ``(n,)`` vectors.  If it
        accepts an ``out=`` keyword, results are written into a
        preallocated buffer.
    b:
        Right-hand side.  A stacked ``(B, n)`` block solves ``B``
        independent systems at once through
        :func:`cg_solve_batched` (returning its
        :class:`BatchedCGResult`).
    x0:
        Initial guess (zeros if omitted).
    precond_diag:
        Diagonal of ``A`` for Jacobi preconditioning; identity if omitted.
        Entries must be positive.
    tol:
        Relative tolerance on ``||r||_2 / ||b||_2`` (absolute if ``b = 0``).
        A ``(B,)`` array is accepted only with a stacked rhs (per-system
        tolerances; see :func:`cg_solve_batched`).
    maxiter:
        Iteration cap, ``>= 0`` (``(B,)`` array accepted only with a
        stacked rhs).
    workspace:
        Optional :class:`~repro.sem.workspace.SolverWorkspace` supplying
        the five CG vectors plus scratch (sized for ``b``).  The
        returned iterate is copied out of the workspace, so the result
        stays valid across subsequent solves.
    dtype:
        Floating dtype of the iteration's *vectors* (``b``, ``x``,
        ``r``, ``p``, …).  ``float64`` (the default) is the historical
        path; ``float32`` is the inner loop of the mixed-precision
        solvers (:func:`cg_solve_mixed`) — vector storage and updates
        run in fp32 while every inner product is still **accumulated
        in fp64**.  A supplied ``workspace`` must match this dtype.

    Returns
    -------
    CGResult
        The final iterate with its convergence record (or a
        :class:`BatchedCGResult` when ``b`` was a stacked block).

    Raises
    ------
    ValueError
        On shape mismatches, non-positive preconditioner entries, a
        non-finite ``tol``, a negative ``maxiter``, or a breakdown
        (``p^T A p <= 0``), which indicates the operator is not SPD on
        this subspace.

    Notes
    -----
    Not thread-safe per workspace: the solve mutates the workspace's
    (or the operator's own) buffers in place, so one
    workspace/problem admits one solve at a time.  Concurrent solves
    need distinct problems (see
    :meth:`repro.sem.poisson.PoissonProblem.clone`) or serialized
    access (:class:`repro.serve.pool.WorkspacePool`).
    """
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    if b.ndim == 2:
        return cg_solve_batched(
            apply_A, b, x0=x0, precond_diag=precond_diag, tol=tol,
            maxiter=maxiter, workspace=workspace, dtype=dtype,
        )
    x0 = _one_row(b, x0, tol, maxiter)
    res = _cg(apply_A, b[None], x0, precond_diag, tol, maxiter, workspace,
              dtype, vector_op=True)
    return CGResult(
        x=res.x[0],
        iterations=int(res.iterations[0]),
        converged=bool(res.converged[0]),
        residual_norm=float(res.residual_norm[0]),
        residual_history=tuple(res.residual_history[:, 0].tolist()),
    )


@dataclass(frozen=True)
class BatchedCGResult:
    """Outcome of a batched multi-RHS CG solve.

    Attributes
    ----------
    x:
        Final iterates, shape ``(B, n)``.
    iterations:
        Per-system iteration counts, shape ``(B,)`` — the iteration at
        which each system first met its own residual criterion (the
        total executed count for systems that never converged).
    converged:
        Per-system convergence flags, shape ``(B,)``.  A system frozen
        by the exact-zero-direction breakdown path (its Krylov subspace
        is exhausted and exactly solved) counts as converged even when
        its residual criterion was never met.
    residual_norm:
        Final residual 2-norms, shape ``(B,)``.
    residual_history:
        Residual norms per iteration and system, shape
        ``(total_iterations + 1, B)`` (frozen rows for systems that
        converged early).
    """

    x: NDArray[np.float64]
    iterations: NDArray[np.int64]
    converged: NDArray[np.bool_]
    residual_norm: NDArray[np.float64]
    residual_history: NDArray[np.float64]

    @property
    def batch(self) -> int:
        """Number of systems in the block."""
        return self.x.shape[0]

    @property
    def all_converged(self) -> bool:
        """True if every system met its residual criterion."""
        return bool(np.all(self.converged))

    @property
    def total_iterations(self) -> int:
        """Iterations the batched loop executed (the slowest system)."""
        return self.residual_history.shape[0] - 1


def cg_solve_batched(
    apply_A: Operator,
    b: NDArray[np.float64],
    x0: NDArray[np.float64] | None = None,
    precond_diag: NDArray[np.float64] | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    workspace: "SolverWorkspace | None" = None,
    dtype: "np.dtype | type" = np.float64,
) -> BatchedCGResult:
    """Solve ``B`` independent SPD systems ``A x_i = b_i`` in lockstep.

    All ``B`` systems share the operator ``A`` (and optionally the
    Jacobi diagonal), so every iteration applies the operator to one
    stacked ``(B, n)`` block — the matrix-free SEM ``Ax`` then reads the
    geometric factors once per element block for all systems — and runs
    one step over every active system.  This is the multi-tenant
    serving primitive: one warm workspace amortizes geometry traffic and
    dispatch overhead across every solve in flight.

    Convergence is masked per system: each system stops updating once
    its own residual criterion ``||r_i|| <= tol * ||b_i||`` is met,
    while the remaining systems iterate on — the frozen system's
    iterate is exactly the one it would end with if solved alone.

    Parameters
    ----------
    apply_A:
        Matrix-free operator callback; must accept a stacked ``(B, n)``
        argument (as :meth:`repro.sem.poisson.PoissonProblem.apply_A`
        does).  ``out=`` support is probed as in :func:`cg_solve`.
    b:
        Stacked right-hand sides, shape ``(B, n)``.
    x0:
        Optional stacked initial guesses, shape ``(B, n)`` (zeros if
        omitted).
    precond_diag:
        Jacobi diagonal, shape ``(n,)`` (shared by all systems) or
        ``(B, n)`` (per system).  Entries must be positive.
    tol, maxiter:
        As :func:`cg_solve`; the tolerance is applied per system.
        Either may also be a ``(B,)`` array giving each system its own
        request-level tolerance / iteration cap: a system freezes once
        it meets *its* criterion or exhausts *its* cap, so
        heterogeneous requests coalesced into one stacked solve finish
        exactly as if solved separately.
    workspace:
        Optional :class:`~repro.sem.workspace.SolverWorkspace` built
        with ``batch=B``; supplies every ``(B, n)`` CG vector plus the
        per-system scalar buffers, making warm iterations free of
        field-sized heap allocations.
    dtype:
        Vector dtype, as in :func:`cg_solve`: fp32 vectors with fp64
        dot accumulation for the mixed-precision inner loop.  The
        per-system scalar state (``rz``, ``alpha``, residual norms, …)
        is fp64 on every path.

    Returns
    -------
    BatchedCGResult
        Per-system iterates, iteration counts, convergence flags and
        the stacked residual history.

    Raises
    ------
    ValueError
        On shape mismatches, non-positive preconditioner entries,
        non-finite ``tol`` entries, negative ``maxiter`` entries, or a
        CG breakdown (``p_i^T A p_i <= 0`` on an active system).

    Notes
    -----
    Not thread-safe per workspace (same rule as :func:`cg_solve`): the
    stacked buffers are mutated in place, so one batched workspace
    carries one stacked solve at a time.
    """
    dtype = np.dtype(dtype)
    b = np.asarray(b, dtype=dtype)
    if b.ndim != 2:
        raise ValueError(f"batched rhs must be (B, n), got shape {b.shape}")
    return _cg(apply_A, b, x0, precond_diag, tol, maxiter, workspace, dtype,
               vector_op=False)


def _stopping(tol, maxiter, nb: int) -> tuple[NDArray, NDArray[np.int64]]:
    """Validated per-system tolerances and ``(nb,)`` iteration caps."""
    if nb < 1:
        raise ValueError("batched rhs needs at least one system")
    tol_arr = np.asarray(tol, dtype=np.float64)
    if tol_arr.ndim not in (0, 1) or (
        tol_arr.ndim == 1 and tol_arr.shape != (nb,)
    ):
        raise ValueError(
            f"tol must be a scalar or ({nb},), got shape {tol_arr.shape}"
        )
    if not np.all(np.isfinite(tol_arr)):
        # NaN poisons the res > stop active mask (comparisons with NaN
        # are False), freezing that system at 0 iterations — reject it.
        raise ValueError("tol entries must be finite")
    miter = np.asarray(maxiter, dtype=np.int64)
    if miter.ndim not in (0, 1) or (
        miter.ndim == 1 and miter.shape != (nb,)
    ):
        raise ValueError(
            f"maxiter must be a scalar or ({nb},), got shape {miter.shape}"
        )
    if miter.size and miter.min() < 0:
        raise ValueError("maxiter entries must be >= 0")
    return tol_arr, np.full(nb, miter) if miter.ndim == 0 else miter


def _check_diag(precond_diag, dtype, nb: int, n: int) -> NDArray:
    """The Jacobi diagonal as ``(n,)`` or ``(nb, n)``, validated."""
    md = np.asarray(precond_diag, dtype=dtype)
    if md.shape not in ((n,), (nb, n)):
        raise ValueError(
            f"preconditioner shape {md.shape} must be ({n},) or {(nb, n)}"
        )
    if np.any(md <= 0):
        raise ValueError("Jacobi preconditioner has non-positive entries")
    return md


def _row_dots(a: NDArray, b: NDArray, tmp: NDArray, dst: NDArray) -> None:
    """Per-row inner products into fp64 ``dst``, via scratch ``tmp``."""
    np.multiply(a, b, out=tmp)
    np.sum(tmp, axis=1, out=dst, dtype=np.float64)


def _stop_norms(b: NDArray, tol_arr: NDArray, tmp: NDArray,
                stop: NDArray) -> None:
    """``stop_i = tol_i * ||b_i||`` (``tol_i`` itself when ``b_i = 0``)."""
    _row_dots(b, b, tmp, stop)
    np.sqrt(stop, out=stop)
    stop[...] = tol_arr * np.where(stop > 0, stop, 1.0)


class NumpyStep:
    """The reference CG step: the masked numpy iteration body.

    Called exactly like :class:`repro.sem.compiled.CompiledStep` —
    ``step(it)`` returns the number of rows still active, or ``-1``
    (nothing updated) when an active row has ``p^T A p <= 0`` — and runs
    only when the compiled step is unavailable.  Frozen rows take
    ``alpha = beta = 0``, so their ``x`` and ``r`` stay exactly put.
    ``tmp`` is a ``(B, n)`` scratch vector, ``alpha``/``beta`` ``(B,)``
    fp64 scratch.
    """

    def __init__(self, x, r, z, p, ap, inv_m, rz, pap, res, stop, active,
                 iterations, maxiter, *, tmp, alpha, beta) -> None:
        self.x, self.r, self.z, self.p, self.ap = x, r, z, p, ap
        self.inv_m, self.tmp = inv_m, tmp
        self.rz, self.pap, self.res, self.stop = rz, pap, res, stop
        self.active, self.iterations, self.maxiter = active, iterations, maxiter
        self.alpha, self.beta = alpha, beta
        alpha.fill(0.0)
        beta.fill(0.0)
        nb = x.shape[0]
        if x.dtype == np.float64:
            self.alpha_v, self.beta_v = alpha, beta
        else:
            # The scalar recurrence stays fp64, but a vector is scaled by
            # the scalar rounded to its dtype: broadcasting the fp64
            # array would promote the multiply and round only on store.
            self.alpha_v = np.empty(nb, dtype=x.dtype)
            self.beta_v = np.empty(nb, dtype=x.dtype)
        self.alpha_col = self.alpha_v[:, None]
        self.beta_col = self.beta_v[:, None]
        self.active_col = active[:, None]
        self.flag = np.empty(nb, dtype=bool)
        self.capped = np.empty(nb, dtype=bool)

    @hot_path
    def __call__(self, it: int) -> int:
        active, flag = self.active, self.flag
        _row_dots(self.p, self.ap, self.tmp, self.pap)
        np.less_equal(self.pap, 0.0, out=flag)
        np.logical_and(flag, active, out=flag)
        if flag.any():
            return -1
        np.divide(self.rz, self.pap, out=self.alpha, where=active)
        np.multiply(self.alpha, active, out=self.alpha)
        if self.alpha_v is not self.alpha:
            np.copyto(self.alpha_v, self.alpha)
        np.multiply(self.p, self.alpha_col, out=self.tmp)
        self.x += self.tmp
        np.multiply(self.ap, self.alpha_col, out=self.tmp)
        self.r -= self.tmp
        if self.inv_m is not None:
            np.multiply(self.r, self.inv_m, out=self.z)
        _row_dots(self.r, self.z, self.tmp, self.pap)  # pap now holds rz_new
        np.divide(self.pap, self.rz, out=self.beta, where=active)
        np.multiply(self.beta, active, out=self.beta)
        np.copyto(self.rz, self.pap)
        if self.beta_v is not self.beta:
            np.copyto(self.beta_v, self.beta)
        np.multiply(self.p, self.beta_col, out=self.p)
        np.multiply(self.z, self.active_col, out=self.tmp)
        self.p += self.tmp
        _row_dots(self.r, self.r, self.tmp, self.res)
        np.sqrt(self.res, out=self.res)
        # Rows that met their criterion or their own cap freeze here.
        np.less_equal(self.res, self.stop, out=flag)
        np.less_equal(self.maxiter, it + 1, out=self.capped)
        np.logical_or(flag, self.capped, out=flag)
        np.logical_and(flag, active, out=flag)
        self.iterations[flag] = it + 1
        np.logical_xor(active, flag, out=active)
        return int(np.count_nonzero(active))


def _freeze_exhausted(pap, active, iterations, exhausted, it: int) -> int:
    """Handle a step that found ``p^T A p <= 0`` on an active row.

    Exact-zero directions mean that row's Krylov subspace is exhausted
    and its iterate solves the system on it: freeze the row (it counts
    as converged) and return how many rows remain active.  Anything
    else is a genuine breakdown and raises.
    """
    bad = active & (pap <= 0.0)
    zero = bad & (np.abs(pap) < 1e-300)
    if not np.array_equal(bad, zero):
        worst = float(pap[bad & ~zero].min())
        raise ValueError(
            f"CG breakdown: p^T A p = {worst:g} <= 0 on an active "
            "system (operator not SPD?)"
        )
    active &= ~zero
    exhausted |= zero
    iterations[zero] = it
    return int(np.count_nonzero(active))


def _bind_step(dtype, vectors, workspace, **scratch):
    """The step over ``vectors``: compiled when its artifact loads.

    Packing a compiled step's pointers costs more than a small solve's
    whole setup, so a workspace keeps its bound compiled steps (by
    artifact, dtype and preconditioner layout; every other buffer is the
    workspace's own).  ``scratch`` feeds the numpy step.
    """
    nb = vectors[0].shape[0]
    lib = compiled.load_step()
    if isinstance(lib, str) or dtype not in _STEP_SUFFIX:
        return NumpyStep(*vectors, np.zeros(nb, dtype=np.int64),
                         np.zeros(nb, dtype=np.int64), **scratch)
    inv_m = vectors[5]
    key = (lib.path, dtype, None if inv_m is None else inv_m.ndim)
    step = None if workspace is None else workspace.cg_steps.get(key)
    if step is None:
        step = compiled.CompiledStep(
            lib.functions[_STEP_SUFFIX[dtype]], *vectors,
            np.zeros(nb, dtype=np.int64), np.zeros(nb, dtype=np.int64),
        )
        if workspace is not None:
            workspace.cg_steps[key] = step
    return step


def _cg(apply_A, b, x0, precond_diag, tol, maxiter, workspace, dtype,
        vector_op: bool) -> BatchedCGResult:
    """The CG loop over a ``(B, n)`` block ``b`` of ``dtype``.

    ``vector_op`` (a single-system solve) calls ``apply_A`` on the
    ``(n,)`` rows instead of the ``(1, n)`` block.
    """
    nb, n = b.shape
    tol_arr, miter = _stopping(tol, maxiter, nb)
    if workspace is not None:
        workspace.require_batch(nb)
        workspace.require_global(n)
        if workspace.cg_x.dtype != dtype:
            raise ValueError(
                f"workspace dtype {workspace.cg_x.dtype} != solve "
                f"dtype {dtype}"
            )
        # reshape(nb, -1) is a no-op view for a batch>1 workspace and
        # lifts the unbatched (n,) buffers of a batch-of-one solve.
        x, r, z_buf, p, ap, tmp, invm_buf = (
            buf.reshape(nb, -1) for buf in (
                workspace.cg_x, workspace.cg_r, workspace.cg_z,
                workspace.cg_p, workspace.cg_ap, workspace.cg_tmp,
                workspace.cg_invm,
            )
        )
        rz, pap, alpha, beta, res, stop = (
            workspace.cg_rz, workspace.cg_pap, workspace.cg_alpha,
            workspace.cg_beta, workspace.cg_res, workspace.cg_stop,
        )
        active = workspace.cg_active
    else:
        x, r, z_buf, p, ap, tmp = (
            np.empty((nb, n), dtype=dtype) for _ in range(6)
        )
        invm_buf = None
        rz, pap, alpha, beta, res, stop = (np.empty(nb) for _ in range(6))
        active = np.empty(nb, dtype=bool)
    if x0 is None:
        x.fill(0.0)
    else:
        x0 = np.asarray(x0, dtype=dtype)
        if x0.shape != b.shape:
            raise ValueError(f"x0 shape {x0.shape} != b shape {b.shape}")
        np.copyto(x, x0)
    if precond_diag is not None:
        md = _check_diag(precond_diag, dtype, nb, n)
        if invm_buf is None:
            inv_m = np.empty(md.shape, dtype=dtype)
        else:
            inv_m = invm_buf[0] if md.ndim == 1 else invm_buf
        np.divide(1.0, md, out=inv_m)
        z = z_buf
    else:
        inv_m = None
        z = r  # unpreconditioned: z aliases r, no copy needed

    apply_into = _applier(apply_A)
    x_op, p_op, ap_op = (x[0], p[0], ap[0]) if vector_op else (x, p, ap)

    apply_into(x_op, ap_op)
    np.subtract(b, ap, out=r)
    if inv_m is not None:
        np.multiply(r, inv_m, out=z)
    np.copyto(p, z)
    _row_dots(r, z, tmp, rz)
    _stop_norms(b, tol_arr, tmp, stop)
    _row_dots(r, r, tmp, res)
    np.sqrt(res, out=res)
    np.greater(res, stop, out=active)
    active &= miter > 0  # zero-cap requests never start iterating
    step = _bind_step(dtype, (x, r, z, p, ap, inv_m, rz, pap, res, stop,
                              active), workspace,
                      tmp=tmp, alpha=alpha, beta=beta)
    iterations = step.iterations
    iterations.fill(0)
    np.copyto(step.maxiter, miter)
    # Rows frozen by subspace exhaustion are solved on their Krylov
    # subspace even though their residual criterion never fires; they
    # are folded into the returned ``converged``.
    exhausted = np.zeros(nb, dtype=bool)

    iter_cap = int(miter.max())
    history = np.empty((min(iter_cap, 63) + 1, nb))
    history[0] = res
    n_active = int(np.count_nonzero(active))
    it = 0
    while n_active and it < iter_cap:
        apply_into(p_op, ap_op)
        n_active = step(it)
        if n_active < 0:
            n_active = _freeze_exhausted(pap, active, iterations,
                                         exhausted, it)
            if not n_active:
                break
            n_active = step(it)
        it += 1
        if it == history.shape[0]:
            history = np.concatenate([history, np.empty_like(history)])
        history[it] = res

    return BatchedCGResult(
        x=x.copy() if workspace is not None else x,
        iterations=iterations.copy(),
        converged=(res <= stop) | exhausted,
        residual_norm=res.copy(),
        residual_history=history[:it + 1].copy(),
    )


# ----------------------------------------------------------------------
# Mixed precision: fp32 inner Jacobi-CG + fp64 iterative refinement
# ----------------------------------------------------------------------

#: Solve precision policies understood end to end (problems, services,
#: process shards): ``"fp64"`` is the historical bit-exact double path,
#: ``"mixed"`` the fp32-inner / fp64-refinement path.
VALID_PRECISIONS: tuple[str, ...] = ("fp64", "mixed")


def check_precision(precision: str) -> str:
    """Validate a precision policy string, returning it unchanged."""
    if precision not in VALID_PRECISIONS:
        raise ValueError(
            f"precision must be one of {VALID_PRECISIONS}, "
            f"got {precision!r}"
        )
    return precision


@dataclass(frozen=True)
class MixedCGResult:
    """Outcome of a mixed-precision refinement solve.

    Mirrors :class:`CGResult` (``x``/``iterations``/``converged``/
    ``residual_norm``) so the serving layer handles both uniformly, and
    adds the refinement bookkeeping.

    Attributes
    ----------
    x:
        Final fp64 iterate.
    iterations:
        Total fp32 inner CG iterations across all sweeps.
    converged:
        True if the fp64 true-residual criterion was met within the
        sweep cap (and refinement never stalled).
    residual_norm:
        Final **true** fp64 residual 2-norm ``||b - A x||`` — not the
        inner loop's recurrence residual.
    residual_history:
        True-residual norms per refinement sweep (length
        ``sweeps + 1``, including the initial residual).
    sweeps:
        Refinement sweeps executed (fp32 correction solves).
    inner_iterations:
        Per-sweep fp32 CG iteration counts (length ``sweeps``).
    """

    x: NDArray[np.float64]
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: tuple[float, ...]
    sweeps: int
    inner_iterations: tuple[int, ...]


@dataclass(frozen=True)
class BatchedMixedCGResult:
    """Outcome of a batched mixed-precision refinement solve.

    Mirrors :class:`BatchedCGResult` plus per-system sweep counts.

    Attributes
    ----------
    x:
        Final fp64 iterates, shape ``(B, n)``.
    iterations:
        Total fp32 inner iterations per system, shape ``(B,)``.
    converged:
        Per-system fp64 true-residual convergence flags, shape ``(B,)``.
    residual_norm:
        Final true fp64 residual norms, shape ``(B,)``.
    residual_history:
        True-residual norms per sweep and system, shape
        ``(total_sweeps + 1, B)``.
    sweeps:
        Per-system sweep counts (the sweep at which each system met its
        criterion; the total executed count for systems that never
        converged), shape ``(B,)``.
    inner_iterations:
        fp32 inner CG iterations per sweep and system, shape
        ``(total_sweeps, B)``; frozen systems contribute zeros.  Row
        prefixes of length ``sweeps[k]`` recover each system's solo
        per-sweep record.
    """

    x: NDArray[np.float64]
    iterations: NDArray[np.int64]
    converged: NDArray[np.bool_]
    residual_norm: NDArray[np.float64]
    residual_history: NDArray[np.float64]
    sweeps: NDArray[np.int64]
    inner_iterations: NDArray[np.int64]

    @property
    def batch(self) -> int:
        """Number of systems in the block."""
        return self.x.shape[0]

    @property
    def all_converged(self) -> bool:
        """True if every system met its fp64 residual criterion."""
        return bool(np.all(self.converged))

    @property
    def total_sweeps(self) -> int:
        """Refinement sweeps the batched loop executed (slowest system)."""
        return self.residual_history.shape[0] - 1


#: Default relative tolerance of the fp32 correction solves.  Each sweep
#: multiplies the true residual by roughly this factor — until the fp32
#: operator-quantization floor cuts in: the correction ``d`` is computed
#: against ``A32``, so the fp64 residual after the update carries a
#: ``(A - A32) d`` term of order ``kappa * eps_fp32`` relative to the
#: sweep's own residual (~1e-4 at the N=7/E=512 bench shape).  Pushing
#: the inner recurrence below that floor burns fp32 iterations the
#: refinement update immediately throws away — measured end to end,
#: 1e-4 needs fewer *total* inner iterations than 1e-5 at every shape
#: tried, while still reaching ``tol = 1e-10`` in about three sweeps.
MIXED_INNER_TOL: float = 1e-4

#: Default cap on refinement sweeps.  Well-conditioned SEM systems
#: converge in 2-4; hitting the cap means fp32 refinement is stalling on
#: this operator (the result reports ``converged=False``).
MIXED_MAX_SWEEPS: int = 8


def cg_solve_mixed(
    apply_A: Operator,
    apply_A32: Operator,
    b: NDArray[np.float64],
    x0: NDArray[np.float64] | None = None,
    precond_diag: NDArray[np.float64] | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    workspace: "SolverWorkspace | None" = None,
    workspace32: "SolverWorkspace | None" = None,
    inner_tol: float = MIXED_INNER_TOL,
    max_sweeps: int = MIXED_MAX_SWEEPS,
) -> "MixedCGResult | BatchedMixedCGResult":
    """Solve ``A x = b`` to fp64 ``tol`` with fp32 inner CG sweeps.

    Classic iterative refinement around the bandwidth-bound ``Ax``: the
    expensive Krylov iteration runs entirely in fp32 (the CG loop with
    ``dtype=float32`` — half the bytes per DOF through the
    sum-factorization kernels), while an outer fp64 loop recomputes the
    **true** residual ``r = b - A x``, feeds it back as the next fp32
    correction problem ``A d = r``, and accumulates ``x += d`` in fp64.
    Convergence is judged only on the fp64 true residual, so the result
    meets the caller's fp64 tolerance despite the fp32 inner arithmetic
    (as long as the operator is well-enough conditioned for fp32 to
    make progress; a stalled sweep terminates with
    ``converged=False`` instead of burning the sweep cap).

    The ``B = 1`` case of :func:`cg_solve_batched_mixed`.

    Parameters
    ----------
    apply_A:
        fp64 operator callback on ``(n,)`` vectors (true-residual
        recomputation).
    apply_A32:
        fp32 operator callback over the same physical operator —
        typically the problem's fp32-geometry twin.  Must accept and
        return fp32 arrays.
    b:
        fp64 right-hand side; a stacked ``(B, n)`` block dispatches to
        :func:`cg_solve_batched_mixed`.
    x0, precond_diag, tol, maxiter:
        As :func:`cg_solve`.  ``maxiter`` caps each fp32 inner solve
        (per sweep); the preconditioner is cast to fp32 once for the
        inner loop.
    workspace:
        Optional fp64 workspace for the outer loop's vectors.
    workspace32:
        Optional fp32 workspace (same mesh/batch sizing) for the inner
        solves.
    inner_tol:
        Relative tolerance of each fp32 correction solve
        (default :data:`MIXED_INNER_TOL`).
    max_sweeps:
        Refinement sweep cap (default :data:`MIXED_MAX_SWEEPS`).

    Returns
    -------
    MixedCGResult
        fp64 iterate, true-residual record and sweep bookkeeping (or a
        :class:`BatchedMixedCGResult` for a stacked ``b``).
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2:
        return cg_solve_batched_mixed(
            apply_A, apply_A32, b, x0=x0, precond_diag=precond_diag,
            tol=tol, maxiter=maxiter, workspace=workspace,
            workspace32=workspace32, inner_tol=inner_tol,
            max_sweeps=max_sweeps,
        )
    x0 = _one_row(b, x0, tol, maxiter)
    res = _mixed(apply_A, apply_A32, b[None], x0, precond_diag, tol,
                 maxiter, workspace, workspace32, inner_tol, max_sweeps,
                 vector_op=True)
    return MixedCGResult(
        x=res.x[0],
        iterations=int(res.iterations[0]),
        converged=bool(res.converged[0]),
        residual_norm=float(res.residual_norm[0]),
        residual_history=tuple(res.residual_history[:, 0].tolist()),
        sweeps=int(res.sweeps[0]),
        inner_iterations=tuple(res.inner_iterations[:, 0].tolist()),
    )


def cg_solve_batched_mixed(
    apply_A: Operator,
    apply_A32: Operator,
    b: NDArray[np.float64],
    x0: NDArray[np.float64] | None = None,
    precond_diag: NDArray[np.float64] | None = None,
    tol: float = 1e-10,
    maxiter: int = 1000,
    workspace: "SolverWorkspace | None" = None,
    workspace32: "SolverWorkspace | None" = None,
    inner_tol: float = MIXED_INNER_TOL,
    max_sweeps: int = MIXED_MAX_SWEEPS,
) -> BatchedMixedCGResult:
    """Mixed-precision refinement over a stacked ``(B, n)`` block.

    Each sweep runs one fp32 :func:`cg_solve_batched` correction solve
    over the whole block (with per-system ``tol``/``maxiter`` honored by
    the inner loop), then recomputes every system's true fp64 residual
    with a single batched operator application.  Systems that have met
    their fp64 criterion are frozen exactly — their correction rhs is
    zeroed, the inner loop leaves them at zero iterations, and their
    fp64 iterate never moves — so a system refined inside a block
    finishes bit-identically to the same system refined alone.

    Parameters are as :func:`cg_solve_mixed`, with ``tol``/``maxiter``
    optionally ``(B,)`` arrays (per-request tolerances / inner caps,
    exactly as :func:`cg_solve_batched` accepts).
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"batched rhs must be (B, n), got shape {b.shape}")
    return _mixed(apply_A, apply_A32, b, x0, precond_diag, tol, maxiter,
                  workspace, workspace32, inner_tol, max_sweeps,
                  vector_op=False)


def _mixed(apply_A, apply_A32, b, x0, precond_diag, tol, maxiter,
           workspace, workspace32, inner_tol, max_sweeps,
           vector_op: bool) -> BatchedMixedCGResult:
    """The refinement loop over a ``(B, n)`` fp64 block (see
    :func:`_cg` for ``vector_op``)."""
    nb, n = b.shape
    tol_arr, miter = _stopping(tol, maxiter, nb)
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if workspace is not None:
        workspace.require_batch(nb)
        workspace.require_global(n)
        if workspace.cg_x.dtype != np.float64:
            raise ValueError(
                f"outer workspace must be fp64, got {workspace.cg_x.dtype}"
            )
        x, r, ap, tmp = (
            buf.reshape(nb, -1) for buf in (
                workspace.cg_x, workspace.cg_r, workspace.cg_ap,
                workspace.cg_tmp,
            )
        )
        res, stop = workspace.cg_res, workspace.cg_stop
        active = workspace.cg_active
    else:
        x, r, ap, tmp = (np.empty((nb, n)) for _ in range(4))
        res, stop = np.empty(nb), np.empty(nb)
        active = np.empty(nb, dtype=bool)
    md32 = None
    if precond_diag is not None:
        md32 = _check_diag(precond_diag, np.float64, nb, n).astype(np.float32)

    apply_into = _applier(apply_A)
    x_op, ap_op = (x[0], ap[0]) if vector_op else (x, ap)

    if x0 is None:
        x.fill(0.0)
        np.copyto(r, b)  # r = b - A*0 without paying the operator
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise ValueError(f"x0 shape {x0.shape} != b shape {b.shape}")
        np.copyto(x, x0)
        apply_into(x_op, ap_op)
        np.subtract(b, ap, out=r)
    _stop_norms(b, tol_arr, tmp, stop)
    _row_dots(r, r, tmp, res)
    np.sqrt(res, out=res)
    np.greater(res, stop, out=active)
    active &= miter > 0  # zero-cap requests never start refining

    sweeps_arr = np.zeros(nb, dtype=np.int64)
    iterations = np.zeros(nb, dtype=np.int64)
    inner_hist: list[NDArray[np.int64]] = []
    history = [res.copy()]
    prev_res = res.copy()
    sweep = 0
    while bool(np.any(active)) and sweep < max_sweeps:
        # fp32 correction solve A d = r, from zero (the standard
        # refinement step).  Frozen systems get a zero rhs, hence a
        # zero correction.
        r32 = r.astype(np.float32)
        r32[~active] = 0.0
        inner = _cg(apply_A32, r32, None, md32, inner_tol, miter,
                    workspace32, np.dtype(np.float32), vector_op)
        np.add(x, inner.x, out=x)  # fp64 accumulation; frozen rows add 0
        apply_into(x_op, ap_op)
        np.subtract(b, ap, out=r)  # TRUE residual, recomputed in fp64
        _row_dots(r, r, tmp, res)
        np.sqrt(res, out=res)
        sweep += 1
        sweep_iters = np.where(active, inner.iterations, 0).astype(np.int64)
        iterations += sweep_iters
        inner_hist.append(sweep_iters)
        history.append(res.copy())
        newly_done = active & (res <= stop)
        sweeps_arr[newly_done] = sweep
        active &= ~newly_done
        # fp32 can no longer reduce this system's fp64 residual
        # (conditioning exceeds what single precision resolves): stop
        # burning sweeps on it and report honestly.
        stalled = active & (res >= prev_res)
        sweeps_arr[stalled] = sweep
        active &= ~stalled
        np.copyto(prev_res, res)

    sweeps_arr[active] = sweep  # systems that hit the sweep cap
    return BatchedMixedCGResult(
        x=x.copy() if workspace is not None else x,
        iterations=iterations,
        converged=res <= stop,
        residual_norm=res.copy(),
        residual_history=np.stack(history),
        sweeps=sweeps_arr,
        inner_iterations=(
            np.stack(inner_hist)
            if inner_hist else np.zeros((0, nb), dtype=np.int64)
        ),
    )
