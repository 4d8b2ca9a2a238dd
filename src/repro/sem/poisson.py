"""Poisson problem setup: assembled operator, RHS, manufactured solutions.

The paper solves the homogeneous Poisson equation in weak form (its Eq. 1)
with a preconditioned Krylov method whose core is the matrix-free ``Ax``.
:class:`PoissonProblem` wires together mesh, geometry, gather-scatter and
Dirichlet masking into the global SPD operator ``A`` that
:func:`repro.sem.cg.cg_solve` consumes, plus a spectral-accuracy
manufactured solution for verification.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.sem.cg import check_precision, cg_solve, cg_solve_mixed
from repro.sem.compiled import (
    CompiledOperator,
    OperatorStatus,
    load_operator,
)
from repro.sem.element import ReferenceElement
from repro.sem.gather_scatter import GatherScatter
from repro.sem.geometry import Geometry, geometric_factors
from repro.sem.kernels import (
    accepts_keyword,
    ax_local_matmul,
    resolve_ax_backend,
)
from repro.sem.mesh import BoxMesh
from repro.sem.operators import ax_local
from repro.sem.workspace import SolverWorkspace, cached_batch_workspace

AxBackend = Callable[
    [ReferenceElement, NDArray[np.float64], NDArray[np.float64]],
    NDArray[np.float64],
]


@dataclass
class PoissonProblem:
    """Homogeneous-Dirichlet Poisson problem on a box mesh.

    Parameters
    ----------
    mesh:
        The SEM mesh.
    ax_backend:
        Local operator implementation — either a registry name
        (``"einsum"``, ``"matmul"``, ``"listing1"``, ``"dense"``; see
        :mod:`repro.sem.kernels`) or a callable.  Defaults to the
        vectorized :func:`~repro.sem.operators.ax_local`.  The FPGA
        accelerator simulator plugs in here (see
        :meth:`repro.core.accel.SEMAccelerator.as_ax_backend`).
    threads:
        Element-block worker threads for blocked kernels (see
        :func:`~repro.sem.kernels.ax_local_matmul`); carried by the
        problem's workspaces, so every solve through them inherits it.
    precision:
        Default solve precision policy: ``"fp64"`` (the historical
        bit-exact double path) or ``"mixed"`` (fp32 inner Jacobi-CG +
        fp64 iterative refinement; see
        :func:`~repro.sem.cg.cg_solve_mixed`).  Selects the path
        :meth:`solve` takes and the default the serving layer inherits;
        either precision can still be requested per solve.

    The problem owns a :class:`~repro.sem.workspace.SolverWorkspace`
    sized for its mesh; :meth:`apply_A` runs through it (and through the
    backend's ``out=``/``workspace=`` keywords when supported) so the CG
    hot path performs no field-sized allocations after warm-up.  The
    shared buffers make one problem instance serve one solve at a time —
    though that one solve may carry a stacked ``(B, n)`` block of
    right-hand sides through :meth:`batch_workspace` and
    :func:`~repro.sem.cg.cg_solve_batched`.

    With the ``matmul`` backend the problem binds the compiled fused
    operator of :mod:`repro.sem.compiled` at construction, so
    :meth:`apply_A` is one foreign call; :meth:`apply_A_numpy` remains
    the reference path and the fallback.
    """

    mesh: BoxMesh
    ax_backend: AxBackend | str = ax_local
    threads: int = 1
    precision: str = "fp64"
    # The spec/rebuild hand-off (see repro.sem.spec.ProblemParts):
    # prebuilt immutable state — typically shared-memory views attached
    # by a worker process — adopted instead of recomputed.
    _parts: InitVar["object | None"] = None
    geometry: Geometry = field(init=False)
    gs: GatherScatter = field(init=False)
    interior: NDArray[np.bool_] = field(init=False, repr=False)
    workspace: SolverWorkspace = field(init=False, repr=False)
    #: Which operator path :meth:`apply_A`/:meth:`apply_A32` run
    #: (``"compiled"`` or ``"numpy"``), the artifact's cache key, and
    #: the reason whenever numpy runs; see :mod:`repro.sem.compiled`.
    operator_status: OperatorStatus = field(init=False, repr=False)

    def __post_init__(self, _parts: "object | None" = None) -> None:
        check_precision(self.precision)
        if _parts is not None:
            self.geometry = _parts.geometry
            self.gs = _parts.gather_scatter
        else:
            self.geometry = geometric_factors(self.mesh)
            self.gs = GatherScatter.from_mesh(self.mesh)
        self.interior = ~self.mesh.boundary_mask()
        self.ax_backend = resolve_ax_backend(self.ax_backend)
        self.workspace = SolverWorkspace.for_mesh(
            self.mesh, threads=self.threads
        )
        self._batch_workspaces: dict[object, SolverWorkspace] = {}
        self._interior_f = self.interior.astype(np.float64)
        self._interior32: NDArray[np.float32] | None = None
        self._ax_out = accepts_keyword(self.ax_backend, "out")
        self._ax_ws = accepts_keyword(self.ax_backend, "workspace")
        self._precond_diag: NDArray[np.float64] | None = (
            None if _parts is None else _parts.precond_diag
        )
        self._bind_compiled()

    def _bind_compiled(self) -> None:
        """Bind the compiled fused operator when the backend allows it.

        Only the registered ``matmul`` backend is replaced (the compiled
        operator computes the same ``D^T G D`` sum factorization); any
        other backend, and any failure to find, build or load the
        artifact, keeps the numpy path and records why in
        :attr:`operator_status`.  The fp32 twin binds on the first
        :meth:`apply_A32`, so fp64-only problems never force the fp32
        geometry cast.
        """
        self._compiled: CompiledOperator | None = None
        self._compiled32: CompiledOperator | None = None
        self._operator_lib = None
        if self.ax_backend is not ax_local_matmul:
            self.operator_status = OperatorStatus(
                "numpy", reason="backend is not the matmul kernel"
            )
            return
        lib = load_operator(self.ref.n_points)
        if isinstance(lib, str):
            self.operator_status = OperatorStatus("numpy", reason=lib)
            return
        try:
            self._compiled = self._bind_dtype(lib, np.float64)
        except ValueError as exc:
            self.operator_status = OperatorStatus("numpy", reason=str(exc))
            return
        self._operator_lib = lib
        self.operator_status = OperatorStatus("compiled", key=lib.key)

    def _bind_dtype(self, lib, dtype) -> CompiledOperator:
        """One dtype's compiled operator over this problem's arrays."""
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            mask = self._interior_f
        else:
            if self._interior32 is None:
                self._interior32 = self.interior.astype(np.float32)
            mask = self._interior32
        return CompiledOperator(
            lib.functions["f64" if dtype == np.float64 else "f32"],
            self.gs.l2g_flat,
            mask,
            self.geometry.as_dtype(dtype).g_soa,
            np.ascontiguousarray(self.ref.deriv_as(dtype)),
        )

    # ------------------------------------------------------------------
    @property
    def ref(self) -> ReferenceElement:
        """The mesh's reference element."""
        return self.mesh.ref

    @property
    def n_dofs(self) -> int:
        """Number of global DOFs (including masked boundary nodes)."""
        return self.mesh.n_global

    @property
    def operator(self) -> Callable[..., NDArray[np.float64]]:
        """The global SPD operator callback (:meth:`apply_A`).

        The uniform solver-facing protocol shared with
        :class:`~repro.sem.helmholtz.HelmholtzProblem` (whose operator
        method is named ``apply``); the serving layer
        (:mod:`repro.serve`) binds problems through this property.
        """
        return self.apply_A

    @property
    def operator32(self) -> Callable[..., NDArray[np.float32]]:
        """The fp32 twin operator callback (:meth:`apply_A32`).

        Same protocol as :attr:`operator`; the mixed-precision solvers
        (:func:`~repro.sem.cg.cg_solve_mixed`) drive their fp32 inner
        iterations through this.
        """
        return self.apply_A32

    def precond_diag(self) -> NDArray[np.float64]:
        """The Jacobi diagonal, computed once and cached.

        Repeated solves (and every batch a :class:`repro.serve.SolveService`
        dispatches) reuse one assembled diagonal instead of regathering
        it; treat the returned array as read-only.
        """
        if self._precond_diag is None:
            self._precond_diag = self.jacobi_diagonal()
        return self._precond_diag

    def clone(self) -> "PoissonProblem":
        """A solve replica sharing this problem's immutable state.

        Sharding (:class:`repro.serve.shard.ShardedSolveService`) needs
        ``K`` problem instances that can each carry one solve at a time
        *concurrently* — but rebuilding geometry and the gather-scatter
        sort per replica would multiply setup cost and memory for data
        that never changes.  The clone therefore shares everything
        immutable — mesh, :class:`~repro.sem.geometry.Geometry`, the
        Dirichlet mask, the resolved backend, and the (force-computed)
        Jacobi diagonal — while owning the mutable per-solve state: a
        fresh :class:`~repro.sem.workspace.SolverWorkspace`, an empty
        batched-workspace cache, and a
        :meth:`~repro.sem.gather_scatter.GatherScatter.replicate` twin
        with private permutation scratch.

        Returns
        -------
        PoissonProblem
            A replica that is safe to solve through concurrently with
            ``self`` (no mutable buffers are shared).
        """
        # Share-by-default via a shallow copy, then replace exactly the
        # mutable per-solve state: fields added later are shared
        # automatically instead of silently dropped.
        twin = copy.copy(self)
        # Force the diagonal once on the source so every replica shares
        # a single assembled (read-only) array.
        twin._precond_diag = self.precond_diag()
        twin.gs = self.gs.replicate()
        twin.workspace = SolverWorkspace.for_mesh(
            self.mesh, threads=self.threads
        )
        twin._batch_workspaces = {}
        return twin

    def spec(self):
        """A picklable :class:`~repro.sem.spec.ProblemSpec` of this problem.

        :func:`~repro.sem.spec.rebuild` re-runs the deterministic
        construction from it in any process (bit-identical solves).
        Deformed meshes and unregistered backend callables are rejected
        — use :meth:`export_shared` for the former.
        """
        from repro.sem.spec import problem_spec

        return problem_spec(self)

    def export_shared(self):
        """Export the immutable arrays to shared memory for worker fleets.

        Returns a :class:`~repro.sem.spec.SharedProblemExport` whose
        ``spec`` rebuilds this problem in any process with the geometry,
        gather-scatter caches, coordinates, quadrature arrays and
        Jacobi diagonal attached zero-copy — one physical copy across
        every worker.  The caller owns the export: ``close()`` it when
        the fleet is done.
        """
        from repro.sem.spec import export_shared_problem

        return export_shared_problem(self)

    # ------------------------------------------------------------------
    def batch_workspace(
        self, batch: int, dtype: "np.dtype | type" = np.float64
    ) -> SolverWorkspace:
        """The problem's workspace for ``batch`` stacked right-hand sides.

        Sized once per distinct ``(batch, dtype)`` and cached, so
        repeated batched solves stay warm; ``batch=1`` in fp64 returns
        the problem's own :attr:`workspace`.  ``dtype=np.float32``
        yields the half-footprint twin the mixed-precision inner solves
        run through.  Shares the problem's ``threads`` setting.
        """
        return cached_batch_workspace(
            self._batch_workspaces, self.mesh, batch, self.threads,
            self.workspace, dtype=dtype,
        )

    def apply_A(
        self,
        u_global: NDArray[np.float64],
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Global operator: mask -> scatter -> local Ax -> gather -> mask.

        Runs the compiled fused operator when one is bound (see
        :attr:`operator_status`; one foreign call, allocation-free with
        ``out``), and :meth:`apply_A_numpy` otherwise.  Both accept a
        single ``(n,)`` vector or a stacked ``(B, n)`` block, and each
        batched row is bit-identical to its single-system call.
        """
        if self._compiled is not None:
            return self._compiled.apply(u_global, out)
        return self.apply_A_numpy(u_global, out)

    def apply_A_numpy(
        self,
        u_global: NDArray[np.float64],
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """The numpy operator: the reference every other path is held to.

        The returned operator is symmetric positive definite on the
        interior DOFs (boundary rows/columns are identities times zero,
        i.e. masked out), which CG requires.  Every intermediate lives in
        the problem's workspace; passing ``out`` (as
        :func:`~repro.sem.cg.cg_solve` does) makes the whole application
        allocation-free.

        A stacked ``(B, n)`` input applies the operator to all ``B``
        systems at once through the cached batched workspace — the path
        :func:`~repro.sem.cg.cg_solve_batched` drives.  A batch of one
        runs the single-system path on its only row.
        """
        if u_global.ndim == 2 and u_global.shape[0] == 1:
            if out is not None:
                self.apply_A_numpy(u_global[0], out=out[0])
                return out
            return self.apply_A_numpy(u_global[0])[None]
        ws = (
            self.batch_workspace(u_global.shape[0])
            if u_global.ndim == 2 else self.workspace
        )
        np.multiply(u_global, self._interior_f, out=ws.g_tmp)
        self.gs.scatter(ws.g_tmp, out=ws.u_local)
        if self._ax_out and self._ax_ws:
            w_local = self.ax_backend(
                self.ref, ws.u_local, self.geometry.g,
                out=ws.w_local, workspace=ws,
            )
        elif u_global.ndim == 2:
            # Plain (ref, u, g) backends (e.g. the accelerator adapter)
            # see one system at a time.
            w_local = ws.w_local
            for b in range(u_global.shape[0]):
                np.copyto(
                    w_local[b],
                    self.ax_backend(self.ref, ws.u_local[b], self.geometry.g),
                )
        else:
            w_local = self.ax_backend(self.ref, ws.u_local, self.geometry.g)
        w = self.gs.gather(w_local, out=out)
        np.multiply(w, self._interior_f, out=w)
        return w

    def apply_A32(
        self,
        u_global: NDArray[np.float32],
        out: NDArray[np.float32] | None = None,
    ) -> NDArray[np.float32]:
        """fp32 twin of :meth:`apply_A` over the same physical operator.

        Compiled when :meth:`apply_A` is (the fp32 entry point of the
        same artifact, bound on first use over the fp32 geometry twin),
        :meth:`apply_A32_numpy` otherwise.
        """
        if self._operator_lib is not None:
            if self._compiled32 is None:
                self._compiled32 = self._bind_dtype(
                    self._operator_lib, np.float32
                )
            return self._compiled32.apply(u_global, out)
        return self.apply_A32_numpy(u_global, out)

    def apply_A32_numpy(
        self,
        u_global: NDArray[np.float32],
        out: NDArray[np.float32] | None = None,
    ) -> NDArray[np.float32]:
        """fp32 numpy operator, the reference for the compiled fp32 twin.

        Streams the lazily cached fp32 geometry
        (:meth:`~repro.sem.geometry.Geometry.as_dtype`) and
        gather-scatter twins through the dtype-generic kernels — half
        the bytes per DOF of the fp64 path, which is where the mixed
        solve's speedup comes from on this bandwidth-bound operator.
        Inputs and outputs are fp32; the first call per batch size pays
        the one-time twin casts, after which the path is allocation-free
        like :meth:`apply_A`.
        """
        if u_global.ndim == 2 and u_global.shape[0] == 1:
            if out is not None:
                self.apply_A32_numpy(u_global[0], out=out[0])
                return out
            return self.apply_A32_numpy(u_global[0])[None]
        ws = self.batch_workspace(
            u_global.shape[0] if u_global.ndim == 2 else 1,
            dtype=np.float32,
        )
        gs = self.gs.as_dtype(np.float32)
        geo = self.geometry.as_dtype(np.float32)
        if self._interior32 is None:
            self._interior32 = self.interior.astype(np.float32)
        np.multiply(u_global, self._interior32, out=ws.g_tmp)
        gs.scatter(ws.g_tmp, out=ws.u_local)
        if self._ax_out and self._ax_ws:
            w_local = self.ax_backend(
                self.ref, ws.u_local, geo.g, out=ws.w_local, workspace=ws,
            )
        elif u_global.ndim == 2:
            w_local = ws.w_local
            for b in range(u_global.shape[0]):
                np.copyto(
                    w_local[b],
                    self.ax_backend(self.ref, ws.u_local[b], geo.g),
                )
        else:
            w_local = self.ax_backend(self.ref, ws.u_local, geo.g)
        w = gs.gather(w_local, out=out)
        np.multiply(w, self._interior32, out=w)
        return w

    def solve(
        self,
        b: NDArray[np.float64],
        tol: float = 1e-10,
        maxiter: int = 1000,
        x0: NDArray[np.float64] | None = None,
        precision: str | None = None,
    ):
        """Solve ``A x = b`` through the problem's cached workspaces.

        Dispatches on ``precision`` (default: the problem's own
        :attr:`precision` field): ``"fp64"`` runs the historical
        :func:`~repro.sem.cg.cg_solve`, ``"mixed"`` the fp32-inner /
        fp64-refinement :func:`~repro.sem.cg.cg_solve_mixed` — both to
        the same fp64 ``tol``, judged on the true residual for the
        mixed path.  A stacked ``(B, n)`` right-hand side solves the
        whole block at once either way.
        """
        precision = check_precision(
            self.precision if precision is None else precision
        )
        b = np.asarray(b, dtype=np.float64)
        batch = b.shape[0] if b.ndim == 2 else 1
        ws = self.batch_workspace(batch)
        diag = self.precond_diag()
        if precision == "fp64":
            return cg_solve(
                self.apply_A, b, x0=x0, precond_diag=diag, tol=tol,
                maxiter=maxiter, workspace=ws,
            )
        ws32 = self.batch_workspace(batch, dtype=np.float32)
        return cg_solve_mixed(
            self.apply_A, self.apply_A32, b, x0=x0, precond_diag=diag,
            tol=tol, maxiter=maxiter, workspace=ws, workspace32=ws32,
        )

    def jacobi_diagonal(self) -> NDArray[np.float64]:
        """Assembled diagonal of ``A`` for the Jacobi preconditioner.

        Computed matrix-free from the geometric factors:
        ``diag(A^e)[ijk] = sum_l D[l,i]^2 G_rr(l,j,k) + D[l,j]^2 G_ss(i,l,k)
        + D[l,k]^2 G_tt(i,j,l)`` plus cross terms that involve only the
        node itself (``2 D[i,i] D[j,j] G_rs`` etc.), then gathered.
        """
        d2 = self.ref.deriv ** 2
        g = self.geometry.g
        diag = np.einsum("li,eljk->eijk", d2, g[:, 0], optimize=True)
        diag += np.einsum("lj,eilk->eijk", d2, g[:, 3], optimize=True)
        diag += np.einsum("lk,eijl->eijk", d2, g[:, 5], optimize=True)
        dd = np.diag(self.ref.deriv)
        diag += 2.0 * g[:, 1] * dd[:, None, None] * dd[None, :, None]
        diag += 2.0 * g[:, 2] * dd[:, None, None] * dd[None, None, :]
        diag += 2.0 * g[:, 4] * dd[None, :, None] * dd[None, None, :]
        out = self.gs.gather(diag)
        out[~self.interior] = 1.0
        return out

    # ------------------------------------------------------------------
    def rhs_from_forcing(
        self, f: Callable[[NDArray, NDArray, NDArray], NDArray]
    ) -> NDArray[np.float64]:
        """Weak-form right-hand side ``b = Q^T B f`` with boundary masked.

        Parameters
        ----------
        f:
            Forcing as a function of nodal coordinate arrays.
        """
        x, y, z = self.mesh.coords
        f_local = f(x, y, z) * self.geometry.mass
        b = self.gs.gather(f_local)
        b[~self.interior] = 0.0
        return b

    def nodal_values(
        self, u: Callable[[NDArray, NDArray, NDArray], NDArray]
    ) -> NDArray[np.float64]:
        """Evaluate an analytic field at the global nodes."""
        x, y, z = self.mesh.coords
        u_local = u(x, y, z)
        # Average the redundant interface copies (they are identical for a
        # continuous analytic field, so a plain gather/multiplicity works).
        return self.gs.gather(u_local) / self.gs.multiplicity()

    def l2_error(
        self,
        u_global: NDArray[np.float64],
        exact: Callable[[NDArray, NDArray, NDArray], NDArray],
    ) -> float:
        """Discrete L2 error ``sqrt(sum B (u - u_exact)^2)`` over the mesh."""
        x, y, z = self.mesh.coords
        diff = self.gs.scatter(u_global) - exact(x, y, z)
        return float(np.sqrt(np.sum(self.geometry.mass * diff ** 2)))


def sine_manufactured(
    extent: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[
    Callable[[NDArray, NDArray, NDArray], NDArray],
    Callable[[NDArray, NDArray, NDArray], NDArray],
]:
    """Return ``(u_exact, forcing)`` for ``-lap(u) = f`` with
    ``u = sin(pi x/Lx) sin(pi y/Ly) sin(pi z/Lz)`` (zero on the boundary).

    ``f = pi^2 (Lx^-2 + Ly^-2 + Lz^-2) u``, so a single pair serves any box.
    """
    lx, ly, lz = extent
    coef = np.pi ** 2 * (1.0 / lx ** 2 + 1.0 / ly ** 2 + 1.0 / lz ** 2)

    def u_exact(x: NDArray, y: NDArray, z: NDArray) -> NDArray:
        return (
            np.sin(np.pi * x / lx)
            * np.sin(np.pi * y / ly)
            * np.sin(np.pi * z / lz)
        )

    def forcing(x: NDArray, y: NDArray, z: NDArray) -> NDArray:
        return coef * u_exact(x, y, z)

    return u_exact, forcing
