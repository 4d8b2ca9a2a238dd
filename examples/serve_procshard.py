#!/usr/bin/env python
"""Process-sharded serving: K worker processes, one shared geometry.

``examples/serve_sharded.py`` shards *within* one process — its
replicas' BLAS runs in parallel, but every route/ticket/stat still
crosses one GIL.  This demo runs the process-level tier:

1. export the serving problem's immutable arrays (geometric factors,
   gather-scatter caches, coordinates, quadrature, Jacobi diagonal)
   into shared memory and spin up a K=2
   :class:`~repro.serve.ProcessShardedSolveService` — each worker
   process rebuilds the problem from a picklable spec and attaches the
   SAME physical pages (the workers attest to it below),
2. route a keyed tenant stream through consistent hashing, exactly as
   the thread-shard does — same routers, same watermark semantics,
3. verify every result that crossed a process boundary is bit-identical
   to a sequential warm ``cg_solve`` — the parent and the workers attest
   the same operator path and CG step (compiled artifact keys, or
   numpy),
4. close: every worker drains, the processes join, and the shared
   blocks are unlinked from ``/dev/shm``.

Run:  PYTHONPATH=src python examples/serve_procshard.py
"""

from __future__ import annotations

import os

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement, cg_solve
from repro.sem import sine_manufactured
from repro.sem.compiled import step_status
from repro.serve import ProcessShardedSolveService


def build_problem() -> tuple[PoissonProblem, list[np.ndarray]]:
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, shape=(2, 2, 2))
    problem = PoissonProblem(mesh, ax_backend="matmul")
    _, forcing = sine_manufactured(mesh.extent)
    b0 = problem.rhs_from_forcing(forcing)
    requests = [b0 * (1.0 + 0.25 * k) for k in range(32)]
    return problem, requests


def sequential(problem: PoissonProblem, b: np.ndarray):
    return cg_solve(
        problem.apply_A, b, precond_diag=problem.precond_diag(),
        tol=1e-10, maxiter=200, workspace=problem.workspace,
    )


def main() -> None:
    problem, requests = build_problem()
    reference = [sequential(problem, b) for b in requests]
    print(f"serving shape: {problem.mesh.num_elements} elements at N=3, "
          f"{problem.n_dofs} DOFs, {len(requests)} requests")

    with ProcessShardedSolveService(
        problem, workers=2, policy="tenant", max_batch=8,
        max_wait=0.002, tol=1e-10, maxiter=200,
    ) as svc:
        # 1. The sharing proof, attested by the workers themselves.
        infos = svc.worker_info()
        pids = sorted(info["pid"] for info in infos)
        blocks = {info["geometry_block"] for info in infos}
        assert len(pids) == 2 and os.getpid() not in pids
        assert blocks == {svc.spec.geometry.block}
        assert all(not info["g_soa_writeable"] for info in infos)
        print(f"workers {pids} share one geometry block "
              f"{svc.spec.geometry.block} (read-only, zero-copy)")
        # Bit-identity needs one arithmetic: the parent and every worker
        # run the same operator path (compiled artifact or numpy).
        status = problem.operator_status
        paths = {(info["operator"], info["operator_key"]) for info in infos}
        assert paths == {(status.path, status.key)}, (paths, status)
        print(f"parent and workers run the {status.path} operator"
              + (f" (artifact {status.key})" if status.key else
                 f" ({status.reason})"))
        # ...and the same CG step (compiled artifact or numpy).
        step = step_status()
        steps = {(info["cg_step"], info["cg_step_key"]) for info in infos}
        assert steps == {(step.path, step.key)}, (steps, step)
        print(f"parent and workers run the {step.path} CG step"
              + (f" (artifact {step.key})" if step.key else
                 f" ({step.reason})"))

        # 2. A keyed tenant stream through consistent-hash routing.
        keys = [f"tenant-{k % 6}" for k in range(len(requests))]
        served = svc.solve_many(requests, keys=keys)
        print(f"tenant-routed: {svc.routed} across {svc.workers} worker "
              f"processes, {svc.stats.solves_per_second:.0f} solves/s "
              f"aggregate (worker clocks rebased onto this process)")

        # 3. Bit-identity across the process boundary.
        for got, want in zip(served, reference):
            assert np.array_equal(got.x, want.x)
            assert got.residual_history == want.residual_history
        print("process-sharded results bit-identical to sequential solves")
        shared = svc.shared_blocks

    # 4. Clean close: blocks gone from /dev/shm, nothing leaked.
    for name in shared:
        assert not os.path.exists(f"/dev/shm/{name}"), name
    print("closed: workers drained and joined, shared memory unlinked")


if __name__ == "__main__":
    main()
