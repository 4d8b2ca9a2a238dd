#!/usr/bin/env python
"""The compiled fused Poisson operator: active, accurate, consistent, cached.

A ``matmul`` :class:`~repro.sem.poisson.PoissonProblem` binds generated C
for mask -> scatter -> sum-factorized ``Ax`` -> gather -> mask at
construction (:mod:`repro.sem.compiled`), so ``apply_A`` is one foreign
call.  This smoke run asserts, at the N=3 and N=7 serving shapes:

1. the compiled path is active on this host (a C compiler was found and
   the artifact loaded),
2. it matches the numpy reference within 1e-13 (fp64) and 1e-5 (fp32)
   relative to ``max|w|``,
3. each row of a batched call is bit-identical to its single-system
   call,
4. a second construction of the same shape runs no compiler (the
   on-disk cache and the in-process memo both hold),
5. the compiled CG step is active, and each row of a batched solve with
   per-row ``tol``/``maxiter`` is bit-identical to its ``B = 1`` solve,
   in fp64 and fp32,

and prints the per-call time of both operator paths.

Run:  PYTHONPATH=src python examples/compiled_operator.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import BoxMesh, PoissonProblem, ReferenceElement
from repro.sem import cg_solve, cg_solve_batched, compiled


def best_of(apply, u, out, calls: int = 50) -> float:
    """Best per-call seconds over five windows of ``calls`` calls."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            apply(u, out=out)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def main() -> None:
    compiles = []
    build = compiled.compile_source

    def counted(cc, source, dest):
        compiles.append(dest.name)
        build(cc, source, dest)

    compiled.compile_source = counted
    rng = np.random.default_rng(0)
    for degree in (3, 7):
        mesh = BoxMesh.build(ReferenceElement.from_degree(degree), (2, 2, 2))
        prob = PoissonProblem(mesh, ax_backend="matmul")
        status = prob.operator_status
        # 1. Active on this host.
        assert status.path == "compiled", status.reason
        built = len(compiles)

        u = rng.standard_normal((4, prob.n_dofs))
        for dtype, apply, reference, rtol in (
            (np.float64, prob.apply_A, prob.apply_A_numpy, 1e-13),
            (np.float32, prob.apply_A32, prob.apply_A32_numpy, 1e-5),
        ):
            x = u.astype(dtype)
            got = apply(x, out=np.empty_like(x))
            want = reference(x)
            # 2. Within tolerance of numpy.
            err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            assert err <= rtol, (degree, dtype, err)
            # 3. Batched rows == single-system calls, bit for bit.
            for b in range(x.shape[0]):
                single = apply(x[b].copy(), out=np.empty_like(x[b]))
                assert np.array_equal(got[b], single), (degree, dtype, b)
            print(f"N={degree} {np.dtype(dtype).name}: rel err {err:.1e}, "
                  f"batched rows bit-identical to single calls")

        # 4. A second construction compiles nothing.
        again = PoissonProblem(mesh, ax_backend="matmul")
        assert again.operator_status == status
        assert len(compiles) == built, compiles

        out = np.empty_like(u[0])
        t_numpy = best_of(prob.apply_A_numpy, u[0], out)
        t_compiled = best_of(prob.apply_A, u[0], out)
        print(f"N={degree} on 2x2x2 elements: apply_A {t_compiled * 1e6:.1f} us "
              f"compiled vs {t_numpy * 1e6:.1f} us numpy "
              f"(x{t_numpy / t_compiled:.1f}); artifact {status.key}, "
              f"second construction ran no compiler")
        # 5. The compiled CG step: batched rows == B = 1 solves.
        step = compiled.step_status()
        assert step.path == "compiled", step.reason
        tols, caps = np.array([1e-6, 1e-10, 1e-8]), np.array([200, 200, 7])
        for dtype, apply in ((np.float64, prob.apply_A),
                             (np.float32, prob.apply_A32)):
            rhs = (u[:3] * prob.interior).astype(dtype)
            diag = prob.precond_diag().astype(dtype)
            block = cg_solve_batched(apply, rhs, precond_diag=diag, tol=tols,
                                     maxiter=caps, dtype=dtype)
            for b in range(rhs.shape[0]):
                solo = cg_solve(apply, rhs[b], precond_diag=diag,
                                tol=tols[b], maxiter=caps[b], dtype=dtype)
                assert np.array_equal(block.x[b], solo.x), (degree, dtype, b)
                assert block.iterations[b] == solo.iterations
            print(f"N={degree} {np.dtype(dtype).name}: compiled CG step, "
                  f"batched rows bit-identical to B=1 solves "
                  f"(iterations {block.iterations.tolist()})")
    compiled.compile_source = build
    print(f"compiler runs this process: {len(compiles)} "
          f"(cache: {compiled.cache_dir()})")


if __name__ == "__main__":
    main()
