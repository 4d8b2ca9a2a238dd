"""Tests for the CG step: the compiled C pass and its numpy reference.

One loop runs every CG solve, and each iteration is one operator
application plus one step.  The compiled step is held to the numpy
reference within a tolerance; within either step, a batched row is
bit-identical to its ``B = 1`` solve, and the breakdown, exhaustion and
frozen-row semantics are the same on both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    cg_solve_batched,
)
from repro.sem import compiled
from repro.sem.cg import NumpyStep, cg_solve_batched_mixed, cg_solve_mixed

needs_step = pytest.mark.skipif(
    isinstance(compiled.load_step(), str),
    reason="no compiled CG step on this host",
)

#: Per-row stopping of the bit-identity block: loose, tight, capped,
#: zero-capped and default rows together.
TOLS = np.array([1e-6, 1e-10, 1e-8, 1e-8, 1e-9])
CAPS = np.array([300, 300, 7, 0, 300])


@pytest.fixture(scope="module")
def problem():
    """N=3 on 2x2x2 elements: n = 343, so rows of a block are unaligned."""
    mesh = BoxMesh.build(ReferenceElement.from_degree(3), (2, 2, 2))
    prob = PoissonProblem(mesh, ax_backend="matmul")
    assert prob.n_dofs == 343
    return prob


def rhs_block(prob, rows: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, prob.n_dofs)) * prob.interior


@pytest.fixture(params=["compiled", "numpy"])
def step_path(request, monkeypatch):
    """Run a test on each step; the numpy one by hiding the artifact."""
    if request.param == "numpy":
        monkeypatch.setattr(
            compiled, "load_step", lambda: "compiled step hidden by test"
        )
    elif isinstance(compiled.load_step(), str):
        pytest.skip("no compiled CG step on this host")
    return request.param


def spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, 50.0, n)) @ q.T


class TestStatus:
    def test_status_names_the_path(self, step_path):
        status = compiled.step_status()
        assert status.path == step_path
        if step_path == "compiled":
            assert status.key == compiled.load_step().key
        else:
            assert status.reason == "compiled step hidden by test"

    @needs_step
    def test_one_artifact_per_process(self):
        assert compiled.load_step() is compiled.load_step()
        assert "-ffast-math" not in compiled.COMPILE_FLAGS
        assert "-Ofast" not in compiled.COMPILE_FLAGS


class TestBatchedRowsEqualSoloSolves:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_bit_identical_with_per_row_stopping(
        self, problem, step_path, dtype
    ):
        apply = problem.apply_A if dtype == np.float64 else problem.apply_A32
        b = rhs_block(problem, len(TOLS)).astype(dtype)
        diag = problem.precond_diag().astype(dtype)
        block = cg_solve_batched(apply, b, precond_diag=diag, tol=TOLS,
                                 maxiter=CAPS, dtype=dtype)
        assert block.iterations.tolist()[2:4] == [7, 0]
        for k in range(len(TOLS)):
            solo = cg_solve(apply, b[k], precond_diag=diag, tol=TOLS[k],
                            maxiter=CAPS[k], dtype=dtype)
            assert np.array_equal(block.x[k], solo.x), k
            assert block.iterations[k] == solo.iterations
            assert bool(block.converged[k]) == solo.converged
            its = solo.iterations
            assert np.array_equal(block.residual_history[:its + 1, k],
                                  solo.residual_history)

    def test_row_bits_do_not_depend_on_position(self, problem, step_path):
        b = rhs_block(problem, 4, seed=1)
        b[3] = b[0]
        diag = problem.precond_diag()
        block = cg_solve_batched(problem.apply_A, b, precond_diag=diag,
                                 tol=1e-9)
        assert np.array_equal(block.x[0], block.x[3])
        pair = cg_solve_batched(problem.apply_A, b[2:], precond_diag=diag,
                                tol=1e-9)
        assert np.array_equal(block.x[0], pair.x[1])

    def test_mixed_rows_bit_identical(self, problem, step_path):
        b = rhs_block(problem, 3, seed=2)
        tols = np.array([1e-6, 1e-10, 1e-8])
        diag = problem.precond_diag()
        block = cg_solve_batched_mixed(
            problem.apply_A, problem.apply_A32, b, precond_diag=diag,
            tol=tols,
        )
        for k in range(3):
            solo = cg_solve_mixed(problem.apply_A, problem.apply_A32, b[k],
                                  precond_diag=diag, tol=tols[k])
            assert np.array_equal(block.x[k], solo.x)
            assert block.sweeps[k] == solo.sweeps
            assert block.iterations[k] == solo.iterations


@needs_step
class TestCompiledAgainstNumpy:
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-13),
                                            (np.float32, 1e-5)])
    @pytest.mark.parametrize("diag_rows", [0, 1, 3])
    def test_one_step_matches_the_reference(self, dtype, rtol, diag_rows):
        """Both steps from one state: every vector and scalar agrees."""
        nb, n = 3, 343
        rng = np.random.default_rng(5)
        a = spd(n)
        p0 = rng.standard_normal((nb, n)).astype(dtype)
        r0 = rng.standard_normal((nb, n)).astype(dtype)
        inv_m = None
        if diag_rows:
            shape = (n,) if diag_rows == 1 else (nb, n)
            inv_m = rng.uniform(0.5, 2.0, shape).astype(dtype)
        outs = []
        for kind in ("compiled", "numpy"):
            x = np.ones((nb, n), dtype=dtype)
            p, r = p0.copy(), r0.copy()
            z = np.empty_like(r) if inv_m is not None else r
            ap = (p.astype(np.float64) @ a).astype(dtype)
            rz = np.einsum("ij,ij->i", r0, r0 if inv_m is None
                           else r0 * inv_m, dtype=np.float64)
            pap, res = np.empty(nb), np.empty(nb)
            stop = np.zeros(nb)
            active = np.array([True, False, True])
            iters = np.zeros(nb, dtype=np.int64)
            caps = np.full(nb, 100, dtype=np.int64)
            args = (x, r, z, p, ap, inv_m, rz, pap, res, stop, active,
                    iters, caps)
            if kind == "compiled":
                fn = compiled.load_step().functions[
                    "f64" if dtype == np.float64 else "f32"]
                step = compiled.CompiledStep(fn, *args)
            else:
                step = NumpyStep(*args, tmp=np.empty_like(x),
                                 alpha=np.empty(nb), beta=np.empty(nb))
            assert step(0) == 2
            outs.append((x, r, z, p, rz, res))
        for got, want in zip(*outs):
            scale = np.max(np.abs(want[[0, 2]]))
            assert np.max(np.abs(got[[0, 2]] - want[[0, 2]])) <= rtol * scale
        # The frozen row was not touched by the compiled step.
        x, r, _z, p, _rz, _res = outs[0]
        assert np.array_equal(x[1], np.ones(n, dtype=dtype))
        assert np.array_equal(r[1], r0[1])
        assert np.array_equal(p[1], p0[1])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_whole_solves_agree(self, problem, dtype, monkeypatch):
        apply = problem.apply_A if dtype == np.float64 else problem.apply_A32
        b = rhs_block(problem, 2, seed=3).astype(dtype)
        diag = problem.precond_diag().astype(dtype)
        fast = cg_solve_batched(apply, b, precond_diag=diag, tol=1e-6,
                                dtype=dtype)
        monkeypatch.setattr(compiled, "load_step", lambda: "hidden")
        ref = cg_solve_batched(apply, b, precond_diag=diag, tol=1e-6,
                               dtype=dtype)
        assert np.all(np.abs(fast.iterations - ref.iterations) <= 1)
        err = np.linalg.norm(fast.x - ref.x) / np.linalg.norm(ref.x)
        assert err <= (1e-9 if dtype == np.float64 else 1e-4)


class TestSemanticsOnBothSteps:
    def test_breakdown_raises(self, step_path):
        a = -spd(12)
        with pytest.raises(ValueError, match="breakdown"):
            cg_solve(lambda v: a @ v, np.ones(12))
        with pytest.raises(ValueError, match="breakdown"):
            cg_solve_batched(lambda v: v @ a.T, np.ones((2, 12)))

    def test_exhausted_row_freezes_and_batchmate_finishes(self, step_path):
        a = spd(12)
        mats = [np.zeros((12, 12)), a]
        b = np.stack([np.ones(12), np.ones(12)])

        def apply_block(v):
            return np.stack([mats[i] @ v[i] for i in range(2)])

        res = cg_solve_batched(apply_block, b, tol=1e-12, maxiter=100)
        assert res.all_converged
        assert res.iterations[0] == 0
        assert np.array_equal(res.x[0], np.zeros(12))
        assert np.allclose(a @ res.x[1], b[1], atol=1e-9)
        solo = cg_solve(lambda v: np.zeros_like(v), np.ones(12), tol=1e-12)
        assert solo.converged and solo.iterations == 0

    def test_frozen_rows_never_move(self, problem, step_path):
        b = rhs_block(problem, 3, seed=4)
        x0 = rhs_block(problem, 3, seed=5)
        res = cg_solve_batched(problem.apply_A, b, x0=x0,
                               precond_diag=problem.precond_diag(),
                               tol=np.array([1e-8, 1e-8, 1e3]),
                               maxiter=np.array([50, 0, 50]))
        assert res.iterations[1] == 0 and res.iterations[2] == 0
        assert np.array_equal(res.x[1], x0[1])
        assert np.array_equal(res.x[2], x0[2])
        assert res.residual_history.shape[0] == res.iterations[0] + 1
        assert np.all(res.residual_history[:, 1] == res.residual_history[0, 1])


class TestSingleAndBatchedAgree:
    """Regressions: the single-system and batched entry points used to
    run separate loops that disagreed on edge inputs."""

    def test_non_finite_rhs(self, problem, step_path):
        b = rhs_block(problem, 1, seed=6)[0]
        b[np.flatnonzero(problem.interior)[5]] = np.nan
        diag = problem.precond_diag()
        solo = cg_solve(problem.apply_A, b, precond_diag=diag, tol=1e-8,
                        maxiter=300)
        block = cg_solve_batched(problem.apply_A, b[None], precond_diag=diag,
                                 tol=1e-8, maxiter=300)
        assert solo.iterations == block.iterations[0] == 0
        assert not solo.converged and not block.converged[0]

    def test_negative_maxiter_raises_everywhere(self, problem):
        b = rhs_block(problem, 2, seed=7)
        with pytest.raises(ValueError, match="maxiter entries must be >= 0"):
            cg_solve(problem.apply_A, b[0], maxiter=-3)
        with pytest.raises(ValueError, match="maxiter entries must be >= 0"):
            cg_solve_batched(problem.apply_A, b, maxiter=-3)
        with pytest.raises(ValueError, match="maxiter entries must be >= 0"):
            cg_solve_mixed(problem.apply_A, problem.apply_A32, b[0],
                           maxiter=-3)


@needs_step
def test_warm_solve_reuses_its_bound_step(problem):
    """A workspace keeps its bound step: a second solve packs nothing."""
    b = rhs_block(problem, 1, seed=8)[0]
    problem.solve(b, tol=1e-8)
    steps = dict(problem.workspace.cg_steps)
    assert steps
    problem.solve(b, tol=1e-6)
    assert problem.workspace.cg_steps.keys() == steps.keys()
    for key, step in steps.items():
        assert problem.workspace.cg_steps[key] is step
