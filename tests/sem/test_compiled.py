"""Tests for repro.sem.compiled: the compiled fused Poisson operator.

The compiled path is held to the numpy reference within a tolerance;
within the compiled path, batched rows, threads and processes agree
bit for bit.  The fallback to numpy must be exact and visible.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    PoissonProblem,
    ReferenceElement,
    available_ax_kernels,
    ax_local_matmul,
    cg_solve,
    resolve_ax_backend,
    sine_manufactured,
)
from repro.sem import compiled
from repro.sem.compiled import COVERED_NX, OperatorStatus, load_operator

SRC = str(Path(__file__).resolve().parents[2] / "src")

needs_cc = pytest.mark.skipif(
    compiled.find_compiler() is None, reason="no C compiler on this host"
)

#: Relative error bounds against max|w| of the numpy reference.
RTOL = {np.float64: 1e-13, np.float32: 1e-5}


def make_problem(degree: int, shape=(2, 2, 2), backend="matmul"):
    mesh = BoxMesh.build(ReferenceElement.from_degree(degree), shape)
    return PoissonProblem(mesh, ax_backend=backend)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """A fresh artifact cache, and a counter of compiler runs into it."""
    calls = []
    real = compiled.compile_source

    def counting(cc, source, dest):
        calls.append(dest)
        real(cc, source, dest)

    monkeypatch.setattr(compiled, "cache_dir", lambda: tmp_path)
    monkeypatch.setattr(compiled, "compile_source", counting)
    return tmp_path, calls


@needs_cc
class TestAgainstNumpy:
    @pytest.mark.parametrize("nx", COVERED_NX)
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("batch", (1, 3, 8))
    def test_matches_numpy_within_tolerance(self, nx, dtype, batch):
        prob = make_problem(nx - 1)
        assert prob.operator_status.path == "compiled"
        rng = np.random.default_rng(nx * 100 + batch)
        u = rng.standard_normal((batch, prob.n_dofs)).astype(dtype)
        if dtype == np.float64:
            got, want = prob.apply_A(u), prob.apply_A_numpy(u)
        else:
            got, want = prob.apply_A32(u), prob.apply_A32_numpy(u)
        assert got.dtype == want.dtype == dtype
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= RTOL[dtype]
        # Boundary rows are exactly zero on both paths.
        assert not np.any(got[:, ~prob.interior])

    @pytest.mark.parametrize("nx", COVERED_NX)
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    def test_batched_rows_bit_identical_to_single_calls(self, nx, dtype):
        prob = make_problem(nx - 1)
        apply = prob.apply_A if dtype == np.float64 else prob.apply_A32
        rng = np.random.default_rng(nx)
        u = rng.standard_normal((8, prob.n_dofs)).astype(dtype)
        block = apply(u, out=np.empty_like(u))
        for b in range(u.shape[0]):
            single = apply(u[b].copy(), out=np.empty_like(u[b]))
            assert np.array_equal(block[b], single)

    def test_solves_converge_to_the_same_tol(self):
        prob = make_problem(3)
        _, forcing = sine_manufactured(prob.mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        tol = 1e-10
        fast = prob.solve(b, tol=tol)
        ref = cg_solve(
            prob.apply_A_numpy, b, precond_diag=prob.precond_diag(),
            tol=tol,
        )
        for res in (fast, ref):
            assert res.converged
            true = np.linalg.norm(b - prob.apply_A_numpy(res.x))
            assert true <= 10 * tol * np.linalg.norm(b)
        mixed = prob.solve(b, tol=tol, precision="mixed")
        assert mixed.converged
        assert np.linalg.norm(b - prob.apply_A_numpy(mixed.x)) <= (
            tol * np.linalg.norm(b) * 1.0001
        )

    def test_unusual_arguments_take_the_general_path(self):
        prob = make_problem(3)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((3, prob.n_dofs))
        want = prob.apply_A(u, out=np.empty_like(u))
        # No out, a strided out, an fp32 input, and out aliasing u.
        assert np.array_equal(prob.apply_A(u), want)
        strided = np.empty((prob.n_dofs, 3)).T
        assert np.array_equal(prob.apply_A(u, out=strided), want)
        assert np.array_equal(
            prob.apply_A(u.astype(np.float32)),
            prob.apply_A(u.astype(np.float32).astype(np.float64)),
        )
        alias = u.copy()
        assert np.array_equal(prob.apply_A(alias, out=alias), want)
        with pytest.raises(ValueError):
            prob.apply_A(u[:, :-1])
        with pytest.raises(ValueError):
            prob.apply_A(u, out=np.empty((2, prob.n_dofs)))
        frozen = np.empty_like(u)
        frozen.setflags(write=False)
        with pytest.raises(ValueError):
            prob.apply_A(u, out=frozen)

    def test_bind_refuses_arrays_the_c_code_would_misread(self):
        prob = make_problem(3)
        lib = load_operator(4)
        fn = lib.functions["f64"]
        args = dict(
            l2g=prob.gs.l2g_flat, mask=prob._interior_f,
            g_soa=prob.geometry.g_soa,
            deriv=np.ascontiguousarray(prob.ref.deriv),
        )
        compiled.CompiledOperator(fn, **args)  # the problem's own layout
        for name, bad in (
            ("mask", prob._interior_f.astype(np.float32)),
            ("mask", prob._interior_f[:-1]),
            ("g_soa", prob.geometry.g_soa[:, :, ::-1]),
            ("l2g", prob.gs.l2g_flat.astype(np.int32)),
            ("l2g", prob.gs.l2g_flat[:-1]),
            ("deriv", np.asfortranarray(prob.ref.deriv)),
        ):
            with pytest.raises(ValueError):
                compiled.CompiledOperator(fn, **{**args, name: bad})

    def test_concurrent_callers_agree(self):
        """No static scratch: clones on threads compute the same bits."""
        prob = make_problem(7)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, prob.n_dofs))
        want = prob.apply_A(u)
        clones = [prob.clone() for _ in range(4)]
        got = [None] * 4

        def run(i):
            out = np.empty_like(u)
            for _ in range(5):
                clones[i].apply_A(u, out=out)
            got[i] = out

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in got:
            assert np.array_equal(out, want)


class TestFallback:
    def test_missing_compiler_gives_the_exact_numpy_path(self, monkeypatch):
        monkeypatch.setattr(compiled, "find_compiler", lambda: None)
        prob = make_problem(3)
        assert prob.operator_status == OperatorStatus(
            "numpy", reason="no C compiler found"
        )
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3, prob.n_dofs))
        assert np.array_equal(prob.apply_A(u), prob.apply_A_numpy(u))
        u32 = u.astype(np.float32)
        assert np.array_equal(prob.apply_A32(u32), prob.apply_A32_numpy(u32))
        # The numpy path is the historical composition, op for op.
        g = u[0] * prob._interior_f
        w = prob.gs.gather(
            ax_local_matmul(prob.ref, prob.gs.scatter(g), prob.geometry.g)
        )
        w *= prob._interior_f
        assert np.array_equal(prob.apply_A(u[0]), w)
        _, forcing = sine_manufactured(prob.mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        res = prob.solve(b)
        ref = cg_solve(
            prob.apply_A_numpy, b, precond_diag=prob.precond_diag(),
            tol=1e-10, maxiter=1000,
        )
        assert np.array_equal(res.x, ref.x)
        assert res.residual_history == ref.residual_history

    def test_failed_compile_is_visible(self, isolated_cache, monkeypatch):
        def broken(cc, source, dest):
            raise RuntimeError("cc exited 1: synthetic failure")

        monkeypatch.setattr(compiled, "compile_source", broken)
        prob = make_problem(3)
        assert prob.operator_status.path == "numpy"
        assert "synthetic failure" in prob.operator_status.reason

    def test_other_backends_and_shapes_stay_numpy(self):
        assert make_problem(3, backend="einsum").operator_status.path == "numpy"
        uncovered = make_problem(2)  # nx = 3
        assert uncovered.operator_status.path == "numpy"
        assert "nx=3" in uncovered.operator_status.reason

    def test_no_new_selector(self):
        assert resolve_ax_backend("matmul") is ax_local_matmul
        assert available_ax_kernels() == (
            "einsum", "matmul", "listing1", "dense",
        )


@needs_cc
class TestCache:
    def test_second_problem_runs_no_compiler(self, isolated_cache):
        cache, calls = isolated_cache
        first = make_problem(3)
        assert first.operator_status.path == "compiled"
        assert len(calls) == 1
        second = make_problem(3, shape=(3, 2, 2))
        assert second.operator_status.key == first.operator_status.key
        assert len(calls) == 1
        assert len(list(cache.glob("*.so"))) == 1

    def test_compiler_banner_is_read_once_per_host(
        self, isolated_cache, monkeypatch
    ):
        """Later processes read the memoized --version banner instead of
        starting the compiler; the banner still feeds the key."""
        cache, _ = isolated_cache
        cc = compiled.find_compiler()
        banner = compiled._compiler_version(cc)
        assert banner.strip()
        assert len(list(cache.glob("cc-*.version"))) == 1

        def no_compiler_runs(*args, **kwargs):
            raise AssertionError("the compiler was started again")

        monkeypatch.setattr(compiled.subprocess, "run", no_compiler_runs)
        assert compiled._compiler_version(cc) == banner

    def test_key_names_the_artifact(self, isolated_cache):
        cache, _ = isolated_cache
        lib = load_operator(4)
        assert lib.path.parent == cache
        assert lib.key in lib.path.name
        source = compiled.operator_source(4)
        assert compiled.cache_key(source, compiled.find_compiler()) == lib.key
        assert compiled.cache_key(source + " ", compiled.find_compiler()) != (
            lib.key
        )
        for flag in ("-ffast-math", "-Ofast"):
            assert flag not in compiled.COMPILE_FLAGS

    def test_concurrent_compilers_leave_one_artifact(self, isolated_cache):
        cache, calls = isolated_cache
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.sem import compiled\n"
            "compiled.cache_dir = lambda: Path(sys.argv[1])\n"
            "lib = compiled.load_operator(4)\n"
            "print('FAIL ' + lib if isinstance(lib, str) else lib.key)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache)],
                stdout=subprocess.PIPE, text=True, env=child_env(),
            )
            for _ in range(2)
        ]
        keys = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert keys[0] == keys[1] and not keys[0].startswith("FAIL")
        assert [p.name for p in cache.glob("*.so")] == [
            f"sem_poisson_nx4_{keys[0]}.so"
        ]
        assert not list(cache.glob("*.tmp"))
        lib = load_operator(4)
        assert not isinstance(lib, str) and lib.key == keys[0]
        assert calls == []  # loaded from disk, not rebuilt


@needs_cc
def test_rebuilt_problem_in_child_is_bit_identical():
    prob = make_problem(3)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, prob.n_dofs))
    export = prob.export_shared()
    script = (
        "import pickle, sys\n"
        "import numpy as np\n"
        "from repro.sem.spec import rebuild\n"
        "spec, u = pickle.load(sys.stdin.buffer)\n"
        "prob = rebuild(spec)\n"
        "out = (prob.operator_status, prob.apply_A(u),\n"
        "       prob.apply_A32(u.astype(np.float32)))\n"
        "pickle.dump(out, sys.stdout.buffer)\n"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps((export.spec, u)), capture_output=True,
            env=child_env(), timeout=120, check=True,
        )
    finally:
        export.close()
    status, w, w32 = pickle.loads(done.stdout)
    assert status == prob.operator_status
    assert status.path == "compiled"
    assert np.array_equal(w, prob.apply_A(u))
    assert np.array_equal(w32, prob.apply_A32(u.astype(np.float32)))
