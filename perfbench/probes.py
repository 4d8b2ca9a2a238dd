"""Measurement probes shared by the benchmark runner and its server.

Everything here observes the library from outside: timing wrappers
around public callables, readers of ``/proc``, and the host stamp.
Nothing in ``src/`` is edited; wrappers are installed on instances (and
on two module attributes of :mod:`repro.sem.poisson`) and removed again
by :func:`traced_problem`.

Importing this module pins every BLAS/OpenMP pool to one thread, so it
must be imported before numpy in each process.
"""

from __future__ import annotations

import contextlib
import functools
import os
import platform
import statistics
import time
from collections import defaultdict

#: One BLAS/OpenMP thread per process, the same pin as
#: ``benchmarks/run_baseline.py``; child processes inherit it.
SINGLE_THREAD_ENV: dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(SINGLE_THREAD_ENV)

import numpy as np  # noqa: E402  (after the BLAS pin)


# ----------------------------------------------------------------------
# Span totals
# ----------------------------------------------------------------------
class Tracer:
    """Per-layer busy time and call counts, accumulated in memory.

    The wrapped layers nest strictly (solve > CG > apply > Ax,
    gather-scatter) and run on one thread, so totals per name are
    enough to derive every self time by subtraction.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.dofs: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        #: ``Ax`` FLOPs per DOF, ``C(N)`` of :mod:`repro.core.cost`.
        self.flops_per_dof = 0

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed under ``name``; ``count(args)`` returns
        ``(dofs, bytes)`` of work for the call when given."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
                if count is not None:
                    dofs, nbytes = count(args)
                    self.dofs[name] += dofs
                    self.bytes[name] += nbytes

        return timed


class _TracedGatherScatter:
    """Proxy over a :class:`~repro.sem.gather_scatter.GatherScatter`
    that times ``gather``/``scatter`` (and those of its dtype twins)."""

    def __init__(self, gs, tracer: Tracer) -> None:
        self._gs = gs
        self._tracer = tracer
        self._twins: dict[str, _TracedGatherScatter] = {}
        n_local = int(np.prod(gs.local_shape))
        # Bytes computed per system: the local and global vectors read
        # or written once each, plus one int64 permutation index per
        # local entry.
        per_system = (n_local + gs.n_global, n_local * 8)

        def gather_count(args):
            batch = args[0].size // n_local
            return 0, batch * (per_system[0] * args[0].itemsize + per_system[1])

        def scatter_count(args):
            batch = args[0].size // gs.n_global
            return 0, batch * (per_system[0] * args[0].itemsize + per_system[1])

        self.gather = tracer.wrap("gather_scatter", gs.gather, gather_count)
        self.scatter = tracer.wrap("gather_scatter", gs.scatter, scatter_count)

    def as_dtype(self, dtype):
        twin = self._gs.as_dtype(dtype)
        if twin is self._gs:
            return self
        key = np.dtype(dtype).str
        if key not in self._twins:
            self._twins[key] = _TracedGatherScatter(twin, self._tracer)
        return self._twins[key]

    def __getattr__(self, name):
        return getattr(self._gs, name)


@contextlib.contextmanager
def traced_problem(problem, tracer: Tracer):
    """Time every layer of ``problem.solve`` while the block runs.

    Installs wrappers on the problem's ``ax_backend``, ``gs``,
    ``apply_A``/``apply_A32`` and on the CG entry points
    :mod:`repro.sem.poisson` calls, then restores all of them.
    """
    from repro.core.cost import KernelCost, MemoryTraffic
    from repro.sem import poisson

    degree = problem.ref.degree
    doubles_per_dof = MemoryTraffic(degree).doubles_per_dof

    def ax_count(args):
        u = args[1]
        return u.size, u.size * doubles_per_dof * u.itemsize

    saved = (problem.ax_backend, problem.gs, poisson.cg_solve,
             poisson.cg_solve_mixed)
    problem.ax_backend = tracer.wrap("ax", problem.ax_backend, ax_count)
    problem.gs = _TracedGatherScatter(problem.gs, tracer)
    problem.apply_A = tracer.wrap("apply", problem.apply_A)
    problem.apply_A32 = tracer.wrap("apply", problem.apply_A32)
    poisson.cg_solve = tracer.wrap("cg", poisson.cg_solve)
    poisson.cg_solve_mixed = tracer.wrap("cg", poisson.cg_solve_mixed)
    tracer.flops_per_dof = KernelCost(degree).total
    try:
        yield tracer
    finally:
        (problem.ax_backend, problem.gs, poisson.cg_solve,
         poisson.cg_solve_mixed) = saved
        del problem.apply_A, problem.apply_A32


def layer_metrics(tracer: Tracer, solve_seconds: float) -> dict[str, float]:
    """The compute-layer rows of one traced set of library solves.

    ``solve_seconds`` is the wall time of the traced ``solve`` calls,
    measured by the caller around them; ``unattributed_s`` is what the
    layers below do not account for.
    """
    ax_s = tracer.seconds["ax"]
    gs_s = tracer.seconds["gather_scatter"]
    apply_s = tracer.seconds["apply"]
    cg_s = tracer.seconds["cg"]
    flops = tracer.dofs["ax"] * tracer.flops_per_dof
    rows = {
        "kernels.ax_calls": tracer.calls["ax"],
        "kernels.ax_s": ax_s,
        "kernels.ax_gflops": flops / ax_s / 1e9 if ax_s else 0.0,
        "kernels.ax_gbs_computed": (
            tracer.bytes["ax"] / ax_s / 1e9 if ax_s else 0.0
        ),
        "gather_scatter.calls": tracer.calls["gather_scatter"],
        "gather_scatter.s": gs_s,
        "gather_scatter.gbs_computed": (
            tracer.bytes["gather_scatter"] / gs_s / 1e9 if gs_s else 0.0
        ),
        "poisson.apply_calls": tracer.calls["apply"],
        "poisson.apply_s": apply_s,
        "poisson.apply_self_s": apply_s - ax_s - gs_s,
        "cg.self_s": cg_s - apply_s,
        "solve.traced_s": solve_seconds,
    }
    rows["unattributed_s"] = solve_seconds - cg_s
    rows["unattributed_frac"] = (
        rows["unattributed_s"] / solve_seconds if solve_seconds else 0.0
    )
    return rows


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    # Fields after "comm)": state is index 0, utime 11, stime 12.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB (0.0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


# ----------------------------------------------------------------------
# Host stamp and statistics
# ----------------------------------------------------------------------
def host_stamp() -> dict:
    """What a result is only comparable under: core count, CPU model,
    BLAS thread pin, and the Python and numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except FileNotFoundError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas_threads": {k: os.environ.get(k) for k in SINGLE_THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tail_percentile(samples, wanted: float = 99.0) -> tuple[float, float]:
    """``(percentile, value)``: the ``wanted`` percentile, or the highest
    one that still has ten samples beyond it when there are fewer than
    ``10 / (1 - wanted/100)`` samples.  Below 20 samples that percentile
    would fall under the median, so the maximum is used instead."""
    n = len(samples)
    if n == 0:
        return wanted, 0.0
    pct = min(wanted, 100.0 * (1.0 - 10.0 / n)) if n >= 20 else 100.0
    return pct, float(np.percentile(samples, pct))


def lower_decile(samples) -> float:
    """10th percentile of ``samples`` (0.0 when empty): near the fastest
    runs, so it moves with the code and not with contention episodes on
    a shared host."""
    return float(np.percentile(samples, 10)) if len(samples) else 0.0


def median(samples) -> float:
    """Median of ``samples`` (0.0 when empty)."""
    return float(statistics.median(samples)) if samples else 0.0
