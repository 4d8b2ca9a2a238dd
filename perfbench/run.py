#!/usr/bin/env python3
"""End-to-end benchmark of the SEM stack, from the library to the gateway.

    python3 perfbench/run.py --workload solve_n7|serve_small|serve_mixed \
        --seed N --seconds S --trace 0|1 [--out RECORD.json]
    python3 perfbench/run.py --compare OLD.json NEW.json

Run it from the repository root; it imports the library from ``src/``
and exits non-zero, printing no result, where that is missing.  Every
right-hand side comes from ``--seed``.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` spends half of ``--seconds``
untraced and half with timing probes wrapped around each layer's public
callables, and prints the per-layer rows plus ``trace.overhead.*``
(traced / untraced for each end-to-end metric).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out`` also saves the run with its host
stamp; ``--compare`` prints the metric ratios of two saved runs and
refuses runs from different hosts.  ``BENCHMARK.json`` gates the two
serving workloads; ``solve_n7`` is run by hand, and also prints
``solve_fp64_s`` and ``solve_mixed_s``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import probes  # noqa: E402  (pins BLAS before numpy loads)
import checks  # noqa: E402
import wsclient  # noqa: E402

import numpy as np  # noqa: E402

#: Whole-run watchdog: the run stops (through every close path) and
#: exits non-zero if it is still going after this many seconds.
WATCHDOG_S = 170
#: Setups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Distinct right-hand sides a serving workload cycles through.
RHS_POOL = 16
#: Every ``SAMPLE_STRIDE``-th request of each phase is checked bit for
#: bit, counting from the phase's first request.
SAMPLE_STRIDE = 37
#: Requests of a serving workload's own traffic that its traced run
#: solves sequentially in this process, for the compute-layer rows.
LIBRARY_PASS = 3 * RHS_POOL
#: Seconds to wait for an outstanding reply before counting it missing.
REPLY_TIMEOUT = 30.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
}
#: End-to-end metrics of ``solve_n7`` alone, which ``BENCHMARK.json``
#: does not gate (see ``README.md``).
SOLVE_METRICS = {
    "solve_fp64_s": "s",
    "solve_mixed_s": "s",
}

PER_LAYER = {
    "kernels.ax_calls": "count",
    "kernels.ax_s": "s",
    "kernels.ax_gflops": "GFLOP/s",
    "kernels.ax_gbs_computed": "GB/s",
    "gather_scatter.calls": "count",
    "gather_scatter.s": "s",
    "gather_scatter.gbs_computed": "GB/s",
    "poisson.apply_calls": "count",
    "poisson.apply_s": "s",
    "poisson.apply_self_s": "s",
    "cg.iterations": "count",
    "cg.mixed_inner_iterations": "count",
    "cg.mixed_sweeps": "count",
    "cg.self_s": "s",
    "solve.traced_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
    "gateway.admit_us_p50": "us",
    "gateway.latency_ms_p50": "ms",
    "gateway.latency_ms_p99": "ms",
    "gateway.shed": "count",
    "client.latency_p99_ms": "ms",
    "client.wire_ms_p50": "ms",
    "client.late_p99_ms": "ms",
    "client.behind": "count",
    "client.error_rate": "ratio",
    "asyncio_front.bridge_ms_p50": "ms",
    "procshard.submit_us_p50": "us",
    "procshard.ticket_ms_p50": "ms",
    "procshard.copy_bytes": "bytes",
    "procshard.retries": "count",
    "procshard.expired": "count",
    "service.batches": "count",
    "service.mean_batch": "count",
    "service.max_queue_depth": "count",
    "service.busy_frac": "ratio",
    "service.wait_ms": "ms",
    "proc.parent_cpu_s": "s",
    "proc.worker_cpu_s": "s",
    "proc.parent_cpu_frac": "ratio",
    "proc.exit_tracebacks": "count",
}


def metric_units(workload: str, trace: bool) -> dict[str, str]:
    """The rows a run prints: the end-to-end metrics untraced, the
    per-layer rows and ``trace.overhead.*`` traced."""
    e2e = {**END_TO_END, **(SOLVE_METRICS if workload == "solve_n7" else {})}
    if not trace:
        return e2e
    return {**PER_LAYER, **{f"trace.overhead.{k}": "ratio" for k in e2e}}


@dataclass(frozen=True)
class ServeWorkload:
    """One traffic mix through the gateway."""

    degree: int
    shape: int
    policy: str
    tenants: tuple[str, ...]
    tols: tuple[float, ...]
    precisions: tuple[str, ...]
    rate: float
    concurrency: int
    warmup_s: float

    def request(self, i: int) -> tuple[int, float, str, int]:
        """``(rhs index, tol, precision, tenant index)`` of request ``i``."""
        return (
            i % RHS_POOL,
            self.tols[i % len(self.tols)],
            self.precisions[(i // 2) % len(self.precisions)],
            i % len(self.tenants),
        )


SERVE_WORKLOADS = {
    "serve_small": ServeWorkload(
        degree=3, shape=2, policy="least-loaded", tenants=("t0",),
        tols=(1e-8,), precisions=("fp64",), rate=100.0, concurrency=32,
        warmup_s=1.5,
    ),
    "serve_mixed": ServeWorkload(
        degree=7, shape=2, policy="cost", tenants=("t0", "t1"),
        tols=(1e-6, 1e-8, 1e-10), precisions=("fp64", "mixed"),
        rate=15.0, concurrency=8, warmup_s=2.0,
    ),
}
WORKLOADS = ("solve_n7", *SERVE_WORKLOADS)


class Result:
    """What one measured pass of a workload produced."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.checks: list[checks.Check] = []
        self.attempted = 0
        self.failed = 0


# ----------------------------------------------------------------------
# The library
# ----------------------------------------------------------------------
def import_library():
    """Import ``repro`` from ``./src``, refusing any other copy."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: no src/repro in the current directory; run from "
            "the repository root"
        )
    sys.path.insert(0, str(src))
    import repro

    return repro


def build_problem(repro, degree: int, shape: int):
    mesh = repro.BoxMesh.build(
        repro.ReferenceElement.from_degree(degree), shape=(shape,) * 3
    )
    return repro.PoissonProblem(mesh, ax_backend="matmul")


def make_rhs(problem, rng) -> np.ndarray:
    """Interior-masked standard normal right-hand side."""
    return rng.standard_normal(problem.n_dofs) * problem.interior


def counts(res) -> SimpleNamespace:
    """The iteration counts of a solve result, without its vectors."""
    return SimpleNamespace(
        iterations=res.iterations, sweeps=getattr(res, "sweeps", 0)
    )


def compute_layers(tracer, solve_s, fp64_results, mixed_results) -> dict:
    """The compute-layer rows, plus the median iteration counts."""
    rows = probes.layer_metrics(tracer, solve_s)
    rows["cg.iterations"] = probes.median([r.iterations for r in fp64_results])
    rows["cg.mixed_inner_iterations"] = probes.median(
        [r.iterations for r in mixed_results]
    )
    rows["cg.mixed_sweeps"] = probes.median([r.sweeps for r in mixed_results])
    return rows


# ----------------------------------------------------------------------
# solve_n7: the paper's reference degree, direct library solves
# ----------------------------------------------------------------------
SOLVE_DEGREE, SOLVE_SHAPE, SOLVE_TOL = 7, 8, 1e-8


def run_solve_n7(repro, seed: int, seconds: float, traced: bool,
                 setups: int) -> Result:
    result = Result()
    setup_times = []
    for _ in range(setups):
        problem = None  # one problem alive at a time: peak RSS is one's
        t0 = time.perf_counter()
        problem = build_problem(repro, SOLVE_DEGREE, SOLVE_SHAPE)
        b = make_rhs(problem, np.random.default_rng(seed))
        for precision in ("fp64", "mixed"):  # workspaces, fp32 twins
            problem.solve(b, tol=SOLVE_TOL, maxiter=2, precision=precision)
        setup_times.append(time.perf_counter() - t0)
    # A request solves one fresh rhs in fp64, then in mixed precision:
    # how many refinement sweeps a rhs needs varies, so every request
    # draws a new one rather than repeating a single lucky or unlucky b.
    rng = np.random.default_rng(seed)
    tracer = probes.Tracer()
    times: dict[str, list[float]] = {"fp64": [], "mixed": []}
    solved: dict[str, list] = {"fp64": [], "mixed": []}
    residuals: dict[str, list[checks.Check]] = {"fp64": [], "mixed": []}
    requests: list[float] = []
    start = time.perf_counter()
    while not requests or time.perf_counter() - start < seconds:
        b = make_rhs(problem, rng)
        pair = []
        with probes.traced_problem(problem, tracer) if traced else nullcontext():
            for precision in ("fp64", "mixed"):
                t0 = time.perf_counter()
                res = problem.solve(b, tol=SOLVE_TOL, precision=precision)
                times[precision].append(time.perf_counter() - t0)
                pair.append((precision, res))
        requests.append(times["fp64"][-1] + times["mixed"][-1])
        # Checked outside the traced region, so the check's operator
        # application adds nothing to the layer times.
        for precision, res in pair:
            solved[precision].append(counts(res))
            result.attempted += 1
            result.failed += int(not res.converged)
            residuals[precision].append(checks.true_residual(
                "", problem.apply_A, b, res.x, SOLVE_TOL
            ))
    elapsed = sum(requests)
    m = result.metrics
    m["setup_s"] = probes.median(setup_times)
    m["peak_rss_mb"] = probes.peak_rss_mb(os.getpid())
    m["solve_fp64_s"] = probes.lower_decile(times["fp64"])
    m["solve_mixed_s"] = probes.lower_decile(times["mixed"])
    m["latency_p50_ms"] = probes.median(requests) * 1e3
    m["throughput_rps"] = len(requests) / elapsed
    for precision, found in residuals.items():
        failing = [detail for _, ok, detail in found if not ok]
        result.checks.append((
            f"{precision} true residual <= tol*||b||",
            not failing,
            f"{len(found)} solves; {failing[:3] or found[-1][2]}",
        ))
    if traced:
        result.layers.update(compute_layers(
            tracer, elapsed, solved["fp64"], solved["mixed"]
        ))
    return result


# ----------------------------------------------------------------------
# The served stack
# ----------------------------------------------------------------------
class ServerProcess:
    """``server.py`` as a child process, always stopped through its own
    close path: ``close`` on stdin, then SIGTERM (which the server maps
    to the same path), and SIGKILL only if both time out."""

    def __init__(self, workload: ServeWorkload, traced: bool) -> None:
        argv = [
            sys.executable, str(HERE / "server.py"),
            "--degree", str(workload.degree), "--shape", str(workload.shape),
            "--policy", workload.policy,
            "--tenants", ",".join(workload.tenants),
        ]
        if traced:
            argv.append("--trace")
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env,
        )
        self.returncode: int | None = None
        self.events: queue.Queue = queue.Queue()
        self.stderr: list[str] = []
        self._threads = [
            threading.Thread(target=self._pump_stdout, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        try:
            ready = self.wait_event("ready", 120.0)
        except BaseException:
            self.stop()
            raise
        self.port = ready["port"]
        self.tokens = ready["tokens"]
        self.worker_pids = ready["worker_pids"]

    def _pump_stdout(self) -> None:
        for line in self.proc.stdout:
            try:
                self.events.put(json.loads(line))
            except ValueError:
                self.stderr.append(line)
        self.events.put(None)

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def wait_event(self, name: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                event = self.events.get(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )
            except queue.Empty:
                raise TimeoutError(f"server sent no {name!r} event") from None
            if event is None:
                raise RuntimeError(
                    f"server exited before {name!r}:\n"
                    + "".join(self.stderr[-30:])
                )
            if event.get("event") == name:
                return event

    def report(self) -> dict:
        self.proc.stdin.write("report\n")
        self.proc.stdin.flush()
        return self.wait_event("report", 60.0)

    def pids(self) -> list[int]:
        return [self.proc.pid, *self.worker_pids]

    def stop(self) -> int:
        """Close the server through its own close path; idempotent."""
        if self.returncode is not None:
            return self.returncode
        try:
            self.proc.stdin.write("close\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        for sig, wait in ((None, 60.0), (signal.SIGTERM, 30.0),
                          (signal.SIGKILL, 10.0)):
            if sig is not None:
                self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=wait)
                break
            except subprocess.TimeoutExpired:
                continue
        for thread in self._threads:
            thread.join(timeout=10.0)
        self.returncode = self.proc.returncode
        return self.returncode

    def exit_tracebacks(self) -> int:
        """``resource_tracker`` tracebacks the server (and its tracker
        process, which shares its stderr) printed."""
        text = "".join(self.stderr)
        blocks = text.split("Traceback (most recent call last):")[1:]
        return sum("resource_tracker" in block for block in blocks)


class Phase:
    """Replies of one timed phase, and the sampled solutions of it."""

    def __init__(self) -> None:
        self.due_latency: list[float] = []
        self.sent_latency: list[float] = []
        self.reply_times: list[float] = []
        self.late: list[float] = []
        #: ``request id -> (x, iterations)`` of the sampled replies.
        self.samples: dict[int, tuple] = {}
        self.sent = 0
        self.failed = 0


class LoadGenerator:
    """Pipelined requests over the sessions, with pre-encoded bodies."""

    def __init__(self, workload: ServeWorkload, bodies, sessions) -> None:
        self.workload = workload
        self.bodies = bodies
        self.sessions = sessions
        self.rng = np.random.default_rng(0)
        self.next_id = 0
        self.pending: dict[int, tuple] = {}
        self.readers = [
            asyncio.ensure_future(self._read(s)) for s in sessions
        ]

    async def _read(self, session) -> None:
        while True:
            try:
                payload = await session.recv()
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # the server went away; its requests count as missing
            now = time.perf_counter()
            request_id = wsclient.success_id(payload)
            reply = None
            if request_id is None:  # an error or a non-converged solve
                reply = json.loads(payload)
                request_id = reply.get("id")
            entry = self.pending.pop(request_id, None)
            if entry is None:
                continue
            due, sent, phase, future, sampled = entry
            if reply is None or wsclient.reply_ok(reply):
                phase.due_latency.append(now - due)
                phase.sent_latency.append(now - sent)
                phase.reply_times.append(now)
                if sampled:
                    reply = reply or json.loads(payload)
                    phase.samples[request_id] = (
                        reply["x"], reply["iterations"]
                    )
            else:
                phase.failed += 1
            future.set_result(None)

    def send(self, phase: Phase, due: float | None = None):
        i = self.next_id
        self.next_id += 1
        k, tol, precision, tenant = self.workload.request(i)
        data = wsclient.frame(
            i, self.bodies[(k, tol, precision)], self.rng.bytes(4)
        )
        now = time.perf_counter()
        future = asyncio.get_running_loop().create_future()
        sampled = phase.sent % SAMPLE_STRIDE == 0
        self.pending[i] = (
            now if due is None else due, now, phase, future, sampled
        )
        self.sessions[tenant].send(data)
        phase.sent += 1
        return future

    async def settle(self, phase: Phase, futures) -> None:
        if not futures:
            return
        _done, missing = await asyncio.wait(futures, timeout=REPLY_TIMEOUT)
        phase.failed += len(missing)

    async def closed_loop(self, concurrency: int, seconds: float) -> Phase:
        phase = Phase()
        end = time.perf_counter() + seconds
        futures = []

        async def client() -> None:
            while time.perf_counter() < end:
                future = self.send(phase)
                futures.append(future)
                await asyncio.wait([future], timeout=REPLY_TIMEOUT)
                if not future.done():
                    return

        await asyncio.gather(*(client() for _ in range(concurrency)))
        await self.settle(phase, [f for f in futures if not f.done()])
        phase.reply_times = [t for t in phase.reply_times if t <= end]
        return phase

    async def open_loop(self, rate: float, seconds: float) -> Phase:
        phase = Phase()
        start = time.perf_counter() + 0.01
        futures = []
        for n in range(int(rate * seconds)):
            due = start + n / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            futures.append(self.send(phase, due))
            phase.late.append(time.perf_counter() - due)
        await self.settle(phase, futures)
        return phase

    async def close(self) -> None:
        for reader in self.readers:
            reader.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for session in self.sessions:
            await session.close()


async def start_stack(workload, traced, bodies):
    """Start a server, open the sessions, and get the first reply:
    returns ``(server, generator, setup seconds, warm-up phase)``."""
    t0 = time.perf_counter()
    server = await asyncio.to_thread(ServerProcess, workload, traced)
    try:
        sessions = [
            await wsclient.Session.connect(server.port, server.tokens[t])
            for t in workload.tenants
        ]
        gen = LoadGenerator(workload, bodies, sessions)
        warm = Phase()
        await gen.settle(warm, [gen.send(warm)])
        if warm.failed:
            raise RuntimeError("the first warm-up request failed")
    except BaseException:
        await asyncio.to_thread(server.stop)
        raise
    return server, gen, time.perf_counter() - t0, warm


async def serve_workload(workload: ServeWorkload, seconds, traced, setups,
                         bodies, result: Result):
    """Setups, warm-up, the open then the closed loop; returns the
    phases and server reports.  Stops every server it started."""
    servers = []
    try:
        setup_times = []
        for n in range(setups):
            server, gen, setup_s, first = await start_stack(
                workload, traced, bodies
            )
            servers.append(server)
            setup_times.append(setup_s)
            result.attempted += first.sent
            if n + 1 < setups:
                await gen.close()
                await asyncio.to_thread(server.stop)
        warm = await gen.closed_loop(workload.concurrency, workload.warmup_s)
        reports = [await asyncio.to_thread(server.report)]
        cpu = [[probes.cpu_seconds(p) for p in server.pids()]]
        open_phase = await gen.open_loop(workload.rate, 0.6 * seconds)
        reports.append(await asyncio.to_thread(server.report))
        cpu.append([probes.cpu_seconds(p) for p in server.pids()])
        t_closed = time.perf_counter()
        closed = await gen.closed_loop(workload.concurrency, 0.4 * seconds)
        closed_s = time.perf_counter() - t_closed
        reports.append(await asyncio.to_thread(server.report))
        cpu.append([probes.cpu_seconds(p) for p in server.pids()])
        rss = sum(probes.peak_rss_mb(p) for p in server.pids())
        await gen.close()
        for phase in (warm, open_phase, closed):
            result.attempted += phase.sent
            result.failed += phase.failed
    finally:
        for server in servers:
            await asyncio.to_thread(server.stop)
    result.checks.append((
        "server exited cleanly",
        all(s.returncode == 0 for s in servers),
        f"exit codes {[s.returncode for s in servers]}",
    ))
    return {
        "setup_times": setup_times, "reports": reports, "cpu": cpu,
        "phases": {"first": first, "warm-up": warm, "open": open_phase,
                   "closed": closed},
        "closed_s": closed_s,
        "rss": rss, "tracebacks": sum(s.exit_tracebacks() for s in servers),
    }


def library_pass(problem, pool, workload: ServeWorkload) -> dict:
    """Compute-layer rows of a serving workload: the first
    ``LIBRARY_PASS`` requests of its own traffic solved sequentially
    and traced in this process.  The workers are other processes, and
    wrapping their layers would mean editing ``src/``."""
    tracer = probes.Tracer()
    solved: dict[str, list] = {"fp64": [], "mixed": []}
    solve_s = 0.0
    with probes.traced_problem(problem, tracer):
        for i in range(LIBRARY_PASS):
            k, tol, precision, _tenant = workload.request(i)
            t0 = time.perf_counter()
            res = problem.solve(pool[k], tol=tol, precision=precision)
            solve_s += time.perf_counter() - t0
            solved[precision].append(counts(res))
    return compute_layers(tracer, solve_s, solved["fp64"], solved["mixed"])


def bit_identity(workload: ServeWorkload, problem, pool, phases) -> checks.Check:
    """Check the sampled replies of every phase against sequential warm
    solves, one per distinct request."""
    for precision in workload.precisions:  # the references are warm
        problem.solve(pool[0], tol=workload.tols[0], precision=precision)
    references: dict[tuple, object] = {}

    def reference(i: int):
        k, tol, precision, _tenant = workload.request(i)
        if (k, tol, precision) not in references:
            references[k, tol, precision] = problem.solve(
                pool[k], tol=tol, precision=precision
            )
        return references[k, tol, precision]

    return checks.served_identical(
        {name: phase.samples for name, phase in phases.items()}, reference
    )


def run_serve(repro, workload: ServeWorkload, seed: int, seconds: float,
              traced: bool, setups: int) -> Result:
    result = Result()
    rng = np.random.default_rng(seed)
    problem = build_problem(repro, workload.degree, workload.shape)
    pool = [make_rhs(problem, rng) for _ in range(RHS_POOL)]
    bodies = {
        (k, tol, precision): wsclient.encode_body({
            "b": pool[k].tolist(), "tol": tol, "precision": precision,
            "maxiter": 1000,
        })
        for k in range(RHS_POOL)
        for tol in workload.tols
        for precision in workload.precisions
    }
    shm_before = checks.shm_entries()
    children_before = checks.descendants(os.getpid())
    run = asyncio.run(
        serve_workload(workload, seconds, traced, setups, bodies, result)
    )
    result.checks.append(checks.unchanged(
        "/dev/shm unchanged", shm_before, checks.shm_entries()
    ))
    result.checks.append(checks.unchanged(
        "child processes unchanged", children_before,
        checks.descendants(os.getpid()),
    ))
    final = run["reports"][-1]
    result.checks.append(checks.zero_copy(final["fleet"]["copy_bytes"]))
    result.checks.append(checks.conserved(final["gateway"]))
    result.checks.append(bit_identity(workload, problem, pool, run["phases"]))

    open_phase, closed = run["phases"]["open"], run["phases"]["closed"]
    m = result.metrics
    m["setup_s"] = probes.median(run["setup_times"])
    m["peak_rss_mb"] = run["rss"]
    m["latency_p50_ms"] = probes.median(open_phase.due_latency) * 1e3
    pct, p99 = probes.tail_percentile(open_phase.due_latency)
    m["throughput_rps"] = len(closed.reply_times) / (0.4 * seconds)
    print(f"open loop: {len(open_phase.due_latency)} replies, tail "
          f"percentile p{pct:.1f}; closed loop: {len(closed.reply_times)} "
          f"replies in {0.4 * seconds:.1f} s")
    late_pct, late = probes.tail_percentile(open_phase.late)
    if late > 1.0 / workload.rate:
        print(f"FLAG: the load generator fell behind its schedule "
              f"(p{late_pct:.1f} lateness {late * 1e3:.2f} ms)",
              file=sys.stderr)
    if traced:
        result.layers.update(serve_layers(run, workload, result))
        result.layers["client.latency_p99_ms"] = p99 * 1e3
        result.layers.update(library_pass(problem, pool, workload))
    return result


def serve_layers(run, workload: ServeWorkload, result: Result) -> dict:
    """Per-layer rows from the server's reports (traced run)."""
    r0, r1, r2 = run["reports"]
    open_phase = run["phases"]["open"]

    def window(a, b, key):
        return b["probes"][key][len(a["probes"][key]):]

    gw_open = r1["latencies_s"][len(r0["latencies_s"]):]
    gw_p50 = probes.median(gw_open) * 1e3
    ticket_p50 = probes.median(window(r0, r1, "ticket_s")) * 1e3
    f0, f1, f2 = r0["fleet"], r1["fleet"], r2["fleet"]
    open_batches = f1["batches"] - f0["batches"]
    batch_solve_ms = (
        (f1["busy_seconds"] - f0["busy_seconds"]) / open_batches * 1e3
        if open_batches else 0.0
    )
    closed_batches = f2["batches"] - f1["batches"]
    closed_done = (f2["completed"] + f2["failed"]) - (
        f1["completed"] + f1["failed"]
    )
    cpu_a, cpu_b = run["cpu"][1], run["cpu"][2]
    parent_cpu = cpu_b[0] - cpu_a[0]
    worker_cpu = sum(b - a for a, b in zip(cpu_a[1:], cpu_b[1:]))
    late_pct, late = probes.tail_percentile(open_phase.late)
    return {
        "gateway.admit_us_p50": probes.median(window(r0, r1, "admit_s")) * 1e6,
        "gateway.latency_ms_p50": gw_p50,
        "gateway.latency_ms_p99": probes.tail_percentile(gw_open)[1] * 1e3,
        "gateway.shed": r2["gateway"]["shed"],
        "client.wire_ms_p50": (
            probes.median(open_phase.sent_latency) * 1e3 - gw_p50
        ),
        "client.late_p99_ms": late * 1e3,
        "client.behind": int(late > 1.0 / workload.rate),
        "client.error_rate": result.failed / max(result.attempted, 1),
        "asyncio_front.bridge_ms_p50": (
            probes.median(window(r0, r1, "bridge_s")) * 1e3
        ),
        "procshard.submit_us_p50": (
            probes.median(window(r0, r1, "submit_s")) * 1e6
        ),
        "procshard.ticket_ms_p50": ticket_p50,
        "procshard.copy_bytes": f2["copy_bytes"],
        "procshard.retries": f2["retries"],
        "procshard.expired": f2["expired"],
        "service.batches": closed_batches,
        "service.mean_batch": (
            closed_done / closed_batches if closed_batches else 0.0
        ),
        "service.max_queue_depth": f2["max_queue_depth"],
        "service.busy_frac": (
            (f2["busy_seconds"] - f1["busy_seconds"])
            / (run["closed_s"] * len(cpu_a[1:]))
        ),
        "service.wait_ms": ticket_p50 - batch_solve_ms,
        "proc.parent_cpu_s": parent_cpu,
        "proc.worker_cpu_s": worker_cpu,
        "proc.parent_cpu_frac": (
            parent_cpu / (parent_cpu + worker_cpu)
            if parent_cpu + worker_cpu else 0.0
        ),
        "proc.exit_tracebacks": run["tracebacks"],
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(repro, name, seed, seconds, traced, setups) -> Result:
    if name == "solve_n7":
        return run_solve_n7(repro, seed, seconds, traced, setups)
    return run_serve(repro, SERVE_WORKLOADS[name], seed, seconds, traced,
                     setups)


def measure(repro, name: str, seed: int, seconds: float, trace: bool):
    """``(metrics, checks, attempted, failed)`` of one benchmark run."""
    if not trace:
        res = run_workload(repro, name, seed, seconds, False, SETUPS)
        return res.metrics, res.checks, res.attempted, res.failed
    plain = run_workload(repro, name, seed, seconds / 2, False, 1)
    traced = run_workload(repro, name, seed, seconds / 2, True, 1)
    metrics = {key: 0.0 for key in PER_LAYER}
    metrics.update(traced.layers)
    for key in metric_units(name, False):
        base = plain.metrics[key]
        metrics[f"trace.overhead.{key}"] = (
            traced.metrics[key] / base if base else 0.0
        )
    return (
        metrics, plain.checks + traced.checks,
        plain.attempted + traced.attempted, plain.failed + traced.failed,
    )


def compare(old_path: str, new_path: str) -> int:
    """Print new/old ratios of two saved runs; refuse across hosts."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    differ = checks.host_mismatch(old["host"], new["host"])
    if differ:
        print(f"refusing to compare runs from different hosts: {differ}",
              file=sys.stderr)
        return 2
    for key in ("workload", "seconds", "trace"):
        if old[key] != new[key]:
            print(f"refusing to compare: {key} differs", file=sys.stderr)
            return 2
    for key, new_value in new["metrics"].items():
        old_value = old["metrics"].get(key, {}).get("value")
        ratio = new_value["value"] / old_value if old_value else math.nan
        print(f"{key:34s} {old_value!s:>14} -> {new_value['value']:<14.6g}"
              f" x{ratio:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the run, host-stamped")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    repro = import_library()
    host = probes.host_stamp()
    print("host:", json.dumps(host))

    def expire(_signum, _frame):
        raise TimeoutError(f"benchmark run exceeded {WATCHDOG_S} s")

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    # Timeout, SIGTERM and interrupt all unwind through the same
    # finally blocks, which stop every server through its close path.
    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.alarm(WATCHDOG_S)
    try:
        metrics, run_checks, attempted, failed = measure(
            repro, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        signal.alarm(0)
    units = metric_units(args.workload, bool(args.trace))
    for name, ok, detail in run_checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for key, unit in units.items():
        print(f"{key:34s} {metrics[key]:>14.6g} {unit}")
    if args.trace:
        print(f"{'unattributed_s':34s} {metrics['unattributed_s']:>14.6g} s "
              f"({metrics['unattributed_frac']:.2%} of the traced solves)")
    doc = {
        "correct": checks.all_ok(run_checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items()
        },
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "host": host, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "checks": run_checks, **doc,
        }, indent=1))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
