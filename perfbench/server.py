"""The serving stack under test, run in its own process by ``run.py``.

    python3 perfbench/server.py --degree 3 --shape 2 --policy least-loaded \
        --tenants t0 [--trace]

Builds ``GatewayServer`` (WebSocket ``/v1/session``) -> ``Gateway`` ->
``ProcessShardedSolveService(workers=2, transport="ring", max_batch=8,
max_wait=0.002)`` on a loopback port and prints one JSON line::

    {"event": "ready", "port": ..., "tokens": {...}, "worker_pids": [...]}

It then serves until it reads ``close`` (or end of file) on stdin, or
receives SIGTERM/SIGINT, and stops through the stack's own close path
(``GatewayServer.aclose`` -> ``Gateway.aclose`` -> the fleet's
``close``), printing ``{"event": "closed"}`` last.  ``report`` on stdin
prints ``{"event": "report", ...}``: the gateway counters and
latencies, the fleet statistics and, with ``--trace``, the per-request
samples of the probes wrapped around the public callables below.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import probes  # noqa: E402,F401  (pins BLAS before numpy loads)

from repro import BoxMesh, PoissonProblem, ReferenceElement  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionPolicy,
    Gateway,
    GatewayServer,
    ProcessShardedSolveService,
    TenantRegistry,
)

#: Per-replica pending load at which the gateway would shed; far above
#: the benchmark's deepest closed loop, so no request is refused.
ADMISSION = AdmissionPolicy(soft_limit=256, hard_limit=512)


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Probes:
    """Per-request timings of the gateway, async bridge and fleet,
    taken by wrapping their public callables on this instance."""

    def __init__(self, gateway: Gateway) -> None:
        self.admit: list[float] = []
        self.submit: list[float] = []
        self.ticket: list[float] = []
        self.bridge: list[float] = []
        self._ticket_s: dict[object, float] = {}
        self._wrap_admit(gateway)
        self._wrap_fleet_submit(gateway.backend)
        self._wrap_async_submit(gateway.async_service)

    def _wrap_admit(self, gateway: Gateway) -> None:
        admit = gateway.admit

        def timed_admit(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return admit(*args, **kwargs)
            finally:
                self.admit.append(time.perf_counter() - t0)

        gateway.admit = timed_admit

    def _wrap_fleet_submit(self, fleet) -> None:
        submit = fleet.submit

        def timed_submit(*args, **kwargs):
            t0 = time.perf_counter()
            ticket = submit(*args, **kwargs)
            self.submit.append(time.perf_counter() - t0)

            def resolved(done) -> None:  # fleet reader thread
                elapsed = time.perf_counter() - t0
                self._ticket_s[done] = elapsed
                self.ticket.append(elapsed)

            ticket.add_done_callback(resolved)
            return ticket

        fleet.submit = timed_submit

    def _wrap_async_submit(self, front) -> None:
        submit = front.submit

        async def timed_submit(*args, **kwargs):
            t0 = time.perf_counter()
            future = await submit(*args, **kwargs)
            ticket = future.solve_ticket

            def resolved(_future) -> None:  # event-loop thread
                ticket_s = self._ticket_s.pop(ticket, None)
                if ticket_s is not None:
                    self.bridge.append(time.perf_counter() - t0 - ticket_s)

            future.add_done_callback(resolved)
            return future

        front.submit = timed_submit

    def samples(self) -> dict:
        return {
            "admit_s": list(self.admit),
            "submit_s": list(self.submit),
            "ticket_s": list(self.ticket),
            "bridge_s": list(self.bridge),
        }


def fleet_report(fleet) -> dict:
    """The fleet's public counters (blocking: asks every worker)."""
    replicas = fleet.replica_stats
    merged = fleet.stats
    return {
        "submitted": merged.submitted,
        "completed": merged.completed,
        "failed": merged.failed,
        "expired": merged.expired,
        "retries": merged.retries,
        "shed": merged.shed,
        "copy_bytes": merged.copy_bytes,
        "batches": merged.batches,
        "busy_seconds": merged.busy_seconds,
        "max_queue_depth": max(
            (s.max_queue_depth for s in replicas), default=0
        ),
    }


async def serve(args) -> int:
    mesh = BoxMesh.build(
        ReferenceElement.from_degree(args.degree), shape=(args.shape,) * 3
    )
    problem = PoissonProblem(mesh, ax_backend="matmul")
    registry = TenantRegistry()
    tokens = {
        name: registry.provision(name).token
        for name in args.tenants.split(",")
    }
    fleet = ProcessShardedSolveService(
        problem, workers=2, transport="ring", policy=args.policy,
        max_batch=8, max_wait=0.002,
    )
    try:
        gateway = Gateway(fleet, registry, admission=ADMISSION)
        probe = Probes(gateway) if args.trace else None
        server = await GatewayServer(gateway).start()
    except BaseException:
        fleet.close()
        raise
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue[str] = asyncio.Queue()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, commands.put_nowait, "close")

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "close")

    threading.Thread(target=read_stdin, daemon=True).start()
    emit({
        "event": "ready",
        "port": server.port,
        "tokens": tokens,
        "worker_pids": [info["pid"] for info in fleet.worker_info()],
    })
    try:
        while (command := await commands.get()) != "close":
            if command == "report":
                emit({
                    "event": "report",
                    "gateway": gateway.counters,
                    "latencies_s": list(gateway.latencies()),
                    "fleet": await asyncio.to_thread(fleet_report, fleet),
                    "probes": None if probe is None else probe.samples(),
                })
    finally:
        await server.aclose()
        await gateway.aclose()
    emit({"event": "closed"})
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--shape", type=int, required=True)
    parser.add_argument("--policy", required=True)
    parser.add_argument("--tenants", required=True)
    parser.add_argument("--trace", action="store_true")
    return asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    sys.exit(main())
