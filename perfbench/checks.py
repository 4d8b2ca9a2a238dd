"""The correctness checks every benchmark run makes.

Each check returns ``(name, ok, detail)``; a run is correct only when
every check it made is ``ok``.  They are plain functions of the values
observed, so ``test_perfbench_checks.py`` can show each one failing.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

Check = tuple[str, bool, str]


def bit_identical(name: str, served_x, served_iterations: int, reference) -> Check:
    """A served solution equals a sequential warm solve, bit for bit."""
    x = np.asarray(served_x, dtype=np.float64)
    if x.shape != reference.x.shape:
        return name, False, f"shape {x.shape} != {reference.x.shape}"
    if served_iterations != reference.iterations:
        return name, False, (
            f"iterations {served_iterations} != {reference.iterations}"
        )
    differ = int(np.count_nonzero(x != reference.x))
    return name, differ == 0, f"{differ} entries differ"


def served_identical(samples: dict[str, dict], reference) -> Check:
    """Every sampled reply equals its sequential warm solve, and both
    timed phases were sampled.  ``samples`` maps a phase name to
    ``{request id: (x, iterations)}``; ``reference(i)`` solves request
    ``i`` sequentially."""
    mismatches = [
        detail
        for phase in samples.values()
        for i, (x, iterations) in sorted(phase.items())
        for _, ok, detail in [
            bit_identical(f"request {i}", x, iterations, reference(i))
        ]
        if not ok
    ]
    covered = {name: len(phase) for name, phase in samples.items()}
    timed = covered.get("open", 0) > 0 and covered.get("closed", 0) > 0
    return (
        "served x == sequential warm solve",
        timed and not mismatches,
        f"samples per phase {covered}; {mismatches[:3]}",
    )


def true_residual(name: str, apply_A, b, x, tol: float) -> Check:
    """``||b - A x|| <= tol * ||b||`` in fp64."""
    b = np.asarray(b, dtype=np.float64)
    residual = float(np.linalg.norm(b - apply_A(np.asarray(x, np.float64))))
    limit = tol * float(np.linalg.norm(b))
    return name, residual <= limit, f"||r||={residual:.3e} limit={limit:.3e}"


def zero_copy(copy_bytes: int) -> Check:
    """No request byte crossed a copying transport hop."""
    return "copy_bytes == 0", copy_bytes == 0, f"copy_bytes={copy_bytes}"


def conserved(counters: dict) -> Check:
    """Every admitted request ended exactly once."""
    admitted = counters.get("admitted", 0)
    ended = sum(counters.get(k, 0) for k in ("completed", "failed", "expired"))
    return (
        "admitted == completed + failed + expired",
        admitted == ended,
        f"admitted={admitted} ended={ended}",
    )


def unchanged(name: str, before: set, after: set) -> Check:
    """A set of system objects (``/dev/shm`` entries, child processes)
    is the same after the run as before it."""
    added, removed = sorted(after - before), sorted(before - after)
    return name, not added and not removed, f"added={added} removed={removed}"


#: Host fields that must match before two results may be compared.
HOST_KEYS: tuple[str, ...] = (
    "nproc", "affinity_cpus", "cpu_model", "blas_threads", "python", "numpy",
)


def host_mismatch(old: dict, new: dict) -> list[str]:
    """The host-stamp fields on which two runs differ (empty when the
    runs are comparable)."""
    return [k for k in HOST_KEYS if old.get(k) != new.get(k)]


def descendants(pid: int) -> set[int]:
    """Every live process below ``pid`` in the process tree."""
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
        children[ppid].append(int(entry))
    found: set[int] = set()
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def shm_entries() -> set[str]:
    """Names currently in ``/dev/shm`` (empty set where it is absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def all_ok(checks: list[Check]) -> bool:
    """True when every check passed (and at least one ran)."""
    return bool(checks) and all(ok for _, ok, _ in checks)
