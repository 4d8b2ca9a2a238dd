"""Each correctness check of the benchmark can fail.

Run:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import wsclient


def _solve(x, iterations=7):
    return SimpleNamespace(x=np.asarray(x, dtype=np.float64), iterations=iterations)


def test_bit_identical_passes_only_on_exact_equality():
    ref = _solve(np.linspace(0.0, 1.0, 9))
    assert checks.bit_identical("x", ref.x.tolist(), 7, ref)[1]
    one_ulp = ref.x.copy()
    one_ulp[4] = np.nextafter(one_ulp[4], 2.0)
    assert not checks.bit_identical("x", one_ulp, 7, ref)[1]
    assert not checks.bit_identical("x", ref.x, 8, ref)[1]
    assert not checks.bit_identical("x", ref.x[:-1], 7, ref)[1]


def test_served_identical_needs_both_timed_phases_and_exact_replies():
    ref = _solve(np.arange(4.0))
    good = {"open": {0: (ref.x.tolist(), 7)}, "closed": {37: (ref.x.tolist(), 7)}}
    assert checks.served_identical(good, lambda i: ref)[1]
    assert not checks.served_identical({**good, "closed": {}}, lambda i: ref)[1]
    assert not checks.served_identical({"warm-up": good["open"]}, lambda i: ref)[1]
    wrong = {**good, "closed": {37: ((ref.x + 1.0).tolist(), 7)}}
    assert not checks.served_identical(wrong, lambda i: ref)[1]


def test_true_residual_rejects_a_loose_solution():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x = np.linalg.solve(a, b)
    assert checks.true_residual("r", a.__matmul__, b, x, 1e-12)[1]
    assert not checks.true_residual("r", a.__matmul__, b, x + 1e-6, 1e-8)[1]


def test_zero_copy_and_conservation_fail_on_bad_counters():
    assert checks.zero_copy(0)[1]
    assert not checks.zero_copy(8)[1]
    even = {"admitted": 5, "completed": 3, "failed": 1, "expired": 1}
    assert checks.conserved(even)[1]
    assert not checks.conserved({**even, "completed": 2})[1]


def test_unchanged_sees_a_leaked_shared_memory_block():
    before = checks.shm_entries()
    block = shared_memory.SharedMemory(create=True, size=64)
    try:
        assert not checks.unchanged("shm", before, checks.shm_entries())[1]
    finally:
        block.close()
        block.unlink()
    assert checks.unchanged("shm", before, checks.shm_entries())[1]


def test_unchanged_sees_a_leftover_child_process():
    before = checks.descendants(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        after = checks.descendants(os.getpid())
        assert child.pid in after
        assert not checks.unchanged("children", before, after)[1]
    finally:
        child.kill()
        child.wait(timeout=10)
    assert checks.unchanged(
        "children", before, checks.descendants(os.getpid())
    )[1]


def test_results_from_different_hosts_are_not_comparable():
    host = {"nproc": 2, "affinity_cpus": 2, "cpu_model": "x",
            "blas_threads": {"OMP_NUM_THREADS": "1"},
            "python": "3.11.7", "numpy": "2.0"}
    assert checks.host_mismatch(host, dict(host)) == []
    assert checks.host_mismatch(host, {**host, "nproc": 1}) == ["nproc"]


def test_a_run_with_one_failed_check_is_not_correct():
    assert not checks.all_ok([])
    assert checks.all_ok([("a", True, "")])
    assert not checks.all_ok([("a", True, ""), ("b", False, "")])


def test_masked_frame_unmasks_to_the_request_on_the_server():
    gateway = pytest.importorskip("repro.serve.gateway")
    body = wsclient.encode_body({"b": [0.5] * 20000, "tol": 1e-8})
    data = wsclient.frame(41, body, b"\x9a\x01\xff\x37")

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        return await gateway._ws_read_frame(reader)

    opcode, payload = asyncio.run(read())
    assert opcode == 0x1
    assert payload == b'{"id":41,' + body


def test_success_id_reads_only_converged_successes():
    tail = b'"converged": true, "residual_norm": 1e-09, "status": 200}'
    assert wsclient.success_id(b'{"id": 12, "x": [1.0], ' + tail) == 12
    assert wsclient.success_id(b'{"id": 12, "error": "x", "status": 429}') is None
    assert wsclient.success_id(b'{"status": 200, "id": 12}') is None
    stalled = b'{"id": 12, "x": [1.0], "converged": false, "status": 200}'
    assert wsclient.success_id(stalled) is None


def test_a_non_converged_200_reply_is_a_failure():
    assert wsclient.reply_ok({"id": 1, "converged": True, "status": 200})
    assert not wsclient.reply_ok({"id": 1, "converged": False, "status": 200})
    assert not wsclient.reply_ok({"id": 1, "error": "x", "status": 503})
