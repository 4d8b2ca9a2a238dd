"""The CG and mixed-precision suites again, on the numpy reference step.

The compiled CG step runs whenever its artifact loads, so the numpy
step is what a host without a C compiler runs.  Every solver test class
of ``test_cg.py`` and ``test_precision.py`` is collected here a second
time with the compiled step hidden.
"""

from __future__ import annotations

import pytest

from repro.sem import compiled
from test_cg import (  # noqa: F401  (collected here a second time)
    TestBatchedCG,
    TestCG,
    TestExhaustedSubspace,
    TestPerSystemStopping,
)
from test_precision import (  # noqa: F401
    TestBatchedMixed,
    TestFp64BitIdentity,
    TestMixedSolveAccuracy,
)


@pytest.fixture(autouse=True)
def numpy_step(monkeypatch):
    monkeypatch.setattr(compiled, "load_step", lambda: "no C compiler found")
    assert compiled.step_status().path == "numpy"
