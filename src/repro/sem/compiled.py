"""Compiled fused Poisson operator: generated C behind one foreign call.

The numpy path of :meth:`~repro.sem.poisson.PoissonProblem.apply_A` is
about thirty array dispatches per application (mask, scatter, the three
``Ax`` phases, gather, mask), and at the serving shapes those dispatches
cost more than the arithmetic.  The paper's accelerator has no such
overhead: each element streams through gather -> sum-factorized ``Ax``
-> scatter on chip, and no intermediate field is ever written out.  This
module is that dataflow on the CPU:

* :func:`operator_source` emits C specialized per ``(nx, dtype)`` for
  the whole masked operator on a stacked ``(B, n)`` block.  Per element
  it reads the ``nx^3`` local values straight from the global vector
  through the local-to-global map (masking on the way in), applies
  ``D^T G D`` with every ``nx``-point row held as one GCC vector value,
  and adds the result straight into the global output.  A final pass
  masks the output.  The only scratch is five element-sized arrays on
  the C stack, so no field-sized temporaries exist and concurrent
  callers (threads, problem clones) share nothing mutable.
* :func:`load_operator` compiles that source once per host with the
  system C compiler (``-O3 -march=native``, never ``-ffast-math``) into
  an on-disk cache and loads it with :class:`ctypes.CDLL`, which
  releases the GIL for the call.  The cache file name carries a key
  hashing the source, the compiler's version banner, the flags and the
  CPU flags; the file is written under a temporary name and renamed
  into place, so concurrent compilers leave one complete artifact.
* :class:`CompiledOperator` binds a loaded library to one problem's
  arrays.  The constant pointers (local-to-global map, Dirichlet mask,
  SoA geometry with its component/element strides, ``D``) are converted
  once at bind time; a call converts only the input and output
  addresses.

The same machinery builds a second, shape-agnostic unit: the CG step
(:func:`step_source`, :func:`load_step`, :class:`CompiledStep`).  One
call does one CG iteration's vector work on the active rows of a
``(B, n)`` block — ``p^T A p``, ``x``/``r``/``z`` updates with their two
inner products in one pass, the new direction, the residual norm and
each row's stop/cap bookkeeping — with fp64 accumulators for either
vector dtype and an accumulation order fixed by the element index.
:mod:`repro.sem.cg` runs it whenever it loads, and its numpy step
otherwise; :func:`step_status` says which.

There is no switch.  :class:`~repro.sem.poisson.PoissonProblem` binds
the compiled operator when its backend is the registered ``matmul``
kernel and :func:`load_operator` succeeds; otherwise (no compiler, a
failed compile or load, an uncovered ``nx``) it keeps the numpy path,
and :attr:`~repro.sem.poisson.PoissonProblem.operator_status` says why.
Numpy stays the reference: the compiled result agrees with it to a
tolerance, not bit for bit.  Bit-identity holds within one operator
path — a batched row equals its single-system call, and every process
that loads the same artifact computes the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from string import Template

import numpy as np
from numpy.typing import NDArray

from repro.analysis.annotations import hot_path

#: Points per direction with a compiled specialization: ``N = 3`` and
#: ``N = 7``, the serving shapes.  A row of ``nx`` values must form one
#: GCC vector, whose size has to be a power of two.
COVERED_NX: tuple[int, ...] = (4, 8)

#: Floating dtypes with a compiled specialization, by C suffix.
COVERED_DTYPES: dict[str, str] = {"f64": "double", "f32": "float"}

#: Compiler flags.  Strict IEEE semantics: no ``-ffast-math``/``-Ofast``
#: (GCC's default ``-ffp-contract=fast`` may fuse multiply-adds, which
#: is deterministic for a given artifact).
COMPILE_FLAGS: tuple[str, ...] = (
    "-O3", "-march=native", "-fPIC", "-shared", "-std=gnu11",
)

#: Seconds one compiler run may take before the numpy path is kept.
COMPILE_TIMEOUT_S: float = 120.0

_PREAMBLE = Template("""\
/* Fused SEM Poisson operator, generated by repro.sem.compiled. */
#include <stdint.h>
#include <string.h>

#define NX $nx
#define NX3 (NX * NX * NX)

int sem_poisson_nx(void) { return NX; }
""")

_BODY = Template("""
typedef $real vec_$sfx __attribute__((vector_size(NX * sizeof($real))));
typedef $real uvec_$sfx __attribute__((
    vector_size(NX * sizeof($real)), aligned(sizeof($real)), may_alias));

/* w[b] = mask * Q^T (D^T G D) Q (mask * u[b]) for b < nb, where u and w
 * are (nb, n) row-major; l2g is the (ne, NX, NX, NX) local-to-global
 * map; component c of element e's geometry starts at g + c*cs + e*es;
 * d is the row-major (NX, NX) derivative matrix. */
void sem_poisson_apply_$sfx(
    int64_t nb, const $real *restrict u, $real *restrict w,
    int64_t n, int64_t ne, const int64_t *restrict l2g,
    const $real *restrict mask, const $real *restrict g,
    int64_t cs, int64_t es, const $real *restrict d)
{
    vec_$sfx drow[NX], dtrow[NX];
    for (int l = 0; l < NX; ++l)
        for (int k = 0; k < NX; ++k) {
            drow[l][k] = d[l * NX + k];
            dtrow[l][k] = d[k * NX + l];
        }
    memset(w, 0, (size_t)nb * (size_t)n * sizeof($real));
    for (int64_t e = 0; e < ne; ++e) {
        const int64_t *restrict idx = l2g + e * NX3;
        const $real *restrict ge = g + e * es;
        for (int64_t b = 0; b < nb; ++b) {
            const $real *restrict ub = u + b * n;
            $real *restrict wb = w + b * n;
            vec_$sfx ul[NX][NX], wr[NX][NX], ws[NX][NX], wt[NX][NX];
            for (int i = 0; i < NX; ++i)
                for (int j = 0; j < NX; ++j)
                    for (int k = 0; k < NX; ++k) {
                        int64_t q = idx[(i * NX + j) * NX + k];
                        ul[i][j][k] = ub[q] * mask[q];
                    }
            /* Gradient along r, s (rows combine) and t (within a row),
             * then the symmetric geometric tensor, row by row. */
            for (int i = 0; i < NX; ++i)
                for (int j = 0; j < NX; ++j) {
                    vec_$sfx ar = {0}, as = {0}, at = {0};
                    for (int l = 0; l < NX; ++l) {
                        ar += d[i * NX + l] * ul[l][j];
                        as += d[j * NX + l] * ul[i][l];
                        at += ul[i][j][l] * dtrow[l];
                    }
                    const $real *gp = ge + (i * NX + j) * NX;
                    vec_$sfx g0 = *(const uvec_$sfx *)(gp);
                    vec_$sfx g1 = *(const uvec_$sfx *)(gp + cs);
                    vec_$sfx g2 = *(const uvec_$sfx *)(gp + 2 * cs);
                    vec_$sfx g3 = *(const uvec_$sfx *)(gp + 3 * cs);
                    vec_$sfx g4 = *(const uvec_$sfx *)(gp + 4 * cs);
                    vec_$sfx g5 = *(const uvec_$sfx *)(gp + 5 * cs);
                    wr[i][j] = g0 * ar + g1 * as + g2 * at;
                    ws[i][j] = g1 * ar + g3 * as + g4 * at;
                    wt[i][j] = g2 * ar + g4 * as + g5 * at;
                }
            /* Transposed derivatives, added into the global output in
             * element order (the order of the numpy gather's sums). */
            for (int i = 0; i < NX; ++i)
                for (int j = 0; j < NX; ++j) {
                    vec_$sfx acc = {0};
                    for (int l = 0; l < NX; ++l)
                        acc += d[l * NX + i] * wr[l][j]
                             + d[l * NX + j] * ws[i][l]
                             + wt[i][j][l] * drow[l];
                    const int64_t *q = idx + (i * NX + j) * NX;
                    for (int k = 0; k < NX; ++k)
                        wb[q[k]] += acc[k];
                }
        }
    }
    for (int64_t b = 0; b < nb; ++b) {
        $real *restrict wb = w + b * n;
        for (int64_t q = 0; q < n; ++q)
            wb[q] *= mask[q];
    }
}
""")


def operator_source(nx: int) -> str:
    """C source of the fused operator for ``nx`` points per direction.

    One translation unit holds both precisions
    (``sem_poisson_apply_f64`` and ``sem_poisson_apply_f32``), so a
    problem's fp64 operator and its fp32 twin come from one artifact.
    """
    if nx not in COVERED_NX:
        raise ValueError(f"nx={nx} has no compiled specialization")
    parts = [_PREAMBLE.substitute(nx=nx)]
    for sfx, real in COVERED_DTYPES.items():
        parts.append(_BODY.substitute(sfx=sfx, real=real))
    return "".join(parts)


_STEP_PREAMBLE = """\
/* Fused CG step, generated by repro.sem.compiled. */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define LANES 8

/* Slots of the int64 argument block a solve packs once. */
enum {
    CG_NB, CG_N, CG_INVM_ROWS,
    CG_X, CG_R, CG_Z, CG_P, CG_AP, CG_INVM,
    CG_RZ, CG_PAP, CG_RES, CG_STOP,
    CG_ACTIVE, CG_ITERATIONS, CG_MAXITER,
    CG_SLOTS
};

int sem_cg_slots(void) { return CG_SLOTS; }

typedef double acc_t __attribute__((vector_size(LANES * sizeof(double))));

/* The lane partials summed in one fixed order (halving folds). */
static double lane_sum(acc_t v)
{
    double h[LANES];
    memcpy(h, &v, sizeof h);
    for (int w = LANES / 2; w > 0; w /= 2)
        for (int k = 0; k < w; ++k)
            h[k] += h[k + w];
    return h[0];
}
"""

_STEP_BODY = Template("""
typedef $real svec_$sfx __attribute__((vector_size(LANES * sizeof($real))));
typedef $real usvec_$sfx __attribute__((
    vector_size(LANES * sizeof($real)), aligned(sizeof($real)), may_alias));

/* Lanes [0, m) of p, zero-padded past m: every chunk of a row starts at
 * a multiple of LANES from the row start, whatever its address. */
static inline svec_$sfx ld_$sfx(const $real *p, int64_t m)
{
    if (m == LANES)
        return *(const usvec_$sfx *)p;
    svec_$sfx v = {0};
    memcpy(&v, p, (size_t)m * sizeof($real));
    return v;
}

static inline void st_$sfx($real *p, svec_$sfx v, int64_t m)
{
    if (m == LANES)
        *(usvec_$sfx *)p = v;
    else
        memcpy(p, &v, (size_t)m * sizeof($real));
}

/* a . b: $real products, double lane partials (lane = index % LANES). */
static double dot_$sfx(const $real *a, const $real *b, int64_t n)
{
    acc_t acc = {0};
    for (int64_t i = 0; i < n; i += LANES) {
        int64_t m = n - i < LANES ? n - i : LANES;
        acc += __builtin_convertvector(ld_$sfx(a + i, m) * ld_$sfx(b + i, m),
                                       acc_t);
    }
    return lane_sum(acc);
}

/* One active row: x += a p, r -= a ap, z = r / M with r.z and r.r in the
 * same pass, then p = z + b p.  invm is NULL when z is r.  Updates *rz
 * and returns ||r||. */
static double row_$sfx(int64_t n, double alpha, double *rz, $real *x,
                       $real *r, $real *z, $real *p, const $real *ap,
                       const $real *invm)
{
    const $real a = ($real)alpha;
    acc_t rz_acc = {0}, rr_acc = {0};
    for (int64_t i = 0; i < n; i += LANES) {
        int64_t m = n - i < LANES ? n - i : LANES;
        svec_$sfx pv = ld_$sfx(p + i, m);
        svec_$sfx rv = ld_$sfx(r + i, m) - a * ld_$sfx(ap + i, m);
        st_$sfx(x + i, ld_$sfx(x + i, m) + a * pv, m);
        st_$sfx(r + i, rv, m);
        svec_$sfx zv = rv;
        if (invm) {
            zv = rv * ld_$sfx(invm + i, m);
            st_$sfx(z + i, zv, m);
        }
        rz_acc += __builtin_convertvector(rv * zv, acc_t);
        rr_acc += __builtin_convertvector(rv * rv, acc_t);
    }
    const double rz_new = lane_sum(rz_acc);
    const $real beta = ($real)(rz_new / *rz);
    *rz = rz_new;
    const $real *zs = invm ? z : r;
    for (int64_t i = 0; i < n; i += LANES) {
        int64_t m = n - i < LANES ? n - i : LANES;
        st_$sfx(p + i, ld_$sfx(zs + i, m) + beta * ld_$sfx(p + i, m), m);
    }
    return sqrt(lane_sum(rr_acc));
}

/* One CG iteration over the active rows of a (nb, n) block, given
 * ap = A p.  Returns -1, before any update, when an active row has
 * p.ap <= 0; otherwise the number of rows still active. */
int64_t sem_cg_step_$sfx(const int64_t *blk, int64_t it)
{
    const int64_t nb = blk[CG_NB], n = blk[CG_N];
    const int64_t invm_stride = blk[CG_INVM_ROWS] ? n : 0;
    $real *x = ($real *)(intptr_t)blk[CG_X];
    $real *r = ($real *)(intptr_t)blk[CG_R];
    $real *z = ($real *)(intptr_t)blk[CG_Z];
    $real *p = ($real *)(intptr_t)blk[CG_P];
    const $real *ap = (const $real *)(intptr_t)blk[CG_AP];
    const $real *invm = (const $real *)(intptr_t)blk[CG_INVM];
    double *rz = (double *)(intptr_t)blk[CG_RZ];
    double *pap = (double *)(intptr_t)blk[CG_PAP];
    double *res = (double *)(intptr_t)blk[CG_RES];
    const double *stop = (const double *)(intptr_t)blk[CG_STOP];
    uint8_t *active = (uint8_t *)(intptr_t)blk[CG_ACTIVE];
    int64_t *iterations = (int64_t *)(intptr_t)blk[CG_ITERATIONS];
    const int64_t *maxiter = (const int64_t *)(intptr_t)blk[CG_MAXITER];
    int bad = 0;
    for (int64_t b = 0; b < nb; ++b)
        if (active[b]) {
            pap[b] = dot_$sfx(p + b * n, ap + b * n, n);
            bad |= pap[b] <= 0.0;
        }
    if (bad)
        return -1;
    int64_t left = 0;
    for (int64_t b = 0; b < nb; ++b) {
        if (!active[b])
            continue;
        const int64_t o = b * n;
        res[b] = row_$sfx(n, rz[b] / pap[b], rz + b, x + o, r + o, z + o,
                          p + o, ap + o, invm ? invm + b * invm_stride : 0);
        if (res[b] <= stop[b] || it + 1 >= maxiter[b]) {
            active[b] = 0;
            iterations[b] = it + 1;
        } else {
            ++left;
        }
    }
    return left;
}
""")


def step_source() -> str:
    """C source of the fused CG step (one entry per covered dtype).

    Shape-agnostic: the row count and length are runtime arguments, so
    one artifact serves every problem kind and size.
    """
    parts = [_STEP_PREAMBLE]
    for sfx, real in COVERED_DTYPES.items():
        parts.append(_STEP_BODY.substitute(sfx=sfx, real=real))
    return "".join(parts)


# ----------------------------------------------------------------------
# Toolchain, cache key and on-disk cache
# ----------------------------------------------------------------------
def find_compiler() -> str | None:
    """Absolute path of the system C compiler, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_dir() -> Path:
    """Directory of compiled artifacts: the per-user cache directory.

    ``$XDG_CACHE_HOME/repro-sem`` (``~/.cache/repro-sem`` by default);
    a per-user directory under the system temp dir when that cannot be
    created.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-sem"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    path = Path(tempfile.gettempdir()) / f"repro-sem-{os.getuid()}"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def _cpu_flags() -> str:
    """The host's CPU feature flags (what ``-march=native`` reads)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _compiler_version(cc: str) -> str:
    """The compiler's ``--version`` banner, run once per binary per host.

    The banner is memoized in :func:`cache_dir` under the identity of
    the resolved binary (path, size, mtime): later processes, fleet
    workers included, read a file instead of starting the compiler, and
    an upgraded compiler is asked again.
    """
    real = os.path.realpath(cc)
    st = os.stat(real)
    ident = hashlib.sha256(
        f"{real}\0{st.st_size}\0{st.st_mtime_ns}".encode()
    ).hexdigest()[:20]
    memo = cache_dir() / f"cc-{ident}.version"
    try:
        return memo.read_text()
    except OSError:
        pass
    banner = subprocess.run(
        [cc, "--version"], capture_output=True, text=True,
        timeout=COMPILE_TIMEOUT_S, check=True,
    ).stdout
    fd, tmp = tempfile.mkstemp(
        prefix=memo.name + ".", suffix=".tmp", dir=memo.parent
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(banner)
        os.replace(tmp, memo)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return banner


def cache_key(source: str, cc: str) -> str:
    """Hex key over the source, compiler version, flags and CPU flags."""
    digest = hashlib.sha256()
    for part in (
        source, _compiler_version(cc), " ".join(COMPILE_FLAGS), _cpu_flags(),
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:20]


def compile_source(cc: str, source: str, dest: Path) -> None:
    """Compile ``source`` into the shared object ``dest``, atomically.

    The compiler writes a private temporary file in ``dest``'s
    directory, which is then renamed over ``dest``: a reader sees either
    no file or a complete one, and two processes compiling the same key
    at once both finish with the same single artifact.

    Raises
    ------
    RuntimeError
        With the compiler's first error line when it fails.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=dest.stem + ".", suffix=".tmp", dir=dest.parent
    )
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *COMPILE_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True, text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        if done.returncode != 0:
            lines = (done.stderr or done.stdout).strip().splitlines()
            raise RuntimeError(
                f"{Path(cc).name} exited {done.returncode}: "
                + (lines[0] if lines else "no output")
            )
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
_ARGTYPES = [
    ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
]


@dataclass(frozen=True)
class OperatorLibrary:
    """A loaded artifact: its cache key, file and entry points."""

    key: str
    path: Path
    functions: dict


@dataclass(frozen=True)
class OperatorStatus:
    """Which operator path a problem runs, and why.

    Attributes
    ----------
    path:
        ``"compiled"`` or ``"numpy"``.
    key:
        Cache key of the loaded artifact (``None`` on the numpy path).
    reason:
        Why the numpy path runs (``None`` on the compiled path).
    """

    path: str
    key: str | None = None
    reason: str | None = None


_LOCK = threading.Lock()
#: Loaded libraries (or failure reasons) by artifact path: one compile
#: and one ``dlopen`` per artifact per process.
_LOADED: dict[Path, "OperatorLibrary | str"] = {}

#: Argument and return types of the step entry points.
_STEP_ARGTYPES = [ctypes.c_void_p, ctypes.c_int64]

#: Slots of the step's packed argument block (the C ``enum``).
STEP_SLOTS: tuple[str, ...] = (
    "nb", "n", "invm_rows", "x", "r", "z", "p", "ap", "invm",
    "rz", "pap", "res", "stop", "active", "iterations", "maxiter",
)


def _open_operator(nx: int, key: str, path: Path) -> OperatorLibrary:
    """``dlopen`` an operator artifact and declare its entry points."""
    lib = ctypes.CDLL(str(path))
    lib.sem_poisson_nx.restype = ctypes.c_int
    lib.sem_poisson_nx.argtypes = []
    if lib.sem_poisson_nx() != nx:
        raise OSError(f"{path.name} is not the nx={nx} operator")
    functions = {}
    for sfx in COVERED_DTYPES:
        fn = getattr(lib, f"sem_poisson_apply_{sfx}")
        fn.restype = None
        fn.argtypes = _ARGTYPES
        functions[sfx] = fn
    return OperatorLibrary(key=key, path=path, functions=functions)


def _open_step(key: str, path: Path) -> OperatorLibrary:
    """``dlopen`` a CG step artifact and declare its entry points."""
    lib = ctypes.CDLL(str(path))
    lib.sem_cg_slots.restype = ctypes.c_int
    lib.sem_cg_slots.argtypes = []
    if lib.sem_cg_slots() != len(STEP_SLOTS):
        raise OSError(f"{path.name} does not take the current step block")
    functions = {}
    for sfx in COVERED_DTYPES:
        fn = getattr(lib, f"sem_cg_step_{sfx}")
        fn.restype = ctypes.c_int64
        fn.argtypes = _STEP_ARGTYPES
        functions[sfx] = fn
    return OperatorLibrary(key=key, path=path, functions=functions)


def _load(stem: str, source: str, opener) -> "OperatorLibrary | str":
    """Compile (on a cache miss) and load one artifact, memoized by path.

    ``opener(key, path)`` ``dlopen``s the file and checks it.  Never
    raises: every failure comes back as a one-line reason string.
    """
    cc = find_compiler()
    if cc is None:
        return "no C compiler found"
    with _LOCK:
        try:
            key = cache_key(source, cc)
            path = cache_dir() / f"{stem}_{key}.so"
        except (OSError, subprocess.SubprocessError) as exc:
            return f"compiler setup failed: {exc}"
        loaded = _LOADED.get(path)
        if loaded is not None:
            return loaded
        try:
            if not path.exists():
                compile_source(cc, source, path)
            try:
                loaded = opener(key, path)
            except OSError:
                # A damaged artifact (say, from a full disk) is rebuilt
                # once, not trusted.
                compile_source(cc, source, path)
                loaded = opener(key, path)
        except (OSError, RuntimeError, AttributeError,
                subprocess.SubprocessError) as exc:
            loaded = f"compiled {stem} unavailable: {exc}"
        _LOADED[path] = loaded
        return loaded


def load_operator(nx: int) -> "OperatorLibrary | str":
    """The compiled operator library for ``nx``, or why there is none.

    Compiles into :func:`cache_dir` on a cache miss, loads the artifact
    on a hit, and memoizes either outcome per process.  Never raises:
    every failure comes back as a one-line reason string, and the
    caller keeps the numpy path.
    """
    if nx not in COVERED_NX:
        return f"nx={nx} has no compiled specialization (covered: {COVERED_NX})"
    return _load(
        f"sem_poisson_nx{nx}", operator_source(nx),
        functools.partial(_open_operator, nx),
    )


@functools.cache
def load_step() -> "OperatorLibrary | str":
    """The compiled CG step library, or why there is none.

    As :func:`load_operator`, but resolved once per process: every CG
    solve asks for it, so later calls touch neither the compiler nor
    the disk.
    """
    return _load("sem_cg_step", step_source(), _open_step)


def step_status() -> OperatorStatus:
    """Which CG step path :mod:`repro.sem.cg` runs in this process."""
    lib = load_step()
    if isinstance(lib, str):
        return OperatorStatus("numpy", reason=lib)
    return OperatorStatus("compiled", key=lib.key)


# ----------------------------------------------------------------------
# Binding
# ----------------------------------------------------------------------
class CompiledOperator:
    """The fused operator of one problem in one dtype.

    Holds references to every array it passes by pointer, so none can
    be freed while the operator lives.  Stateless between calls: any
    number of threads may call one instance at once.

    Parameters
    ----------
    fn:
        The library entry point for ``dtype``.
    l2g:
        Flat int64 local-to-global map, ``E * nx^3`` entries.
    mask:
        Global Dirichlet mask (1 interior, 0 boundary) in ``dtype``.
    g_soa:
        ``(6, E, nx, nx, nx)`` geometric factors in ``dtype``; any
        component/element strides, unit stride within an element.
    deriv:
        The ``(nx, nx)`` derivative matrix in ``dtype``.
    """

    def __init__(
        self,
        fn,
        l2g: NDArray[np.int64],
        mask: NDArray,
        g_soa: NDArray,
        deriv: NDArray,
    ) -> None:
        dtype = mask.dtype
        nx = deriv.shape[0]
        item = dtype.itemsize
        inner = (nx * nx * item, nx * item, item)
        # Everything the C code indexes is checked here, once: shapes,
        # dtypes, unit-stride rows, and the map's range.
        if (
            mask.ndim != 1 or not mask.flags.c_contiguous
            or deriv.shape != (nx, nx) or deriv.dtype != dtype
            or not deriv.flags.c_contiguous
            or g_soa.ndim != 5 or g_soa.shape[0] != 6
            or g_soa.shape[2:] != (nx, nx, nx) or g_soa.dtype != dtype
            or tuple(g_soa.strides[2:]) != inner
            or g_soa.strides[0] % item or g_soa.strides[1] % item
            or l2g.dtype != np.int64 or not l2g.flags.c_contiguous
            or l2g.shape != (g_soa.shape[1] * nx ** 3,)
            or (l2g.size and (l2g.min() < 0 or l2g.max() >= mask.shape[0]))
        ):
            raise ValueError("arrays do not match the compiled layout")
        self.dtype = dtype
        self.n = int(mask.shape[0])
        self._fn = fn
        self._arrays = (l2g, mask, g_soa, deriv)
        self._consts = (
            self.n, int(g_soa.shape[1]),
            l2g.ctypes.data, mask.ctypes.data, g_soa.ctypes.data,
            g_soa.strides[0] // item, g_soa.strides[1] // item,
            deriv.ctypes.data,
        )

    @hot_path
    def apply(self, u: NDArray, out: NDArray | None = None) -> NDArray:
        """``A u`` for ``(n,)`` or stacked ``(B, n)`` input, into ``out``.

        The common case — matching dtype, C-contiguous, non-overlapping
        ``u`` and writeable ``out`` — is one foreign call with the GIL
        released.  Anything else goes through :meth:`_apply_general`.
        """
        if (
            out is not None
            and 0 < u.ndim < 3
            and u.shape == out.shape
            and u.shape[-1] == self.n
            and u.dtype == self.dtype
            and out.dtype == self.dtype
            and u.flags.c_contiguous
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            src, dst = u.ctypes.data, out.ctypes.data
            if src + u.nbytes <= dst or dst + out.nbytes <= src:
                self._fn(u.size // self.n, src, dst, *self._consts)
                return out
        return self._apply_general(u, out)

    def _apply_general(self, u: NDArray, out: NDArray | None) -> NDArray:
        """Cast, copy or allocate as needed, then make the fused call."""
        u = np.asarray(u)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ValueError(
                f"expected ({self.n},) or (B, {self.n}), got {u.shape}"
            )
        if out is not None and out.shape != u.shape:
            raise ValueError(f"out must be {u.shape}, got {out.shape}")
        src = np.array(u, dtype=self.dtype, order="C")
        result = np.empty_like(src)
        self._fn(src.size // self.n, src.ctypes.data, result.ctypes.data,
                 *self._consts)
        if out is None:
            return result
        np.copyto(out, result)
        return out


class CompiledStep:
    """The fused CG step bound to one solve's buffers.

    Every address is packed once, at bind time, into an int64 block
    (:data:`STEP_SLOTS`); a call passes that block and the iteration
    number.  Holds references to every array it points into, so none
    can be freed while the step lives.

    Parameters
    ----------
    fn:
        The library entry point for the vectors' dtype.
    x, r, z, p, ap:
        ``(B, n)`` C-contiguous CG vectors of one float dtype; ``z`` may
        be ``r`` when there is no preconditioner.
    inv_m:
        Inverse Jacobi diagonal: ``None``, shared ``(n,)`` or per-row
        ``(B, n)``.
    rz, pap, res, stop:
        ``(B,)`` fp64 per-row scalars.
    active:
        ``(B,)`` bool mask of rows still iterating (updated in place).
    iterations, maxiter:
        ``(B,)`` int64 iteration counts (updated) and caps.
    """

    def __init__(self, fn, x, r, z, p, ap, inv_m, rz, pap, res, stop,
                 active, iterations, maxiter) -> None:
        nb, n = x.shape
        vectors = (x, r, z, p, ap)
        rows = (rz, pap, res, stop, active, iterations, maxiter)
        row_dtypes = (np.float64,) * 4 + (np.bool_, np.int64, np.int64)
        if (
            any(v.shape != (nb, n) or v.dtype != x.dtype
                or not v.flags.c_contiguous for v in vectors)
            or any(a.shape != (nb,) or a.dtype != dt or not a.flags.c_contiguous
                   for a, dt in zip(rows, row_dtypes))
            or (inv_m is not None and (
                inv_m.shape not in ((n,), (nb, n)) or inv_m.dtype != x.dtype
                or not inv_m.flags.c_contiguous))
        ):
            raise ValueError("arrays do not match the compiled step layout")
        self._arrays = (*vectors, inv_m, *rows)
        self._block = np.array(
            [nb, n, inv_m is not None and inv_m.ndim == 2]
            + [v.ctypes.data for v in vectors]
            + [0 if inv_m is None else inv_m.ctypes.data]
            + [a.ctypes.data for a in rows],
            dtype=np.int64,
        )
        self.iterations, self.maxiter = iterations, maxiter
        self._fn = fn
        self._addr = self._block.ctypes.data

    @hot_path
    def __call__(self, it: int) -> int:
        """One iteration: the rows still active, or ``-1`` (nothing
        updated) when an active row has ``p^T A p <= 0``."""
        return self._fn(self._addr, it)
