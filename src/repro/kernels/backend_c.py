"""Compiled C kernel backend: cffi (ABI mode) over the system C compiler.

The numpy reference converts FP16 coefficients with scalar
half-conversion, which is why it reproduces only the paper's "naive"
kernel bars.  This backend compiles ``sgdia_kernels.c`` once per host —
fp16->fp32 upcast fused into the multiply (``vcvtph2ps``) over the SOA
diagonals, the Section-5 design — and loads it with ``cffi.FFI.dlopen``.

Coverage: scalar grids, SOA payloads, one unbatched vector, payload
{fp16, fp32, fp64} x compute {fp32, fp64}, for SpMV (including the
Algorithm-3 ``Q^{1/2}`` recover-and-rescale), the 8-color Gauss-Seidel
sweep, and the Jacobi sweep built on that SpMV; and restriction /
prolongation of fp32 or fp64 fields through a transfer whose fp32
weights are exact (the fused ``u += P uc`` included), vectorized along z
with the transfer's tables bound once per transfer — block components
and batch columns go through it one scalar field at a time.  Everything
else — batched blocks, ``ncomp > 1`` and AOS for the matrix kernels,
SpTRSV, the BLAS-1 ops and every reduction — delegates to the planned
numpy kernels.  (BF16 payloads are float32 arrays of rounded values, so
they take the fp32 kernels.)

Bit-parity: each cell accumulates its stencil terms in ascending offset
order, multiply then add (or subtract) with no FMA (``-ffp-contract=off``),
exactly the operation sequence of :mod:`repro.kernels.plan`, so results
are bit-identical to the numpy backend (``tests/test_backend_parity.py``).
The wrappers also charge ``kernel.spmv.calls`` / ``kernel.sweep.calls`` /
``precision.fcvt.values`` exactly as the numpy kernels do.

Build and cache: the library is keyed by the sha256 of (source, flags,
compiler version, machine) and cached in ``$XDG_CACHE_HOME/repro-kernels``
(default ``~/.cache/repro-kernels``; a per-user temp directory if that is
not writable).  A build writes a temporary file and ``os.replace``-s it
into place, so concurrent processes on a cold cache never load a partial
library.  Flags are ``-O3 -ffp-contract=off``, plus ``-mavx2 -mf16c`` when
the CPU reports both.  Each load marks its library most recently used and
prunes the cache to the ``CACHE_KEEP`` most recently used libraries, so a
changed source leaves no stale library behind on every host.  Without
cffi or a working compiler :func:`make_backend` returns ``None`` and
:func:`status` says why; the registry then resolves to numpy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from ..observability import metrics as _metrics
from .spmv import field_view

__all__ = [
    "CompileError",
    "CKernels",
    "build_library",
    "make_backend",
    "status",
]

#: C compiler used for the build (module attribute so tests can swap it).
CC: "str | None" = shutil.which("gcc") or shutil.which("cc")

SOURCE = Path(__file__).with_name("sgdia_kernels.c")
_BASE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_SIMD_FLAGS = ("-mavx2", "-mf16c")
_COMPILE_TIMEOUT_S = 300
#: libraries the cache keeps: the portable and SIMD builds of the current
#: source, and two more (another compiler, or the previous source)
CACHE_KEEP = 4
#: XFER_MAX_PAIRS / XFER_MAX_BANDS of the C source: (x, y) terms per
#: transfer output row, and bands per axis
_MAX_PAIRS = 64
_MAX_BANDS = 8

#: payload / compute dtype -> the letter in the C function names
_PAYLOAD = {np.dtype(np.float16): "h", np.dtype(np.float32): "f", np.dtype(np.float64): "d"}
_COMPUTE = {np.dtype(np.float32): "f", np.dtype(np.float64): "d"}
_PAIRS = tuple(p + t for p in "hfd" for t in "fd")

_CDEF = """
int repro_simd(void);
typedef struct {
    int n_out, n_in, nband, mul, shift, off;
    int identity;
    const float *weight;
} xfer_axis;
void xfer_f(const xfer_axis *, const void *, void *, int);
void xfer_d(const xfer_axis *, const void *, void *, int);
""" + "".join(
    f"void spmv_{pt}(const void *, const void *, int, int, int, int,"
    f" const void *, void *, const void *);\n"
    f"void gs_{pt}(const void *, const void *, int, int, int, int, int,"
    f" const void *, void *, const void *, int, void *);\n"
    for pt in _PAIRS
)


class CompileError(RuntimeError):
    """The C library could not be compiled or loaded on this host."""


def cpu_flags() -> "set[str]":
    """The CPU feature flags the kernel reports (empty when unknown)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def cache_dir() -> Path:
    """Per-user library cache, outside any source tree."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = Path(base) / "repro-kernels"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK):
            return path
    except OSError:
        pass
    path = Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def _run(cmd, **kwargs) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            cmd, capture_output=True, timeout=_COMPILE_TIMEOUT_S, **kwargs
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise CompileError(f"cannot run {cmd[0]!r}: {exc}") from exc


def build_library(flags=None, cache: "Path | None" = None):
    """Compile (or find cached) the kernel library; returns ``(path, info)``.

    ``flags`` stands in for the host's CPU flags (default: read them) and
    ``cache`` for the cache directory.  Raises :class:`CompileError`.
    """
    try:
        return _build(flags, cache)
    except OSError as exc:  # unreadable source, unwritable cache
        raise CompileError(f"cannot build the kernel library: {exc}") from exc


def _build(flags, cache):
    source = SOURCE.read_bytes()
    cc = CC
    if not cc:
        raise CompileError("no C compiler found (gcc/cc not on PATH)")
    flags = cpu_flags() if flags is None else set(flags)
    cflags = _BASE_FLAGS + (_SIMD_FLAGS if {"avx2", "f16c"} <= flags else ())
    version = _run([cc, "--version"])
    if version.returncode != 0:
        raise CompileError(f"{cc} --version failed (exit {version.returncode})")
    key = hashlib.sha256()
    for part in (source, " ".join(cflags).encode(), version.stdout,
                 platform.machine().encode()):
        key.update(part)
        key.update(b"\0")
    digest = key.hexdigest()
    cache = cache_dir() if cache is None else Path(cache)
    target = cache / f"sgdia_kernels-{digest[:20]}.so"
    info = {
        "cache_path": str(cache),
        "library": str(target),
        "source_hash": hashlib.sha256(source).hexdigest(),
        "build_hash": digest,
        "compiler": cc,
        "flags": list(cflags),
        "compile_s": 0.0,
        "cached": True,
    }
    if target.exists():
        _touch(target)
        return target, info
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    t0 = time.perf_counter()
    try:
        proc = _run([cc, *cflags, "-x", "c", "-o", str(tmp), "-"], input=source)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            raise CompileError(
                f"{cc} exited {proc.returncode}: {' | '.join(err[-3:])}"
            )
        os.replace(tmp, target)  # atomic: readers see no partial library
    finally:
        if tmp.exists():
            tmp.unlink()
    info.update(compile_s=time.perf_counter() - t0, cached=False)
    return target, info


def _touch(path: Path) -> None:
    try:
        os.utime(path)
    except OSError:  # a read-only cache
        pass


def _prune_cache(cache: Path, used: Path) -> None:
    """Mark ``used`` most recently used, then unlink every library but the
    ``CACHE_KEEP`` most recently used.  A process that has loaded a library
    keeps running after its file is unlinked (POSIX), and a process that
    needs it again rebuilds it."""
    _touch(used)
    libs = []
    for path in cache.glob("sgdia_kernels-*.so"):
        try:
            libs.append((path.stat().st_mtime, path.name, path))
        except OSError:  # unlinked by a concurrent prune
            pass
    libs.sort(reverse=True)
    for _, _, path in libs[CACHE_KEEP:]:
        if path != used:
            try:
                path.unlink()
            except OSError:
                pass


class CKernels:
    """The loaded kernel library and its per-dtype-pair entry points.

    Builds it first if needed (arguments as :func:`build_library`); raises
    :class:`CompileError` when it cannot be built or loaded.
    """

    def __init__(self, flags=None, cache=None) -> None:
        try:
            import cffi
        except ImportError as exc:
            raise CompileError(f"cffi is not importable: {exc}") from exc
        path, info = build_library(flags, cache)
        self.ffi = cffi.FFI()
        self.ffi.cdef(_CDEF)
        try:
            self.lib = self.ffi.dlopen(str(path))
        except OSError as exc:
            raise CompileError(f"cannot load {path}: {exc}") from exc
        _prune_cache(path.parent, path)
        self.info = dict(info, simd=bool(self.lib.repro_simd()))
        self.spmv = {pt: getattr(self.lib, f"spmv_{pt}") for pt in _PAIRS}
        self.gs = {pt: getattr(self.lib, f"gs_{pt}") for pt in _PAIRS}
        self.xfer = {dt: getattr(self.lib, f"xfer_{t}") for dt, t in _COMPUTE.items()}


_STATUS: dict = {"available": False, "reason": "not built yet"}


def status() -> dict:
    """Outcome of the last :func:`make_backend` (for ``backend_status()``)."""
    return dict(_STATUS)


def _pair(a, cdtype) -> "str | None":
    p = _PAYLOAD.get(a.data.dtype)
    t = _COMPUTE.get(cdtype)
    return p + t if p and t else None


def _soa_scalar(plan, a) -> bool:
    """A scalar SOA payload laid out exactly as the plan describes."""
    return (
        plan.ncomp == 1
        and a.layout == "soa"
        and a.data.shape == (len(plan.offsets),) + plan.shape
        and a.data.flags.c_contiguous
    )


def _pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _fp32_exact(tables) -> bool:
    """Whether fp32 arithmetic forms every tensor-product weight
    ``(wx * wy) * wz`` exactly, so that it equals the fp32-rounded FP64
    product a CSR matrix holds (true for linear and injection transfers
    with factors 1, 2 and 4)."""
    prod = np.ones(1)
    for table in tables:
        prod = np.unique(np.multiply.outer(prod, np.unique(table.weight)))
        if not np.array_equal(prod.astype(np.float32), prod):
            return False
    return True


def _bind_tables(ffi, tables):
    """``(xfer_axis[3], keep-alive list)`` describing ``tables``."""
    axes = ffi.new("xfer_axis[3]")
    keep = [axes]
    for ax, table in zip(axes, tables):
        ax.n_out, ax.n_in, ax.nband = table.n_out, table.n_in, table.nband
        ax.mul, ax.off = table.step[0], table.offset
        ax.shift = table.step[1].bit_length() - 1  # div, a power of two
        ax.identity = (
            table.step == (1, 1) and table.offset == 0 and table.nband == 1
            and bool(np.all(table.weight == 1.0))
        )
        keep.append(ffi.from_buffer("float[]", table.weight32))
        ax.weight = keep[-1]
    return axes, keep


def make_backend(reference, kernels: "CKernels | None" = None):
    """The ``c`` :class:`KernelBackend`, or ``None`` when it cannot be built.

    ``reference`` (the numpy backend) runs every call outside the compiled
    coverage; ``kernels`` defaults to the host build.
    """
    from ..coarsen.transfer import deliver
    from .backend import KernelBackend

    if kernels is None:
        try:
            kernels = CKernels()
        except CompileError as exc:
            _STATUS.clear()
            _STATUS.update(available=False, reason=str(exc))
            return None
        _STATUS.clear()
        _STATUS.update(available=True, reason=None, **kernels.info)
    ffi = kernels.ffi
    buf = ffi.from_buffer

    def spmv(plan, a, x, out=None, compute_dtype=None, sqrt_q=None):
        xshape = np.shape(x)
        if compute_dtype is None:
            cdtype = np.result_type(a.data.dtype, np.asarray(x).dtype)
            if cdtype == np.float16:
                cdtype = np.dtype(np.float32)
        else:
            cdtype = np.dtype(compute_dtype)
        pair = _pair(a, cdtype)
        if (
            pair is None
            or not _soa_scalar(plan, a)
            or not (xshape == plan.shape or xshape == (plan.ndof,))
            or not (sqrt_q is None or np.shape(sqrt_q) == plan.shape)
        ):
            return reference.spmv(
                plan, a, x, out=out, compute_dtype=compute_dtype, sqrt_q=sqrt_q
            )
        if _metrics.active():
            _metrics.incr("kernel.spmv.calls")
            if a.data.dtype != cdtype:
                _metrics.incr("precision.fcvt.values", plan.spmv_coeff_values)
        xf = np.asarray(x).reshape(plan.shape)
        q = None
        if sqrt_q is not None:
            q = np.ascontiguousarray(sqrt_q, dtype=cdtype)
            xs = plan.scratch("c_spmv_xq", plan.shape, cdtype)
            np.multiply(q, xf, out=xs, dtype=cdtype)
        else:
            xs = np.ascontiguousarray(xf, dtype=cdtype)
        direct = (
            out is not None
            and out.dtype == cdtype
            and out.size == plan.ndof
            and out.flags.c_contiguous
            and out.flags.writeable
            and not any(
                np.may_share_memory(out, arr)
                for arr in (xs, q, a.data) if arr is not None
            )
        )
        y = out if direct else np.empty(plan.shape, dtype=cdtype)
        kernels.spmv[pair](
            buf(a.data), buf(plan.offsets_table), len(plan.offsets), *plan.shape,
            buf(xs), buf(y), buf(q) if q is not None else ffi.NULL,
        )
        if out is not None:
            if not direct:
                field_view(a.grid, out)[0][...] = y
            return out
        return y.reshape(xshape) if xshape != y.shape else y

    def gs_sweep(plan, a, b, x, diag_inv, forward=True, compute_dtype=np.float32):
        cdtype = np.dtype(compute_dtype)
        pair = _pair(a, cdtype)
        if (
            pair is None
            or plan.sweep_colors is None
            or not _soa_scalar(plan, a)
            or x.shape != plan.shape
            or x.dtype != cdtype
            or not (x.flags.c_contiguous and x.flags.writeable)
            or np.shape(b) != plan.shape
            or np.shape(diag_inv) != plan.shape
            or diag_inv.dtype != cdtype
        ):
            return reference.gs_sweep(
                plan, a, b, x, diag_inv, forward=forward, compute_dtype=compute_dtype
            )
        if _metrics.active():
            _metrics.incr("kernel.sweep.calls")
            if a.data.dtype != cdtype:
                _metrics.incr("precision.fcvt.values", plan.sweep_coeff_values)
        # the rows of one color class in a plane, plus the lanes a blended
        # vector tail may touch
        nx, ny, nz = plan.shape
        rhs = plan.scratch("c_gs_rhs", ((ny + 1) // 2 * nz + 8,), cdtype)
        kernels.gs[pair](
            buf(a.data), buf(plan.offsets_table), len(plan.offsets),
            plan.diag_index, *plan.shape,
            buf(np.ascontiguousarray(b, dtype=cdtype)), buf(x),
            buf(np.ascontiguousarray(diag_inv)), int(bool(forward)), buf(rhs),
        )
        return x

    def jacobi_sweep(plan, a, b, x, diag_inv, weight=1.0, compute_dtype=np.float32):
        if plan.ncomp != 1 or x.ndim != len(plan.field_shape):
            return reference.jacobi_sweep(
                plan, a, b, x, diag_inv, weight=weight, compute_dtype=compute_dtype
            )
        cdtype = np.dtype(compute_dtype)
        ax = spmv(plan, a, x, compute_dtype=cdtype)
        r = np.asarray(b, dtype=cdtype) - ax
        x += cdtype.type(weight) * (diag_inv * r)
        return x

    #: compute dtype (as a type or a dtype) -> (kernel, dtype)
    xfer = {}
    for dt, kernel in kernels.xfer.items():
        xfer[dt] = xfer[dt.type] = (kernel, dt)

    def bind(t, which):
        """``(xfer_axis[3], source grid, destination grid, keep-alive)``
        for one direction of ``t``, or ``False`` outside the compiled
        coverage: weights not in fp32 or not exact there, or tables wider
        than the kernel's fixed-size lists."""
        tables, src, dst = t.direction(which)
        if not (
            t.dtype == np.float32
            and tables[0].nband * tables[1].nband <= _MAX_PAIRS
            and all(tb.nband <= _MAX_BANDS and _pow2(tb.step[1]) for tb in tables)
            and _fp32_exact(tables)
        ):
            return False
        axes, keep = _bind_tables(ffi, tables)
        return axes, src, dst, keep

    def transfer(which):
        key = (ffi, which)  # a second build (its own ffi) binds anew

        def apply(t, x, dtype=None, out=None, add=False):
            bound = t._bound.get(key)
            if bound is None:
                bound = t._bound[key] = bind(t, which)
            arr = np.asarray(x)
            kernel, dt = xfer.get(arr.dtype if dtype is None else dtype, (None, None))
            if not bound or kernel is None or arr.size % bound[1].ncells:
                return t.apply_reference(which, x, dtype, out, add)
            axes, src, dst, _ = bound
            if arr.size == src.ncells:  # one scalar field
                xs = np.ascontiguousarray(arr, dtype=dt)
                if (
                    out is not None
                    and out.dtype == dt
                    and out.shape == dst.shape
                    and out.flags.c_contiguous
                    and out.flags.writeable
                    and not np.may_share_memory(out, xs)
                ):
                    kernel(axes, buf(xs), buf(out), int(bool(add)))
                    return out
                y = np.empty(dst.shape, dtype=dt)
                kernel(axes, buf(xs), buf(y), 0)
                return y if out is None else deliver(out, y, add)
            # components and batch columns: one scalar field each
            m = arr.size // src.ncells
            xs = np.ascontiguousarray(
                np.moveaxis(arr.reshape(src.shape + (m,)), -1, 0), dtype=dt
            )
            ys = np.empty((m,) + dst.shape, dtype=dt)
            for xc, yc in zip(xs, ys):
                kernel(axes, buf(xc), buf(yc), 0)
            y = np.empty(dst.shape + (m,), dtype=dt)
            y[...] = np.moveaxis(ys, 0, -1)
            batch = () if arr.size == src.ndof else (arr.size // src.ndof,)
            y = y.reshape(dst.field_shape + batch)
            return y if out is None else deliver(out, y, add)

        return apply

    return KernelBackend(
        name="c",
        spmv=spmv,
        gs_sweep=gs_sweep,
        jacobi_sweep=jacobi_sweep,
        sptrsv=reference.sptrsv,
        axpy=reference.axpy,
        xpay=reference.xpay,
        dot=reference.dot,  # pairwise summation: never reimplemented
        norm2=reference.norm2,
        restrict=transfer("restrict"),
        prolongate=transfer("prolong"),
        notes=(
            "compiled C (cffi): scalar SOA unbatched SpMV/SymGS/Jacobi and "
            "grid transfers, "
            f"{'AVX2+F16C' if kernels.info['simd'] else 'portable'} build; "
            "numpy for everything else"
        ),
    )
