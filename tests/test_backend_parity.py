"""Backend registry behavior, the compiled ``c`` backend's build/fallback
contract, and numpy-vs-c bit parity.

The parity cases skip when the ``c`` backend could not be built on this
host (no cffi or no C compiler) — the suite must pass on a bare numpy
install (graceful-fallback contract), which the fallback tests simulate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernels import (
    KernelBackend,
    available_backends,
    axpy,
    backend_c,
    backend_status,
    compute_diag_inv,
    dot,
    get_backend,
    gs_sweep_colored,
    jacobi_sweep,
    norm2,
    plan_for,
    register_backend,
    set_backend,
    spmv,
    spmv_plain,
    sptrsv,
    use_backend,
    xpay,
)
from repro.kernels import backend as _backend
from repro.observability import metrics as _metrics

from tests.helpers import random_sgdia

HAVE_C = "c" in available_backends()
needs_c = pytest.mark.skipif(
    not HAVE_C, reason=f"c backend unavailable: {backend_c.status()['reason']}"
)

SRC = Path(repro.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _reset_backend():
    yield
    set_backend(None)


@pytest.fixture
def fresh_registry(monkeypatch):
    """An empty registry (restored afterwards) so resolution re-probes."""
    monkeypatch.setattr(_backend, "_REGISTRY", {})
    monkeypatch.setattr(_backend, "_selected", None)
    monkeypatch.setattr(_backend, "_resolved", None)
    monkeypatch.setattr(backend_c, "_STATUS", {})
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


def _bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view({2: np.uint16, 4: np.uint32, 8: np.uint64}[arr.itemsize])


def assert_bit_identical(ref, got):
    assert ref.dtype == got.dtype and ref.shape == got.shape
    assert np.array_equal(_bits(ref), _bits(got))


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        set_backend(None)
        expect = "c" if HAVE_C else "numpy"
        assert get_backend().name == expect

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("cuda")

    def test_set_and_revert(self):
        set_backend("numpy")
        assert get_backend().name == "numpy"
        set_backend("auto")
        assert get_backend().name in available_backends()

    def test_use_backend_scoped(self):
        before = get_backend().name
        with use_backend("numpy") as be:
            assert be.name == "numpy"
            assert get_backend().name == "numpy"
        assert get_backend().name == before

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        set_backend(None)  # drop cached resolution
        assert get_backend().name == "numpy"

    def test_unusable_env_degrades_to_numpy(self, monkeypatch):
        """A REPRO_KERNEL_BACKEND the host can't satisfy must not crash."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "not-a-backend")
        set_backend(None)
        assert get_backend().name == "numpy"

    def test_status_shape(self):
        st = backend_status()
        assert "numpy" in st["registered"]
        assert st["resolved"] in st["registered"]
        assert st["c"]["available"] == HAVE_C
        if HAVE_C:
            for key in ("cache_path", "source_hash", "compile_s", "flags"):
                assert key in st["c"]
            # the library cache never lives inside the source tree
            root = SRC.parent
            assert not Path(st["c"]["cache_path"]).resolve().is_relative_to(root)

    def test_compiler_absence_is_graceful(self, fresh_registry, monkeypatch):
        """No compiler: resolution is numpy, the reason is reported, no raise."""
        monkeypatch.setattr(backend_c, "CC", None)
        assert get_backend().name == "numpy"
        assert available_backends() == ("numpy",)
        st = backend_status()
        assert st["resolved"] == "numpy"
        assert st["c"]["available"] is False
        assert "no C compiler" in st["c"]["reason"]


class TestBuildFallback:
    def test_missing_compiler_path(self, fresh_registry, monkeypatch, tmp_path):
        monkeypatch.setattr(backend_c, "CC", str(tmp_path / "no-such-gcc"))
        assert get_backend().name == "numpy"
        assert "cannot run" in backend_status()["c"]["reason"]

    def test_failing_compiler(self, fresh_registry, monkeypatch, tmp_path):
        """A compiler that answers --version but fails every build."""
        cc = tmp_path / "broken-cc"
        cc.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = "--version" ]; then echo broken-cc 0.0; exit 0; fi\n'
            "echo 'internal compiler error' >&2; exit 4\n"
        )
        cc.chmod(0o755)
        monkeypatch.setattr(backend_c, "CC", str(cc))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert get_backend().name == "numpy"
        reason = backend_status()["c"]["reason"]
        assert "exited 4" in reason and "internal compiler error" in reason
        # the failed build leaves no partial library behind
        assert not list((tmp_path / "cache").rglob("*.so"))
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    def test_missing_source_degrades(self, fresh_registry, monkeypatch, tmp_path):
        """A package installed without its C source falls back, no raise."""
        monkeypatch.setattr(backend_c, "SOURCE", tmp_path / "missing.c")
        assert get_backend().name == "numpy"
        assert "cannot build" in backend_status()["c"]["reason"]

    def test_env_request_for_missing_c_degrades(
        self, fresh_registry, monkeypatch
    ):
        monkeypatch.setattr(backend_c, "CC", None)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "c")
        assert get_backend().name == "numpy"

    @needs_c
    def test_cold_cache_concurrent_builds(self, tmp_path):
        """Two processes compiling into one empty cache both load a valid
        library, and the cache holds exactly one finished file."""
        code = (
            "import json, numpy as np\n"
            "from repro.kernels import backend_status, plan_for, spmv_plain,"
            " use_backend\n"
            "from tests.helpers import random_sgdia\n"
            "st = backend_status()\n"
            "a = random_sgdia((6, 5, 7)).astype('fp16')\n"
            "x = np.random.default_rng(1).standard_normal((6, 5, 7))"
            ".astype(np.float32)\n"
            "with use_backend('numpy'):\n"
            "    ref = spmv_plain(a, x, plan=plan_for(a))\n"
            "with use_backend('c'):\n"
            "    got = spmv_plain(a, x, plan=plan_for(a))\n"
            "print(json.dumps({'resolved': st['resolved'],"
            " 'library': st['c']['library'], 'cached': st['c']['cached'],"
            " 'same': bool(np.array_equal(ref.view(np.uint32),"
            " got.view(np.uint32)))}))\n"
        )
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path),
            PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]),
        )
        env.pop("REPRO_KERNEL_BACKEND", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env, cwd=str(SRC.parent),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            outs.append(json.loads(out.strip().splitlines()[-1]))
        assert all(o["resolved"] == "c" and o["same"] for o in outs)
        assert outs[0]["library"] == outs[1]["library"]
        assert any(not o["cached"] for o in outs)  # someone really compiled
        cache = tmp_path / "repro-kernels"
        assert [p.name for p in cache.iterdir()] == [Path(outs[0]["library"]).name]

    @needs_c
    def test_portable_build_parity(self, tmp_path):
        """The build without AVX2/F16C (software half conversion, scalar
        loops) is bit-identical too, including fp16 edge values."""
        kernels = backend_c.CKernels(flags=set(), cache=tmp_path)
        assert kernels.info["simd"] is False
        assert "-mf16c" not in kernels.info["flags"]
        be = backend_c.make_backend(_backend._numpy_backend(), kernels)
        a = _fp16_edge_matrix((9, 7, 21))
        plan = plan_for(a)
        x = np.random.default_rng(3).standard_normal(plan.shape).astype(np.float32)
        b = np.random.default_rng(4).standard_normal(plan.shape).astype(np.float32)
        dinv = compute_diag_inv(random_sgdia((9, 7, 21)))
        numpy_be = _backend._numpy_backend()
        for cdtype in (np.float32, np.float64):
            assert_bit_identical(
                numpy_be.spmv(plan, a, x, compute_dtype=cdtype),
                be.spmv(plan, a, x, compute_dtype=cdtype),
            )
            xr = x.astype(cdtype)
            xc = xr.copy()
            di = dinv.astype(cdtype)
            numpy_be.gs_sweep(plan, a, b, xr, di, compute_dtype=cdtype)
            be.gs_sweep(plan, a, b, xc, di, compute_dtype=cdtype)
            assert_bit_identical(xr, xc)


class TestCachePrune:
    """Each load keeps only the ``CACHE_KEEP`` most recently used libraries;
    a process that loaded a library keeps running after it is unlinked."""

    @staticmethod
    def _stale(cache, n):
        cache.mkdir(parents=True, exist_ok=True)
        paths = []
        for i in range(n):
            path = cache / f"sgdia_kernels-stale{i:02d}.so"
            path.write_bytes(b"")
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        return paths

    @staticmethod
    def _cached_host_library(cache):
        """A copy of this host's library, under its cache name."""
        lib = Path(backend_status()["c"]["library"])
        cache.mkdir(parents=True, exist_ok=True)
        (cache / lib.name).write_bytes(lib.read_bytes())
        return cache / lib.name

    @needs_c
    def test_load_prunes_to_most_recent(self, tmp_path):
        stale = self._stale(tmp_path, 6)
        lib = self._cached_host_library(tmp_path)
        os.utime(lib, (999_000, 999_000))  # older than every stale file
        kernels = backend_c.CKernels(cache=tmp_path)
        assert kernels.info["cached"] and Path(kernels.info["library"]) == lib
        keep = backend_c.CACHE_KEEP
        assert {p.name for p in tmp_path.glob("sgdia_kernels-*.so")} == {
            lib.name, *(p.name for p in stale[-(keep - 1):])}

    @needs_c
    def test_unlinked_library_keeps_running(self, tmp_path):
        lib = self._cached_host_library(tmp_path)
        kernels = backend_c.CKernels(cache=tmp_path)
        lib.unlink()
        be = backend_c.make_backend(_backend._numpy_backend(), kernels)
        a = random_sgdia((6, 5, 7)).astype("fp16")
        x = np.random.default_rng(2).standard_normal((6, 5, 7)).astype(np.float32)
        plan = plan_for(a)
        assert_bit_identical(
            _backend._numpy_backend().spmv(plan, a, x), be.spmv(plan, a, x)
        )

    @needs_c
    def test_cold_cache_concurrent_builds_prune(self, tmp_path):
        """Two processes compiling into a cache full of stale libraries both
        load the new one; the cache ends at ``CACHE_KEEP`` files."""
        cache = tmp_path / "repro-kernels"
        stale = self._stale(cache, 6)
        code = (
            "import json\n"
            "from repro.kernels import backend_status\n"
            "st = backend_status()\n"
            "print(json.dumps({'resolved': st['resolved'],"
            " 'library': st['c']['library']}))\n"
        )
        env = dict(
            os.environ,
            XDG_CACHE_HOME=str(tmp_path),
            PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]),
        )
        env.pop("REPRO_KERNEL_BACKEND", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env, cwd=str(SRC.parent),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = []
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            outs.append(json.loads(out.strip().splitlines()[-1]))
        assert all(o["resolved"] == "c" for o in outs)
        lib = Path(outs[0]["library"])
        keep = backend_c.CACHE_KEEP
        assert {p.name for p in cache.glob("sgdia_kernels-*.so")} == {
            lib.name, *(p.name for p in stale[-(keep - 1):])}


class TestBlas1Dispatch:
    def test_ops_route_through_backend(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100).astype(np.float32)
        y = rng.standard_normal(100).astype(np.float32)
        with use_backend("numpy"):
            yr = y.copy()
            axpy(0.5, x, yr)
            assert np.array_equal(yr, y + np.float32(0.5) * x)
            yr = y.copy()
            xpay(x, 0.25, yr)
            assert np.allclose(yr, x + np.float32(0.25) * y)
            assert dot(x, y) == np.dot(x.astype(np.float64), y.astype(np.float64))
            assert norm2(x) > 0


class TestOuterOperator:
    """The Krylov outer operator (``matvec``) runs on the active backend."""

    def _spy(self, monkeypatch):
        monkeypatch.setattr(_backend, "_REGISTRY", dict(_backend._REGISTRY))
        ref = _backend._numpy_backend()
        calls = []

        def spy_spmv(plan, a, x, **kw):
            calls.append(plan)
            return ref.spmv(plan, a, x, **kw)

        register_backend(KernelBackend(**{
            **{f: getattr(ref, f) for f in (
                "gs_sweep", "jacobi_sweep", "sptrsv", "axpy", "xpay", "dot",
                "norm2",
            )},
            "name": "spy", "spmv": spy_spmv,
        }))
        return calls

    def test_sgdia_matvec_uses_backend(self, monkeypatch):
        calls = self._spy(monkeypatch)
        a = random_sgdia((6, 5, 7))
        x = np.random.default_rng(0).standard_normal(a.grid.ndof)
        ref = spmv(a, x)  # unplanned reference loop
        with use_backend("spy"):
            got = a.matvec(x)
        assert calls == [plan_for(a)]
        assert_bit_identical(ref, got)

    def test_stored_matvec_uses_backend(self, monkeypatch):
        from repro.sgdia import StoredMatrix

        calls = self._spy(monkeypatch)
        stored = StoredMatrix.truncate(random_sgdia((6, 5, 7)), "fp16", scale=True)
        x = np.random.default_rng(0).standard_normal(stored.grid.ndof).astype(np.float32)
        ref = spmv(stored, x)
        with use_backend("spy"):
            got = stored.matvec(x)
        assert calls == [plan_for(stored.matrix)]
        assert_bit_identical(ref, got)


# ----------------------------------------------------------------------
# numpy-vs-c parity
# ----------------------------------------------------------------------

PAYLOADS = ("fp16", "fp32", "fp64")
COMPUTES = (np.float32, np.float64)
STENCILS = ("3d7", "3d19", "3d27")
#: 1-wide, odd, prime, and an nz longer than any fixed-size row buffer
GRIDS = (
    (1, 1, 1), (1, 5, 7), (6, 1, 7), (6, 5, 1), (2, 2, 2),
    (7, 9, 11), (13, 11, 5), (3, 2, 1031),
)


def _case(shape, pattern, fmt, seed=7):
    a = random_sgdia(shape, pattern, seed=seed).astype(fmt)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    b = rng.standard_normal(shape).astype(np.float32)
    q = (0.5 + rng.random(shape)).astype(np.float32)
    return a, b, x, q


def _fp16_edge_matrix(shape):
    """An fp16 payload salted with the format's edge values: largest
    finite, smallest normal and subnormal, signed zeros, and infinities."""
    a = random_sgdia(shape, "3d27", seed=11).astype("fp16")
    edges = np.array(
        [65504.0, -65504.0, 2.0**-14, -(2.0**-14), 2.0**-24, -(2.0**-24),
         2.0**-24 * 3, 0.0, -0.0, np.inf, -np.inf, 6.1e-5, 1e-7],
        dtype=np.float16,
    )
    rng = np.random.default_rng(5)
    flat = a.data.reshape(-1)
    pick = rng.choice(flat.size, size=flat.size // 3, replace=False)
    flat[pick] = edges[rng.integers(0, edges.size, pick.size)]
    return a


def _both(fn):
    with use_backend("numpy"):
        ref = fn()
    with use_backend("c"):
        got = fn()
    return ref, got


@needs_c
class TestCParity:
    """Every c kernel must be bit-identical to the numpy reference."""

    @pytest.mark.parametrize("fmt", PAYLOADS)
    @pytest.mark.parametrize("cdtype", COMPUTES)
    @pytest.mark.parametrize("pattern", STENCILS)
    @pytest.mark.parametrize("scaled", [False, True])
    def test_spmv(self, fmt, cdtype, pattern, scaled):
        a, _b, x, q = _case((6, 5, 7), pattern, fmt)
        plan = plan_for(a)
        sq = q if scaled else None
        ref, got = _both(
            lambda: spmv_plain(a, x, compute_dtype=cdtype, sqrt_q=sq, plan=plan)
        )
        assert got.dtype == np.dtype(cdtype)
        assert_bit_identical(ref, got)

    @pytest.mark.parametrize("fmt", PAYLOADS)
    @pytest.mark.parametrize("cdtype", COMPUTES)
    @pytest.mark.parametrize("pattern", STENCILS)
    @pytest.mark.parametrize("forward", [True, False])
    def test_gs_sweep(self, fmt, cdtype, pattern, forward):
        a, b, x, _q = _case((6, 5, 7), pattern, fmt)
        plan = plan_for(a)
        dinv = compute_diag_inv(a, cdtype)
        xr, xc = x.astype(cdtype), x.astype(cdtype)
        with use_backend("numpy"):
            gs_sweep_colored(a, b, xr, dinv, forward, compute_dtype=cdtype, plan=plan)
        with use_backend("c"):
            gs_sweep_colored(a, b, xc, dinv, forward, compute_dtype=cdtype, plan=plan)
        assert_bit_identical(xr, xc)

    @pytest.mark.parametrize("shape", GRIDS, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_degenerate_grids(self, shape, fmt):
        a, b, x, q = _case(shape, "3d27", fmt)
        plan = plan_for(a)
        ref, got = _both(
            lambda: spmv_plain(a, x, compute_dtype=np.float32, sqrt_q=q, plan=plan)
        )
        assert_bit_identical(ref, got)
        dinv = compute_diag_inv(a)
        for forward in (True, False):
            xr, xc = x.copy(), x.copy()
            with use_backend("numpy"):
                gs_sweep_colored(a, b, xr, dinv, forward, plan=plan)
            with use_backend("c"):
                gs_sweep_colored(a, b, xc, dinv, forward, plan=plan)
            assert_bit_identical(xr, xc)

    @pytest.mark.parametrize("cdtype", COMPUTES)
    def test_fp16_edge_values(self, cdtype):
        a = _fp16_edge_matrix((9, 7, 21))
        plan = plan_for(a)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(plan.shape).astype(cdtype)
        b = rng.standard_normal(plan.shape).astype(cdtype)
        ref, got = _both(lambda: spmv_plain(a, x, compute_dtype=cdtype, plan=plan))
        assert np.isinf(ref).any() and np.isnan(ref).any()  # edges exercised
        assert_bit_identical(ref, got)
        dinv = compute_diag_inv(random_sgdia((9, 7, 21)), cdtype)
        for forward in (True, False):
            xr, xc = x.copy(), x.copy()
            with use_backend("numpy"):
                gs_sweep_colored(a, b, xr, dinv, forward, compute_dtype=cdtype, plan=plan)
            with use_backend("c"):
                gs_sweep_colored(a, b, xc, dinv, forward, compute_dtype=cdtype, plan=plan)
            assert_bit_identical(xr, xc)

    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_jacobi(self, fmt):
        a, b, x, _q = _case((7, 6, 9), "3d27", fmt)
        plan = plan_for(a)
        dinv = compute_diag_inv(a)
        xr, xc = x.copy(), x.copy()
        with use_backend("numpy"):
            jacobi_sweep(a, b, xr, dinv, weight=0.7, plan=plan)
        with use_backend("c"):
            jacobi_sweep(a, b, xc, dinv, weight=0.7, plan=plan)
        assert_bit_identical(xr, xc)

    def test_shapes_and_out(self):
        """Flat vectors, a non-compute-dtype input and ``out=`` buffers."""
        a, _b, x, _q = _case((6, 5, 7), "3d27", "fp16")
        plan = plan_for(a)
        flat64 = x.astype(np.float64).ravel()
        ref, got = _both(lambda: spmv_plain(a, flat64, compute_dtype=np.float32, plan=plan))
        assert got.shape == flat64.shape
        assert_bit_identical(ref, got)
        for out_dtype in (np.float32, np.float64):
            outs = []
            for name in ("numpy", "c"):
                out = np.full(plan.shape, 9.0, dtype=out_dtype)
                with use_backend(name):
                    res = spmv_plain(a, x, out=out, compute_dtype=np.float32, plan=plan)
                assert res is out
                outs.append(out)
            assert_bit_identical(*outs)

    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_delegated_paths(self, layout, k, ncomp):
        """AOS, batched and block operators delegate to numpy unchanged."""
        a = random_sgdia((5, 4, 6), "3d27", ncomp=ncomp).astype("fp16")
        if layout == "aos":
            a = a.as_layout("aos")
        plan = plan_for(a)
        rng = np.random.default_rng(7)
        shape = a.grid.field_shape + ((k,) if k else ())
        x = rng.standard_normal(shape).astype(np.float32)
        b = rng.standard_normal(shape).astype(np.float32)
        ref, got = _both(lambda: spmv_plain(a, x, compute_dtype=np.float32, plan=plan))
        assert_bit_identical(ref, got)
        if layout == "soa":
            dinv = compute_diag_inv(a)
            xr, xc = x.copy(), x.copy()
            with use_backend("numpy"):
                gs_sweep_colored(a, b, xr, dinv, plan=plan)
            with use_backend("c"):
                gs_sweep_colored(a, b, xc, dinv, plan=plan)
            assert_bit_identical(xr, xc)

    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_sptrsv(self, fmt, lower):
        a, b, _x, _q = _case((6, 5, 7), "3d7", fmt)
        plan = plan_for(a)
        dinv = compute_diag_inv(a)
        part = "lower" if lower else "upper"
        ref, got = _both(
            lambda: sptrsv(a, b, lower=lower, part=part, diag_inv=dinv, plan=plan)
        )
        assert_bit_identical(ref, got)

    def test_dot_never_overridden(self):
        """Reductions keep numpy's pairwise summation on every backend."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10_001).astype(np.float32)
        y = rng.standard_normal(10_001).astype(np.float32)
        ref, got = _both(lambda: dot(x, y))
        assert ref == got

    @pytest.mark.parametrize("config", ["K64P32D16-setup-scale", "K64P32D32"])
    def test_vcycle_metrics_identical(self, config):
        """One V-cycle charges the same counters (calls, fcvt volume, by
        level) under both backends."""
        from repro import build_problem, mg_setup, parse_config

        prob = build_problem("laplace27", shape=(12, 12, 12), seed=0)
        h = mg_setup(prob.a, parse_config(config), prob.mg_options)
        b = np.asarray(prob.b, dtype=np.float32)
        snaps, outs = [], []
        for name in ("numpy", "c"):
            with use_backend(name), _metrics.collecting() as m:
                outs.append(h.precondition(b))
            snaps.append(m.to_dict())
        assert snaps[0] == snaps[1]
        assert snaps[0]["kernel.sweep.calls"]["total"] > 0
        if config.startswith("K64P32D16"):
            assert snaps[0]["precision.fcvt.values"]["total"] > 0
        assert_bit_identical(*outs)


@needs_c
@pytest.mark.parametrize("problem", repro.problems.PAPER_PROBLEMS)
def test_solve_bit_identical(problem):
    """CG/GMRES iterates and residual history on every Table-3 problem at
    16^3 are bit-identical under numpy and c."""
    from repro import build_problem, mg_setup, parse_config
    from repro.solvers import solve

    prob = build_problem(problem, shape=(16, 16, 16), seed=0)
    h = mg_setup(prob.a, parse_config("K64P32D16-setup-scale"), prob.mg_options)
    runs = []
    for name in ("numpy", "c"):
        iterates = []
        with use_backend(name):
            res = solve(
                prob.solver, prob.a, prob.b, preconditioner=h.precondition,
                rtol=prob.rtol, maxiter=60,
                callback=lambda it, rel, x: iterates.append(_bits(x).copy()),
            )
        runs.append((res, iterates))
    (r0, it0), (r1, it1) = runs
    assert r0.status == r1.status and r0.iterations == r1.iterations
    assert len(it0) == len(it1) > 0
    assert all(np.array_equal(u, v) for u, v in zip(it0, it1))
    assert np.array_equal(np.asarray(r0.history), np.asarray(r1.history))
    assert_bit_identical(np.asarray(r0.x), np.asarray(r1.x))
