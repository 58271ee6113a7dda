"""Matrix-free structured transfers: bit parity with the CSR product they
replace, solve identity against CSR-transfer hierarchies, no scipy.sparse
object on the setup / cycle / restore paths, and honest byte accounting.

The CSR reference is the sparse product ``Transfer.p`` / ``Transfer.r``
builds on demand, applied exactly as transfers were applied when the
hierarchy stored those matrices.  Inputs carry ±0, ±inf, NaN and
subnormal entries.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro import build_problem, mg_setup, parse_config, solve
from repro.coarsen import build_transfer
from repro.grid import StructuredGrid
from repro.kernels import available_backends, backend_c, use_backend
from repro.kernels import backend as _backend
from repro.problems import PAPER_PROBLEMS
from repro.serve.cache import load_hierarchy, save_hierarchy

HAVE_C = "c" in available_backends()
BACKENDS = ("numpy", "c") if HAVE_C else ("numpy",)

#: odd, even, prime and 1-wide axes, with factor mixes of {1, 2, 4}
CASES = (
    ((7, 9, 5), (2, 2, 2)),
    ((8, 6, 4), (2, 2, 2)),
    ((11, 13, 7), (1, 2, 4)),
    ((9, 8, 10), (4, 1, 2)),
    ((6, 5, 13), (2, 4, 1)),
    ((12, 7, 9), (2, 1, 1)),
    ((5, 9, 12), (4, 4, 4)),
    ((1, 5, 6), (1, 2, 2)),
    ((6, 1, 1), (2, 1, 1)),
    ((3, 1, 17), (2, 1, 4)),
)
DTYPES = (np.float16, np.float32, np.float64)


def csr_apply(mat, x, src, dst, dtype=None):
    """A transfer as the CSR-storing hierarchy applied it."""
    dtype = dtype or np.asarray(x).dtype
    arr = np.asarray(x, dtype=dtype)
    if arr.size != src.ndof:  # batched: field_shape + (k,) or (ndof, k)
        flat = mat @ arr.reshape(src.ndof, -1)
        out_shape = dst.field_shape + (flat.shape[-1],)
    else:
        flat = mat @ arr.reshape(src.ndof)
        out_shape = dst.field_shape
    return flat.astype(dtype, copy=False).reshape(out_shape)


def assert_bits(got, ref):
    """Bit-identical, except that a NaN may carry another payload or sign:
    which of two NaN operands an add returns depends on the compiled
    operand order (IEEE 754 leaves it open), where a NaN lands does not."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    got, ref = np.ravel(got), np.ravel(ref)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint8), ref[~nan].view(np.uint8))


def edge_field(shape, dtype, seed):
    """Random values with ±0, ±inf, NaN and subnormal entries."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    flat = x.reshape(-1)
    tiny = np.finfo(dtype).smallest_subnormal
    for start, value in ((0, 0.0), (1, -0.0), (2, np.inf), (3, -np.inf),
                         (4, np.nan), (5, 3 * tiny), (6, -tiny)):
        flat[start::11] = value
    return x


def operands(t, ncomp, dtype, seed):
    """(coarse, fine) inputs: one field, a field block, an (ndof, k) block."""
    yield edge_field(t.coarse.field_shape, dtype, seed), edge_field(
        t.fine.field_shape, dtype, seed + 1)
    yield edge_field(t.coarse.field_shape + (3,), dtype, seed + 2), edge_field(
        t.fine.field_shape + (3,), dtype, seed + 3)
    yield edge_field((t.coarse.ndof, 2), dtype, seed + 4), edge_field(
        (t.fine.ndof, 2), dtype, seed + 5)


def check_parity(t, ncomp, apply_r, apply_p, seed=0):
    p, r = t.p, t.r
    for dtype in DTYPES:
        for xc, xf in operands(t, ncomp, dtype, seed):
            assert_bits(apply_r(t, xf, None), csr_apply(r, xf, t.fine, t.coarse))
            assert_bits(apply_p(t, xc, None), csr_apply(p, xc, t.coarse, t.fine))
            # the V-cycle's forms: an explicit compute dtype and u += P uc
            for cdtype in (np.float32, np.float64):
                ref = csr_apply(p, xc, t.coarse, t.fine, cdtype)
                assert_bits(apply_p(t, xc, cdtype), ref)
                u = edge_field(ref.shape, cdtype, seed + 9)
                expect = u.copy()
                expect += ref
                assert apply_p(t, xc, cdtype, out=u, add=True) is u
                assert_bits(u, expect)
                assert_bits(apply_r(t, xf, cdtype),
                            csr_apply(r, xf, t.fine, t.coarse, cdtype))


def restrict(t, x, dtype):
    return t.restrict(x, dtype=dtype)


def prolongate(t, x, dtype, out=None, add=False):
    return t.prolongate(x, dtype=dtype, out=out, add=add)


class TestStructuredTransfer:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ("linear", "injection"))
    @pytest.mark.parametrize("shape,factors", CASES)
    @pytest.mark.parametrize("ncomp", (1, 3, 4))
    def test_parity_with_csr(self, backend, kind, shape, factors, ncomp):
        t = build_transfer(StructuredGrid(shape, ncomp=ncomp), factors, kind)
        with use_backend(backend):
            check_parity(t, ncomp, restrict, prolongate, seed=sum(shape))

    @pytest.mark.skipif(not HAVE_C, reason="c backend unavailable")
    @pytest.mark.parametrize("shape,factors", CASES)
    def test_portable_build_parity(self, portable, shape, factors):
        """The build without AVX2/F16C (scalar loops) is bit-identical."""
        for ncomp in (1, 3):
            t = build_transfer(StructuredGrid(shape, ncomp=ncomp), factors)

            def r(t, x, dtype):
                return portable.restrict(t, x, dtype, None, False)

            def p(t, x, dtype, out=None, add=False):
                return portable.prolongate(t, x, dtype, out, add)

            check_parity(t, ncomp, r, p, seed=ncomp)

    @pytest.mark.skipif(not HAVE_C, reason="c backend unavailable")
    def test_compiled_kernel_serves_scalar_fields(self):
        """The c backend binds its tables once per transfer and direction,
        and declines (numpy reference) weights fp32 cannot form exactly."""
        t = build_transfer(StructuredGrid((9, 8, 7)))
        x = np.ones(t.fine.shape, np.float32)
        with use_backend("c"):
            t.restrict(x)
            t.restrict(x)
            t.prolongate(t.restrict(x))
        bound = [v for v in t._bound.values() if v]
        assert len(bound) == 2
        odd = build_transfer(StructuredGrid((10, 10, 10)), (3, 3, 3))
        with use_backend("c"):
            got = odd.restrict(np.ones(odd.fine.shape, np.float32))
        assert not any(odd._bound.values())  # weights 1/3, 2/3
        assert_bits(got, csr_apply(odd.r, np.ones(odd.fine.shape, np.float32),
                                   odd.fine, odd.coarse))

    def test_concurrent_first_use(self):
        """Threads sharing a transfer (a cached hierarchy in the thread
        service) may bind its kernel tables concurrently; every result
        stays bit-identical."""
        import sys
        import threading

        t = build_transfer(StructuredGrid((10, 9, 8)))
        x = edge_field(t.fine.shape, np.float32, 3)
        xc = edge_field(t.coarse.shape, np.float32, 4)
        ref_r = csr_apply(t.r, x, t.fine, t.coarse)
        ref_p = csr_apply(t.p, xc, t.coarse, t.fine)
        bad = []

        def work():
            for _ in range(50):
                if not (np.array_equal(t.restrict(x), ref_r, equal_nan=True)
                        and np.array_equal(t.prolongate(xc), ref_p, equal_nan=True)):
                    bad.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not bad

    def test_transfer_holds_no_sparse_matrix(self):
        t = build_transfer(StructuredGrid((8, 8, 8), ncomp=3))
        assert not any(sp.issparse(v) for v in vars(t).values())
        assert all(isinstance(a, np.ndarray) for a in t.arrays())
        assert t.nbytes == sum(a.nbytes for a in t.arrays())

    def test_tables_shared_per_axis(self):
        a = build_transfer(StructuredGrid((16, 16, 16)))
        b = build_transfer(StructuredGrid((16, 16, 16), ncomp=4))
        assert a.prolong_axes[0] is a.prolong_axes[2] is b.prolong_axes[1]

    def test_out_shape_mismatch_rejected(self):
        t = build_transfer(StructuredGrid((8, 8, 8)))
        with pytest.raises(ValueError, match="shape"):
            t.apply_reference("prolong", np.ones(t.coarse.shape),
                              out=np.zeros(t.fine.ndof), add=True)


@pytest.fixture(scope="module")
def portable(tmp_path_factory):
    kernels = backend_c.CKernels(flags=set(), cache=tmp_path_factory.mktemp("c"))
    assert kernels.info["simd"] is False
    return backend_c.make_backend(_backend._numpy_backend(), kernels)


def use_csr_transfers(h):
    """Swap every level's transfer for the CSR product (in place)."""
    for level in h.levels[:-1]:
        t = level.transfer
        p, r = t.p, t.r

        def restrict(x, dtype=None, t=t, r=r):
            return csr_apply(r, x, t.fine, t.coarse, dtype)

        def prolongate(x, dtype=None, out=None, add=False, t=t, p=p):
            y = csr_apply(p, x, t.coarse, t.fine, dtype)
            if out is None:
                return y
            if add:
                out += y
            else:
                out[...] = y
            return out

        t.restrict, t.prolongate = restrict, prolongate
    return h


class TestSolveIdentity:
    @pytest.mark.parametrize("name", PAPER_PROBLEMS)
    def test_iterates_match_csr_transfers(self, name):
        prob = build_problem(name, shape=(16, 16, 16))
        config = parse_config("K64P32D16-setup-scale")
        h = mg_setup(prob.a, config, prob.mg_options)
        h_csr = use_csr_transfers(mg_setup(prob.a, config, prob.mg_options))
        got, ref = (
            solve(prob.solver, prob.a, prob.b, preconditioner=m.as_preconditioner(),
                  rtol=prob.rtol, maxiter=60)
            for m in (h, h_csr)
        )
        assert got.iterations == ref.iterations > 0
        assert_bits(got.x, ref.x)
        assert_bits(np.array(got.history.norms), np.array(ref.history.norms))


class TestNoSparseOnSetupPath:
    @pytest.mark.parametrize("name", ("laplace27", "rhd-3t"))
    def test_setup_cycle_and_restore_build_no_sparse(self, name, monkeypatch,
                                                     tmp_path):
        prob = build_problem(name, shape=(12, 12, 12))
        config = parse_config("K64P32D16-setup-scale")
        path = save_hierarchy(tmp_path / "h.npz", mg_setup(prob.a, config,
                                                           prob.mg_options))

        def boom(*args, **kwargs):
            raise AssertionError("scipy.sparse used on a structured path")

        monkeypatch.setattr(sp, "kron", boom)
        monkeypatch.setattr(sp.csr_matrix, "__init__", boom)
        h = mg_setup(prob.a, config, prob.mg_options)
        h.cycle(np.ones(prob.a.grid.field_shape, np.float32))
        restored = load_hierarchy(path, config, prob.mg_options)
        restored.cycle(np.ones(prob.a.grid.field_shape, np.float32))
        with pytest.raises(AssertionError):
            build_transfer(prob.a.grid).p  # the guard is live


class TestTransferMemory:
    @pytest.mark.parametrize("name,shape", [("laplace27", (16, 16, 16)),
                                            ("weather", (16, 16, 8))])
    def test_report_counts_held_arrays(self, name, shape):
        prob = build_problem(name, shape=shape)
        h = mg_setup(prob.a, parse_config("K64P32D16-setup-scale"), prob.mg_options)
        held = {}
        for level in h.levels[:-1]:
            assert not any(sp.issparse(v) for v in vars(level.transfer).values())
            held.update((id(a), a) for a in level.transfer.arrays())
        assert h.memory_report()["transfer_bytes"] == sum(
            a.nbytes for a in held.values())


class TestCoarseDense:
    @pytest.mark.parametrize("name", PAPER_PROBLEMS + ("block",))
    def test_dense_equals_csr_path(self, name):
        import scipy.linalg as sla

        from repro.smoothers import CoarseDirectSolver
        from repro.smoothers.direct import dense_matrix
        from tests.helpers import random_sgdia

        if name == "block":
            high = random_sgdia((3, 4, 2), ncomp=3, seed=5)
            high.data[..., 0, 0, 1] = -0.0  # a stored -0 reads +0, as in CSR
        else:
            prob = build_problem(name, shape=(16, 16, 16))
            opts = dataclasses.replace(prob.mg_options, keep_high=True)
            h = mg_setup(prob.a, parse_config("K64P32D16-setup-scale"), opts)
            assert isinstance(h.levels[-1].smoother, CoarseDirectSolver)
            high = h.levels[-1].high
        dense = dense_matrix(high)
        assert_bits(dense, high.to_csr(dtype=np.float64).toarray())
        lu, piv = sla.lu_factor(dense)
        ref_lu, ref_piv = sla.lu_factor(high.to_csr(dtype=np.float64).toarray())
        assert_bits(lu, ref_lu)
        assert_bits(piv, ref_piv)
