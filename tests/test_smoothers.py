"""Tests for the smoother family."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.kernels import spmv_plain
from repro.sgdia import StoredMatrix
from repro.smoothers import (
    Chebyshev,
    CoarseDirectSolver,
    GaussSeidel,
    ILU0,
    L1Jacobi,
    SymGS,
    WeightedJacobi,
    estimate_lambda_max,
    make_smoother,
)

from tests.helpers import random_sgdia


def _setup(a, smoother, storage="fp32", compute="fp32", scale="never"):
    stored = StoredMatrix.truncate(a, storage, compute, scale=scale)
    smoother.setup(a if scale == "never" else stored.recovered(), stored)
    return smoother, stored


def _residual_reduction(a, smoother, iters=20, seed=0, scale="never",
                        storage="fp32"):
    rng = np.random.default_rng(seed)
    stored = StoredMatrix.truncate(a, storage, "fp32", scale=scale)
    if stored.is_scaled:
        inv = (1.0 / stored.scaling.sqrt_q).astype(np.float64)
        high = a.scaled_two_sided(inv)
    else:
        high = a
    smoother.setup(high, stored)
    b = rng.standard_normal(a.grid.field_shape).astype(np.float32)
    x = np.zeros_like(b)
    for _ in range(iters):
        smoother.smooth(b, x, forward=True)
    r = b - spmv_plain(a, x.astype(np.float64), compute_dtype=np.float64)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


SMOOTHERS = [
    ("jacobi", lambda: WeightedJacobi(weight=0.7), 80),
    ("l1jacobi", lambda: L1Jacobi(), 80),
    ("gs", lambda: GaussSeidel(), 40),
    ("symgs", lambda: SymGS(), 25),
    ("chebyshev", lambda: Chebyshev(degree=3), 40),
]


class TestConvergence:
    @pytest.mark.parametrize("name,factory,iters", SMOOTHERS)
    def test_scalar_spd(self, name, factory, iters):
        a = random_sgdia((5, 5, 5), "3d7", spd=True, diag_boost=8.0)
        assert _residual_reduction(a, factory(), iters) < 1e-3

    @pytest.mark.parametrize(
        "name,factory,iters",
        [s for s in SMOOTHERS if s[0] != "chebyshev"],
    )
    def test_block_spd(self, name, factory, iters):
        a = random_sgdia((4, 4, 4), "3d7", ncomp=3, spd=True, diag_boost=8.0)
        assert _residual_reduction(a, factory(), iters) < 1e-3

    @pytest.mark.parametrize("name,factory,iters", SMOOTHERS)
    def test_scaled_fp16_payload(self, name, factory, iters):
        """Smoothing through the scaled FP16 payload still solves A x = b."""
        a = random_sgdia((5, 5, 5), "3d7", spd=True, diag_boost=8.0)
        a.data *= 3e6  # force out of FP16 range
        red = _residual_reduction(
            a, factory(), iters, scale="auto", storage="fp16"
        )
        assert red < 5e-2

    def test_ilu0_scalar_3d7(self):
        a = random_sgdia((5, 5, 5), "3d7", spd=True, diag_boost=8.0)
        assert _residual_reduction(a, ILU0(), 15) < 1e-3

    def test_ilu0_scaled(self):
        a = random_sgdia((5, 5, 5), "3d7", spd=True, diag_boost=8.0)
        a.data *= 1e6
        assert _residual_reduction(a, ILU0(), 20, scale="auto", storage="fp16") < 5e-2


class TestSmootherSemantics:
    def test_use_before_setup(self):
        s = SymGS()
        with pytest.raises(RuntimeError):
            s.smooth(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_symgs_forward_backward_symmetric_pair(self):
        """SymGS(forward) and SymGS(backward) are exact transposes for a
        symmetric matrix: applying to the same rhs from zero gives results
        related through the transposed operator; check via the energy
        inner product symmetry <M^{-1}u, v> = <u, M^{-1}v>."""
        a = random_sgdia((4, 4, 4), "3d27", spd=True, diag_boost=8.0)
        s, _ = _setup(a, SymGS())
        rng = np.random.default_rng(0)
        u = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        v = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        mu = np.zeros_like(u)
        mv = np.zeros_like(v)
        s.smooth(u, mu, forward=True)
        s.smooth(v, mv, forward=True)
        lhs = float(np.vdot(mu.ravel(), v.ravel()))
        rhs = float(np.vdot(u.ravel(), mv.ravel()))
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_sweep_counts_validated(self):
        with pytest.raises(ValueError):
            SymGS(sweeps=0)
        with pytest.raises(ValueError):
            WeightedJacobi(sweeps=0)
        with pytest.raises(ValueError):
            Chebyshev(degree=0)
        with pytest.raises(ValueError):
            ILU0(sweeps=0)

    def test_extra_nbytes(self):
        a = random_sgdia((4, 4, 4), "3d7", spd=True)
        s, _ = _setup(a, SymGS())
        assert s.extra_nbytes() == a.grid.ndof * 4  # fp32 diag inverse
        i, _ = _setup(a, ILU0())
        assert i.extra_nbytes() > 0

    def test_ilu0_rejects_non_3d7(self):
        a = random_sgdia((4, 4, 4), "3d27", spd=True)
        with pytest.raises(NotImplementedError):
            _setup(a, ILU0())

    def test_ilu0_rejects_blocks(self):
        a = random_sgdia((3, 3, 3), "3d7", ncomp=2, spd=True)
        with pytest.raises(NotImplementedError):
            _setup(a, ILU0())


class TestILU0Factorization:
    def test_factors_reproduce_matrix_on_pattern(self):
        """ILU(0) property: (L U)_ij = a_ij on the sparsity pattern."""
        a = random_sgdia((4, 4, 4), "3d7", spd=True, diag_boost=6.0)
        s, _ = _setup(a, ILU0())
        l_csr = s.l_factor.to_csr(dtype=np.float64)
        u_csr = s.u_factor.to_csr(dtype=np.float64)
        prod = (l_csr @ u_csr).toarray()
        ref = a.to_csr().toarray()
        mask = ref != 0
        assert np.abs((prod - ref)[mask]).max() < 1e-5 * np.abs(ref).max()

    def test_unit_lower_diagonal(self):
        a = random_sgdia((4, 4, 4), "3d7", spd=True)
        s, _ = _setup(a, ILU0())
        lower_st = s.l_factor.stencil
        np.testing.assert_allclose(
            s.l_factor.diag_view(lower_st.offsets.index((0, 0, 0))), 1.0
        )


class TestDirect:
    def test_exact_solve(self):
        a = random_sgdia((3, 3, 3), "3d7", spd=True)
        s, _ = _setup(a, CoarseDirectSolver())
        rng = np.random.default_rng(0)
        b = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        x = np.zeros_like(b)
        s.smooth(b, x)
        r = b - spmv_plain(a, x.astype(np.float64), compute_dtype=np.float64)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-5

    def test_idempotent(self):
        a = random_sgdia((3, 3, 3), "3d7", spd=True)
        s, _ = _setup(a, CoarseDirectSolver())
        rng = np.random.default_rng(1)
        b = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        x = np.zeros_like(b)
        s.smooth(b, x)
        x2 = x.copy()
        s.smooth(b, x2)
        np.testing.assert_allclose(x, x2, rtol=1e-6)

    def test_nan_rhs_propagates(self):
        a = random_sgdia((3, 3, 3), "3d7", spd=True)
        s, _ = _setup(a, CoarseDirectSolver())
        b = np.full(a.grid.field_shape, np.nan, dtype=np.float32)
        x = np.zeros_like(b)
        s.smooth(b, x)
        assert np.isnan(x).all()

    def test_concurrent_applies_of_one_factorization(self):
        # The worker threads of a solve service share one cached hierarchy,
        # so one coarse solver is applied from several threads at once. A
        # subprocess runs it: an unsafe apply corrupts the heap and aborts
        # the interpreter rather than failing an assertion.
        code = textwrap.dedent("""
            import sys
            import threading
            import numpy as np
            from repro.problems import build_problem
            from repro.sgdia import StoredMatrix
            from repro.smoothers import CoarseDirectSolver

            a = build_problem("laplace27", shape=(3, 3, 3), seed=0).a
            s = CoarseDirectSolver()
            s.setup(a, StoredMatrix.truncate(a, "fp32", "fp32", scale="never"))
            b = np.ones(a.grid.field_shape, dtype=np.float32)
            x0 = np.zeros_like(b)
            s.smooth(b, x0)

            same = []

            def apply():
                x = np.zeros_like(b)
                for _ in range(10000):
                    s.smooth(b, x)
                same.append(np.array_equal(x, x0))

            sys.setswitchinterval(1e-6)  # interleave the applies finely
            threads = [threading.Thread(target=apply) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert same == [True] * 4
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_too_large_rejected(self):
        import repro.smoothers.direct as direct_mod

        a = random_sgdia((3, 3, 3), "3d7", spd=True)
        old = direct_mod._MAX_DENSE_DOFS
        direct_mod._MAX_DENSE_DOFS = 10
        try:
            with pytest.raises(ValueError, match="too large"):
                _setup(a, CoarseDirectSolver())
        finally:
            direct_mod._MAX_DENSE_DOFS = old


class TestChebyshev:
    def test_lambda_max_estimate(self):
        a = random_sgdia((4, 4, 4), "3d7", spd=True, diag_boost=6.0)
        from repro.kernels import compute_diag_inv

        dinv = compute_diag_inv(a, dtype=np.float64)
        est = estimate_lambda_max(a, dinv, iterations=30)
        dense = a.to_csr().toarray()
        ref = np.abs(
            np.linalg.eigvals(np.diag(1.0 / np.diag(dense)) @ dense)
        ).max()
        assert est == pytest.approx(ref, rel=0.15)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("jacobi", WeightedJacobi),
            ("symgs", SymGS),
            ("gs", GaussSeidel),
            ("l1jacobi", L1Jacobi),
            ("chebyshev", Chebyshev),
            ("ilu0", ILU0),
            ("direct", CoarseDirectSolver),
        ],
    )
    def test_make_smoother(self, name, cls):
        assert isinstance(make_smoother(name), cls)

    def test_kwargs_forwarded(self):
        s = make_smoother("jacobi", weight=0.5, sweeps=2)
        assert s.weight == 0.5 and s.sweeps == 2

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown smoother"):
            make_smoother("sor")
