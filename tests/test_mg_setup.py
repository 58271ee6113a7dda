"""Tests for the multigrid setup phase (Algorithm 1)."""

import numpy as np
import pytest

from repro.mg import MGOptions, directional_strengths, mg_setup
from repro.precision import (
    FULL64,
    K64P32D16_NONE,
    K64P32D16_SCALE_SETUP,
    K64P32D16_SETUP_SCALE,
    K64P32D32,
    PrecisionConfig,
)
from repro.problems.laplace import laplace27_matrix
from repro.smoothers import CoarseDirectSolver, SymGS, WeightedJacobi

from tests.helpers import random_sgdia


@pytest.fixture(scope="module")
def lap16():
    return laplace27_matrix((16, 16, 16))


class TestHierarchyStructure:
    def test_level_count(self, lap16):
        h = mg_setup(lap16, FULL64, MGOptions(min_coarse_dofs=50))
        assert h.n_levels >= 3
        assert h.levels[0].grid.shape == (16, 16, 16)
        assert h.levels[1].grid.shape == (8, 8, 8)

    def test_max_levels_respected(self, lap16):
        h = mg_setup(lap16, FULL64, MGOptions(max_levels=2))
        assert h.n_levels == 2

    def test_min_coarse_dofs_respected(self, lap16):
        h = mg_setup(lap16, FULL64, MGOptions(min_coarse_dofs=2000))
        assert all(
            lev.ndof > 2000 or i == h.n_levels - 1
            for i, lev in enumerate(h.levels)
        )

    def test_coarsest_has_direct_solver(self, lap16):
        h = mg_setup(lap16, FULL64)
        assert isinstance(h.levels[-1].smoother, CoarseDirectSolver)
        assert all(
            isinstance(lev.smoother, SymGS) for lev in h.levels[:-1]
        )

    def test_smoother_option(self, lap16):
        h = mg_setup(
            lap16, FULL64, MGOptions(smoother="jacobi", coarse_solver="smoother")
        )
        assert all(
            isinstance(lev.smoother, WeightedJacobi) for lev in h.levels
        )

    def test_transfers_chain(self, lap16):
        h = mg_setup(lap16, FULL64)
        for i, lev in enumerate(h.levels[:-1]):
            assert lev.transfer is not None
            assert lev.transfer.coarse.shape == h.levels[i + 1].grid.shape
        assert h.levels[-1].transfer is None

    def test_keep_high(self, lap16):
        h = mg_setup(lap16, FULL64, MGOptions(keep_high=True))
        assert all(lev.high is not None for lev in h.levels)
        h2 = mg_setup(lap16, FULL64)
        assert all(lev.high is None for lev in h2.levels)

    def test_coarse_pattern_galerkin_expands(self, lap16):
        # 3d7 fine expands to 3d27 on coarse levels (Table 3 footnote)
        a = random_sgdia((12, 12, 12), "3d7", spd=True)
        h = mg_setup(a, FULL64, MGOptions(min_coarse_dofs=50))
        assert h.levels[1].stored.stencil.name == "3d27"

    def test_coarse_pattern_same_collapses(self):
        a = random_sgdia((12, 12, 12), "3d7", spd=True)
        h = mg_setup(
            a, FULL64, MGOptions(coarse_pattern="same", min_coarse_dofs=50)
        )
        assert h.levels[1].stored.stencil.name == "3d7"

    def test_setup_seconds_recorded(self, lap16):
        h = mg_setup(lap16, FULL64)
        assert h.setup_seconds > 0


class TestComplexityMetrics:
    def test_laplace_cg_matches_paper(self, lap16):
        """Full coarsening gives C_G = 1 + 1/8 + 1/64 ... ~ 1.14 (Table 3)."""
        h = mg_setup(lap16, FULL64, MGOptions(coarsen="full", min_coarse_dofs=50))
        assert h.grid_complexity() == pytest.approx(1.14, abs=0.02)

    def test_operator_complexity_reasonable(self, lap16):
        h = mg_setup(lap16, FULL64)
        assert 1.0 < h.operator_complexity() < 1.6

    def test_memory_report(self, lap16):
        h = mg_setup(lap16, K64P32D16_SETUP_SCALE)
        rep = h.memory_report()
        assert rep["matrix_bytes"] > 0
        assert len(rep["levels"]) == h.n_levels
        assert rep["levels"][0]["storage"] == "fp16"


class TestPrecisionHandling:
    def test_full64_stored_fp64(self, lap16):
        h = mg_setup(lap16, FULL64)
        assert all(lev.stored.matrix.dtype == np.float64 for lev in h.levels)
        assert all(not lev.stored.is_scaled for lev in h.levels)

    def test_d32_stored_fp32(self, lap16):
        h = mg_setup(lap16, K64P32D32)
        assert all(lev.stored.matrix.dtype == np.float32 for lev in h.levels)

    def test_d16_in_range_not_scaled(self, lap16):
        # laplace27 values fit in FP16: the auto branch must not scale
        h = mg_setup(lap16, K64P32D16_SETUP_SCALE)
        assert all(not lev.stored.is_scaled for lev in h.levels)
        assert all(lev.stored.matrix.dtype == np.float16 for lev in h.levels)

    def test_d16_out_of_range_scaled(self):
        a = laplace27_matrix((12, 12, 12), scale=1e8)
        h = mg_setup(a, K64P32D16_SETUP_SCALE)
        assert h.levels[0].stored.is_scaled
        assert not h.levels[0].stored.has_nonfinite()

    def test_none_strategy_overflows(self):
        a = laplace27_matrix((12, 12, 12), scale=1e8)
        h = mg_setup(a, K64P32D16_NONE)
        assert h.levels[0].stored.has_nonfinite()

    def test_scale_always_mode(self, lap16):
        cfg = K64P32D16_SETUP_SCALE.with_(scale_mode="always")
        h = mg_setup(lap16, cfg)
        assert all(lev.stored.is_scaled for lev in h.levels)

    def test_shift_levid_switches_storage(self):
        a = laplace27_matrix((16, 16, 16), scale=1e8)
        cfg = K64P32D16_SETUP_SCALE.with_(shift_levid=1)
        h = mg_setup(a, cfg, MGOptions(min_coarse_dofs=50))
        assert h.levels[0].stored.storage.name == "fp16"
        for lev in h.levels[1:]:
            assert lev.stored.storage.name == "fp32"

    def test_bf16_storage(self, lap16):
        cfg = PrecisionConfig("fp64", "fp32", "bf16")
        h = mg_setup(lap16, cfg)
        assert h.levels[0].stored.storage.name == "bf16"
        assert h.levels[0].stored.matrix.dtype == np.float32

    def test_scale_then_setup_entry_scaling(self):
        a = laplace27_matrix((12, 12, 12), scale=1e8)
        h = mg_setup(a, K64P32D16_SCALE_SETUP)
        assert h.entry_scaling is not None
        # per-level scaling is NOT used in scale-then-setup
        assert all(not lev.stored.is_scaled for lev in h.levels)

    def test_scale_then_setup_in_range_no_entry_scaling(self, lap16):
        h = mg_setup(lap16, K64P32D16_SCALE_SETUP)
        assert h.entry_scaling is None

    def test_setup_then_scale_chain_is_exact(self):
        """The Galerkin chain must be identical to Full64's chain — FP16
        only perturbs the *stored* operators (the paper's key property)."""
        a = laplace27_matrix((12, 12, 12), scale=1e8)
        h64 = mg_setup(a, FULL64, MGOptions(keep_high=True))
        h16 = mg_setup(a, K64P32D16_SETUP_SCALE, MGOptions(keep_high=True))
        for l64, l16 in zip(h64.levels, h16.levels):
            np.testing.assert_allclose(
                l16.high.data, l64.high.data, rtol=1e-12
            )

    def test_scale_then_setup_chain_quantized(self):
        """scale-then-setup's coarse chain differs from the exact chain —
        FP16 quantization propagated through the triple products."""
        a = random_sgdia((12, 12, 12), "3d7", spd=True, diag_boost=8.0)
        a.data *= 1e7
        h64 = mg_setup(a, FULL64, MGOptions(keep_high=True))
        hss = mg_setup(a, K64P32D16_SCALE_SETUP, MGOptions(keep_high=True))
        # compare level-1 operators in a scale-invariant way
        c64 = h64.levels[1].high.to_csr()
        css = hss.levels[1].high.to_csr()
        n64 = c64 / abs(c64).max()
        nss = css / abs(css).max()
        assert abs(n64 - nss).max() > 1e-8


class TestDirectionalStrengths:
    def test_isotropic(self):
        a = laplace27_matrix((10, 10, 10))
        s = directional_strengths(a)
        assert max(s) / min(s) < 1.5

    def test_anisotropic_detected(self):
        from repro.grid import StructuredGrid
        from repro.problems.operators import diffusion_3d7

        g = StructuredGrid((10, 10, 10), spacing=(1.0, 1.0, 0.1))
        a = diffusion_3d7(g, np.ones(g.shape))
        sx, sy, sz = directional_strengths(a)
        assert sz > 10 * sx

    def test_auto_semicoarsening_used(self):
        from repro.grid import StructuredGrid
        from repro.problems.operators import diffusion_3d7

        g = StructuredGrid((12, 12, 12), spacing=(1.0, 1.0, 0.05))
        a = diffusion_3d7(g, np.ones(g.shape))
        h = mg_setup(a, FULL64, MGOptions(coarsen="auto", min_coarse_dofs=50))
        # z must not be coarsened on the first level (strong axis = z only
        # coarsening... semicoarsening keeps the weak axes fine)
        shapes = [lev.grid.shape for lev in h.levels]
        assert shapes[1][0] == shapes[0][0] or shapes[1][2] < shapes[0][2]


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_levels=0),
            dict(nu1=0, nu2=0),
            dict(cycle="x"),
            dict(coarsen="diag"),
            dict(coarsen_factor=3),
            dict(coarse_solver="amg"),
            dict(coarse_pattern="dense"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MGOptions(**kwargs)

    def test_with_copies(self):
        o = MGOptions().with_(nu1=2)
        assert o.nu1 == 2 and MGOptions().nu1 == 1


class TestAutoShiftLevid:
    def test_trips_on_underflowing_problem(self):
        from repro.problems import build_problem

        p = build_problem("rhd", shape=(16, 16, 16))
        cfg = K64P32D16_SETUP_SCALE.with_(shift_levid="auto")
        h = mg_setup(p.a, cfg, p.mg_options)
        fmts = [lev.stored.storage.name for lev in h.levels]
        # the finest level stays FP16; some coarser level shifts to FP32
        assert fmts[0] == "fp16"
        assert "fp32" in fmts[1:]
        # once shifted, every coarser level stays shifted
        first = fmts.index("fp32")
        assert all(f == "fp32" for f in fmts[first:])

    def test_does_not_trip_in_range(self, lap16):
        cfg = K64P32D16_SETUP_SCALE.with_(shift_levid="auto")
        h = mg_setup(lap16, cfg, MGOptions(min_coarse_dofs=50))
        assert all(lev.stored.storage.name == "fp16" for lev in h.levels)

    def test_auto_converges(self):
        from repro.problems import build_problem
        from repro.solvers import solve

        p = build_problem("rhd", shape=(16, 16, 16))
        cfg = K64P32D16_SETUP_SCALE.with_(shift_levid="auto")
        h = mg_setup(p.a, cfg, p.mg_options)
        res = solve(
            p.solver, p.a, p.b, preconditioner=h.precondition,
            rtol=p.rtol, maxiter=300,
        )
        assert res.converged

    def test_invalid_string_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="shift_levid"):
            K64P32D16_SETUP_SCALE.with_(shift_levid="maybe")

    def test_nominal_format_reported(self):
        cfg = K64P32D16_SETUP_SCALE.with_(shift_levid="auto")
        assert cfg.storage_format_for_level(5).name == "fp16"


class TestStructuredGalerkinHierarchy:
    """Default ``mg_setup`` (structured RAP) against a hierarchy finalized
    from the CSR-reference chain: same solve, same footprint."""

    @staticmethod
    def _csr_chain(a, options, monkeypatch):
        import repro.mg.setup as ms
        from repro.coarsen import collapse_to_pattern, galerkin_product
        from repro.sgdia import SGDIAMatrix

        def csr_galerkin(a_fine, transfer, coarse_pattern="3d27", collapse=False):
            coarse = galerkin_product(a_fine.to_csr(), transfer)
            if collapse:
                coarse = collapse_to_pattern(coarse, transfer.coarse, coarse_pattern)
            return SGDIAMatrix.from_csr(
                coarse, transfer.coarse, coarse_pattern, strict=not collapse
            )

        with monkeypatch.context() as m:
            m.setattr(ms, "galerkin_coarse_sgdia", csr_galerkin)
            return ms._build_fp64_chain(a, options)

    @staticmethod
    def _footprint(h):
        rep = h.memory_report()
        return rep["matrix_bytes"] + rep["smoother_bytes"] + rep["transfer_bytes"]

    @pytest.mark.parametrize(
        "name",
        ["laplace27", "laplace27e8", "rhd", "oil", "weather", "rhd-3t",
         "oil-4c", "solid-3d"],
    )
    def test_matches_csr_reference_chain(self, name, monkeypatch):
        self._check(name, None, monkeypatch)

    @pytest.mark.parametrize("name", ["rhd", "weather", "laplace27"])
    def test_collapsed_matches_csr_reference_chain(self, name, monkeypatch):
        self._check(name, "same", monkeypatch)

    def _check(self, name, coarse_pattern, monkeypatch):
        from repro.mg import mg_setup_from_chain
        from repro.problems import build_problem, consistent_rhs
        from repro.solvers import solve

        prob = build_problem(name, shape=(12, 12, 10), seed=0)
        options = prob.mg_options
        if coarse_pattern is not None:
            options = options.with_(coarse_pattern=coarse_pattern)
        h = mg_setup(prob.a, options=options)
        mats, transfers = self._csr_chain(prob.a, options, monkeypatch)
        h_ref = mg_setup_from_chain(mats, transfers, options=options)
        assert h.n_levels == h_ref.n_levels >= 2
        for lev, ref in zip(h.levels[1:], mats[1:]):
            assert lev.grid == ref.grid
            assert lev.nnz_actual == ref.nnz
        assert self._footprint(h) == self._footprint(h_ref)
        b = consistent_rhs(prob.a, np.random.default_rng(5))
        its = []
        for hier in (h, h_ref):
            res = solve(prob.solver, prob.a, b, preconditioner=hier.precondition,
                        rtol=prob.rtol, maxiter=300)
            assert res.status == "converged", (name, res.status)
            its.append(res.iterations)
        assert its[0] == its[1]
