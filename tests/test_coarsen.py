"""Tests for interpolation, transfers and Galerkin coarsening."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.coarsen import (
    Transfer,
    build_transfer,
    choose_coarsen_factors,
    collapse_to_pattern,
    constant_coefficient_coarse_stencil,
    galerkin_coarse_sgdia,
    galerkin_product,
    injection_1d,
    interp_1d,
)
from repro.grid import StructuredGrid, stencil as make_stencil
from repro.problems.laplace import laplace27_matrix
from repro.sgdia import SGDIAMatrix

from tests.helpers import random_sgdia


class TestInterp1D:
    @pytest.mark.parametrize("n", [2, 5, 8, 9, 13])
    def test_rows_sum_to_one(self, n):
        p = interp_1d(n, 2)
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_coarse_points_injected(self):
        p = interp_1d(9, 2).toarray()
        for c in range(5):
            assert p[2 * c, c] == 1.0

    def test_midpoints_averaged(self):
        p = interp_1d(9, 2).toarray()
        assert p[1, 0] == p[1, 1] == 0.5

    def test_factor_one_identity(self):
        p = interp_1d(7, 1)
        np.testing.assert_array_equal(p.toarray(), np.eye(7))

    def test_factor_four_weights(self):
        p = interp_1d(9, 4).toarray()
        np.testing.assert_allclose(p[1, 0], 0.75)
        np.testing.assert_allclose(p[1, 1], 0.25)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            interp_1d(5, 0)

    def test_injection(self):
        r = injection_1d(9, 2).toarray()
        assert r.shape == (9, 5)
        assert r.sum() == 5


class TestTransfer:
    def test_shapes(self):
        g = StructuredGrid((8, 6, 9))
        t = build_transfer(g)
        assert t.coarse.shape == (4, 3, 5)
        assert t.p.shape == (g.ndof, t.coarse.ndof)
        assert t.r.shape == (t.coarse.ndof, g.ndof)

    def test_restriction_is_transpose(self):
        g = StructuredGrid((6, 6, 6))
        t = build_transfer(g)
        diff = abs(t.p.T - t.r)
        assert diff.max() < 1e-7

    def test_block_transfer(self):
        g = StructuredGrid((6, 6, 6), ncomp=3)
        t = build_transfer(g)
        assert t.p.shape == (g.ndof, t.coarse.ndof)
        assert t.coarse.ncomp == 3

    def test_prolongate_constant_preserved(self):
        g = StructuredGrid((7, 8, 9))
        t = build_transfer(g)
        xc = np.ones(t.coarse.field_shape, dtype=np.float32)
        xf = t.prolongate(xc)
        np.testing.assert_allclose(xf, 1.0, rtol=1e-6)

    def test_prolongate_linear_exact(self):
        """Tri-linear interpolation reproduces linear functions exactly
        (away from the clamped tail)."""
        g = StructuredGrid((9, 9, 9))
        t = build_transfer(g)
        ii, jj, kk = np.meshgrid(
            np.arange(5), np.arange(5), np.arange(5), indexing="ij"
        )
        lin_c = 2.0 * ii + 3.0 * jj - kk
        fine = t.prolongate(lin_c.astype(np.float64))
        fi, fj, fk = np.meshgrid(
            np.arange(9), np.arange(9), np.arange(9), indexing="ij"
        )
        expect = (2.0 * fi + 3.0 * fj - fk) / 2.0
        np.testing.assert_allclose(fine, expect, rtol=1e-12)

    def test_restrict_shape_and_adjoint(self):
        g = StructuredGrid((8, 8, 8))
        t = build_transfer(g)
        rng = np.random.default_rng(0)
        xf = rng.standard_normal(g.field_shape)
        xc = rng.standard_normal(t.coarse.field_shape)
        lhs = np.vdot(t.restrict(xf).ravel(), xc.ravel())
        rhs = np.vdot(xf.ravel(), t.prolongate(xc).ravel())
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_injection_kind(self):
        g = StructuredGrid((8, 8, 8))
        t = build_transfer(g, kind="injection")
        xc = np.ones(t.coarse.field_shape)
        xf = t.prolongate(xc)
        assert xf[0, 0, 0] == 1.0 and xf[1, 1, 1] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_transfer(StructuredGrid((4, 4, 4)), kind="cubic")

    def test_semicoarsening_factors(self):
        g = StructuredGrid((8, 8, 8))
        t = build_transfer(g, factors=(2, 2, 1))
        assert t.coarse.shape == (4, 4, 8)


class TestChooseFactors:
    def test_isotropic_full(self):
        g = StructuredGrid((16, 16, 16))
        assert choose_coarsen_factors(g) == (2, 2, 2)

    def test_short_axis_skipped(self):
        g = StructuredGrid((16, 16, 4))
        assert choose_coarsen_factors(g) == (2, 2, 1)

    def test_anisotropy_semicoarsening(self):
        g = StructuredGrid((16, 16, 16))
        f = choose_coarsen_factors(g, anisotropy_weights=(1.0, 1.0, 100.0))
        assert f == (1, 1, 2)

    def test_mild_anisotropy_full(self):
        g = StructuredGrid((16, 16, 16))
        f = choose_coarsen_factors(g, anisotropy_weights=(1.0, 1.0, 3.0))
        assert f == (2, 2, 2)

    def test_deadlock_avoided(self):
        g = StructuredGrid((16, 16, 16))
        # all axes below threshold relative to... cannot happen, but the
        # guard must coarsen something rather than loop forever
        f = choose_coarsen_factors(
            g, anisotropy_weights=(1.0, 1.0, 1.0), semi_threshold=0.1
        )
        assert any(x == 2 for x in f)


class TestGalerkin:
    def test_matches_direct_product(self):
        a = random_sgdia((6, 6, 6), "3d7", spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_product(a.to_csr(), t)
        ref = t.r.astype(np.float64) @ a.to_csr() @ t.p.astype(np.float64)
        assert abs(coarse - ref).max() < 1e-12

    @pytest.mark.parametrize("pattern", ["3d7", "3d19", "3d27"])
    def test_coarse_fits_3d27(self, pattern):
        a = random_sgdia((8, 8, 8), pattern, spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t)  # raises if outside pattern
        assert coarse.stencil.name == "3d27"
        assert coarse.grid.shape == (4, 4, 4)

    def test_block_coarse(self):
        a = random_sgdia((6, 6, 6), "3d7", ncomp=2, spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t)
        ref = t.r.astype(np.float64) @ a.to_csr() @ t.p.astype(np.float64)
        assert abs(coarse.to_csr() - ref).max() < 1e-10

    def test_spd_preserved(self):
        a = random_sgdia((6, 6, 6), "3d7", spd=True, diag_boost=8.0)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t).to_csr().toarray()
        np.testing.assert_allclose(coarse, coarse.T, atol=1e-10)
        assert np.linalg.eigvalsh(coarse).min() > 0

    def test_matches_constant_stencil_reference(self):
        """Interior coarse stencil equals the convolution-algebra RAP."""
        fine = {
            off: (6.0 if off == (0, 0, 0) else -1.0)
            for off in make_stencil("3d7").offsets
        }
        ref = constant_coefficient_coarse_stencil(fine, (2, 2, 2))
        a = SGDIAMatrix.from_constant_stencil(
            StructuredGrid((17, 17, 17)),
            "3d7",
            [fine[o] for o in make_stencil("3d7").offsets],
        )
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t)
        centre = (4, 4, 4)  # interior coarse cell
        for off, val in ref.items():
            d = coarse.stencil.index_of(off)
            got = coarse.diag_view(d)[centre]
            assert got == pytest.approx(val, rel=1e-12), off

    def test_collapse_preserves_row_sums(self):
        a = random_sgdia((8, 8, 8), "3d19", spd=True)
        t = build_transfer(a.grid)
        full = galerkin_product(a.to_csr(), t)
        collapsed = collapse_to_pattern(full, t.coarse, "3d7")
        np.testing.assert_allclose(
            np.asarray(collapsed.sum(axis=1)).ravel(),
            np.asarray(full.sum(axis=1)).ravel(),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_collapse_pattern_respected(self):
        a = random_sgdia((8, 8, 8), "3d19", spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t, coarse_pattern="3d7", collapse=True)
        assert coarse.stencil.name == "3d7"

    def test_strict_rejects_out_of_pattern(self):
        a = random_sgdia((8, 8, 8), "3d19", spd=True)
        t = build_transfer(a.grid)
        with pytest.raises(ValueError, match="outside stencil"):
            galerkin_coarse_sgdia(a, t, coarse_pattern="3d7", collapse=False)

    def test_aggressive_factor_four(self):
        a = laplace27_matrix((17, 17, 17))
        t = build_transfer(a.grid, factors=(4, 4, 4))
        coarse = galerkin_coarse_sgdia(a, t)
        assert coarse.grid.shape == (5, 5, 5)


class TestConstantStencilRAP:
    def test_1d_laplacian_halves(self):
        """Classic result: RAP of tridiag(-1,2,-1) with linear interp is
        tridiag(-1/2, 1, -1/2)."""
        fine = {(0, 0, 1): -1.0, (0, 0, -1): -1.0, (0, 0, 0): 2.0}
        coarse = constant_coefficient_coarse_stencil(fine, (1, 1, 2))
        assert coarse[(0, 0, 0)] == pytest.approx(1.0)
        assert coarse[(0, 0, 1)] == pytest.approx(-0.5)
        assert coarse[(0, 0, -1)] == pytest.approx(-0.5)

    def test_identity_under_injection_like_factor1(self):
        fine = {(0, 0, 0): 3.0, (1, 0, 0): -1.0, (-1, 0, 0): -1.0}
        coarse = constant_coefficient_coarse_stencil(fine, (1, 1, 1))
        assert coarse == pytest.approx(fine)

    def test_row_sum_preserved_for_singular_operator(self):
        """Galerkin preserves the null space action: zero row sums stay
        zero for the periodic-interior Laplacian stencil."""
        st7 = make_stencil("3d7")
        fine = {off: (6.0 if off == (0, 0, 0) else -1.0) for off in st7.offsets}
        coarse = constant_coefficient_coarse_stencil(fine, (2, 2, 2))
        assert sum(coarse.values()) == pytest.approx(0.0, abs=1e-12)


def _csr_reference(a, t, pattern="3d27", collapse=False):
    """The coarse operator by the FP64 CSR route the structured RAP replaced."""
    coarse = galerkin_product(a.to_csr(), t)
    if collapse:
        coarse = collapse_to_pattern(coarse, t.coarse, pattern)
    return SGDIAMatrix.from_csr(coarse, t.coarse, pattern, strict=not collapse)


def _assert_parity(got, ref):
    assert got.stencil.offsets == ref.stencil.offsets
    assert got.grid == ref.grid and got.dtype == np.float64
    scale = np.abs(ref.data).max()
    assert np.abs(got.data - ref.data).max() <= 1e-14 * scale
    np.testing.assert_array_equal(got.data == 0, ref.data == 0)


class TestStructuredGalerkin:
    """The structured RAP against the CSR product it replaced."""

    @pytest.mark.parametrize("interp", ["linear", "injection"])
    @pytest.mark.parametrize(
        "factors", [(2, 2, 2), (1, 1, 2), (2, 1, 1), (4, 4, 4)], ids=str
    )
    @pytest.mark.parametrize("pattern", ["3d7", "3d15", "3d19", "3d27"])
    def test_matches_csr_product(self, pattern, factors, interp):
        # odd and prime axes put clamp rows past the last coarse point
        for shape, ncomp in [
            ((7, 5, 11), 1), ((7, 5, 11), 3), ((7, 5, 11), 4),
            ((13, 13, 13), 1), ((13, 13, 13), 3), ((8, 6, 10), 1),
        ]:
            a = random_sgdia(shape, pattern, ncomp=ncomp, seed=sum(shape) + ncomp)
            t = build_transfer(a.grid, factors, kind=interp)
            _assert_parity(galerkin_coarse_sgdia(a, t), _csr_reference(a, t))

    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("target", ["3d7", "3d19"])
    @pytest.mark.parametrize("pattern", ["3d7", "3d19", "3d27"])
    def test_collapse_matches_reference(self, pattern, target, ncomp):
        a = random_sgdia((9, 7, 11), pattern, ncomp=ncomp, spd=True, seed=3)
        t = build_transfer(a.grid)
        got = galerkin_coarse_sgdia(a, t, coarse_pattern=target, collapse=True)
        _assert_parity(got, _csr_reference(a, t, target, collapse=True))
        full = galerkin_product(a.to_csr(), t)
        np.testing.assert_allclose(
            np.asarray(got.to_csr().sum(axis=1)).ravel(),
            np.asarray(full.sum(axis=1)).ravel(),
            rtol=1e-12,
            atol=1e-14,
        )

    @pytest.mark.parametrize("fmt", ["fp16", "fp32"])
    def test_low_precision_input_computed_in_fp64(self, fmt):
        a = random_sgdia((9, 8, 7), "3d19", spd=True).astype(fmt)
        t = build_transfer(a.grid)
        _assert_parity(galerkin_coarse_sgdia(a, t), _csr_reference(a, t))

    def test_aos_layout(self):
        a = random_sgdia((9, 8, 7), "3d27", ncomp=2).as_layout("aos")
        t = build_transfer(a.grid)
        _assert_parity(galerkin_coarse_sgdia(a, t), _csr_reference(a, t))

    def test_boundary_entries_ignored(self):
        """Entries pointing outside the grid are not part of the operator,
        whether the payload could be used in place or not."""
        for pattern in ("3d27", "3d7"):
            a = random_sgdia((9, 8, 7), pattern)
            clean = galerkin_coarse_sgdia(a, build_transfer(a.grid))
            a.data[...] += 1.0  # breaks the boundary convention
            t = build_transfer(a.grid)
            got = galerkin_coarse_sgdia(a, t)
            _assert_parity(got, _csr_reference(a, t))
            assert not np.array_equal(got.data, clean.data)

    def test_input_untouched(self):
        a = laplace27_matrix((9, 9, 9))
        before = a.data.copy()
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t, coarse_pattern="3d7", collapse=True)
        np.testing.assert_array_equal(a.data, before)
        assert not np.shares_memory(coarse.data, a.data)

    def test_uncoarsened_transfer_is_identity(self):
        a = random_sgdia((5, 6, 7), "3d27")
        coarse = galerkin_coarse_sgdia(a, build_transfer(a.grid, (1, 1, 1)))
        np.testing.assert_array_equal(coarse.data, a.data)
        assert not np.shares_memory(coarse.data, a.data)

    def test_laplace27_bit_identical(self):
        """Dyadic weights and one product per term: the constant-coefficient
        operator comes out exactly as the CSR product computes it."""
        a = laplace27_matrix((12, 11, 13))
        t = build_transfer(a.grid)
        np.testing.assert_array_equal(
            galerkin_coarse_sgdia(a, t).data, _csr_reference(a, t).data
        )

    def test_nonfinite_propagates(self):
        a = random_sgdia((9, 8, 7), "3d7")
        a.diag_view(a.stencil.diag_index)[4, 4, 4] = np.inf
        coarse = galerkin_coarse_sgdia(a, build_transfer(a.grid))
        assert not np.isfinite(coarse.data).all()

    def test_no_csr_round_trip(self, monkeypatch):
        """The setup path stays in SG-DIA storage: no CSR conversion and no
        sparse product, in either pattern mode."""
        import repro.coarsen.galerkin as gal

        def forbidden(*args, **kwargs):
            raise AssertionError("CSR path called")

        monkeypatch.setattr(SGDIAMatrix, "to_csr", forbidden)
        monkeypatch.setattr(SGDIAMatrix, "from_csr", classmethod(forbidden))
        monkeypatch.setattr(gal, "galerkin_product", forbidden)
        monkeypatch.setattr(gal, "collapse_to_pattern", forbidden)
        for ncomp in (1, 3):
            a = random_sgdia((9, 8, 7), "3d19", ncomp=ncomp)
            t = build_transfer(a.grid)
            assert galerkin_coarse_sgdia(a, t).stencil.name == "3d27"
            same = galerkin_coarse_sgdia(a, t, coarse_pattern="3d19", collapse=True)
            assert same.stencil.name == "3d19"

    def test_wide_fine_stencil_rejected(self):
        from repro.grid import Stencil

        wide = Stencil("wide", ((0, 0, 0), (2, 0, 0), (-2, 0, 0)))
        a = SGDIAMatrix.zeros(StructuredGrid((8, 8, 8)), wide)
        with pytest.raises(ValueError, match="radius-1"):
            galerkin_coarse_sgdia(a, build_transfer(a.grid))

    def test_wide_interpolation_rejected(self, monkeypatch):
        """A 1-D coupling beyond radius 1 is an error, never truncated."""
        import repro.coarsen.transfer as tr

        def wide_1d(n, factor):
            p = interp_1d(n, factor).tolil()
            p[n - 1, 0] = 0.25  # the last fine point also feeds coarse point 0
            return p.tocsr()

        monkeypatch.setitem(tr.INTERP_1D, "wide", wide_1d)
        a = random_sgdia((9, 9, 9), "3d7")
        t = build_transfer(a.grid, kind="wide")
        with pytest.raises(ValueError, match="radius 1"):
            galerkin_coarse_sgdia(a, t)

    def test_grid_mismatch_rejected(self):
        a = random_sgdia((8, 8, 8), "3d7")
        with pytest.raises(ValueError, match="does not match"):
            galerkin_coarse_sgdia(a, build_transfer(StructuredGrid((8, 8, 6))))
